import numpy as np
import pytest

from ripplegrid.featmap import (
    FeatureMapKind,
    FeatureMapParams,
    _sin_cos,
    feature_forward,
    feature_vjp,
    init_feature_map,
)


def dense_oracle(x, params):
    """Straight-line scalar re-implementation of the adaptive map."""
    z = params.w1 @ x
    u = np.concatenate((np.sin(z), np.cos(z)))
    return np.maximum(params.w2 @ u + params.b2, 0.0)


def test_shapes_and_defaults():
    rng = np.random.default_rng(0)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 5, rng)
    assert fm.in_dim == 5 and fm.out_dim == 5
    assert feature_forward(np.zeros((3, 4, 5)), fm).shape == (3, 4, 5)
    wide = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 5, rng,
                            freq_dim=7, out_dim=3)
    assert wide.out_dim == 3
    trig = init_feature_map(FeatureMapKind.RANDOM_TRIG, 5, rng)
    assert trig.out_dim == 10  # [sin; cos] doubles the frequency count


def test_sin_cos_matches_libm():
    rng = np.random.default_rng(10)
    mag = 10.0 ** rng.uniform(-3.0, 8.0, 200_000)
    quarter = np.arange(-4000, 4000) * (np.pi / 2)
    z = np.concatenate((mag, -mag, quarter, quarter + 1e-9, quarter - 1e-12))
    u = _sin_cos(z[:, None].copy())
    assert np.abs(u[:, 0] - np.sin(z)).max() <= 5e-16
    assert np.abs(u[:, 1] - np.cos(z)).max() <= 5e-16
    zero = _sin_cos(np.array([0.0, -0.0]))
    np.testing.assert_array_equal(zero, [0.0, -0.0, 1.0, 1.0])
    assert list(np.signbit(zero)) == [False, True, False, False]


@pytest.mark.parametrize("name", ["w1", "w2", "b2"])
def test_nonfinite_params_rejected(name):
    rng = np.random.default_rng(11)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 3, rng)
    arrays = {"w1": fm.w1, "w2": fm.w2, "b2": fm.b2}
    for bad in (np.inf, np.nan):
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = bad
        with pytest.raises(ValueError, match=name):
            FeatureMapParams(kind=fm.kind, **arrays)
    trig = init_feature_map(FeatureMapKind.RANDOM_TRIG, 3, rng)
    with pytest.raises(ValueError, match="w1"):
        FeatureMapParams(kind=trig.kind, w1=np.full((2, 3), np.inf), w2=None, b2=None)


def test_zero_frequencies():
    # W1 = 0 makes the sin half 0 and the cos half 1
    w2 = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.5, -1.0, -1.0]])
    fm = FeatureMapParams(kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE,
                          w1=np.zeros((2, 3)), w2=w2, b2=np.array([0.1, 0.2]))
    want = np.maximum(w2 @ np.array([0.0, 0.0, 1.0, 1.0]) + fm.b2, 0.0)
    np.testing.assert_allclose(feature_forward(np.ones(3), fm), want, rtol=1e-15)


def test_adaptive_matches_dense_oracle():
    rng = np.random.default_rng(1)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng,
                          freq_dim=6, out_dim=5)
    for _ in range(20):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(feature_forward(x, fm), dense_oracle(x, fm),
                                   rtol=1e-12, atol=1e-12)


def test_adaptive_nonnegative():
    rng = np.random.default_rng(2)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 6, rng)
    phi = feature_forward(rng.standard_normal((50, 6)), fm)
    assert np.all(phi >= 0.0)


def test_random_trig_formula():
    rng = np.random.default_rng(3)
    fm = init_feature_map(FeatureMapKind.RANDOM_TRIG, 4, rng, freq_dim=5)
    x = rng.standard_normal(4)
    z = fm.w1 @ x
    want = np.concatenate((np.sin(z), np.cos(z))) / np.sqrt(5)
    np.testing.assert_allclose(feature_forward(x, fm), want, rtol=1e-12)


def test_param_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        FeatureMapParams(kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE,
                         w1=np.zeros((2, 3)), w2=None, b2=None)
    with pytest.raises(ValueError):
        FeatureMapParams(kind=FeatureMapKind.RANDOM_TRIG,
                         w1=np.zeros((2, 3)), w2=np.zeros((2, 4)), b2=np.zeros(2))
    with pytest.raises(ValueError):  # w2 columns must be 2*freq
        FeatureMapParams(kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE,
                         w1=np.zeros((2, 3)), w2=np.zeros((2, 5)), b2=np.zeros(2))
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 3, rng)
    with pytest.raises(ValueError):
        feature_forward(np.zeros(4), fm)


def test_vjp_zero_upstream():
    rng = np.random.default_rng(5)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng)
    x = rng.standard_normal((2, 4))
    g = feature_vjp(x, fm, np.zeros((2, 4)), feature_forward(x, fm))
    for arr in (g.grad_x, g.grad_w1, g.grad_w2, g.grad_b2):
        assert np.all(arr == 0.0)


def test_vjp_frozen_trig_w1():
    rng = np.random.default_rng(6)
    fm = init_feature_map(FeatureMapKind.RANDOM_TRIG, 4, rng, freq_dim=3)
    x = rng.standard_normal(4)
    g = feature_vjp(x, fm, rng.standard_normal(6), feature_forward(x, fm))
    assert np.all(g.grad_w1 == 0.0)       # frozen by contract
    assert np.any(g.grad_x != 0.0)        # input gradient still flows
    assert g.grad_w2 is None and g.grad_b2 is None


def _fd_grad(f, arr, step=1e-5):
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for idx in range(flat.size):
        keep = flat[idx]
        flat[idx] = keep + step
        hi = f()
        flat[idx] = keep - step
        lo = f()
        flat[idx] = keep
        gf[idx] = (hi - lo) / (2 * step)
    return g


def test_vjp_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 4))
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng,
                          freq_dim=5, out_dim=6)
    upstream = rng.standard_normal((3, 6))

    def loss():
        return float((feature_forward(x, fm) * upstream).sum())

    g = feature_vjp(x, fm, upstream, feature_forward(x, fm))
    for arr, got in ((x, g.grad_x), (fm.w1, g.grad_w1),
                     (fm.w2, g.grad_w2), (fm.b2, g.grad_b2)):
        fd = _fd_grad(loss, arr)
        scale = max(np.abs(fd).max(), np.abs(got).max(), 1e-12)
        assert np.abs(got - fd).max() / scale < 1e-6


def test_vjp_trig_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(5)
    fm = FeatureMapParams(kind=FeatureMapKind.RANDOM_TRIG,
                          w1=rng.standard_normal((4, 5)), w2=None, b2=None)
    upstream = rng.standard_normal(8)

    def loss():
        return float((feature_forward(x, fm) * upstream).sum())

    g = feature_vjp(x, fm, upstream, feature_forward(x, fm))
    fd = _fd_grad(loss, x)
    scale = max(np.abs(fd).max(), np.abs(g.grad_x).max(), 1e-12)
    assert np.abs(g.grad_x - fd).max() / scale < 1e-6


def test_relu_kink_uses_zero_subgradient():
    # preactivation exactly 0: forward emits 0 and no gradient flows through
    fm = FeatureMapParams(kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE,
                          w1=np.zeros((1, 1)),
                          w2=np.array([[0.0, 1.0]]),   # picks the cos term: a = 1 + b2
                          b2=np.array([-1.0]))
    x = np.array([0.7])
    assert feature_forward(x, fm) == pytest.approx(0.0)
    g = feature_vjp(x, fm, np.array([5.0]), feature_forward(x, fm))
    assert np.all(g.grad_x == 0.0)
    assert np.all(g.grad_w2 == 0.0)
    assert np.all(g.grad_b2 == 0.0)


def test_vjp_reads_relu_mask_from_forward_features():
    """The ReLU passes the cotangent where the forward's features are
    positive, bit for bit as a mask on the pre-activation u w2^T + b2
    does; a feature at zero passes nothing."""
    rng = np.random.default_rng(9)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng, out_dim=6)
    x = rng.standard_normal((5, 4))
    upstream = rng.standard_normal((5, 6))
    phi = feature_forward(x, fm)
    assert 0.0 < (phi > 0.0).mean() < 1.0
    # the library's own sin and cos, so the comparison can stay bitwise
    u = _sin_cos(x @ fm.w1.T)
    ga = np.where(u @ fm.w2.T + fm.b2 > 0.0, upstream, 0.0)
    gu = ga @ fm.w2
    gz = gu[:, :4] * u[:, 4:] - gu[:, 4:] * u[:, :4]
    given = feature_vjp(x, fm, upstream, phi)
    for got, want in ((given.grad_x, gz @ fm.w1), (given.grad_w1, gz.T @ x),
                      (given.grad_w2, ga.T @ u), (given.grad_b2, ga.sum(axis=0))):
        np.testing.assert_array_equal(got, want)
    closed = feature_vjp(x, fm, upstream, np.zeros_like(phi))
    for arr in (closed.grad_x, closed.grad_w1, closed.grad_w2, closed.grad_b2):
        assert np.all(arr == 0.0)
    with pytest.raises(ValueError, match="features"):
        feature_vjp(x, fm, upstream, phi[:2])
