import numpy as np
import pytest

from ripplegrid.attention import AttentionConfig, ripple_dp
from ripplegrid.featmap import FeatureMapKind, init_feature_map
from ripplegrid.reference import (
    adaptive_truncate,
    jsd,
    modified_sigmoid,
    num_groups,
    scheme_weights,
    stick_breaking,
    stick_logits,
)
from ripplegrid.vicinal import GridShape, PartitionKind, PartitionScheme
from ripplegrid.weights import (
    LEARNED_KINDS,
    StickParams,
    WeightScheme,
    WeightSchemeKind,
    jsd_grid,
    scheme_weights_grid,
)

ALL_KINDS = list(WeightSchemeKind)


def make_scheme(kind, rng, r_max=3, c=5, e=4):
    params = None
    if kind in LEARNED_KINDS:
        params = StickParams(rng.standard_normal((r_max, e)),
                             rng.standard_normal((e, c)))
    return WeightScheme(kind=kind, params=params)


# ---------- stick pipeline ----------

def test_stick_logits():
    params = StickParams(np.array([[2.0]]), np.array([[1.0]]))
    assert stick_logits(np.array([3.0]), params) == pytest.approx(6.0)
    assert np.all(stick_logits(np.zeros(1), params) == 0.0)
    rng = np.random.default_rng(0)
    params = StickParams(rng.standard_normal((4, 3)), rng.standard_normal((3, 5)))
    v = rng.standard_normal(5)
    want = np.array([params.unit_embeddings[r] @ params.value_projection @ v
                     for r in range(4)])
    np.testing.assert_allclose(stick_logits(v, params), want, rtol=1e-12)
    with pytest.raises(ValueError):
        stick_logits(np.zeros(4), params)


def test_modified_sigmoid_values():
    # damping factor num_units - index + 1: earlier units start lower
    assert modified_sigmoid(0.0, 1, 3) == pytest.approx(0.25)
    assert modified_sigmoid(0.0, 3, 3) == pytest.approx(0.5)
    assert modified_sigmoid(0.0, 2, 3) == pytest.approx(1.0 / 3.0)


def test_modified_sigmoid_monotone_in_logit():
    logits = np.linspace(-6, 6, 200)
    vals = modified_sigmoid(logits, 1, 4)
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals > 0) & (vals < 1))
    with pytest.raises(ValueError):
        modified_sigmoid(0.0, 0, 3)


def test_stick_breaking_hand_example():
    np.testing.assert_allclose(stick_breaking(np.array([0.5, 0.5])),
                               [0.5, 0.25, 0.25], rtol=1e-15)


def test_stick_breaking_limits_and_normalization():
    # vanishing fractions push all mass to the terminal weight
    alphas = stick_breaking(np.full(5, 1e-12))
    assert alphas[-1] == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(1)
    for _ in range(200):
        s = rng.uniform(0.01, 0.99, size=6)
        alphas = stick_breaking(s)
        assert alphas.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(alphas >= 0)
    with pytest.raises(ValueError):
        stick_breaking(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        stick_breaking(np.array([-0.1]))


def test_stick_breaking_supremum_monotone():
    """The remaining stick length after r breaks never increases with r."""
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = rng.uniform(0.0, 1.0, size=8)
        remaining = np.cumprod(1.0 - s)
        assert np.all(np.diff(remaining) <= 1e-15)


def test_stick_breaking_allows_non_monotone_weights():
    alphas = stick_breaking(np.array([0.1, 0.9]))
    assert alphas[1] > alphas[0]


def test_adaptive_truncate_hand_example():
    sw = adaptive_truncate(np.array([0.6, 0.3, 0.05, 0.03, 0.02]), tau=0.1)
    assert sw.hat_r == 2
    assert sw.merged_weight == pytest.approx(0.1 / 3.0)
    np.testing.assert_allclose(sw.alphas, [0.6, 0.3, 0.1 / 3, 0.1 / 3, 0.1 / 3],
                               rtol=1e-12)
    assert sw.alphas.sum() == pytest.approx(1.0, abs=1e-12)


def test_adaptive_truncate_edge_cases():
    a = np.array([0.4, 0.3, 0.2, 0.1])
    # tau below every tail mass: halts at the last index, nothing to merge but itself
    sw = adaptive_truncate(a, tau=1e-9)
    np.testing.assert_allclose(sw.alphas, a, rtol=1e-12)
    assert sw.hat_r == 3
    # top-heavy vector with a big tau merges everything
    sw = adaptive_truncate(np.array([0.99, 0.01]), tau=0.5)
    assert sw.hat_r == 0
    np.testing.assert_allclose(sw.alphas, [0.5, 0.5])
    # head weights below hat are never altered (remaining after index 1 is
    # 0.2 >= tau, after index 2 it is 0.1 < tau, so hat = 2)
    sw = adaptive_truncate(np.array([0.5, 0.3, 0.1, 0.1]), tau=0.15)
    assert sw.hat_r == 2
    assert sw.alphas[0] == 0.5 and sw.alphas[1] == 0.3
    np.testing.assert_allclose(sw.alphas[2:], [0.1, 0.1], rtol=1e-12)


# ---------- full schemes ----------

def test_uniform_scheme():
    sw = scheme_weights(WeightScheme(kind=WeightSchemeKind.UNIFORM), (3, 3),
                        np.zeros(2), groups=5, r_max=3, tau=0.05)
    np.testing.assert_allclose(sw.alphas, np.full(5, 0.2))


def test_fixed_exponential_scheme():
    sw = scheme_weights(WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
                        (3, 3), np.zeros(2), groups=9, r_max=4, tau=0.05)
    np.testing.assert_allclose(sw.alphas[:4], [0.5, 0.25, 0.125, 0.0625])
    # residual 1/16 spread over the 5 remaining groups
    np.testing.assert_allclose(sw.alphas[4:], np.full(5, 0.0625 / 5))
    assert sw.alphas.sum() == pytest.approx(1.0, abs=1e-12)


def test_truncated_scheme_hard_zero_tail():
    rng = np.random.default_rng(3)
    scheme = make_scheme(WeightSchemeKind.TRUNCATED, rng, r_max=4)
    sw = scheme_weights(scheme, (5, 5), rng.standard_normal(5), groups=9,
                        r_max=4, tau=0.05)
    assert np.all(sw.alphas[4:] == 0.0)
    assert sw.alphas[:4].sum() == pytest.approx(1.0, abs=1e-12)
    assert sw.merged_weight == 0.0


def test_truncated_scheme_without_head_mass_rejected():
    # a stick whose every fraction underflows to 0 leaves the head empty; the
    # grid form used to renormalize by 0 and hand ripple_dp NaN weights
    scheme = WeightScheme(kind=WeightSchemeKind.TRUNCATED,
                          params=StickParams(np.full((2, 1), -1.0), np.full((1, 4), 300.0)))
    v = np.ones((3, 3, 4))
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05)
    message = "truncated scheme has no head mass to renormalize"
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=message):
            scheme_weights(scheme, (2, 2), v[1, 1], groups=2, r_max=2, tau=0.05)
        with pytest.raises(ValueError, match=message):
            scheme_weights_grid(scheme, v, GridShape(3, 3), partition)
        cfg = AttentionConfig(scheme=scheme, partition=partition,
                              featmap=init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4,
                                                       np.random.default_rng(0)))
        with pytest.raises(ValueError, match=message):
            ripple_dp(v, v, v, cfg)


def test_simplex_property_random_sweep():
    rng = np.random.default_rng(4)
    for kind in ALL_KINDS:
        for trial in range(50):
            groups = int(rng.integers(1, 10))
            r_max = int(rng.integers(1, 6))
            scheme = make_scheme(kind, rng, r_max=r_max)
            sw = scheme_weights(scheme, (1, 1), rng.standard_normal(5),
                                groups=groups, r_max=r_max, tau=0.05)
            assert sw.alphas.shape == (groups,)
            assert np.all(sw.alphas >= 0)
            assert sw.alphas.sum() == pytest.approx(1.0, abs=1e-9), kind


def test_single_group_degenerate():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        scheme = make_scheme(kind, rng)
        sw = scheme_weights(scheme, (1, 1), rng.standard_normal(5), groups=1,
                            r_max=3, tau=0.05)
        np.testing.assert_allclose(sw.alphas, [1.0], rtol=1e-12)


# ---------- grid pipeline vs scalar pipeline ----------

def test_grid_matches_scalar():
    rng = np.random.default_rng(7)
    shape = GridShape(6, 5)
    v = rng.standard_normal((6, 5, 4))
    for kind in ALL_KINDS:
        for pkind in PartitionKind:
            partition = PartitionScheme(kind=pkind, r_max=3, tau=0.05)
            scheme = make_scheme(kind, rng, r_max=3, c=4)
            wg = scheme_weights_grid(scheme, v, shape, partition)
            alphas = wg.padded()
            for i in range(1, 7):
                for j in range(1, 6):
                    groups = num_groups(partition, shape, (i, j))
                    ref = scheme_weights(scheme, (i, j), v[i - 1, j - 1],
                                         groups, 3, 0.05)
                    np.testing.assert_allclose(alphas[i - 1, j - 1, :groups],
                                               ref.alphas, rtol=1e-10, atol=1e-12)
                    assert wg.hat[i - 1, j - 1] == ref.hat_r
                    assert wg.merged[i - 1, j - 1] == pytest.approx(
                        ref.merged_weight, abs=1e-12)
                    # padding beyond the query's groups stays zero
                    assert np.all(alphas[i - 1, j - 1, groups:] == 0.0)


@pytest.mark.parametrize("height, width", [(1, 40), (7, 9), (33, 33)])
@pytest.mark.parametrize("pkind", list(PartitionKind))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_grid_stores_head_and_tail(kind, pkind, height, width):
    # far more groups than r_max: a weight grid keeps at most max(hat, 1)
    # slots per query, its padded view is still the scalar oracle's, and
    # jsd_grid's head plus tail is the scalar divergence of padded views
    rng = np.random.default_rng(height * 100 + width)
    shape = GridShape(height, width)
    v = rng.standard_normal((height, width, 4))
    partition = PartitionScheme(kind=pkind, r_max=3, tau=0.05)
    scheme = make_scheme(kind, rng, r_max=3, c=4)
    wg = scheme_weights_grid(scheme, v, shape, partition)
    slots = max(int(wg.hat.max()), 1)
    assert wg.head.shape[-1] <= slots
    for name, a in vars(wg).items():
        assert a.shape[:2] == (height, width) and a.size <= height * width * slots, name
    alphas = wg.padded()
    assert alphas.shape == (height, width, int(wg.groups.max()))
    assert alphas.shape[-1] > slots
    fixed = scheme_weights_grid(WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
                                v, shape, partition)
    div, fixed_alphas = jsd_grid(wg, fixed), fixed.padded()
    for i in range(1, height + 1):
        for j in range(1, width + 1):
            groups = num_groups(partition, shape, (i, j))
            ref = scheme_weights(scheme, (i, j), v[i - 1, j - 1], groups, 3, 0.05)
            np.testing.assert_allclose(alphas[i - 1, j - 1, :groups], ref.alphas,
                                       rtol=1e-10, atol=1e-12)
            assert np.all(alphas[i - 1, j - 1, groups:] == 0.0)
            assert wg.hat[i - 1, j - 1] == ref.hat_r
            assert wg.merged[i - 1, j - 1] == pytest.approx(ref.merged_weight, abs=1e-12)
            assert div[i - 1, j - 1] == pytest.approx(
                jsd(alphas[i - 1, j - 1, :groups], fixed_alphas[i - 1, j - 1, :groups]),
                abs=1e-12)


def test_grid_fewer_groups_than_breaks():
    # 4x4 dyadic: every query has at most 3 groups while r_max + 1 = 4, so
    # the stick produces more weights than the widest query can hold
    rng = np.random.default_rng(17)
    shape = GridShape(4, 4)
    v = rng.standard_normal((4, 4, 4))
    partition = PartitionScheme(kind=PartitionKind.DYADIC, r_max=3, tau=0.05)
    for kind in ALL_KINDS:
        scheme = make_scheme(kind, rng, r_max=3, c=4)
        alphas = scheme_weights_grid(scheme, v, shape, partition).padded()
        assert alphas.shape[-1] == 3
        for i in range(1, 5):
            for j in range(1, 5):
                groups = num_groups(partition, shape, (i, j))
                ref = scheme_weights(scheme, (i, j), v[i - 1, j - 1],
                                     groups, 3, 0.05)
                np.testing.assert_allclose(alphas[i - 1, j - 1, :groups],
                                           ref.alphas, rtol=1e-10, atol=1e-12)


def test_learned_scheme_requires_params():
    with pytest.raises(ValueError):
        WeightScheme(kind=WeightSchemeKind.LEARNED_SBT)


# ---------- divergence diagnostic ----------

def test_jsd_values():
    assert jsd(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0
    assert jsd(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(
        0.311278, abs=1e-6)
    # maximally different distributions reach the base-2 ceiling of 1
    assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_jsd_symmetry_and_range():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        a, b = jsd(p, q), jsd(q, p)
        assert a == pytest.approx(b, abs=1e-12)
        assert 0.0 <= a <= 1.0
    with pytest.raises(ValueError):
        jsd(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


def test_jsd_grid_matches_scalar():
    rng = np.random.default_rng(10)
    shape = GridShape(4, 4)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05)
    v = rng.standard_normal((4, 4, 4))
    a = scheme_weights_grid(make_scheme(WeightSchemeKind.LEARNED_SBT, rng, r_max=2, c=4),
                            v, shape, partition)
    b = scheme_weights_grid(WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
                            v, shape, partition)
    grid = jsd_grid(a, b)
    assert grid.shape == (4, 4)
    pa, pb = a.padded(), b.padded()
    for i in range(4):
        for j in range(4):
            g = int(a.groups[i, j])
            want = jsd(pa[i, j, :g], pb[i, j, :g])
            assert grid[i, j] == pytest.approx(want, abs=1e-12)
            assert 0.0 <= grid[i, j] <= 1.0
