import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ripplegrid.attention import (
    AttentionConfig,
    MultiHeadConfig,
    MultiHeadParams,
    init_multi_head,
    linearized_grid,
    multi_head_forward,
    ripple_dp,
    ripple_naive,
)
from ripplegrid.featmap import FeatureMapKind, FeatureMapParams, init_feature_map
from ripplegrid.grad import finite_diff_check, linearized_vjp, multi_head_vjp, ripple_vjp
from ripplegrid.reference import grad_pixels_reference
from ripplegrid.sat import fetch_count, release_kept_buffers, reset_fetch_count
from ripplegrid.vicinal import (
    GridShape,
    PartitionKind,
    PartitionScheme,
    num_groups_grid,
)
from ripplegrid.weights import (
    LEARNED_KINDS,
    StickParams,
    WeightGrid,
    WeightScheme,
    WeightSchemeKind,
    scheme_weights_grid,
)
from stacked import MODES, head_arrays

# conditioning for finite-difference probes: with the default 1e-6 stabilizer
# the output quotient's curvature can reach 1/epsilon^2 and central
# differences lose most of their digits; 1e-3 keeps the check well posed
# without touching the gradient formulas, which never read epsilon
FD_EPSILON = 1e-3


def make_config(kind, partition_kind, rng, value_dim, r_max=3, tau=0.05,
                d=4, epsilon=FD_EPSILON,
                featmap_kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE):
    partition = PartitionScheme(kind=partition_kind, r_max=r_max, tau=tau)
    params = None
    if kind in LEARNED_KINDS:
        params = StickParams(
            unit_embeddings=rng.standard_normal((r_max, 3)),
            value_projection=rng.standard_normal((3, value_dim)))
    scheme = WeightScheme(kind=kind, params=params)
    featmap = init_feature_map(featmap_kind, d, rng)
    return AttentionConfig(scheme=scheme, partition=partition,
                           featmap=featmap, epsilon=epsilon)


def random_grids(rng, h, w, d=4, c=3):
    return (rng.standard_normal((h, w, d)), rng.standard_normal((h, w, d)),
            rng.standard_normal((h, w, c)))


# ---------- token-position scatter ----------

def token_adjoint(rng, scheme, partition, h, w):
    """ripple_vjp's v gradient for a fixed-exponential forward run over
    ``scheme``'s weight grid, and the same gradient from the quadratic
    scatter oracle: v enters only the numerator, as phi_k (x) v, so its
    gradient is phi_k against the scatter of phi_q (x) g / den."""
    q, k, v = random_grids(rng, h, w)
    wg = scheme_weights_grid(scheme, v, GridShape(h, w), partition)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL, partition.kind, rng, v.shape[2],
                      r_max=partition.r_max, tau=partition.tau)
    tape = ripple_dp(q, k, v, cfg, weights=wg).tape
    g = rng.standard_normal(v.shape)
    pq, pk, den = tape.phi_q[:, :, 0], tape.phi_k[:, :, 0], tape.den[:, :, 0]
    field = pq[..., :, None] * (g / den[..., None])[..., None, :]
    want = np.einsum("hwd,hwdc->hwc", pk, grad_pixels_reference(wg, field, partition))
    return ripple_vjp(tape, g).grad_v, want, wg


def test_grad_pixels_matches_reference():
    # every scheme's weights on 1xN, Nx1 and square grids, hat 0 and
    # cut == groups included; the field has (Dp, C) channels per token
    rng = np.random.default_rng(0)
    for pk in (PartitionKind.UNIT_RING, PartitionKind.DYADIC):
        partition = PartitionScheme(kind=pk, r_max=3, tau=0.05)
        for kind in WeightSchemeKind:
            scheme = make_config(kind, pk, rng, 3).scheme
            for h, w in ((1, 1), (1, 7), (9, 1), (5, 7), (6, 6)):
                got, want, _ = token_adjoint(rng, scheme, partition, h, w)
                np.testing.assert_allclose(got, want, atol=1e-12)


def test_grad_pixels_truncated_tail_scatters_nothing():
    rng = np.random.default_rng(2)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05)
    scheme = make_config(WeightSchemeKind.TRUNCATED, partition.kind, rng, 3, r_max=2).scheme
    got, want, wg = token_adjoint(rng, scheme, partition, 6, 6)
    assert np.all(wg.merged == 0.0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_grad_pixels_rejects_upstream_off_the_weight_grid():
    # the reference used to return a field of the upstream's shape or run
    # past the grid with an IndexError
    rng = np.random.default_rng(20)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=3, tau=0.05)
    wg = scheme_weights_grid(WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
                             rng.standard_normal((5, 5, 3)), GridShape(5, 5), partition)
    for bad in ((1, 5, 3), (5, 1, 3), (4, 5, 3), (6, 6, 3), (5,)):
        shown = rf"\({', '.join(map(str, bad))},?\)"
        with pytest.raises(ValueError, match=rf"upstream field shape {shown}.* \(5, 5\)"):
            grad_pixels_reference(wg, rng.standard_normal(bad), partition)
    assert grad_pixels_reference(wg, rng.standard_normal((5, 5, 3)), partition).shape == (5, 5, 3)


# ---------- per-group weight gradients ----------

def free_alpha_grid(rng, shape, partition):
    """Weight grid whose entries are all independent head weights (no tail)."""
    groups = num_groups_grid(partition.kind, shape)
    length = int(groups.max())
    alphas = rng.uniform(0.2, 1.0, size=(shape.height, shape.width, length))
    alphas[np.arange(length) >= groups[..., None]] = 0.0
    return WeightGrid(head=alphas, hat=groups.copy(),
                      merged=np.zeros((shape.height, shape.width)),
                      groups=groups)


def test_grad_alpha_matches_finite_differences():
    rng = np.random.default_rng(3)
    shape = GridShape(4, 5)
    q, k, v = random_grids(rng, 4, 5)
    cfg = make_config(WeightSchemeKind.UNIFORM, PartitionKind.UNIT_RING, rng,
                      v.shape[2])
    wg = free_alpha_grid(rng, shape, cfg.partition)
    probe = rng.standard_normal((4, 5, v.shape[2]))

    # hat equals the group count, so every alpha is a head weight
    res = ripple_dp(q, k, v, cfg, weights=wg)
    got = ripple_vjp(res.tape, probe).grad_alpha_head
    assert got.shape == wg.head.shape

    def loss(alphas):
        w2 = WeightGrid(head=alphas, hat=wg.hat, merged=wg.merged,
                        groups=wg.groups)
        return float((ripple_dp(q, k, v, cfg, weights=w2).out * probe).sum())

    step = 1e-6
    live = np.argwhere(np.arange(wg.head.shape[-1]) < wg.groups[..., None])
    for idx in map(tuple, live[rng.choice(len(live), 30, replace=False)]):
        hi = wg.head.copy(); hi[idx] += step
        lo = wg.head.copy(); lo[idx] -= step
        fd = (loss(hi) - loss(lo)) / (2 * step)
        assert abs(got[idx] - fd) <= 1e-6 * max(abs(fd), 1.0), idx


def test_grad_alpha_zero_past_group_count():
    rng = np.random.default_rng(4)
    q, k, v = random_grids(rng, 5, 6)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL,
                      PartitionKind.UNIT_RING, rng, v.shape[2])
    wg = free_alpha_grid(rng, GridShape(5, 6), cfg.partition)
    res = ripple_dp(q, k, v, cfg, weights=wg)
    g = ripple_vjp(res.tape, np.ones_like(res.out)).grad_alpha_head
    pad = np.arange(g.shape[-1]) >= wg.groups[..., None]
    assert pad.any() and not pad.all()
    np.testing.assert_array_equal(g[pad], 0.0)


def test_grad_merged_matches_finite_differences():
    rng = np.random.default_rng(5)
    q, k, v = random_grids(rng, 5, 5)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL,
                      PartitionKind.UNIT_RING, rng, v.shape[2], r_max=2)
    wg = scheme_weights_grid(cfg.scheme, v, GridShape(5, 5), cfg.partition)
    assert np.any(wg.hat < wg.groups)   # a real shared tail exists
    probe = rng.standard_normal(v.shape)
    res = ripple_dp(q, k, v, cfg, weights=wg)
    gm = ripple_vjp(res.tape, probe).grad_merged

    step = 1e-6
    for cell in ((0, 0), (2, 3), (4, 4)):
        def loss(m):
            merged = wg.merged.copy()
            merged[cell] = m
            w2 = WeightGrid(head=wg.head, hat=wg.hat, merged=merged,
                            groups=wg.groups)
            return float((ripple_dp(q, k, v, cfg, weights=w2).out * probe).sum())
        fd = (loss(wg.merged[cell] + step) - loss(wg.merged[cell] - step)) / (2 * step)
        assert abs(gm[cell] - fd) <= 1e-6 * max(abs(fd), 1.0), cell


# ---------- full backward pass vs central differences ----------

def ripple_loss_fn(cfg, shape, probe, forward):
    """Loss over a parameter dict covering tokens, feature map, and stick."""
    def loss(params):
        featmap = FeatureMapParams(kind=cfg.featmap.kind, w1=params["w1"],
                                   w2=params.get("w2"), b2=params.get("b2"))
        scheme = cfg.scheme
        if scheme.kind in LEARNED_KINDS:
            scheme = WeightScheme(
                kind=scheme.kind,
                params=StickParams(unit_embeddings=params["emb"],
                                   value_projection=params["proj"]))
        c2 = AttentionConfig(scheme=scheme, partition=cfg.partition,
                             featmap=featmap, epsilon=cfg.epsilon)
        res = forward(params["q"], params["k"], params["v"], c2)
        value = float((res.out * probe).sum())
        rg = ripple_vjp(res.tape, probe)
        grads = {"q": rg.grad_q, "k": rg.grad_k, "v": rg.grad_v,
                 "w1": rg.featmap.w1}
        if rg.featmap.w2 is not None:
            grads["w2"] = rg.featmap.w2
            grads["b2"] = rg.featmap.b2
        if rg.stick is not None:
            grads["emb"] = rg.stick.unit_embeddings
            grads["proj"] = rg.stick.value_projection
        return value, grads
    return loss


def base_params(cfg, q, k, v):
    params = {"q": q, "k": k, "v": v, "w1": cfg.featmap.w1}
    if cfg.featmap.w2 is not None:
        params["w2"] = cfg.featmap.w2
        params["b2"] = cfg.featmap.b2
    if cfg.scheme.params is not None:
        params["emb"] = cfg.scheme.params.unit_embeddings
        params["proj"] = cfg.scheme.params.value_projection
    return params


def test_ripple_vjp_all_schemes_unit_ring():
    rng = np.random.default_rng(7)
    for kind in list(WeightSchemeKind):
        q, k, v = random_grids(rng, 4, 4)
        cfg = make_config(kind, PartitionKind.UNIT_RING, rng, v.shape[2],
                          r_max=2)
        probe = rng.standard_normal((4, 4, v.shape[2]))
        loss = ripple_loss_fn(cfg, GridShape(4, 4), probe, ripple_dp)
        report = finite_diff_check(loss, base_params(cfg, q, k, v),
                                   tolerance=1e-6, mode="sample", sample=8,
                                   rng=np.random.default_rng(100))
        assert report.passed, (kind, str(report))


def test_ripple_vjp_dyadic_partition():
    rng = np.random.default_rng(8)
    for kind in (WeightSchemeKind.FIXED_EXPONENTIAL,
                 WeightSchemeKind.LEARNED_SBT):
        q, k, v = random_grids(rng, 5, 5)
        cfg = make_config(kind, PartitionKind.DYADIC, rng, v.shape[2], r_max=2)
        probe = rng.standard_normal((5, 5, v.shape[2]))
        loss = ripple_loss_fn(cfg, GridShape(5, 5), probe, ripple_dp)
        report = finite_diff_check(loss, base_params(cfg, q, k, v),
                                   tolerance=1e-6, mode="sample", sample=8,
                                   rng=np.random.default_rng(101))
        assert report.passed, (kind, str(report))


def test_ripple_vjp_naive_tape():
    # the enumeration forward records the same tape contract
    rng = np.random.default_rng(10)
    q, k, v = random_grids(rng, 4, 4)
    cfg = make_config(WeightSchemeKind.LEARNED_SBT, PartitionKind.UNIT_RING,
                      rng, v.shape[2], r_max=2)
    probe = rng.standard_normal((4, 4, v.shape[2]))
    loss = ripple_loss_fn(cfg, GridShape(4, 4), probe, ripple_naive)
    report = finite_diff_check(loss, base_params(cfg, q, k, v),
                               tolerance=1e-6, mode="sample", sample=8,
                               rng=np.random.default_rng(103))
    assert report.passed, str(report)


def test_ripple_vjp_trig_featmap_freezes_w1():
    rng = np.random.default_rng(11)
    q, k, v = random_grids(rng, 4, 4)
    cfg = make_config(WeightSchemeKind.UNIFORM, PartitionKind.UNIT_RING, rng,
                      v.shape[2], r_max=2,
                      featmap_kind=FeatureMapKind.RANDOM_TRIG)
    res = ripple_dp(q, k, v, cfg)
    probe = rng.standard_normal(res.out.shape)
    rg = ripple_vjp(res.tape, probe)
    np.testing.assert_array_equal(rg.featmap.w1, 0.0)
    assert rg.featmap.w2 is None and rg.featmap.b2 is None

    def loss(params):
        c2 = AttentionConfig(scheme=cfg.scheme, partition=cfg.partition,
                             featmap=cfg.featmap, epsilon=cfg.epsilon)
        out = ripple_dp(params["q"], params["k"], params["v"], c2)
        g = ripple_vjp(out.tape, probe)
        return float((out.out * probe).sum()), {"q": g.grad_q, "k": g.grad_k,
                                                "v": g.grad_v}

    report = finite_diff_check(loss, {"q": q, "k": k, "v": v},
                               tolerance=1e-6, mode="sample", sample=10,
                               rng=np.random.default_rng(104))
    assert report.passed, str(report)


def test_linearized_vjp_finite_diff():
    rng = np.random.default_rng(12)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 3, rng)
    q = rng.standard_normal((3, 4, 3))
    k = rng.standard_normal((3, 4, 3))
    v = rng.standard_normal((3, 4, 2))
    probe = rng.standard_normal((3, 4, 2))

    def loss(params):
        featmap = FeatureMapParams(kind=fm.kind, w1=params["w1"],
                                   w2=params["w2"], b2=params["b2"])
        out, tape = linearized_grid(params["q"], params["k"], params["v"],
                                    featmap, epsilon=FD_EPSILON)
        lg = linearized_vjp(tape, probe)
        return float((out * probe).sum()), {
            "q": lg.grad_q, "k": lg.grad_k, "v": lg.grad_v,
            "w1": lg.featmap.w1, "w2": lg.featmap.w2, "b2": lg.featmap.b2}

    report = finite_diff_check(
        loss, {"q": q, "k": k, "v": v, "w1": fm.w1, "w2": fm.w2, "b2": fm.b2},
        tolerance=1e-6, mode="full")
    assert report.passed, str(report)


def head_param_dict(params):
    """A layer's parameters, or its gradients (same field names), with every
    head's arrays under its own keys."""
    out = {"w_out": params.w_out, "b_out": params.b_out}
    for n in range(params.featmap.w1.shape[0]):
        out.update({f"h{n}.{name}": a for name, a in head_arrays(params, n).items()})
    return out


def stack_heads(template, params):
    """head_param_dict inverted: the per-head keys stacked into the layer."""
    def stacked(name):
        return np.stack([params[f"h{n}.{name}"] for n in range(template.featmap.w1.shape[0])])

    stick = None
    if template.stick is not None:
        stick = StickParams(unit_embeddings=stacked("emb"), value_projection=stacked("proj"))
    w_qkv = np.concatenate([stacked(name) for name in ("wq", "wk", "wv")])
    return MultiHeadParams(
        w_qkv=w_qkv.reshape(-1, template.w_qkv.shape[1]),
        featmap=FeatureMapParams(kind=template.featmap.kind, w1=stacked("w1"),
                                 w2=stacked("w2"), b2=stacked("b2")),
        w_out=params["w_out"], b_out=params["b_out"], stick=stick)


def test_multi_head_vjp_finite_diff():
    rng = np.random.default_rng(13)
    template = init_multi_head(rng, model_dim=4, num_heads=2, head_dim=3,
                               r_max=2, scheme_kind=WeightSchemeKind.LEARNED_SBT)
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.LEARNED_SBT, epsilon=FD_EPSILON)
    x = rng.standard_normal((4, 4, 4))
    probe = rng.standard_normal((4, 4, 4))

    def loss(params):
        out, tape = multi_head_forward(params["x"], stack_heads(template, params), config)
        mg = multi_head_vjp(tape, probe)
        return float((out * probe).sum()), dict(head_param_dict(mg), x=mg.grad_x)

    params = dict(head_param_dict(template), x=x)
    report = finite_diff_check(loss, params, tolerance=1e-6, mode="sample",
                               sample=6, rng=np.random.default_rng(105))
    assert report.passed, str(report)


def test_multi_head_vjp_linearized_mode():
    rng = np.random.default_rng(14)
    template = init_multi_head(rng, model_dim=4, num_heads=1, head_dim=3,
                               r_max=2, scheme_kind=WeightSchemeKind.UNIFORM)
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.UNIFORM, epsilon=FD_EPSILON,
        attention="linearized")
    x = rng.standard_normal((3, 5, 4))
    probe = rng.standard_normal((3, 5, 4))

    def loss(params):
        out, tape = multi_head_forward(params["x"], stack_heads(template, params), config)
        mg = multi_head_vjp(tape, probe)
        return float((out * probe).sum()), dict(head_param_dict(mg), x=mg.grad_x)

    params = dict(head_param_dict(template), x=x)
    report = finite_diff_check(loss, params, tolerance=1e-6, mode="sample",
                               sample=8, rng=np.random.default_rng(106))
    assert report.passed, str(report)


# ---------- the whole layer under fuzz ----------

def layer_arrays(layer):
    """The stacked arrays of MultiHeadParams or of MultiHeadGradients, which
    share field names, in one order."""
    fm, stick = layer.featmap, layer.stick
    sticks = [] if stick is None else [stick.unit_embeddings, stick.value_projection]
    return [layer.w_qkv, fm.w1, fm.w2, fm.b2, layer.w_out, layer.b_out] + sticks


def layer_with(template, arrays):
    """layer_arrays inverted: MultiHeadParams holding ``arrays``."""
    w_qkv, w1, w2, b2, w_out, b_out, *stick = arrays
    return MultiHeadParams(w_qkv=w_qkv, featmap=FeatureMapParams(template.featmap.kind, w1, w2, b2),
                           w_out=w_out, b_out=b_out, stick=StickParams(*stick) if stick else None)


def near_halting_tau(x, params, config, draw):
    """A tau within 1% of the stick mass some query has left after one of
    its head groups, so that the query's halting index sits next to a flip;
    0.05 when no query has such a group."""
    wg = multi_head_forward(x, params, config)[1].attn.weights
    left = (1.0 - np.cumsum(wg.head, axis=-1))[
        np.arange(wg.head.shape[-1]) < wg.hat[..., None]]
    left = left[(left > 0.0) & (left < 0.99)]
    if not left.size:
        return 0.05
    return float(left[draw(st.integers(0, left.size - 1))]) * draw(
        st.sampled_from([0.99, 0.999, 1.001, 1.01]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_layer_gradients_match_central_differences_under_fuzz(data):
    # one central difference along a random unit direction over the input
    # and every parameter of the layer; the error is relative to the
    # gradient's norm, the largest slope along any unit direction, as
    # finite_diff_check's is relative to the largest entry it compares
    draw, step = data.draw, 1e-6
    h, w, heads, r_max = (draw(st.integers(1, 9)), draw(st.integers(1, 9)),
                          draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    attention, kind = draw(st.sampled_from(MODES))
    partition_kind = draw(st.sampled_from(list(PartitionKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = init_multi_head(rng, model_dim=4, num_heads=heads, head_dim=3, r_max=r_max,
                             scheme_kind=kind)
    x, probe = rng.standard_normal((2, h, w, 4))

    def layer_config(tau):
        return MultiHeadConfig(partition=PartitionScheme(kind=partition_kind, r_max=r_max,
                                                         tau=tau),
                               scheme_kind=kind, epsilon=FD_EPSILON, attention=attention)

    config = layer_config(0.05)
    if attention == "ripple" and kind is WeightSchemeKind.LEARNED_SBT:
        config = layer_config(near_halting_tau(x, params, config, draw))
    _, tape = multi_head_forward(x, params, config)
    grads = multi_head_vjp(tape, probe)
    base = [x] + layer_arrays(params)
    direction = [rng.standard_normal(a.shape) for a in base]
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction))
    analytic = [grads.grad_x] + layer_arrays(grads)
    slope = sum(float((g * d).sum()) for g, d in zip(analytic, direction)) / norm
    scale = np.sqrt(sum(float((g * g).sum()) for g in analytic))

    sides = []
    for sign in (1.0, -1.0):
        moved = [a + sign * step / norm * d for a, d in zip(base, direction)]
        out, t = multi_head_forward(moved[0], layer_with(params, moved[1:]), config)
        # the analytic gradients hold ReLU patterns and halting indices
        # fixed, so a kink or a flip between the points is no test of them
        for phi in ("phi_q", "phi_k"):
            assume(np.array_equal(getattr(t.attn, phi) > 0.0, getattr(tape.attn, phi) > 0.0))
        if t.attn.weights is not None:
            assume(np.array_equal(t.attn.weights.hat, tape.attn.weights.hat))
        sides.append(float((out * probe).sum()))
    numeric = (sides[0] - sides[1]) / (2.0 * step)
    assert abs(numeric - slope) <= 1e-6 * max(abs(numeric), scale), (numeric, slope, scale)


def test_backward_rejects_mismatched_upstream():
    # numpy used to fail deep inside with "operands could not be broadcast"
    # or a matmul core-dimension message naming neither shape
    rng = np.random.default_rng(19)
    q, k, v = random_grids(rng, 4, 5)
    cfg = make_config(WeightSchemeKind.LEARNED_SBT, PartitionKind.UNIT_RING, rng, v.shape[2])
    tape = ripple_dp(q, k, v, cfg).tape
    _, lin_tape = linearized_grid(q, k, v, cfg.featmap)
    for vjp, t in ((ripple_vjp, tape), (linearized_vjp, lin_tape)):
        for bad in ((4, 5, 4), (5, 4, 3), (4, 5, 1, 3)):
            with pytest.raises(ValueError, match=rf"upstream shape \({', '.join(map(str, bad))}\)"
                                                 r".* \(4, 5, 3\)"):
                vjp(t, rng.standard_normal(bad))
    params = init_multi_head(rng, model_dim=6, num_heads=2, head_dim=3, r_max=2,
                             scheme_kind=WeightSchemeKind.UNIFORM)
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.UNIFORM)
    _, mh_tape = multi_head_forward(rng.standard_normal((4, 5, 6)), params, config)
    with pytest.raises(ValueError, match=r"upstream shape \(4, 5, 3\) .* \(4, 5, 6\)"):
        multi_head_vjp(mh_tape, rng.standard_normal((4, 5, 3)))
    # a non-finite upstream of the right shape still flows through, so a
    # diverged step reaches the training loop's own finiteness check
    bad = rng.standard_normal((4, 5, 3))
    bad[1, 2, 0] = np.nan
    up = rng.standard_normal((4, 5, 6))
    up[0, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(ripple_vjp(tape, bad).grad_q).all()
        assert not np.isfinite(multi_head_vjp(mh_tape, up).grad_x).all()


# ---------- cost accounting ----------

def test_forward_backward_fetch_budget():
    rng = np.random.default_rng(15)
    for side, r_max in ((8, 2), (12, 4)):
        q, k, v = random_grids(rng, side, side)
        cfg = make_config(WeightSchemeKind.LEARNED_SBT, PartitionKind.UNIT_RING,
                          rng, v.shape[2], r_max=r_max)
        probe = rng.standard_normal((side, side, v.shape[2]))
        reset_fetch_count()
        res = ripple_dp(q, k, v, cfg)
        forward = fetch_count()
        ripple_vjp(res.tape, probe)
        total = fetch_count()
        budget = 16 * side * side * r_max
        assert forward <= budget, (side, r_max, forward, budget)
        assert total <= budget, (side, r_max, total, budget)
        reset_fetch_count()


def peak_units(fn, side, width):
    """Peak bytes traced while fn runs, in (H, W, Dp, C + 1) f64 arrays; the
    block buffers kept between passes are dropped first, so they count."""
    release_kept_buffers()
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (side * side * width * (width + 1) * 8)


def test_forward_backward_peak_memory():
    """Forward plus backward peaks at 1.68 (H, W, Dp, C + 1) f64 arrays at
    32x32: the tape's inputs, features and quotient, and one kept buffer,
    which the backward takes over from the forward and grows. The backward
    streams the table in 7-row chunks at full channel width, and each
    chunk keeps its table rows, the token adjoint's rows, the stacked keys
    and cotangents, the z read's products and the z rows of the queries it
    reaches. Before the table was streamed by rows, the peak read 1.97
    with three blocks of 11 channels in strips of 14 rows, each block's
    buffer holding a band of 29 padded table rows, the token adjoint's
    band (30 rows with its carry) and a strip's field, and the forward's
    band freed before that buffer was allocated (2.05 while the feature
    VJP held sin z and cos z apart from their concatenation). With two
    blocks of 16 channels in strips of 7 rows, before the mask was counted
    in the plan, the peak read 1.84; with the forward's band held beside
    that buffer, 2.67. The bound of 2.3 is unchanged. The two-pass
    backward, whose token adjoint borrowed the forward's band for a
    whole-grid accumulator and field (47x47 cells, 11 of the 32 channels),
    measured 1.83, three grid-sized block arrays (field, scatter scratch
    and accumulator) 1.83, a band sized without the strip's vectors 1.88,
    a forward band kept beside the four block arrays the channel-blocked
    backward used 3.14, the channel-blocked core with those four arrays
    2.05, the table's own bordered storage beside the field 2.40 to 2.42,
    the layout that kept the whole table and swept field on the tape 7.33,
    and a backward with a table of its own per block 2.78."""
    rng = np.random.default_rng(17)
    side, width = 32, 32
    q, k, v = random_grids(rng, side, side, d=width, c=width)
    cfg = make_config(WeightSchemeKind.LEARNED_SBT, PartitionKind.DYADIC, rng,
                      width, r_max=4, d=width)
    probe = rng.standard_normal((side, side, width))
    units = peak_units(lambda: ripple_vjp(ripple_dp(q, k, v, cfg).tape, probe),
                       side, width)
    assert units <= 2.3, f"peak {units:.2f}x one (H, W, Dp, C+1) array"


def test_forward_peak_below_one_field():
    """A forward never holds the whole field phi_k (x) [v, 1]: at 48x48 it
    peaks at 0.75 of one (H, W, Dp, C + 1) array: one kept buffer (0.56)
    for 12-row chunks of the padded table at full channel width (radius
    3) with their stacked keys and products, the scaled phi_q and the
    table build's mask, plus the tape. With a band of 20 padded table rows
    over 13-row strips and paired K = 2 window reads it peaked at 0.73.
    With four corner matmuls per window and a column pass over a
    written-out field, it peaked at 0.72. A band sized without the strip's
    vectors (strips of 15 rows) peaked at 0.77, the channel-blocked
    forward at 0.87 with one block's table, window and window scratch, and
    the unblocked forward at 4.16."""
    rng = np.random.default_rng(18)
    side, width = 48, 32
    q, k, v = random_grids(rng, side, side, d=width, c=width)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL, PartitionKind.UNIT_RING,
                      rng, width, r_max=4, d=width)
    units = peak_units(lambda: ripple_dp(q, k, v, cfg), side, width)
    assert units < 1.0, f"peak {units:.2f}x one (H, W, Dp, C+1) array"


@pytest.mark.parametrize("kind", [WeightSchemeKind.FIXED_EXPONENTIAL,
                                  WeightSchemeKind.LEARNED_SBT])
def test_forward_memory_is_linear(kind):
    """A warm forward's peak grows with the token count: 64x64 over 32x32
    on unit rings reads 3.27 for both schemes. When every weight grid was
    padded to the largest group count, which grows with the grid side, it
    read 4.41 (fixed exponential) and 5.79 (learned stick)."""
    def warm_peak(side, width=16):
        rng = np.random.default_rng(side)
        q, k, v = random_grids(rng, side, side, d=width, c=width)
        cfg = make_config(kind, PartitionKind.UNIT_RING, rng, width, r_max=4, d=width)
        for _ in range(2):
            ripple_dp(q, k, v, cfg)
        gc.collect()
        tracemalloc.start()
        try:
            ripple_dp(q, k, v, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ratio = warm_peak(64) / warm_peak(32)
    assert ratio <= 4.2, f"64x64 peak is {ratio:.2f}x the 32x32 one"


# ---------- the audit harness itself ----------

def test_finite_diff_check_catches_wrong_gradient():
    rng = np.random.default_rng(16)
    a = rng.standard_normal(4)

    def good(params):
        return float((params["a"] ** 2).sum()), {"a": 2 * params["a"]}

    def bad(params):
        g = 2 * params["a"]
        g[1] += 0.5
        return float((params["a"] ** 2).sum()), {"a": g}

    assert finite_diff_check(good, {"a": a}, tolerance=1e-7).passed
    report = finite_diff_check(bad, {"a": a}, tolerance=1e-7)
    assert not report.passed
    assert report.worst_param == "a" and report.worst_index == (1,)


def test_finite_diff_check_validation():
    def loss(params):
        return float(params["a"].sum()), {"a": np.ones(3)}

    with pytest.raises(ValueError):
        finite_diff_check(loss, {"a": np.zeros(3)}, mode="bogus")

    def bad_shape(params):
        return float(params["a"].sum()), {"a": np.ones(4)}

    with pytest.raises(ValueError):
        finite_diff_check(bad_shape, {"a": np.zeros(3)})


def test_finite_diff_report_string():
    def loss(params):
        return float((params["a"] ** 2).sum()), {"a": 2 * params["a"]}

    report = finite_diff_check(loss, {"a": np.arange(3.0)}, tolerance=1e-7)
    text = str(report)
    assert "gradcheck ok" in text and "tol" in text
