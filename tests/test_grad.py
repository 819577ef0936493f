import gc
import tracemalloc

import numpy as np
import pytest

from ripplegrid.attention import (
    AttentionConfig,
    HeadParams,
    MultiHeadConfig,
    MultiHeadParams,
    init_multi_head,
    linearized_grid,
    multi_head_forward,
    ripple_dp,
    release_kept_buffers,
    ripple_naive,
)
from ripplegrid import grad as grad_module
from ripplegrid.featmap import FeatureMapKind, FeatureMapParams, init_feature_map
from ripplegrid.grad import (
    finite_diff_check,
    grad_alpha,
    grad_pixels,
    grad_pixels_reference,
    linearized_vjp,
    multi_head_vjp,
    ripple_vjp,
)
from ripplegrid.sat import fetch_count, reset_fetch_count
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

def test_grad_pixels_matches_reference():
    rng = np.random.default_rng(0)
    fixed = WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL)
    for pk in (PartitionKind.UNIT_RING, PartitionKind.DYADIC):
        partition = PartitionScheme(kind=pk, r_max=3, tau=0.05)
        cases = [(fixed, shape) for shape in ((4, 5), (6, 6), (5, 7))]
        # 1xN and Nx1 grids under every scheme, hat 0 and cut == groups included
        cases += [(make_config(kind, pk, rng, 3).scheme, shape)
                  for kind in WeightSchemeKind
                  for shape in ((1, 1), (1, 7), (9, 1), (1, 12))]
        for scheme, (h, w) in cases:
            v = rng.standard_normal((h, w, 3))
            wg = scheme_weights_grid(scheme, v, GridShape(h, w), partition)
            g = rng.standard_normal((h, w))
            np.testing.assert_allclose(
                grad_pixels(wg, g, partition),
                grad_pixels_reference(wg, g, partition), atol=1e-12)


def test_grad_pixels_channel_field():
    # the scatter broadcasts over trailing channel axes
    rng = np.random.default_rng(1)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=3, tau=0.05)
    v = rng.standard_normal((5, 4, 2))
    stick = StickParams(unit_embeddings=rng.standard_normal((3, 3)),
                        value_projection=rng.standard_normal((3, 2)))
    wg = scheme_weights_grid(
        WeightScheme(kind=WeightSchemeKind.LEARNED_SBT, params=stick), v,
        GridShape(5, 4), partition)
    g = rng.standard_normal((5, 4, 3, 2))
    np.testing.assert_allclose(grad_pixels(wg, g, partition),
                               grad_pixels_reference(wg, g, partition),
                               atol=1e-12)


def test_grad_pixels_builds_one_table(monkeypatch):
    # group 0 is the weighted field itself and every later group refills
    # the same table, so a call allocates one table however long the sweep
    built = []

    class Counting(grad_module.SummedAreaTable):
        def __init__(self, field):
            built.append(field.shape)
            super().__init__(field)

    monkeypatch.setattr(grad_module, "SummedAreaTable", Counting)
    rng = np.random.default_rng(7)
    fixed = WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL)
    for pk, r_max in ((PartitionKind.UNIT_RING, 6), (PartitionKind.DYADIC, 4),
                      (PartitionKind.UNIT_RING, 1)):
        partition = PartitionScheme(kind=pk, r_max=r_max, tau=1e-9)
        wg = scheme_weights_grid(fixed, rng.standard_normal((9, 9, 2)),
                                 GridShape(9, 9), partition)
        g = rng.standard_normal((9, 9, 3))
        built.clear()
        got = grad_pixels(wg, g, partition)
        assert len(built) == (1 if int(wg.hat.max()) > 1 else 0), (pk, r_max, built)
        np.testing.assert_allclose(got, grad_pixels_reference(wg, g, partition),
                                   atol=1e-12)


def test_grad_pixels_truncated_tail_scatters_nothing():
    rng = np.random.default_rng(2)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05)
    v = rng.standard_normal((6, 6, 2))
    stick = StickParams(unit_embeddings=rng.standard_normal((2, 3)),
                        value_projection=rng.standard_normal((3, 2)))
    wg = scheme_weights_grid(
        WeightScheme(kind=WeightSchemeKind.TRUNCATED, params=stick), v,
        GridShape(6, 6), partition)
    assert np.all(wg.merged == 0.0)
    g = rng.standard_normal((6, 6))
    np.testing.assert_allclose(grad_pixels(wg, g, partition),
                               grad_pixels_reference(wg, g, partition),
                               atol=1e-12)


# ---------- per-group weight gradients ----------

def free_alpha_grid(rng, shape, partition):
    """Weight grid whose entries are all independent head weights (no tail)."""
    groups = num_groups_grid(partition.kind, shape)
    length = int(groups.max())
    alphas = rng.uniform(0.2, 1.0, size=(shape.height, shape.width, length))
    alphas[np.arange(length) >= groups[..., None]] = 0.0
    return WeightGrid(alphas=alphas, hat=groups.copy(),
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

    res = ripple_dp(q, k, v, cfg, weights=wg)
    got = grad_alpha(res.tape, probe)

    def loss(alphas):
        w2 = WeightGrid(alphas=alphas, hat=wg.hat, merged=wg.merged,
                        groups=wg.groups)
        return float((ripple_dp(q, k, v, cfg, weights=w2).out * probe).sum())

    step = 1e-6
    live = np.argwhere(np.arange(wg.alphas.shape[-1]) < wg.groups[..., None])
    for idx in map(tuple, live[rng.choice(len(live), 30, replace=False)]):
        hi = wg.alphas.copy(); hi[idx] += step
        lo = wg.alphas.copy(); lo[idx] -= step
        fd = (loss(hi) - loss(lo)) / (2 * step)
        assert abs(got[idx] - fd) <= 1e-6 * max(abs(fd), 1.0), idx


def test_grad_alpha_zero_past_group_count():
    rng = np.random.default_rng(4)
    q, k, v = random_grids(rng, 5, 6)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL,
                      PartitionKind.UNIT_RING, rng, v.shape[2])
    res = ripple_dp(q, k, v, cfg)
    g = grad_alpha(res.tape, np.ones_like(res.out))
    pad = np.arange(g.shape[-1]) >= res.tape.weights.groups[..., None]
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
            w2 = WeightGrid(alphas=wg.alphas, hat=wg.hat, merged=merged,
                            groups=wg.groups)
            return float((ripple_dp(q, k, v, cfg, weights=w2).out * probe).sum())
        fd = (loss(wg.merged[cell] + step) - loss(wg.merged[cell] - step)) / (2 * step)
        assert abs(gm[cell] - fd) <= 1e-6 * max(abs(fd), 1.0), cell


def test_vjp_head_grads_agree_with_expanded_form():
    rng = np.random.default_rng(6)
    q, k, v = random_grids(rng, 5, 4)
    cfg = make_config(WeightSchemeKind.LEARNED_SBT, PartitionKind.UNIT_RING,
                      rng, v.shape[2])
    res = ripple_dp(q, k, v, cfg)
    probe = rng.standard_normal(res.out.shape)
    full = grad_alpha(res.tape, probe)
    rg = ripple_vjp(res.tape, probe)
    max_hat = rg.grad_alpha_head.shape[-1]
    in_head = np.arange(max_hat) < res.tape.weights.hat[..., None]
    np.testing.assert_array_equal(rg.grad_alpha_head,
                                  np.where(in_head, full[..., :max_hat], 0.0))


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
    out = {"w_out": params.w_out, "b_out": params.b_out}
    for n, head in enumerate(params.heads):
        out[f"h{n}.wq"] = head.wq
        out[f"h{n}.wk"] = head.wk
        out[f"h{n}.wv"] = head.wv
        out[f"h{n}.w1"] = head.featmap.w1
        out[f"h{n}.w2"] = head.featmap.w2
        out[f"h{n}.b2"] = head.featmap.b2
        if head.stick is not None:
            out[f"h{n}.emb"] = head.stick.unit_embeddings
            out[f"h{n}.proj"] = head.stick.value_projection
    return out


def rebuild_heads(template, params):
    heads = []
    for n, head in enumerate(template.heads):
        fm = FeatureMapParams(kind=head.featmap.kind, w1=params[f"h{n}.w1"],
                              w2=params[f"h{n}.w2"], b2=params[f"h{n}.b2"])
        stick = None
        if head.stick is not None:
            stick = StickParams(unit_embeddings=params[f"h{n}.emb"],
                                value_projection=params[f"h{n}.proj"])
        heads.append(HeadParams(wq=params[f"h{n}.wq"], wk=params[f"h{n}.wk"],
                                wv=params[f"h{n}.wv"], featmap=fm, stick=stick))
    return MultiHeadParams(heads=tuple(heads), w_out=params["w_out"],
                           b_out=params["b_out"])


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
        mh = rebuild_heads(template, params)
        out, tape = multi_head_forward(params["x"], mh, config)
        mg = multi_head_vjp(tape, probe)
        grads = {"x": mg.grad_x, "w_out": mg.w_out, "b_out": mg.b_out}
        for n, hg in enumerate(mg.heads):
            grads[f"h{n}.wq"] = hg.wq
            grads[f"h{n}.wk"] = hg.wk
            grads[f"h{n}.wv"] = hg.wv
            grads[f"h{n}.w1"] = hg.featmap.w1
            grads[f"h{n}.w2"] = hg.featmap.w2
            grads[f"h{n}.b2"] = hg.featmap.b2
            if hg.stick is not None:
                grads[f"h{n}.emb"] = hg.stick.unit_embeddings
                grads[f"h{n}.proj"] = hg.stick.value_projection
        return float((out * probe).sum()), grads

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
        mh = rebuild_heads(template, params)
        out, tape = multi_head_forward(params["x"], mh, config)
        mg = multi_head_vjp(tape, probe)
        grads = {"x": mg.grad_x, "w_out": mg.w_out, "b_out": mg.b_out}
        for n, hg in enumerate(mg.heads):
            grads[f"h{n}.wq"] = hg.wq
            grads[f"h{n}.wk"] = hg.wk
            grads[f"h{n}.wv"] = hg.wv
            grads[f"h{n}.w1"] = hg.featmap.w1
            grads[f"h{n}.w2"] = hg.featmap.w2
            grads[f"h{n}.b2"] = hg.featmap.b2
        return float((out * probe).sum()), grads

    params = dict(head_param_dict(template), x=x)
    report = finite_diff_check(loss, params, tolerance=1e-6, mode="sample",
                               sample=8, rng=np.random.default_rng(106))
    assert report.passed, str(report)


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
    """Forward plus backward peaks at 2.40 (H, W, Dp, C + 1) f64 arrays at
    32x32: the tape's inputs, features and quotient, then, for one channel
    block of 11 of the 32 channels, the field (holding the block's
    cotangent), its table and window rows, which the token gradient refills,
    and that gradient's output and scratch. The bound adds about 12% to
    that; the layout that kept the whole table and swept field on the tape
    peaked at 7.33, and a backward with a table of its own per block at
    2.78."""
    rng = np.random.default_rng(17)
    side, width = 32, 32
    q, k, v = random_grids(rng, side, side, d=width, c=width)
    cfg = make_config(WeightSchemeKind.LEARNED_SBT, PartitionKind.DYADIC, rng,
                      width, r_max=4, d=width)
    probe = rng.standard_normal((side, side, width))
    units = peak_units(lambda: ripple_vjp(ripple_dp(q, k, v, cfg).tape, probe),
                       side, width)
    assert units <= 2.7, f"peak {units:.2f}x one (H, W, Dp, C+1) array"


def test_forward_peak_below_one_field():
    """A forward never holds the whole field phi_k (x) [v, 1]: at 48x48 it
    peaks at 0.91 of one (H, W, Dp, C + 1) array (one block's field, table
    and window rows of 7 of the 32 channels, plus the tape), where the
    unblocked forward reached 4.16."""
    rng = np.random.default_rng(18)
    side, width = 48, 32
    q, k, v = random_grids(rng, side, side, d=width, c=width)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL, PartitionKind.UNIT_RING,
                      rng, width, r_max=4, d=width)
    units = peak_units(lambda: ripple_dp(q, k, v, cfg), side, width)
    assert units < 1.0, f"peak {units:.2f}x one (H, W, Dp, C+1) array"


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
