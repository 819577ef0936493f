"""End-to-end checks of the package's headline behaviors.

Each numbered test prints one PASS/FAIL verdict on the real terminal
(bypassing pytest capture) so a log scrape can collect the lines, then
asserts. Tolerances are stated inline; nothing here is statistical except
wall time.
"""
import gc
import math
import time

import numpy as np

from ripplegrid.attention import (
    AttentionConfig,
    MultiHeadConfig,
    init_multi_head,
    linearized_attention,
    multi_head_forward,
    ripple_dp,
    ripple_naive,
    ripple_softmax_reference,
    softmax_attention,
)
from ripplegrid.bench import BenchPlan, memory_probe, run_bench
from ripplegrid.featmap import FeatureMapKind, FeatureMapParams, init_feature_map
from ripplegrid.grad import (
    finite_diff_check,
    grad_alpha,
    grad_pixels,
    grad_pixels_reference,
    ripple_vjp,
)
from ripplegrid.sat import fetch_count, reset_fetch_count
from ripplegrid.toymodel import (
    ToyModelConfig,
    init_model,
    loss_and_grads,
    make_local_majority_batch,
    train_demo,
)
from ripplegrid.vicinal import (
    GridShape,
    PartitionKind,
    PartitionScheme,
    group_members,
    max_chebyshev,
    num_groups_grid,
)
from ripplegrid.weights import (
    LEARNED_KINDS,
    StickParams,
    WeightGrid,
    WeightScheme,
    WeightSchemeKind,
    adaptive_truncate,
    scheme_weights,
    scheme_weights_grid,
    stick_breaking,
)

ALL_SCHEMES = tuple(WeightSchemeKind)


def report(capsys, n, passed, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {n}: {detail}"


def make_config(kind, partition_kind, rng, value_dim, r_max=3, tau=0.05,
                d=6, epsilon=1e-6,
                featmap_kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE):
    partition = PartitionScheme(kind=partition_kind, r_max=r_max, tau=tau)
    params = None
    if kind in LEARNED_KINDS:
        params = StickParams(
            unit_embeddings=rng.standard_normal((r_max, 4)),
            value_projection=rng.standard_normal((4, value_dim)))
    return AttentionConfig(scheme=WeightScheme(kind=kind, params=params),
                           partition=partition,
                           featmap=init_feature_map(featmap_kind, d, rng),
                           epsilon=epsilon)


def rel_error(got, want):
    return float(np.abs(got - want).max() / max(float(np.abs(want).max()),
                                                1e-300))


def test_criterion_1_prefix_sum_equals_enumeration(capsys):
    # >= 200 random instances over four grid sizes, all five weight schemes,
    # one and four heads; prefix-sum forward vs member enumeration, f64
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    instances = 0
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=3, tau=0.05)
    for trial in range(5):
        for kind in ALL_SCHEMES:
            for side in (4, 6, 9, 12):
                # one head, raw grids
                q = rng.standard_normal((side, side, 6))
                k = rng.standard_normal((side, side, 6))
                v = rng.standard_normal((side, side, 5))
                cfg = make_config(kind, PartitionKind.UNIT_RING, rng, 5)
                got = ripple_dp(q, k, v, cfg).out
                want = ripple_naive(q, k, v, cfg, build_tape=False).out
                worst = max(worst, rel_error(got, want))
                instances += 1
                # four heads through the projection wrapper
                params = init_multi_head(rng, model_dim=8, num_heads=4,
                                         head_dim=4, r_max=3, scheme_kind=kind)
                mhc = MultiHeadConfig(partition=partition, scheme_kind=kind)
                x = rng.standard_normal((side, side, 8))
                fast, _ = multi_head_forward(x, params, mhc)
                slow, _ = multi_head_forward(x, params, mhc, oracle=True)
                worst = max(worst, rel_error(fast, slow))
                instances += 1
    elapsed = time.perf_counter() - start
    passed = instances >= 200 and worst < 1e-8 and elapsed < 120.0
    report(capsys, 1, passed,
           f"{instances} instances, max rel err {worst:.3e} vs 1e-8, "
           f"{elapsed:.1f}s")


def test_criterion_2_degeneracies(capsys):
    failures = []

    # uniform group weights cancel out of the quotient, leaving the global
    # feature-factorized form (exact cancellation needs epsilon 0)
    rng = np.random.default_rng(13)
    q = rng.standard_normal((5, 4, 5))
    k = rng.standard_normal((5, 4, 5))
    v = rng.standard_normal((5, 4, 4))
    cfg = make_config(WeightSchemeKind.UNIFORM, PartitionKind.UNIT_RING, rng,
                      4, r_max=2, d=5, epsilon=0.0)
    flat = linearized_attention(q.reshape(-1, 5), k.reshape(-1, 5),
                                v.reshape(-1, 4), cfg.featmap,
                                epsilon=0.0).reshape(5, 4, 4)
    for name, out in (("dp", ripple_dp(q, k, v, cfg).out),
                      ("naive", ripple_naive(q, k, v, cfg).out)):
        err = float(np.abs(out - flat).max())
        if err >= 1e-9:
            failures.append(f"uniform {name} vs linearized err {err:.2e}")

    # all weight on the query's own group returns the value grid
    rng = np.random.default_rng(14)
    q = rng.standard_normal((4, 5, 5))
    k = rng.standard_normal((4, 5, 5))
    v = rng.standard_normal((4, 5, 4))
    shape = GridShape(4, 5)
    for pk in (PartitionKind.UNIT_RING, PartitionKind.DYADIC):
        # trig features: dense, so the self overlap never lands on zero
        cfg = make_config(WeightSchemeKind.UNIFORM, pk, rng, 4, d=5,
                          epsilon=0.0, featmap_kind=FeatureMapKind.RANDOM_TRIG)
        groups = num_groups_grid(pk, shape)
        alphas = np.zeros((4, 5, int(groups.max())))
        alphas[..., 0] = 1.0
        wg = WeightGrid(alphas=alphas, hat=np.ones((4, 5), dtype=groups.dtype),
                        merged=np.zeros((4, 5)), groups=groups)
        for name, out in (
                ("naive", ripple_naive(q, k, v, cfg, weights=wg).out),
                (pk.value, ripple_dp(q, k, v, cfg, weights=wg).out)):
            err = float(np.abs(out - v).max())
            if err >= 1e-12:
                failures.append(f"point-mass {name} err {err:.2e}")

    # one-token grids: every variant hands back the value row
    rng = np.random.default_rng(15)
    q1 = rng.standard_normal((1, 1, 6))
    k1 = rng.standard_normal((1, 1, 6))
    v1 = rng.standard_normal((1, 1, 5))
    for kind in ALL_SCHEMES:
        cu = make_config(kind, PartitionKind.UNIT_RING, rng, 5, epsilon=0.0,
                         featmap_kind=FeatureMapKind.RANDOM_TRIG)
        cd = make_config(kind, PartitionKind.DYADIC, rng, 5, epsilon=0.0,
                         featmap_kind=FeatureMapKind.RANDOM_TRIG)
        for name, out in (
                ("naive", ripple_naive(q1, k1, v1, cu).out),
                ("dp", ripple_dp(q1, k1, v1, cu).out),
                ("dyadic", ripple_dp(q1, k1, v1, cd).out)):
            err = float(np.abs(out - v1).max())
            if err >= 1e-12:
                failures.append(f"1x1 {name}/{kind.value} err {err:.2e}")
    wg1 = WeightGrid(alphas=np.ones((1, 1, 1)),
                     hat=np.ones((1, 1), dtype=np.int64),
                     merged=np.zeros((1, 1)),
                     groups=np.ones((1, 1), dtype=np.int64))
    part1 = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05)
    extra = {
        "softmax-grouped": ripple_softmax_reference(q1, k1, v1, wg1, part1),
        "softmax": softmax_attention(q1[0], k1[0], v1[0])[None],
        "linearized": linearized_attention(
            q1[0], k1[0], v1[0],
            init_feature_map(FeatureMapKind.RANDOM_TRIG, 6, rng),
            epsilon=0.0)[None],
    }
    for name, out in extra.items():
        err = float(np.abs(out - v1).max())
        if err >= 1e-12:
            failures.append(f"1x1 {name} err {err:.2e}")

    report(capsys, 2, not failures, "; ".join(failures) or
           "uniform==linearized at 1e-9, point-mass exact, 1x1 exact")


def ripple_loss(cfg, probe):
    """Probe loss over a parameter dict covering tokens, features, stick."""
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
        res = ripple_dp(params["q"], params["k"], params["v"], c2)
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


def test_criterion_3_gradients(capsys):
    failures = []
    # conditioned probe instances: epsilon 1e-3 keeps the quotient's
    # curvature finite-difference friendly; the formulas never read epsilon
    fd_eps = 1e-3

    # position scatter vs its quadratic brute force
    rng = np.random.default_rng(31)
    pixels_err = 0.0
    for pk in (PartitionKind.UNIT_RING, PartitionKind.DYADIC):
        partition = PartitionScheme(kind=pk, r_max=3, tau=0.05)
        v = rng.standard_normal((6, 6, 4))
        stick = StickParams(unit_embeddings=rng.standard_normal((3, 4)),
                            value_projection=rng.standard_normal((4, 4)))
        wg = scheme_weights_grid(
            WeightScheme(kind=WeightSchemeKind.LEARNED_SBT, params=stick), v,
            GridShape(6, 6), partition)
        g = rng.standard_normal((6, 6, 3))
        err = float(np.abs(grad_pixels(wg, g, partition)
                           - grad_pixels_reference(wg, g, partition)).max())
        pixels_err = max(pixels_err, err)
        if err >= 1e-10:
            failures.append(f"grad_pixels {pk.value} err {err:.2e}")

    # position scatter vs central differences through an explicit
    # member-enumeration forward (the gather whose adjoint it is)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=3,
                                tau=0.05)
    shape = GridShape(4, 4)
    v = rng.standard_normal((4, 4, 4))
    stick = StickParams(unit_embeddings=rng.standard_normal((3, 4)),
                        value_projection=rng.standard_normal((4, 4)))
    wg = scheme_weights_grid(
        WeightScheme(kind=WeightSchemeKind.LEARNED_SBT, params=stick), v,
        shape, partition)
    probe = rng.standard_normal((4, 4))

    def gather_loss(field):
        total = 0.0
        for i in range(1, 5):
            for j in range(1, 5):
                for r in range(int(wg.groups[i - 1, j - 1])):
                    a = wg.alphas[i - 1, j - 1, r]
                    for (m, n) in group_members(partition, shape, (i, j), r):
                        total += probe[i - 1, j - 1] * a * field[m - 1, n - 1]
        return total

    analytic = grad_pixels(wg, probe, partition)
    field = rng.standard_normal((4, 4))
    step = 1e-5
    scatter_fd = 0.0
    for idx in ((0, 0), (1, 2), (2, 1), (3, 3), (2, 3)):
        hi = field.copy(); hi[idx] += step
        lo = field.copy(); lo[idx] -= step
        fd = (gather_loss(hi) - gather_loss(lo)) / (2 * step)
        scatter_fd = max(scatter_fd,
                         abs(analytic[idx] - fd) / max(abs(fd), 1.0))
    if scatter_fd >= 1e-4:
        failures.append(f"grad_pixels FD rel err {scatter_fd:.2e}")

    # per-group weight gradient vs central differences
    rng = np.random.default_rng(32)
    q = rng.standard_normal((4, 4, 6))
    k = rng.standard_normal((4, 4, 6))
    v = rng.standard_normal((4, 4, 5))
    cfg = make_config(WeightSchemeKind.UNIFORM, PartitionKind.UNIT_RING, rng,
                      5, epsilon=fd_eps)
    groups = num_groups_grid(PartitionKind.UNIT_RING, GridShape(4, 4))
    length = int(groups.max())
    alphas = rng.uniform(0.2, 1.0, size=(4, 4, length))
    alphas[np.arange(length) >= groups[..., None]] = 0.0
    wg = WeightGrid(alphas=alphas, hat=groups.copy(),
                    merged=np.zeros((4, 4)), groups=groups)
    probe = rng.standard_normal((4, 4, 5))
    got = grad_alpha(ripple_dp(q, k, v, cfg, weights=wg).tape, probe)

    def alpha_loss(a):
        w2 = WeightGrid(alphas=a, hat=wg.hat, merged=wg.merged,
                        groups=wg.groups)
        return float((ripple_dp(q, k, v, cfg, weights=w2).out * probe).sum())

    step = 1e-6
    alpha_fd = 0.0
    live = np.argwhere(np.arange(length) < groups[..., None])
    for idx in map(tuple, live[rng.choice(len(live), 25, replace=False)]):
        hi = alphas.copy(); hi[idx] += step
        lo = alphas.copy(); lo[idx] -= step
        fd = (alpha_loss(hi) - alpha_loss(lo)) / (2 * step)
        alpha_fd = max(alpha_fd, abs(got[idx] - fd) / max(abs(fd), 1.0))
    if alpha_fd >= 1e-4:
        failures.append(f"grad_alpha rel err {alpha_fd:.2e}")

    # full backward pass vs central differences at 4x4 and 6x6
    vjp_err = 0.0
    for side in (4, 6):
        rng = np.random.default_rng(33 + side)
        q = rng.standard_normal((side, side, 6))
        k = rng.standard_normal((side, side, 6))
        v = rng.standard_normal((side, side, 5))
        cfg = make_config(WeightSchemeKind.LEARNED_SBT,
                          PartitionKind.UNIT_RING, rng, 5, epsilon=fd_eps,
                          r_max=2)
        probe = rng.standard_normal((side, side, 5))
        check = finite_diff_check(ripple_loss(cfg, probe),
                                  base_params(cfg, q, k, v),
                                  tolerance=1e-4, mode="sample", sample=8,
                                  rng=np.random.default_rng(40 + side))
        vjp_err = max(vjp_err, check.max_rel_error)
        if not check.passed:
            failures.append(f"ripple_vjp {side}x{side}: {check}")

    # whole toy model: step 3e-6 avoids straddling ReLU kinks
    config = ToyModelConfig(height=4, width=4, model_dim=8, num_heads=2,
                            head_dim=4, num_layers=2, ripple_layers=1,
                            r_max=2, epsilon=fd_eps)
    params = init_model(config, seed=0)
    imgs, labels = make_local_majority_batch(
        np.random.Generator(np.random.PCG64(1)), 2, GridShape(4, 4))

    def model_loss(p):
        value, grads, _ = loss_and_grads(imgs, labels, p, config)
        return value, grads

    check = finite_diff_check(model_loss, params, step=3e-6, tolerance=1e-3,
                              mode="sample", sample=6,
                              rng=np.random.default_rng(2))
    if not check.passed:
        failures.append(f"model: {check}")

    report(capsys, 3, not failures, "; ".join(failures) or
           f"pixels {pixels_err:.1e} vs 1e-10, alpha {alpha_fd:.1e}, "
           f"vjp {vjp_err:.1e} vs 1e-4, model {check.max_rel_error:.1e} "
           f"vs 1e-3")


def test_criterion_4_runtime_scaling(capsys):
    failures = []
    sizes = (8, 12, 16, 24)
    dp_plan = BenchPlan(variants=("dp",), sizes=sizes, reps=5, warmup=2,
                        feature_dim=64, value_dim=64, r_max=4, seed=0)
    naive_plan = BenchPlan(variants=("naive",), sizes=sizes, reps=3, warmup=1,
                           feature_dim=64, value_dim=64,
                           r_max_policy="linear-in-side", seed=0)
    softmax_plan = BenchPlan(variants=("softmax",), sizes=sizes, batch=4,
                             reps=5, warmup=2, feature_dim=64, value_dim=64,
                             seed=0)
    # softmax first and a collect between plans: the naive runs leave large
    # transients behind, and a churned heap inflates the small-size medians
    # of whatever is timed next, flattening its fitted slope
    softmax_recs = run_bench(softmax_plan, probe_memory=False)
    gc.collect()
    dp_recs = run_bench(dp_plan, probe_memory=False)
    gc.collect()
    naive_recs = run_bench(naive_plan, probe_memory=False)

    dp_slope = dp_recs[0].slope
    naive_slope = naive_recs[0].slope
    softmax_slope = softmax_recs[0].slope
    if not 0.8 <= dp_slope <= 1.3:
        failures.append(f"dp slope {dp_slope:.2f} outside [0.8, 1.3]")
    if naive_slope < 1.7:
        failures.append(f"naive slope {naive_slope:.2f} < 1.7")
    if softmax_slope < 1.7:
        failures.append(f"softmax slope {softmax_slope:.2f} < 1.7")

    dp_big = next(r for r in dp_recs if r.side == 24).median_ns
    naive_big = next(r for r in naive_recs if r.side == 24).median_ns
    if naive_big < 2.0 * dp_big:
        failures.append(f"speedup {naive_big / dp_big:.1f}x < 2x at 24^2")

    # instrumented window fetches, forward plus backward
    rng = np.random.default_rng(44)
    budget_note = ""
    for side, r_max in ((16, 4), (24, 4)):
        q = rng.standard_normal((side, side, 6))
        k = rng.standard_normal((side, side, 6))
        v = rng.standard_normal((side, side, 5))
        cfg = make_config(WeightSchemeKind.LEARNED_SBT,
                          PartitionKind.UNIT_RING, rng, 5, r_max=r_max)
        probe = rng.standard_normal((side, side, 5))
        reset_fetch_count()
        res = ripple_dp(q, k, v, cfg)
        fwd = fetch_count()
        ripple_vjp(res.tape, probe)
        total = fetch_count()
        reset_fetch_count()
        budget = 16 * side * side * r_max
        if fwd > budget or total > budget:
            failures.append(f"fetches {total} vs budget {budget} "
                            f"at side {side}")
        budget_note = f"fetches {total} <= {budget} at {side}^2"

    report(capsys, 4, not failures, "; ".join(failures) or
           f"slopes dp {dp_slope:.2f}, naive {naive_slope:.2f}, "
           f"softmax {softmax_slope:.2f}; "
           f"speedup {naive_big / dp_big:.1f}x; {budget_note}")


def test_criterion_5_memory(capsys):
    failures = []
    peaks = {}
    for r_max in (2, 8):
        plan = BenchPlan(variants=("dp",), sizes=(32,), reps=3, warmup=1,
                         feature_dim=32, value_dim=32, r_max=r_max, seed=0)
        peaks[r_max] = memory_probe("dp", 32, plan)
    spread = abs(peaks[2] - peaks[8]) / min(peaks.values())
    if spread >= 0.10:
        failures.append(f"dp peak varies {spread:.1%} across r_max 2 vs 8")

    soft_plan = BenchPlan(variants=("softmax",), sizes=(32, 64),
                          feature_dim=32, value_dim=32, seed=0)
    small = memory_probe("softmax", 32, soft_plan)
    large = memory_probe("softmax", 64, soft_plan)
    growth = large / small
    if growth < 3.0:
        failures.append(f"softmax peak grew {growth:.1f}x < 3x")

    report(capsys, 5, not failures, "; ".join(failures) or
           f"dp peak spread {spread:.1%} < 10%, softmax growth {growth:.1f}x")


def test_criterion_6_simplex_properties(capsys):
    rng = np.random.default_rng(60)
    failures = []
    draws = 10_000

    worst_sum = 0.0
    monotone_ok = True
    nonmono_seen = 0
    head_preserved = True
    for _ in range(draws):
        n = int(rng.integers(1, 8))
        s = rng.uniform(1e-6, 1.0 - 1e-6, size=n)
        alphas = stick_breaking(s)
        worst_sum = max(worst_sum, abs(float(alphas.sum()) - 1.0))
        if np.any(alphas < 0):
            failures.append("negative stick weight")
            break
        # remaining mass after each break never increases
        remaining = 1.0 - np.cumsum(alphas)
        if np.any(np.diff(remaining) > 1e-12):
            monotone_ok = False
        if np.any(np.diff(alphas) > 1e-12):
            nonmono_seen += 1
        # truncation keeps every head weight bit for bit
        tau = float(rng.uniform(0.01, 0.5))
        sw = adaptive_truncate(alphas, tau=tau)
        if not np.array_equal(sw.alphas[:sw.hat_r], alphas[:sw.hat_r]):
            head_preserved = False
        worst_sum = max(worst_sum, abs(float(sw.alphas.sum()) - 1.0))
    if worst_sum >= 1e-9:
        failures.append(f"simplex sum err {worst_sum:.2e}")
    if not monotone_ok:
        failures.append("remaining stick mass increased")
    if nonmono_seen == 0:
        failures.append("no non-monotone weight profile seen")
    if not head_preserved:
        failures.append("truncation rewrote a head weight")

    # the full scheme pipeline stays on the simplex for every kind
    scheme_sum = 0.0
    for kind in ALL_SCHEMES:
        for _ in range(draws // len(ALL_SCHEMES)):
            r_max = int(rng.integers(1, 6))
            groups = int(rng.integers(1, 10))
            params = None
            if kind in LEARNED_KINDS:
                params = StickParams(
                    unit_embeddings=rng.standard_normal((r_max, 3)),
                    value_projection=rng.standard_normal((3, 4)))
            sw = scheme_weights(WeightScheme(kind=kind, params=params),
                                (1, 1), rng.standard_normal(4), groups=groups,
                                r_max=r_max, tau=0.05)
            if np.any(sw.alphas < 0):
                failures.append(f"negative weight from {kind.value}")
                break
            scheme_sum = max(scheme_sum, abs(float(sw.alphas.sum()) - 1.0))
    if scheme_sum >= 1e-9:
        failures.append(f"scheme sum err {scheme_sum:.2e}")

    # explicit expressiveness witness: a rising break pattern weighs the
    # second group above the first
    rising = stick_breaking(np.array([0.1, 0.9]))
    if not rising[1] > rising[0]:
        failures.append("rising profile not expressible")

    report(capsys, 6, not failures, "; ".join(failures) or
           f"2x{draws} draws: sums within {max(worst_sum, scheme_sum):.1e}, "
           f"monotone remainder, {nonmono_seen} non-monotone profiles")


def test_criterion_7_training(capsys):
    config = ToyModelConfig(height=8, width=8)   # 2 layers, 1 grouped layer
    rows = train_demo(config, task="local-majority", steps=200, batch=8,
                      seed=0, optimizer="sgd", lr=0.05, clip=1.0)
    losses = np.array([r["loss"] for r in rows])
    jsds = np.array([r["mean_jsd"] for r in rows])
    failures = []
    if len(rows) != 200:
        failures.append(f"{len(rows)} steps logged")
    if not np.isfinite(losses).all():
        failures.append("non-finite loss")
    drop = 1.0 - losses.min() / losses[0]
    if drop < 0.5:
        failures.append(f"loss drop {drop:.0%} < 50%")
    if not ((jsds >= 0.0) & (jsds <= 1.0)).all():
        failures.append("per-step JSD diagnostic left [0, 1]")
    report(capsys, 7, not failures, "; ".join(failures) or
           f"loss {losses[0]:.3f} -> {losses.min():.3f} ({drop:.0%} drop), "
           f"JSD in [{jsds.min():.3f}, {jsds.max():.3f}]")


def test_criterion_8_dyadic_bands(capsys):
    rng = np.random.default_rng(80)
    failures = []
    worst = 0.0
    for trial in range(2):
        for kind in ALL_SCHEMES:
            for side in (4, 6, 9, 12):
                q = rng.standard_normal((side, side, 6))
                k = rng.standard_normal((side, side, 6))
                v = rng.standard_normal((side, side, 5))
                cfg = make_config(kind, PartitionKind.DYADIC, rng, 5)
                got = ripple_dp(q, k, v, cfg).out
                want = ripple_naive(q, k, v, cfg, build_tape=False).out
                worst = max(worst, rel_error(got, want))
    if worst >= 1e-8:
        failures.append(f"dyadic rel err {worst:.2e}")

    # per-query group count stays logarithmic in the farthest distance
    shapes = [GridShape(s, s) for s in range(2, 13)]
    shapes += [GridShape(3, 7), GridShape(5, 12)]
    for shape in shapes:
        groups = num_groups_grid(PartitionKind.DYADIC, shape)
        for i in range(1, shape.height + 1):
            for j in range(1, shape.width + 1):
                far = max_chebyshev(shape, (i, j))
                bound = 1 + math.ceil(math.log2(far + 1))
                if groups[i - 1, j - 1] > bound:
                    failures.append(
                        f"{shape.height}x{shape.width} query ({i},{j}): "
                        f"{groups[i - 1, j - 1]} groups > bound {bound}")
    report(capsys, 8, not failures, "; ".join(failures) or
           f"max rel err {worst:.3e} vs 1e-8 up to 12x12, "
           f"group count <= 1+ceil(log2(far+1)) everywhere")
