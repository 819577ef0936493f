import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripplegrid import sat
from ripplegrid.attention import (
    DEFAULT_EPSILON,
    AttentionConfig,
    MultiHeadConfig,
    init_multi_head,
    linearized_grid,
    multi_head_forward,
    ripple_dp,
    ripple_naive,
)
from ripplegrid.featmap import FeatureMapKind, FeatureMapParams, init_feature_map
from ripplegrid.reference import linearized_attention, ripple_softmax_reference, softmax_attention
from ripplegrid.vicinal import GridShape, PartitionKind, PartitionScheme, num_groups_grid
from ripplegrid.weights import (
    LEARNED_KINDS,
    StickParams,
    WeightGrid,
    WeightScheme,
    WeightSchemeKind,
    scheme_weights_grid,
)
from stacked import head_params, naive_layer

ALL_SCHEMES = list(WeightSchemeKind)


def make_config(kind, partition_kind, rng, value_dim, r_max=3, tau=0.05,
                d=5, epsilon=DEFAULT_EPSILON,
                featmap_kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE):
    partition = PartitionScheme(kind=partition_kind, r_max=r_max, tau=tau)
    params = None
    if kind in LEARNED_KINDS:
        params = StickParams(
            unit_embeddings=rng.standard_normal((r_max, 4)),
            value_projection=rng.standard_normal((4, value_dim)))
    scheme = WeightScheme(kind=kind, params=params)
    featmap = init_feature_map(featmap_kind, d, rng)
    return AttentionConfig(scheme=scheme, partition=partition,
                           featmap=featmap, epsilon=epsilon)


def random_grids(rng, h, w, d=5, c=4):
    q = rng.standard_normal((h, w, d))
    k = rng.standard_normal((h, w, d))
    v = rng.standard_normal((h, w, c))
    return q, k, v


def point_mass_weights(shape, partition):
    """All weight on group 0 (the query itself), zero tail."""
    groups = num_groups_grid(partition.kind, shape)
    return WeightGrid(head=np.ones((shape.height, shape.width, 1)),
                      hat=np.ones((shape.height, shape.width), dtype=np.int64),
                      merged=np.zeros((shape.height, shape.width)),
                      groups=groups)


# ---------- softmax reference ----------

def test_softmax_single_key_returns_value():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((3, 2))
    k = rng.standard_normal((1, 2))
    v = rng.standard_normal((1, 4))
    out = softmax_attention(q, k, v)
    np.testing.assert_allclose(out, np.broadcast_to(v[0], (3, 4)), atol=1e-12)


def test_softmax_identical_keys_average_values():
    rng = np.random.default_rng(1)
    key = rng.standard_normal(3)
    k = np.stack([key, key])
    v = rng.standard_normal((2, 5))
    out = softmax_attention(rng.standard_normal((4, 3)), k, v)
    np.testing.assert_allclose(out, np.broadcast_to(v.mean(axis=0), (4, 5)),
                               atol=1e-12)


def test_softmax_matches_double_loop():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((5, 3))
    k = rng.standard_normal((7, 3))
    v = rng.standard_normal((7, 2))
    want = np.zeros((5, 2))
    for i in range(5):
        wts = np.exp(q[i] @ k.T)
        want[i] = (wts / wts.sum()) @ v
    np.testing.assert_allclose(softmax_attention(q, k, v), want, atol=1e-12)


def test_softmax_shift_invariance():
    # adding one fixed vector to every key shifts each score row by a
    # constant, which softmax ignores
    rng = np.random.default_rng(3)
    q = rng.standard_normal((4, 3))
    k = rng.standard_normal((6, 3))
    v = rng.standard_normal((6, 2))
    shift = rng.standard_normal(3)
    np.testing.assert_allclose(softmax_attention(q, k + shift, v),
                               softmax_attention(q, k, v), atol=1e-10)


def test_softmax_shape_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        softmax_attention(rng.standard_normal((3, 2)),
                          rng.standard_normal((3, 4)),
                          rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        softmax_attention(rng.standard_normal((3, 2)),
                          rng.standard_normal((4, 2)),
                          rng.standard_normal((3, 2)))


def test_softmax_preserves_float32():
    rng = np.random.default_rng(5)
    out = softmax_attention(rng.standard_normal((3, 2)).astype(np.float32),
                            rng.standard_normal((4, 2)).astype(np.float32),
                            rng.standard_normal((4, 2)).astype(np.float32))
    assert out.dtype == np.float32


# ---------- linearized attention ----------

def test_linearized_single_key_eps_zero_returns_value():
    # seed chosen so every query has a positive feature overlap with the key;
    # a dead ReLU overlap would make the epsilon-free quotient 0/0
    rng = np.random.default_rng(8)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 3, rng)
    q = rng.standard_normal((4, 3))
    k = rng.standard_normal((1, 3))
    v = rng.standard_normal((1, 2))
    out = linearized_attention(q, k, v, fm, epsilon=0.0)
    np.testing.assert_allclose(out, np.broadcast_to(v[0], (4, 2)), atol=1e-12)


def test_linearized_matches_unfactored_form():
    rng = np.random.default_rng(7)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng)
    q = rng.standard_normal((6, 4))
    k = rng.standard_normal((9, 4))
    v = rng.standard_normal((9, 3))
    from ripplegrid.featmap import feature_forward
    score = feature_forward(q, fm) @ feature_forward(k, fm).T   # (N, M)
    want = (score @ v) / (score.sum(axis=1) + DEFAULT_EPSILON)[:, None]
    np.testing.assert_allclose(linearized_attention(q, k, v, fm), want,
                               atol=1e-12)


def test_linearized_key_permutation_invariance():
    rng = np.random.default_rng(8)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng)
    q = rng.standard_normal((5, 4))
    k = rng.standard_normal((8, 4))
    v = rng.standard_normal((8, 3))
    perm = rng.permutation(8)
    np.testing.assert_allclose(linearized_attention(q, k[perm], v[perm], fm),
                               linearized_attention(q, k, v, fm), atol=1e-10)


def test_zero_denominator_raises_at_eps_zero():
    # second layer clamps every feature to ReLU(-1) = 0
    fm = FeatureMapParams(kind=FeatureMapKind.DETERMINISTIC_ADAPTIVE,
                          w1=np.zeros((2, 3)), w2=np.zeros((2, 4)),
                          b2=-np.ones(2))
    rng = np.random.default_rng(10)
    q = rng.standard_normal((4, 3))
    k = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 2))
    with pytest.raises(FloatingPointError):
        linearized_attention(q, k, v, fm, epsilon=0.0)
    grid = (q.reshape(2, 2, 3), k.reshape(2, 2, 3), v.reshape(2, 2, 2))
    cfg = AttentionConfig(
        scheme=WeightScheme(kind=WeightSchemeKind.UNIFORM),
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        featmap=fm, epsilon=0.0)
    with pytest.raises(FloatingPointError):
        ripple_naive(*grid, cfg)


# a NaN stabilizer used to give NaN rows and an infinite one all-zero rows
BAD_EPSILONS = (-1e-9, np.nan, np.inf, -np.inf)


def test_negative_epsilon_rejected():
    rng = np.random.default_rng(11)
    for epsilon in BAD_EPSILONS:
        with pytest.raises(ValueError, match="epsilon must be >= 0 and finite"):
            make_config(WeightSchemeKind.UNIFORM, PartitionKind.UNIT_RING, rng,
                        value_dim=3, epsilon=epsilon)


def test_linearized_forms_reject_negative_epsilon():
    """The linearized entry points take a raw epsilon and refuse a negative
    or non-finite one as the configs do, before any output: at -5 a 3x3
    grid would otherwise divide by negative denominators."""
    rng = np.random.default_rng(19)
    q, k, v = random_grids(rng, 3, 3)
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, q.shape[2], rng)
    flat = [a.reshape(9, -1) for a in (q, k, v)]
    for call in (lambda eps: linearized_grid(q, k, v, fm, epsilon=eps)[0],
                 lambda eps: linearized_attention(*flat, fm, epsilon=eps)):
        for epsilon in (-5.0,) + BAD_EPSILONS:
            with pytest.raises(ValueError, match="epsilon must be >= 0 and finite"):
                call(epsilon)
        assert np.isfinite(call(0.0)).all()


# ---------- grouped attention: degeneracies ----------

def test_single_cell_grid_returns_value():
    rng = np.random.default_rng(12)
    q, k, v = random_grids(rng, 1, 1)
    for kind in ALL_SCHEMES:
        cfg = make_config(kind, PartitionKind.UNIT_RING, rng, v.shape[2],
                          epsilon=0.0)
        np.testing.assert_allclose(ripple_naive(q, k, v, cfg).out, v,
                                   atol=1e-12)
        np.testing.assert_allclose(ripple_dp(q, k, v, cfg).out, v, atol=1e-12)


def test_uniform_weights_equal_linearized():
    # alpha_r = 1/G cancels between numerator and denominator, leaving the
    # global linearized form (at epsilon 0 the cancellation is exact)
    rng = np.random.default_rng(13)
    q, k, v = random_grids(rng, 5, 4)
    cfg = make_config(WeightSchemeKind.UNIFORM, PartitionKind.UNIT_RING, rng,
                      v.shape[2], r_max=2, epsilon=0.0)
    flat = linearized_attention(q.reshape(-1, 5), k.reshape(-1, 5),
                                v.reshape(-1, 4), cfg.featmap, epsilon=0.0)
    want = flat.reshape(5, 4, 4)
    np.testing.assert_allclose(ripple_naive(q, k, v, cfg).out, want, atol=1e-9)
    np.testing.assert_allclose(ripple_dp(q, k, v, cfg).out, want, atol=1e-9)


def test_point_mass_weights_recover_values():
    rng = np.random.default_rng(14)
    q, k, v = random_grids(rng, 4, 5)
    for pk in (PartitionKind.UNIT_RING, PartitionKind.DYADIC):
        # trig features: dense, so the per-cell overlap never lands on zero
        cfg = make_config(WeightSchemeKind.UNIFORM, pk, rng, v.shape[2],
                          epsilon=0.0, featmap_kind=FeatureMapKind.RANDOM_TRIG)
        wg = point_mass_weights(GridShape(4, 5), cfg.partition)
        np.testing.assert_allclose(
            ripple_naive(q, k, v, cfg, weights=wg).out, v, atol=1e-12)
        np.testing.assert_allclose(
            ripple_dp(q, k, v, cfg, weights=wg).out, v, atol=1e-12)


# ---------- dynamic program vs enumeration oracle ----------

# 1xN and Nx1 grids: single-row sweeps, uniform weights that read no window
# (hat 0), and truncated weights cut at the group count
DEGENERATE_SHAPES = ((1, 1), (1, 7), (9, 1), (1, 12))


def test_dp_matches_naive_all_schemes():
    rng = np.random.default_rng(15)
    for kind in ALL_SCHEMES:
        for h, w in ((4, 5), (6, 6)) + DEGENERATE_SHAPES:
            q, k, v = random_grids(rng, h, w)
            cfg = make_config(kind, PartitionKind.UNIT_RING, rng, v.shape[2])
            got = ripple_dp(q, k, v, cfg).out
            want = ripple_naive(q, k, v, cfg).out
            assert np.abs(got - want).max() < 1e-10, kind


def test_dyadic_dp_matches_naive():
    rng = np.random.default_rng(16)
    cases = [(kind, shape)
             for kind in (WeightSchemeKind.UNIFORM, WeightSchemeKind.FIXED_EXPONENTIAL,
                          WeightSchemeKind.LEARNED_SBT)
             for shape in ((5, 7), (8, 8))]
    cases += [(kind, shape) for kind in ALL_SCHEMES for shape in DEGENERATE_SHAPES]
    for kind, (h, w) in cases:
        q, k, v = random_grids(rng, h, w)
        cfg = make_config(kind, PartitionKind.DYADIC, rng, v.shape[2])
        got = ripple_dp(q, k, v, cfg).out
        want = ripple_naive(q, k, v, cfg).out
        assert np.abs(got - want).max() < 1e-10, (kind, h, w)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                       st.tuples(st.integers(1, 12), st.just(1)),
                       st.tuples(st.integers(2, 9), st.integers(2, 9))),
       kind=st.sampled_from([WeightSchemeKind.FIXED_EXPONENTIAL, WeightSchemeKind.LEARNED_SBT,
                             WeightSchemeKind.UNIFORM]),
       partition_kind=st.sampled_from(list(PartitionKind)), r_max=st.integers(1, 14),
       budget=st.sampled_from([1, 20000, sat.BLOCK_BYTES]), seed=st.integers(0, 2**32 - 1))
def test_stream_reads_match_naive(shape, kind, partition_kind, r_max, budget, seed):
    """The forward contracts each table row once with the stacked,
    coefficient-scaled queries of every window corner that reads it; it
    equals the member-by-member oracle on single rows and columns and on
    radii past the grid's side, where the pads are smaller than the radius,
    in one-row chunks of one channel, in short chunks and in one chunk."""
    rng = np.random.default_rng(seed)
    q, k, v = random_grids(rng, *shape)
    cfg = make_config(kind, partition_kind, rng, v.shape[2], r_max=r_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "BLOCK_BYTES", budget)
        got = ripple_dp(q, k, v, cfg).out
    want = ripple_naive(q, k, v, cfg, build_tape=False).out
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def test_grid_shape_validation():
    rng = np.random.default_rng(19)
    cfg = make_config(WeightSchemeKind.UNIFORM, PartitionKind.UNIT_RING, rng, 4)
    q, k, v = random_grids(rng, 3, 4)
    with pytest.raises(ValueError):
        ripple_naive(q[0], k[0], v[0], cfg)
    with pytest.raises(ValueError):
        ripple_naive(q, k[:2], v, cfg)
    with pytest.raises(ValueError):
        ripple_naive(q, k[..., :3], v, cfg)


def linearized_grid_of(q, k, v, cfg):
    return linearized_grid(q, k, v, cfg.featmap)


def test_mismatched_grids_rejected():
    # a (4, 6) key grid against a (6, 4) value grid holds as many tokens, so
    # without the check the linearized form paired them by flat index
    rng = np.random.default_rng(29)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL, PartitionKind.UNIT_RING, rng, 3)
    q, k = (rng.standard_normal((4, 6, 5)) for _ in range(2))
    v = rng.standard_normal((6, 4, 3))
    for fn in (ripple_dp, ripple_naive, linearized_grid_of):
        with pytest.raises(ValueError, match="grids over the same shape"):
            fn(q, k, v, cfg)


def test_weight_grid_for_another_shape_rejected():
    # a weight grid made for a (1, 6) grid used to broadcast silently over
    # (5, 6) inputs and return a (5, 6, 4) output
    rng = np.random.default_rng(32)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL, PartitionKind.UNIT_RING, rng, 4)
    q, k, v = random_grids(rng, 5, 6)
    wg = scheme_weights_grid(cfg.scheme, v[:1], GridShape(1, 6), cfg.partition)
    for fn in (ripple_dp, ripple_naive):
        with pytest.raises(ValueError, match=r"\(1, 6\) grid .* \(5, 6\) token grid"):
            fn(q, k, v, cfg, weights=wg)


def test_two_dimensional_value_grid_rejected():
    # one value per token still needs its channel axis: (H, W, 1), not (H, W)
    rng = np.random.default_rng(31)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL, PartitionKind.UNIT_RING, rng, 1)
    q, k, v = random_grids(rng, 4, 4, c=1)
    for fn in (ripple_dp, ripple_naive, linearized_grid_of):
        with pytest.raises(ValueError, match=r"\(H, W, dim\) grids"):
            fn(q, k, v[..., 0], cfg)


def test_non_finite_inputs_rejected():
    # an inf in k would otherwise turn every output NaN through the prefix
    # table (or the global sums of the linearized forms), and a NaN in q
    # would silently poison its own query
    rng = np.random.default_rng(23)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL, PartitionKind.UNIT_RING,
                      rng, 4)
    q, k, v = random_grids(rng, 5, 5)
    bad_q = q.copy()
    bad_q[2, 3, 1] = np.nan
    bad_k = k.copy()
    bad_k[0, 4, 0] = np.inf
    bad_v = v.copy()
    bad_v[1, 1, 2] = -np.inf

    def flat(q, k, v, cfg):
        return linearized_attention(*(a.reshape(25, -1) for a in (q, k, v)), cfg.featmap)

    def softmax(q, k, v, cfg):
        return softmax_attention(*(a.reshape(25, -1) for a in (q, k, v)))

    for fn in (ripple_dp, ripple_naive, linearized_grid_of, flat, softmax):
        with pytest.raises(ValueError, match="q contains non-finite"):
            fn(bad_q, k, v, cfg)
        with pytest.raises(ValueError, match="k contains non-finite"):
            fn(q, bad_k, v, cfg)
        with pytest.raises(ValueError, match="v contains non-finite"):
            fn(q, k, bad_v, cfg)


def test_query_purity():
    # weights come from the values, so nudging one query can only move the
    # output row at that position
    rng = np.random.default_rng(20)
    q, k, v = random_grids(rng, 6, 6)
    cfg = make_config(WeightSchemeKind.FIXED_EXPONENTIAL,
                      PartitionKind.UNIT_RING, rng, v.shape[2])
    base = ripple_dp(q, k, v, cfg).out
    q2 = q.copy()
    q2[2, 3] += 0.5
    bumped = ripple_dp(q2, k, v, cfg).out
    mask = np.ones((6, 6), dtype=bool)
    mask[2, 3] = False
    np.testing.assert_array_equal(bumped[mask], base[mask])
    assert np.abs(bumped[2, 3] - base[2, 3]).max() > 0


def test_grid_paths_accumulate_float64():
    rng = np.random.default_rng(21)
    q, k, v = (a.astype(np.float32) for a in random_grids(rng, 3, 4))
    cfg = make_config(WeightSchemeKind.UNIFORM, PartitionKind.UNIT_RING, rng, 4)
    res = ripple_dp(q, k, v, cfg)
    assert res.out.dtype == np.float64
    assert res.tape.den.dtype == np.float64


def test_tape_reproduces_output():
    rng = np.random.default_rng(22)
    q, k, v = random_grids(rng, 4, 4)
    cfg = make_config(WeightSchemeKind.LEARNED_SBT, PartitionKind.UNIT_RING,
                      rng, v.shape[2])
    res = ripple_dp(q, k, v, cfg)
    t = res.tape
    # the tape carries a head axis of length 1 after (H, W)
    np.testing.assert_array_equal(t.num[:, :, 0] / t.den[:, :, 0, None], res.out)
    assert t.phi_q.shape == (4, 4, 1, cfg.featmap.out_dim)
    assert t.weights.hat.shape == (4, 4, 1)
    assert np.all(t.den > 0)
    # the tape keeps inputs and the quotient; the backward rebuilds each
    # block's table, so neither the table nor the swept field is stored
    for tape in (t, ripple_naive(q, k, v, cfg).tape):
        assert not hasattr(tape, "sat") and not hasattr(tape, "y")
    assert ripple_naive(q, k, v, cfg, build_tape=False).tape is None


# ---------- per-group softmax reference ----------

def test_softmax_reference_point_mass_recovers_values():
    rng = np.random.default_rng(23)
    q, k, v = random_grids(rng, 4, 4)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=3, tau=0.05)
    wg = point_mass_weights(GridShape(4, 4), partition)
    out = ripple_softmax_reference(q, k, v, wg, partition)
    np.testing.assert_allclose(out, v, atol=1e-12)


def test_softmax_reference_single_cell():
    rng = np.random.default_rng(24)
    q, k, v = random_grids(rng, 1, 1)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05)
    wg = point_mass_weights(GridShape(1, 1), partition)
    np.testing.assert_allclose(
        ripple_softmax_reference(q, k, v, wg, partition), v, atol=1e-12)


def test_softmax_reference_weight_scaling():
    # the reference is linear in the group weights: doubling every alpha
    # doubles the output
    rng = np.random.default_rng(25)
    q, k, v = random_grids(rng, 3, 5)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05)
    wg = scheme_weights_grid(WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
                             v, GridShape(3, 5), partition)
    doubled = WeightGrid(head=2.0 * wg.head, hat=wg.hat,
                         merged=2.0 * wg.merged, groups=wg.groups)
    np.testing.assert_allclose(
        ripple_softmax_reference(q, k, v, doubled, partition),
        2.0 * ripple_softmax_reference(q, k, v, wg, partition), atol=1e-12)


# ---------- multi-head wrapper ----------

def test_multi_head_oracle_path_agrees():
    rng = np.random.default_rng(26)
    params = init_multi_head(rng, model_dim=6, num_heads=2, head_dim=4,
                             r_max=2, scheme_kind=WeightSchemeKind.LEARNED_SBT)
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.LEARNED_SBT)
    x = rng.standard_normal((5, 4, 6))
    fast, _ = multi_head_forward(x, params, config)
    np.testing.assert_allclose(fast, naive_layer(x, params, config), atol=1e-10)


def test_single_head_identity_mix_reduces_to_ripple():
    rng = np.random.default_rng(27)
    params = init_multi_head(rng, model_dim=4, num_heads=1, head_dim=4,
                             r_max=2, scheme_kind=WeightSchemeKind.LEARNED_SBT)
    params = dataclasses.replace(params, w_out=np.eye(4), b_out=np.zeros(4))
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.LEARNED_SBT)
    x = rng.standard_normal((4, 5, 4))
    out, _ = multi_head_forward(x, params, config)
    wq, wk, wv, featmap, stick = head_params(params, 0)
    head_config = AttentionConfig(
        scheme=WeightScheme(kind=config.scheme_kind, params=stick),
        partition=config.partition, featmap=featmap)
    want = ripple_dp(x @ wq.T, x @ wk.T, x @ wv.T, head_config).out
    np.testing.assert_array_equal(out, want)


def test_multi_head_linearized_mode():
    rng = np.random.default_rng(28)
    params = init_multi_head(rng, model_dim=4, num_heads=1, head_dim=4,
                             r_max=2, scheme_kind=WeightSchemeKind.UNIFORM)
    params = dataclasses.replace(params, w_out=np.eye(4), b_out=np.zeros(4))
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.UNIFORM, attention="linearized")
    x = rng.standard_normal((3, 6, 4))
    out, tape = multi_head_forward(x, params, config)
    wq, wk, wv, featmap, _ = head_params(params, 0)
    want, _ = linearized_grid(x @ wq.T, x @ wk.T, x @ wv.T, featmap)
    np.testing.assert_array_equal(out, want)
    assert tape.concat.shape == (3, 6, 4)


def test_multi_head_output_mixes_heads():
    rng = np.random.default_rng(29)
    params = init_multi_head(rng, model_dim=6, num_heads=2, head_dim=3,
                             r_max=2, scheme_kind=WeightSchemeKind.UNIFORM)
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.UNIFORM)
    x = rng.standard_normal((4, 4, 6))
    out, tape = multi_head_forward(x, params, config)
    assert out.shape == (4, 4, 6)
    want = tape.concat @ params.w_out.T + params.b_out
    np.testing.assert_array_equal(out, want)
    assert tape.attn.num.shape == (4, 4, 2, 3)    # both heads ride one stacked pass


@pytest.mark.parametrize("shape", [(16, 6), (4, 4, 5), (2, 4, 4, 6)], ids=str)
def test_multi_head_forward_rejects_bad_input_grid(shape):
    # a token list, a wrong model width and a batch used to fail deep inside
    # the projection or the feature map with messages naming neither
    rng = np.random.default_rng(30)
    params = init_multi_head(rng, model_dim=6, num_heads=2, head_dim=3,
                             r_max=2, scheme_kind=WeightSchemeKind.UNIFORM)
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.UNIFORM)
    with pytest.raises(ValueError, match=r"\(H, W, model_dim\) = \(H, W, 6\)"):
        multi_head_forward(rng.standard_normal(shape), params, config)


def _finite_layer(seed=31):
    rng = np.random.default_rng(seed)
    params = init_multi_head(rng, model_dim=6, num_heads=2, head_dim=3,
                             r_max=2, scheme_kind=WeightSchemeKind.LEARNED_SBT)
    config = MultiHeadConfig(
        partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
        scheme_kind=WeightSchemeKind.LEARNED_SBT)
    return rng.standard_normal((4, 5, 6)), params, config


@pytest.mark.parametrize("name", ["input grid", "w_qkv", "w_out", "b_out"])
def test_multi_head_forward_rejects_non_finite_input_and_parameters(name):
    # a NaN w_out used to come back as NaN outputs with no error
    x, params, config = _finite_layer()
    if name == "input grid":
        x[1, 2, 3] = np.nan
    else:
        bad = getattr(params, name).copy()
        bad.flat[0] = np.inf
        params = dataclasses.replace(params, **{name: bad})
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values"):
        multi_head_forward(x, params, config)


def test_multi_head_forward_reports_a_projection_overflow():
    # finite input whose q, k, v projection overflows used to be rejected
    # with the wording of a NaN in the input
    x, params, config = _finite_layer()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="the [qkv] projection overflowed"):
            multi_head_forward(np.full_like(x, 1e308), params, config)


def test_multi_head_forward_reports_an_output_overflow():
    x, params, config = _finite_layer()
    params = dataclasses.replace(params, w_out=params.w_out * 1e307)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="the layer output overflowed"):
            multi_head_forward(x * 1e3, params, config)


@pytest.mark.parametrize("bad", [dict(attention="linear"), dict(attention="Ripple"),
                                 dict(attention=""), dict(epsilon=-1e-6),
                                 dict(epsilon=np.nan), dict(epsilon=np.inf)], ids=str)
def test_multi_head_config_rejects_bad_fields(bad):
    # an unknown attention name used to run ripple attention, a negative
    # epsilon to flip the sign of small denominators, and a non-finite one
    # to turn every output NaN or zero
    with pytest.raises(ValueError, match="must be"):
        MultiHeadConfig(partition=PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05),
                        scheme_kind=WeightSchemeKind.UNIFORM, **bad)


@pytest.mark.parametrize("entry", ["ripple_dp", "ripple_naive", "multi_head_forward"])
@pytest.mark.parametrize("kind", LEARNED_KINDS, ids=lambda kind: kind.value)
def test_too_few_stick_units_rejected(kind, entry):
    # four units under r_max 5 used to fail with numpy's "operands could not
    # be broadcast together"
    rng = np.random.default_rng(33)
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=5, tau=0.05)
    if entry == "multi_head_forward":
        params = init_multi_head(rng, model_dim=6, num_heads=2, head_dim=3, r_max=4,
                                 scheme_kind=kind)
        args = (rng.standard_normal((5, 5, 6)), params,
                MultiHeadConfig(partition=partition, scheme_kind=kind))
        call = multi_head_forward
    else:
        cfg = make_config(kind, PartitionKind.UNIT_RING, rng, value_dim=4, r_max=4)
        args = random_grids(rng, 5, 5) + (dataclasses.replace(cfg, partition=partition),)
        call = {"ripple_dp": ripple_dp, "ripple_naive": ripple_naive}[entry]
    with pytest.raises(ValueError, match="scheme has 4 stick units, r_max=5 needs at least"):
        call(*args)


def _misshapen(name, params):
    """``params`` with the array ``name`` one of the wrong shapes."""
    fm, stick = params.featmap, params.stick
    if name == "featmap.w1":        # one head's map, no head axis
        return dataclasses.replace(params, featmap=FeatureMapParams(fm.kind, fm.w1[0],
                                                                    fm.w2[0], fm.b2[0]))
    if name == "stick.unit_embeddings":     # a 3-head stick on a 2-head layer
        return dataclasses.replace(params, stick=StickParams(
            np.concatenate((stick.unit_embeddings, stick.unit_embeddings[:1])),
            np.concatenate((stick.value_projection, stick.value_projection[:1]))))
    if name == "stick.value_projection":    # projects values of 2, not head_dim 3
        return dataclasses.replace(params, stick=StickParams(
            stick.unit_embeddings, stick.value_projection[..., :2]))
    short = {"w_qkv": params.w_qkv[:-3], "w_out": params.w_out[:, :-1],
             "b_out": params.b_out[:-1]}
    return dataclasses.replace(params, **{name: short[name]})


@pytest.mark.parametrize("name", ["featmap.w1", "w_qkv", "w_out", "b_out",
                                  "stick.unit_embeddings", "stick.value_projection"])
def test_multi_head_params_reject_mismatched_shapes(name):
    # a 3-head stick on a 2-head layer used to fail with "cannot reshape
    # array of size 200 into shape (3,4)", and a wrong w_out with a matmul
    # gufunc error
    _, params, _ = _finite_layer()
    with pytest.raises(ValueError, match=f"^{name} has shape"):
        _misshapen(name, params)
