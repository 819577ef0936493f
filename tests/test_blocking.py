"""The streamed sweep and its backward, fuzzed over the byte budget.

ripple_dp must equal the enumeration oracle whatever the chunks are, and
ripple_vjp must give the same gradients and the same fetch count under
every budget: one chunk over every row a pass walks, one-row chunks, and
chunks shorter than the widest window's reach. Every chunk holds all
channels, so each pass walks the table once. The backward plans its own
chunks, since it also keeps the token adjoint's rows, the stacked
cotangents and the z rows of the queries its chunks reach.
"""
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripplegrid import sat
from ripplegrid.attention import (AttentionConfig, MultiHeadConfig, init_multi_head,
                                  multi_head_forward, ripple_dp, ripple_naive)
from ripplegrid.featmap import FeatureMapKind, init_feature_map
from ripplegrid.grad import _attend_vjp, ripple_vjp
from ripplegrid.reference import grad_pixels_reference
from ripplegrid.sat import fetch_count, release_kept_buffers, reset_fetch_count
from ripplegrid.toymodel import (ToyModelConfig, init_model, loss_and_grads,
                                 make_local_majority_batch)
from ripplegrid.vicinal import GridShape, PartitionKind, PartitionScheme, group_span
from ripplegrid.weights import (LEARNED_KINDS, StickParams, WeightGrid, WeightScheme,
                                WeightSchemeKind, scheme_weights_grid)
from stacked import naive_layer

FEATURES = 5      # phi width Dp
VALUES = 3


def sweep_radii(cfg, v):
    """The window radii a forward and its backward read."""
    hat = int(scheme_weights_grid(cfg.scheme, v[:, :, None], GridShape(*v.shape[:2]),
                                  cfg.partition).hat.max())
    return [group_span(cfg.partition.kind, g)[1] for g in range(1, hat)]


def walked(h, radii, backward):
    """Padded rows a pass walks: from the first row inside the grid in a
    forward, all of them in a backward."""
    ph = min(max(radii, default=0), h - 1)
    return h + ph + backward * (ph + 1)


def kept_for(h, w, radii, heads, rows, backward, features=FEATURES):
    """Bytes a pass keeps for chunks of ``rows`` rows, as the plan charges them."""
    radius = max(radii, default=0)
    pads = (min(radius, h - 1), min(radius, w - 1))
    shapes = sat._chunk_shapes((h, w, heads, features, VALUES + 1), len(radii), pads, rows,
                               backward)
    return 8 * sum(math.prod(s) for s in shapes.values())


def fitted(budget, h, w, radii, heads, backward):
    """The chunk rows a budget must give a pass: as many as fit beside the
    carry rows, but at least one and at most the rows the pass walks."""
    shared = kept_for(h, w, radii, heads, 0, backward)
    row = kept_for(h, w, radii, heads, 1, backward) - shared
    return min(max((budget - shared) // row, 1), walked(h, radii, backward))


def budgets(h, w, radii, heads=1):
    """BLOCK_BYTES values, each with the chunk rows it must give the
    forward and the backward: one chunk over every row, one-row chunks
    under a 1-byte budget, one-row and two-row chunks sized for each pass,
    and chunks shorter than the 2 ph + 1 rows over which a query's reads
    spread, so that its z rows and its adjoint rows span chunks."""
    ph = min(max(radii, default=0), h - 1)
    short = min(max(2 * ph, 1), walked(h, radii, True))

    def full(rows, backward):
        return kept_for(h, w, radii, heads, rows, backward)
    sizes = {"whole": 1 << 40, "single": 1,
             "one-row": full(1, False), "two-row": full(2, False),
             "back-one-row": full(1, True), "back-short": full(short, True)}
    forward = {"whole": walked(h, radii, False), "single": 1, "one-row": 1}
    backward = {"whole": walked(h, radii, True), "single": 1, "back-one-row": 1,
                "back-short": short}
    return {name: (budget, forward.get(name) or fitted(budget, h, w, radii, heads, False),
                   backward.get(name) or fitted(budget, h, w, radii, heads, True))
            for name, budget in sizes.items()}


def rel_error(got, want):
    return float(np.abs(got - want).max() / max(float(np.abs(want).max()), 1e-300))


def run(q, k, v, cfg, upstream, budget, height, backward, between=lambda: None):
    """Forward, backward and the fetches they counted, under one budget
    whose forward chunks are ``height`` rows and backward ones ``backward``,
    calling ``between`` after the forward."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "BLOCK_BYTES", budget)
        for planned, want in ((False, height), (True, backward)):
            rows, _ = sat.stream_plan(q.shape[:2] + (1, FEATURES, VALUES + 1),
                                      sweep_radii(cfg, v), planned)
            assert rows == want, planned
        reset_fetch_count()
        res = ripple_dp(q, k, v, cfg)
        forward = fetch_count()
        between()
        grads = ripple_vjp(res.tape, upstream)
        total = fetch_count()
        reset_fetch_count()
    return res.out, grads, (forward, total)


def flat_grads(grads):
    named = {"q": grads.grad_q, "k": grads.grad_k, "v": grads.grad_v,
             "alpha": grads.grad_alpha_head, "merged": grads.grad_merged,
             "w1": grads.featmap.w1, "w2": grads.featmap.w2, "b2": grads.featmap.b2}
    if grads.stick is not None:
        named["units"] = grads.stick.unit_embeddings
        named["projection"] = grads.stick.value_projection
    return named


def random_config(rng, kind, partition_kind, r_max, epsilon=1e-6):
    stick = None
    if kind in LEARNED_KINDS:
        stick = StickParams(unit_embeddings=rng.standard_normal((r_max, 3)),
                            value_projection=rng.standard_normal((3, VALUES)))
    return AttentionConfig(
        scheme=WeightScheme(kind=kind, params=stick),
        partition=PartitionScheme(kind=partition_kind, r_max=r_max, tau=0.05),
        featmap=init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng,
                                 out_dim=FEATURES),
        epsilon=epsilon)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12),
       kind=st.sampled_from(list(WeightSchemeKind)),
       partition_kind=st.sampled_from(list(PartitionKind)),
       r_max=st.integers(1, 14),
       epsilon=st.sampled_from([0.0, 1e-6, 1e-3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_core_matches_oracle_under_every_budget(
        h, w, kind, partition_kind, r_max, epsilon, seed):
    rng = np.random.default_rng(seed)
    q, k = (rng.standard_normal((h, w, 4)) for _ in range(2))
    v = rng.standard_normal((h, w, VALUES))
    cfg = random_config(rng, kind, partition_kind, r_max, epsilon)
    upstream = rng.standard_normal((h, w, VALUES))
    try:
        want = ripple_naive(q, k, v, cfg, build_tape=False).out
    except FloatingPointError:
        # at epsilon 0 a query whose features all clamp to zero has no
        # denominator; every budget must refuse it the same way
        for size in budgets(h, w, sweep_radii(cfg, v)).values():
            with pytest.raises(FloatingPointError):
                run(q, k, v, cfg, upstream, *size)
        return

    results = {name: run(q, k, v, cfg, upstream, *size)
               for name, size in budgets(h, w, sweep_radii(cfg, v)).items()}
    _, one_grads, one_fetches = results["whole"]
    reference = flat_grads(one_grads)
    # gradients are compared relative to the largest entry of any of them:
    # some are zero in exact arithmetic (a 1x1 grid's output does not depend
    # on q), and their rounding residue has no scale of its own
    scale = max(float(np.abs(g).max(initial=0.0)) for g in reference.values())
    for name, (out, grads, fetches) in results.items():
        assert rel_error(out, want) <= 1e-8, name
        # a fetch is one position per radius per pass, not per chunk
        assert fetches == one_fetches, (name, fetches, one_fetches)
        for key, got in flat_grads(grads).items():
            assert got.shape == reference[key].shape
            err = float(np.abs(got - reference[key]).max(initial=0.0))
            assert err <= 1e-12 * scale, (name, key, err, scale)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                       st.tuples(st.integers(1, 12), st.just(1)),
                       st.tuples(st.integers(2, 7), st.integers(2, 7))),
       heads=st.integers(1, 3), partition_kind=st.sampled_from(list(PartitionKind)),
       r_max=st.integers(1, 14), budget=st.sampled_from([1, 6000, 40000, 1 << 40]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stream_matches_oracles_in_small_chunks(shape, heads, partition_kind, r_max, budget,
                                                seed):
    """A layer of 1-3 stacked heads on single rows, single columns and
    small grids, with radii past the grid's side, under budgets that force
    one-row chunks, short chunks and one chunk:
    its output is the per-head enumeration oracle's, and the token
    gradient of v is the brute-force scatter over group members'."""
    rng = np.random.default_rng(seed)
    kind = WeightSchemeKind.FIXED_EXPONENTIAL      # v's gradient is the scatter's alone
    params = init_multi_head(rng, model_dim=4, num_heads=heads, head_dim=3, r_max=r_max,
                             scheme_kind=kind)
    config = MultiHeadConfig(partition=PartitionScheme(partition_kind, r_max, 0.05),
                             scheme_kind=kind, epsilon=1e-3)
    x = rng.standard_normal(shape + (4,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "BLOCK_BYTES", budget)
        out, tape = multi_head_forward(x, params, config)
        attn = tape.attn
        gboth = rng.standard_normal(attn.num.shape[:3] + (attn.num.shape[3] + 1,))
        grad_v = _attend_vjp(attn, gboth).grad_v
    assert rel_error(out, naive_layer(x, params, config)) <= 1e-8
    wg = attn.weights
    for hd in range(heads):
        head = WeightGrid(wg.head[:, :, hd], wg.hat[:, :, hd], wg.merged[:, :, hd],
                          wg.groups[:, :, hd])
        field = attn.phi_q[:, :, hd, :, None] * gboth[:, :, hd, None, :-1]
        want = np.einsum("hwd,hwdc->hwc", attn.phi_k[:, :, hd],
                         grad_pixels_reference(head, field, config.partition))
        assert np.abs(grad_v[:, :, hd] - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("field, radii, backward, rows", [
    ((48, 48, 1, 32, 33), [1, 2, 3], False, 12),     # ring-fwd-48
    ((32, 32, 1, 32, 33), [1, 3, 7], False, 15),     # dyadic-fwdbwd-32
    ((32, 32, 1, 32, 33), [1, 3, 7], True, 7),
    ((8, 8, 2, 8, 9), [1, 2], False, 10),            # toy-train-8: one chunk
    ((8, 8, 2, 8, 9), [1, 2], True, 13),
    ((128, 128, 1, 32, 33), [1, 3, 7], False, 3),    # past the workloads
    ((128, 128, 1, 32, 33), [1, 3, 7], True, 1),
    ((56, 56, 12, 64, 65), [1, 2, 3], False, 1),     # wide: one chunk row is past the budget
    ((56, 56, 12, 64, 65), [1, 2, 3], True, 1),
])
def test_workload_plans(field, radii, backward, rows):
    """The benchmark workloads' plans at the default BLOCK_BYTES, as chunk
    rows: the toy's passes each run as one chunk of every row they walk.
    Every pass walks the table once at full channel width, so where one
    chunk row is past the budget (12 heads of 64 at 56x56) it runs one-row
    chunks, one walk of its H + ph or H + 2 ph + 1 rows."""
    assert sat.stream_plan(field, radii, backward) == (rows, (max(radii),) * 2)


def small_case(side, seed):
    rng = np.random.default_rng(seed)
    q, k = (rng.standard_normal((side, side, 4)) for _ in range(2))
    v = rng.standard_normal((side, side, VALUES))
    cfg = AttentionConfig(
        scheme=WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
        partition=PartitionScheme(kind=PartitionKind.DYADIC, r_max=4, tau=0.05),
        featmap=init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng,
                                 out_dim=FEATURES))
    return q, k, v, cfg, rng.standard_normal((side, side, VALUES))


def fill_kept_buffers(value):
    for buf in vars(sat._kept).values():
        buf.fill(value)


def toy_step():
    """The loss and gradients of one toy step, batch 2, at the default config."""
    config = ToyModelConfig()
    imgs, labels = make_local_majority_batch(np.random.default_rng(3), 2,
                                             GridShape(config.height, config.width))
    loss, grads, _ = loss_and_grads(imgs, labels, init_model(config, seed=0), config)
    return loss, grads


def test_kept_buffers_carry_nothing_between_passes():
    """Passes over other grids and budgets in between, and kept buffers
    filled with nan and then with inf before every pass, leave a pass's
    output and gradients, and a toy step's loss and gradients, bit for bit
    as they were on cold buffers."""
    q, k, v, cfg, upstream = small_case(9, 1)
    plan = budgets(9, 9, sweep_radii(cfg, v))["back-short"]
    release_kept_buffers()
    cold = run(q, k, v, cfg, upstream, *plan)
    release_kept_buffers()
    cold_loss, cold_grads = toy_step()
    for value in (np.nan, np.inf):
        for side in (12, 4):
            other = small_case(side, side)
            run(*other, *budgets(side, side, sweep_radii(other[3], other[2]))["whole"])
        fill_kept_buffers(value)
        warm = run(q, k, v, cfg, upstream, *plan, between=lambda: fill_kept_buffers(value))
        np.testing.assert_array_equal(warm[0], cold[0])
        for key, got in flat_grads(warm[1]).items():
            np.testing.assert_array_equal(got, flat_grads(cold[1])[key])
        fill_kept_buffers(value)
        loss, grads = toy_step()
        assert loss == cold_loss, value
        for name, got in grads.items():
            np.testing.assert_array_equal(got, cold_grads[name], err_msg=name)


def test_threads_keep_their_own_block_buffers():
    q, k, v, cfg, upstream = small_case(10, 2)
    want = ripple_naive(q, k, v, cfg, build_tape=False).out
    release_kept_buffers()
    got = {}
    worker = threading.Thread(target=lambda: got.update(out=ripple_dp(q, k, v, cfg).out))
    worker.start()
    worker.join()
    assert rel_error(got["out"], want) <= 1e-8
    assert not vars(sat._kept)     # the worker's buffers were its own


def kept_bytes():
    """Bytes of the thread's kept buffers, but the forward's grid-sized "part"."""
    return sum(a.nbytes for name, a in vars(sat._kept).items() if name != "part")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12),
       kind=st.sampled_from(list(WeightSchemeKind)),
       partition_kind=st.sampled_from(list(PartitionKind)), r_max=st.integers(1, 14),
       budget=st.sampled_from(["whole", "one-row", "two-row", "single", "back-one-row",
                               "back-short"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kept_buffers_fit_the_budget(h, w, kind, partition_kind, r_max, budget, seed):
    """What a pass keeps, from released buffers, is what stream_plan
    charges it: within BLOCK_BYTES whenever its full-width carry rows and
    one chunk row fit, for a forward and for a backward alike."""
    rng = np.random.default_rng(seed)
    q, k = (rng.standard_normal((h, w, 4)) for _ in range(2))
    v = rng.standard_normal((h, w, VALUES))
    cfg = random_config(rng, kind, partition_kind, r_max)
    radii = sweep_radii(cfg, v)
    nbytes = budgets(h, w, radii)[budget][0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "BLOCK_BYTES", nbytes)
        release_kept_buffers()
        res = ripple_dp(q, k, v, cfg)
        kept = {False: kept_bytes()}
        release_kept_buffers()
        ripple_vjp(res.tape, rng.standard_normal((h, w, VALUES)))
        kept[True] = kept_bytes()
    for backward, used in kept.items():
        if kept_for(h, w, radii, 1, 1, backward) <= nbytes:     # the plan is above its floor
            assert used <= nbytes, (backward, used, nbytes)


def padded_table(pk, streams, pads):
    """The whole table of pk (x) streams, padded as the stream reads it:
    zeros before the grid, its last row and column repeated past it."""
    ph, pw = pads
    table = np.einsum("...d,...c->...dc", pk, streams).cumsum(0).cumsum(1)
    rest = ((0, 0),) * (table.ndim - 2)
    edged = np.pad(table, ((0, ph), (0, pw)) + rest, mode="edge")
    return np.pad(edged, ((ph + 1, 0), (pw + 1, 0)) + rest)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 11), w=st.integers(1, 11), radius=st.integers(0, 13),
       budget=st.sampled_from(["whole", "one-row", "two-row", "single", "back-one-row",
                               "back-short"]),
       backward=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_every_chunk_holds_its_rows_of_the_padded_table(h, w, radius, budget, backward, seed):
    """Each chunk holds its rows of the whole padded table, from the first
    column inside the grid: the carry row above the chunk (above the first
    row inside the grid, in a backward's first chunks), rows built on it
    and, from ``past`` on, the grid's last row, which is read in place of
    the rows past the grid. Whatever a caller writes into the stacked
    operands and products between chunks, the next chunk's table is the
    same. The chunks are the ones the budget names for the pass, and they
    tile the rows the pass walks in order, once."""
    rng = np.random.default_rng(seed)
    pk = rng.standard_normal((h, w, 2, FEATURES))
    streams = rng.standard_normal((h, w, 2, VALUES + 1))
    radii = list(range(1, radius + 1))
    nbytes, *plans = budgets(h, w, radii, heads=2)[budget]
    height = plans[backward]
    chunks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sat, "BLOCK_BYTES", nbytes)
        for top, stop, past, (ph, pw), bufs in sat._chunks(pk, streams, radii, backward):
            full = padded_table(pk, streams, (ph, pw))[:, pw + 1:]
            table, lo = bufs["table"], min(max(top - 1, ph), past - 1)
            assert past == min(max(h + ph + 1, top), stop)
            np.testing.assert_allclose(table[1 + lo - top:1 + past - top], full[lo:past],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(np.broadcast_to(table[past - top], full[past:stop].shape),
                                       full[past:stop], rtol=1e-12, atol=1e-12)
            for name in ("stacked", "products", "scaled"):
                bufs[name][...] = rng.standard_normal(bufs[name].shape)
            chunks.append((top, stop))
    first = 0 if backward else min(max(radii, default=0), h - 1) + 1
    assert [a for a, _ in chunks] == [first] + [b for _, b in chunks[:-1]]
    assert chunks[-1][1] == first + walked(h, radii, backward)
    assert all(b - a == height for a, b in chunks[:-1])
    assert chunks[-1][1] - chunks[-1][0] <= height
