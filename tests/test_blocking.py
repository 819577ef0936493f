"""The banded sweep and its backward, fuzzed over the band's byte budget.

ripple_dp must equal the enumeration oracle whatever the strips and channel
blocks are, and ripple_vjp must give the same gradients and the same fetch
count under every budget: one strip over the whole grid, one-row strips,
strips shorter than the widest window's radius, single-channel blocks, and
equal blocks with a narrower last one. The backward plans its own strips
and blocks, since its band also keeps the token adjoint's rows, and some
budgets give it one-row strips and strips shorter than the radius.
"""
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripplegrid import attention
from ripplegrid.attention import (AttentionConfig, release_kept_buffers, ripple_dp,
                                  ripple_naive)
from ripplegrid.featmap import FeatureMapKind, init_feature_map
from ripplegrid.grad import ripple_vjp
from ripplegrid.sat import COLUMN_BLOCK, fetch_count, reset_fetch_count
from ripplegrid.vicinal import GridShape, PartitionKind, PartitionScheme, group_span
from ripplegrid.weights import (LEARNED_KINDS, StickParams, WeightScheme, WeightSchemeKind,
                                scheme_weights_grid)

FEATURES = 5      # phi width Dp: odd, so blocks of two leave a last block of one
VALUES = 3


def sweep_radii(cfg, v):
    """The window radii a forward and its backward read."""
    hat = int(scheme_weights_grid(cfg.scheme, v[:, :, None], GridShape(*v.shape[:2]),
                                  cfg.partition).hat.max())
    return [group_span(cfg.partition.kind, g)[1] for g in range(1, hat)]


def costs(h, w, radii, heads, width, backward):
    """(shared bytes, bytes per strip row) of a block of ``width`` channels,
    as band_plan counts them: the band's rows and the table build's mask
    rows in both passes; the window pairs and their products in the
    forward; the per-window vectors, the token adjoint's rows and the
    field's in the backward."""
    radius = max(radii, default=0)
    ph, pw = min(radius, h - 1), min(radius, w - 1)
    margin, span = 2 * ph + 1, 2 * pw + 1
    lanes = heads * width
    band_row = (w + span) * lanes * (VALUES + 1) * 8
    mask_row = lanes * min(COLUMN_BLOCK, w) ** 2 * 8
    if backward:
        shared = (2 * margin + 1) * band_row
        row = 3 * band_row + w * lanes * (len(radii) + 2) * 8
    else:
        shared = margin * band_row
        row = band_row + ((w + 2 * span) * lanes + (w + span) * heads * 2 * (VALUES + 1)) * 8
    return shared + ph * mask_row, row + mask_row


def fitted(budget, h, w, radii, heads, backward):
    """The plan a budget must give a pass: the fewest equal channel blocks
    (the last one may be narrower) whose shared rows and min(max(ph, 1), h)
    strip rows fit, then strips as tall as the rest allows, but at least
    one row and at most the grid."""
    ph = min(max(radii, default=0), h - 1)
    floor = min(max(ph, 1), h)
    for count in range(1, FEATURES + 1):
        width = -(-FEATURES // count)
        shared, row = costs(h, w, radii, heads, width, backward)
        if shared + floor * row <= budget:
            break
    return -(-FEATURES // width), min(max((budget - shared) // row, 1), h)


def budgets(h, w, radii, heads=1):
    """BLOCK_BYTES values, each with the (channel blocks, strip height) it
    must give the forward and the backward: one strip over the whole grid,
    blocks of one channel, blocks of two with a last one of one, and, sized
    for each pass, one-row strips and strips shorter than the radius (one
    row when it is 0 or 1). A pass splits its channels until its blocks
    fit strips as tall as the radius, so its one-row and short strips come
    with blocks of one channel. The backward's band keeps the token
    adjoint's band, with a carry row, and the strip's field beside the
    table's, so on its one-row and short strips an adjoint row near the
    top of the grid is finished only on a later strip."""
    ph = min(max(radii, default=0), h - 1)
    short = min(max(ph - 1, 1), h)
    one, back_one = (costs(h, w, radii, heads, 1, backward) for backward in (False, True))
    ragged = costs(h, w, radii, heads, 2, False)
    sizes = {"whole": 1 << 40, "single": 1,
             "ragged": ragged[0] + min(max(ph, 1), h) * ragged[1],
             "one-row": one[0] + one[1], "short": one[0] + short * one[1],
             "back-one-row": back_one[0] + back_one[1],
             "back-short": back_one[0] + short * back_one[1]}
    forward = {"whole": (1, h), "single": (FEATURES, 1), "one-row": (FEATURES, 1),
               "short": (FEATURES, short)}
    backward = {"whole": (1, h), "single": (FEATURES, 1), "back-one-row": (FEATURES, 1),
                "back-short": (FEATURES, short)}
    plans = {name: ((budget,) + (forward.get(name) or fitted(budget, h, w, radii, heads, False))
                    + (backward.get(name) or fitted(budget, h, w, radii, heads, True),))
             for name, budget in sizes.items()}
    assert plans["ragged"][1] == 3      # blocks of 2, 2 and 1 channels
    return plans


def rel_error(got, want):
    return float(np.abs(got - want).max() / max(float(np.abs(want).max()), 1e-300))


def run(q, k, v, cfg, upstream, budget, blocks, height, backward):
    """Forward, backward and the fetches they counted, under one budget
    whose forward plan is (blocks, height) and backward plan ``backward``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attention, "BLOCK_BYTES", budget)
        for planned, want in ((False, (blocks, height)), (True, backward)):
            plan = attention.band_plan(q.shape[:2] + (1, FEATURES, VALUES + 1),
                                       sweep_radii(cfg, v), planned)
            assert (len(plan[0]), plan[1]) == want, planned
        reset_fetch_count()
        res = ripple_dp(q, k, v, cfg)
        forward = fetch_count()
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12),
       kind=st.sampled_from(list(WeightSchemeKind)),
       partition_kind=st.sampled_from(list(PartitionKind)),
       r_max=st.integers(1, 14),
       epsilon=st.sampled_from([0.0, 1e-6, 1e-3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_banded_core_matches_oracle_under_every_budget(
        h, w, kind, partition_kind, r_max, epsilon, seed):
    rng = np.random.default_rng(seed)
    q, k = (rng.standard_normal((h, w, 4)) for _ in range(2))
    v = rng.standard_normal((h, w, VALUES))
    stick = None
    if kind in LEARNED_KINDS:
        stick = StickParams(unit_embeddings=rng.standard_normal((r_max, 3)),
                            value_projection=rng.standard_normal((3, VALUES)))
    cfg = AttentionConfig(
        scheme=WeightScheme(kind=kind, params=stick),
        partition=PartitionScheme(kind=partition_kind, r_max=r_max, tau=0.05),
        featmap=init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, 4, rng,
                                 out_dim=FEATURES),
        epsilon=epsilon)
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
        # a fetch is one position per radius per pass, not per block or strip
        assert fetches == one_fetches, (name, fetches, one_fetches)
        for key, got in flat_grads(grads).items():
            assert got.shape == reference[key].shape
            err = float(np.abs(got - reference[key]).max(initial=0.0))
            assert err <= 1e-12 * scale, (name, key, err, scale)


@pytest.mark.parametrize("field, radii, backward, plan", [
    ((48, 48, 1, 32, 33), [1, 2, 3], False, (1, 32, 13)),    # ring-fwd-48
    ((32, 32, 1, 32, 33), [1, 3, 7], False, (1, 32, 9)),     # dyadic-fwdbwd-32
    ((32, 32, 1, 32, 33), [1, 3, 7], True, (3, 11, 14)),
    ((8, 8, 2, 8, 9), [1, 2], False, (1, 8, 8)),             # toy-train-8
    ((8, 8, 2, 8, 9), [1, 2], True, (1, 8, 8)),
    ((128, 128, 1, 32, 33), [1, 3, 7], False, (3, 11, 8)),   # past the workloads
    ((128, 128, 1, 32, 33), [1, 3, 7], True, (7, 5, 7)),
])
def test_workload_plans(field, radii, backward, plan):
    """The benchmark workloads' plans at the default BLOCK_BYTES, as
    (channel blocks, channels in the first, strip height); the 128x128
    dyadic plans show the strip floor of ph rows at work."""
    blocks, height, _ = attention.band_plan(field, radii, backward)
    assert (len(blocks), blocks[0].stop - blocks[0].start, height) == plan


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


def test_kept_buffers_carry_nothing_between_passes():
    """Passes over other grids and budgets in between leave a pass's
    output and gradients bit for bit as they were on cold buffers."""
    q, k, v, cfg, upstream = small_case(9, 1)
    release_kept_buffers()
    cold = run(q, k, v, cfg, upstream, *budgets(9, 9, sweep_radii(cfg, v))["short"])
    for side in (12, 4):
        other = small_case(side, side)
        run(*other, *budgets(side, side, sweep_radii(other[3], other[2]))["whole"])
    warm = run(q, k, v, cfg, upstream, *budgets(9, 9, sweep_radii(cfg, v))["short"])
    np.testing.assert_array_equal(warm[0], cold[0])
    for key, got in flat_grads(warm[1]).items():
        np.testing.assert_array_equal(got, flat_grads(cold[1])[key])


def test_threads_keep_their_own_block_buffers():
    q, k, v, cfg, upstream = small_case(10, 2)
    want = ripple_naive(q, k, v, cfg, build_tape=False).out
    release_kept_buffers()
    got = {}
    worker = threading.Thread(target=lambda: got.update(out=ripple_dp(q, k, v, cfg).out))
    worker.start()
    worker.join()
    assert rel_error(got["out"], want) <= 1e-8
    assert not vars(attention._kept)     # the worker's buffers were its own


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 11), w=st.integers(1, 11), radius=st.integers(0, 13),
       budget=st.sampled_from(["whole", "one-row", "short", "single", "ragged",
                               "back-one-row", "back-short"]),
       backward=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_every_band_holds_its_rows_of_the_padded_table(h, w, radius, budget, backward, seed):
    """Each strip's band equals its rows of the whole table padded as
    sat.window_corners reads it: rows moved up from the strip before,
    rows built on a carry and rows past the grid alike. The strips and
    blocks are the ones the budget names for the pass. Only the backward
    gets an adjoint band, one row taller than the band, and a field of its
    strip's rows, in the same buffer: the adjoint is zero at each block's
    start, and later holds the carry and shared rows of the strip before
    and zeros, whatever the caller wrote into it and into the field."""
    rng = np.random.default_rng(seed)
    pk = rng.standard_normal((h, w, 2, FEATURES))
    streams = rng.standard_normal((h, w, 2, VALUES + 1))
    table = np.einsum("...d,...c->...dc", pk, streams).cumsum(0).cumsum(1)
    with pytest.MonkeyPatch.context() as mp:
        radii = list(range(1, radius + 1))
        nbytes, *plans = budgets(h, w, radii, heads=2)[budget]
        blocks, height = plans[2] if backward else plans[:2]
        mp.setattr(attention, "BLOCK_BYTES", nbytes)
        covered = {}
        for blk, rows, band, (ph, pw), adjoint, field in attention.table_bands(
                pk, streams, radii, backward):
            rest = ((0, 0),) * 3
            edged = np.pad(table[..., blk, :], ((0, ph), (0, pw)) + rest, mode="edge")
            full = np.pad(edged, ((ph + 1, 0), (pw + 1, 0)) + rest)
            np.testing.assert_allclose(band, full[rows.start:rows.stop + 2 * ph + 1],
                                       rtol=1e-12, atol=1e-12)
            if not backward:
                assert adjoint is None and field is None
            else:
                assert adjoint.shape == (len(band) + 1,) + band.shape[1:]
                assert field.shape == (rows.stop - rows.start, w) + band.shape[2:]
                moved = 2 * ph + 2 if rows.start else 0
                if moved:
                    np.testing.assert_array_equal(adjoint[:moved],
                                                  written[height:height + moved])
                assert not adjoint[moved:].any()
                adjoint[:] = rng.standard_normal(adjoint.shape)
                field[:] = rng.standard_normal(field.shape)
                written = adjoint.copy()
            covered.setdefault(blk.start, []).append((rows.start, rows.stop))
    assert len(covered) == blocks
    for strips in covered.values():     # the strips tile the grid's rows in order
        assert [a for a, _ in strips] == [0] + [b for _, b in strips[:-1]]
        assert strips[-1][1] == h
        assert all(b - a == height for a, b in strips[:-1]) and strips[-1][1] - strips[-1][0] <= height
