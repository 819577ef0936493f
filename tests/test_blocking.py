"""The channel-blocked sweep and its backward, fuzzed.

ripple_dp must equal the enumeration oracle whatever the channel blocks
are, and ripple_vjp must give the same gradients and the same fetch count
under every block size: one block, single-channel blocks, and equal blocks
with a narrower last one.
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
from ripplegrid.sat import fetch_count, reset_fetch_count
from ripplegrid.vicinal import PartitionKind, PartitionScheme
from ripplegrid.weights import LEARNED_KINDS, StickParams, WeightScheme, WeightSchemeKind

FEATURES = 5      # phi width Dp: odd, so blocks of two leave a last block of one
VALUES = 3


def block_sizes(h, w):
    """BLOCK_BYTES values, each with the block count it must give: one
    block, blocks of one channel, and blocks of two with a last one of one."""
    channel = h * w * (VALUES + 1) * 8
    return {"one": (channel * FEATURES, 1), "single": (1, FEATURES),
            "ragged": (2 * channel, 3)}


def rel_error(got, want):
    return float(np.abs(got - want).max() / max(float(np.abs(want).max()), 1e-300))


def run(q, k, v, cfg, upstream, block_bytes, blocks):
    """Forward, backward and the fetches they counted, under one block size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attention, "BLOCK_BYTES", block_bytes)
        assert len(attention.channel_blocks(q.shape[:2] + (FEATURES, VALUES + 1))) == blocks
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
def test_blocked_core_matches_oracle_under_every_block_size(
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
        # denominator; every block size must refuse it the same way
        for size in block_sizes(h, w).values():
            with pytest.raises(FloatingPointError):
                run(q, k, v, cfg, upstream, *size)
        return

    results = {name: run(q, k, v, cfg, upstream, *size)
               for name, size in block_sizes(h, w).items()}
    _, one_grads, one_fetches = results["one"]
    reference = flat_grads(one_grads)
    # gradients are compared relative to the largest entry of any of them:
    # some are zero in exact arithmetic (a 1x1 grid's output does not depend
    # on q), and their rounding residue has no scale of its own
    scale = max(float(np.abs(g).max(initial=0.0)) for g in reference.values())
    for name, (out, grads, fetches) in results.items():
        assert rel_error(out, want) <= 1e-8, name
        # a fetch is one position per radius per pass, not per block
        assert fetches == one_fetches, (name, fetches, one_fetches)
        for key, got in flat_grads(grads).items():
            assert got.shape == reference[key].shape
            err = float(np.abs(got - reference[key]).max(initial=0.0))
            assert err <= 1e-12 * scale, (name, key, err, scale)


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
    """Passes over other grids and block sizes in between leave a pass's
    output and gradients bit for bit as they were on cold buffers."""
    q, k, v, cfg, upstream = small_case(9, 1)
    release_kept_buffers()
    cold = run(q, k, v, cfg, upstream, *block_sizes(9, 9)["ragged"])
    for side in (12, 4):
        other = small_case(side, side)
        run(*other, *block_sizes(side, side)["one"])
    warm = run(q, k, v, cfg, upstream, *block_sizes(9, 9)["ragged"])
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
