"""Attention variants over 2D token grids.

Exact quadratic references (softmax over all pairs, per-group softmax), the
linearized global form, and the locality-weighted group mechanism in two
implementations that must agree: a per-member enumeration oracle and a
prefix-sum sweep.

The sweep sums groups by parts. With W_g the clipped window out to group g's
outer radius, T the grid total, m the merged tail weight and a_g the weight
of group g (alpha_g before the halting index hat, m from it on),

    sum_g alpha_g (W_g - W_{g-1}) + m (T - W_{hat-1})
        = m T + sum_{g < hat} (a_g - a_{g+1}) W_g,

so each head group costs one window and the tail costs none; W_0 is the
field itself (group 0 is radius 0 in both partitions), so its term is
(a_0 - a_1) (phi_q . phi_k) [v, 1] and takes no window. The numerator and
denominator of the linear-attention quotient share that sweep: it runs over
the field phi_k (x) [v, 1], whose last value column is the denominator stream.

The sweep is linear in each feature channel until it meets phi_q, so it
streams the prefix table of that field over strips of grid rows, at full
channel width: a band kept between passes holds the table rows one strip's
windows reach, each row built once on the row above it by masked matmuls
of phi_k against [v, 1] (sat.table_rows), so the field is never written
out. A window is four corner reads of the band (Crow's summed-area
table), two on each of two band rows; one matmul per row contracts both
of its corners with the strip's phi_q, paired d = 2r + 1 columns apart,
straight into the (H, W, C + 1) accumulator, so no window is written out
and each window reads 2 (W + d) band entries per row. The band and the
strip's per-query buffers are sized in bytes together (BLOCK_BYTES): the
strip shortens as the radius and the window count grow, and channels
split only when the shared rows and one strip row would not fit. The
tape holds inputs, features, weights and the quotient, and the backward
pass streams the same band again, with the token adjoint's band beside it
in the same buffer (see the grad module).

One pass, _attend, runs every layer on (H, W, heads, ...) arrays: a
multi-head layer stacks its heads on axis 2, with one band over
(heads, Dp, C + 1) channels, and the single-head entry points
have a head axis of length 1. Linearized attention skips the weights.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .featmap import FeatureMapKind, FeatureMapParams, feature_forward, init_feature_map
from .heads import matmul, outer_sum
from .sat import COLUMN_BLOCK, table_rows, window_rows
from .vicinal import GridShape, PartitionScheme, group_members, group_span
from .weights import (LEARNED_KINDS, StickParams, WeightGrid, WeightScheme,
                      WeightSchemeKind, scheme_weights_grid)

DEFAULT_EPSILON = 1e-6

BLOCK_BYTES = 10 << 20
"""Bytes of the band of prefix-table rows a pass streams with the buffers
its strip keeps: the table build's "mask" in both passes, the window
reads' "pairs" and "paired" in the forward, and in the backward the
per-window vectors and, in the band's buffer, the token adjoint's band and
the strip's field (see band_plan). The strip height is what the budget
leaves after the 2R + 1 rows strips share, once channels have split until
a strip of R rows fits. At 10 MiB a 48x48 unit-ring forward (Dp = C =
32, radius 3) runs strips of 13 rows, a 32x32 dyadic one (radius 7)
strips of 9, and a 128x128 dyadic one three blocks of 11 channels in
strips of 8; the 32x32 dyadic backward runs three blocks of 11 channels
in strips of 14 rows, the 128x128 one seven blocks of 5 in strips of 7.
A larger budget leaves less margin under the one-field forward peak at
48x48, and at 32x32 a short-radius band would fall short of what a
long-radius one fills, against acceptance 5's flat peak over r_max. 8x8
toy grids run as one strip."""


@dataclass(frozen=True)
class AttentionConfig:
    """Single-head configuration: how to weight groups and featurize tokens."""

    scheme: WeightScheme
    partition: PartitionScheme
    featmap: FeatureMapParams
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        _check_epsilon(self.epsilon)


def _check_epsilon(epsilon: float) -> None:
    """A negative stabilizer can cancel a denominator or flip its sign; a NaN
    one turns every row NaN and an infinite one every row zero."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be >= 0 and finite, got {epsilon}")


@dataclass
class AttentionTape:
    """Everything the backward pass consumes, captured during one forward.
    Arrays and weights carry a head axis after (H, W), of length 1 from the
    single-head entry points; den includes the stabilizer. In linearized
    mode scheme and weights are None."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    phi_q: np.ndarray
    phi_k: np.ndarray
    featmap: FeatureMapParams
    scheme: WeightScheme | None
    partition: PartitionScheme | None
    weights: WeightGrid | None
    epsilon: float
    num: np.ndarray
    den: np.ndarray


@dataclass
class AttentionOutput:
    out: np.ndarray
    tape: AttentionTape | None


# ---------- flat-sequence references ----------

def _as_float(a) -> np.ndarray:
    """Pass float32/float64 through untouched, promote everything else to f64.

    The flat reference paths honor a 32-bit input dtype; the grid paths
    always accumulate in f64.
    """
    a = np.asarray(a)
    if a.dtype in (np.float32, np.float64):
        return a
    return a.astype(np.float64)


def _check_finite(q, k, v) -> None:
    """One inf in k or v would poison every sum it enters (a prefix table
    turns it into inf - inf), so non-finite inputs are rejected by name."""
    for name, a in (("q", q), ("k", k), ("v", v)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite values")


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact softmax attention over flat sequences; no scaling factor.

    q: (N, D), k: (M, D), v: (M, C) -> (N, C). Quadratic time and memory.
    """
    q = _as_float(q)
    k = _as_float(k)
    v = _as_float(v)
    if q.shape[-1] != k.shape[-1] or k.shape[0] != v.shape[0]:
        raise ValueError("query/key widths and key/value counts must match")
    _check_finite(q, k, v)
    scores = q @ k.T
    scores -= scores.max(axis=1, keepdims=True)  # shift-invariant, avoids overflow
    wts = np.exp(scores)
    wts /= wts.sum(axis=1, keepdims=True)
    return wts @ v


def linearized_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                         featmap: FeatureMapParams,
                         epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Feature-factorized attention: one pass over keys, one over queries."""
    _check_epsilon(epsilon)
    _check_finite(q, k, v)
    pq = feature_forward(q, featmap)
    pk = feature_forward(k, featmap)
    z1 = pk.T @ _as_float(v)
    z2 = pk.sum(axis=0)
    num = pq @ z1
    den = pq @ z2 + epsilon
    _check_denominator(den)
    return num / den[:, None]


def _check_denominator(den: np.ndarray) -> None:
    if np.any(den == 0.0):
        raise FloatingPointError(
            "attention denominator is exactly zero; use a positive epsilon or "
            "different feature parameters")


# ---------- grouped attention over grids ----------

def _featurize(qgrid, kgrid, vgrid, featmap: FeatureMapParams):
    """One head's checked (H, W, dim) grids and features, head axis added."""
    q = np.asarray(qgrid, dtype=np.float64)
    k = np.asarray(kgrid, dtype=np.float64)
    v = np.asarray(vgrid, dtype=np.float64)
    if any(a.ndim != 3 for a in (q, k, v)) or not q.shape[:2] == k.shape[:2] == v.shape[:2]:
        raise ValueError("q, k, v must be (H, W, dim) grids over the same shape")
    if q.shape[2] != k.shape[2]:
        raise ValueError("query and key widths must match")
    _check_finite(q, k, v)
    q, k, v = q[:, :, None], k[:, :, None], v[:, :, None]
    return q, k, v, feature_forward(q, featmap), feature_forward(k, featmap)


def _value_streams(v):
    """[v, 1]: the numerator streams, then the denominator stream."""
    return np.concatenate((v, np.ones(v.shape[:-1] + (1,))), axis=-1)


def band_plan(field_shape: tuple, radii: list[int], backward: bool = False):
    """How a pass streams the table of an (H, W, heads, Dp, C + 1) field
    whose windows have ``radii``: (channel blocks, strip height, pads). A
    pad is the largest radius clipped to its grid axis, since a window that
    long spans the axis anyway. A block's bytes are counted at its own
    width: its band holds a strip's rows plus 2 ph + 1 shared ones, and
    the table build's "mask" COLUMN_BLOCK^2 entries per channel for each
    row built (ph more on the first strip). A forward strip row also keeps
    "pairs" (block-wide, over W + 2 d columns) and "paired" (two C + 1
    vectors over W + d), with d = 2 pw + 1; a ``backward`` one keeps one
    block-wide vector per window and two more (z_0 and the corner term)
    and the token adjoint's and field's band rows, with 2 ph + 2 more
    shared rows. Channels split into the fewest equal blocks (but a
    narrower last one) whose shared rows and min(max(ph, 1), H) strip rows
    fit BLOCK_BYTES, so that strips fall below the radius only in blocks
    of one channel, and the strip grows to fill the budget."""
    h, w = field_shape[:2]
    heads, dp, values = math.prod(field_shape[2:-2]), field_shape[-2], field_shape[-1]
    radius = max(radii, default=0)
    pads = (min(radius, h - 1), min(radius, w - 1))
    margin, span = 2 * pads[0] + 1, 2 * pads[1] + 1
    floor = min(max(pads[0], 1), h)     # strip rows the blocks must fit
    for count in range(1, dp + 1):
        width = -(-dp // count)
        lanes = heads * width
        band_row = (w + span) * lanes * values * 8
        mask_row = lanes * min(COLUMN_BLOCK, w) ** 2 * 8
        if backward:
            shared = (2 * margin + 1) * band_row
            row = 3 * band_row + w * lanes * (len(radii) + 2) * 8
        else:
            shared = margin * band_row
            row = band_row + ((w + 2 * span) * lanes + (w + span) * heads * 2 * values) * 8
        shared, row = shared + pads[0] * mask_row, row + mask_row
        if shared + floor * row <= BLOCK_BYTES:
            break
    return ([slice(lo, min(lo + width, dp)) for lo in range(0, dp, width)],
            min(max((BLOCK_BYTES - shared) // row, 1), h), pads)


_kept = threading.local()


def kept_array(name: str, shape: tuple) -> np.ndarray:
    """An array of ``shape`` over the thread's kept flat buffer ``name``,
    grown when short. Fresh multi-MB arrays fault in every page they touch:
    a quarter of an 8x8 forward at Dp = C = 64, a sixth of a 32x32 forward
    plus backward. Passes take turns with the buffers: none nests. A short
    buffer is freed before its successor is allocated."""
    size, kept = math.prod(shape), _kept.__dict__
    if name not in kept or kept[name].size < size:
        kept.pop(name, None)
        kept[name] = np.empty(size)
    return kept[name][:size].reshape(shape)


def release_kept_buffers() -> None:
    """Drop the thread's kept buffers, e.g. before measuring a cold pass."""
    _kept.__dict__.clear()


def move_up(band: np.ndarray, rows: int, by: int) -> None:
    """Moves band rows [by, by + rows) up to [0, rows), ``by`` rows at a
    time: a copy that overlapped itself would go through a temporary."""
    for k in range(0, rows, by):
        band[k:min(k + by, rows)] = band[k + by:min(k + by, rows) + by]


def table_bands(pk, streams, radii: list[int], backward: bool = False):
    """Yield (blk, rows, band, pads, adjoint, field) for every channel
    block and strip of grid rows [a, b): the band holds the padded prefix
    table rows [a - ph - 1, b + ph) of phi_k (x) [v, 1] over the block's
    channels, in the layout sat.window_rows reads, in the kept buffer
    "band", as band_plan plans the pass.

    Each table row is built once, on the row above it, by sat.table_rows
    over the grid's columns only, with its masked keys in the kept buffer
    "mask"; the field is never written out, and the matmuls write into the
    band's strided rows without the temporaries np.multiply and np.einsum
    allocate there. The pad columns then copy the last one, a column at a
    time, since a broadcast copy within the band would go through a
    temporary of all pw columns. The 2 ph + 1 rows a strip shares with the
    next move up the band, and rows past the grid repeat the last, so the
    last strip's far corner is the block's grid total. Callers count a
    pass's fetches on its first block only (blk.start == 0): later blocks
    read the same positions.

    Only the ``backward`` gets the other two views, in the same buffer,
    and None otherwise. The adjoint is a carry row and then rows shaped
    as the band's, zero at each block's start; after each strip its carry
    and shared rows move up with the band's and the rest are zeroed. The
    field is a (b - a, W, heads, block, C + 1) array for the caller to
    write."""
    h, w = pk.shape[:2]
    blocks, height, pads = band_plan(pk.shape + streams.shape[-1:], radii, backward)
    ph, pw = pads
    margin = 2 * ph + 1
    kept_rows = 3 * height + 2 * margin + 1 if backward else height + margin
    grid = slice(pw + 1, pw + 1 + w)
    for blk in blocks:
        channels = pk.shape[2:-1] + (blk.stop - blk.start,) + streams.shape[-1:]
        kept = kept_array("band", (kept_rows, w + 2 * pw + 1) + channels)
        band, adjoint, field = kept[:height + margin], None, None
        if backward:
            adjoint = kept[height + margin:2 * (height + margin) + 1]
            adjoint.fill(0.0)
            field = kept[len(band) + len(adjoint):].reshape(-1)[:height * w * math.prod(channels)]
            field = field.reshape((height, w) + channels)
        band[:ph + 1] = 0.0         # the table before the grid
        band[ph + 1:, :pw + 1] = 0.0
        ready = ph + 1              # band rows that hold table rows
        for a in range(0, h, height):
            b = min(a + height, h)
            top = a - ph - 1        # the table row in band row 0
            if a:
                move_up(band, margin, height)
                ready = margin
                if backward:    # the carry and the shared rows
                    move_up(adjoint, margin + 1, height)
                    adjoint[margin + 1:] = 0.0
            built, stop = min(b + ph, h) - top, b - a + margin
            if built > ready:
                new = slice(ready, built)
                mask = kept_array("mask", (built - ready,) + channels[:-1]
                                  + (min(COLUMN_BLOCK, w) ** 2,))
                table_rows(band[ready - 1:built, grid], pk[top + ready:top + built, ..., blk],
                           streams[top + ready:top + built], mask)
                for pad in range(grid.stop, band.shape[1]):
                    band[new, pad] = band[new, grid.stop - 1]
                ready = built
            band[ready:stop] = band[ready - 1]
            views = (adjoint[:stop + 1], field[:b - a]) if backward else (None, None)
            yield blk, slice(a, b), band[:stop], pads, *views


def _sweep(pq, pk, v, wg: WeightGrid, partition: PartitionScheme) -> np.ndarray:
    """The banded prefix-sum sweep over a stack of heads: (H, W, heads, Dp)
    features, (H, W, heads, C) values and weights with the head axis. Returns
    the (H, W, heads, C + 1) numerator and denominator streams. Each window
    is contracted from its two band rows straight into the strip of the
    result, with its coefficient folded into phi_q: one matmul per row
    reads both of the row's corners (see _paired)."""
    coefs = wg.window_coefs()
    radii = [group_span(partition.kind, g)[1] for g in range(1, coefs.shape[-1])]
    streams = _value_streams(v)
    both = (_radius_zero_coef(coefs) * np.einsum("...d,...d->...", pq, pk))[..., None] * streams
    part = kept_array("part", both.shape)
    for blk, rows, band, pads, *_ in table_bands(pk, streams, radii):
        strip, w = both[rows], both.shape[1]
        for g, radius in enumerate(radii, 1):
            rowpair, d = window_rows(band, radius, pads, counted=blk.start == 0)
            pairs = _paired(coefs[rows, ..., g, None], pq[rows][..., blk], d)
            paired = kept_array("paired", rowpair[0].shape[:-2] + (2, strip.shape[-1]))
            for row, (far, near) in zip(rowpair, ((np.add, np.subtract),
                                                  (np.subtract, np.add))):
                np.matmul(pairs, row, out=paired)
                far(strip, paired[:, d:, ..., 0, :], out=strip)
                near(strip, paired[:, :w, ..., 1, :], out=strip)
        if rows.stop == len(pq):    # the far corner of the last strip is the total
            matmul(pq[..., blk], band[-1, -1], out=part)
            part *= wg.merged[..., None]
            both += part
    return both


def _paired(coef, pq, d: int) -> np.ndarray:
    """The (rows, W + d, ..., 2, block) left operand of a window's row
    reads: at each of the W + d band columns of window_rows, coef * pq of
    the queries whose far and near corners sit there, x - d and x. It
    views the kept buffer "pairs", where d zero columns on each side stand
    for queries off the grid, whose products are never read."""
    h, w = pq.shape[:2]
    pairs = kept_array("pairs", (h, w + 2 * d) + pq.shape[2:])
    pairs[:, :d] = 0.0
    np.multiply(coef, pq, out=pairs[:, d:d + w])
    pairs[:, d + w:] = 0.0
    strides = pairs.strides     # built directly: as_strided takes ~4 us a call
    return np.ndarray((h, w + d) + pq.shape[2:-1] + (2, pq.shape[-1]), pairs.dtype, pairs,
                      strides=strides[:-1] + (d * strides[1], strides[-1]))


def _radius_zero_coef(coefs):
    """c_0, the radius-0 window's coefficient per query: zero where every
    hat is 0 and there are no window coefficients. W_0 is the field itself,
    so its term is c_0 (phi_q . phi_k) [v, 1] and takes no table."""
    return coefs[..., 0] if coefs.shape[-1] else np.zeros(coefs.shape[:-1])


def _naive_sweep(pq, pk, v, wg: WeightGrid, partition: PartitionScheme) -> np.ndarray:
    """_sweep's streams with every group summed member by member."""
    h, w = pq.shape[:2]
    x = pk[..., None] * _value_streams(v)[..., None, :]
    y = np.zeros(x.shape)
    for i in range(1, h + 1):
        for j in range(1, w + 1):
            for r in range(int(wg.groups[i - 1, j - 1].max())):
                members = group_members(partition, GridShape(h, w), (i, j), r)
                if not members:
                    continue
                rows = np.fromiter((m[0] - 1 for m in members), dtype=np.int64)
                cols = np.fromiter((m[1] - 1 for m in members), dtype=np.int64)
                a = wg.alphas[i - 1, j - 1, :, r]
                y[i - 1, j - 1] += a[:, None, None] * x[rows, cols].sum(axis=0)
    return np.einsum("...d,...dc->...c", pq, y)


def _attend(q, k, v, phi_q, phi_k, featmap: FeatureMapParams, epsilon: float,
            scheme: WeightScheme | None = None, partition: PartitionScheme | None = None,
            weights: WeightGrid | None = None, sweep=_sweep):
    """The attention quotient over a stack of heads, on (H, W, heads, ...)
    arrays; returns (out, tape). With a ``scheme``, tokens are weighted by
    group: ``sweep`` runs over ``weights``, or over the scheme's weight grid
    when none is given. Without one, every token weighs the same and the
    quotient is global linearized attention."""
    if scheme is None:      # phi_q against each head's total of phi_k (x) [v, 1]
        both = matmul(phi_q, outer_sum(phi_k, _value_streams(v), heads=True))
    else:
        if weights is None:
            weights = scheme_weights_grid(scheme, v, GridShape(*q.shape[:2]), partition)
        elif weights.alphas.shape[:3] != q.shape[:3]:
            raise ValueError(f"weights over a {weights.alphas.shape[:2]} grid do not match "
                             f"the {q.shape[:2]} token grid")
        both = sweep(phi_q, phi_k, v, weights, partition)
    num, den = both[..., :-1], both[..., -1] + epsilon
    _check_denominator(den)
    return num / den[..., None], AttentionTape(
        q=q, k=k, v=v, phi_q=phi_q, phi_k=phi_k, featmap=featmap, scheme=scheme,
        partition=partition, weights=weights, epsilon=epsilon, num=num, den=den)


def _grouped(qgrid, kgrid, vgrid, config: AttentionConfig, weights: WeightGrid | None,
             sweep) -> AttentionOutput:
    """One head's grouped attention: the frame both grouped forwards share."""
    out, tape = _attend(*_featurize(qgrid, kgrid, vgrid, config.featmap), config.featmap,
                        config.epsilon, config.scheme, config.partition,
                        None if weights is None else weights.head_axis(), sweep)
    return AttentionOutput(out=out[:, :, 0], tape=tape)


def ripple_naive(qgrid, kgrid, vgrid, config: AttentionConfig,
                 build_tape: bool = True,
                 weights: WeightGrid | None = None) -> AttentionOutput:
    """Trusted oracle: every group summed member by member, no prefix sums.

    Cost grows with the square of the group count per query; use it to check
    the dynamic program, not to run at scale.
    """
    res = _grouped(qgrid, kgrid, vgrid, config, weights, _naive_sweep)
    return res if build_tape else AttentionOutput(out=res.out, tape=None)


def ripple_dp(qgrid, kgrid, vgrid, config: AttentionConfig,
              weights: WeightGrid | None = None) -> AttentionOutput:
    """Prefix-sum forward for either partition; equals ripple_naive. Over
    dyadic bands the per-query sweep length drops from the grid radius to its
    logarithm.

    A ``weights=`` override must cover the input grid, but is used as given
    and not checked against the simplex: it is the finite-difference seam
    through which the gradient tests perturb single weights off the simplex
    on purpose."""
    return _grouped(qgrid, kgrid, vgrid, config, weights, _sweep)


def ripple_softmax_reference(qgrid, kgrid, vgrid, weights: WeightGrid,
                             partition: PartitionScheme) -> np.ndarray:
    """Quadratic reference with an explicit softmax inside every group.

    This variant defines its own semantics (it is not the linearized form and
    matches no other implementation); empty groups contribute nothing.
    """
    q = np.asarray(qgrid, dtype=np.float64)
    k = np.asarray(kgrid, dtype=np.float64)
    v = np.asarray(vgrid, dtype=np.float64)
    shape = GridShape(q.shape[0], q.shape[1])
    out = np.zeros((shape.height, shape.width, v.shape[2]))
    for i in range(1, shape.height + 1):
        for j in range(1, shape.width + 1):
            for r in range(int(weights.groups[i - 1, j - 1])):
                members = group_members(partition, shape, (i, j), r)
                if not members:
                    continue
                rows = np.fromiter((m[0] - 1 for m in members), dtype=np.int64)
                cols = np.fromiter((m[1] - 1 for m in members), dtype=np.int64)
                local = softmax_attention(q[i - 1, j - 1][None, :],
                                          k[rows, cols], v[rows, cols])[0]
                out[i - 1, j - 1] += weights.alphas[i - 1, j - 1, r] * local
    return out


# ---------- linearized attention on grids (for the hybrid model) ----------

def linearized_grid(qgrid, kgrid, vgrid, featmap: FeatureMapParams,
                    epsilon: float = DEFAULT_EPSILON):
    """Global linearized attention with grid-shaped inputs; returns (out, tape)."""
    _check_epsilon(epsilon)
    out, tape = _attend(*_featurize(qgrid, kgrid, vgrid, featmap), featmap, epsilon)
    return out[:, :, 0], tape


# ---------- multi-head wrapper ----------

@dataclass(frozen=True)
class MultiHeadParams:
    """A layer's parameters with its heads stacked: ``w_qkv`` is every Wq,
    then every Wk, then every Wv, (3 * heads * head_dim, model_dim), and
    ``featmap`` and ``stick`` carry a leading head axis."""

    w_qkv: np.ndarray
    featmap: FeatureMapParams
    w_out: np.ndarray              # (model_dim, heads * head_dim)
    b_out: np.ndarray              # (model_dim,)
    stick: StickParams | None = None


@dataclass(frozen=True)
class MultiHeadConfig:
    partition: PartitionScheme
    scheme_kind: WeightSchemeKind
    epsilon: float = DEFAULT_EPSILON
    attention: str = "ripple"      # "ripple" or "linearized"

    def __post_init__(self):
        if self.attention not in ("ripple", "linearized"):
            raise ValueError(f"attention must be 'ripple' or 'linearized', "
                             f"got {self.attention!r}")
        _check_epsilon(self.epsilon)


@dataclass
class MultiHeadTape:
    """One layer's forward record: its input, the attention pass over the
    stacked heads, the heads' concatenated outputs and the parameters."""

    x: np.ndarray
    attn: AttentionTape
    concat: np.ndarray
    params: MultiHeadParams


def init_multi_head(rng: np.random.Generator, model_dim: int, num_heads: int,
                    head_dim: int, r_max: int,
                    scheme_kind: WeightSchemeKind | None) -> MultiHeadParams:
    """Fresh stacked parameters, drawn head by head: Wq, Wk, Wv, the feature
    map and, for a learned ``scheme_kind``, the stick. Pass None for a layer
    that learns no weights, such as a linearized one."""
    scale = 1.0 / np.sqrt(model_dim)
    draws = []
    for _ in range(num_heads):
        head = [rng.standard_normal((head_dim, model_dim)) * scale for _ in range(3)]
        fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, head_dim, rng)
        head += [fm.w1, fm.w2, fm.b2]
        if scheme_kind in LEARNED_KINDS:
            head += [rng.standard_normal((r_max, head_dim)),
                     rng.standard_normal((head_dim, head_dim)) / np.sqrt(head_dim)]
        draws.append(head)
    wq, wk, wv, w1, w2, b2, *stick = (np.stack(a) for a in zip(*draws))
    w_out = rng.standard_normal((model_dim, num_heads * head_dim)) / np.sqrt(num_heads * head_dim)
    return MultiHeadParams(
        w_qkv=np.concatenate((wq, wk, wv)).reshape(-1, model_dim),
        featmap=FeatureMapParams(FeatureMapKind.DETERMINISTIC_ADAPTIVE, w1, w2, b2),
        w_out=w_out, b_out=np.zeros(model_dim), stick=StickParams(*stick) if stick else None)


def multi_head_forward(xgrid, params: MultiHeadParams, config: MultiHeadConfig):
    """Project, attend and mix every head of a layer in one pass. Returns
    (out, tape).

    One matmul against the stacked Wq, Wk and Wv gives (H, W, heads,
    head_dim) queries, keys and values; one featurize over queries and keys
    and one attention pass then run over the head axis.
    """
    x = np.asarray(xgrid, dtype=np.float64)
    model_dim = params.w_qkv.shape[1]
    if x.ndim != 3 or x.shape[2] != model_dim:
        raise ValueError(f"input grid must have shape (H, W, model_dim) = (H, W, {model_dim}), "
                         f"got {x.shape}")
    qkv = (x @ params.w_qkv.T).reshape(x.shape[:2] + (3, -1, params.featmap.in_dim))
    q, k, v = np.moveaxis(qkv, 2, 0)
    _check_finite(q, k, v)
    pq, pk = np.moveaxis(feature_forward(qkv[:, :, :2], params.featmap), 2, 0)
    scheme = (WeightScheme(kind=config.scheme_kind, params=params.stick)
              if config.attention == "ripple" else None)
    out, attn = _attend(q, k, v, pq, pk, params.featmap, config.epsilon, scheme,
                        config.partition)
    concat = out.reshape(x.shape[:2] + (-1,))
    tape = MultiHeadTape(x=x, attn=attn, concat=concat, params=params)
    return concat @ params.w_out.T + params.b_out, tape
