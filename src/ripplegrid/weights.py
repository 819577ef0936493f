"""Per-query simplex weights over vicinal groups.

Learned weights come from a stick-breaking construction: the query's value
vector is projected and dotted against per-group embeddings to produce logits,
each logit is squashed into a fraction of the remaining stick, and the broken
stick pieces become group weights. Because later pieces multiply accumulated
(1 - fraction) factors, the achievable remaining mass shrinks monotonically
with distance, yet any single group can still receive the largest piece.

Weight mass past a halting index is shared uniformly across the outlying
groups, which is what lets the attention pass replace an unbounded sweep over
groups with one closed-form tail term. Fixed-exponential, softmax, hard-
truncated, and uniform schemes cover the ablation grid around the learned one.

scheme_weights_grid weighs every query of a grid at once, and a layer's
heads at once too: a (H, W, heads, C) value grid with stick parameters
stacked on a leading head axis gives a weight grid whose arrays carry the
head axis after (H, W). scheme_weights_vjp, the grid's backward, runs the
same pipeline and then its adjoint, with halting indices held locally
constant.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .heads import matmul, outer_sum
from .vicinal import GridShape, PartitionScheme, num_groups_grid


@dataclass(frozen=True)
class StickParams:
    """Learnable inputs of the stick pipeline for one attention head, or for
    several stacked on a leading head axis."""

    unit_embeddings: np.ndarray   # (num_units, embed_dim), one row per stick fraction
    value_projection: np.ndarray  # (embed_dim, value_dim)

    def __post_init__(self):
        emb, proj = self.unit_embeddings, self.value_projection
        if emb.ndim not in (2, 3) or proj.ndim != emb.ndim:
            raise ValueError("unit_embeddings and value_projection must be matrices")
        if emb.shape[-2] < 1:
            raise ValueError("need at least one stick unit")
        if emb.shape[:-2] != proj.shape[:-2] or emb.shape[-1] != proj.shape[-2]:
            raise ValueError("embedding width must match projection rows")
        for arr in (self.unit_embeddings, self.value_projection):
            if not np.isfinite(arr).all():
                raise ValueError("stick parameters must be finite")

    @property
    def num_units(self) -> int:
        return self.unit_embeddings.shape[-2]


class WeightSchemeKind(Enum):
    LEARNED_SBT = "learned-sbt"
    FIXED_EXPONENTIAL = "fixed-exponential"
    SOFTMAX_WEIGHTS = "softmax"
    TRUNCATED = "truncated"
    UNIFORM = "uniform"


LEARNED_KINDS = (WeightSchemeKind.LEARNED_SBT, WeightSchemeKind.SOFTMAX_WEIGHTS,
                 WeightSchemeKind.TRUNCATED)


@dataclass
class StickGrads:
    unit_embeddings: np.ndarray   # rows past r_max stay zero: the forward never reads them
    value_projection: np.ndarray


@dataclass(frozen=True)
class WeightScheme:
    """A weighting rule plus its parameters."""

    kind: WeightSchemeKind
    params: StickParams | None = None

    def __post_init__(self):
        if self.kind in LEARNED_KINDS and self.params is None:
            raise ValueError(f"{self.kind.value} scheme needs StickParams")


@dataclass(frozen=True)
class WeightGrid:
    """A scheme's weights for every query of a grid, padded to a common length.

    alphas[i, j, r] is zero for r >= groups[i, j]; hat[i, j] is the first index of
    the shared tail, merged[i, j] its per-group value.
    """

    alphas: np.ndarray      # (H, W, L) float64
    hat: np.ndarray         # (H, W) int64
    merged: np.ndarray      # (H, W) float64
    groups: np.ndarray      # (H, W) int64

    def window_coefs(self) -> np.ndarray:
        """Coefficients of the nested windows in the grouped sum taken by parts.

        With a_g = alphas[..., g] before the halting index and merged from it
        on, entry g is a_g - a_{g+1}, so the weighted sum over groups equals
        merged * total + sum_g coefs[..., g] * window_g. Shape
        (H, W, hat.max()); entries at and past each query's hat are zero.
        """
        length = int(self.hat.max())
        tail = self.merged[..., None]
        a = np.where(np.arange(length) < self.hat[..., None],
                     self.alphas[..., :length], tail)
        return a - np.concatenate((a[..., 1:], tail), axis=-1)

    def window_coefs_vjp(self, gcoefs: np.ndarray, gtotal: np.ndarray):
        """The head and tail weight gradients, from the cotangents of
        window_coefs (gcoefs[..., g] is window g's) and of merged through its
        own merged * total term. The head's are zero at and past each
        query's hat."""
        # a leading zero for the empty window W_{-1}
        dots = np.concatenate((np.zeros(gcoefs.shape[:-1] + (1,)), gcoefs), axis=-1)
        in_head = np.arange(gcoefs.shape[-1]) < self.hat[..., None]
        ghead = np.where(in_head, np.diff(dots, axis=-1), 0.0)
        return ghead, gtotal - np.take_along_axis(dots, self.hat[..., None], axis=-1)[..., 0]

    def head_axis(self) -> WeightGrid:
        """The same weights as a stack of one head."""
        return WeightGrid(self.alphas[:, :, None], self.hat[:, :, None],
                          self.merged[:, :, None], self.groups[:, :, None])


# ---------- schemes, whole grid at once ----------

def _stick_pieces(value_grid: np.ndarray, scheme: WeightScheme, r_max: int):
    """The learned pipeline for every query: (projected, pieces, fracs,
    lead), with r_max + 1 pieces. The projected value grid is dotted with
    the first r_max unit embeddings into logits. The softmax scheme's
    pieces are their softmax with a fixed zero tail logit (fracs and lead
    are None). The stick schemes damp the logits into fractions as
    reference.modified_sigmoid does and break the stick: piece m is
    lead[..., m] * fracs[..., m], lead being what the first m fractions
    left, and the last piece is what all of them left."""
    p = scheme.params
    projected = matmul(value_grid.astype(np.float64), np.swapaxes(p.value_projection, -1, -2))
    logits = matmul(projected, np.swapaxes(p.unit_embeddings[..., :r_max, :], -1, -2))
    if scheme.kind is WeightSchemeKind.SOFTMAX_WEIGHTS:
        padded = np.concatenate((logits, np.zeros(logits.shape[:-1] + (1,))), axis=-1)
        gamma = np.exp(padded - padded.max(axis=-1, keepdims=True))
        gamma /= gamma.sum(axis=-1, keepdims=True)
        return projected, gamma, None, None
    factors = np.arange(r_max, 0, -1, dtype=np.float64)  # modified_sigmoid's damping
    fracs = 1.0 / (1.0 + factors * np.exp(-logits))
    remaining = np.cumprod(1.0 - fracs, axis=-1)
    lead = np.concatenate((np.ones(fracs.shape[:-1] + (1,)), remaining[..., :-1]), axis=-1)
    beta = np.concatenate((lead * fracs, remaining[..., -1:]), axis=-1)
    return projected, beta, fracs, lead


def _truncated_head(pieces: np.ndarray, cut: np.ndarray):
    """The truncated scheme's head: the mask of the first ``cut`` pieces,
    the pieces under it (zero past it) and their sum. The mask spans the
    pieces' own r_max + 1 slots, since a grid may have fewer groups."""
    keep = np.arange(pieces.shape[-1]) < cut[..., None]
    head = np.where(keep, pieces, 0.0)
    return keep, head, head.sum(axis=-1)


def scheme_weights_grid(scheme: WeightScheme, value_grid: np.ndarray,
                        shape: GridShape, partition: PartitionScheme) -> WeightGrid:
    """A scheme's weights for all queries at once; agrees with the scalar
    oracle, reference.scheme_weights, to float roundoff (the batched matmuls
    may round differently). A (H, W, heads, C) value grid weighs every head
    of a layer at once."""
    h, w = shape.height, shape.width
    if value_grid.shape[:2] != (h, w):
        raise ValueError("value grid does not match the grid shape")
    groups = num_groups_grid(partition.kind, shape)
    gmax = int(groups.max())
    groups = np.broadcast_to(groups.reshape((h, w) + (1,) * (value_grid.ndim - 3)),
                             value_grid.shape[:-1])
    r_max, tau = partition.r_max, partition.tau
    kind = scheme.kind
    span = np.arange(gmax)

    if kind is WeightSchemeKind.UNIFORM:     # every group is in the tail
        return _assemble_merged(np.zeros(groups.shape + (1,)), np.zeros_like(groups),
                                groups, gmax)

    if kind is WeightSchemeKind.FIXED_EXPONENTIAL:
        hat = np.minimum(r_max, groups - 1)
        beta_row = 0.5 ** (span + 1.0)
        head = np.broadcast_to(beta_row, groups.shape + (gmax,))
        return _assemble_merged(head, hat, groups, gmax)

    _, pieces, *_ = _stick_pieces(value_grid, scheme, r_max)
    if kind is WeightSchemeKind.SOFTMAX_WEIGHTS:
        hat = np.minimum(r_max, groups - 1)
        return _assemble_merged(_pad_last(pieces, gmax), hat, groups, gmax)

    if kind is WeightSchemeKind.TRUNCATED:
        cut = np.minimum(r_max, groups)
        _, head, total = _truncated_head(pieces, cut)
        if np.any(total <= 0.0):
            raise ValueError("truncated scheme has no head mass to renormalize")
        alphas = _pad_last(head / total[..., None], gmax)
        return WeightGrid(alphas=alphas, hat=cut.astype(np.int64),
                          merged=np.zeros(groups.shape), groups=groups)

    remaining = 1.0 - np.cumsum(pieces, axis=-1)
    below = remaining < tau
    # argmax of an all-False row is 0; such a row means "never halted", not index 0
    hat_tau = np.where(below.any(axis=-1), np.argmax(below, axis=-1), pieces.shape[-1] - 1)
    hat = np.minimum(np.minimum(hat_tau, r_max), groups - 1)
    head = _pad_last(pieces, gmax)
    return _assemble_merged(head, hat, groups, gmax)


def scheme_weights_vjp(scheme: WeightScheme, value_grid: np.ndarray,
                       partition: PartitionScheme, weights: WeightGrid,
                       ghead: np.ndarray, gmerged: np.ndarray):
    """The backward of scheme_weights_grid: the head and tail weight
    gradients, as WeightGrid.window_coefs_vjp gives them, pulled back to
    the value grid and the stick parameters. Returns (value gradient,
    StickGrads), or (0.0, None) for schemes with nothing to learn.

    The pipeline is run again from the value grid; nothing of the forward's
    is kept. Halting indices and group counts are integers and are treated
    as locally constant, which matches central differences at generic
    points."""
    if scheme.kind not in LEARNED_KINDS:
        return 0.0, None
    p, r_max, hat = scheme.params, partition.r_max, weights.hat
    projected, pieces, fracs, lead = _stick_pieces(value_grid, scheme, r_max)
    gpieces = np.zeros_like(pieces)
    if scheme.kind is WeightSchemeKind.TRUNCATED:     # hat is the renormalized head's length
        keep, head, total = _truncated_head(pieces, hat)
        gpieces[..., :ghead.shape[-1]] = ghead
        s_dot = np.einsum("...r,...r->...", gpieces, head)
        gpieces = np.where(keep, gpieces / total[..., None]
                           - (s_dot / (total * total))[..., None], 0.0)
    else:   # each head piece also takes its mass from the merged tail
        in_head = np.arange(ghead.shape[-1]) < hat[..., None]
        adj = ghead - np.where(in_head, (gmerged / (weights.groups - hat))[..., None], 0.0)
        gpieces[..., :ghead.shape[-1]] = np.where(in_head, adj, 0.0)

    if fracs is None:       # the softmax's Jacobian
        dot = np.einsum("...r,...r->...", gpieces, pieces)
        glogits = (pieces * (gpieces - dot[..., None]))[..., :r_max]
    else:
        # stick-breaking Jacobian: piece m scales with its own fraction through
        # the lead product and shrinks every later piece through (1 - fraction)
        rev = np.cumsum((gpieces * pieces)[..., ::-1], axis=-1)[..., ::-1]
        one_minus = 1.0 - fracs
        # a fraction pinned at exactly 1 zeroes its own logit sensitivity anyway,
        # so the guarded quotient never leaks a wrong value into glogits
        safe = np.where(one_minus > 0.0, one_minus, 1.0)
        glogits = (gpieces[..., :r_max] * lead - rev[..., 1:] / safe) * fracs * one_minus

    heads = p.unit_embeddings.ndim == 3
    g_units = np.zeros_like(p.unit_embeddings)
    g_units[..., :r_max, :] = outer_sum(glogits, projected, heads)
    gproj = matmul(glogits, p.unit_embeddings[..., :r_max, :])
    return matmul(gproj, p.value_projection), StickGrads(
        unit_embeddings=g_units, value_projection=outer_sum(gproj, value_grid, heads))


def _pad_last(arr: np.ndarray, length: int) -> np.ndarray:
    if arr.shape[-1] >= length:
        return arr[..., :length]
    pad = np.zeros(arr.shape[:-1] + (length - arr.shape[-1],))
    return np.concatenate((arr, pad), axis=-1)


def _assemble_merged(head: np.ndarray, hat: np.ndarray, groups: np.ndarray,
                     gmax: int) -> WeightGrid:
    """Expand (head, hat) into full per-query vectors with a uniform shared
    tail. Head work runs over the first max(hat) slots only; the tail fill
    is the one pass over all gmax."""
    span = np.arange(gmax)
    live = int(hat.max(initial=1))
    head = head[..., :live]
    in_head = span[:live] < hat[..., None]
    cumsum = np.cumsum(np.where(in_head, head, 0.0), axis=-1)
    head_sum = np.where(hat > 0, np.take_along_axis(
        cumsum, np.maximum(hat - 1, 0)[..., None], axis=-1)[..., 0], 0.0)
    merged = (1.0 - head_sum) / (groups - hat)
    alphas = np.where(span < groups[..., None], merged[..., None], 0.0)
    alphas[..., :live] = np.where(in_head, head, alphas[..., :live])
    return WeightGrid(alphas=alphas, hat=hat.astype(np.int64), merged=merged,
                      groups=groups.astype(np.int64))


# ---------- divergence diagnostic ----------

def jsd_grid(a: np.ndarray, b: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Base-2 Jensen-Shannon divergence (reference.jsd) for every query of
    two padded weight grids, shape (H, W).

    Padding entries beyond each query's group count are zero in both grids, so
    they contribute nothing."""
    m = 0.5 * (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(a > 0.0, a * np.log2(np.where(a > 0.0, a / np.where(m > 0, m, 1.0), 1.0)), 0.0)
        tb = np.where(b > 0.0, b * np.log2(np.where(b > 0.0, b / np.where(m > 0, m, 1.0), 1.0)), 0.0)
    return np.maximum(0.0, 0.5 * ta.sum(axis=-1) + 0.5 * tb.sum(axis=-1))
