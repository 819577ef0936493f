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
head axis after (H, W). A WeightGrid stores each query's head, its
weights before the halting index hat, over max(hat) <= r_max slots, and
the tail's one merged weight, so its size is linear in the grid however
far the groups reach; the sweep, the tape and the backward read nothing
else. WeightGrid.padded builds the per-group vectors on demand for the
code that needs every group: the enumeration oracle's sweep and the
quadratic references. jsd_grid reads the head and the constant tail.
scheme_weights_vjp, the grid's backward, runs the same pipeline and then
its adjoint, with halting indices held locally constant.
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
    """A scheme's weights for every query of a grid, stored as a head and
    a merged tail.

    head[..., r] is the query's weight alpha_r for r < hat and zero from hat on,
    over max(hat) slots, at most r_max; every group from hat to groups - 1
    weighs merged, and there are no groups past that. Nothing here grows
    with the grid's largest group count: the sweep, the tape and the
    backward read only these arrays, and padded() builds the per-group
    vectors for the oracles and diagnostics that need every group.
    """

    head: np.ndarray        # (H, W, max hat) float64
    hat: np.ndarray         # (H, W) int64
    merged: np.ndarray      # (H, W) float64
    groups: np.ndarray      # (H, W) int64

    def padded(self, length: int | None = None) -> np.ndarray:
        """The first ``length`` per-group weights of every query (all of
        them by default, up to the largest group count), zero past each
        query's own groups: head before hat, merged from it on."""
        span = np.arange(int(self.groups.max()) if length is None else length)
        alphas = np.where(span < self.groups[..., None], self.merged[..., None], 0.0)
        live = min(self.head.shape[-1], span.size)
        alphas[..., :live] = np.where(span[:live] < self.hat[..., None],
                                      self.head[..., :live], alphas[..., :live])
        return alphas

    def window_coefs(self) -> np.ndarray:
        """Coefficients of the nested windows in the grouped sum taken by parts.

        With a_g = head[..., g] before the halting index and merged from it
        on, entry g is a_g - a_{g+1}, so the weighted sum over groups equals
        merged * total + sum_g coefs[..., g] * window_g. Shape
        (H, W, hat.max()); entries at and past each query's hat are zero.
        """
        length = int(self.hat.max())
        tail = self.merged[..., None]
        a = np.where(np.arange(length) < self.hat[..., None],
                     self.head[..., :length], tail)
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
        return WeightGrid(self.head[:, :, None], self.hat[:, :, None],
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
    if p.num_units < r_max:
        raise ValueError(f"scheme has {p.num_units} stick units, r_max={r_max} "
                         f"needs at least that many")
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
    of a layer at once. Every array it builds has at most r_max + 1 slots
    per query, however many groups the grid has."""
    h, w = shape.height, shape.width
    if value_grid.shape[:2] != (h, w):
        raise ValueError("value grid does not match the grid shape")
    groups = num_groups_grid(partition.kind, shape)
    groups = np.broadcast_to(groups.reshape((h, w) + (1,) * (value_grid.ndim - 3)),
                             value_grid.shape[:-1])
    r_max, tau = partition.r_max, partition.tau
    kind = scheme.kind

    if kind is WeightSchemeKind.UNIFORM:     # every group is in the tail
        return _head_and_tail(np.zeros(0), np.zeros_like(groups), groups)

    if kind is WeightSchemeKind.FIXED_EXPONENTIAL:
        return _head_and_tail(0.5 ** (np.arange(r_max) + 1.0),
                              np.minimum(r_max, groups - 1), groups)

    _, pieces, *_ = _stick_pieces(value_grid, scheme, r_max)
    if kind is WeightSchemeKind.SOFTMAX_WEIGHTS:
        return _head_and_tail(pieces, np.minimum(r_max, groups - 1), groups)

    if kind is WeightSchemeKind.TRUNCATED:
        cut = np.minimum(r_max, groups)
        _, head, total = _truncated_head(pieces, cut)
        if np.any(total <= 0.0):
            raise ValueError("truncated scheme has no head mass to renormalize")
        return WeightGrid(head=head[..., :int(cut.max())] / total[..., None],
                          hat=cut.astype(np.int64), merged=np.zeros(groups.shape),
                          groups=groups.astype(np.int64))

    remaining = 1.0 - np.cumsum(pieces, axis=-1)
    below = remaining < tau
    # argmax of an all-False row is 0; such a row means "never halted", not index 0
    hat_tau = np.where(below.any(axis=-1), np.argmax(below, axis=-1), pieces.shape[-1] - 1)
    return _head_and_tail(pieces, np.minimum(np.minimum(hat_tau, r_max), groups - 1), groups)


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


def _head_and_tail(pieces: np.ndarray, hat: np.ndarray, groups: np.ndarray) -> WeightGrid:
    """The weight grid whose head is each query's first hat pieces (the
    pieces broadcast against hat, with at least max(hat) slots) and whose
    tail shares what they leave evenly over the groups from hat on."""
    live = int(hat.max())
    head = np.where(np.arange(live) < hat[..., None], pieces[..., :live], 0.0)
    # a leading zero slot, so entry hat is the sum of the first hat pieces
    cumsum = np.cumsum(np.concatenate((np.zeros(head.shape[:-1] + (1,)), head), axis=-1),
                       axis=-1)
    head_sum = np.take_along_axis(cumsum, hat[..., None], axis=-1)[..., 0]
    return WeightGrid(head=head, hat=hat.astype(np.int64),
                      merged=(1.0 - head_sum) / (groups - hat), groups=groups.astype(np.int64))


# ---------- divergence diagnostic ----------

def jsd_grid(a: WeightGrid, b: WeightGrid) -> np.ndarray:
    """Base-2 Jensen-Shannon divergence (reference.jsd) between two weight
    grids over the same groups, for every query; b broadcasts against a.

    Past both grids' head slots each query's weights are its two merged
    constants, so those groups are summed as one term times their count;
    groups past a query's count weigh zero in both and add nothing."""
    length = max(a.head.shape[-1], b.head.shape[-1])
    tail = np.maximum(a.groups - length, 0)
    return np.maximum(0.0, _jsd_terms(a.padded(length), b.padded(length))
                      + tail * _jsd_terms(a.merged[..., None], b.merged[..., None]))


def _jsd_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Jensen-Shannon sum over the last axis of two weight arrays."""
    m = 0.5 * (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(a > 0.0, a * np.log2(np.where(a > 0.0, a / np.where(m > 0, m, 1.0), 1.0)), 0.0)
        tb = np.where(b > 0.0, b * np.log2(np.where(b > 0.0, b / np.where(m > 0, m, 1.0), 1.0)), 0.0)
    return 0.5 * ta.sum(axis=-1) + 0.5 * tb.sum(axis=-1)
