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
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .vicinal import GridShape, PartitionKind, PartitionScheme, Position, num_groups_grid


@dataclass(frozen=True)
class StickParams:
    """Learnable inputs of the stick pipeline for one attention head."""

    unit_embeddings: np.ndarray   # (num_units, embed_dim), one row per stick fraction
    value_projection: np.ndarray  # (embed_dim, value_dim)

    def __post_init__(self):
        if self.unit_embeddings.ndim != 2 or self.value_projection.ndim != 2:
            raise ValueError("unit_embeddings and value_projection must be matrices")
        if self.unit_embeddings.shape[0] < 1:
            raise ValueError("need at least one stick unit")
        if self.unit_embeddings.shape[1] != self.value_projection.shape[0]:
            raise ValueError("embedding width must match projection rows")
        for arr in (self.unit_embeddings, self.value_projection):
            if not np.isfinite(arr).all():
                raise ValueError("stick parameters must be finite")

    @property
    def num_units(self) -> int:
        return self.unit_embeddings.shape[0]


class WeightSchemeKind(Enum):
    LEARNED_SBT = "learned-sbt"
    FIXED_EXPONENTIAL = "fixed-exponential"
    SOFTMAX_WEIGHTS = "softmax"
    TRUNCATED = "truncated"
    UNIFORM = "uniform"


LEARNED_KINDS = (WeightSchemeKind.LEARNED_SBT, WeightSchemeKind.SOFTMAX_WEIGHTS,
                 WeightSchemeKind.TRUNCATED)


@dataclass(frozen=True)
class WeightScheme:
    """A weighting rule plus its parameters and compatibility switches.

    saturating_sigmoid: damp logit r by a factor (num_units - r) instead of
    (num_units - r + 1); the final fraction then saturates to exactly 1 at
    logit 0+, which zeroes all weight beyond the second-to-last unit.
    overcount_merge_divisor: share tail mass over one more group than actually
    exists, so the weights sum to slightly less than 1.
    Both switches default off; the defaults keep weights on the simplex.
    """

    kind: WeightSchemeKind
    params: StickParams | None = None
    saturating_sigmoid: bool = False
    overcount_merge_divisor: bool = False

    def __post_init__(self):
        if self.kind in LEARNED_KINDS and self.params is None:
            raise ValueError(f"{self.kind.value} scheme needs StickParams")


@dataclass(frozen=True)
class SpatialWeights:
    """Expanded per-query weight vector with its merge structure.

    alphas has one entry per group of the query; entries at index >= hat_r all
    equal merged_weight (the shared tail), except for the hard-truncated scheme
    where the tail is exactly zero.
    """

    alphas: np.ndarray
    hat_r: int
    merged_weight: float


@dataclass(frozen=True)
class WeightGrid:
    """scheme_weights evaluated for every query of a grid, padded to a common length.

    alphas[i, j, r] is zero for r >= groups[i, j]; hat[i, j] is the first index of
    the shared tail, merged[i, j] its per-group value.
    """

    alphas: np.ndarray      # (H, W, L) float64
    hat: np.ndarray         # (H, W) int64
    merged: np.ndarray      # (H, W) float64
    groups: np.ndarray      # (H, W) int64

    def at(self, query: Position) -> SpatialWeights:
        i, j = query[0] - 1, query[1] - 1
        g = int(self.groups[i, j])
        return SpatialWeights(alphas=self.alphas[i, j, :g].copy(),
                              hat_r=int(self.hat[i, j]),
                              merged_weight=float(self.merged[i, j]))

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


# ---------- stick pipeline ----------

def stick_logits(value_vector: np.ndarray, params: StickParams) -> np.ndarray:
    """One logit per stick unit: embeddings dotted with the projected value vector."""
    v = np.asarray(value_vector, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != params.value_projection.shape[1]:
        raise ValueError("value vector width must match the projection columns")
    return params.unit_embeddings @ (params.value_projection @ v)


def modified_sigmoid(logit, index: int, num_units: int, saturating: bool = False):
    """Squash a logit into a stick fraction, damped more for earlier units.

    The damping factor is (num_units - index + 1) for 1-based ``index``, so the
    final unit sees a plain sigmoid (0.5 at logit 0) and earlier units start
    lower. With ``saturating`` the factor is (num_units - index), which pins
    the final fraction to exactly 1 regardless of its logit.
    """
    if not 1 <= index <= num_units:
        raise ValueError(f"index must lie in [1, {num_units}], got {index}")
    factor = num_units - index + (0 if saturating else 1)
    return 1.0 / (1.0 + factor * np.exp(-np.asarray(logit, dtype=np.float64)))


def stick_breaking(fractions: np.ndarray) -> np.ndarray:
    """Break a unit stick: weight r takes fraction r+1 of what the first r
    fractions left over; the final weight is everything that remains.

    Input of length R produces R+1 weights that sum to 1 exactly in exact
    arithmetic (the terminal fraction is pinned to 1).
    """
    s = np.asarray(fractions, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ValueError("need a 1-d vector of at least one fraction")
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("fractions must lie in [0, 1]")
    remaining = np.concatenate(([1.0], np.cumprod(1.0 - s)))
    pieces = remaining[:-1] * s
    return np.concatenate((pieces, remaining[-1:]))


def adaptive_truncate(alphas: np.ndarray, tau: float,
                      overcount_merge_divisor: bool = False) -> SpatialWeights:
    """Halt the weight sweep once the tail mass drops below tau, then share
    that mass uniformly over the remaining groups.

    hat_r is the smallest index whose running weight sum leaves less than tau;
    the head weights below hat_r are kept verbatim. The default divisor equals
    the number of merged groups, so the output still sums to 1.
    """
    a = np.asarray(alphas, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError("need a 1-d weight vector")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    remaining = 1.0 - np.cumsum(a)
    below = np.flatnonzero(remaining < tau)
    hat = int(below[0]) if below.size else a.shape[0] - 1
    return _merge_tail(a[:hat], a.shape[0], hat, overcount_merge_divisor)


def _merge_tail(head: np.ndarray, groups: int, hat: int,
                overcount: bool) -> SpatialWeights:
    mass = 1.0 - float(head.sum())
    divisor = (groups - hat) + (1 if overcount else 0)
    merged = mass / divisor
    alphas = np.concatenate((head, np.full(groups - hat, merged)))
    return SpatialWeights(alphas=alphas, hat_r=hat, merged_weight=merged)


def _tau_halt_index(beta: np.ndarray, tau: float) -> int:
    remaining = 1.0 - np.cumsum(beta)
    below = np.flatnonzero(remaining < tau)
    return int(below[0]) if below.size else beta.shape[0] - 1


# ---------- schemes, single query ----------

def scheme_weights(scheme: WeightScheme, query: Position, value_vector: np.ndarray,
                   groups: int, r_max: int, tau: float) -> SpatialWeights:
    """Weight vector over the ``groups`` vicinal groups of one query.

    ``r_max`` caps how many leading groups can carry individual weights; the
    sweep also never outruns the query's own group count. ``tau`` additionally
    halts the learned scheme early when little mass remains.
    """
    if groups < 1:
        raise ValueError("queries have at least one group")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    kind = scheme.kind

    if kind is WeightSchemeKind.UNIFORM:
        w = 1.0 / groups
        return SpatialWeights(alphas=np.full(groups, w), hat_r=0, merged_weight=w)

    if kind is WeightSchemeKind.FIXED_EXPONENTIAL:
        hat = min(r_max, groups - 1)
        head = 0.5 ** (np.arange(hat) + 1.0)
        return _merge_tail(head, groups, hat, scheme.overcount_merge_divisor)

    if kind is WeightSchemeKind.SOFTMAX_WEIGHTS:
        logits = stick_logits(value_vector, scheme.params)
        padded = np.concatenate((logits, [0.0]))  # fixed tail logit
        z = padded - padded.max()
        gamma = np.exp(z)
        gamma /= gamma.sum()
        hat = min(r_max, groups - 1)
        return _merge_tail(gamma[:hat], groups, hat, scheme.overcount_merge_divisor)

    logits = stick_logits(value_vector, scheme.params)
    if logits.shape[0] < r_max:
        raise ValueError(f"scheme has {logits.shape[0]} stick units, r_max={r_max} needs at least that many")
    factors = _sigmoid_factors(r_max, scheme.saturating_sigmoid)
    fracs = 1.0 / (1.0 + factors * np.exp(-logits[:r_max]))
    beta = stick_breaking(fracs)

    if kind is WeightSchemeKind.TRUNCATED:
        cut = min(r_max, groups)
        head = beta[:cut]
        total = head.sum()
        if total <= 0.0:
            raise ValueError("truncated scheme has no head mass to renormalize")
        alphas = np.zeros(groups)
        alphas[:cut] = head / total
        return SpatialWeights(alphas=alphas, hat_r=cut, merged_weight=0.0)

    hat = min(_tau_halt_index(beta, tau), r_max, groups - 1)
    return _merge_tail(beta[:hat], groups, hat, scheme.overcount_merge_divisor)


# ---------- schemes, whole grid at once ----------

def _sigmoid_factors(r_max: int, saturating: bool) -> np.ndarray:
    base = r_max - np.arange(1, r_max + 1, dtype=np.float64)
    return base if saturating else base + 1.0


def grid_stick_fractions(value_grid: np.ndarray, scheme: WeightScheme, r_max: int):
    """Stick fractions for every query: (H, W, r_max). Also returns the
    projected value grid, which the backward pass reuses."""
    p = scheme.params
    projected = value_grid.astype(np.float64) @ p.value_projection.T
    logits = projected @ p.unit_embeddings[:r_max].T
    factors = _sigmoid_factors(r_max, scheme.saturating_sigmoid)
    fracs = 1.0 / (1.0 + factors * np.exp(-logits))
    return fracs, logits, projected


def _grid_stick_breaking(fracs: np.ndarray):
    """Vectorized stick break over the trailing axis; returns (beta, remaining)
    where remaining[..., m] is the stick left after the first m+1 fractions."""
    one_minus = 1.0 - fracs
    remaining = np.cumprod(one_minus, axis=-1)
    lead = np.concatenate((np.ones(fracs.shape[:-1] + (1,)), remaining[..., :-1]), axis=-1)
    beta = np.concatenate((lead * fracs, remaining[..., -1:]), axis=-1)
    return beta, remaining


def scheme_weights_grid(scheme: WeightScheme, value_grid: np.ndarray,
                        shape: GridShape, partition: PartitionScheme) -> WeightGrid:
    """scheme_weights for all queries at once; agrees with the scalar op to
    float roundoff (the batched matmuls may round differently)."""
    h, w = shape.height, shape.width
    if value_grid.shape[:2] != (h, w):
        raise ValueError("value grid does not match the grid shape")
    groups = num_groups_grid(partition.kind, shape)
    gmax = int(groups.max())
    r_max, tau = partition.r_max, partition.tau
    kind = scheme.kind
    span = np.arange(gmax)

    if kind is WeightSchemeKind.UNIFORM:
        merged = 1.0 / groups.astype(np.float64)
        alphas = np.where(span < groups[..., None], merged[..., None], 0.0)
        return WeightGrid(alphas=alphas, hat=np.zeros((h, w), dtype=np.int64),
                          merged=merged, groups=groups)

    if kind is WeightSchemeKind.FIXED_EXPONENTIAL:
        hat = np.minimum(r_max, groups - 1)
        beta_row = 0.5 ** (span + 1.0)
        head = np.broadcast_to(beta_row, (h, w, gmax))
        return _assemble_merged(head, hat, groups, gmax, scheme.overcount_merge_divisor)

    if kind is WeightSchemeKind.SOFTMAX_WEIGHTS:
        _, logits, _ = grid_stick_fractions(value_grid, scheme, r_max)
        padded = np.concatenate((logits, np.zeros((h, w, 1))), axis=-1)
        z = padded - padded.max(axis=-1, keepdims=True)
        gamma = np.exp(z)
        gamma /= gamma.sum(axis=-1, keepdims=True)
        hat = np.minimum(r_max, groups - 1)
        head = _pad_last(gamma, gmax)
        return _assemble_merged(head, hat, groups, gmax, scheme.overcount_merge_divisor)

    fracs, _, _ = grid_stick_fractions(value_grid, scheme, r_max)
    beta, _ = _grid_stick_breaking(fracs)

    if kind is WeightSchemeKind.TRUNCATED:
        cut = np.minimum(r_max, groups)
        # mask over beta's own r_max + 1 slots; span is too short whenever
        # the grid has fewer groups than r_max + 1
        keep = np.arange(beta.shape[-1]) < cut[..., None]
        head = np.where(keep, beta, 0.0)
        total = head.sum(axis=-1, keepdims=True)
        alphas = _pad_last(head / total, gmax)
        return WeightGrid(alphas=alphas, hat=cut.astype(np.int64),
                          merged=np.zeros((h, w)), groups=groups)

    remaining = 1.0 - np.cumsum(beta, axis=-1)
    below = remaining < tau
    # argmax of an all-False row is 0; such a row means "never halted", not index 0
    hat_tau = np.where(below.any(axis=-1), np.argmax(below, axis=-1), beta.shape[-1] - 1)
    hat = np.minimum(np.minimum(hat_tau, r_max), groups - 1)
    head = _pad_last(beta, gmax)
    return _assemble_merged(head, hat, groups, gmax, scheme.overcount_merge_divisor)


def _pad_last(arr: np.ndarray, length: int) -> np.ndarray:
    if arr.shape[-1] >= length:
        return arr[..., :length]
    pad = np.zeros(arr.shape[:-1] + (length - arr.shape[-1],))
    return np.concatenate((arr, pad), axis=-1)


def _assemble_merged(head: np.ndarray, hat: np.ndarray, groups: np.ndarray,
                     gmax: int, overcount: bool) -> WeightGrid:
    """Expand (head, hat) into full per-query vectors with a uniform shared tail."""
    span = np.arange(gmax)
    in_head = span < hat[..., None]
    cumsum = np.cumsum(np.where(in_head, head, 0.0), axis=-1)
    head_sum = np.where(hat > 0, np.take_along_axis(
        cumsum, np.maximum(hat - 1, 0)[..., None], axis=-1)[..., 0], 0.0)
    divisor = (groups - hat) + (1 if overcount else 0)
    merged = (1.0 - head_sum) / divisor
    in_grid = span < groups[..., None]
    alphas = np.where(in_head, head, np.where(in_grid, merged[..., None], 0.0))
    return WeightGrid(alphas=alphas, hat=hat.astype(np.int64), merged=merged,
                      groups=groups.astype(np.int64))


# ---------- divergence diagnostic ----------

def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Base-2 Jensen-Shannon divergence between two weight vectors.

    Vectors of different lengths are zero-padded to common support; the value
    lies in [0, 1], is symmetric, and is 0 exactly when the inputs agree.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or q.ndim != 1:
        raise ValueError("jsd expects 1-d weight vectors")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("weights must be non-negative")
    n = max(p.shape[0], q.shape[0])
    p = np.pad(p, (0, n - p.shape[0]))
    q = np.pad(q, (0, n - q.shape[0]))
    m = 0.5 * (p + q)

    def kl(a):
        pos = a > 0.0
        return float(np.sum(a[pos] * np.log2(a[pos] / m[pos])))

    return max(0.0, 0.5 * kl(p) + 0.5 * kl(q))


def jsd_grid(a: np.ndarray, b: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """jsd for every query of two padded weight grids, shape (H, W).

    Padding entries beyond each query's group count are zero in both grids, so
    they contribute nothing."""
    m = 0.5 * (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(a > 0.0, a * np.log2(np.where(a > 0.0, a / np.where(m > 0, m, 1.0), 1.0)), 0.0)
        tb = np.where(b > 0.0, b * np.log2(np.where(b > 0.0, b / np.where(m > 0, m, 1.0), 1.0)), 0.0)
    return np.maximum(0.0, 0.5 * ta.sum(axis=-1) + 0.5 * tb.sum(axis=-1))
