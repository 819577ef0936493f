"""What the runtime is checked and timed against; no runtime module imports it.

The quadratic oracles over flat sequences and grids, the scalar twins (the
one-query forms of grid functions, kept as their oracles) and the scaling
harness behind acceptance criterion 4. The enumeration oracle ripple_naive
and the gradient auditor finite_diff_check stay in the attention and grad
modules, where the benchmark looks them up.
"""
from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass
from statistics import median

import numpy as np

from .attention import (DEFAULT_EPSILON, AttentionConfig, _check_denominator,
                        _check_epsilon, _check_finite, ripple_dp, ripple_naive)
from .featmap import FeatureMapKind, FeatureMapParams, feature_forward, init_feature_map
from .sat import release_kept_buffers
from .vicinal import (GridShape, PartitionKind, PartitionScheme, Position,
                      _check_position, query_groups)
from .weights import StickParams, WeightGrid, WeightScheme, WeightSchemeKind


# ---------- flat-sequence attention ----------

def _as_float(a) -> np.ndarray:
    """Pass float32/float64 through untouched, promote everything else to f64.

    The flat reference paths honor a 32-bit input dtype; the grid paths
    always accumulate in f64.
    """
    a = np.asarray(a)
    if a.dtype in (np.float32, np.float64):
        return a
    return a.astype(np.float64)


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact softmax attention over flat sequences; no scaling factor.

    q: (N, D), k: (M, D), v: (M, C) -> (N, C). Quadratic time and memory.
    """
    q = _as_float(q)
    k = _as_float(k)
    v = _as_float(v)
    if q.shape[-1] != k.shape[-1] or k.shape[0] != v.shape[0]:
        raise ValueError("query/key widths and key/value counts must match")
    _check_finite({"q": q, "k": k, "v": v})
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
    _check_finite({"q": q, "k": k, "v": v})
    pq = feature_forward(q, featmap)
    pk = feature_forward(k, featmap)
    z1 = pk.T @ _as_float(v)
    z2 = pk.sum(axis=0)
    num = pq @ z1
    den = pq @ z2 + epsilon
    _check_denominator(den)
    return num / den[:, None]


# ---------- grouped oracles over grids ----------

def ripple_softmax_reference(qgrid, kgrid, vgrid, weights: WeightGrid,
                             partition: PartitionScheme) -> np.ndarray:
    """Quadratic reference with an explicit softmax inside every group.

    This variant defines its own semantics (it is not the linearized form and
    matches no other implementation); empty groups contribute nothing.
    """
    q = np.asarray(qgrid, dtype=np.float64)
    k = np.asarray(kgrid, dtype=np.float64)
    v = np.asarray(vgrid, dtype=np.float64)
    out = np.zeros((q.shape[0], q.shape[1], v.shape[2]))
    alphas = weights.padded()
    for i, j, r, rows, cols in query_groups(partition, weights.groups):
        local = softmax_attention(q[i, j][None, :], k[rows, cols], v[rows, cols])[0]
        out[i, j] += alphas[i, j, r] * local
    return out


def grad_pixels_reference(weights: WeightGrid, upstream_field: np.ndarray,
                          partition: PartitionScheme) -> np.ndarray:
    """Brute-force scatter over explicit group members; quadratic, for tests.
    Token (m, n) receives alpha(i, j)[group of (m, n)] * upstream[i, j] from
    every query (i, j): the adjoint the backward takes by windows."""
    g = np.asarray(upstream_field, dtype=np.float64)
    if g.shape[:2] != weights.groups.shape:
        raise ValueError(f"upstream field shape {g.shape} does not match the weight grid's "
                         f"(H, W) {weights.groups.shape}")
    out = np.zeros_like(g)
    alphas = weights.padded()
    for i, j, r, rows, cols in query_groups(partition, weights.groups):
        out[rows, cols] += alphas[i, j, r] * g[i, j]
    return out


# ---------- one query's groups ----------

def chebyshev(a: Position, b: Position, shape: GridShape | None = None) -> int:
    """max(|row delta|, |col delta|); validates against the grid when given one."""
    _check_position(a, shape, "position")
    _check_position(b, shape, "position")
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def max_chebyshev(shape: GridShape, query: Position) -> int:
    """Largest Chebyshev distance from the query to any grid cell."""
    _check_position(query, shape, "query")
    i, j = query
    return max(i - 1, shape.height - i, j - 1, shape.width - j)


def group_of_distance(kind: PartitionKind, distance: int) -> int:
    """Group index that a given Chebyshev distance falls into."""
    if distance < 0:
        raise ValueError("distance must be >= 0")
    if kind is PartitionKind.UNIT_RING or distance == 0:
        return 0 if distance == 0 else distance
    # dyadic bands: group r >= 1 covers 2^(r-1) <= d < 2^r, group 0 is the cell itself
    return int(distance).bit_length()


def num_groups(scheme: PartitionScheme, shape: GridShape, query: Position) -> int:
    """Number of non-empty-eligible groups for this query: indices 0..num_groups-1
    are exactly those whose distance band intersects the grid."""
    far = max_chebyshev(shape, query)
    if scheme.kind is PartitionKind.UNIT_RING:
        return far + 1
    return 1 + group_of_distance(PartitionKind.DYADIC, far) if far >= 1 else 1


# ---------- one query's weights ----------

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


def stick_logits(value_vector: np.ndarray, params: StickParams) -> np.ndarray:
    """One logit per stick unit: embeddings dotted with the projected value vector."""
    v = np.asarray(value_vector, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != params.value_projection.shape[1]:
        raise ValueError("value vector width must match the projection columns")
    return params.unit_embeddings @ (params.value_projection @ v)


def modified_sigmoid(logit, index: int, num_units: int):
    """Squash a logit into a stick fraction, damped more for earlier units.

    The damping factor is (num_units - index + 1) for 1-based ``index``, so the
    final unit sees a plain sigmoid (0.5 at logit 0) and earlier units start
    lower.
    """
    if not 1 <= index <= num_units:
        raise ValueError(f"index must lie in [1, {num_units}], got {index}")
    factor = num_units - index + 1
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


def adaptive_truncate(alphas: np.ndarray, tau: float) -> SpatialWeights:
    """Halt the weight sweep once the tail mass drops below tau, then share
    that mass uniformly over the remaining groups.

    hat_r is the smallest index whose running weight sum leaves less than tau;
    the head weights below hat_r are kept verbatim. The tail mass is divided
    by the number of merged groups, so the output still sums to 1.
    """
    a = np.asarray(alphas, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError("need a 1-d weight vector")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    hat = _tau_halt_index(a, tau)
    return _merge_tail(a[:hat], a.shape[0], hat)


def _merge_tail(head: np.ndarray, groups: int, hat: int) -> SpatialWeights:
    mass = 1.0 - float(head.sum())
    merged = mass / (groups - hat)
    alphas = np.concatenate((head, np.full(groups - hat, merged)))
    return SpatialWeights(alphas=alphas, hat_r=hat, merged_weight=merged)


def _tau_halt_index(beta: np.ndarray, tau: float) -> int:
    remaining = 1.0 - np.cumsum(beta)
    below = np.flatnonzero(remaining < tau)
    return int(below[0]) if below.size else beta.shape[0] - 1


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
        return _merge_tail(head, groups, hat)

    if kind is WeightSchemeKind.SOFTMAX_WEIGHTS:
        logits = stick_logits(value_vector, scheme.params)
        padded = np.concatenate((logits, [0.0]))  # fixed tail logit
        z = padded - padded.max()
        gamma = np.exp(z)
        gamma /= gamma.sum()
        hat = min(r_max, groups - 1)
        return _merge_tail(gamma[:hat], groups, hat)

    logits = stick_logits(value_vector, scheme.params)
    if logits.shape[0] < r_max:
        raise ValueError(f"scheme has {logits.shape[0]} stick units, r_max={r_max} needs at least that many")
    fracs = np.array([modified_sigmoid(logits[m], m + 1, r_max) for m in range(r_max)])
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
    return _merge_tail(beta[:hat], groups, hat)


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


# ---------- scaling harness ----------
# Log-log slopes of median forward time against token count over square
# grids: near 2 for softmax and naive enumeration, near 1 for the prefix-sum
# forward. Grouped variants pass the oracle gate at the smallest size first.

VARIANTS = ("softmax", "naive", "dp")
R_MAX_POLICIES = ("fixed", "linear-in-side")
GATE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class BenchPlan:
    variants: tuple[str, ...] = ("softmax", "naive", "dp")
    sizes: tuple[int, ...] = (8, 12, 16, 24)
    batch: int = 1
    reps: int = 3
    warmup: int = 1
    r_max: int = 4
    r_max_policy: str = "fixed"
    feature_dim: int = 32
    value_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.reps < 3:
            raise ValueError("repetitions must be >= 3")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants {sorted(unknown)}; options: {VARIANTS}")
        if self.r_max_policy not in R_MAX_POLICIES:
            raise ValueError(f"r_max_policy must be one of {R_MAX_POLICIES}")
        if len(self.sizes) < 1 or any(s < 2 for s in self.sizes):
            raise ValueError("sizes must be grid sides >= 2")

    def resolved_r_max(self, side: int) -> int:
        if self.r_max_policy == "fixed":
            return self.r_max
        return max(1, side - 1)


@dataclass
class BenchRecord:
    variant: str
    side: int
    tokens: int
    r_max: int
    median_ns: float
    min_ns: float       # the fastest and slowest samples, beside the median
    max_ns: float
    slope: float | None = None


@dataclass
class SlopeFit:
    slope: float


def fit_loglog(tokens, times_ns) -> SlopeFit:
    """Least squares on log(time) vs log(tokens); needs >= 3 points."""
    x = np.log(np.asarray(tokens, dtype=np.float64))
    y = np.log(np.asarray(times_ns, dtype=np.float64))
    if x.shape != y.shape or x.size < 3:
        raise ValueError("slope fit needs at least 3 (tokens, time) points")
    xm = x - x.mean()
    return SlopeFit(slope=float(xm @ (y - y.mean())) / float(xm @ xm))


def fit_slope(records: list[BenchRecord]) -> SlopeFit:
    """Fit one variant's records by their medians."""
    variants = {r.variant for r in records}
    if len(variants) > 1:
        raise ValueError(f"records mix variants {sorted(variants)}")
    return fit_loglog([r.tokens for r in records], [r.median_ns for r in records])


def _grid_inputs(side: int, plan: BenchPlan):
    """q, k, v at one size, and the grouped variants' config."""
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    q = rng.standard_normal((side, side, plan.feature_dim))
    k = rng.standard_normal((side, side, plan.feature_dim))
    v = rng.standard_normal((side, side, plan.value_dim))
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, plan.feature_dim,
                          np.random.Generator(np.random.PCG64(plan.seed + 1)))
    # the fixed-exponential scheme never reads tau; PartitionScheme still
    # needs a valid one
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING,
                                r_max=plan.resolved_r_max(side), tau=0.05)
    scheme = WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL)
    return q, k, v, AttentionConfig(scheme=scheme, partition=partition, featmap=fm)


def _make_runner(variant: str, side: int, plan: BenchPlan):
    """Build inputs up front and return a no-argument callable to time."""
    q, k, v, cfg = _grid_inputs(side, plan)
    if variant == "softmax":
        qf, kf, vf = (a.reshape(side * side, -1) for a in (q, k, v))
        return lambda: softmax_attention(qf, kf, vf)
    if variant == "naive":
        return lambda: ripple_naive(q, k, v, cfg, build_tape=False)
    return lambda: ripple_dp(q, k, v, cfg)


def _gate(variant: str, plan: BenchPlan) -> None:
    """Oracle equivalence at the smallest size; only grouped variants have an
    oracle to agree with."""
    if variant not in ("dp", "naive"):
        return
    side = min(plan.sizes)
    q, k, v, cfg = _grid_inputs(side, plan)
    oracle = ripple_naive(q, k, v, cfg, build_tape=False).out
    if variant == "naive":
        candidate = oracle  # the enumeration path is the oracle
    else:
        candidate = ripple_dp(q, k, v, cfg).out
    rel = float(np.abs(candidate - oracle).max() / max(np.abs(oracle).max(), 1e-300))
    if rel > GATE_TOLERANCE:
        raise RuntimeError(
            f"correctness gate failed for {variant!r} at side {side}: "
            f"relative error {rel:.3e} exceeds {GATE_TOLERANCE:.0e}")


def memory_probe(variant: str, side: int, plan: BenchPlan | None = None) -> int:
    """Peak transient allocation (bytes) of one forward pass.

    Inputs and parameters are allocated before tracing starts, so the number
    reflects what the pass itself allocates, block buffers kept from earlier
    passes included.
    """
    plan = plan if plan is not None else BenchPlan()
    fn = _make_runner(variant, side, plan)
    release_kept_buffers()
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def run_bench(plan: BenchPlan) -> list[BenchRecord]:
    """Gate, warm up, time, and fit every variant in the plan. Its sizes are
    timed round-robin, so that drift on the machine lands on each alike
    instead of tilting the fitted slope. Once a variant has at least 3
    sizes, its fitted slope is stamped onto each of its records."""
    records: list[BenchRecord] = []
    for variant in plan.variants:
        _gate(variant, plan)
        runners = [_make_runner(variant, side, plan) for side in plan.sizes]
        for fn in runners * plan.warmup:
            fn()
        samples = [[] for _ in runners]
        for _ in range(plan.reps):
            for fn, mine in zip(runners, samples):
                t0 = time.perf_counter_ns()
                for _ in range(plan.batch):
                    fn()
                mine.append((time.perf_counter_ns() - t0) / plan.batch)
        records += [BenchRecord(variant=variant, side=side, tokens=side * side,
                                r_max=plan.resolved_r_max(side), median_ns=float(median(mine)),
                                min_ns=min(mine), max_ns=max(mine))
                    for side, mine in zip(plan.sizes, samples)]
    for variant in plan.variants:
        mine = [r for r in records if r.variant == variant]
        if len(mine) >= 3:
            slope = fit_slope(mine).slope
            for r in mine:
                r.slope = slope
    return records
