"""Runtime and memory scaling harness for the attention variants.

Times forward passes over square token grids at several sizes, fits log-log
slopes of median wall time against token count, and probes the peak transient
allocation of one pass with tracemalloc. Softmax and naive enumeration should come out
near slope 2, the prefix-sum variants near slope 1; absolute times are
machine-dependent and never asserted, only slopes and ratios.

Grouped variants must pass the oracle-equivalence gate at the smallest planned
size before any timing happens: speed numbers for wrong results are worthless.
Inputs are f64. Timed regions assume the process is already
single-threaded (the ``ripplegrid`` entry point pins thread counts before
numpy loads).
"""
from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass
from statistics import median

import numpy as np

from .attention import AttentionConfig, ripple_dp, ripple_naive, softmax_attention
from .featmap import FeatureMapKind, init_feature_map
from .sat import release_kept_buffers
from .vicinal import PartitionKind, PartitionScheme
from .weights import WeightScheme, WeightSchemeKind

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


# ---------- fitting ----------

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


# ---------- workloads ----------

def _grid_inputs(side: int, plan: BenchPlan):
    rng = np.random.Generator(np.random.PCG64(plan.seed))
    q = rng.standard_normal((side, side, plan.feature_dim))
    k = rng.standard_normal((side, side, plan.feature_dim))
    v = rng.standard_normal((side, side, plan.value_dim))
    fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, plan.feature_dim,
                          np.random.Generator(np.random.PCG64(plan.seed + 1)))
    return q, k, v, fm


def _grouped_config(side: int, plan: BenchPlan) -> AttentionConfig:
    # the fixed-exponential scheme never reads tau; PartitionScheme still
    # needs a valid one
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING,
                                r_max=plan.resolved_r_max(side), tau=0.05)
    _, _, _, fm = _grid_inputs(side, plan)
    scheme = WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL)
    return AttentionConfig(scheme=scheme, partition=partition, featmap=fm)


def _make_runner(variant: str, side: int, plan: BenchPlan):
    """Build inputs up front and return a no-argument callable to time."""
    q, k, v, _ = _grid_inputs(side, plan)
    if variant == "softmax":
        qf, kf, vf = (a.reshape(side * side, -1) for a in (q, k, v))
        return lambda: softmax_attention(qf, kf, vf)
    cfg = _grouped_config(side, plan)
    if variant == "naive":
        return lambda: ripple_naive(q, k, v, cfg, build_tape=False)
    return lambda: ripple_dp(q, k, v, cfg)


def _gate(variant: str, plan: BenchPlan) -> None:
    """Oracle equivalence at the smallest size; only grouped variants have an
    oracle to agree with."""
    if variant not in ("dp", "naive"):
        return
    side = min(plan.sizes)
    q, k, v, _ = _grid_inputs(side, plan)
    cfg = _grouped_config(side, plan)
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


# ---------- measurement ----------

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
