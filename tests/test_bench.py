import numpy as np
import pytest

from ripplegrid.bench import (
    GATE_TOLERANCE,
    BenchPlan,
    BenchRecord,
    fit_loglog,
    fit_slope,
    memory_probe,
    run_bench,
)
from ripplegrid.sat import sabotage_radius_offset


# ---------- slope fitting ----------

def test_fit_loglog_recovers_exact_powers():
    tokens = np.array([64, 144, 256, 576, 1024])
    linear = fit_loglog(tokens, 3.0 * tokens)
    assert abs(linear.slope - 1.0) < 1e-9
    assert abs(linear.r_squared - 1.0) < 1e-12
    quad = fit_loglog(tokens, 0.5 * tokens.astype(float) ** 2)
    assert abs(quad.slope - 2.0) < 1e-9
    # exact fit: no residual spread, so the confidence band collapses
    assert quad.stderr < 1e-9
    lo, hi = quad.ci
    assert abs(lo - 2.0) < 1e-6 and abs(hi - 2.0) < 1e-6


def test_fit_loglog_intercept():
    tokens = np.array([10, 100, 1000])
    fit = fit_loglog(tokens, 7.0 * np.asarray(tokens, dtype=float))
    np.testing.assert_allclose(np.exp(fit.intercept), 7.0, rtol=1e-9)


def test_fit_loglog_needs_three_points():
    with pytest.raises(ValueError):
        fit_loglog([64, 144], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog([64, 144, 256], [1.0, 2.0])


def make_record(variant, side, median, status="ok"):
    return BenchRecord(variant=variant, side=side, tokens=side * side,
                       r_max=4, median_ns=median,
                       mean_ns=median, stddev_ns=0.0, peak_bytes=0,
                       status=status)


def test_fit_slope_ignores_skipped_rows():
    records = [make_record("dp", s, 5.0 * s * s) for s in (8, 12, 16)]
    records.append(make_record("dp", 24, 1e18, status="skipped"))
    fit = fit_slope(records)
    assert abs(fit.slope - 1.0) < 1e-9


def test_fit_slope_rejects_mixed_variants():
    records = [make_record("dp", 8, 1.0), make_record("softmax", 8, 1.0),
               make_record("dp", 12, 2.0)]
    with pytest.raises(ValueError):
        fit_slope(records)


# ---------- plan validation ----------

def test_bench_plan_validation():
    BenchPlan()   # defaults are valid
    with pytest.raises(ValueError):
        BenchPlan(reps=2)
    with pytest.raises(ValueError):
        BenchPlan(warmup=0)
    with pytest.raises(ValueError):
        BenchPlan(batch=0)
    with pytest.raises(ValueError):
        BenchPlan(variants=("dp", "cosine"))
    with pytest.raises(ValueError):
        BenchPlan(r_max_policy="sqrt")
    with pytest.raises(ValueError):
        BenchPlan(sizes=())
    with pytest.raises(ValueError):
        BenchPlan(sizes=(8, 1))


def test_resolved_r_max_policies():
    assert BenchPlan(r_max=4).resolved_r_max(32) == 4
    linear = BenchPlan(r_max_policy="linear-in-side")
    assert linear.resolved_r_max(9) == 8
    assert linear.resolved_r_max(2) == 1


# ---------- gating and measurement ----------

def test_gate_catches_shifted_windows():
    plan = BenchPlan(variants=("dp",), sizes=(4, 6, 8), reps=3, warmup=1)
    with sabotage_radius_offset(1):
        with pytest.raises(RuntimeError, match="correctness gate"):
            run_bench(plan, probe_memory=False)
    # the context restores clean windows; the same plan then runs
    records = run_bench(plan, probe_memory=False)
    assert all(r.status == "ok" for r in records)


def test_run_bench_records_and_slopes():
    plan = BenchPlan(variants=("dp", "softmax"), sizes=(4, 6, 8), reps=3,
                     warmup=1, feature_dim=8, value_dim=8, r_max=2)
    records = run_bench(plan, probe_memory=False)
    assert len(records) == 6
    for r in records:
        assert r.status == "ok"
        assert r.tokens == r.side * r.side
        assert r.median_ns > 0
        assert r.slope is not None          # 3 sizes succeeded
        lo, hi = r.slope_ci
        assert lo <= r.slope <= hi
        assert r.peak_bytes == 0            # probing was disabled
    by_variant = {r.variant for r in records}
    assert by_variant == {"dp", "softmax"}


def test_memory_probe_positive_and_linearized_stays_flat():
    plan = BenchPlan(variants=("linearized",), sizes=(32, 64), reps=3,
                     warmup=1, feature_dim=16, value_dim=16)
    small = memory_probe("linearized", 32, plan)
    large = memory_probe("linearized", 64, plan)
    assert small > 0
    # 4x the tokens must cost well under 4x the transient memory: the
    # streaming form featurizes fixed-size chunks into running statistics
    assert large <= 2.5 * small, (small, large)


def test_memory_probe_dp():
    plan = BenchPlan(variants=("dp",), sizes=(8,), reps=3, warmup=1,
                     feature_dim=8, value_dim=8, r_max=2)
    assert memory_probe("dp", 8, plan) > 0


def test_gate_tolerance_is_strict():
    assert GATE_TOLERANCE <= 1e-8
