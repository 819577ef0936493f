import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ripplegrid.reference import (
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
    quad = fit_loglog(tokens, 0.5 * tokens.astype(float) ** 2)
    assert abs(quad.slope - 2.0) < 1e-9


def test_fit_loglog_needs_three_points():
    with pytest.raises(ValueError):
        fit_loglog([64, 144], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog([64, 144, 256], [1.0, 2.0])


def make_record(variant, side, median):
    return BenchRecord(variant=variant, side=side, tokens=side * side,
                       r_max=4, median_ns=median, min_ns=median, max_ns=median)


def test_fit_slope_fits_record_medians():
    records = [make_record("dp", s, 5.0 * s * s) for s in (8, 12, 16, 24)]
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
            run_bench(plan)
    # the context restores clean windows; the same plan then runs
    records = run_bench(plan)
    assert [r.side for r in records] == [4, 6, 8]


def test_run_bench_records_and_slopes():
    plan = BenchPlan(variants=("dp", "softmax"), sizes=(4, 6, 8), reps=3,
                     warmup=1, feature_dim=8, value_dim=8, r_max=2)
    records = run_bench(plan)
    assert len(records) == 6
    for r in records:
        assert r.tokens == r.side * r.side
        assert 0 < r.min_ns <= r.median_ns <= r.max_ns
        assert r.slope is not None          # 3 sizes were timed
    by_variant = {r.variant for r in records}
    assert by_variant == {"dp", "softmax"}


def test_memory_probe_dp():
    plan = BenchPlan(variants=("dp",), sizes=(8,), reps=3, warmup=1,
                     feature_dim=8, value_dim=8, r_max=2)
    assert memory_probe("dp", 8, plan) > 0


def test_gate_tolerance_is_strict():
    assert GATE_TOLERANCE <= 1e-8


# ---------- tools/bench_record.py ----------

def test_bench_record_keeps_each_trees_machine(tmp_path, monkeypatch):
    # every run reports its tree's env; the record keeps one per side
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    base = tmp_path / "base"
    base.mkdir()

    def run(tree, workload, seed):
        return {"correct": True, "metrics": {"tokens_per_s": {"value": float(seed)}},
                "env": {"git_sha": "base" if tree == base else "head"}}

    def scaling(tree):
        return {mode: {str(s): float(s) for s in tool.SIDES}
                for mode in ("forward", "forward_vjp")}

    monkeypatch.setattr(tool, "perfbench", run)
    monkeypatch.setattr(tool, "scaling", scaling)
    monkeypatch.setattr(tool, "PAIRS", 2)
    monkeypatch.setattr(tool, "WORKLOADS", ("ring-fwd-48",))
    out = tmp_path / "record.json"
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--base", str(base),
                                      "--out", str(out)])
    assert tool.main() == 0
    record = json.loads(out.read_text())
    assert record["machine"] == {"base": {"git_sha": "base"}, "head": {"git_sha": "head"}}
    pairs = record["workloads"]["ring-fwd-48"]["pairs"]
    assert all("env" not in pair[side] for pair in pairs for side in ("base", "head"))
