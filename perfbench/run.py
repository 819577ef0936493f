"""ripplegrid benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload ring-fwd-48 --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. The run
pins BLAS to one thread before numpy loads, builds every input from
``--seed``, passes the start-up gates (``ripple_naive`` against the fast
forward on small grids, plus each workload's own checks; a failure exits 1
without numbers), then runs units until ``--seconds`` of unit time are
measured, checking each unit's output after its timer stops.

``--trace 0`` prints the end-to-end metrics: tokens_per_s, call_ms_p50
(printed only), call_ms_p90, peak_mb (tracemalloc, in its own pass) and
setup_s (median of fresh processes, each timed from ``import ripplegrid``
through its first unit). Failed units are the JSON's ``failed`` out of
``attempted``, printed as error_rate.
``--trace 1`` splits the time in two: untraced units, then units with the
library's layer functions wrapped in spans, and prints per-layer metrics.
The last line of stdout is the JSON result; details and spans go to
``perfbench/results/``.
"""
from __future__ import annotations

import os

from machine import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"      # BLAS sizes its thread pool when numpy loads

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
PEAK_PASSES = 3
E2E_UNITS = {"tokens_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p90": "ms",
             "peak_mb": "MB", "setup_s": "s"}
# Printed but left out of the JSON result, so no bound applies to it: the toy
# step's unit times move between two levels with the machine's speed, and
# its median jumps between them from run to run (see perfbench/README.md).
PRINTED_ONLY = {"call_ms_p50"}
# named here, not imported from workloads, so that parsing arguments does not
# load numpy before a setup probe starts its clock
WORKLOAD_NAMES = ("ring-fwd-48", "dyadic-fwdbwd-32", "toy-train-8")


def import_library():
    """Import ripplegrid from this tree's src/ and nowhere else."""
    package = SRC / "ripplegrid"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no ripplegrid sources at {package}")
    sys.path.insert(0, str(SRC))
    import ripplegrid
    if Path(ripplegrid.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported ripplegrid from {ripplegrid.__file__}")
    return ripplegrid


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class Loop:
    """A closed loop: the next unit starts when the previous one and its
    output check have finished."""

    def __init__(self, workload, seed: int, tracer=None):
        import numpy as np
        self.wl = workload
        self.check_rng = np.random.Generator(np.random.PCG64([seed, 2]))
        self.tracer = tracer
        self.samples: list[int] = []      # ns per unit that returned
        self.walls: list[int] = []        # per unit, for traced runs
        self.attempted = 0
        self.failed = 0
        self.measured_ns = 0

    def run_unit(self):
        tracer = self.tracer
        if tracer is None:
            t0 = time.perf_counter_ns()
            result = self.wl.unit()
            return result, time.perf_counter_ns() - t0
        tracer.unit = len(self.walls)
        fetch0 = self.wl.api.fetches()
        t0 = time.perf_counter_ns()
        root = tracer.begin("unit")
        try:
            result = self.wl.unit()
        finally:
            span = tracer.end(root)
            elapsed = time.perf_counter_ns() - t0
            self.walls.append(elapsed)
        if fetch0 is not None:
            span.attrs["fetches"] = self.wl.api.fetches() - fetch0
        yard = tracer.begin("yardstick")
        try:
            self.wl.yardstick(result)
        finally:
            tracer.end(yard)
        return result, elapsed

    def measure(self, seconds: float) -> None:
        budget = int(seconds * 1e9)
        spent = 0
        while spent < budget:
            self.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                result, elapsed = self.run_unit()
            except Exception:
                spent += time.perf_counter_ns() - t0
                self.failed += 1
                traceback.print_exc()
                continue
            spent += elapsed
            self.samples.append(elapsed)
            try:
                self.wl.verify(result, self.check_rng)
            except Exception as exc:          # a wrong answer, or a check that crashed
                self.failed += 1
                print(f"unit {self.attempted} failed verification: {exc}", file=sys.stderr)
            del result
        self.measured_ns += spent

    def tokens_per_s(self) -> float:
        ok = self.attempted - self.failed
        return self.wl.tokens * ok / (self.measured_ns / 1e9)


def build(args):
    import_library()
    import workloads
    return workloads, workloads.WORKLOADS[args.workload](workloads.Api(), args.seed)


def setup_probe(args) -> int:
    """Child process for setup_s: import through the first (cold) unit."""
    t0 = time.perf_counter()
    _, wl = build(args)
    wl.unit()
    print(f"{time.perf_counter() - t0:.9f}")
    return 0


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure_peak(wl) -> list[float]:
    """Peak bytes traced during one unit; inputs exist before tracing starts."""
    peaks = []
    for _ in range(PEAK_PASSES):
        gc.collect()
        tracemalloc.start()
        try:
            wl.unit()
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    return peaks


def percentile(samples: list[int], p: int) -> float:
    if len(samples) < 2:
        return float(samples[0])
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def timed_run(args, wl):
    loop = Loop(wl, args.seed)
    loop.measure(args.seconds)
    if not loop.samples:
        raise RuntimeError("no unit completed")
    p90 = percentile(loop.samples, 90)
    peaks = measure_peak(wl)
    setups = measure_setup(args)
    metrics = {"tokens_per_s": loop.tokens_per_s(),
               "call_ms_p50": statistics.median(loop.samples) / 1e6,
               "call_ms_p90": p90 / 1e6,
               "peak_mb": statistics.median(peaks),
               "setup_s": statistics.median(setups)}
    n = len(loop.samples)
    notes = {"tokens_per_s": f"{wl.tokens} tokens x {loop.attempted - loop.failed} units "
                             f"/ {loop.measured_ns / 1e9:.2f} s",
             "call_ms_p50": f"{n} samples; printed only, not in the JSON",
             "call_ms_p90": f"{n} samples, {sum(s > p90 for s in loop.samples)} above",
             "peak_mb": f"median of {PEAK_PASSES} tracemalloc passes",
             "setup_s": f"median of {SETUP_PROBES} fresh processes"}
    detail = {"samples_ns": loop.samples, "peaks_mb": peaks, "setup_s": setups}
    return loop.attempted, loop.failed, metrics, E2E_UNITS, notes, detail


def traced_run(args, wl):
    import layers
    from spans import Tracer
    plain = Loop(wl, args.seed)
    plain.measure(args.seconds / 2)
    tracer = Tracer()
    layers.install(tracer, wl.api)
    traced = Loop(wl, args.seed, tracer)
    try:
        traced.measure(args.seconds / 2)
    finally:
        tracer.restore()
    tracer.warn_missing()
    metrics = layers.reduce(tracer, traced.walls, wl.api.fetch_count is not None)
    metrics["trace.overhead_frac"] = 1.0 - traced.tokens_per_s() / plain.tokens_per_s()
    units = {name: layers.METRICS[name] for name in metrics}
    n = len(traced.walls)
    notes = {name: f"median of {n} traced units" for name in metrics}
    notes["trace.overhead_frac"] = (f"{len(traced.samples)} traced vs "
                                    f"{len(plain.samples)} untraced units")
    names = sorted({s.name for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    detail = {"span_names": names,
              "spans": [[index[s.name], s.start, s.end, s.parent, s.unit]
                        for s in tracer.spans],
              "absent": tracer.missing}
    return (plain.attempted + traced.attempted, plain.failed + traced.failed,
            metrics, units, notes, detail)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        return setup_probe(args)
    workloads, wl = build(args)
    import machine
    env = machine.describe(ROOT)
    print(f"ripplegrid benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"numpy {env['numpy']}, python {env['python']}, nproc {env['nproc']}, "
          f"{env['cpu_model']}, git {env['git_sha']}")
    print("threads: " + ", ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for line in machine.working_set_lines(wl.working_set(), env["caches"]):
        print("working set: " + line)
    try:
        gates = wl.startup_checks()
    except workloads.CheckFailed as exc:
        print(f"start-up gate failed: {exc}", file=sys.stderr)
        return 1
    for line in gates:
        print("gate ok: " + line)

    run = traced_run if args.trace else timed_run
    attempted, failed, metrics, units, notes, detail = run(args, wl)
    print(f"{'metric':<30} {'value':>14}  {'unit':<6} notes")
    for name, value in metrics.items():
        print(f"{name:<30} {value:>14.6g}  {units[name]:<6} {notes[name]}")
    print(f"{'error_rate':<30} {failed / attempted:>14.6g}  {'frac':<6} "
          f"{failed} of {attempted} units failed")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items() if name not in PRINTED_ONLY}}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"args": vars(args), "env": env, "gates": gates,
                               "result": result, "detail": detail}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
