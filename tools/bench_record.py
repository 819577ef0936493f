"""Record alternating perfbench pairs of two source trees into one JSON file.

    python3 tools/bench_record.py --base DIR --base-sha SHA --head-sha SHA --out BENCH_7.json

``--base`` is a tree of the commit to compare against, for example made with
``git archive SHA | tar -x -C DIR``; the change is this checkout. For every
perfbench workload, pair i of ten runs
``perfbench/run.py --workload W --seed i --seconds 30 --trace 0`` once in
each tree, the base first on odd pairs and the head first on even ones.
Each tree then times ``ripple_dp`` and ``ripple_dp`` + ``ripple_vjp`` over
16x16 .. 128x128 grids in fresh single-threaded processes, and this
checkout's ``ripplegrid.reference.fit_loglog`` fits log-log slopes of time
against token count over 16x16 .. 96x96, as earlier records did. The file holds every run, per-metric medians and
quartiles, pair wins, the slopes, and under ``machine`` the environment
of each tree's first run (its git sha is ``unknown`` for a tree without
``.git``; ``shas`` names both trees); nothing here is a gate. Each run
keeps its unit counts and the stderr lines of units that failed
verification, and a run that was not correct is warned about as it ends.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
SECONDS = 30
WORKLOADS = ("ring-fwd-48", "dyadic-fwdbwd-32", "toy-train-8")
HIGHER_IS_BETTER = {"tokens_per_s"}
SIDES = (16, 24, 32, 48, 64, 96, 128)
SCALING_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def perfbench(tree: Path, workload: str, seed: int) -> dict:
    """One run's printed result (``correct``, ``attempted``, ``failed`` and
    the metrics), with the stderr lines that name failed units under
    ``failures``. Warns on stderr when the run was not correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["failures"] = [line for line in proc.stderr.splitlines()
                          if "failed verification" in line]
    if not result["correct"]:
        print(f"warning: {workload} seed {seed} in {tree}: {result['failed']} of "
              f"{result['attempted']} units failed", *result["failures"],
              sep="\n  ", file=sys.stderr, flush=True)
    detail = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    result["env"] = json.loads(detail.read_text())["env"]
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Per metric: each side's quartiles, head wins over pairs (ties count
    for neither), and whether the medians differ by more than the base's
    interquartile range in the head's favour."""
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if name in HIGHER_IS_BETTER else -1.0
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        qb, qh = quartiles(base), quartiles(head)
        out[name] = {"base": qb, "head": qh, "head_wins": wins, "pairs": len(pairs),
                     "head_over_base": qh["median"] / qb["median"],
                     "beyond_base_iqr": sign * (qh["median"] - qb["median"])
                     > qb["q3"] - qb["q1"]}
    return out


def scaling_job(src: str) -> dict:
    """Median wall ms of the dyadic learned-stick forward and forward plus
    backward (Dp = C = 32, r_max 4) at each side, in this process."""
    sys.path.insert(0, src)
    import numpy as np
    import ripplegrid as rg
    times = {"forward": {}, "forward_vjp": {}}
    for side in SIDES:
        rng = np.random.default_rng(side)
        q, k, v, up = (rng.standard_normal((side, side, 32)) for _ in range(4))
        stick = rg.StickParams(unit_embeddings=rng.standard_normal((4, 32)),
                               value_projection=rng.standard_normal((32, 32)) / np.sqrt(32))
        cfg = rg.AttentionConfig(
            scheme=rg.WeightScheme(kind=rg.WeightSchemeKind.LEARNED_SBT, params=stick),
            partition=rg.PartitionScheme(kind=rg.PartitionKind.DYADIC, r_max=4, tau=0.05),
            featmap=rg.init_feature_map(rg.FeatureMapKind.DETERMINISTIC_ADAPTIVE, 32, rng))
        for mode in times:
            samples = []
            for _ in range(SCALING_REPS + 1):       # the first call warms up
                start = time.perf_counter()
                res = rg.ripple_dp(q, k, v, cfg)
                if mode == "forward_vjp":
                    rg.ripple_vjp(res.tape, up)
                samples.append((time.perf_counter() - start) * 1e3)
            times[mode][side] = statistics.median(samples[1:])
    return times


def scaling(tree: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, __file__, "--scaling-src", str(tree / "src")],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path)
    parser.add_argument("--base-sha", default="unknown")
    parser.add_argument("--head-sha", default="unknown")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--scaling-src", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.scaling_src:
        print(json.dumps(scaling_job(args.scaling_src)))
        return 0
    if args.base is None or args.out is None:
        parser.error("--base and --out are required")
    sys.path.insert(0, str(ROOT / "src"))
    from ripplegrid.reference import fit_loglog
    trees = {"base": args.base.resolve(), "head": ROOT}
    record = {"command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
              "shas": {"base": args.base_sha, "head": args.head_sha},
              "machine": {}, "workloads": {}, "scaling": {}}
    for workload in WORKLOADS:
        pairs = []
        for seed in range(1, PAIRS + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = perfbench(trees[side], workload, seed)
                record["machine"].setdefault(side, result.pop("env"))
                pair[side] = result
                print(f"{workload} seed {seed} {side}: "
                      f"{result['metrics']['tokens_per_s']['value']:.1f} tokens/s",
                      file=sys.stderr, flush=True)
            pairs.append(pair)
        record["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs}
    for order in (("base", "head"), ("head", "base")):
        for side in order:
            record["scaling"].setdefault(side, []).append(scaling(trees[side]))
    for side, jobs in record["scaling"].items():
        merged = {mode: {str(s): statistics.median(job[mode][str(s)] for job in jobs)
                         for s in SIDES} for mode in ("forward", "forward_vjp")}
        record["scaling"][side] = {
            "ms": merged, "jobs": jobs,
            "slope_16_96": {mode: fit_loglog(*zip(*((int(s) ** 2, t) for s, t in ms.items()
                                                   if int(s) <= 96))).slope
                            for mode, ms in merged.items()}}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
