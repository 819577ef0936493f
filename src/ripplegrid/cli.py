"""Command-line driver: oracle checks, gradient checks, benchmarks, weight
inspection, and the training demo.

Only the stdlib is imported at module level; numpy and the library modules
load inside the command functions so that --threads can pin the BLAS thread
count first (see the ripplegrid_cli shim).

Every run writes its artifacts under a fresh timestamped directory containing
an effective_config.ini (rerunnable via --config, bitwise with --threads 1)
and a MANIFEST of sha256 file hashes. Exit codes: 0 success, 1 check or
criterion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import NamedTuple


class UsageError(Exception):
    pass


class OptSpec(NamedTuple):
    kind: str                      # int | float | str | ints | strs | flag | choice
    default: object
    choices: tuple = ()
    help: str = ""


SCHEME_NAMES = ("uniform", "fixed-exponential", "learned-sbt", "truncated", "softmax")
PARTITION_NAMES = ("unit-ring", "dyadic")

GLOBAL_SPECS = {
    "seed": OptSpec("int", 0, help="base RNG seed"),
    "dtype": OptSpec("choice", "f64", ("f32", "f64"),
                     "input dtype for check/bench (other commands run f64)"),
    "out": OptSpec("str", "runs", help="parent directory for run artifacts"),
    "threads": OptSpec("int", 1, help="BLAS thread count (1 = bitwise replay)"),
}

SPECS = {
    "check": {
        "sizes": OptSpec("ints", (4, 6, 9, 12), help="grid sides to test"),
        "schemes": OptSpec("strs", SCHEME_NAMES, help="weight schemes to test"),
        "partition": OptSpec("choice", "unit-ring", PARTITION_NAMES),
        "trials": OptSpec("int", 3, help="random instances per (size, scheme)"),
        "tolerance": OptSpec("float", 1e-8, help="max relative error accepted"),
        "r-max": OptSpec("int", 3),
        "tau": OptSpec("float", 0.05),
        "epsilon": OptSpec("float", 1e-6),
        "force": OptSpec("flag", False, help="allow sizes beyond the quadratic-oracle guardrail (16)"),
        "sabotage": OptSpec("flag", False, help="off-by-one ring radii (harness self-test; must fail)"),
    },
    "gradcheck": {
        "scope": OptSpec("choice", "attention", ("featmap", "weights", "attention", "model")),
        "tolerance": OptSpec("float", 0.0, help="max relative error (0 = per-scope default)"),
        "grid": OptSpec("int", 4, help="grid side"),
        "step": OptSpec("float", 0.0, help="central-difference step (0 = per-scope default)"),
        "mode": OptSpec("choice", "auto", ("auto", "full", "sample")),
        "sample": OptSpec("int", 12, help="coordinates per tensor in sample mode"),
    },
    "bench": {
        "variants": OptSpec("strs", ("softmax", "naive", "dp")),
        "sizes": OptSpec("ints", (64, 144, 256, 576), help="token counts (perfect squares)"),
        "batch": OptSpec("int", 1, help="forward passes per timed repetition"),
        "repetitions": OptSpec("int", 3),
        "warmup": OptSpec("int", 1),
        "r-max": OptSpec("int", 4),
        "r-max-policy": OptSpec("choice", "fixed", ("fixed", "linear-in-side", "dyadic")),
        "feature-dim": OptSpec("int", 32),
        "value-dim": OptSpec("int", 32),
        "tau": OptSpec("float", 0.05),
        "no-memory": OptSpec("flag", False, help="skip the peak-allocation probe"),
    },
    "weights": {
        "scheme": OptSpec("choice", "learned-sbt", SCHEME_NAMES),
        "partition": OptSpec("choice", "unit-ring", PARTITION_NAMES),
        "grid": OptSpec("int", 9, help="grid side"),
        "query": OptSpec("str", "", help="query position as 'row,col' (1-based; default center)"),
        "r-max": OptSpec("int", 3),
        "tau": OptSpec("float", 0.05),
        "value-dim": OptSpec("int", 8),
        "stick-dim": OptSpec("int", 6),
    },
    "train": {
        "task": OptSpec("choice", "local-majority", ("local-majority", "scattered-clustered")),
        "steps": OptSpec("int", 200),
        "batch": OptSpec("int", 8),
        "lr": OptSpec("float", 0.05),
        "optimizer": OptSpec("choice", "sgd", ("sgd", "adam")),
        "clip": OptSpec("float", 1.0, help="global gradient-norm bound (<= 0 disables)"),
        "grid": OptSpec("int", 8),
        "layers": OptSpec("int", 2),
        "ripple-layers": OptSpec("int", 1),
        "heads": OptSpec("int", 2),
        "model-dim": OptSpec("int", 16),
        "head-dim": OptSpec("int", 8),
        "r-max": OptSpec("int", 3),
        "tau": OptSpec("float", 0.05),
        "scheme": OptSpec("choice", "learned-sbt", SCHEME_NAMES),
        "partition": OptSpec("choice", "unit-ring", PARTITION_NAMES),
    },
}


# ---------- option plumbing ----------

def _coerce(name: str, spec: OptSpec, raw) -> object:
    """Config-file values and CLI strings go through the same validation."""
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if spec.kind == "int":
            return int(text)
        if spec.kind == "float":
            return float(text)
        if spec.kind == "ints":
            return tuple(int(t) for t in text.split(",") if t.strip())
        if spec.kind == "strs":
            return tuple(t.strip() for t in text.split(",") if t.strip())
        if spec.kind == "flag":
            low = text.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if spec.kind == "choice":
            if text not in spec.choices:
                raise ValueError(f"must be one of {', '.join(spec.choices)}")
            return text
        return text
    except ValueError as exc:
        raise UsageError(f"bad value for {name}: {exc}") from None


def _to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _add_options(parser: argparse.ArgumentParser, specs: dict) -> None:
    for name, spec in specs.items():
        flag = "--" + name
        dest = name.replace("-", "_")
        if spec.kind == "flag":
            parser.add_argument(flag, dest=dest, action="store_const", const="true",
                                default=argparse.SUPPRESS, help=spec.help or None)
        else:
            parser.add_argument(flag, dest=dest, default=argparse.SUPPRESS,
                                metavar=spec.kind.upper(), help=spec.help or None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ripplegrid",
        description="spatially weighted linear attention on 2D grids: "
                    "verification, benchmarks, and a training demo")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"check": "DP forward vs the quadratic enumeration oracle",
             "gradcheck": "analytic gradients vs central finite differences",
             "bench": "timing/memory scaling with correctness gates",
             "weights": "inspect spatial weights for one query",
             "train": "train the grid classification demo"}
    for command in SPECS:
        p = sub.add_parser(command, help=helps[command])
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="INI file with [global] and per-command sections")
        _add_options(p, GLOBAL_SPECS)
        _add_options(p, SPECS[command])
    return parser


def _load_config_file(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    read = cp.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    for section in cp.sections():
        if section == "global":
            valid = GLOBAL_SPECS
        elif section in SPECS:
            valid = SPECS[section]
        else:
            raise UsageError(f"unknown config section [{section}]")
        for key in cp[section]:
            norm = key.replace("_", "-")
            if norm not in valid:
                raise UsageError(f"unknown key {key!r} in [{section}]")
    return cp


def _merge(specs: dict, ns: argparse.Namespace, cp: configparser.ConfigParser | None,
           section: str) -> dict:
    """Precedence: command line > config file > built-in default."""
    merged = {}
    for name, spec in specs.items():
        dest = name.replace("-", "_")
        if hasattr(ns, dest):
            merged[name] = _coerce(name, spec, getattr(ns, dest))
        elif cp is not None and cp.has_section(section) and (
                cp.has_option(section, name) or cp.has_option(section, dest)):
            raw = cp.get(section, name if cp.has_option(section, name) else dest)
            merged[name] = _coerce(name, spec, raw)
        else:
            merged[name] = spec.default
    return merged


@dataclass
class RunContext:
    command: str
    seed: int
    dtype: str
    out_root: str
    threads: int
    options: dict
    _run_dir: Path | None = field(default=None, repr=False)

    def run_dir(self) -> Path:
        """Created on first use so usage errors leave no empty directories."""
        if self._run_dir is None:
            stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
            base = Path(self.out_root) / f"{self.command}-{stamp}"
            path, n = base, 1
            while True:
                try:
                    path.mkdir(parents=True, exist_ok=False)
                    break
                except FileExistsError:
                    n += 1
                    path = base.with_name(f"{base.name}-{n}")
            self._run_dir = path
        return self._run_dir


def _write_effective_config(ctx: RunContext) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    cp["global"] = {"seed": str(ctx.seed), "dtype": ctx.dtype,
                    "out": ctx.out_root, "threads": str(ctx.threads)}
    cp[ctx.command] = {name: _to_text(ctx.options[name]) for name in SPECS[ctx.command]}
    with open(ctx.run_dir() / "effective_config.ini", "w") as fh:
        fh.write(f"# replay: ripplegrid {ctx.command} --config <this file>\n")
        fh.write("# rng: pcg64; replay is bitwise with threads = 1\n")
        cp.write(fh)


def _write_manifest(run_dir: Path) -> None:
    lines = []
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        if path.name == "MANIFEST":
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(run_dir).as_posix()}")
    (run_dir / "MANIFEST").write_text("\n".join(lines) + "\n")


# ---------- subcommands ----------

def cmd_check(ctx: RunContext) -> int:
    opts = ctx.options
    if max(opts["sizes"]) > 16 and not opts["force"]:
        raise UsageError("sizes beyond 16 make the quadratic oracle expensive; "
                         "pass --force to run anyway")
    import numpy as np

    from .attention import AttentionConfig, ripple_dp, ripple_naive
    from .featmap import FeatureMapKind, init_feature_map
    from .field import DenseField, write_field
    from .sat import sabotage_radius_offset
    from .vicinal import PartitionKind, PartitionScheme
    from .weights import LEARNED_KINDS, StickParams, WeightScheme, WeightSchemeKind

    kinds = [WeightSchemeKind(s) for s in opts["schemes"]]
    partition = PartitionScheme(kind=PartitionKind(opts["partition"]),
                                r_max=opts["r-max"], tau=opts["tau"])
    np_dtype = np.float32 if ctx.dtype == "f32" else np.float64
    d = 6

    worst = {"rel": -1.0}
    table = {}
    instances = 0
    for size in opts["sizes"]:
        for kind in kinds:
            cell = 0.0
            for trial in range(opts["trials"]):
                instance_seed = ctx.seed * 1_000_003 + instances
                rng = np.random.Generator(np.random.PCG64(instance_seed))
                q, k, v = (rng.standard_normal((size, size, d)).astype(np_dtype)
                           for _ in range(3))
                fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, d, rng)
                stick = None
                if kind in LEARNED_KINDS:
                    stick = StickParams(rng.standard_normal((opts["r-max"], 4)),
                                        rng.standard_normal((4, d)))
                config = AttentionConfig(
                    scheme=WeightScheme(kind=kind, params=stick),
                    partition=partition, featmap=fm, epsilon=opts["epsilon"])
                exact = ripple_naive(q, k, v, config, build_tape=False).out
                if opts["sabotage"]:
                    with sabotage_radius_offset(1):
                        got = ripple_dp(q, k, v, config).out
                else:
                    got = ripple_dp(q, k, v, config).out
                rel = float(np.abs(got - exact).max()
                            / max(float(np.abs(exact).max()), 1e-300))
                cell = max(cell, rel)
                if rel > worst["rel"]:
                    worst = {"rel": rel, "size": size, "scheme": kind.value,
                             "trial": trial, "instance_seed": instance_seed,
                             "arrays": (q, k, v, exact, got)}
                instances += 1
            table[(size, kind.value)] = cell

    tolerance = opts["tolerance"]
    print(f"{'size':>6} {'scheme':<18} {'max rel err':>12}  status")
    for (size, scheme), err in table.items():
        status = "ok" if err < tolerance else "FAIL"
        print(f"{size:>4}x{size:<2} {scheme:<18} {err:>12.3e}  {status}")
    passed = worst["rel"] < tolerance

    run_dir = ctx.run_dir()
    summary = {"subcommand": "check", "instances": instances,
               "tolerance": tolerance, "dtype": ctx.dtype,
               "partition": opts["partition"], "r_max": opts["r-max"],
               "tau": opts["tau"], "epsilon": opts["epsilon"],
               "sabotage": bool(opts["sabotage"]),
               "max_rel_error": worst["rel"],
               "worst": {k: worst[k] for k in ("size", "scheme", "trial", "instance_seed")},
               "passed": passed}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if not passed:
        names = ("q", "k", "v", "exact", "got")
        for name, arr in zip(names, worst["arrays"]):
            arr = np.asarray(arr, dtype=np.float64)
            if np.isfinite(arr).all():
                write_field(run_dir / f"worst_{name}.rplt", DenseField.from_array(arr))
        print(f"FAIL: max relative error {worst['rel']:.3e} >= {tolerance:.1e} "
              f"(worst instance dumped to {run_dir})", file=sys.stderr)
        return 1
    print(f"ok: {instances} instances within {tolerance:.1e}")
    return 0


def _gradcheck_problem(scope: str, seed: int, side: int):
    """Returns (loss_fn, params, default_mode). loss_fn obeys the
    finite_diff_check contract: params dict -> (loss, grads dict)."""
    import numpy as np

    from .attention import AttentionConfig, ripple_dp
    from .featmap import FeatureMapKind, FeatureMapParams, feature_forward, feature_vjp, init_feature_map
    from .grad import ripple_vjp
    from .vicinal import GridShape, PartitionKind, PartitionScheme
    from .weights import StickParams, WeightScheme, WeightSchemeKind

    rng = np.random.Generator(np.random.PCG64(seed))
    d = 4
    partition = PartitionScheme(kind=PartitionKind.UNIT_RING, r_max=2, tau=0.05)

    if scope == "featmap":
        x = rng.standard_normal((side, side, d))
        fm0 = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, d, rng)
        gseed = rng.standard_normal((side, side, fm0.out_dim))
        params = {"w1": fm0.w1, "w2": fm0.w2, "b2": fm0.b2}

        def loss_fn(p):
            fm = FeatureMapParams(kind=fm0.kind, w1=p["w1"], w2=p["w2"], b2=p["b2"])
            phi = feature_forward(x, fm)
            g = feature_vjp(x, fm, gseed)
            return float((phi * gseed).sum()), {"w1": g.grad_w1, "w2": g.grad_w2,
                                                "b2": g.grad_b2}
        return loss_fn, params, "full"

    if scope in ("weights", "attention"):
        q, k, v = (rng.standard_normal((side, side, d)) for _ in range(3))
        fm0 = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, d, rng)
        emb = rng.standard_normal((2, 3))
        proj = rng.standard_normal((3, d))
        gseed = rng.standard_normal((side, side, d))

        def run(p):
            stick = StickParams(p["emb"], p["proj"])
            fm = FeatureMapParams(kind=fm0.kind, w1=p.get("w1", fm0.w1),
                                  w2=p.get("w2", fm0.w2), b2=p.get("b2", fm0.b2))
            config = AttentionConfig(
                scheme=WeightScheme(kind=WeightSchemeKind.LEARNED_SBT, params=stick),
                partition=partition, featmap=fm)
            res = ripple_dp(p.get("q", q), p.get("k", k), p.get("v", v), config)
            grads = ripple_vjp(res.tape, gseed)
            return float((res.out * gseed).sum()), grads

        if scope == "weights":
            params = {"emb": emb, "proj": proj}

            def loss_fn(p):
                loss, g = run(p)
                return loss, {"emb": g.stick.unit_embeddings,
                              "proj": g.stick.value_projection}
        else:
            params = {"q": q, "k": k, "v": v, "w1": fm0.w1, "w2": fm0.w2,
                      "b2": fm0.b2, "emb": emb, "proj": proj}

            def loss_fn(p):
                loss, g = run(p)
                return loss, {"q": g.grad_q, "k": g.grad_k, "v": g.grad_v,
                              "w1": g.featmap.w1, "w2": g.featmap.w2,
                              "b2": g.featmap.b2,
                              "emb": g.stick.unit_embeddings,
                              "proj": g.stick.value_projection}
        return loss_fn, params, "full"

    # model scope
    from .toymodel import ToyModelConfig, init_model, loss_and_grads, make_local_majority_batch

    # epsilon 1e-3: the attention quotient's curvature scales like 1/den^2,
    # and central differences at step 1e-5 lose ~3 digits to it when den can
    # reach the default 1e-6. The gradient formula itself is epsilon-blind.
    config = ToyModelConfig(height=side, width=side, model_dim=8, num_heads=2,
                            head_dim=4, num_layers=2, ripple_layers=1, r_max=2,
                            epsilon=1e-3)
    params = init_model(config, seed=seed)
    data_rng = np.random.Generator(np.random.PCG64(seed + 1))
    imgs, labels = make_local_majority_batch(data_rng, 2, GridShape(side, side))

    def loss_fn(p):
        loss, grads, _ = loss_and_grads(imgs, labels, p, config)
        return loss, grads
    return loss_fn, params, "sample"


def cmd_gradcheck(ctx: RunContext) -> int:
    opts = ctx.options
    import numpy as np

    from .grad import finite_diff_check

    scope = opts["scope"]
    tolerance = opts["tolerance"]
    if tolerance <= 0.0:
        tolerance = {"featmap": 1e-6, "weights": 1e-4,
                     "attention": 1e-4, "model": 1e-3}[scope]
    step = opts["step"]
    if step <= 0.0:
        # the model stacks many ReLU units, so a wide central difference can
        # straddle a kink; 3e-6 stays one-sided on the default instances
        step = 3e-6 if scope == "model" else 1e-5
    loss_fn, params, default_mode = _gradcheck_problem(scope, ctx.seed, opts["grid"])
    mode = default_mode if opts["mode"] == "auto" else opts["mode"]

    def checked_loss_fn(p):
        loss, grads = loss_fn(p)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite loss {loss} in scope {scope!r}")
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for {name!r}")
        return loss, grads

    run_dir = ctx.run_dir()
    try:
        report = finite_diff_check(checked_loss_fn, params, step=step,
                                   tolerance=tolerance, mode=mode,
                                   sample=opts["sample"],
                                   rng=np.random.default_rng(ctx.seed + 2))
    except FloatingPointError as exc:
        (run_dir / "report.json").write_text(json.dumps(
            {"scope": scope, "passed": False, "error": str(exc)}, indent=2) + "\n")
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1

    print(f"scope {scope}: {report}")
    payload = {"scope": scope, "passed": bool(report.passed),
               "tolerance": report.tolerance, "mode": mode,
               "max_rel_error": report.max_rel_error,
               "worst_param": report.worst_param,
               "worst_index": list(report.worst_index),
               "checked": report.checked, "loss": report.loss,
               "per_param": report.per_param}
    (run_dir / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if report.passed else 1


def cmd_bench(ctx: RunContext) -> int:
    opts = ctx.options
    import math

    from .bench import BenchPlan, run_bench, summarize, write_csv

    sides = []
    for tokens in opts["sizes"]:
        side = math.isqrt(tokens)
        if side * side != tokens:
            raise UsageError(f"token count {tokens} is not a perfect square")
        sides.append(side)
    try:
        plan = BenchPlan(variants=tuple(opts["variants"]), sizes=tuple(sides),
                         batch=opts["batch"], reps=opts["repetitions"],
                         warmup=opts["warmup"], dtype=ctx.dtype,
                         r_max=opts["r-max"], r_max_policy=opts["r-max-policy"],
                         feature_dim=opts["feature-dim"],
                         value_dim=opts["value-dim"], tau=opts["tau"],
                         seed=ctx.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    records = run_bench(plan, probe_memory=not opts["no-memory"])

    run_dir = ctx.run_dir()
    write_csv(records, run_dir / "bench.csv")
    summary = summarize(records, plan)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"{'variant':<12} {'tokens':>7} {'median ms':>10} {'peak MiB':>9}")
    for r in records:
        if r.status != "ok":
            print(f"{r.variant:<12} {r.tokens:>7} {'skipped':>10}")
            continue
        print(f"{r.variant:<12} {r.tokens:>7} {r.median_ns / 1e6:>10.3f} "
              f"{r.peak_bytes / 2**20:>9.2f}")
    for variant, fit in summary["slopes"].items():
        lo, hi = fit["ci"]
        print(f"slope {variant}: {fit['slope']:.3f} (95% ci {lo:.3f}..{hi:.3f}, "
              f"r^2 {fit['r_squared']:.4f})")
    return 0


def cmd_weights(ctx: RunContext) -> int:
    opts = ctx.options
    import numpy as np

    from .vicinal import GridShape, PartitionKind, PartitionScheme, group_index
    from .weights import (LEARNED_KINDS, StickParams, WeightScheme, WeightSchemeKind,
                          jsd_grid, scheme_weights_grid)

    side = opts["grid"]
    shape = GridShape(side, side)
    if opts["query"]:
        try:
            row, col = (int(t) for t in opts["query"].split(","))
        except ValueError:
            raise UsageError("query must be 'row,col'") from None
        if not (1 <= row <= side and 1 <= col <= side):
            raise UsageError(f"query out of range for a {side}x{side} grid")
    else:
        row = col = (side + 1) // 2
    query = (row, col)

    partition = PartitionScheme(kind=PartitionKind(opts["partition"]),
                                r_max=opts["r-max"], tau=opts["tau"])
    kind = WeightSchemeKind(opts["scheme"])
    rng = np.random.Generator(np.random.PCG64(ctx.seed))
    v = rng.standard_normal((side, side, opts["value-dim"]))
    stick = None
    if kind in LEARNED_KINDS:
        stick = StickParams(rng.standard_normal((opts["r-max"], opts["stick-dim"])),
                            rng.standard_normal((opts["stick-dim"], opts["value-dim"])))
    wg = scheme_weights_grid(WeightScheme(kind=kind, params=stick), v, shape, partition)
    sw = wg.at(query)
    ref = scheme_weights_grid(WeightScheme(kind=WeightSchemeKind.FIXED_EXPONENTIAL),
                              v, shape, partition)
    mean_jsd = float(jsd_grid(wg.alphas, ref.alphas, wg.groups).mean())

    print(f"scheme {kind.value}, {opts['partition']} partition, "
          f"query ({row},{col}) on {side}x{side}")
    print("alpha:", " ".join(f"{a:.6f}" for a in sw.alphas))
    print(f"hat_r: {sw.hat_r}  merged: {sw.merged_weight:.6f}  "
          f"sum: {sw.alphas.sum():.9f}")
    print(f"mean JSD vs fixed-exponential: {mean_jsd:.6f}")

    dist = np.empty((side, side))
    for m in range(1, side + 1):
        for n in range(1, side + 1):
            dist[m - 1, n - 1] = sw.alphas[group_index(partition, query, (m, n))]
    run_dir = ctx.run_dir()
    with open(run_dir / "alpha_grid.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for m in range(side):
            writer.writerow([f"{x:.12g}" for x in dist[m]])
    print(f"per-position weight grid: {run_dir / 'alpha_grid.csv'}")
    return 0


def cmd_train(ctx: RunContext) -> int:
    opts = ctx.options
    import numpy as np

    from .field import DenseField, write_field
    from .toymodel import (ToyModelConfig, init_model, loss_and_grads,
                           make_local_majority_batch, make_scattered_clustered_batch,
                           train_demo)
    from .vicinal import GridShape, PartitionKind
    from .weights import WeightSchemeKind

    config = ToyModelConfig(height=opts["grid"], width=opts["grid"],
                            model_dim=opts["model-dim"], num_heads=opts["heads"],
                            head_dim=opts["head-dim"], num_layers=opts["layers"],
                            ripple_layers=opts["ripple-layers"],
                            r_max=opts["r-max"], tau=opts["tau"],
                            partition_kind=PartitionKind(opts["partition"]),
                            scheme_kind=WeightSchemeKind(opts["scheme"]))
    params = init_model(config, seed=ctx.seed)
    rows: list[dict] = []
    failure = None
    if opts["steps"] == 0:
        makers = {"local-majority": make_local_majority_batch,
                  "scattered-clustered": make_scattered_clustered_batch}
        rng = np.random.Generator(np.random.PCG64(ctx.seed + 1))
        imgs, labels = makers[opts["task"]](rng, opts["batch"],
                                            GridShape(config.height, config.width))
        loss, _, aux = loss_and_grads(imgs, labels, params, config)
        rows.append({"step": 0, "loss": float(loss),
                     "accuracy": float(aux["accuracy"]),
                     "mean_jsd": float(aux["mean_jsd"])})
    else:
        try:
            train_demo(config, task=opts["task"], steps=opts["steps"],
                       batch=opts["batch"], seed=ctx.seed,
                       optimizer=opts["optimizer"], lr=opts["lr"],
                       clip=opts["clip"], log=rows.append, params=params)
        except FloatingPointError as exc:
            failure = str(exc)

    run_dir = ctx.run_dir()
    with open(run_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=("step", "loss", "accuracy", "mean_jsd"))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
    if failure is not None:
        print(f"FAIL: {failure} ({len(rows)} steps logged)", file=sys.stderr)
        return 1

    ckpt = run_dir / "checkpoint"
    ckpt.mkdir()
    for name in sorted(params):
        write_field(ckpt / f"{name}.rplt", DenseField.from_array(params[name]))
    if rows:
        first, last = rows[0], rows[-1]
        print(f"steps {len(rows)}: loss {first['loss']:.4f} -> {last['loss']:.4f}, "
              f"accuracy {last['accuracy']:.3f}, mean JSD {last['mean_jsd']:.4f}")
    print(f"metrics: {run_dir / 'metrics.csv'}  checkpoint: {ckpt}")
    return 0


_COMMANDS = {"check": cmd_check, "gradcheck": cmd_gradcheck, "bench": cmd_bench,
             "weights": cmd_weights, "train": cmd_train}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    ctx = None
    try:
        cp = _load_config_file(ns.config) if hasattr(ns, "config") else None
        glob = _merge(GLOBAL_SPECS, ns, cp, "global")
        options = _merge(SPECS[ns.command], ns, cp, ns.command)
        if glob["threads"] >= 1:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ.setdefault(var, str(glob["threads"]))
        ctx = RunContext(command=ns.command, seed=glob["seed"], dtype=glob["dtype"],
                         out_root=glob["out"], threads=glob["threads"],
                         options=options)
        code = _COMMANDS[ns.command](ctx)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if ctx is not None and ctx._run_dir is not None:
            _write_effective_config(ctx)
            _write_manifest(ctx.run_dir())
            print(f"artifacts: {ctx.run_dir()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
