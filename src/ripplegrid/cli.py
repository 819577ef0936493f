"""Command-line driver: ``check`` sweeps the prefix-sum forward against the
quadratic enumeration oracle, ``train`` runs the grid classification demo.
Gradient audits live in the test suite and speed measurements in
``perfbench/run.py``.

Every run writes its artifacts under a fresh timestamped directory containing
an effective_config.ini (rerunnable via --config, bitwise with --threads 1)
and a MANIFEST of sha256 file hashes. Arrays are saved as .npz files that
load with ``np.load(path, allow_pickle=False)``: a failing ``check`` writes
worst.npz (q, k, v, exact, got of the worst instance) and ``train`` writes
checkpoint.npz (one array per parameter name; after a divergence, the
parameters from before the failing step). A diverged ``train`` also writes
failure.json with the seed, the failing step, the task, batch size and grid
side, and the error: the step's batch is the (step + 1)-th that the task
draws from PCG64(seed + 1), so loss_and_grads on it and the checkpoint
replays a failure in the forward. Exit codes: 0 success, 1 check,
criterion or training failure, 2 usage error.

--threads is command-line only: the ripplegrid_cli entry point pins the BLAS
thread count before numpy loads, which is before any config file is read.
For the same reason this module refuses to run as ``python -m ripplegrid.cli``:
the package import has loaded numpy before anything could pin threads.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .attention import AttentionConfig, ripple_dp, ripple_naive
from .featmap import FeatureMapKind, init_feature_map
from .sat import sabotage_radius_offset
from .toymodel import (ROW_KEYS, TASK_MIN_GRID, TASKS, ToyModelConfig, clip_grad_norm,
                       init_model, loss_and_grads, train_demo, training_row)
from .vicinal import GridShape, PartitionKind, PartitionScheme
from .weights import LEARNED_KINDS, StickParams, WeightScheme, WeightSchemeKind


class UsageError(Exception):
    pass


# ---------- options ----------

def _strs(text: str) -> tuple:
    items = tuple(t.strip() for t in text.split(",") if t.strip())
    if not items:
        raise argparse.ArgumentTypeError("needs at least one comma-separated item")
    return items


def _choice(*names: str):
    """A type function rather than choices=: argparse runs ``type`` on string
    defaults too, so config-file values get the same check as flags."""
    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(f"must be one of {', '.join(names)}")
        return text
    return parse


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names it in "invalid int value"
    return parse


_positive_int = _int_at_least(1)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:      # nan fails both
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not abs(value) < np.inf:      # nan fails too
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


# argparse names them in "invalid float value"
_positive_float.__name__ = _finite_float.__name__ = "float"


def _positive_ints(text: str) -> tuple:
    return tuple(_positive_int(t) for t in _strs(text))


SCHEME_NAMES = ("uniform", "fixed-exponential", "learned-sbt", "truncated", "softmax")
SCHEME = _choice(*SCHEME_NAMES)
PARTITION = _choice("unit-ring", "dyadic")


def _schemes(text: str) -> tuple:
    return tuple(SCHEME(t) for t in _strs(text))


# add_argument keyword arguments per option; each name is also a config-file
# key (--config and --threads are command line only)
GLOBAL_OPTIONS = {
    "seed": dict(type=int, default=0, help="base RNG seed"),
    "out": dict(type=str, default="runs", help="parent directory for run artifacts"),
}

OPTIONS = {
    "check": {
        "sizes": dict(type=_positive_ints, default=(4, 6, 9, 12), help="grid sides to test"),
        "schemes": dict(type=_schemes, default=SCHEME_NAMES, help="weight schemes to test"),
        "partition": dict(type=PARTITION, default="unit-ring"),
        "trials": dict(type=_positive_int, default=3, help="random instances per (size, scheme)"),
        "tolerance": dict(type=_positive_float, default=1e-8, help="max relative error accepted"),
        "r-max": dict(type=_positive_int, default=3),
        "tau": dict(type=float, default=0.05),
        "epsilon": dict(type=float, default=1e-6),
        "dtype": dict(type=_choice("f32", "f64"), default="f64", help="input dtype"),
        "force": dict(action="store_true",
                      help="allow sizes beyond the quadratic-oracle guardrail (16)"),
        "sabotage": dict(action="store_true",
                         help="corrupt the prefix tables (harness self-test; must fail)"),
    },
    "train": {
        "task": dict(type=_choice(*TASKS), default="local-majority"),
        "steps": dict(type=_int_at_least(0), default=200),
        "batch": dict(type=_positive_int, default=8),
        "lr": dict(type=_positive_float, default=0.05),
        "optimizer": dict(type=_choice("sgd", "adam"), default="sgd"),
        "clip": dict(type=_finite_float, default=1.0,
                     help="global gradient-norm bound (<= 0 disables)"),
        "grid": dict(type=_int_at_least(2), default=8,
                     help="grid side (tasks draw blobs of at least 2x2)"),
        "layers": dict(type=_int_at_least(0), default=2),
        "ripple-layers": dict(type=_int_at_least(0), default=1),
        "heads": dict(type=_positive_int, default=2),
        "model-dim": dict(type=_positive_int, default=16),
        "head-dim": dict(type=_positive_int, default=8),
        "r-max": dict(type=_positive_int, default=3),
        "tau": dict(type=float, default=0.05),
        "scheme": dict(type=SCHEME, default="learned-sbt"),
        "partition": dict(type=PARTITION, default="unit-ring"),
    },
}

HELPS = {"check": "DP forward vs the quadratic enumeration oracle",
         "train": "train the grid classification demo"}


def _dest(name: str) -> str:
    return name.replace("-", "_")


def _to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="ripplegrid",
        description="spatially weighted linear attention on 2D grids: "
                    "oracle checks and a training demo")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        # no abbreviated flags: the entry point finds --threads by its full
        # spelling before this parser exists
        p = sub.add_parser(command, help=HELPS[command], allow_abbrev=False)
        p.add_argument("--config", help="INI file with [global] and per-command sections")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="BLAS thread count (1 = bitwise replay; command line only)")
        for name, kwargs in {**GLOBAL_OPTIONS, **options}.items():
            p.add_argument("--" + name, **kwargs)
    return parser, sub.choices


def _config_defaults(path: str, command: str) -> dict:
    """Every section and key of the INI file checked against the option
    tables; the [global] and [command] values keyed by option dest."""
    cp = configparser.ConfigParser(interpolation=None)
    if not cp.read(path):
        raise UsageError(f"config file not found: {path}")
    defaults = {}
    for section in cp.sections():
        if section == "global":
            table = GLOBAL_OPTIONS
        elif section in OPTIONS:
            table = OPTIONS[section]
        else:
            raise UsageError(f"unknown config section [{section}]")
        for key in cp[section]:
            name = key.replace("_", "-")
            if name == "threads":
                raise UsageError(f"{key!r} in [{section}]: the BLAS thread count is "
                                 "pinned before config files are read; pass --threads")
            if name not in table:
                raise UsageError(f"unknown key {key!r} in [{section}]")
            if section not in ("global", command):
                continue
            try:
                flag = table[name].get("action") == "store_true"
                defaults[_dest(name)] = (cp.getboolean(section, key) if flag
                                         else cp.get(section, key))
            except ValueError as exc:
                raise UsageError(f"bad value for {key!r} in [{section}]: {exc}") from None
    return defaults


def _parse_args(argv) -> argparse.Namespace:
    """Precedence: command line > config file > built-in default."""
    parser, commands = _build_parser()
    opts = parser.parse_args(argv)
    if opts.config is not None:
        sub = commands[opts.command]
        try:
            sub.set_defaults(**_config_defaults(opts.config, opts.command))
        except (UsageError, configparser.Error) as exc:
            sub.error(str(exc))
        opts = parser.parse_args(argv)
    if opts.command == "train" and opts.grid < TASK_MIN_GRID[opts.task]:
        commands["train"].error(f"argument --grid: the {opts.task} task needs a grid of "
                                f"at least {TASK_MIN_GRID[opts.task]}, got {opts.grid}")
    return opts


@dataclass
class RunContext:
    opts: argparse.Namespace
    _run_dir: Path | None = field(default=None, repr=False)

    def run_dir(self) -> Path:
        """Created on first use so usage errors leave no empty directories."""
        if self._run_dir is None:
            stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
            base = Path(self.opts.out) / f"{self.opts.command}-{stamp}"
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
    opts = ctx.opts
    cp = configparser.ConfigParser(interpolation=None)
    for section, table in (("global", GLOBAL_OPTIONS), (opts.command, OPTIONS[opts.command])):
        cp[section] = {name: _to_text(getattr(opts, _dest(name))) for name in table}
    with open(ctx.run_dir() / "effective_config.ini", "w") as fh:
        fh.write(f"# replay: ripplegrid {opts.command} --config <this file>\n")
        fh.write(f"# rng: pcg64; ran with --threads {opts.threads}; "
                 "replay is bitwise with --threads 1\n")
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
    opts = ctx.opts
    if max(opts.sizes) > 16 and not opts.force:
        raise UsageError("sizes beyond 16 make the quadratic oracle expensive; "
                         "pass --force to run anyway")
    kinds = [WeightSchemeKind(s) for s in opts.schemes]
    partition = PartitionScheme(kind=PartitionKind(opts.partition),
                                r_max=opts.r_max, tau=opts.tau)
    np_dtype = np.float32 if opts.dtype == "f32" else np.float64
    d = 6

    worst = {"rel": -1.0}
    table = {}
    instances = 0
    for size in opts.sizes:
        for kind in kinds:
            cell = 0.0
            for trial in range(opts.trials):
                instance_seed = opts.seed * 1_000_003 + instances
                rng = np.random.Generator(np.random.PCG64(instance_seed))
                q, k, v = (rng.standard_normal((size, size, d)).astype(np_dtype)
                           for _ in range(3))
                fm = init_feature_map(FeatureMapKind.DETERMINISTIC_ADAPTIVE, d, rng)
                stick = None
                if kind in LEARNED_KINDS:
                    stick = StickParams(rng.standard_normal((opts.r_max, 4)),
                                        rng.standard_normal((4, d)))
                config = AttentionConfig(
                    scheme=WeightScheme(kind=kind, params=stick),
                    partition=partition, featmap=fm, epsilon=opts.epsilon)
                exact = ripple_naive(q, k, v, config, build_tape=False).out
                if opts.sabotage:
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

    tolerance = opts.tolerance
    print(f"{'size':>6} {'scheme':<18} {'max rel err':>12}  status")
    for (size, scheme), err in table.items():
        status = "ok" if err < tolerance else "FAIL"
        print(f"{size:>4}x{size:<2} {scheme:<18} {err:>12.3e}  {status}")
    passed = worst["rel"] < tolerance

    run_dir = ctx.run_dir()
    summary = {"subcommand": "check", "instances": instances,
               "tolerance": tolerance, "dtype": opts.dtype,
               "partition": opts.partition, "r_max": opts.r_max,
               "tau": opts.tau, "epsilon": opts.epsilon,
               "sabotage": bool(opts.sabotage),
               "max_rel_error": worst["rel"],
               "worst": {k: worst[k] for k in ("size", "scheme", "trial", "instance_seed")},
               "passed": passed}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if not passed:
        np.savez(run_dir / "worst.npz", **dict(zip(("q", "k", "v", "exact", "got"),
                                                   worst["arrays"])))
        print(f"FAIL: max relative error {worst['rel']:.3e} >= {tolerance:.1e} "
              f"(worst instance dumped to {run_dir / 'worst.npz'})", file=sys.stderr)
        return 1
    print(f"ok: {instances} instances within {tolerance:.1e}")
    return 0


def _train_config(opts: argparse.Namespace) -> ToyModelConfig:
    """The model that ``train`` options describe."""
    return ToyModelConfig(height=opts.grid, width=opts.grid,
                          model_dim=opts.model_dim, num_heads=opts.heads,
                          head_dim=opts.head_dim, num_layers=opts.layers,
                          ripple_layers=opts.ripple_layers,
                          r_max=opts.r_max, tau=opts.tau,
                          partition_kind=PartitionKind(opts.partition),
                          scheme_kind=WeightSchemeKind(opts.scheme))


def cmd_train(ctx: RunContext) -> int:
    opts = ctx.opts
    config = _train_config(opts)
    params = init_model(config, seed=opts.seed)
    rows: list[dict] = []
    failure = None
    if opts.steps == 0:
        rng = np.random.Generator(np.random.PCG64(opts.seed + 1))
        imgs, labels = TASKS[opts.task](rng, opts.batch,
                                        GridShape(config.height, config.width))
        loss, grads, aux = loss_and_grads(imgs, labels, params, config)
        rows.append(training_row(0, loss, aux, clip_grad_norm(grads, np.inf)))
    else:
        try:
            train_demo(config, task=opts.task, steps=opts.steps,
                       batch=opts.batch, seed=opts.seed,
                       optimizer=opts.optimizer, lr=opts.lr,
                       clip=opts.clip, log=rows.append, params=params)
        except FloatingPointError as exc:
            failure = str(exc)

    run_dir = ctx.run_dir()
    with open(run_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_KEYS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
    ckpt = run_dir / "checkpoint.npz"
    np.savez(ckpt, **params)        # on failure, the parameters from before the failing step
    if failure is not None:
        # train_demo logs every step it finishes, so the failing one is the next
        replay = {"seed": opts.seed, "step": len(rows), "task": opts.task,
                  "batch": opts.batch, "grid": opts.grid, "error": failure}
        (run_dir / "failure.json").write_text(json.dumps(replay, indent=2) + "\n")
        print(f"FAIL: {failure} ({len(rows)} steps logged)", file=sys.stderr)
        return 1
    if rows:
        first, last = rows[0], rows[-1]
        print(f"steps {len(rows)}: loss {first['loss']:.4f} -> {last['loss']:.4f}, "
              f"accuracy {last['accuracy']:.3f}, mean JSD {last['mean_jsd']:.4f}")
    print(f"metrics: {run_dir / 'metrics.csv'}  checkpoint: {ckpt}")
    return 0


_COMMANDS = {"check": cmd_check, "train": cmd_train}


def main(argv=None) -> int:
    try:
        ctx = RunContext(_parse_args(argv))
    except SystemExit as exc:          # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[ctx.opts.command](ctx)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if ctx._run_dir is not None:
            _write_effective_config(ctx)
            _write_manifest(ctx.run_dir())
            print(f"artifacts: {ctx.run_dir()}")


if __name__ == "__main__":
    print("error: numpy is already loaded, so --threads cannot take effect; "
          "run `ripplegrid` or `python -m ripplegrid_cli` instead", file=sys.stderr)
    sys.exit(2)
