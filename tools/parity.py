"""Compare this checkout's outputs and gradients, array by array, with another tree's.

    python3 tools/parity.py --base DIR

``--base`` is a source tree of the commit to compare against, for example
made with ``git archive SHA | tar -x -C DIR``. Each tree runs in its own
single-threaded Python process and builds its inputs from its own
``perfbench/workloads.py`` classes, seeds 1-3. It collects the
``ring-fwd-48`` output, the ``dyadic-fwdbwd-32`` output with every array of
its ``ripple_vjp`` gradients, and the ``toy-train-8`` loss with every
``loss_and_grads`` gradient on the unit's first batch. For each array it
prints "bitwise", or max |diff| / max |base|; nothing here is a gate.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _arrays(prefix: str, value) -> dict:
    """Every array in a gradient dataclass or dict, by dotted name."""
    if isinstance(value, np.ndarray):
        return {prefix: value}
    fields = value if isinstance(value, dict) else vars(value)
    out = {}
    for name, item in fields.items():
        if item is not None:
            out.update(_arrays(f"{prefix}.{name}", item))
    return out


def collect(tree: str, out: str) -> None:
    """Run the workloads of ``tree`` on its own source and save their arrays to ``out``."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import workloads
    api = workloads.Api()
    if Path(api.rg.__file__).resolve().parents[2] != Path(tree).resolve():
        raise SystemExit(f"error: imported ripplegrid from {api.rg.__file__}")
    arrays = {}
    for seed in SEEDS:
        arrays[f"{seed} ring-fwd-48 out"] = workloads.RingForward(api, seed).unit().out
        res, grads = workloads.DyadicTrainStep(api, seed).unit()
        arrays[f"{seed} dyadic-fwdbwd-32 out"] = res.out
        arrays.update(_arrays(f"{seed} dyadic-fwdbwd-32 vjp", grads))
        toy = workloads.ToyTrainStep(api, seed)
        imgs, labels = api.toymodel.make_local_majority_batch(toy.rng, toy.batch, toy.shape)
        loss, grads, _ = api.toymodel.loss_and_grads(imgs, labels, dict(toy.init_params),
                                                     toy.cfg)
        arrays[f"{seed} toy-train-8 loss"] = np.asarray(loss)
        arrays.update(_arrays(f"{seed} toy-train-8 grads", grads))
    np.savez(out, **arrays)


def _run(tree: Path, out: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import parity; "
            f"parity.collect({str(tree)!r}, {str(out)!r})")
    subprocess.run([sys.executable, "-c", code], env=env, cwd=tree, check=True)
    with np.load(out) as saved:
        return dict(saved)


def agreement(got: np.ndarray, base: np.ndarray) -> str:
    """"bitwise", or the largest difference relative to the base's largest entry."""
    if got.shape != base.shape:
        return f"shape {got.shape} against {base.shape}"
    if got.dtype == base.dtype and got.tobytes() == base.tobytes():
        return "bitwise"
    scale = float(np.abs(base).max(initial=0.0))
    return f"{float(np.abs(got - base).max()) / (scale or 1.0):.2e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="source tree of the commit to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        head = _run(ROOT, Path(scratch) / "head.npz")
        base = _run(args.base.resolve(), Path(scratch) / "base.npz")
    bitwise = 0
    for name in sorted(head.keys() | base.keys()):
        if name not in head or name not in base:
            line = "only in " + ("this checkout" if name in head else "the base")
        else:
            line = agreement(head[name], base[name])
        bitwise += line == "bitwise"
        print(f"{name}: {line}")
    print(f"{bitwise} of {len(head.keys() | base.keys())} arrays bitwise equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
