"""What the numbers were measured on: library versions, thread pins, CPUs,
caches and the source revision. Cache sizes are read from sysfs; nothing is
changed."""
from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIB = 1 << 20


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def caches() -> dict:
    """Data/unified cache levels: size of one instance, how many instances
    serve the CPUs this process may use, and their total."""
    levels: dict[int, dict] = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        base = Path(f"/sys/devices/system/cpu/cpu{cpu}/cache")
        for index in sorted(base.glob("index*")):
            kind, level, size, shared = (_read(index / f) for f in
                                         ("type", "level", "size", "shared_cpu_list"))
            if None in (kind, level, size, shared) or kind == "Instruction":
                continue
            entry = levels.setdefault(int(level), {"instance_bytes": _size_bytes(size),
                                                   "shared": set()})
            entry["shared"].add(shared)
    return {f"L{lvl}": {"instance_bytes": e["instance_bytes"], "instances": len(e["shared"]),
                        "total_bytes": e["instance_bytes"] * len(e["shared"])}
            for lvl, e in sorted(levels.items())}


def cpu_model() -> str:
    info = _read(Path("/proc/cpuinfo")) or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str:
    """HEAD of the source tree, read from .git without running git; an
    exported tree has no .git and reports 'unknown'."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def describe(root: Path) -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "caches": caches(), "git_sha": git_sha(root)}


def working_set_lines(items: list[tuple[str, int]], cache: dict) -> list[str]:
    """Each array size beside the total L2 and L3 it competes for."""
    l2 = cache.get("L2", {}).get("total_bytes")
    l3 = cache.get("L3", {}).get("total_bytes")
    lines = []
    for label, size in items:
        parts = [f"{label}: {size / 1e6:.3f} MB"]
        if l2:
            parts.append(f"{size / l2:.2f}x total L2 ({l2 / MIB:.0f} MiB)")
        if l3:
            parts.append(f"{size / l3:.3f}x L3 ({l3 / MIB:.0f} MiB)")
        lines.append(", ".join(parts))
    if l3:
        lines.append(f"no workload here exceeds the {l3 / MIB:.0f} MiB L3: an array that "
                     f"large would need a grid side no forward here finishes in a run")
    return lines
