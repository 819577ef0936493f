"""tools/parity.py, run against this checkout itself, finds every array
bitwise equal: the runs are deterministic and the report covers every
workload and seed."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_parity_of_a_tree_with_itself_is_bitwise():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py"), "--base", str(ROOT)],
                         capture_output=True, text=True, check=True).stdout
    *lines, summary = out.splitlines()
    results = dict(line.rsplit(": ", 1) for line in lines)
    assert set(results.values()) == {"bitwise"}
    for seed in (1, 2, 3):
        for name in ("ring-fwd-48 out", "dyadic-fwdbwd-32 out", "dyadic-fwdbwd-32 vjp.grad_v",
                     "dyadic-fwdbwd-32 vjp.stick.value_projection", "toy-train-8 loss"):
            assert f"{seed} {name}" in results
    assert summary == f"{len(lines)} of {len(lines)} arrays bitwise equal"
