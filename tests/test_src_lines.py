"""tools/src_lines.py splits src/ into runtime and reference lines that add
up to the total, in both of its counts."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def test_runtime_plus_reference_is_the_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         check=True).stdout
    rows = {line.split()[0]: [int(n) for n in line.split()[1:]]
            for line in out.splitlines()[1:]}
    assert sorted(rows) == ["reference", "runtime", "total"]
    assert all(0 < code < lines for lines, code in rows.values())
    assert [a + b for a, b in zip(rows["runtime"], rows["reference"])] == rows["total"]
