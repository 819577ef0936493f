"""Count the lines of src/: the runtime, the reference module and the total.

    python3 tools/src_lines.py

The runtime is every file under src/ except ripplegrid/reference.py, which
holds the oracles, the scalar twins and the scaling harness; the console
shim src/ripplegrid_cli.py counts as runtime. Each count is given twice:
all lines, and code lines only, which leave out blank lines, comment-only
lines and the lines of docstrings: every statement that is a string
alone, such as the one opening a module, class or function, or the one
under a module constant.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE = SRC / "ripplegrid" / "reference.py"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The lines of every statement that is a string alone."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python file."""
    text = path.read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> int:
    rows = {"runtime": [0, 0], "reference": [0, 0], "total": [0, 0]}
    for path in sorted(SRC.rglob("*.py")):
        part = "reference" if path == REFERENCE else "runtime"
        for key in (part, "total"):
            rows[key] = [a + b for a, b in zip(rows[key], counts(path))]
    print(f"{'':<10} {'lines':>6} {'code':>6}")
    for name, (lines, code) in rows.items():
        print(f"{name:<10} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
