"""Every top-level function and method of the core modules has a caller in
the package, or is named in REFERENCES with the reason it is kept anyway.

References are read from the source with ``ast``: a name counts as used
when some module under src/ other than a package ``__init__`` loads it as a
plain name or as an attribute. Exports alone do not count.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("sat", "attention", "grad", "weights", "vicinal", "featmap", "bench",
           "toymodel", "cli")

REFERENCES = {
    "scheme_weights": "scalar oracle that scheme_weights_grid is tested against",
    "adaptive_truncate": "scalar oracle for the tau halting of learned weights",
    "jsd": "scalar oracle that jsd_grid is tested against",
    "num_groups": "scalar oracle that num_groups_grid is tested against",
    "grad_alpha": "per-group weight gradient, audited by central differences",
    "grad_pixels": "token adjoint on fresh buffers; the blocked backward runs "
                   "its core on kept ones, and the tests audit that core through it",
    "grad_pixels_reference": "quadratic scatter oracle for grad_pixels",
    "ripple_softmax_reference": "quadratic per-group softmax reference semantics",
    "linearized_attention": "flat-sequence form of the factorized quotient",
    "init_multi_head": "parameter initializer for the multi-head wrapper",
    "fetch_count": "read by the fetch budgets of the scaling tests",
    "reset_fetch_count": "zeroes the fetch counter before a measured pass",
    "run_bench": "scaling harness of acceptance criteria 4 and 5",
    "finite_diff_check": "central-difference auditor of every analytic gradient",
    "chebyshev": "scalar distance the partition tests build group indices from",
}


def _defined():
    """(qualified name, bare name) of every top-level function and every
    non-dunder method of a top-level class."""
    for mod in MODULES:
        tree = ast.parse((SRC / "ripplegrid" / f"{mod}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{mod}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{mod}.{node.name}.{item.name}", item.name


def _referenced() -> set:
    names = set()
    for path in SRC.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_orphans():
    used = _referenced()
    orphans = sorted(q for q, name in _defined()
                     if name not in used and name not in REFERENCES)
    assert orphans == [], "delete these or name them in REFERENCES"


def test_references_stay_current():
    defined = {name for _, name in _defined()}
    used = _referenced()
    assert sorted(set(REFERENCES) - defined) == [], "no longer defined"
    assert sorted(set(REFERENCES) & used) == [], "now called from src/"
