"""Every top-level function and method of the core modules has a caller in
the package, or is named in REFERENCES with the reason it is kept anyway.

References are read from the source with ``ast``: a name counts as used
when some module under src/ other than a package ``__init__`` reads it as a
plain name or as an attribute. Exports alone do not count, and neither do
stores or a module-level alias such as ``linearized_vjp = ripple_vjp``:
naming a function twice is not calling it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = tuple(sorted(p.stem for p in (SRC / "ripplegrid").glob("*.py")
                       if p.name != "__init__.py"))

REFERENCES = {
    "scheme_weights": "scalar oracle that scheme_weights_grid is tested against",
    "adaptive_truncate": "scalar oracle for the tau halting of learned weights",
    "jsd": "scalar oracle that jsd_grid is tested against",
    "num_groups": "scalar oracle that num_groups_grid is tested against",
    "grad_pixels_reference": "quadratic scatter oracle for the backward's token gradients",
    "ripple_softmax_reference": "quadratic per-group softmax reference semantics",
    "linearized_attention": "flat-sequence form of the factorized quotient",
    "linearized_grid": "single-head linearized layer; the benchmark's yardstick",
    "ripple_vjp": "single-head backward of ripple_dp, ripple_naive and linearized_grid "
                  "(also exported as linearized_vjp); the layer runs multi_head_vjp",
    "fetch_count": "read by the fetch budgets of the scaling tests",
    "reset_fetch_count": "zeroes the fetch counter before a measured pass",
    "run_bench": "scaling harness of acceptance criterion 4",
    "memory_probe": "peak transient allocation of one pass, read by acceptance criterion 5",
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


def _aliased(tree: ast.Module) -> set:
    """The right-hand names of module-level aliases ``a = b``."""
    return {id(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
            and all(isinstance(t, ast.Name) for t in node.targets)}


def _referenced() -> set:
    names = set()
    for path in SRC.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        aliased = _aliased(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and id(node) not in aliased:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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
