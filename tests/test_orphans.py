"""Every top-level function and method of the runtime modules has a caller
in the package, or is named in REFERENCES with the reason it is kept anyway.
The reference module holds what the runtime is checked and timed against:
its names are exempt, no runtime module may import it, and the package
still exports every public name that moved into it.

References are read from the source with ``ast``: a name counts as used
when some module under src/ other than a package ``__init__`` reads it as a
plain name or as an attribute. Exports alone do not count, and neither do
stores or a module-level alias such as ``linearized_vjp = ripple_vjp``:
naming a function twice is not calling it.
"""
import ast
from pathlib import Path

import ripplegrid
from ripplegrid import reference

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = tuple(sorted(p.stem for p in (SRC / "ripplegrid").glob("*.py")
                       if p.name not in ("__init__.py", "reference.py")))

REFERENCES = {
    "linearized_grid": "single-head linearized layer; the benchmark's yardstick",
    "ripple_vjp": "single-head backward of ripple_dp, ripple_naive and linearized_grid "
                  "(also exported as linearized_vjp); the layer runs multi_head_vjp",
    "fetch_count": "read by the fetch budgets of the scaling tests",
    "reset_fetch_count": "zeroes the fetch counter before a measured pass",
    "finite_diff_check": "central-difference auditor of every analytic gradient",
}

# the oracles, scalar twins and scaling harness that live in reference.py
MOVED = (
    "softmax_attention", "linearized_attention", "_as_float", "ripple_softmax_reference",
    "grad_pixels_reference", "SpatialWeights", "stick_logits", "modified_sigmoid",
    "stick_breaking", "adaptive_truncate", "_merge_tail", "_tau_halt_index",
    "scheme_weights", "jsd", "chebyshev", "max_chebyshev", "group_of_distance",
    "num_groups", "BenchPlan", "BenchRecord", "SlopeFit", "fit_loglog", "fit_slope",
    "memory_probe", "run_bench",
)


def _parsed(mod: str) -> ast.Module:
    return ast.parse((SRC / "ripplegrid" / f"{mod}.py").read_text())


def _defined():
    """(qualified name, bare name) of every top-level function and every
    non-dunder method of a top-level class."""
    for mod in MODULES:
        for node in _parsed(mod).body:
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


def _top_level_names(tree: ast.Module) -> set:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_moved_names_live_only_in_reference():
    assert sorted(set(MOVED) - _top_level_names(_parsed("reference"))) == []
    for mod in MODULES:
        assert sorted(set(MOVED) & _top_level_names(_parsed(mod))) == [], mod
    assert not (SRC / "ripplegrid" / "bench.py").exists()


def test_no_runtime_module_imports_reference():
    for path in sorted(SRC.rglob("*.py")):
        if path.name in ("__init__.py", "reference.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}"
                                               for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n.split(".")[-1] == "reference" for n in names), \
                f"{path.name} imports the reference module"


def test_moved_names_are_still_exported():
    public = [name for name in MOVED if not name.startswith("_")]
    assert [n for n in public if getattr(ripplegrid, n, None) is not getattr(reference, n)] == []


def _names(tree: ast.Module) -> set:
    """Every name a module reads, writes, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(n for a in node.names for n in (a.name, a.asname) if n)
    return names


def _sat_imports(tree: ast.Module) -> set:
    """What a module imports from the sat module, "sat" for the module itself."""
    got = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_sat = (node.module or "").split(".")[-1] == "sat"
            got.update(a.name for a in node.names if from_sat or a.name == "sat")
        elif isinstance(node, ast.Import):
            got.update("sat" for a in node.names if a.name.split(".")[-1] == "sat")
    return got


def test_only_sat_knows_the_table():
    """The prefix table's layout and buffers stay in sat.py: no other
    runtime module names its kept buffers, and the attention and gradient
    passes reach the table through the grouped sum and its adjoint alone."""
    for path in sorted(SRC.rglob("*.py")):
        if path.name not in ("sat.py", "reference.py"):
            assert "kept_array" not in _names(ast.parse(path.read_text())), path.name
    for mod in ("attention", "grad"):
        assert _sat_imports(_parsed(mod)) <= {"read_windows", "read_windows_vjp"}, mod
