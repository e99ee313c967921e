"""What `src/ghostcycles/` holds: only names that a command runs, each
once, and no import that a module does not use.

A second implementation that only tests call lives under `tests/`
(`oracles.py`, `semilinear_sets.py`), never beside the code it checks.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import ghostcycles

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
PACKAGE = Path(ghostcycles.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}

_spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

# names the benchmark runner calls on the package outside the hook table
_BENCHMARK_CALLS = {"backend_name"}


def _references(node):
    """Every name that `node` reads, as a bare name or as an attribute."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _definitions():
    """(module, class or None, name, node) for every top-level function and
    class and every method of a top-level class."""
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield module, None, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield module, node.name, item.name, item


def test_no_module_in_src_imports_a_name_it_does_not_use():
    unused = []
    for module, tree in MODULES.items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def test_every_name_in_src_is_used_by_src_or_by_the_benchmark():
    # a reference inside the definition itself (recursion) does not count,
    # nor does `__init__._SOURCE`, which names its entries as strings; a
    # dunder is called by the language, not by name
    run = (PERFBENCH / "run.py").read_text(encoding="utf-8")
    assert all(f"{name}()" in run for name in _BENCHMARK_CALLS)
    hooked = {attr for _module, attr, _span, _count in layers.HOOKS} | _BENCHMARK_CALLS
    counts = {}
    for tree in MODULES.values():
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for module, owner, name, node in _definitions():
        if (name.startswith("__") and name.endswith("__")) or name in hooked:
            continue
        if owner is not None:
            # an override is called through its base class's interface
            cls = getattr(importlib.import_module(f"ghostcycles.{module}"), owner)
            if any(hasattr(base, name) for base in cls.__mro__[1:]):
                continue
        if counts.get(name, 0) - _references(node).count(name) < 1:
            unused.append(f"{module}.{owner + '.' if owner else ''}{name}")
    assert unused == []


def _defined_in(path):
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name))
    return names


def test_no_oracle_is_also_defined_in_the_package():
    oracles = _defined_in(TESTS / "oracles.py") | _defined_in(TESTS / "semilinear_sets.py")
    assert {"dy_membership", "membership", "iterate_integer", "parity_word",
            "ghost_record", "trace_record"} <= oracles
    modules = [ghostcycles] + [importlib.import_module(f"ghostcycles.{info.name}")
                               for info in pkgutil.iter_modules(ghostcycles.__path__)
                               if info.name != "__main__"]
    assert len(modules) == len(MODULES) - 1  # every module but __main__
    twins = [f"{module.__name__}.{name}"
             for module in modules for name in sorted(oracles) if hasattr(module, name)]
    assert twins == []


def test_the_public_names_are_exactly_these():
    assert ghostcycles.__all__ == [
        "PadicInt", "PrecisionError",
        "ParityPattern", "PatternError", "is_admissible", "GeneralizedMap", "COLLATZ",
        "length_cells",
        "GhostCycle", "cycle_constant", "modulus", "integrality_test", "ghost_cycle",
        "CycleTrace", "DynamicsViolation", "iterate_cycle",
        "FiberPeriodRecord", "fiber_period_exact", "fiber_period_bruteforce",
        "nonsemilinearity_witness",
        "backend_name",
        "__version__",
    ]
