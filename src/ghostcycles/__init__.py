"""Exact 2-adic ghost cycles of the Collatz map.

Every parity pattern determines a unique periodic orbit of the
accelerated Collatz map in the 2-adic integers.  Almost all of these
orbits pass through non-integer 2-adic points ("ghost cycles"); the
integer ones are exactly the patterns whose cycle constant is divisible
by 2^x - 3^y.  This package computes the orbits exactly, verifies them
dynamically, tests integrality, and quantifies how the divisibility
structure obstructs a Presburger-style description.
"""

__version__ = "0.1.0"

# each public name -> the submodule that defines it.  `import ghostcycles`
# loads no submodule: a name is imported on first use (PEP 562), so a
# CLI command compiles only the modules it runs.
_SOURCE = {
    **dict.fromkeys(("PadicInt", "PrecisionError"), "padic"),
    **dict.fromkeys(("ParityPattern", "PatternError", "is_admissible", "GeneralizedMap",
                     "COLLATZ", "length_cells"), "patterns"),
    **dict.fromkeys(("GhostCycle", "cycle_constant", "modulus", "integrality_test",
                     "ghost_cycle"), "cycle"),
    **dict.fromkeys(("CycleTrace", "DynamicsViolation", "iterate_cycle"), "dynamics"),
    **dict.fromkeys(("FiberPeriodRecord", "fiber_period_exact", "fiber_period_bruteforce",
                     "nonsemilinearity_witness"), "semilinear"),
    "backend_name": "kernel",
}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
