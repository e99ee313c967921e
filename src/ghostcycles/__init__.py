"""Exact 2-adic ghost cycles of the Collatz map.

Every parity pattern determines a unique periodic orbit of the
accelerated Collatz map in the 2-adic integers.  Almost all of these
orbits pass through non-integer 2-adic points ("ghost cycles"); the
integer ones are exactly the patterns whose cycle constant is divisible
by 2^x - 3^y.  This package computes the orbits exactly, verifies them
dynamically, tests integrality, and quantifies how the divisibility
structure obstructs a Presburger-style description.
"""

from .cycle import (
    GHOST,
    CertifiedGhost,
    CertifiedInteger,
    Ghost,
    GhostCycle,
    InadmissiblePattern,
    Inconclusive,
    IntegerCycle,
    cycle_constant,
    ghost_cycle,
    integrality_test,
    modulus,
    prefix_certificate,
)
from .dynamics import (
    CycleTrace,
    DynamicsViolation,
    iterate_cycle,
    iterate_integer,
    t2_step,
    verify_periodicity,
)
from .kernel import backend_name
from .padic import NotAUnit, PadicInt, PrecisionError, ValuationIndeterminate, invert_unit
from .patterns import (
    COLLATZ,
    GeneralizedMap,
    ParityPattern,
    PatternError,
    enumerate_by_length,
    enumerate_sigmas,
    is_admissible,
    length_cells,
)
from .semilinear import (
    FiberPeriodRecord,
    LinearSet,
    SemilinearSet,
    dy_membership,
    fiber_eventual_period,
    fiber_period_bruteforce,
    fiber_period_exact,
    membership,
    nonsemilinearity_witness,
)

__version__ = "0.1.0"

__all__ = [
    "PadicInt", "invert_unit",
    "PrecisionError", "ValuationIndeterminate", "NotAUnit",
    "ParityPattern", "PatternError", "is_admissible", "GeneralizedMap", "COLLATZ",
    "enumerate_sigmas", "enumerate_by_length", "length_cells",
    "IntegerCycle", "Ghost", "GHOST", "GhostCycle",
    "CertifiedInteger", "CertifiedGhost", "Inconclusive", "InadmissiblePattern",
    "cycle_constant", "modulus", "integrality_test", "ghost_cycle", "prefix_certificate",
    "CycleTrace", "DynamicsViolation",
    "t2_step", "iterate_cycle", "verify_periodicity", "iterate_integer",
    "LinearSet", "SemilinearSet", "FiberPeriodRecord",
    "membership", "dy_membership",
    "fiber_period_exact", "fiber_period_bruteforce", "fiber_eventual_period",
    "nonsemilinearity_witness",
    "backend_name",
    "__version__",
]
