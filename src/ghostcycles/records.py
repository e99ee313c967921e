"""JSON-friendly record builders shared by the CLI and tests.

Big integers serialize as decimal strings so any JSON reader round-trips
them without precision loss; small structural fields stay native.
"""

from __future__ import annotations

from typing import Any

from .cycle import GhostCycle, IntegerCycle
from .dynamics import CycleTrace
from .padic import PadicInt
from .patterns import COLLATZ, GeneralizedMap, ParityPattern, is_admissible


def padic_record(a: PadicInt) -> dict[str, Any]:
    return {"residue": str(a.residue), "precision": a.precision}


def pattern_record(p: ParityPattern, map_: GeneralizedMap = COLLATZ) -> dict[str, Any]:
    return {
        "x": p.x,
        "y": p.y,
        "sigma": list(p.sigma),
        "ell": p.ell,
        "admissible": is_admissible(p.x, p.y, map_.q, map_.d),
    }


def ghost_record(g: GhostCycle, map_: GeneralizedMap = COLLATZ) -> dict[str, Any]:
    """The scan's record of `g`, solved under `map_`; "q" and "d" are
    written for any map but 3n+1."""
    rec: dict[str, Any] = {
        "pattern": pattern_record(g.pattern, map_),
        "C": str(g.constant),
        "modulus": str(g.modulus),
        "n0": padic_record(g.n0),
    }
    if isinstance(g.verdict, IntegerCycle):
        rec["verdict"] = "integer-cycle"
        rec["integer_value"] = str(g.verdict.value)
    else:
        rec["verdict"] = "ghost"
    if map_ != COLLATZ:
        rec["q"] = map_.q
        rec["d"] = map_.d
    return rec


def trace_record(t: CycleTrace, map_: GeneralizedMap = COLLATZ) -> dict[str, Any]:
    return {
        "pattern": pattern_record(t.pattern, map_),
        "m": [padic_record(m) for m in t.m],
        "valuations": list(t.step_valuations),
        "closed": t.closed,
        "final_precision": t.final_precision,
    }
