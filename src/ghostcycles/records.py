"""JSON-friendly record builders shared by the CLI and tests.

Big integers serialize as decimal strings so any JSON reader round-trips
them without precision loss; small structural fields stay native.
"""

from __future__ import annotations

from typing import Any

from .cycle import GhostCycle, IntegerCycle
from .dynamics import CycleTrace
from .padic import PadicInt
from .patterns import ParityPattern, is_admissible


def padic_record(a: PadicInt) -> dict[str, Any]:
    return {"residue": str(a.residue), "precision": a.precision}


def pattern_record(p: ParityPattern) -> dict[str, Any]:
    return {
        "x": p.x,
        "y": p.y,
        "sigma": list(p.sigma),
        "ell": p.ell,
        "admissible": is_admissible(p.x, p.y),
    }


def ghost_record(g: GhostCycle, q: int | None = None, d: int | None = None) -> dict[str, Any]:
    rec: dict[str, Any] = {
        "pattern": pattern_record(g.pattern),
        "C": str(g.constant),
        "modulus": str(g.modulus),
        "n0": padic_record(g.n0),
    }
    if isinstance(g.verdict, IntegerCycle):
        rec["verdict"] = "integer-cycle"
        rec["integer_value"] = str(g.verdict.value)
    else:
        rec["verdict"] = "ghost"
    if q is not None:
        if d is None:
            raise ValueError("q and d must be given together")
        rec["pattern"]["admissible"] = is_admissible(g.pattern.x, g.pattern.y, q, d)
        rec["q"] = q
        rec["d"] = d
    return rec


def trace_record(t: CycleTrace) -> dict[str, Any]:
    return {
        "pattern": pattern_record(t.pattern),
        "m": [padic_record(m) for m in t.m],
        "valuations": list(t.step_valuations),
        "closed": t.closed,
        "final_precision": t.final_precision,
    }
