"""Second implementations that the tests hold the package to.

Each function here answers a question that some path of the package
also answers, by an independent route, and no command runs it: the
pointwise definition of D_y, integrality from the low bits of n0, the
accelerated map stepped on truncated residues and the cycle trace it
gives, the classical one-halving-per-step map, enumeration of patterns
through `ParityPattern` itself, a pattern's parity word, and the JSON
records of `scan`, `general` and `ghost --format json` as dicts.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import combinations
from typing import Any

from ghostcycles.cycle import GhostCycle, cycle_constant, ghost_cycle, modulus
from ghostcycles.dynamics import CycleTrace, DynamicsViolation, iterate_cycle
from ghostcycles.padic import PadicInt, PrecisionError
from ghostcycles.patterns import (
    COLLATZ,
    Frozen,
    GeneralizedMap,
    ParityPattern,
    PatternError,
    is_admissible,
    length_cells,
)


def dy_membership(y: int, x: int, c: int) -> bool:
    """All three defining clauses of D_y, evaluated exactly: admissibility
    of (x, y), positivity of C, and divisibility by 2**x - 3**y."""
    if y < 1:
        raise ValueError(f"need y >= 1, got {y}")
    if x < 0 or c < 1:
        return False
    # admissibility as the sign of the gap it needs anyway, inline rather
    # than through the package's _gap
    gap = (1 << x) - 3 ** y
    return gap > 0 and c % gap == 0


class Inconclusive(Frozen):
    """Too few low bits of n0 to tell an integer cycle from a ghost."""

    __slots__ = ()


class InadmissiblePattern(ValueError):
    """Operation needs C / modulus > 0, i.e. a pattern admissible for the map."""


def prefix_certificate(p: ParityPattern, k: int,
                       map_: GeneralizedMap = COLLATZ) -> int | None | Inconclusive:
    """Decide integrality from the low k bits of n0 when they suffice: the
    quotient C // m, None for a ghost, or Inconclusive().

    For an admissible pattern C and the modulus have the same sign, so
    any integer solution C / modulus is positive and bounded by
    B = ceil(C / modulus).  Once 2**k exceeds B, the low k bits pin the
    only candidate and the answer is conclusive; below that the bits
    carry no extra information: they satisfy the congruence by
    construction, and they cannot exceed the bound, since r < 2**k <= B.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not is_admissible(p.x, p.y, map_.q, map_.d):
        raise InadmissiblePattern(
            f"pattern (x={p.x}, y={p.y}) is inadmissible; the integer bound needs C / modulus > 0"
        )
    c = cycle_constant(p, map_)
    m = modulus(p, map_)
    bound = -(-c // m)  # ceil(C / m) >= 1
    r = c * pow(m, -1, 1 << k) % (1 << k)  # the low k bits of n0, by Python's own inverse
    if (1 << k) > bound:
        return r if r * m == c else None
    return Inconclusive()


class ValuationIndeterminate(ValueError):
    """v2 requested on an all-zero residue.

    Every stored digit vanishes, so the true valuation is only known to
    be >= the precision; there is no correct answer to return.
    """


def v2(a: PadicInt) -> int:
    """2-adic valuation: index of the lowest set bit of the residue.

    Exact whenever the residue is nonzero, since the lowest set bit of a
    known digit cannot change under further refinement.
    """
    if a.residue == 0:
        raise ValuationIndeterminate(
            f"residue is 0 at precision {a.precision}; v2 is only known to be >= {a.precision}"
        )
    return (a.residue & -a.residue).bit_length() - 1


class Branch(Enum):
    EVEN = "even"
    ODD = "odd"


def t2_step(n: PadicInt, map_: GeneralizedMap = COLLATZ) -> tuple[PadicInt, Branch, int]:
    """One application of the accelerated map, with precision tracking.

    The even branch sheds one bit of precision; the odd branch sheds
    v2(qn+d) bits.  Raises when the stored digits cannot determine the
    branch or the halving count.
    """
    r, k = n.residue, n.precision
    if r == 0:
        raise ValuationIndeterminate(
            f"residue is 0 at precision {k}; branch of the map is undetermined"
        )
    if r & 1 == 0:
        return PadicInt(r >> 1, k - 1), Branch.EVEN, 1
    t = (map_.q * r + map_.d) & ((1 << k) - 1)
    if t == 0:
        raise PrecisionError(
            f"{map_.q}n{map_.d:+d} vanishes mod 2^{k}; halving count exceeds the working precision"
        )
    s = (t & -t).bit_length() - 1
    return PadicInt(t >> s, k - s), Branch.ODD, s


def trace_cycle(p: ParityPattern, precision: int, map_: GeneralizedMap = COLLATZ) -> CycleTrace:
    """The trace that `iterate_cycle` returns, built step by step on
    truncated residues: n0 from `ghost_cycle`, then y applications of
    `t2_step`, each of which must take the odd branch from a unit and
    shed the pattern's own halving count, and finally closure at the
    surviving precision.  Raises DynamicsViolation on a mismatch.
    """
    if precision <= p.x + 1:
        raise PrecisionError(
            f"precision {precision} too small: need > x + 1 = {p.x + 1} to close the cycle"
        )
    g = ghost_cycle(p, precision, map_)
    ms = [g.n0]
    vals: list[int] = []
    cur = g.n0
    for k, expected in enumerate(p.steps()):
        if not cur.residue & 1:
            raise DynamicsViolation(k, 0, v2(cur), kind="unit")
        cur, branch, s = t2_step(cur, map_)
        assert branch is Branch.ODD
        if s != expected:
            raise DynamicsViolation(k, expected, s)
        ms.append(cur)
        vals.append(s)
    final = precision - p.x
    assert cur.precision == final, "halving budget must consume exactly x bits"
    if not cur.agrees_with(g.n0):
        raise DynamicsViolation(p.y, 0, None, kind="closure")
    return CycleTrace(g, tuple(ms), tuple(vals), final)


def verify_periodicity(p: ParityPattern, precision: int, map_: GeneralizedMap = COLLATZ) -> bool:
    """True iff the full traversal succeeds with every assertion passing.

    Precision and validation errors propagate: they are caller mistakes,
    not findings about the orbit.
    """
    try:
        iterate_cycle(p, precision, map_)
    except DynamicsViolation:
        return False
    return True


_MAX_STEPS = 10_000  # iterate_integer's bound on the steps of one trajectory


def iterate_integer(n: int, map_: GeneralizedMap = COLLATZ) -> list[int]:
    """Classical integer trajectory, one halving per step.

    Runs until the start value reappears or _MAX_STEPS steps are taken;
    returns the full value sequence including the start.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    seq = [n]
    v = n
    for _ in range(_MAX_STEPS):
        v = v // 2 if v % 2 == 0 else map_.q * v + map_.d
        seq.append(v)
        if v == n:
            break
    return seq


def enumerate_sigmas(y: int, x: int) -> Iterator[ParityPattern]:
    """All valid patterns for fixed (y, x), in lexicographic sigma order.

    sigma[0] = 0 is forced; the remaining y-1 entries run over strictly
    increasing choices from {1, ..., x-1}.  Yields binomial(x-1, y-1)
    patterns (none when y - 1 > x - 1).
    """
    if x < 1 or y < 1:
        raise PatternError("x >= 1" if x < 1 else "y >= 1", f"need x, y >= 1, got x={x}, y={y}")
    for rest in combinations(range(1, x), y - 1):
        yield ParityPattern(x, y, (0,) + rest)


def enumerate_by_length(ell_max: int) -> Iterator[tuple[ParityPattern, bool]]:
    """Every pattern with x + y <= ell_max, tagged with its admissibility.

    Deterministic order: by ell, then y, then lexicographic sigma.
    ell_max = 2 is accepted and yields the single (structurally valid,
    inadmissible) pattern (1, 1, (0,)).
    """
    for _ell, y, x in length_cells(ell_max):
        admissible = is_admissible(x, y)
        for p in enumerate_sigmas(y, x):
            yield p, admissible


def parity_word(p: ParityPattern) -> str:
    """Expected step parities around p's cycle: 'O' for an odd step, then
    'E' repeated s_k times, for k = 1..y.  Length is ell."""
    return "".join("O" + "E" * s for s in p.steps())


# The records as dicts.  json.dumps of them, with separators=(",", ":"),
# gives the bytes the CLI writes: a scan line is ghost_record(g, map_), and
# `ghost --format json` writes {"ghost": ghost_record(g, map_), "trace":
# trace_record(t, map_)}.  Big integers are decimal strings, so any JSON
# reader round-trips them; small structural fields stay native.


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
    if g.quotient is None:
        rec["verdict"] = "ghost"
    else:
        rec["verdict"] = "integer-cycle"
        rec["integer_value"] = str(g.quotient)
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
