"""The cycle equation and its unique 2-adic solution.

For a pattern (x, y, sigma) and a map qn + d (3n + 1 unless a
`GeneralizedMap` is given) the cycle equation reads

    n0 * (2**x - q**y) = d * sum_{k=0}^{y-1} q**(y-1-k) * 2**sigma[k]  =  C

Both C and the modulus 2**x - q**y are odd, so the modulus is a 2-adic
unit and n0 = modulus^-1 * C exists and is unique at any precision.
Whether that solution is an *integer* cycle is a separate, exact
question: it is one precisely when the modulus divides C in Z.  That
divisibility test is the only sound way to decide integrality; no
finite window of 2-adic digits can (a tail of zeros may always break
later).
"""

from __future__ import annotations

from .padic import PadicInt, invert_unit
from .patterns import COLLATZ, Frozen, GeneralizedMap, ParityPattern, _set, is_admissible


class IntegerCycle(Frozen):
    """The solution is the exact (signed) integer `value`."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        _set(self, "value", value)


class Ghost(Frozen):
    """The solution exists in the 2-adics but is not an integer."""

    __slots__ = ()


GHOST = Ghost()

Verdict = IntegerCycle | Ghost


class Inconclusive(Frozen):
    """Too few low bits of n0 to tell an integer cycle from a ghost."""

    __slots__ = ()


class InadmissiblePattern(ValueError):
    """Operation needs C / modulus > 0, i.e. a pattern admissible for the map."""


def cycle_constant(p: ParityPattern, map_: GeneralizedMap = COLLATZ) -> int:
    """C = d * sum q**(y-1-k) * 2**sigma[k]; always odd (the k = 0 term is
    the only odd one since sigma[0] = 0 and sigma[k] >= 1 after it, and d is
    odd), and negative when d is."""
    c = map_.d * sum(map_.q ** (p.y - 1 - k) << s for k, s in enumerate(p.sigma))
    assert c & 1, "cycle constant must be odd"
    return c


def modulus(p: ParityPattern, map_: GeneralizedMap = COLLATZ) -> int:
    """Signed 2**x - q**y.  Odd for every valid pattern, since q is odd;
    for d > 0, positive exactly when the pattern is admissible."""
    m = (1 << p.x) - map_.q ** p.y
    assert m & 1, "modulus must be odd"
    return m


def integrality_test(p: ParityPattern, map_: GeneralizedMap = COLLATZ) -> Verdict:
    """Exact big-integer divisibility: IntegerCycle(C // m) iff m | C."""
    c = cycle_constant(p, map_)
    q, r = divmod(c, modulus(p, map_))
    return IntegerCycle(q) if r == 0 else GHOST


class GhostCycle(Frozen):
    """A pattern with its cycle data and the solution at a working precision."""

    __slots__ = ("pattern", "constant", "modulus", "n0", "verdict")

    def __init__(self, pattern: ParityPattern, constant: int, modulus: int, n0: PadicInt,
                 verdict: Verdict) -> None:
        _set(self, "pattern", pattern)
        _set(self, "constant", constant)
        _set(self, "modulus", modulus)
        _set(self, "n0", n0)
        _set(self, "verdict", verdict)


def ghost_cycle(p: ParityPattern, precision: int, map_: GeneralizedMap = COLLATZ) -> GhostCycle:
    """Solve the cycle equation at the given precision.

    n0 is modulus^-1 * C reduced mod 2**precision; the verdict comes from
    the exact divisibility test and does not depend on the precision.
    """
    c = cycle_constant(p, map_)
    m = modulus(p, map_)
    n0 = invert_unit(PadicInt(m, precision)) * PadicInt(c, precision)
    assert (n0.residue * m - c) % (1 << precision) == 0
    return GhostCycle(p, c, m, n0, integrality_test(p, map_))


def prefix_certificate(p: ParityPattern, k: int,
                       map_: GeneralizedMap = COLLATZ) -> Verdict | Inconclusive:
    """Decide integrality from the low k bits of n0 when they suffice.

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
    r = (invert_unit(PadicInt(m, k)) * PadicInt(c, k)).residue
    if (1 << k) > bound:
        return IntegerCycle(r) if r * m == c else GHOST
    return Inconclusive()
