"""The cycle equation and its unique 2-adic solution.

For a pattern (x, y, sigma) and a map qn + d (3n + 1 unless a
`GeneralizedMap` is given) the cycle equation reads

    n0 * (2**x - q**y) = d * sum_{k=0}^{y-1} q**(y-1-k) * 2**sigma[k]  =  C

Both C and the modulus m = 2**x - q**y are odd, so m is a 2-adic unit
and n0 = C / m exists and is unique at any precision.  Whether that
solution is an *integer* cycle is a separate, exact question: it is one
precisely when m divides C in Z, and the verdict is then the quotient
C // m, or None for a ghost, as in every scan record.  That divisibility
test is the only sound way to decide integrality; no finite window of
2-adic digits can (a tail of zeros may always break later).  The low
bits do decide it once 2**k exceeds ceil(C / m) for an admissible
pattern; the tests keep that prefix certificate (tests/oracles.py) as
an oracle for the exact verdict.
"""

from __future__ import annotations

from .padic import PadicInt, _inverse_mod_pow2
from .patterns import COLLATZ, Frozen, GeneralizedMap, ParityPattern, _set


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


def integrality_test(p: ParityPattern, map_: GeneralizedMap = COLLATZ) -> int | None:
    """Exact big-integer divisibility: C // m if m | C, None for a ghost."""
    quotient, rem = divmod(cycle_constant(p, map_), modulus(p, map_))
    return None if rem else quotient


class GhostCycle(Frozen):
    """A pattern with its cycle data, the solution at a working precision
    and the exact quotient C // m, None for a ghost."""

    __slots__ = ("pattern", "constant", "modulus", "n0", "quotient")

    def __init__(self, pattern: ParityPattern, constant: int, modulus: int, n0: PadicInt,
                 quotient: int | None) -> None:
        _set(self, "pattern", pattern)
        _set(self, "constant", constant)
        _set(self, "modulus", modulus)
        _set(self, "n0", n0)
        _set(self, "quotient", quotient)


def ghost_cycle(p: ParityPattern, precision: int, map_: GeneralizedMap = COLLATZ) -> GhostCycle:
    """Solve the cycle equation at the given precision.

    n0 is C * m^-1 reduced mod 2**precision, as the scan solves it; the
    quotient comes from the exact divisibility test and does not depend
    on the precision.
    """
    c = cycle_constant(p, map_)
    m = modulus(p, map_)
    # PadicInt raises PrecisionError below 1 bit before any mask is built
    n0 = PadicInt(c * _inverse_mod_pow2(m, precision), precision)
    assert (n0.residue * m - c) & ((1 << precision) - 1) == 0
    return GhostCycle(p, c, m, n0, integrality_test(p, map_))
