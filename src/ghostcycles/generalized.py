"""Cycle machinery for generalized maps n -> (qn + d) / 2^v2(qn+d).

Odd q and odd d keep the whole construction intact: qn + d is even on
odd n, and 2**x - q**y stays odd, so the cycle equation

    n0 * (2**x - q**y) = sum_k q**(y-1-k) * d * 2**sigma[k]

again has a unique 2-adic solution per pattern.  The 5n+1 system is the
interesting instance: it has known positive integer cycles (through 1
and through 13), which make strong ground-truth oracles.

This module deliberately does not reuse the 3n+1 code paths; the base
modules and this one check each other through the (q, d) = (3, 1)
specialization tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycle import GHOST, GhostCycle, IntegerCycle, Verdict
from .dynamics import Branch, CycleTrace, DynamicsViolation
from .padic import PadicInt, PrecisionError, ValuationIndeterminate, invert_unit
from .patterns import ParityPattern


@dataclass(frozen=True, slots=True)
class GeneralizedMap:
    """Map parameters: odd multiplier q >= 3 and odd nonzero offset d."""

    q: int
    d: int

    def __post_init__(self) -> None:
        if self.q < 3 or self.q % 2 == 0:
            raise ValueError(f"multiplier q must be an odd integer >= 3, got {self.q}")
        if self.d == 0 or self.d % 2 == 0:
            raise ValueError(f"offset d must be odd and nonzero, got {self.d}")


COLLATZ = GeneralizedMap(3, 1)


def general_cycle_constant(map_: GeneralizedMap, p: ParityPattern) -> int:
    """C_{q,d} = sum q**(y-1-k) * d * 2**sigma[k]; signed when d < 0."""
    return map_.d * sum(map_.q ** (p.y - 1 - k) << s for k, s in enumerate(p.sigma))


def general_modulus(map_: GeneralizedMap, p: ParityPattern) -> int:
    m = (1 << p.x) - map_.q ** p.y
    assert m & 1, "2^x - q^y must be odd for odd q"
    return m


def general_integrality_test(map_: GeneralizedMap, p: ParityPattern) -> Verdict:
    c = general_cycle_constant(map_, p)
    q, r = divmod(c, general_modulus(map_, p))
    return IntegerCycle(q) if r == 0 else GHOST


def general_ghost_cycle(map_: GeneralizedMap, p: ParityPattern, precision: int) -> GhostCycle:
    """Unique solution of the generalized cycle equation at a precision."""
    c = general_cycle_constant(map_, p)
    m = general_modulus(map_, p)
    n0 = invert_unit(PadicInt(m, precision)) * PadicInt(c, precision)
    assert (n0.residue * m - c) % (1 << precision) == 0
    return GhostCycle(p, c, m, n0, general_integrality_test(map_, p))


def general_t2_step(map_: GeneralizedMap, n: PadicInt) -> tuple[PadicInt, Branch, int]:
    """Accelerated step for qn + d, with the same precision accounting as
    the base map."""
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
            f"qn+d vanishes mod 2^{k}; halving count exceeds the working precision"
        )
    s = (t & -t).bit_length() - 1
    return PadicInt(t >> s, k - s), Branch.ODD, s


def general_iterate_cycle(map_: GeneralizedMap, p: ParityPattern, precision: int) -> CycleTrace:
    """Same contract as the base iterate_cycle, for qn + d."""
    if precision <= p.x + 1:
        raise PrecisionError(
            f"precision {precision} too small: need > x + 1 = {p.x + 1} to close the cycle"
        )
    m0 = general_ghost_cycle(map_, p, precision).n0
    ms = [m0]
    vals: list[int] = []
    cur = m0
    for k, expected in enumerate(p.steps()):
        if not cur.is_unit:
            raise DynamicsViolation(k, 0, cur.v2(), kind="unit")
        cur, branch, s = general_t2_step(map_, cur)
        assert branch is Branch.ODD
        if s != expected:
            raise DynamicsViolation(k, expected, s)
        ms.append(cur)
        vals.append(s)
    final = precision - p.x
    assert cur.precision == final
    if not cur.agrees_with(m0):
        raise DynamicsViolation(p.y, 0, None, kind="closure")
    return CycleTrace(p, tuple(ms), tuple(vals), final)


def general_verify_periodicity(map_: GeneralizedMap, p: ParityPattern, precision: int) -> bool:
    try:
        general_iterate_cycle(map_, p, precision)
    except DynamicsViolation:
        return False
    return True


def general_integer_oracle(map_: GeneralizedMap, n: int, max_steps: int = 10_000) -> list[int]:
    """Classical (non-accelerated) qn + d trajectory from a positive start,
    until the start value reappears or max_steps is hit."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    seq = [n]
    v = n
    for _ in range(max_steps):
        v = v // 2 if v % 2 == 0 else map_.q * v + map_.d
        seq.append(v)
        if v == n:
            break
    return seq
