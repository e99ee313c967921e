"""The 2-adic map and cycle-orbit verification.

The accelerated map of qn + d (3n + 1 unless a `GeneralizedMap` is given)
on nonzero 2-adic integers:

    T2(n) = n / 2                if n is even
    T2(n) = (qn + d) / 2**e      if n is odd, 2**e the largest power of 2
                                 dividing qn + d

Every odd step therefore divides out all factors of 2 at once.  Along a
cycle solution the halving counts are forced: starting from n0, the k-th
odd step must shed exactly s_k = sigma[k] - sigma[k-1] bits, every
intermediate value is a unit, and after y odd steps the orbit closes.
One exact loop, `replay_record`, checks this, and any mismatch is a hard
error: the structure guarantees it cannot happen, so an occurrence means
an implementation bug, never a data condition.  The modulus
m = 2**x - q**y is odd, so the loop replays the orbit of the rational
n0 = C/m exactly on the numerators a_k = m * n_k, which needs no
precision and pins C exactly: Lagarias's correspondence between the
rational cycles of 3x + 1 with denominator m and the integer cycles of
3x + m (Acta Arith. 56, 1990).  The loop serves both callers.  A scan
replays each sampled record's own C, n0 and verdict, so that it verifies
what it writes rather than a value it re-solves.  `iterate_cycle`, which
`ghost` runs, replays the record it has just solved and reads each unit
m_k off a_k.  The tests hold both to the step-by-step traversal on
truncated residues (tests/oracles.py).

The classical single-step integer map (one halving per step) is a
cross-check oracle of the tests (tests/oracles.py), kept apart: mixing
the two would break step counting, since the cycle length ell = x + y
counts halvings one at a time.
"""

from __future__ import annotations

from .cycle import GhostCycle, IntegerCycle, ghost_cycle
from .padic import PadicInt, PrecisionError, _inverse_mod_pow2
from .patterns import COLLATZ, Frozen, GeneralizedMap, ParityPattern, _set


class DynamicsViolation(RuntimeError):
    """A forced-valuation, closure or verdict check failed (implementation bug)."""

    def __init__(self, step: int, expected: int | None, observed: int | None,
                 kind: str = "valuation"):
        self.step = step
        self.expected = expected
        self.observed = observed
        self.kind = kind
        super().__init__(
            f"{kind} violation at odd step {step}: expected {expected}, observed {observed}"
        )


class CycleTrace(Frozen):
    """One full traversal of a solved cycle: its `GhostCycle`, the unit
    sequence m_0..m_y, the halving count of each odd step and the
    precision left at the end."""

    __slots__ = ("ghost", "m", "step_valuations", "final_precision")

    def __init__(self, ghost: GhostCycle, m: tuple[PadicInt, ...],
                 step_valuations: tuple[int, ...], final_precision: int) -> None:
        _set(self, "ghost", ghost)
        _set(self, "m", m)
        _set(self, "step_valuations", step_valuations)
        _set(self, "final_precision", final_precision)

    @property
    def pattern(self) -> ParityPattern:
        return self.ghost.pattern

    @property
    def closed(self) -> bool:
        return self.m[-1].agrees_with(self.m[0])


def iterate_cycle(p: ParityPattern, precision: int, map_: GeneralizedMap = COLLATZ) -> CycleTrace:
    """Solve the cycle equation once and traverse its solution through the
    y odd phases.

    The solved record, its C, n0 and verdict, is replayed by
    `replay_record`, which raises DynamicsViolation unless every odd step
    sheds exactly s_{k+1} bits and the orbit closes.  Each unit is then
    read off the orbit's numerator: m_k = a_k / modulus, known modulo
    2**(precision - sigma_k) once k odd steps have shed sigma_k bits.
    Total precision loss is exactly x, so the caller must supply
    precision > x + 1.
    """
    if precision <= p.x + 1:
        raise PrecisionError(
            f"precision {precision} too small: need > x + 1 = {p.x + 1} to close the cycle"
        )
    g = ghost_cycle(p, precision, map_)
    quotient = g.verdict.value if isinstance(g.verdict, IntegerCycle) else None
    orbit = replay_record(map_.q, map_.d, p.x, p.sigma, g.constant, g.n0.residue, g.modulus,
                          precision, quotient)
    inv = _inverse_mod_pow2(g.modulus, precision)
    m = tuple(PadicInt(a * inv, precision - s) for a, s in zip(orbit, (*p.sigma, p.x)))
    return CycleTrace(g, m, p.steps(), precision - p.x)


def replay_record(
    q: int, d: int, x: int, sigma: tuple[int, ...], c: int, n0: int, modulus: int, precision: int,
    quotient: int | None,
) -> list[int]:
    """Check one scan record of the map qn + d by replaying its exact orbit,
    and return that orbit's numerators [a_0, ..., a_y].

    The record's verdict comes first: an integer cycle's written quotient
    must satisfy quotient * modulus = C exactly, and a ghost (quotient
    None) needs C mod modulus != 0.  The record's residue must lie below
    2**precision and satisfy n0 * modulus = C mod 2**precision.  Then the
    orbit of the rational C / modulus is replayed on its numerators, which
    needs no precision: a_0 = C must be odd, and at step k the int t =
    q * a_k + d * modulus must shed exactly s_{k+1} = sigma_{k+1} - sigma_k
    bits (sigma_y = x), so that a_{k+1} = t >> s_{k+1} is odd again.
    After y steps the orbit must close on a_y = C exactly.  For a sigma
    that starts at 0 and modulus = 2**x - q**y, closure means
    C * modulus = d * modulus * S, so C is the pattern's own cycle
    constant d * S: a record with any other C is rejected.  A sigma that
    does not start at 0 is no pattern's, yet the orbit of a C shifted to
    match it can close, so such a sigma is rejected last, once the orbit
    has closed.  Any mismatch raises DynamicsViolation.
    """
    y = len(sigma)
    exact, rem = divmod(c, modulus)
    if rem:
        exact = None
    if quotient != exact:
        raise DynamicsViolation(y, exact, quotient, kind="verdict")
    mask = (1 << precision) - 1
    if n0 >> precision or (n0 * modulus - c) & mask:
        raise DynamicsViolation(y, c & mask, (n0 * modulus) & mask, kind="closure")
    if not c & 1:
        raise DynamicsViolation(0, 0, (c & -c).bit_length() - 1 if c else None, kind="unit")
    # Each step shifts first and then tests: bit 0 of a is bit e of t, and
    # a << e == t holds iff t's low e bits are zero, so together they say
    # that 2**e is the largest power of 2 dividing t and leave the next a
    # odd.  The step index and the observed count are worked out only once
    # a test has failed.
    a, dm, lo = c, d * modulus, sigma[0]
    orbit = [a]
    for hi in (*sigma[1:], x):
        e = hi - lo
        t = q * a + dm
        a = t >> e
        if not a & 1 or a << e != t:
            k = sigma.index(lo)  # sigma strictly increases: its entry names the step
            raise DynamicsViolation(k, e, (t & -t).bit_length() - 1 if t else None)
        orbit.append(a)
        lo = hi
    if a != c:
        raise DynamicsViolation(y, 0, None, kind="closure")
    if sigma[0]:
        raise DynamicsViolation(0, 0, sigma[0], kind="pattern")
    return orbit
