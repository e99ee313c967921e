"""The 2-adic map and cycle-orbit verification.

The accelerated map of qn + d (3n + 1 unless a `GeneralizedMap` is given)
on nonzero 2-adic integers:

    T2(n) = n / 2                        if v2(n) > 0
    T2(n) = (qn + d) / 2**v2(qn + d)     if v2(n) = 0

Every odd step therefore divides out all factors of 2 at once.  Along a
cycle solution the halving counts are forced: starting from n0, the k-th
odd step must shed exactly s_k = sigma[k] - sigma[k-1] bits, every
intermediate value is a unit, and after y odd steps the orbit closes.
`iterate_cycle` replays this and treats any mismatch as a hard error:
the structure guarantees it cannot happen, so an occurrence means an
implementation bug, never a data condition.  `replay_record` makes the
same checks on a scan record's own C, n0 and verdict, so that a scan
verifies what it writes rather than a value it re-solves.  The modulus
m = 2**x - q**y is odd, so it replays the orbit of the rational n0 = C/m
exactly on the numerators a_k = m * n_k, which needs no precision and
pins C exactly: Lagarias's correspondence between the rational cycles of
3x + 1 with denominator m and the integer cycles of 3x + m (Acta Arith.
56, 1990).  The tests hold it to the unscaled loop on truncated m_k.

The classical single-step integer map (one halving per step) is a
cross-check oracle of the tests (tests/oracles.py), kept apart: mixing
the two would break step counting, since the cycle length ell = x + y
counts halvings one at a time.
"""

from __future__ import annotations

from enum import Enum

from .cycle import ghost_cycle
from .padic import PadicInt, PrecisionError, ValuationIndeterminate
from .patterns import COLLATZ, Frozen, GeneralizedMap, ParityPattern, _set


class Branch(Enum):
    EVEN = "even"
    ODD = "odd"


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
    """The unit sequence m_0..m_y of one full traversal, with the halving
    count observed at each odd step and the precision left at the end."""

    __slots__ = ("pattern", "m", "step_valuations", "final_precision")

    def __init__(self, pattern: ParityPattern, m: tuple[PadicInt, ...],
                 step_valuations: tuple[int, ...], final_precision: int) -> None:
        _set(self, "pattern", pattern)
        _set(self, "m", m)
        _set(self, "step_valuations", step_valuations)
        _set(self, "final_precision", final_precision)

    @property
    def closed(self) -> bool:
        return self.m[-1].agrees_with(self.m[0])


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


def iterate_cycle(p: ParityPattern, precision: int, map_: GeneralizedMap = COLLATZ) -> CycleTrace:
    """Traverse the cycle solution once through its y odd phases.

    Asserts, step by step, that each m_k is a unit, that the observed
    halving count equals s_{k+1}, and finally that the orbit closed at
    the surviving precision.  Total precision loss is exactly x, so the
    caller must supply precision > x + 1.
    """
    if precision <= p.x + 1:
        raise PrecisionError(
            f"precision {precision} too small: need > x + 1 = {p.x + 1} to close the cycle"
        )
    m0 = ghost_cycle(p, precision, map_).n0
    ms = [m0]
    vals: list[int] = []
    cur = m0
    for k, expected in enumerate(p.steps()):
        if not cur.is_unit:
            raise DynamicsViolation(k, 0, cur.v2(), kind="unit")
        cur, branch, s = t2_step(cur, map_)
        assert branch is Branch.ODD
        if s != expected:
            raise DynamicsViolation(k, expected, s)
        ms.append(cur)
        vals.append(s)
    final = precision - p.x
    assert cur.precision == final, "halving budget must consume exactly x bits"
    if not cur.agrees_with(m0):
        raise DynamicsViolation(p.y, 0, None, kind="closure")
    return CycleTrace(p, tuple(ms), tuple(vals), final)


def replay_record(
    q: int, d: int, x: int, sigma: tuple[int, ...], c: int, n0: int, modulus: int, precision: int,
    quotient: int | None,
) -> None:
    """Check one scan record of the map qn + d by replaying its exact orbit.

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
    # v2(t) = e and leave the next a odd.  The step index and the observed
    # count are worked out only once a test has failed.
    a, dm, lo = c, d * modulus, sigma[0]
    for hi in (*sigma[1:], x):
        e = hi - lo
        t = q * a + dm
        a = t >> e
        if not a & 1 or a << e != t:
            k = sigma.index(lo)  # sigma strictly increases: its entry names the step
            raise DynamicsViolation(k, e, (t & -t).bit_length() - 1 if t else None)
        lo = hi
    if a != c:
        raise DynamicsViolation(y, 0, None, kind="closure")
    if sigma[0]:
        raise DynamicsViolation(0, 0, sigma[0], kind="pattern")
