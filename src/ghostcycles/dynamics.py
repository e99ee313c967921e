"""The 2-adic map and cycle-orbit verification.

The accelerated map on nonzero 2-adic integers:

    T2(n) = n / 2                        if v2(n) > 0
    T2(n) = (3n + 1) / 2**v2(3n + 1)     if v2(n) = 0

Every odd step therefore divides out all factors of 2 at once.  Along a
cycle solution the halving counts are forced: starting from n0, the k-th
odd step must shed exactly s_k = sigma[k] - sigma[k-1] bits, every
intermediate value is a unit, and after y odd steps the orbit closes.
`iterate_cycle` replays this and treats any mismatch as a hard error:
the structure guarantees it cannot happen, so an occurrence means an
implementation bug, never a data condition.  `replay_record` makes the
same checks with plain ints on a record's own `n0`, for any map qn + d,
so that a scan verifies what it writes rather than a value it re-solves.

The classical single-step integer map (one halving per step) is kept
separately as a cross-check oracle; mixing the two would break step
counting, since the cycle length ell = x + y counts halvings one at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cycle import ghost_cycle
from .padic import PadicInt, PrecisionError, ValuationIndeterminate, _inverse_mod_pow2
from .patterns import ParityPattern


class Branch(Enum):
    EVEN = "even"
    ODD = "odd"


class DynamicsViolation(RuntimeError):
    """A forced-valuation or closure assertion failed (implementation bug)."""

    def __init__(self, step: int, expected: int, observed: int | None, kind: str = "valuation"):
        self.step = step
        self.expected = expected
        self.observed = observed
        self.kind = kind
        super().__init__(
            f"{kind} violation at odd step {step}: expected {expected}, observed {observed}"
        )

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so that a violation
        # raised in a scan worker process reaches the parent intact
        return type(self), (self.step, self.expected, self.observed, self.kind)


@dataclass(frozen=True, slots=True)
class CycleTrace:
    """The unit sequence m_0..m_y of one full traversal, with the halving
    count observed at each odd step and the precision left at the end."""

    pattern: ParityPattern
    m: tuple[PadicInt, ...]
    step_valuations: tuple[int, ...]
    final_precision: int

    @property
    def total_halvings(self) -> int:
        return sum(self.step_valuations)

    @property
    def closed(self) -> bool:
        return self.m[-1].agrees_with(self.m[0])


def t2_step(n: PadicInt) -> tuple[PadicInt, Branch, int]:
    """One application of the accelerated map, with precision tracking.

    The even branch sheds one bit of precision; the odd branch sheds
    v2(3n+1) bits.  Raises when the stored digits cannot determine the
    branch or the halving count.
    """
    r, k = n.residue, n.precision
    if r == 0:
        raise ValuationIndeterminate(
            f"residue is 0 at precision {k}; branch of the map is undetermined"
        )
    if r & 1 == 0:
        return PadicInt(r >> 1, k - 1), Branch.EVEN, 1
    t = (3 * r + 1) & ((1 << k) - 1)
    if t == 0:
        raise PrecisionError(
            f"3n+1 vanishes mod 2^{k}; halving count exceeds the working precision"
        )
    s = (t & -t).bit_length() - 1
    return PadicInt(t >> s, k - s), Branch.ODD, s


def iterate_cycle(p: ParityPattern, precision: int) -> CycleTrace:
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
    m0 = ghost_cycle(p, precision).n0
    ms = [m0]
    vals: list[int] = []
    cur = m0
    for k, expected in enumerate(p.steps()):
        if not cur.is_unit:
            raise DynamicsViolation(k, 0, cur.v2(), kind="unit")
        cur, branch, s = t2_step(cur)
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
    q: int, d: int, x: int, sigma: tuple[int, ...], c: int, n0: int, modulus: int, precision: int
) -> None:
    """Check one scan record of the map qn + d by replaying its own n0.

    The record's residue must lie below 2**precision and satisfy
    n0 * modulus = C mod 2**precision.  Then the orbit of n0 is replayed
    with int arithmetic: every m_k must be odd, the k-th odd step must
    shed exactly s_{k+1} bits, and after x halvings the orbit must close
    at the precision left.  Closure means n0 * modulus equals the
    pattern's own cycle constant mod 2**precision, so the two checks
    together also pin the record's C to sigma modulo 2**precision.  A
    record with precision <= x + 1 has too few bits to close; its n0 is
    then solved at x + 2 bits from C, checked against the record's low
    bits, and that value is replayed.  Any mismatch raises
    DynamicsViolation.
    """
    y = len(sigma)
    mask = (1 << precision) - 1
    if n0 >> precision or (n0 * modulus - c) & mask:
        raise DynamicsViolation(y, c & mask, (n0 * modulus) & mask, kind="closure")
    width = precision
    if precision <= x + 1:
        width = x + 2
        wide = (1 << width) - 1
        lifted = (c * _inverse_mod_pow2(modulus & wide, width)) & wide
        if lifted & mask != n0:
            raise DynamicsViolation(y, lifted & mask, n0, kind="closure")
        n0 = lifted
    m = n0
    for k, (lo, hi) in enumerate(zip(sigma, (*sigma[1:], x))):
        if not m & 1:
            raise DynamicsViolation(k, 0, (m & -m).bit_length() - 1 if m else None, kind="unit")
        t = (q * m + d) & ((1 << width) - 1)
        s = (t & -t).bit_length() - 1 if t else width  # t = 0: at least width
        if s != hi - lo:
            raise DynamicsViolation(k, hi - lo, s)
        m = t >> s
        width -= s
    if m != n0 & ((1 << width) - 1):
        raise DynamicsViolation(y, 0, None, kind="closure")


def verify_periodicity(p: ParityPattern, precision: int) -> bool:
    """True iff the full traversal succeeds with every assertion passing.

    Precision and validation errors propagate: they are caller mistakes,
    not findings about the orbit.
    """
    try:
        iterate_cycle(p, precision)
    except DynamicsViolation:
        return False
    return True


def iterate_integer(n: int, max_steps: int = 10_000) -> list[int]:
    """Classical integer trajectory, one halving per step.

    Runs until the start value reappears or max_steps is hit; returns the
    full value sequence including the start.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    seq = [n]
    v = n
    for _ in range(max_steps):
        v = v // 2 if v % 2 == 0 else 3 * v + 1
        seq.append(v)
        if v == n:
            break
    return seq
