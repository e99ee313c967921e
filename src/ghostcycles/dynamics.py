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
same checks with plain ints on a record's own `n0` and verdict, so that
a scan verifies what it writes rather than a value it re-solves.  It
replays the scaled orbit A_k = 2**sigma_k * m_k, which needs one
multiply-add and one low-bit test per odd step and never shifts the
value down; the tests hold it to the unscaled loop on m_k.

The classical single-step integer map (one halving per step) is kept
separately as a cross-check oracle; mixing the two would break step
counting, since the cycle length ell = x + y counts halvings one at a
time.
"""

from __future__ import annotations

from enum import Enum

from .cycle import ghost_cycle
from .padic import PadicInt, PrecisionError, ValuationIndeterminate, _inverse_mod_pow2
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
    def total_halvings(self) -> int:
        return sum(self.step_valuations)

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
    """Check one scan record of the map qn + d by replaying its own n0.

    The record's verdict comes first: an integer cycle's written quotient
    must satisfy quotient * modulus = C exactly, and a ghost (quotient
    None) needs C mod modulus != 0.  The record's residue must lie below
    2**precision and satisfy n0 * modulus = C mod 2**precision.  Then the
    orbit of n0 is replayed with int arithmetic: every m_k must be odd,
    the k-th odd step must shed exactly s_{k+1} bits, and after x halvings
    the orbit must close at the precision left.  Closure means n0 *
    modulus equals the pattern's own cycle constant mod 2**precision, so
    the two checks together also pin the record's C to sigma modulo
    2**precision.  A record with precision <= x + 1 has too few bits to
    close; its n0 is then solved at x + 2 bits from C, and that value is
    replayed.  Any mismatch raises DynamicsViolation.
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
    width = precision
    if precision <= x + 1:
        width = x + 2
        wide = (1 << width) - 1
        # the lift's low bits are the record's n0: modulus = 2**x - q**y is
        # odd, so the check above leaves n0 the only residue below
        # 2**precision with n0 * modulus = C, and the lift satisfies it too
        n0 = (c * _inverse_mod_pow2(modulus & wide, width)) & wide
    # The orbit is replayed scaled: a = A_k = 2**sigma_k * m_k, so that
    # A_0 = n0 << sigma_0 and A_{k+1} = q * A_k + (d << sigma_k), and step
    # k sheds s_{k+1} bits iff v2(A_{k+1}) = sigma_{k+1} (sigma_y = x).
    # Entering sigma_k, the loop tests v2(a) = sigma_k; at k = 0 that is
    # the test that n0 is odd.  Only the low width + sigma_0 bits of A are
    # the orbit's.  The bits above are never masked off: they only move up.
    # width starts at x + 2 or more (the lift above sees to that), so bit
    # sigma_{k+1} of A_{k+1} is always a known bit.  Step indices and
    # observed valuations are rebuilt only once a test has failed.
    a = n0 << sigma[0]
    for s in sigma:
        if a & ((2 << s) - 1) != 1 << s:
            k = sigma.index(s)  # sigma strictly increases: its entry names the step
            break
        a = q * a + (d << s)
    else:
        if a & ((2 << x) - 1) == 1 << x:
            if (a - (n0 << x)) & ((1 << (width + sigma[0])) - 1):
                raise DynamicsViolation(y, 0, None, kind="closure")
            return
        k, s = y, x
    if not k:
        raise DynamicsViolation(0, 0, (n0 & -n0).bit_length() - 1 if n0 else None, kind="unit")
    lo = sigma[k - 1]
    known = width + sigma[0] - lo  # the bits of t = q * m + d that the record fixes
    t = (a >> lo) & ((1 << known) - 1)
    raise DynamicsViolation(k - 1, s - lo, (t & -t).bit_length() - 1 if t else known)


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


def iterate_integer(n: int, max_steps: int = 10_000, map_: GeneralizedMap = COLLATZ) -> list[int]:
    """Classical integer trajectory, one halving per step.

    Runs until the start value reappears or max_steps is hit; returns the
    full value sequence including the start.
    """
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
