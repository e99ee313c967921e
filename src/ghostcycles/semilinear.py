"""The unbounded-fiber-period obstruction of the divisibility predicate.

The claim rests on a lemma about semilinear sets (finite unions of
b + N-combinations of period vectors): every fiber S_x = {y : (x, y) in
S} of a semilinear subset of N^2 is eventually periodic, and the lcm of
the component periods bounds all fiber periods at once (Ginsburg &
Spanier, Pacific J. Math. 16, 1966).  Contrapositively, a family of
fibers with unbounded minimal periods cannot be semilinear.  That lemma
is the reason for the period detector below; its executable form, with
the sets themselves, lives with the tests (tests/semilinear_sets.py),
since no command runs it.

The divisibility predicate studied here,

    D_y = {(x, C) : 2**x > 3**y, C >= 1, (2**x - 3**y) | C},

has fibers that are pure arithmetic progressions of gap 2**x - 3**y, so
their minimal periods grow exponentially in x.  `fiber_period_exact`
evaluates that closed form; `fiber_period_bruteforce` rediscovers it
from the raw indicator sequence as an independent oracle; and
`nonsemilinearity_witness` turns any claimed uniform bound M into an
explicit fiber whose period exceeds it.

Period detection on a finite window is necessarily approximate for
arbitrary sets.  The detector skips the first third of the window as
transient and requires the candidate period to repeat across at least
half of the remaining tail, which makes a scan bound of 3x the true
period sufficient for arithmetic-progression-like fibers.  When no
candidate qualifies it raises InconclusivePeriod rather than guessing.

The detector returns the least p <= tlen // 2 for which bit i of the
tail equals bit i + p at every i < tlen - p, where tlen is the tail's
length: exactly what trying every p from 1 up with a shift-and-xor
would return, but it tries far fewer.  An all-zero tail has period 1.
Otherwise let f be the tail's lowest set bit, and let p be a period.
If f + p >= tlen, then f - p >= tlen - 2p >= 0 and the compared pair
(f - p, f) differs, because no bit below f is set.  So f + p < tlen,
the pair (f, f + p) is compared, and bit f + p is set: p is the
distance from f to a later set bit.  Only those distances are tested
with the shift-and-xor, in increasing order, so a fiber of period P
costs one test where the exhaustive search made P of them.
"""

from __future__ import annotations

from .patterns import Frozen, _set


class FiberUndefined(ValueError):
    """x < 0, or (x, y) is inadmissible: 2**x <= 3**y, so the fiber has no
    positive gap."""


class InconclusivePeriod(RuntimeError):
    """No period could be established inside the scanned window."""


class FiberPeriodRecord(Frozen):
    """One fiber of the divisibility predicate: gap 2**x - 3**y."""

    __slots__ = ("y", "x", "period")

    def __init__(self, y: int, x: int, period: int) -> None:
        _set(self, "y", y)
        _set(self, "x", x)
        _set(self, "period", period)


def _gap(y: int, x: int) -> int:
    """2**x - 3**y, the gap of the fiber at x; FiberUndefined unless x >= 0
    and the gap is positive."""
    if x < 0:
        raise FiberUndefined(f"need x >= 0, got x={x}")
    gap = (1 << x) - 3 ** y
    if gap <= 0:
        raise FiberUndefined(f"(x={x}, y={y}) is inadmissible: 2^x <= 3^y")
    return gap


def fiber_period_exact(y: int, x: int) -> FiberPeriodRecord:
    """Closed-form minimal period of the divisibility fiber at x."""
    if y < 1:
        raise ValueError(f"need y >= 1, got {y}")
    return FiberPeriodRecord(y, x, _gap(y, x))


def _minimal_eventual_period(bits: int, length: int) -> int:
    """Minimal p such that the indicator window repeats with gap p on its
    tail.  The first third is treated as transient; a candidate must be no
    longer than half the tail so that it is witnessed at least twice.

    Only the distances from the tail's first set bit to its later set bits
    are tested (see the module docstring); the result is the exhaustive
    search's."""
    tail_from = length // 3
    tlen = length - tail_from
    tail = (bits >> tail_from) & ((1 << tlen) - 1)
    most = tlen // 2
    if tail:
        first = (tail & -tail).bit_length() - 1
        rest = tail >> (first + 1)
        p = 0
        while rest:
            gap = (rest & -rest).bit_length()
            p += gap  # the distance from first to the next set bit
            if p > most:
                break
            if ((tail ^ (tail >> p)) & ((1 << (tlen - p)) - 1)) == 0:
                return p
            rest >>= gap
    elif most >= 1:
        return 1
    raise InconclusivePeriod(
        f"no eventual period of at most {most} detected in a window of {length}"
    )


def dy_fiber_indicator(y: int, x: int, bound: int) -> int:
    """Bitmask of D_y's fiber {C <= bound : (x, C) in D_y}, bit C = indicator
    at C.  The clauses that depend only on the fiber (y >= 1, x >= 0, the
    gap's sign) are checked once, the range leaves out C = 0, and each C
    then gets its own exact division, so the period is not built in: it
    is left to the detector.  Tests hold every bit to the pointwise
    definition, an oracle in tests/oracles.py."""
    if y < 1:
        raise ValueError(f"need y >= 1, got {y}")
    if bound < 0:
        raise ValueError(f"need bound >= 0, got {bound}")
    try:
        gap = _gap(y, x)
    except FiberUndefined:
        return 0  # the fiber at x < 0 or at an inadmissible x is empty
    # the binary digits, most significant (C = bound) first, turned into an
    # int once: or-ing in one bit per member would copy the growing int
    # once per member
    digits = bytearray(b"0") * (bound + 1)
    for c in range(1, bound + 1):
        if c % gap == 0:
            digits[bound - c] = 49  # ord("1")
    return int(digits, 2)


def fiber_period_bruteforce(y: int, x: int, scan_bound: int) -> int:
    """Rediscover the fiber period from the raw indicator.

    Builds the indicator of D_y's fiber over C in [1, scan_bound], one
    exact division per C (dy_fiber_indicator), and tests candidate
    periods directly; independent of the closed form.  A scan bound of at
    least 3x the true period guarantees a conclusive and correct answer.
    """
    if scan_bound < 1:
        raise ValueError(f"need scan_bound >= 1, got {scan_bound}")
    _gap(y, x)  # the gap's sign only: the period is left to the detector
    return _minimal_eventual_period(dy_fiber_indicator(y, x, scan_bound) >> 1, scan_bound)


def nonsemilinearity_witness(y: int, m: int) -> FiberPeriodRecord:
    """Least admissible x whose fiber period exceeds the claimed bound m: a
    constructive refutation of any uniform fiber-period bound."""
    if y < 1 or m < 1:
        raise ValueError(f"need y >= 1 and M >= 1, got y={y}, M={m}")
    x = (m + 3 ** y).bit_length()  # the least x with 2^x > m + 3^y
    return FiberPeriodRecord(y, x, _gap(y, x))
