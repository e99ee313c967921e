"""Semilinear sets and the unbounded-fiber-period obstruction.

A linear set is b + N-combinations of finitely many period vectors; a
semilinear set is a finite union of linear sets.  Semilinear subsets of
N^2 have a strong structural property: every fiber S_x = {y : (x, y) in
S} is eventually periodic, and the lcm of the component periods bounds
all fiber periods at once.  Contrapositively, a family of fibers with
unbounded minimal periods cannot be semilinear.

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

import math
from collections.abc import Sequence

from .patterns import Frozen, _set


class DimensionMismatch(ValueError):
    """Point dimension differs from the set dimension."""


class FiberUndefined(ValueError):
    """x < 0, or (x, y) is inadmissible: 2**x <= 3**y, so the fiber has no
    positive gap."""


class InconclusivePeriod(RuntimeError):
    """No period could be established inside the scanned window."""


class LinearSet(Frozen):
    """b + N-combinations of period vectors, all over N^d."""

    __slots__ = ("base", "periods")

    def __init__(self, base: tuple[int, ...], periods: tuple[tuple[int, ...], ...]) -> None:
        base = tuple(base)
        periods = tuple(tuple(v) for v in periods)
        d = len(base)
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if any(c < 0 for c in base):
            raise ValueError(f"base must be over N, got {base}")
        for v in periods:
            if len(v) != d:
                raise DimensionMismatch(f"period vector {v} has dimension {len(v)}, expected {d}")
            if any(c < 0 for c in v):
                raise ValueError(f"period vectors must be over N, got {v}")
        _set(self, "base", base)
        _set(self, "periods", periods)

    @property
    def dimension(self) -> int:
        return len(self.base)


class SemilinearSet(Frozen):
    __slots__ = ("components",)

    def __init__(self, components: tuple[LinearSet, ...]) -> None:
        components = tuple(components)
        if not components:
            raise ValueError("a semilinear set needs at least one component")
        d = components[0].dimension
        if any(c.dimension != d for c in components):
            raise DimensionMismatch("all components must share one dimension")
        _set(self, "components", components)

    @property
    def dimension(self) -> int:
        return self.components[0].dimension


class FiberPeriodRecord(Frozen):
    """One fiber of the divisibility predicate: gap 2**x - 3**y."""

    __slots__ = ("y", "x", "period")

    def __init__(self, y: int, x: int, period: int) -> None:
        _set(self, "y", y)
        _set(self, "x", x)
        _set(self, "period", period)


def _linear_contains(component: LinearSet, point: Sequence[int]) -> bool:
    start = tuple(p - b for p, b in zip(point, component.base))
    if min(start) < 0:
        return False
    vecs = [v for v in component.periods if any(v)]  # zero vectors contribute nothing
    seen, stack = {start}, [start]
    while stack:
        residual = stack.pop()
        if not any(residual):
            return True
        for v in vecs:
            nxt = tuple(r - c for r, c in zip(residual, v))
            if min(nxt) >= 0 and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def membership(s: SemilinearSet, point: Sequence[int]) -> bool:
    """Exact search over residuals, per component: with vectors over N,
    point - base is in their N-span iff subtracting one vector at a time,
    never going negative, reaches zero.  Each residual in the box below
    point - base is seen once, so time and memory grow with the box,
    prod(p_i - b_i + 1)."""
    if len(point) != s.dimension:
        raise DimensionMismatch(
            f"point has dimension {len(point)}, set has dimension {s.dimension}"
        )
    if any(c < 0 for c in point):
        return False
    return any(_linear_contains(c, point) for c in s.components)


def dy_membership(y: int, x: int, c: int) -> bool:
    """All three defining clauses, evaluated exactly: admissibility of
    (x, y), positivity of C, and divisibility by 2**x - 3**y."""
    if y < 1:
        raise ValueError(f"need y >= 1, got {y}")
    if x < 0 or c < 1:
        return False
    # admissibility as the sign of the gap it needs anyway, inline rather
    # than through _gap: this is the independent pointwise definition that
    # the tests hold dy_fiber_indicator to
    gap = (1 << x) - 3 ** y
    return gap > 0 and c % gap == 0


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
    at C: the layout of fiber_indicator.  The clauses that depend only on
    the fiber (y >= 1, x >= 0, the gap's sign) are checked once, the range
    leaves out C = 0, and each C then gets its own exact division, so the
    period is not built in: it is left to the detector.  Tests hold every
    bit to dy_membership."""
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


def fiber_indicator(s: SemilinearSet, x: int, bound: int) -> int:
    """Bitmask of the fiber {y <= bound : (x, y) in S}, bit i = indicator at
    y = i.  Equivalent to pointwise membership (tests cross-check this) but
    built in one bitset pass per component.  An unbounded knapsack runs
    over the first coordinate: bit y of reach[t] is set when base plus an
    N-combination of the vectors with v0 > 0 is (b0 + t, y).  reach[x - b0]
    is then closed under each vector with v0 == 0 by doubling shifts.  No
    coordinate is negative, so a bit shifted out of the window never comes
    back into it."""
    if s.dimension != 2:
        raise DimensionMismatch(f"fiber analysis needs dimension 2, got {s.dimension}")
    if bound < 0:
        raise ValueError(f"need bound >= 0, got {bound}")
    window = (1 << (bound + 1)) - 1
    bits = 0
    for comp in s.components:
        b0, b1 = comp.base
        if x < b0:
            continue
        reach = [(1 << b1) & window] + [0] * (x - b0)
        for v0, v1 in comp.periods:
            if v0 > 0:  # ascending t: each vector may be used any number of times
                for t in range(v0, x - b0 + 1):
                    reach[t] |= (reach[t - v0] << v1) & window
        fiber = reach[x - b0]
        for v0, v1 in comp.periods:
            if v0 == 0 and v1 > 0:  # k doubling shifts add each j * v1 with j < 2^k
                shift = v1
                while shift <= bound:
                    fiber |= (fiber << shift) & window
                    shift <<= 1
        bits |= fiber
    return bits


def fiber_eventual_period(s: SemilinearSet, x: int, scan_bound: int) -> int:
    """Minimal eventual period of the fiber at x, detected from a simulated
    window y in [0, scan_bound].  Raises InconclusivePeriod when the window
    does not support any candidate."""
    bits = fiber_indicator(s, x, scan_bound)
    return _minimal_eventual_period(bits, scan_bound + 1)


def nonsemilinearity_witness(y: int, m: int) -> FiberPeriodRecord:
    """Least admissible x whose fiber period exceeds the claimed bound m: a
    constructive refutation of any uniform fiber-period bound."""
    if y < 1 or m < 1:
        raise ValueError(f"need y >= 1 and M >= 1, got y={y}, M={m}")
    x = (m + 3 ** y).bit_length()  # the least x with 2^x > m + 3^y
    return FiberPeriodRecord(y, x, _gap(y, x))


def lcm_period_bound(s: SemilinearSet) -> int:
    """lcm of the nonzero second coordinates of all period vectors: the
    uniform bound that every fiber's eventual period must divide."""
    bound = 1
    for comp in s.components:
        for v in comp.periods:
            if v[1] > 0:
                bound = math.lcm(bound, v[1])
    return bound


# the size of random_semilinear_set's sets: components, vectors per component,
# and the largest coordinate of a base or a vector
_MAX_COMPONENTS, _MAX_VECTORS, _COORD_BOUND = 3, 3, 8


def random_semilinear_set(rng) -> SemilinearSet:
    """Synthetic generator for property tests: small random sets in N^2."""
    comps = []
    for _ in range(rng.randint(1, _MAX_COMPONENTS)):
        base = (rng.randint(0, _COORD_BOUND), rng.randint(0, _COORD_BOUND))
        periods = tuple(
            (rng.randint(0, _COORD_BOUND), rng.randint(0, _COORD_BOUND))
            for _ in range(rng.randint(0, _MAX_VECTORS))
        )
        comps.append(LinearSet(base, periods))
    return SemilinearSet(tuple(comps))
