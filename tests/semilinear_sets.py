"""Semilinear sets over N^d: the lemma that the fiber-period obstruction
rests on, in executable form.

A linear set is b + N-combinations of finitely many period vectors; a
semilinear set is a finite union of linear sets.  Semilinear subsets of
N^2 have a strong structural property: every fiber S_x = {y : (x, y) in
S} is eventually periodic, and the lcm of the component periods bounds
all fiber periods at once (Ginsburg & Spanier, Pacific J. Math. 16,
1966).  Contrapositively, a family of fibers with unbounded minimal
periods cannot be semilinear, which is what `ghostcycles.semilinear`
shows for D_y.

No command runs this module.  The tests check the lemma on random sets
with the package's own period detector, and hold the bitset fiber pass
to pointwise membership.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ghostcycles.patterns import Frozen, _set
from ghostcycles.semilinear import _minimal_eventual_period


class DimensionMismatch(ValueError):
    """Point dimension differs from the set dimension."""


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
