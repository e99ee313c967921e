"""Semilinear membership, divisibility fibers, period detection, and the
unbounded-period witness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ghostcycles.patterns import ParityPattern, PatternError
from ghostcycles.semilinear import (
    FiberUndefined,
    InconclusivePeriod,
    _minimal_eventual_period,
    dy_fiber_indicator,
    fiber_period_bruteforce,
    fiber_period_exact,
    nonsemilinearity_witness,
)

from oracles import dy_membership, enumerate_sigmas, prefix_certificate
from semilinear_sets import (
    DimensionMismatch,
    LinearSet,
    SemilinearSet,
    fiber_eventual_period,
    fiber_indicator,
    lcm_period_bound,
    membership,
    random_semilinear_set,
)


def single(base, *periods):
    return SemilinearSet((LinearSet(base, tuple(periods)),))


def test_membership_examples():
    s = single((1, 1), (2, 0), (0, 3))
    assert membership(s, (5, 7))  # (1,1) + 2*(2,0) + 2*(0,3)
    singleton = single((0, 0))
    assert membership(singleton, (0, 0))
    assert not membership(singleton, (0, 1))


def test_membership_edge_cases():
    s = single((1, 1), (2, 0), (0, 3))
    assert not membership(s, (0, 0))  # below the base
    assert not membership(s, (2, 1))  # off the even offset
    assert membership(s, (1, 1))
    with pytest.raises(DimensionMismatch):
        membership(s, (1, 1, 1))
    # zero period vectors must not stall the coefficient search
    assert membership(single((1, 0), (0, 0), (1, 1)), (3, 2))
    assert not membership(single((1, 0), (0, 0)), (3, 2))
    # no combination of steps that leave the first coordinate fixed reaches
    # x = 1: the search stays in the 2 x 151 box below the point
    assert not membership(single((0, 0), (0, 1), (0, 1), (0, 1)), (1, 150))


def test_component_validation():
    with pytest.raises(DimensionMismatch):
        LinearSet((0, 0), ((1,),))
    with pytest.raises(ValueError):
        LinearSet((-1, 0), ())
    with pytest.raises(ValueError):
        SemilinearSet(())
    with pytest.raises(DimensionMismatch):
        SemilinearSet((LinearSet((0,), ()), LinearSet((0, 0), ())))


@pytest.mark.parametrize("call,outcome", [
    (lambda: LinearSet((), ()), ValueError),
    (lambda: LinearSet((0, 0), ((1, -1),)), ValueError),
    (lambda: membership(single((0, 0), (1, 1)), (-1, -1)), False),  # rejected, not raised
    (lambda: fiber_period_exact(0, 5), ValueError),
    (lambda: fiber_indicator(single((0, 0, 0), (1, 1, 1)), 1, 10), DimensionMismatch),
    (lambda: prefix_certificate(ParityPattern(2, 1, (0,)), 0), ValueError),
    (lambda: list(enumerate_sigmas(0, 3)), PatternError),
    # empty and negative windows: a ValueError that names the bound, not
    # one raised by int() or a shift deeper down
    pytest.param(lambda: fiber_period_bruteforce(1, 2, 0), (ValueError, "scan_bound >= 1"),
                 id="bruteforce-empty-window"),
    pytest.param(lambda: fiber_period_bruteforce(1, 2, -3), (ValueError, "scan_bound >= 1"),
                 id="bruteforce-negative-window"),
    pytest.param(lambda: fiber_eventual_period(single((0, 0), (0, 3)), 0, -2),
                 (ValueError, "bound >= 0"), id="eventual-negative-window"),
    pytest.param(lambda: dy_fiber_indicator(1, 2, -1), (ValueError, "bound >= 0"),
                 id="dy-indicator-negative-window"),
    # a negative x has no fiber: FiberUndefined names it, not a ValueError
    # raised by a negative shift
    pytest.param(lambda: fiber_period_exact(1, -1), (FiberUndefined, "x >= 0, got x=-1"),
                 id="exact-negative-x"),
    pytest.param(lambda: fiber_period_bruteforce(1, -1, 10), (FiberUndefined, "x >= 0, got x=-1"),
                 id="bruteforce-negative-x"),
])
def test_out_of_contract_inputs_are_rejected(call, outcome):
    if outcome is False:
        assert call() is False
        return
    kind, match = outcome if isinstance(outcome, tuple) else (outcome, None)
    with pytest.raises(kind, match=match):
        call()


def test_dy_membership_examples():
    assert dy_membership(1, 2, 3)  # 4 - 3 = 1 divides everything
    assert dy_membership(1, 3, 5)
    assert not dy_membership(1, 3, 7)
    assert not dy_membership(2, 3, 9)  # 8 < 9: inadmissible kills the clause
    assert not dy_membership(1, 3, 0)  # C >= 1 required
    with pytest.raises(ValueError):
        dy_membership(0, 3, 5)


def test_fiber_period_exact_examples():
    assert fiber_period_exact(1, 2).period == 1
    assert fiber_period_exact(1, 5).period == 29
    assert fiber_period_exact(2, 4).period == 7
    with pytest.raises(FiberUndefined):
        fiber_period_exact(2, 3)


def test_fiber_period_bruteforce_examples():
    assert fiber_period_bruteforce(1, 3, 30) == 5
    assert fiber_period_bruteforce(1, 2, 10) == 1
    assert fiber_period_bruteforce(2, 4, 30) == 7
    with pytest.raises(FiberUndefined):
        fiber_period_bruteforce(2, 3, 30)


def test_bruteforce_builds_the_indicator_once_and_detects_on_it(monkeypatch):
    from ghostcycles import semilinear

    built, seen = [], []

    def indicator(y, x, bound):
        built.append((y, x, bound))
        return dy_fiber_indicator(y, x, bound)

    def detect(bits, length):
        seen.append((bits, length))
        return _minimal_eventual_period(bits, length)

    monkeypatch.setattr(semilinear, "dy_fiber_indicator", indicator)
    monkeypatch.setattr(semilinear, "_minimal_eventual_period", detect)
    assert fiber_period_bruteforce(2, 4, 100) == 7
    assert built == [(2, 4, 100)]  # one indicator over the whole window
    assert not hasattr(semilinear, "dy_membership")  # and no per-C membership call
    # C = 1 is the detector's bit 0, over exactly [1, scan_bound]
    assert seen == [(sum(1 << (c - 1) for c in range(7, 101, 7)), 100)]


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6), st.integers(-2, 24), st.integers(0, 600))
def test_dy_fiber_indicator_matches_pointwise_membership(y, x, bound):
    bits = dy_fiber_indicator(y, x, bound)
    assert bits >> (bound + 1) == 0
    assert bits & 1 == 0  # C >= 1
    assert [(bits >> c) & 1 == 1 for c in range(bound + 1)] == \
        [dy_membership(y, x, c) for c in range(bound + 1)]


def test_bruteforce_inconclusive_when_window_too_small():
    with pytest.raises(InconclusivePeriod):
        fiber_period_bruteforce(1, 5, 40)  # period 29 needs roughly 3x that


def test_oracles_agree_wherever_periods_are_small():
    for y in (1, 2, 3):
        three = 3**y
        x = three.bit_length()
        while (1 << x) <= three:
            x += 1
        while (1 << x) - three <= 10_000:
            exact = fiber_period_exact(y, x).period
            assert fiber_period_bruteforce(y, x, 3 * exact + 10) == exact
            x += 1


def test_fiber_eventual_period_examples():
    assert fiber_eventual_period(single((0, 0), (0, 3)), 0, 30) == 3
    assert fiber_eventual_period(single((0, 1), (1, 0)), 5, 30) == 1
    union = SemilinearSet(
        (LinearSet((0, 0), ((0, 2),)), LinearSet((0, 0), ((0, 3),)))
    )
    assert fiber_eventual_period(union, 0, 60) == 6


@st.composite
def fiber_cases(draw):
    """(set, x, window) draws for the bitset pass: zero vectors, components
    whose vectors all leave x fixed or all grow it, and bases past the window."""
    bound = draw(st.integers(0, 150))
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["mixed", "steps", "growers"]))
        low = 1 if kind == "growers" else 0
        high = 0 if kind == "steps" else 8
        periods = draw(st.lists(st.tuples(st.integers(low, high), st.integers(0, 9)),
                                max_size=3))
        periods = draw(st.permutations(periods + draw(st.sampled_from([[], [(0, 0)]]))))
        b1 = draw(st.one_of(st.integers(0, 12), st.integers(bound + 1, bound + 9)))
        comps.append(LinearSet((draw(st.integers(0, 12)), b1), tuple(periods)))
    return SemilinearSet(tuple(comps)), draw(st.integers(0, 20)), bound


@settings(max_examples=300, deadline=None)
@given(fiber_cases())
def test_fiber_indicator_matches_pointwise_membership(case):
    s, x, bound = case
    bits = fiber_indicator(s, x, bound)
    assert bits >> (bound + 1) == 0
    assert [(bits >> yv) & 1 == 1 for yv in range(bound + 1)] == \
        [membership(s, (x, yv)) for yv in range(bound + 1)]


def test_fiber_indicator_matches_membership_on_seeded_sets():
    rng = random.Random(7)
    for _ in range(25):
        s = random_semilinear_set(rng)
        x = rng.randint(0, 10)
        bound = 40
        bits = fiber_indicator(s, x, bound)
        for yv in range(bound + 1):
            assert bool((bits >> yv) & 1) == membership(s, (x, yv))


def test_eventual_period_divides_lcm_bound():
    rng = random.Random(12345)
    for _ in range(60):
        s = random_semilinear_set(rng)
        bound = lcm_period_bound(s)
        for x in range(0, 9, 4):
            period = fiber_eventual_period(s, x, 4095)
            assert bound % period == 0


def test_witness_examples():
    rec = nonsemilinearity_witness(1, 1000)
    assert (rec.x, rec.period) == (10, 1021)
    rec = nonsemilinearity_witness(1, 1)
    assert (rec.x, rec.period) == (3, 5)
    rec = nonsemilinearity_witness(2, 100)
    assert (rec.x, rec.period) == (7, 119)


def test_witness_always_beats_the_bound():
    rng = random.Random(99)
    for _ in range(200):
        y = rng.randint(1, 40)
        m = rng.randint(1, 10 ** rng.randint(1, 40))
        rec = nonsemilinearity_witness(y, m)
        assert rec.period > m
        assert rec.period == (1 << rec.x) - 3**y
        # minimality: one smaller x is either inadmissible or within the bound
        prev_gap = (1 << (rec.x - 1)) - 3**y
        assert prev_gap <= m
    with pytest.raises(ValueError):
        nonsemilinearity_witness(0, 5)


def test_exact_periods_strictly_increase_in_x():
    for y in (1, 2, 3):
        periods = []
        x = (3**y).bit_length()
        while (1 << x) <= 3**y:
            x += 1
        for _ in range(15):
            periods.append(fiber_period_exact(y, x).period)
            x += 1
        assert periods == sorted(set(periods))


def naive_minimal_eventual_period(bits, length):
    """The exhaustive detector, kept as the oracle: every p from 1 up."""
    tail_from = length // 3
    tail = bits >> tail_from
    tlen = length - tail_from
    for p in range(1, tlen // 2 + 1):
        window = (1 << (tlen - p)) - 1
        if ((tail ^ (tail >> p)) & window) == 0:
            return p
    raise InconclusivePeriod(
        f"no eventual period of at most {tlen // 2} detected in a window of {length}"
    )


@st.composite
def period_windows(draw):
    """(bits, length) pairs, weighted towards the cases the pruning splits on."""
    kind = draw(st.sampled_from(
        ["short", "random", "zero", "single", "late", "noisy", "semilinear"]))
    if kind == "short":
        length = draw(st.integers(1, 3))
        return draw(st.integers(0, (1 << (length + 2)) - 1)), length
    length = draw(st.integers(0, 200))
    start, tlen = length // 3, length - length // 3  # the detector's transient and tail
    if kind == "random":
        return draw(st.integers(0, (1 << (length + 3)) - 1)), length
    if kind == "zero":  # set bits only in the transient, or past the window
        transient = draw(st.integers(0, (1 << start) - 1))
        return transient | (draw(st.integers(0, 3)) << length), length
    if kind == "single" and tlen:
        return 1 << (start + draw(st.integers(0, tlen - 1))), length
    if kind == "late" and tlen > 2:  # first set bit past the middle of the tail
        first = draw(st.integers(tlen // 2 + 1, tlen - 1))
        above = draw(st.integers(0, (1 << (tlen - first)) - 1))
        return (above | 1) << (start + first), length
    if kind == "noisy" and length:
        period = draw(st.integers(1, max(1, length // 2)))
        word = draw(st.integers(0, (1 << period) - 1))
        bits = sum(((word >> (i % period)) & 1) << i for i in range(length))
        for flip in draw(st.lists(st.integers(0, length - 1), max_size=3)):
            bits ^= 1 << flip
        return bits, length
    # "semilinear", and the kinds above when the window is too short for them
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.integers(0, 200))
    return fiber_indicator(random_semilinear_set(rng), draw(st.integers(0, 12)), bound), bound + 1


def _period_or_inconclusive(detect, bits, length):
    try:
        return detect(bits, length)
    except InconclusivePeriod as exc:
        return ("inconclusive", str(exc))


@settings(max_examples=800, deadline=None)
@given(period_windows())
def test_pruned_period_detector_matches_the_exhaustive_search(window):
    bits, length = window
    assert _period_or_inconclusive(_minimal_eventual_period, bits, length) == \
        _period_or_inconclusive(naive_minimal_eventual_period, bits, length)
