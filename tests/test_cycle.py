"""Cycle equation: constants, moduli, 2-adic solutions, exact integrality,
and prefix certificates."""

import pytest
from hypothesis import given, strategies as st

from ghostcycles.cycle import cycle_constant, ghost_cycle, integrality_test, modulus
from ghostcycles.padic import PrecisionError
from ghostcycles.patterns import COLLATZ, GeneralizedMap, ParityPattern, is_admissible

from oracles import InadmissiblePattern, Inconclusive, enumerate_by_length, prefix_certificate


def random_pattern(draw, max_x=24):
    x = draw(st.integers(1, max_x))
    y = draw(st.integers(1, x))
    mid = draw(st.sets(st.integers(1, x - 1), min_size=y - 1, max_size=y - 1)) if y > 1 else set()
    return ParityPattern(x, y, (0,) + tuple(sorted(mid)))


patterns = st.composite(random_pattern)()


def test_cycle_constant_examples():
    assert cycle_constant(ParityPattern(2, 1, (0,))) == 1
    assert cycle_constant(ParityPattern(4, 2, (0, 1))) == 5
    assert cycle_constant(ParityPattern(6, 3, (0, 2, 4))) == 37


def test_modulus_examples():
    assert modulus(ParityPattern(2, 1, (0,))) == 1
    assert modulus(ParityPattern(4, 2, (0, 1))) == 7
    assert modulus(ParityPattern(1, 1, (0,))) == -1


@given(patterns)
def test_constant_and_modulus_are_odd(p):
    assert cycle_constant(p) % 2 == 1
    assert modulus(p) % 2 != 0


def test_ghost_cycle_examples():
    g = ghost_cycle(ParityPattern(2, 1, (0,)), 16)
    assert g.n0.residue == 1 and g.quotient == 1

    g = ghost_cycle(ParityPattern(4, 2, (0, 1)), 5)
    assert g.n0.residue == 19 and g.quotient is None  # 7^-1 = 23 mod 32, 5*23 = 115 = 19

    g = ghost_cycle(ParityPattern(4, 2, (0, 2)), 16)
    assert g.n0.residue == 1 and g.quotient == 1


@pytest.mark.parametrize("precision", [0, -1])
def test_ghost_cycle_rejects_precision_below_one(precision):
    # a mask built first would raise ValueError("negative shift count") at -1
    with pytest.raises(PrecisionError, match=f"got {precision}"):
        ghost_cycle(ParityPattern(4, 2, (0, 1)), precision)


def test_integrality_examples():
    assert integrality_test(ParityPattern(2, 1, (0,))) == 1
    assert integrality_test(ParityPattern(4, 2, (0, 1))) is None
    assert integrality_test(ParityPattern(1, 1, (0,))) == -1


def _classical_orbit(n, limit=500):
    # signed classical Collatz orbit oracle, independent of the package
    seen = [n]
    for _ in range(limit):
        n = n // 2 if n % 2 == 0 else 3 * n + 1
        if n == seen[0] and len(seen) > 1:
            return seen
        seen.append(n)
    raise AssertionError("no return to start")


@pytest.mark.parametrize(
    "p, value",
    [
        (ParityPattern(1, 1, (0,)), -1),
        (ParityPattern(3, 2, (0, 1)), -5),
        (ParityPattern(11, 7, (0, 1, 2, 3, 5, 6, 7)), -17),
    ],
)
def test_negative_cycles_match_classical_orbits(p, value):
    assert integrality_test(p) == value
    orbit = _classical_orbit(value)
    assert len(orbit) == p.ell  # ell = x + y steps of the unaccelerated map
    assert sum(1 for n in orbit if n % 2 == 1) == p.y


@given(patterns, st.integers(1, 200), st.integers(1, 200))
def test_residual_and_uniqueness(p, k1, k2):
    lo, hi = sorted((k1, k2))
    g_lo, g_hi = ghost_cycle(p, lo), ghost_cycle(p, hi)
    m, c = modulus(p), cycle_constant(p)
    assert (g_hi.n0.residue * m - c) % (1 << hi) == 0
    assert g_lo.n0.agrees_with(g_hi.n0)  # Thm-4.1-style uniqueness across precisions


@given(patterns)
def test_verdict_matches_exact_division(p):
    c, m = cycle_constant(p), modulus(p)
    v = integrality_test(p)
    if c % m == 0:
        assert v == c // m
        assert v * m == c
    else:
        assert v is None


def test_prefix_certificate_examples():
    assert prefix_certificate(ParityPattern(4, 2, (0, 1)), 4) is None
    assert prefix_certificate(ParityPattern(2, 1, (0,)), 2) == 1
    assert prefix_certificate(ParityPattern(4, 2, (0, 2)), 1) == 1
    # 5n+1: 13 -> 33 -> 83 -> 13, bound ceil(C / m) = 13 < 2^4
    assert prefix_certificate(ParityPattern(7, 3, (0, 1, 2)), 4, GeneralizedMap(5, 1)) == 13
    assert prefix_certificate(ParityPattern(7, 3, (0, 1, 2)), 3, GeneralizedMap(5, 1)) \
        == Inconclusive()
    # 3n-1: 1 -> 2 -> 1, where C = -1 and m = 2 - 3 are both negative
    assert prefix_certificate(ParityPattern(1, 1, (0,)), 1, GeneralizedMap(3, -1)) == 1


def test_prefix_certificate_rejects_inadmissible():
    with pytest.raises(InadmissiblePattern):
        prefix_certificate(ParityPattern(1, 1, (0,)), 4)
    with pytest.raises(InadmissiblePattern):  # 2^2 > 3 is inadmissible when d < 0
        prefix_certificate(ParityPattern(2, 1, (0,)), 4, GeneralizedMap(3, -1))


_MAPS = [COLLATZ, GeneralizedMap(5, 1), GeneralizedMap(3, -1), GeneralizedMap(7, 3)]


@given(patterns, st.integers(1, 64), st.sampled_from(_MAPS))
def test_certificate_is_sound_and_consistent(p, k, map_):
    if not is_admissible(p.x, p.y, map_.q, map_.d):
        return
    cert = prefix_certificate(p, k, map_)
    if cert != Inconclusive():
        assert cert == integrality_test(p, map_)
    c, m = cycle_constant(p, map_), modulus(p, map_)
    # conclusive exactly above the bound: below it r < 2^k <= ceil(C / m)
    # cannot rule the pattern out
    assert (cert != Inconclusive()) == ((1 << k) > -(-c // m))


def test_repetition_family_is_the_trivial_cycle():
    for r in range(1, 11):
        p = ParityPattern(2 * r, r, tuple(range(0, 2 * r, 2)))
        expected = (1 << (2 * r)) - 3**r
        assert cycle_constant(p) == expected == modulus(p)
        assert integrality_test(p) == 1


def test_integer_verdicts_are_positive_when_admissible():
    for p, adm in enumerate_by_length(16):
        v = integrality_test(p)
        if adm and v is not None:
            assert v >= 1
