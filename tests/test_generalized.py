"""The cycle functions on maps qn + d, pinned to the known 5n+1 and 3n-1
integer cycles and to the classical orbits they ride."""

from itertools import combinations

import pytest

from ghostcycles.cycle import cycle_constant, ghost_cycle, integrality_test
from ghostcycles.dynamics import iterate_cycle
from ghostcycles.patterns import COLLATZ, GeneralizedMap, ParityPattern, is_admissible

from oracles import iterate_integer, verify_periodicity

FIVE = GeneralizedMap(5, 1)


def test_map_validation():
    assert COLLATZ == GeneralizedMap(3, 1)
    for q, d in [(2, 1), (4, 1), (1, 1), (3, 0), (3, 2), (-3, 1)]:
        with pytest.raises(ValueError):
            GeneralizedMap(q, d)
    GeneralizedMap(3, -1)  # negative odd offsets are allowed
    GeneralizedMap(7, 3)


def test_general_constant_examples():
    assert cycle_constant(ParityPattern(5, 2, (0, 1)), FIVE) == 7
    assert cycle_constant(ParityPattern(7, 3, (0, 1, 2)), FIVE) == 39


def test_general_ghost_cycle_examples():
    g = ghost_cycle(ParityPattern(5, 2, (0, 1)), 64, FIVE)
    assert g.quotient == 1 and g.modulus == 7

    g = ghost_cycle(ParityPattern(7, 3, (0, 1, 2)), 64, FIVE)
    assert g.quotient == 13 and g.modulus == 3

    g = ghost_cycle(ParityPattern(5, 2, (0, 2)), 64, FIVE)
    assert g.quotient is None and g.constant == 9


def test_general_iterate_examples():
    t = iterate_cycle(ParityPattern(5, 2, (0, 1)), 32, FIVE)
    assert t.step_valuations == (1, 4) and t.closed

    t = iterate_cycle(ParityPattern(7, 3, (0, 1, 2)), 32, FIVE)
    assert t.step_valuations == (1, 1, 5)
    assert [m.residue for m in t.m] == [13, 33, 83, 13 % (1 << t.final_precision)]


def test_general_integer_oracle_examples():
    assert iterate_integer(1, map_=FIVE) == [1, 6, 3, 16, 8, 4, 2, 1]
    orbit13 = iterate_integer(13, map_=FIVE)
    assert orbit13[-1] == 13 and len(orbit13) == 11  # 10 steps + the start
    assert iterate_integer(1, map_=COLLATZ) == [1, 4, 2, 1]


def test_admissibility_sign_flips_with_d():
    assert is_admissible(5, 2, 5, 1)  # 32 > 25
    assert not is_admissible(5, 2, 7, 1)  # 32 < 49
    # for d < 0 a positive-integer cycle needs a negative modulus instead
    assert is_admissible(5, 2, 7, -1)
    assert not is_admissible(5, 2, 3, -1)


def test_five_n_plus_one_scan_confirms_known_cycles():
    found = {}
    for x in range(1, 20):
        for y in range(1, min(x, 20 - x) + 1):
            for mid in combinations(range(1, x), y - 1):
                p = ParityPattern(x, y, (0,) + mid)
                v = integrality_test(p, FIVE)
                if v is not None and v >= 1 and is_admissible(p.x, p.y, FIVE.q, FIVE.d):
                    found[(x, y, p.sigma)] = v
    assert found[(5, 2, (0, 1))] == 1
    assert found[(7, 3, (0, 1, 2))] == 13
    # every find replays on the classical 5n+1 map through ell exact steps
    for (x, y, sigma), value in found.items():
        p = ParityPattern(x, y, sigma)
        n = value
        for _ in range(p.ell):
            n = 5 * n + 1 if n % 2 else n // 2
        assert n == value
        assert verify_periodicity(p, x + 32, FIVE)


def test_seventeen_cycle_of_5n1_is_found():
    # 17 -> 86 -> 43 -> 216 -> 108 -> 54 -> 27 -> 136 -> ... -> 17
    v = integrality_test(ParityPattern(7, 3, (0, 1, 4)), FIVE)
    assert v == 17
    orbit = iterate_integer(17, map_=FIVE)
    assert orbit[-1] == 17 and len(orbit) == 11


def test_negative_offset_map_has_integer_cycles():
    # 3n-1 on n=1: 1 -> 2 -> 1, pattern (1,1,(0)) with modulus 2-3 = -1, C = -1
    g = ghost_cycle(ParityPattern(1, 1, (0,)), 32, GeneralizedMap(3, -1))
    assert g.quotient == 1
    t = iterate_cycle(ParityPattern(1, 1, (0,)), 32, GeneralizedMap(3, -1))
    assert t.closed and t.m[0].residue == 1
