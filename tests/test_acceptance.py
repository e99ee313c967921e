"""Acceptance gate: the eight exit criteria, each timed against its stated
budget and reporting one pass/fail line."""

import random
import sys
import time
from itertools import combinations

from ghostcycles import _kernel_py
from ghostcycles.cycle import cycle_constant, ghost_cycle, integrality_test, modulus
from ghostcycles.dynamics import iterate_cycle
from ghostcycles.padic import PadicInt, _inverse_mod_pow2
from ghostcycles.patterns import GeneralizedMap, ParityPattern, length_cells
from ghostcycles.semilinear import (
    fiber_period_bruteforce,
    fiber_period_exact,
    nonsemilinearity_witness,
)

from oracles import enumerate_by_length, iterate_integer, v2, verify_periodicity
from semilinear_sets import fiber_eventual_period, lcm_period_bound, random_semilinear_set


def report(name, elapsed, budget):
    line = f"ACCEPTANCE {name}: PASS ({elapsed:.3f}s, budget {budget}s)"
    # sys.__stdout__ bypasses pytest's capture so the gate line always shows
    print(line, file=sys.__stdout__ or sys.stdout)
    assert elapsed < budget, line.replace("PASS", "FAIL: over budget")


def test_criterion_1_trivial_cycle_identity():
    start = time.perf_counter()
    p = ParityPattern(2, 1, (0,))
    g = ghost_cycle(p, 64)
    assert cycle_constant(p) == 1
    assert modulus(p) == 1
    assert g.n0.residue == 1
    assert g.quotient == 1
    assert iterate_integer(1) == [1, 4, 2, 1]  # the 3-step cycle
    report("1 trivial-cycle-identity", time.perf_counter() - start, 0.05)


def test_criterion_2_ghost_example():
    start = time.perf_counter()
    p = ParityPattern(4, 2, (0, 1))
    g = ghost_cycle(p, 64)
    assert g.n0.residue % 32 == 19
    assert g.quotient is None
    assert verify_periodicity(p, 64)
    assert iterate_cycle(p, 64).step_valuations == (1, 3)
    report("2 ghost-example", time.perf_counter() - start, 1)


def test_criterion_3_exhaustive_scan_ell_24():
    start = time.perf_counter()
    integral_admissible = []
    count = 0
    for _ell, y, x in length_cells(24):
        admissible = (1 << x) > 3**y
        for sigma, _c, _n0, quo in _kernel_py.cell_records(x, y, 3, 1, 64):
            count += 1
            if admissible and quo is not None:
                integral_admissible.append((x, y, sigma, quo))
    family = {(2 * r, r, tuple(range(0, 2 * r, 2)), 1) for r in range(1, 9)}
    assert set(integral_admissible) == family
    assert len(integral_admissible) == 8
    for _x, _y, _sigma, value in integral_admissible:
        assert value == 1
        assert iterate_integer(value) == [1, 4, 2, 1]  # classical confirmation
    assert count == sum(1 for _ in enumerate_by_length(24))
    report("3 exhaustive-scan-ell-24", time.perf_counter() - start, 60)


def test_criterion_4_forced_valuations_1000_random():
    start = time.perf_counter()
    rng = random.Random(1729)
    checked = 0
    while checked < 1000:
        x = rng.randint(2, 39)
        y = rng.randint(1, min(x, 40 - x))
        if (1 << x) <= 3**y:
            continue
        mid = rng.sample(range(1, x), y - 1) if y > 1 else []
        p = ParityPattern(x, y, (0,) + tuple(sorted(mid)))
        trace = iterate_cycle(p, p.x + 32)  # raises on any dynamics violation
        assert sum(trace.step_valuations) == p.x
        assert trace.step_valuations == p.steps()
        checked += 1
    report("4 forced-valuations-1000", time.perf_counter() - start, 10)


def test_criterion_5_nonsemilinearity_evidence():
    start = time.perf_counter()
    for y in (1, 2, 3):
        three = 3**y
        x = three.bit_length()
        while (1 << x) <= three:
            x += 1
        periods = []
        for _ in range(15):  # first 15 admissible x
            exact = fiber_period_exact(y, x).period
            periods.append(exact)
            if exact <= 10_000:
                assert fiber_period_bruteforce(y, x, 3 * exact + 10) == exact
            x += 1
        assert all(a < b for a, b in zip(periods, periods[1:]))
        for m in (10, 10**3, 10**6):
            assert nonsemilinearity_witness(y, m).period > m
    report("5 nonsemilinearity-evidence", time.perf_counter() - start, 30)


def test_criterion_6_lcm_bound_on_200_random_sets():
    start = time.perf_counter()
    rng = random.Random(40320)
    for _ in range(200):
        s = random_semilinear_set(rng)
        bound = lcm_period_bound(s)
        x = rng.randint(0, 8)
        period = fiber_eventual_period(s, x, 4095)
        assert bound % period == 0
    report("6 lcm-bound-200-sets", time.perf_counter() - start, 30)


def test_criterion_7_five_n_plus_one_ground_truth():
    start = time.perf_counter()
    five = GeneralizedMap(5, 1)
    found = {}
    for _ell, y, x in length_cells(12):
        for mid in combinations(range(1, x), y - 1):
            p = ParityPattern(x, y, (0,) + mid)
            v = integrality_test(p, five)
            if v is not None:
                found[(x, y, p.sigma)] = v
    assert found[(5, 2, (0, 1))] == 1
    assert found[(7, 3, (0, 1, 2))] == 13
    orbit1 = iterate_integer(1, map_=five)
    assert orbit1 == [1, 6, 3, 16, 8, 4, 2, 1]
    orbit13 = iterate_integer(13, map_=five)
    assert orbit13[0] == orbit13[-1] == 13 and len(orbit13) == 11
    report("7 five-n-plus-one-ground-truth", time.perf_counter() - start, 30)


def test_criterion_8_padic_algebra_suite():
    start = time.perf_counter()
    rng = random.Random(496)

    for _ in range(300):  # ring laws at random precisions
        k = rng.randint(1, 128)
        a, b, c = (PadicInt(rng.getrandbits(k + 16), k) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * PadicInt(1, k) == a

    for k in (4, 8, 16):  # exhaustive inversion
        for r in range(1, 1 << k, 2):
            u = PadicInt(r, k)
            assert (u * PadicInt(_inverse_mod_pow2(r, k), k)).residue == 1

    for k in (64, 256):  # randomized inversion against the pow oracle
        for _ in range(200):
            r = rng.getrandbits(k) | 1
            assert _inverse_mod_pow2(r, k) == pow(r, -1, 1 << k)

    for _ in range(300):  # v2 additivity where exact
        i, j = rng.randint(0, 20), rng.randint(0, 20)
        k = i + j + 40
        a = PadicInt((2 * rng.getrandbits(16) + 1) << i, k)
        b = PadicInt((2 * rng.getrandbits(16) + 1) << j, k)
        assert v2(a * b) == i + j
    report("8 padic-algebra-suite", time.perf_counter() - start, 10)
