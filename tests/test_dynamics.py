"""2-adic map steps, forced valuations, cycle closure, and the classical
integer oracle."""

import pickle
import random
from itertools import combinations

import pytest

from ghostcycles.cycle import IntegerCycle, ghost_cycle, integrality_test
from ghostcycles.dynamics import (
    Branch,
    DynamicsViolation,
    iterate_cycle,
    iterate_integer,
    replay_record,
    t2_step,
    verify_periodicity,
)
from ghostcycles.padic import PrecisionError, ValuationIndeterminate, make
from ghostcycles.generalized import GeneralizedMap, general_ghost_cycle, general_iterate_cycle
from ghostcycles.patterns import ParityPattern, enumerate_by_length, is_admissible


def test_t2_step_examples():
    out, branch, s = t2_step(make(1, 8))
    assert (out.residue, out.precision, branch, s) == (1, 6, Branch.ODD, 2)

    out, branch, s = t2_step(make(19, 5))
    assert (out.residue, out.precision, branch, s) == (13, 4, Branch.ODD, 1)

    out, branch, s = t2_step(make(6, 4))
    assert (out.residue, out.precision, branch, s) == (3, 3, Branch.EVEN, 1)


def test_t2_step_error_cases():
    with pytest.raises(ValuationIndeterminate):
        t2_step(make(0, 8))
    with pytest.raises(PrecisionError):
        t2_step(make(1, 2))  # 3*1+1 = 0 mod 4: halvings would exhaust the window


def test_iterate_cycle_examples():
    t = iterate_cycle(ParityPattern(2, 1, (0,)), 16)
    assert [m.residue for m in t.m] == [1, 1]
    assert t.step_valuations == (2,)
    assert t.final_precision == 14

    t = iterate_cycle(ParityPattern(4, 2, (0, 1)), 16)
    assert t.step_valuations == (1, 3)
    assert t.m[2].agrees_with(t.m[0]) and t.final_precision == 12

    t = iterate_cycle(ParityPattern(6, 3, (0, 2, 4)), 32)
    assert [m.residue for m in t.m] == [1, 1, 1, 1]
    assert t.step_valuations == (2, 2, 2)


def test_dynamics_violation_survives_pickling():
    # a violation raised in a scan worker process crosses back by pickle
    for exc in (DynamicsViolation(3, 2, 1), DynamicsViolation(5, 0, None, kind="closure")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is DynamicsViolation
        assert (back.step, back.expected, back.observed, back.kind) == (
            exc.step, exc.expected, exc.observed, exc.kind)
        assert str(back) == str(exc)


def test_iterate_cycle_needs_headroom():
    with pytest.raises(PrecisionError):
        iterate_cycle(ParityPattern(4, 2, (0, 1)), 5)  # precision must exceed x+1


def test_trace_invariants_on_examples():
    for p in [ParityPattern(2, 1, (0,)), ParityPattern(4, 2, (0, 1)), ParityPattern(5, 2, (0, 3))]:
        t = iterate_cycle(p, 64)
        assert t.total_halvings == p.x
        assert len(t.m) == p.y + 1
        assert all(m.is_unit for m in t.m)
        assert t.closed
        assert t.m[0] == ghost_cycle(p, 64).n0


def _replay_cases(q, d, ell_max):
    # records solved by the cycle module, at the precisions around the lift
    m = GeneralizedMap(q, d)
    for p, _adm in enumerate_by_length(ell_max):
        for precision in (p.x, p.x + 1, p.x + 2, 64):
            g = general_ghost_cycle(m, p, precision)
            yield p, precision, g.constant, g.n0.residue, g.modulus


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1)])
def test_replay_record_accepts_the_record_and_rejects_every_bit_flip(q, d):
    for p, precision, c, n0, modulus in _replay_cases(q, d, 12):
        replay_record(q, d, p.x, p.sigma, c, n0, modulus, precision)
        for bit in range(precision):
            with pytest.raises(DynamicsViolation):
                replay_record(q, d, p.x, p.sigma, c, n0 ^ (1 << bit), modulus, precision)
            # C and n0 moved together still agree with each other; above bit
            # x the halving counts cannot tell, so the closure must
            moved = (n0 + (1 << bit)) & ((1 << precision) - 1)
            with pytest.raises(DynamicsViolation) as caught:
                replay_record(q, d, p.x, p.sigma, c + (modulus << bit), moved, modulus, precision)
            if bit > p.x:
                assert (caught.value.kind, caught.value.step) == ("closure", p.y)
        for wrong_c in (c - modulus, c + modulus):
            with pytest.raises(DynamicsViolation):
                replay_record(q, d, p.x, p.sigma, wrong_c, n0, modulus, precision)
        with pytest.raises(DynamicsViolation):  # a residue past the record's precision
            replay_record(q, d, p.x, p.sigma, c, n0 + (1 << precision), modulus, precision)


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1)])
def test_replay_record_rejects_a_consistent_record_of_another_pattern(q, d):
    # C and n0 agree with each other, so only the orbit replay can tell
    by_cell = {}
    for p, precision, c, n0, modulus in _replay_cases(q, d, 12):
        by_cell.setdefault((p.x, p.y, precision), []).append((p, c, n0, modulus))
    checked = 0
    for (x, _y, precision), records in by_cell.items():
        for (p, c, n0, modulus), (other, *_rest) in zip(records, records[1:] + records[:1]):
            if other.sigma == p.sigma:
                continue
            with pytest.raises(DynamicsViolation):
                replay_record(q, d, x, other.sigma, c, n0, modulus, precision)
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1)])
def test_replay_record_accepts_what_the_traced_replay_closes(q, d):
    # the oracle: iterate_cycle / general_iterate_cycle trace each orbit
    # from their own n0 with PadicInt; the int-only replay must accept a
    # record carrying exactly that n0, and see the same halving counts
    m = GeneralizedMap(q, d)
    for p, precision, c, n0, modulus in _replay_cases(q, d, 12):
        depth = max(precision, p.x + 2)
        trace = iterate_cycle(p, depth) if (q, d) == (3, 1) else general_iterate_cycle(m, p, depth)
        assert trace.closed and trace.step_valuations == p.steps()
        assert trace.m[0].residue & ((1 << precision) - 1) == n0
        replay_record(q, d, p.x, p.sigma, c, n0, modulus, precision)


def test_verify_periodicity_examples():
    assert verify_periodicity(ParityPattern(2, 1, (0,)), 16)
    assert verify_periodicity(ParityPattern(4, 2, (0, 1)), 64)
    assert verify_periodicity(ParityPattern(5, 2, (0, 3)), 64)


def _random_admissible(rng, ell_max=40):
    while True:
        x = rng.randint(2, ell_max - 1)
        y = rng.randint(1, min(x, ell_max - x))
        if (1 << x) <= 3**y:
            continue
        mid = rng.sample(range(1, x), y - 1) if y > 1 else []
        return ParityPattern(x, y, (0,) + tuple(sorted(mid)))


def test_forced_valuations_hold_on_500_random_patterns():
    rng = random.Random(20240229)
    for _ in range(500):
        p = _random_admissible(rng)
        t = iterate_cycle(p, p.x + 64)
        assert t.step_valuations == p.steps()
        assert t.closed and t.final_precision == 64


def test_parity_word_tracks_branches():
    # replaying the orbit spells the pattern's parity word; every stop is a
    # unit, so the accelerated map takes the odd branch y times in a row
    p = ParityPattern(7, 3, (0, 2, 3))
    cur = ghost_cycle(p, 64).n0
    word = ""
    for _ in range(p.y):
        cur, branch, s = t2_step(cur)
        assert branch is Branch.ODD
        word += "O" + "E" * s
    assert len(word) == p.ell
    assert word == p.parity_word()


def test_iterate_integer_examples():
    assert iterate_integer(1) == [1, 4, 2, 1]
    seq = iterate_integer(3)
    assert seq[:8] == [3, 10, 5, 16, 8, 4, 2, 1]
    assert 1 in iterate_integer(7)[:18]
    with pytest.raises(ValueError):
        iterate_integer(0)


def test_integer_verdicts_rejoin_the_classical_map():
    # every positive integer cycle found by scanning small patterns must ride
    # the classical map back to itself in exactly ell steps, spelling the
    # pattern's parity word (the minimal orbit may be shorter: r-fold
    # patterns traverse it r times)
    found = 0
    for x in range(1, 13):
        for y in range(1, x + 1):
            for p in _all_sigmas(x, y):
                v = integrality_test(p)
                if isinstance(v, IntegerCycle) and v.value >= 1 and is_admissible(p):
                    n, word = v.value, ""
                    for _ in range(p.ell):
                        if n % 2:
                            word += "O"
                            n = 3 * n + 1
                        else:
                            word += "E"
                            n //= 2
                    assert n == v.value
                    assert word == p.parity_word()
                    minimal = iterate_integer(v.value)
                    assert minimal[-1] == v.value
                    assert p.ell % (len(minimal) - 1) == 0
                    found += 1
    assert found >= 4  # at least the r-fold trivial family r <= 4


def _all_sigmas(x, y):
    for mid in combinations(range(1, x), y - 1):
        yield ParityPattern(x, y, (0,) + mid)
