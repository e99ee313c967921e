"""2-adic map steps, forced valuations, cycle closure, and the classical
integer oracle."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from ghostcycles.cycle import GhostCycle, ghost_cycle, integrality_test
from ghostcycles.dynamics import DynamicsViolation, iterate_cycle, replay_record
from ghostcycles.padic import PadicInt, PrecisionError, _inverse_mod_pow2
from ghostcycles.patterns import GeneralizedMap, ParityPattern, is_admissible

from oracles import (
    Branch,
    ValuationIndeterminate,
    enumerate_by_length,
    iterate_integer,
    parity_word,
    t2_step,
    trace_cycle,
    verify_periodicity,
)


def test_t2_step_examples():
    out, branch, s = t2_step(PadicInt(1, 8))
    assert (out.residue, out.precision, branch, s) == (1, 6, Branch.ODD, 2)

    out, branch, s = t2_step(PadicInt(19, 5))
    assert (out.residue, out.precision, branch, s) == (13, 4, Branch.ODD, 1)

    out, branch, s = t2_step(PadicInt(6, 4))
    assert (out.residue, out.precision, branch, s) == (3, 3, Branch.EVEN, 1)


def test_t2_step_error_cases():
    with pytest.raises(ValuationIndeterminate):
        t2_step(PadicInt(0, 8))
    with pytest.raises(PrecisionError):
        t2_step(PadicInt(1, 2))  # 3*1+1 = 0 mod 4: halvings would exhaust the window


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


def test_iterate_cycle_needs_headroom():
    with pytest.raises(PrecisionError):
        iterate_cycle(ParityPattern(4, 2, (0, 1)), 5)  # precision must exceed x+1


@st.composite
def _trace_inputs(draw):
    """A map, a pattern up to ell 40 and a precision from x + 2 up to
    10,007 bits."""
    q, d = draw(st.sampled_from([(3, 1), (5, 1), (3, -1), (7, 3)])
                | st.tuples(st.sampled_from([3, 5, 7, 9]), st.integers(-15, 15).filter(lambda v: v % 2)))
    x = draw(st.integers(1, 39))
    y = draw(st.integers(1, min(x, 40 - x)))
    sigma = (0, *sorted(draw(st.permutations(range(1, x)))[:y - 1]))
    precision = draw(st.sampled_from([x + 2, 64, x + 64, 10_007]))
    return GeneralizedMap(q, d), ParityPattern(x, y, sigma), precision


@settings(max_examples=300, deadline=None)
@given(_trace_inputs())
@example((GeneralizedMap(5, 1), ParityPattern(7, 3, (0, 1, 2)), 10_007))  # through 13
@example((GeneralizedMap(3, -1), ParityPattern(1, 1, (0,)), 3))  # the fixed point 1, at x + 2
def test_iterate_cycle_equals_the_step_by_step_trace(case):
    # the units read off the exact orbit's numerators, the halving counts
    # and the precision left equal those of t2_step on truncated residues
    m, p, precision = case
    t, oracle = iterate_cycle(p, precision, m), trace_cycle(p, precision, m)
    assert t.m == oracle.m
    assert t.step_valuations == oracle.step_valuations
    assert t.final_precision == oracle.final_precision


def test_trace_invariants_on_examples():
    for p in [ParityPattern(2, 1, (0,)), ParityPattern(4, 2, (0, 1)), ParityPattern(5, 2, (0, 3))]:
        t = iterate_cycle(p, 64)
        assert sum(t.step_valuations) == p.x
        assert len(t.m) == p.y + 1
        assert all(m.residue & 1 for m in t.m)
        assert t.closed
        assert t.m[0] == ghost_cycle(p, 64).n0


def _replay_cases(q, d, ell_max):
    # records solved by the cycle module, at precisions below, at and past x + 2
    m = GeneralizedMap(q, d)
    for p, _adm in enumerate_by_length(ell_max):
        for precision in (p.x, p.x + 1, p.x + 2, 64):
            g = ghost_cycle(p, precision, m)
            yield p, precision, g.constant, g.n0.residue, g.modulus, g.quotient


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1)])
def test_replay_record_accepts_the_record_and_rejects_every_bit_flip(q, d):
    for p, precision, c, n0, modulus, quo in _replay_cases(q, d, 12):
        replay_record(q, d, p.x, p.sigma, c, n0, modulus, precision, quo)
        for bit in range(precision):
            with pytest.raises(DynamicsViolation):
                replay_record(q, d, p.x, p.sigma, c, n0 ^ (1 << bit), modulus, precision, quo)
            # C, n0 and the quotient moved together still agree with each
            # other; above bit x the halving counts cannot tell, so the
            # closure must
            moved = (n0 + (1 << bit)) & ((1 << precision) - 1)
            moved_quo = None if quo is None else quo + (1 << bit)
            with pytest.raises(DynamicsViolation) as caught:
                replay_record(q, d, p.x, p.sigma, c + (modulus << bit), moved, modulus, precision,
                              moved_quo)
            if bit > p.x:
                assert (caught.value.kind, caught.value.step) == ("closure", p.y)
        for step in (-1, 1):  # a wrong C that keeps the verdict and quotient consistent
            with pytest.raises(DynamicsViolation) as caught:
                replay_record(q, d, p.x, p.sigma, c + step * modulus, n0, modulus, precision,
                              None if quo is None else quo + step)
            assert caught.value.kind != "verdict"
        with pytest.raises(DynamicsViolation):  # a residue past the record's precision
            replay_record(q, d, p.x, p.sigma, c, n0 + (1 << precision), modulus, precision, quo)


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1)])
def test_replay_record_rejects_a_wrong_verdict_or_quotient(q, d):
    # the oracle is the cycle module's verdict; C and n0 stay the record's own
    integers = ghosts = 0
    for p, precision, c, n0, modulus, quo in _replay_cases(q, d, 12):
        if quo is None:  # a ghost labelled as an integer cycle
            wrongs, expected = (c // modulus, c // modulus + 1, 1), None
            ghosts += 1
        else:  # quotient off by one, or an integer cycle labelled as a ghost
            wrongs, expected = (quo - 1, quo + 1, None), quo
            integers += 1
        for wrong in wrongs:
            with pytest.raises(DynamicsViolation) as caught:
                replay_record(q, d, p.x, p.sigma, c, n0, modulus, precision, wrong)
            got = caught.value
            assert (got.kind, got.step, got.expected, got.observed) == (
                "verdict", p.y, expected, wrong)
    assert integers >= 8 and ghosts > 500


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1)])
def test_replay_record_rejects_a_consistent_record_of_another_pattern(q, d):
    # C, n0 and the quotient agree with each other, so only the orbit
    # replay can tell
    by_cell = {}
    for p, precision, c, n0, modulus, quo in _replay_cases(q, d, 12):
        by_cell.setdefault((p.x, p.y, precision), []).append((p, c, n0, modulus, quo))
    checked = 0
    for (x, _y, precision), records in by_cell.items():
        for (p, c, n0, modulus, quo), (other, *_rest) in zip(records, records[1:] + records[:1]):
            if other.sigma == p.sigma:
                continue
            with pytest.raises(DynamicsViolation) as caught:
                replay_record(q, d, x, other.sigma, c, n0, modulus, precision, quo)
            assert caught.value.kind != "verdict"
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1)])
def test_replay_record_names_the_first_step_another_pattern_misses(q, d):
    # the record's own orbit sheds p's halving counts, so replayed with
    # another sigma of the cell it must fail at the first step where the
    # two patterns differ, observing p's count there
    by_cell = {}
    for p, precision, c, n0, modulus, quo in _replay_cases(q, d, 12):
        by_cell.setdefault((p.x, p.y, precision), []).append((p, c, n0, modulus, quo))
    checked = 0
    for (x, _y, precision), records in by_cell.items():
        for (p, c, n0, modulus, quo), (other, *_rest) in zip(records, records[1:] + records[:1]):
            if other.sigma == p.sigma:
                continue
            k = next(k for k, (a, b) in enumerate(zip(p.steps(), other.steps())) if a != b)
            with pytest.raises(DynamicsViolation) as caught:
                replay_record(q, d, x, other.sigma, c, n0, modulus, precision, quo)
            got = caught.value
            assert (got.kind, got.step, got.expected, got.observed) == (
                "valuation", k, other.steps()[k], p.steps()[k])
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1)])
def test_replay_record_accepts_what_the_traced_replay_closes(q, d):
    # the oracle: trace_cycle steps each orbit from its own n0 with
    # t2_step on truncated residues; the int-only replay must accept a
    # record carrying exactly that n0, and see the same halving counts
    m = GeneralizedMap(q, d)
    for p, precision, c, n0, modulus, quo in _replay_cases(q, d, 12):
        depth = max(precision, p.x + 2)
        trace = trace_cycle(p, depth, m)
        assert trace.closed and trace.step_valuations == p.steps()
        assert trace.m[0].residue & ((1 << precision) - 1) == n0
        replay_record(q, d, p.x, p.sigma, c, n0, modulus, precision, quo)


def _replay_oracle(q, d, x, sigma, c, n0, modulus, precision, quotient):
    """replay_record's reference: the same checks in the same order, with the
    orbit of n0's known bits replayed on the unit m itself (t = q*m + d,
    shift out e bits), n0 lifted to x + 2 bits from C when the record has
    fewer.  It pins C only modulo 2**max(precision, x + 2)."""
    y = len(sigma)
    exact = None if c % modulus else c // modulus
    if quotient != exact:
        raise DynamicsViolation(y, exact, quotient, kind="verdict")
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
    if not n0 & 1:
        raise DynamicsViolation(0, 0, (n0 & -n0).bit_length() - 1 if n0 else None, kind="unit")
    m = n0
    for k, (lo, hi) in enumerate(zip(sigma, (*sigma[1:], x))):
        e = hi - lo
        t = q * m + d
        if t & ((2 << e) - 1) != 1 << e:
            t &= (1 << width) - 1
            raise DynamicsViolation(k, e, (t & -t).bit_length() - 1 if t else width)
        m = t >> e
        width -= e
    if (m - n0) & ((1 << width) - 1):
        raise DynamicsViolation(y, 0, None, kind="closure")
    if sigma[0]:
        raise DynamicsViolation(0, 0, sigma[0], kind="pattern")


def _outcome(replay, *record):
    try:
        replay(*record)
    except DynamicsViolation as exc:
        return exc.kind, exc.step, exc.expected, exc.observed
    return "accepted"


@st.composite
def _replay_inputs(draw):
    """A map, a pattern up to ell 40, a precision around x, and what the
    perturbations need: a bit, a sign, another sigma of the cell, a first
    sigma entry and how far past the precision the blind spot moves C."""
    q, d = draw(st.sampled_from([(3, 1), (5, 1), (3, -1), (7, 3)])
                | st.tuples(st.sampled_from([3, 5, 7, 9]), st.integers(-15, 15).filter(lambda v: v % 2)))
    x = draw(st.integers(1, 39))
    y = draw(st.integers(1, min(x, 40 - x)))

    def sigma():
        if y == 1:
            return (0,)
        return (0, *sorted(draw(st.sets(st.integers(1, x - 1), min_size=y - 1, max_size=y - 1))))

    precision = draw(st.sampled_from([x, x + 1, x + 2, 64, x + 64]))
    return (q, d, ParityPattern(x, y, sigma()), precision, draw(st.integers(0, precision - 1)),
            draw(st.sampled_from([-1, 1])), sigma(), draw(st.sampled_from([1, 2])),
            draw(st.integers(0, x + 70)))


def _built(q, d, x, sigma, precision):
    """The record that ghost_cycle builds for sigma, as (sigma, C, n0,
    quotient), or None when sigma is no pattern."""
    if sigma[0]:
        return None
    g = ghost_cycle(ParityPattern(x, len(sigma), sigma), precision, GeneralizedMap(q, d))
    return sigma, g.constant, g.n0.residue, g.quotient


def _perturbed(case):
    """The drawn pattern's modulus and its record, followed by perturbed
    records, each as (sigma, C, n0, quotient)."""
    q, d, p, precision, bit, step, other, first, past = case
    own = sigma, c, n0, quo = _built(q, d, p.x, p.sigma, precision)
    modulus, mask = (1 << p.x) - q**p.y, (1 << precision) - 1
    shifted = (quo if quo is not None else c // modulus) + step
    blind = precision + past
    records = [
        own,
        (sigma, c, n0 ^ (1 << bit), quo),
        # C, n0 and quotient moved together, so only the orbit can tell
        (sigma, c + (modulus << bit), (n0 + (1 << bit)) & mask,
         None if quo is None else quo + (1 << bit)),
        # the blind spot of a replay on n0's bits: C and quotient moved
        # past the precision, n0 unchanged
        (sigma, c + (modulus << blind), n0, None if quo is None else quo + (1 << blind)),
        (sigma, c + step * modulus, n0, quo),
        (sigma, c + step * modulus, n0, None if quo is None else quo + step),
        (sigma, c, n0, shifted),
        (other, c, n0, quo),
    ]
    if first < (sigma[1] if p.y > 1 else p.x):
        records.append(((first, *sigma[1:]), c, n0, quo))
    return modulus, records


# the record of (x=5, y=2, sigma=(0, 3)) replayed with sigma (1, 3) fails at step 0
_SIGMA_1_3 = (3, 1, ParityPattern(5, 2, (0, 3)), 64, 0, 1, (0, 3), 1, 0)


@settings(max_examples=300, deadline=None)
@given(_replay_inputs())
@example(_SIGMA_1_3)
def test_replay_record_accepts_exactly_the_records_ghost_cycle_builds(case):
    q, d, p, precision = case[:4]
    modulus, records = _perturbed(case)
    for sig, c, n0, quo in records:
        record = (q, d, p.x, sig, c, n0, modulus, precision, quo)
        accepted = _outcome(replay_record, *record) == "accepted"
        assert accepted == ((sig, c, n0, quo) == _built(q, d, p.x, sig, precision)), record


@settings(max_examples=300, deadline=None)
@given(_replay_inputs())
@example(_SIGMA_1_3)
def test_replay_record_rejects_what_the_m_form_oracle_rejects(case):
    # at the same step with the same kind; the observed count may differ
    # where the oracle runs out of known bits
    q, d, p, precision = case[:4]
    modulus, records = _perturbed(case)
    for sig, c, n0, quo in records:
        record = (q, d, p.x, sig, c, n0, modulus, precision, quo)
        oracle = _outcome(_replay_oracle, *record)
        if oracle != "accepted":
            assert _outcome(replay_record, *record)[:2] == oracle[:2], record


@settings(max_examples=300, deadline=None)
@given(_replay_inputs())
@example(_SIGMA_1_3)
def test_replay_record_reports_the_m_form_oracles_violation_for_the_patterns_own_c(case):
    # the two replays part only on a record whose C is not the pattern's own
    q, d, p, precision = case[:4]
    modulus, records = _perturbed(case)
    c = records[0][1]
    for sig, c_, n0, quo in records:
        if c_ == c:
            record = (q, d, p.x, sig, c, n0, modulus, precision, quo)
            assert _outcome(replay_record, *record) == _outcome(_replay_oracle, *record), record


@pytest.mark.parametrize("x,y,sigma,precision", [
    (4, 2, (0, 2), 64), (5, 2, (0, 3), 64), (14, 6, (0, 1, 2, 7, 8, 9), 5), (3, 1, (0,), 1)])
@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1), (7, 3)])
def test_replay_record_rejects_a_c_moved_past_the_precision(q, d, x, y, sigma, precision):
    # C moved by modulus * 2**b, b >= precision, and the quotient by 2**b:
    # n0 * modulus = C still holds mod 2**precision, and the orbit of n0's
    # known bits would close; the exact orbit cannot
    _, c, n0, quo = _built(q, d, x, sigma, precision)
    modulus = (1 << x) - q**y
    for b in range(precision, precision + x + 8):
        moved = (q, d, x, sigma, c + (modulus << b), n0, modulus, precision,
                 None if quo is None else quo + (1 << b))
        outcome = _outcome(replay_record, *moved)
        assert outcome != "accepted", moved
        if b > x:  # every halving count is that of the true orbit
            assert outcome[:2] == ("closure", y), moved


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (3, -1), (7, 3)]), st.data())
def test_a_flipped_bit_fails_the_congruence_first(map_, data):
    # each flipped bit of n0 breaks n0 * modulus = C mod 2**precision, which
    # is checked before the orbit at every precision, down to one bit
    q, d = map_
    x = data.draw(st.integers(1, 39))
    y = data.draw(st.integers(1, min(x, 40 - x)))
    sigma = (0, *sorted(data.draw(st.permutations(range(1, x)))[:y - 1]))
    precision = data.draw(st.integers(1, x + 2) | st.just(64))
    g = ghost_cycle(ParityPattern(x, y, sigma), precision, GeneralizedMap(q, d))
    c, modulus, mask = g.constant, g.modulus, (1 << precision) - 1
    for bit in range(precision):
        flipped = g.n0.residue ^ (1 << bit)
        record = (q, d, x, sigma, c, flipped, modulus, precision, g.quotient)
        assert _outcome(replay_record, *record) == \
            ("closure", y, c & mask, (flipped * modulus) & mask)


def test_replay_record_starts_the_orbit_at_sigma_0():
    # the record of (x=5, y=2, sigma=(0, 3)) replayed with sigma (1, 3): an
    # orbit started at sigma_0 = 0 would shed the record's own 3 bits at
    # step 0 and accept it
    g = ghost_cycle(ParityPattern(5, 2, (0, 3)), 64)
    record = (3, 1, 5, (1, 3), g.constant, g.n0.residue, g.modulus, 64, None)
    assert _outcome(replay_record, *record) == _outcome(_replay_oracle, *record)
    assert _outcome(replay_record, *record)[:3] == ("valuation", 0, 2)


def test_replay_record_rejects_a_sigma_that_does_not_start_at_0():
    # the cycle through 1, shifted by one bit: sigma (1,) with x = 3 sheds
    # two bits from 3 * 5 + 5 and closes on C = 5, so every check but the
    # last passes; no pattern has sigma_0 = 1
    record = (3, 1, 3, (1,), 5, 1, 5, 64, 1)
    assert _outcome(replay_record, *record) == ("pattern", 0, 0, 1)
    assert _outcome(_replay_oracle, *record) == ("pattern", 0, 0, 1)


def test_verify_periodicity_examples():
    assert verify_periodicity(ParityPattern(2, 1, (0,)), 16)
    assert verify_periodicity(ParityPattern(4, 2, (0, 1)), 64)
    assert verify_periodicity(ParityPattern(5, 2, (0, 3)), 64)


def _solved_for(c, g):
    """g with its C replaced by c, and n0 and the quotient solved from c, so
    that the record agrees with itself."""
    precision = g.n0.precision
    quo, rem = divmod(c, g.modulus)
    n0 = PadicInt(c * _inverse_mod_pow2(g.modulus, precision), precision)
    return GhostCycle(g.pattern, c, g.modulus, n0, None if rem else quo)


@pytest.mark.parametrize("perturb,violation", [
    # C = 37 made even, so 2^2 || C ^ 1 = 36
    (lambda g: _solved_for(g.constant ^ 1, g), ("unit", 0, 0, 2)),
    # the first odd step sheds one bit too few
    (lambda g: _solved_for(g.constant ^ 2, g), ("valuation", 0, 2, 1)),
    # the right halving counts all the way round, but C is off by m * 2^(x+y)
    (lambda g: _solved_for(g.constant + (g.modulus << (g.pattern.x + g.pattern.y)), g),
     ("closure", 3, 0, None)),
    # n0 alone is off, so (n0 ^ 1) * 101 = 4294967232 != 37 mod 2^32
    (lambda g: GhostCycle(g.pattern, g.constant, g.modulus, PadicInt(g.n0.residue ^ 1, 32),
                          g.quotient),
     ("closure", 3, 37, 4294967232)),
])
def test_iterate_cycle_rejects_a_wrong_start(monkeypatch, perturb, violation):
    from ghostcycles import dynamics

    p = ParityPattern(7, 3, (0, 2, 4))
    assert (ghost_cycle(p, 32).constant, ghost_cycle(p, 32).modulus) == (37, 101)

    def wrong(p, precision, map_):
        return perturb(ghost_cycle(p, precision, map_))

    monkeypatch.setattr(dynamics, "ghost_cycle", wrong)
    with pytest.raises(DynamicsViolation) as caught:
        iterate_cycle(p, 32)
    exc = caught.value
    assert (exc.kind, exc.step, exc.expected, exc.observed) == violation
    assert not verify_periodicity(p, 32)


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
    assert word == parity_word(p)


def test_iterate_integer_examples():
    assert iterate_integer(1) == [1, 4, 2, 1]
    seq = iterate_integer(3)
    assert seq[:8] == [3, 10, 5, 16, 8, 4, 2, 1]
    assert 1 in iterate_integer(7)[:18]
    with pytest.raises(ValueError):
        iterate_integer(0)


# per map: how many positive integer-cycle patterns have x <= 14, and their
# values (each cycle's odd elements)
RECORDED_CYCLES = {
    (3, 1): (7, {1}),
    (5, 1): (16, {1, 3, 13, 17, 27, 33, 43, 83}),
    (3, -1): (29, {1, 5, 7, 17, 25, 37, 41, 55, 61, 91}),
    (7, 3): (4, {3}),
}


def test_integer_verdicts_rejoin_the_classical_map():
    # every positive integer cycle found by scanning the patterns with
    # x <= 14 must ride the classical map q*n + d, stepped here one halving
    # at a time, back to itself in exactly ell steps, spelling the pattern's
    # parity word (the minimal orbit may be shorter: r-fold patterns
    # traverse it r times)
    for (q, d), (found, values) in RECORDED_CYCLES.items():
        _assert_integer_verdicts_rejoin(q, d, found, values)


def _assert_integer_verdicts_rejoin(q, d, found, values):
    m = GeneralizedMap(q, d)
    cycles = []
    for x in range(1, 15):
        for y in range(1, x + 1):
            for p in _all_sigmas(x, y):
                v = integrality_test(p, m)
                if v is not None and v >= 1 and is_admissible(p.x, p.y, q, d):
                    n, word = v, ""
                    for _ in range(p.ell):
                        if n % 2:
                            word += "O"
                            n = q * n + d
                        else:
                            word += "E"
                            n //= 2
                    assert n == v
                    assert word == parity_word(p)
                    minimal = iterate_integer(v, map_=m)
                    assert minimal[-1] == v
                    assert p.ell % (len(minimal) - 1) == 0
                    cycles.append(v)
    assert (q, d, len(cycles), set(cycles)) == (q, d, found, values)


def _all_sigmas(x, y):
    for mid in combinations(range(1, x), y - 1):
        yield ParityPattern(x, y, (0,) + mid)
