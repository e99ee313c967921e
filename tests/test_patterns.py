"""Parity-pattern validation, admissibility, and enumeration order/counts;
the immutable value classes and the package's lazy names."""

import copy
import pickle
import subprocess
import sys
from math import factorial

import pytest
from hypothesis import given, strategies as st

import ghostcycles
from ghostcycles.cycle import GhostCycle, ghost_cycle
from ghostcycles.dynamics import CycleTrace, iterate_cycle
from ghostcycles.padic import PadicInt
from ghostcycles.patterns import (
    Frozen,
    GeneralizedMap,
    ParityPattern,
    PatternError,
    is_admissible,
    length_cells,
)
from ghostcycles.semilinear import FiberPeriodRecord

from oracles import Inconclusive, enumerate_by_length, enumerate_sigmas, parity_word
from semilinear_sets import LinearSet, SemilinearSet


def binom_oracle(n, k):
    # independent of math.comb on purpose
    if k < 0 or k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - k))


def test_validate_examples():
    p = ParityPattern(2, 1, (0,))
    assert p.ell == 3
    assert ParityPattern(4, 2, [0, 1]) == ParityPattern(4, 2, (0, 1))
    with pytest.raises(PatternError) as err:
        ParityPattern(4, 2, (1, 2))
    assert err.value.clause == "sigma[0] must be 0"


@pytest.mark.parametrize(
    "x, y, sigma, clause",
    [
        (0, 1, (0,), "x >= 1"),
        (2, 0, (), "y >= 1"),
        (4, 2, (0,), "len(sigma) == y"),
        (4, 2, (0, 0), "sigma strictly increasing"),
        (4, 2, (0, 4), "sigma[y-1] < x"),
        (4, 2, (0, 5), "sigma[y-1] < x"),
    ],
)
def test_validate_names_the_violated_clause(x, y, sigma, clause):
    with pytest.raises(PatternError) as err:
        ParityPattern(x, y, sigma)
    assert err.value.clause == clause


def test_steps_sum_to_x_and_parity_word():
    p = ParityPattern(4, 2, (0, 1))
    assert p.steps() == (1, 3)
    assert parity_word(p) == "OEOEEE"
    assert len(parity_word(p)) == p.ell


def test_admissibility_examples():
    assert is_admissible(2, 1)
    assert not is_admissible(3, 2)
    assert is_admissible(4, 2)


def test_admissibility_against_big_integer_oracle():
    for y in range(1, 41):
        three = 3**y
        for x in range(1, 65):
            assert (1 << x) != three  # no power coincidence in range
            assert is_admissible(x, y) == ((1 << x) > three)


@given(st.integers(1, 200), st.integers(1, 120), st.sampled_from([3, 5, 7, 9, 11]),
       st.sampled_from([-5, -3, -1, 1, 3, 5]))
def test_admissibility_is_exact_and_sign_aware_in_d(x, y, q, d):
    # oracle: the sign of the exact modulus 2**x - q**y
    gap = 2**x - q**y
    assert is_admissible(x, y, q, d) == (gap > 0 if d > 0 else gap < 0)


def test_enumerate_examples():
    assert [p.sigma for p in enumerate_sigmas(1, 2)] == [(0,)]
    assert [p.sigma for p in enumerate_sigmas(2, 4)] == [(0, 1), (0, 2), (0, 3)]
    assert sum(1 for _ in enumerate_sigmas(3, 4)) == 3
    assert list(enumerate_sigmas(3, 2)) == []  # y-1 > x-1: empty, not an error


def test_enumeration_counts_match_binomial_oracle():
    for x in range(1, 17):
        for y in range(1, x + 1):
            count = sum(1 for _ in enumerate_sigmas(y, x))
            assert count == binom_oracle(x - 1, y - 1)


def test_enumeration_is_lexicographic_and_revalidates():
    seen = [p.sigma for p in enumerate_sigmas(3, 6)]
    assert seen == sorted(seen)
    for sigma in seen:
        ParityPattern(6, 3, sigma)


def test_by_length_smallest_cases():
    assert [(p.x, p.y, p.sigma, a) for p, a in enumerate_by_length(3)] == [
        (1, 1, (0,), False),
        (2, 1, (0,), True),
    ]
    four = [(p.x, p.y, p.sigma, a) for p, a in enumerate_by_length(4)]
    assert (3, 1, (0,), True) in four
    assert (2, 2, (0, 1), False) in four  # 4 < 9


def test_by_length_two_is_the_degenerate_pattern():
    assert [(p.x, p.y, p.sigma, a) for p, a in enumerate_by_length(2)] == [(1, 1, (0,), False)]
    with pytest.raises(ValueError):
        list(length_cells(1))


def test_by_length_order_is_ell_then_y_then_sigma():
    out = list(enumerate_by_length(8))
    keys = [(p.ell, p.y, p.sigma) for p, _ in out]
    assert keys == sorted(keys)
    # every ell in range is hit and counts per ell follow the cell binomials
    for ell in range(2, 9):
        expect = sum(binom_oracle(ell - y - 1, y - 1) for y in range(1, ell // 2 + 1))
        assert sum(1 for p, _ in out if p.ell == ell) == expect


@given(st.integers(2, 14))
def test_length_cells_cover_exactly_the_constructible_cells(ell_max):
    cells = list(length_cells(ell_max))
    assert cells == sorted(cells)
    assert set(cells) == {
        (x + y, y, x)
        for x in range(1, ell_max)
        for y in range(1, x + 1)
        if x + y <= ell_max
    }


_P = ParityPattern(4, 2, (0, 1))
# one value of every immutable class, and where the class has fields, a
# value of it that differs from the first in one field
_VALUES = {
    ParityPattern: (_P, ParityPattern(4, 2, (0, 2))),
    GeneralizedMap: (GeneralizedMap(5, 1), GeneralizedMap(5, -1)),
    PadicInt: (PadicInt(19, 8), PadicInt(19, 9)),
    Inconclusive: (Inconclusive(), None),
    GhostCycle: (ghost_cycle(_P, 16), ghost_cycle(_P, 17)),
    CycleTrace: (iterate_cycle(_P, 16), iterate_cycle(_P, 17)),
    LinearSet: (LinearSet((1, 2), ((0, 3),)), LinearSet((1, 2), ((0, 4),))),
    SemilinearSet: (SemilinearSet([LinearSet((0, 0), ())]),
                    SemilinearSet([LinearSet((0, 1), ())])),
    FiberPeriodRecord: (FiberPeriodRecord(2, 4, 7), FiberPeriodRecord(2, 5, 23)),
}


@pytest.mark.parametrize("cls", list(_VALUES), ids=lambda cls: cls.__name__)
def test_patterns_are_immutable(cls):
    value, other = _VALUES[cls]
    assert type(value) is cls
    fields = cls.__slots__
    assert not hasattr(value, "__dict__")
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
    # equal and hashed by value, and built again from keywords
    again = cls(**{name: getattr(value, name) for name in fields})
    assert again is not value
    assert again == value and not again != value and hash(again) == hash(value)
    if other is not None:
        assert other != value and not other == value
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
    # the repr names every field, and reads back as the value
    assert repr(value).startswith(f"{cls.__name__}({fields[0]}=" if fields else f"{cls.__name__}()")
    assert eval(repr(value), {c.__name__: c for c in _VALUES}) == value


def test_value_classes_equal_only_their_own_class():
    class Fieldless(Frozen):
        __slots__ = ()

    assert repr(PadicInt(19, 8)) == "PadicInt(residue=19, precision=8)"
    assert ParityPattern(4, 2, (0, 1)) != (4, 2, (0, 1))
    assert len({Fieldless(), Inconclusive()}) == 2  # two fieldless classes
    assert ParityPattern(x=4, y=2, sigma=[0, 1]) == _P  # keywords, and sigma made a tuple
    with pytest.raises(PatternError):
        pickle.loads(pickle.dumps(_P).replace(b"K\x04", b"K\x00"))  # validated again: x = 0


def test_package_names_load_lazily():
    # a bare import loads no submodule; each public name imports its own
    probe = "import sys, ghostcycles; print([m for m in sys.modules if m.startswith('ghostcycles')])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['ghostcycles']"
    for name in ghostcycles.__all__:
        assert getattr(ghostcycles, name) is not None
    assert ghostcycles.ParityPattern is ParityPattern
    with pytest.raises(AttributeError):
        ghostcycles.no_such_name
