"""Truncated 2-adic arithmetic: ring laws, inversion, valuation, digits."""

import pytest
from hypothesis import given, strategies as st

from ghostcycles.padic import NotAUnit, PadicInt, PrecisionError, invert_unit

from oracles import ValuationIndeterminate, v2

residues = st.integers(min_value=-(1 << 80), max_value=1 << 80)
precisions = st.integers(min_value=1, max_value=128)


def test_canonical_reduction():
    assert PadicInt(-1, 4).residue == 15
    assert PadicInt(16, 4).residue == 0
    assert PadicInt(19, 4) == PadicInt(3, 4)  # structural equality after reduction


def test_precision_must_be_positive():
    with pytest.raises(PrecisionError):
        PadicInt(1, 0)
    with pytest.raises(PrecisionError):
        PadicInt(1, -3)


@given(residues, residues, residues, precisions)
def test_ring_laws_equal_precision(a, b, c, k):
    pa, pb, pc = PadicInt(a, k), PadicInt(b, k), PadicInt(c, k)
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa * PadicInt(1, k) == pa
    assert pa + (-pa) == PadicInt(0, k)
    assert pa - pb == pa + (-pb)


@given(residues, residues, precisions, precisions)
def test_binary_ops_truncate_to_min_precision(a, b, j, k):
    out = PadicInt(a, j) + PadicInt(b, k)
    assert out.precision == min(j, k)
    assert out.residue == (a + b) % (1 << min(j, k))


@given(residues, precisions)
def test_make_then_digits_is_twos_complement(a, k):
    n = min(k, 64)
    residue = PadicInt(a, k).residue
    assert [(residue >> i) & 1 for i in range(n)] == [(a >> i) & 1 for i in range(n)]


def test_digits_examples():
    assert PadicInt(5, 4).residue == 0b0101
    assert PadicInt(-1, 4).residue == 0b1111
    assert PadicInt(0, 4).residue == 0


def test_v2_examples():
    assert v2(PadicInt(12, 8)) == 2
    assert v2(PadicInt(1, 8)) == 0
    with pytest.raises(ValuationIndeterminate):
        v2(PadicInt(0, 8))


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 1 << 30), st.integers(0, 1 << 30))
def test_v2_additive_when_exact(i, j, ua, ub):
    a = (2 * ua + 1) << i
    b = (2 * ub + 1) << j
    k = i + j + 70  # enough precision that the product's valuation is exact
    assert v2(PadicInt(a, k) * PadicInt(b, k)) == i + j


def test_invert_unit_examples():
    assert invert_unit(PadicInt(1, 8)).residue == 1
    assert invert_unit(PadicInt(3, 8)).residue == 171  # 3^-1 mod 256, extended-gcd oracle
    assert invert_unit(PadicInt(7, 4)).residue == 7  # 7*7 = 49 = 3*16 + 1
    with pytest.raises(NotAUnit):
        invert_unit(PadicInt(4, 8))


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_invert_unit_exhaustive_small(k):
    for r in range(1, 1 << k, 2):
        u = PadicInt(r, k)
        assert (u * invert_unit(u)).residue == 1 % (1 << k)


@given(st.integers(0, (1 << 255) - 1), st.sampled_from([64, 256]))
def test_invert_unit_matches_pow_oracle(half, k):
    r = (2 * half + 1) % (1 << k)
    assert invert_unit(PadicInt(r, k)).residue == pow(r, -1, 1 << k)


def test_agrees_with_is_mod_min_precision():
    assert PadicInt(19, 8).agrees_with(PadicInt(3, 4))
    assert not PadicInt(19, 8).agrees_with(PadicInt(5, 4))


def test_str_shows_residue_and_precision():
    assert str(PadicInt(19, 5)) == "19 + O(2^5)"


def test_is_unit():
    assert PadicInt(3, 4).is_unit
    assert not PadicInt(6, 4).is_unit
