"""The scan writer's oracle kernel must reproduce the cycle modules' exact
arithmetic."""

from ghostcycles import _kernel_py, kernel
from ghostcycles.cycle import cycle_constant, ghost_cycle, integrality_test, modulus
from ghostcycles.patterns import GeneralizedMap, ParityPattern, length_cells

CELLS = [(x, y) for ell in range(2, 19) for _e, y, x in length_cells(ell) if x + y == ell]


def test_backend_name_is_declared():
    assert kernel.backend_name() == "pure-python"


def test_kernel_matches_cycle_module_route():
    for x, y in CELLS:
        if x + y > 14:
            continue
        for sigma, c, n0, quo in _kernel_py.cell_records(x, y, 3, 1, 64):
            p = ParityPattern(x, y, sigma)
            assert c == cycle_constant(p)
            g = ghost_cycle(p, 64)
            assert n0 == g.n0.residue
            assert integrality_test(p) == quo
            if quo is not None:
                assert quo * modulus(p) == c


def test_kernel_matches_generalized_route():
    m = GeneralizedMap(5, 1)
    for x, y in CELLS:
        if x + y > 12:
            continue
        for sigma, c, n0, quo in _kernel_py.cell_records(x, y, 5, 1, 64):
            p = ParityPattern(x, y, sigma)
            assert c == cycle_constant(p, m)
            assert n0 == ghost_cycle(p, 64, m).n0.residue


def test_pure_kernel_handles_cells_beyond_the_word_size():
    # x = 80 needs far more than a machine word; the kernel stays exact
    out = _kernel_py.cell_records(80, 1, 3, 1, 128)
    (sigma, c, n0, quo) = out[0]
    p = ParityPattern(80, 1, (0,))
    assert sigma == (0,) and c == 1 and quo is None
    assert n0 == ghost_cycle(p, 128).n0.residue


def test_large_precision_stays_exact():
    for precision in (8, 64, 96, 256):
        for sigma, c, n0, quo in _kernel_py.cell_records(6, 3, 3, 1, precision):
            p = ParityPattern(6, 3, sigma)
            g = ghost_cycle(p, precision)
            assert n0 == g.n0.residue and c == g.constant
