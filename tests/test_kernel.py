"""Scan-kernel twins: the compiled and pure backends must be
indistinguishable wherever both run, and both must reproduce the cycle
module's exact arithmetic."""

import importlib.util
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from ghostcycles import _kernel_py, kernel
from ghostcycles.cycle import IntegerCycle, cycle_constant, ghost_cycle, integrality_test, modulus
from ghostcycles.generalized import GeneralizedMap, general_cycle_constant, general_ghost_cycle
from ghostcycles.patterns import ParityPattern, length_cells

CELLS = [(x, y) for ell in range(2, 19) for _e, y, x in length_cells(ell) if x + y == ell]


def test_backend_name_is_declared():
    assert kernel.backend_name() in {"compiled", "pure-python"}


@pytest.fixture(scope="module")
def compiled_kernel(tmp_path_factory):
    """The compiled twin itself, never the dispatcher.

    When the extension is not installed, the committed C source is built
    into a temporary directory with the interpreter's C compiler; the test
    skips, saying why, only when that build is impossible.
    """
    try:
        from ghostcycles import _kernel_c
    except ImportError:
        pass
    else:
        return _kernel_c
    source = Path(_kernel_py.__file__).with_name("_kernel_c.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = tmp_path_factory.mktemp("kernel_c") / f"_kernel_c{suffix}"
    compiler = (sysconfig.get_config_var("CC") or "cc").split()
    build = [*compiler, "-shared", "-fPIC", "-O1", "-I", sysconfig.get_paths()["include"],
             str(source), "-o", str(target)]
    try:
        proc = subprocess.run(build, capture_output=True, text=True)
    except OSError as exc:
        pytest.skip(f"compiled kernel not built, and no C compiler to build it: {exc}")
    if proc.returncode != 0:
        pytest.skip(f"compiled kernel not built, and building {source.name} failed: "
                    f"{proc.stderr.strip()[-300:]}")
    spec = importlib.util.spec_from_file_location("ghostcycles._kernel_c", target)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop("ghostcycles._kernel_c", None)  # leave dispatch as it was
    return module


@pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, -1), (7, 3)])
def test_twins_agree_wherever_the_compiled_kernel_fits(q, d, compiled_kernel):
    checked = 0
    for x, y in CELLS:
        if not kernel.fits_compiled(x, y, q, d, 64):
            continue
        compiled = compiled_kernel.cell_records(x, y, q, d, 64)
        assert compiled == _kernel_py.cell_records(x, y, q, d, 64)
        checked += 1
    assert checked > 50


def test_kernel_matches_cycle_module_route():
    for x, y in CELLS:
        if x + y > 14:
            continue
        for sigma, c, n0, quo in kernel.cell_records(x, y, 3, 1, 64):
            p = ParityPattern(x, y, sigma)
            assert c == cycle_constant(p)
            g = ghost_cycle(p, 64)
            assert n0 == g.n0.residue
            v = integrality_test(p)
            if quo is None:
                assert not isinstance(v, IntegerCycle)
            else:
                assert v == IntegerCycle(quo)
                assert quo * modulus(p) == c


def test_kernel_matches_generalized_route():
    m = GeneralizedMap(5, 1)
    for x, y in CELLS:
        if x + y > 12:
            continue
        for sigma, c, n0, quo in kernel.cell_records(x, y, 5, 1, 64):
            p = ParityPattern(x, y, sigma)
            assert c == general_cycle_constant(m, p)
            assert n0 == general_ghost_cycle(m, p, 64).n0.residue


def test_fit_guard_is_exact_about_the_constant_bound():
    # the last sigma in a cell maximizes C; the guard must use that value
    x, y = 40, 3
    worst = ParityPattern(x, y, (0, x - 2, x - 1))
    c_worst = cycle_constant(worst)
    assert kernel._max_abs_constant(x, y, 3, 1) == c_worst
    assert kernel.fits_compiled(x, y, 3, 1, 64) == (c_worst < (1 << 62))


def test_fit_guard_rejects_out_of_range_cells():
    assert not kernel.fits_compiled(63, 1, 3, 1, 64)  # x too wide
    assert not kernel.fits_compiled(4, 2, 3, 1, 65)  # precision too wide
    assert not kernel.fits_compiled(50, 40, 3, 1, 64)  # 3^40 overflows the word
    assert kernel.fits_compiled(24, 12, 3, 1, 64)


@pytest.mark.parametrize("precision", [0, -1])
def test_kernel_rejects_precision_below_one(precision):
    assert not kernel.fits_compiled(6, 3, 3, 1, precision)
    with pytest.raises(ValueError, match=f"precision must be >= 1, got {precision}"):
        kernel.cell_records(6, 3, 3, 1, precision)


def test_pure_kernel_handles_cells_beyond_the_word_size():
    # x = 80 cannot fit the compiled kernel; the dispatcher must still answer
    out = kernel.cell_records(80, 1, 3, 1, 128)
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
