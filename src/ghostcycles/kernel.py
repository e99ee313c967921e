"""Scan-kernel backend selection.

The compiled kernel works in fixed 64-bit words, so it is only used when
a cell provably fits: the guard bounds every intermediate (modulus,
cycle constant, quotient) with exact Python arithmetic before
dispatching.  Everything else, and every environment where the extension
failed to build, falls back to the pure twin.  Both twins share one
contract and tests hold them byte-for-byte equal on overlapping cells.

The scan does not call the kernel: it builds its records in one fused
pass (`cli._cell_worker`).  The kernel serves `density-probe`, and the
tests hold the scan's records to it.
"""

from __future__ import annotations

from . import _kernel_py

try:
    from . import _kernel_c  # type: ignore[attr-defined]
except ImportError:  # extension not built; pure fallback
    _kernel_c = None

_INT62 = 1 << 62


def _max_abs_constant(x: int, y: int, q: int, d: int) -> int:
    # the lexicographically last sigma (0, x-y+1, ..., x-1) maximizes every
    # shift simultaneously, so it bounds |C| over the whole cell
    sigma = (0,) + tuple(range(x - y + 1, x))
    return abs(d) * sum(q ** (y - 1 - k) << s for k, s in enumerate(sigma))


def fits_compiled(x: int, y: int, q: int, d: int, precision: int) -> bool:
    if not 1 <= precision <= 64 or x > 62:
        return False
    if q**y >= _INT62:
        return False
    return _max_abs_constant(x, y, q, d) < _INT62


def backend_name() -> str:
    return "compiled" if _kernel_c is not None else "pure-python"


def cell_records(
    x: int, y: int, q: int, d: int, precision: int
) -> list[tuple[tuple[int, ...], int, int, int | None]]:
    """Dispatch one enumeration cell to the fastest safe backend."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    if _kernel_c is not None and fits_compiled(x, y, q, d, precision):
        return _kernel_c.cell_records(x, y, q, d, precision)
    return _kernel_py.cell_records(x, y, q, d, precision)
