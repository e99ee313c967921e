"""Scan-kernel entry point.

The scan does not call the kernel: it builds its records in one fused
pass (`cli._cell_worker`).  The kernel serves `density-probe`, and the
tests hold the scan's records to it.
"""

from __future__ import annotations

from . import _kernel_py


def backend_name() -> str:
    return "pure-python"


def cell_records(
    x: int, y: int, q: int, d: int, precision: int
) -> list[tuple[tuple[int, ...], int, int, int | None]]:
    """Every record of one enumeration cell; see `_kernel_py.cell_records`."""
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    return _kernel_py.cell_records(x, y, q, d, precision)
