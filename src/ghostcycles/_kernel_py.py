"""Pure-Python scan kernel.

One call processes one cell (x, y) of the pattern enumeration for a map
qn + d: every parity pattern with those step counts, in lexicographic
sigma order, as plain tuples.  The tests hold the scan's fused record
writer (`cli._cell_worker`) to it as the oracle.
"""

from __future__ import annotations

from itertools import combinations

from .padic import _inverse_mod_pow2


def cell_records(
    x: int, y: int, q: int, d: int, precision: int
) -> list[tuple[tuple[int, ...], int, int, int | None]]:
    """(sigma, C, n0 residue, quotient or None) for every pattern in the cell.

    quotient is C // modulus when the division is exact (an integer cycle),
    None otherwise.  n0 is C * modulus^{-1} reduced mod 2^precision.
    """
    mask = (1 << precision) - 1
    modulus = (1 << x) - q**y
    inv = _inverse_mod_pow2(modulus & mask, precision)
    powers = [q ** (y - 1 - k) for k in range(y)]
    out = []
    for mid in combinations(range(1, x), y - 1):
        sigma = (0,) + mid
        c = d * sum(pw << s for pw, s in zip(powers, sigma))
        quo, rem = divmod(c, modulus)
        out.append((sigma, c, (c * inv) & mask, quo if rem == 0 else None))
    return out
