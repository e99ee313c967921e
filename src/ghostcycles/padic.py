"""Truncated 2-adic integer arithmetic.

A 2-adic integer is carried as a residue modulo 2**k together with its
precision k >= 1: knowing a value to k bits means knowing it mod 2**k.
Ring operations are exact modulo the smaller operand precision, so any
precision loss (for instance from dividing out powers of 2 during map
iteration) is tracked per value instead of through a global setting.

Units are exactly the odd residues.  `_inverse_mod_pow2`, which every
solve of n0 = C / m uses, lifts the 1-bit inverse of an odd int one
doubling at a time, so it costs O(log k) big-int multiplies.
"""

from __future__ import annotations

from .patterns import Frozen, _set


class PrecisionError(ValueError):
    """Precision below 1, or a request exceeding the known digits."""


class PadicInt(Frozen):
    """A 2-adic integer known through its low `precision` bits."""

    __slots__ = ("residue", "precision")

    def __init__(self, residue: int, precision: int) -> None:
        if precision < 1:
            raise PrecisionError(f"precision must be >= 1, got {precision}")
        # canonical reduction keeps equality structural
        _set(self, "residue", residue & ((1 << precision) - 1))
        _set(self, "precision", precision)

    def __str__(self) -> str:
        return f"{self.residue} + O(2^{self.precision})"

    def __add__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        return PadicInt(self.residue + other.residue, min(self.precision, other.precision))

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        return PadicInt(self.residue - other.residue, min(self.precision, other.precision))

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        if not isinstance(other, PadicInt):
            return NotImplemented
        return PadicInt(self.residue * other.residue, min(self.precision, other.precision))

    def __neg__(self) -> "PadicInt":
        return PadicInt(-self.residue, self.precision)

    def agrees_with(self, other: "PadicInt") -> bool:
        """True iff the residues agree modulo 2**min(precisions)."""
        k = min(self.precision, other.precision)
        return ((self.residue ^ other.residue) & ((1 << k) - 1)) == 0


def _inverse_mod_pow2(a: int, bits: int) -> int:
    """Inverse of odd `a` modulo 2**bits by Newton doubling from the 1-bit seed."""
    inv = 1
    known = 1
    while known < bits:
        known = min(2 * known, bits)
        mask = (1 << known) - 1
        inv = (inv * (2 - a * inv)) & mask
    return inv
