"""Parity patterns: the combinatorial shape of a hypothetical cycle.

A pattern (x, y, sigma) has y odd steps and x halvings; sigma[k] is the
cumulative number of halvings performed before the k-th odd step, so

    0 = sigma[0] < sigma[1] < ... < sigma[y-1] < x.

A pattern is *admissible* when 2**x > 3**y, the size constraint a
positive cycle value must satisfy; `is_admissible` also covers the maps
qn + d that `GeneralizedMap` names.  Inadmissible patterns stay fully
representable: their cycle equation still has a unique 2-adic solution,
and the negative integer cycles they produce are useful cross-checks.

A scan enumerates cells (x, y) with `length_cells` and walks each cell's
sigmas itself; enumerating `ParityPattern` objects one by one is the
tests' oracle (tests/oracles.py).
"""

from __future__ import annotations

from collections.abc import Iterator

# how a Frozen subclass's __init__ sets its own fields
_set = object.__setattr__


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in `__slots__` and sets them in its own
    `__init__`, with `_set(self, name, value)`, once they are validated.
    It gets equality and a hash by field values (equal only to its own
    class), a `Name(field=value, ...)` repr, pickling and copying that
    call that `__init__` again, and an AttributeError on assignment.
    `@dataclass(frozen=True, slots=True)` gave the same, but importing
    dataclasses (with inspect) and building the package's 13 classes with
    it cost each CLI start about 17 ms (Python 3.11, 2 vCPUs).
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")


class PatternError(ValueError):
    """A structural constraint failed; `clause` names the violated one."""

    def __init__(self, clause: str, message: str):
        self.clause = clause
        super().__init__(message)


class ParityPattern(Frozen):
    __slots__ = ("x", "y", "sigma")

    def __init__(self, x: int, y: int, sigma: tuple[int, ...]) -> None:
        sigma = tuple(sigma)
        if x < 1:
            raise PatternError("x >= 1", f"x must be >= 1, got {x}")
        if y < 1:
            raise PatternError("y >= 1", f"y must be >= 1, got {y}")
        if len(sigma) != y:
            raise PatternError(
                "len(sigma) == y", f"sigma has {len(sigma)} entries, expected y = {y}"
            )
        if sigma[0] != 0:
            raise PatternError("sigma[0] must be 0", "sigma[0] must be 0")
        for i in range(1, y):
            if sigma[i] <= sigma[i - 1]:
                raise PatternError(
                    "sigma strictly increasing",
                    f"sigma must be strictly increasing, but sigma[{i}] = {sigma[i]} "
                    f"<= sigma[{i - 1}] = {sigma[i - 1]}",
                )
        if sigma[-1] >= x:
            raise PatternError(
                "sigma[y-1] < x", f"sigma[{y - 1}] = {sigma[-1]} must be < x = {x}"
            )
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "sigma", sigma)

    @property
    def ell(self) -> int:
        """Cycle length x + y."""
        return self.x + self.y

    def steps(self) -> tuple[int, ...]:
        """Halving counts (s_1, ..., s_y) between consecutive odd steps, with
        sigma_y taken to be x.  Each s_k >= 1 by the ordering constraints."""
        full = self.sigma + (self.x,)
        return tuple(full[k] - full[k - 1] for k in range(1, self.y + 1))


class GeneralizedMap(Frozen):
    """The map n -> (qn + d) / 2^e on odd n, 2^e the largest power of 2
    dividing qn + d: odd multiplier q >= 3 and odd nonzero offset d.  Odd
    q and d keep qn + d even on odd n and 2**x - q**y odd, so every
    pattern's cycle equation keeps its unique 2-adic solution."""

    __slots__ = ("q", "d")

    def __init__(self, q: int, d: int) -> None:
        if q < 3 or q % 2 == 0:
            raise ValueError(f"multiplier q must be an odd integer >= 3, got {q}")
        if d == 0 or d % 2 == 0:
            raise ValueError(f"offset d must be odd and nonzero, got {d}")
        _set(self, "q", q)
        _set(self, "d", d)


COLLATZ = GeneralizedMap(3, 1)


def is_admissible(x: int, y: int, q: int = 3, d: int = 1) -> bool:
    """The positive-cycle size bound of the map qn + d, by exact integer
    comparison, never through logarithms: 2**x > q**y for d > 0.  For
    d < 0 a positive cycle value needs the opposite sign, so the test
    flips to 2**x < q**y."""
    two_x, q_y = 1 << x, q**y
    return two_x > q_y if d > 0 else two_x < q_y


def length_cells(ell_max: int) -> Iterator[tuple[int, int, int]]:
    """(ell, y, x) triples covering all patterns with x + y <= ell_max, in
    canonical scan order: by ell, then y.  y <= x structurally, so y only
    runs up to ell // 2."""
    if ell_max < 2:
        raise ValueError(f"no pattern has length below 2, got ell_max = {ell_max}")
    for ell in range(2, ell_max + 1):
        for y in range(1, ell // 2 + 1):
            yield ell, y, ell - y
