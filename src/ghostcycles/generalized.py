"""A map-first alias of `cycle.ghost_cycle`.

Every cycle function takes its map qn + d as a trailing `map_`
argument (`GeneralizedMap`, 3n + 1 by default).  This alias stays only
because `perfbench/layers.py` wraps it by name; it goes once the
benchmark's hook list is rewritten (ROADMAP item 4).
"""

from __future__ import annotations

from .cycle import GhostCycle, ghost_cycle
from .patterns import GeneralizedMap, ParityPattern


def general_ghost_cycle(map_: GeneralizedMap, p: ParityPattern, precision: int) -> GhostCycle:
    return ghost_cycle(p, precision, map_)
