"""Corridor geometry: a discrete W-by-L grid with one exit segment.

Coordinates are integer cells ``(x, y)`` with ``x`` transverse (0..W-1,
across the corridor) and ``y`` longitudinal (0..L-1, along it).  The end
wall holding the exit is the row ``y == 0``; the crowd approaches from
larger ``y``.  One cell holds one person.  Everything outside the
coordinate rectangle counts as wall, as do the non-exit cells of row 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidDimensionsError

Cell = tuple[int, int]

FREE = -1  # occupancy value of a floor cell nobody stands on

TWO_PI = 2.0 * math.pi


@dataclass
class WorldGrid:
    """Corridor state: dimensions, exit segment, and the floor map.

    ``occupancy`` holds one key per floor cell: the exit segment first,
    then rows 1..L-1 in y-major order.  Each key maps to the id of the
    agent standing there, or to FREE.  A wall is a cell that is not a
    key.  The exit segment is contiguous along the end wall and ordered
    by transverse index.  ``neighbourhoods`` holds the agents' per-cell
    cone tables (see ``agent.neighbourhood``), built on first use.
    """

    width: int
    length: int
    exit_cells: tuple[Cell, ...]
    occupancy: dict[Cell, int] = field(init=False)
    neighbourhoods: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        # contiguous segment bounds, used for O(1) nearest-exit lookups
        self._exit_x0 = self.exit_cells[0][0]
        self._exit_x1 = self.exit_cells[-1][0]
        rows = ((x, y) for y in range(1, self.length) for x in range(self.width))
        self.occupancy = dict.fromkeys((*self.exit_cells, *rows), FREE)

    @property
    def exit_width(self) -> int:
        return len(self.exit_cells)

    @cached_property
    def heading(self) -> dict[Cell, float]:
        """The static floor field: each floor cell's heading to its nearest exit."""
        return {
            cell: heading_toward(cell, nearest_exit_coordinate(self, cell))
            for cell in self.occupancy
        }

    def place(self, agent_id: int, cell: Cell) -> None:
        occupant = self.occupancy.get(cell)
        if occupant is None:
            raise ValueError(f"cell {cell} is a wall")
        if occupant != FREE:
            raise ValueError(f"cell {cell} already occupied by {occupant}")
        self.occupancy[cell] = agent_id

    def vacate(self, cell: Cell) -> None:
        self.occupancy[cell] = FREE

    def move(self, old: Cell, new: Cell) -> None:
        self.place(self.occupancy[old], new)
        self.vacate(old)


def build_world(W: int, L: int, w: int) -> WorldGrid:
    """Build a corridor of width ``W`` and length ``L`` with a centered
    ``w``-wide exit on the end wall.

    When ``W - w`` is odd the segment sits one cell closer to the
    low-index side, keeping placement deterministic.

    Raises:
        InvalidDimensionsError: unless ``1 <= w <= W < L``.
    """
    if w < 1 or w > W:
        raise InvalidDimensionsError(f"exit width w={w} must satisfy 1 <= w <= W={W}")
    if L <= W:
        raise InvalidDimensionsError(f"corridor length L={L} must exceed width W={W}")
    x0 = (W - w) // 2
    exits = tuple((x, 0) for x in range(x0, x0 + w))
    return WorldGrid(width=W, length=L, exit_cells=exits)


def is_free(grid: WorldGrid, cell: Cell) -> bool:
    """True iff ``cell`` is a floor cell nobody stands on.

    Exit cells count as free; walls and out-of-bounds queries do not.
    """
    return grid.occupancy.get(cell) == FREE


def wrap_angle(a: float) -> float:
    """Map an angle into [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0 else a


def heading_toward(src: Cell, dst: Cell) -> float:
    """Heading angle from ``src`` to ``dst`` in [0, 2*pi); 0 for coincident cells."""
    return wrap_angle(math.atan2(dst[1] - src[1], dst[0] - src[0]))


def nearest_exit_coordinate(grid: WorldGrid, pos: Cell) -> Cell:
    """Exit cell with minimal Euclidean distance to ``pos``.

    Ties resolve to the lowest transverse index.  For the contiguous
    segments build_world produces, clamping the transverse coordinate
    into the segment is exact (and tie-free for integer positions).
    """
    x = pos[0]
    if x < grid._exit_x0:
        return (grid._exit_x0, 0)
    if x > grid._exit_x1:
        return (grid._exit_x1, 0)
    return (x, 0)
