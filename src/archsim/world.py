"""Corridor geometry: a discrete W-by-L floor with one exit segment.

Coordinates are integer cells ``(x, y)`` with ``x`` transverse (0..W-1,
across the corridor) and ``y`` longitudinal (0..L-1, along it).  The end
wall holding the exit is the row ``y == 0``; the crowd approaches from
larger ``y``.  One cell holds one person.  Everything outside the
coordinate rectangle counts as wall, as do the non-exit cells of row 0.
Every run of one geometry walks the same frozen ``Floor``; a run owns
only its ``WorldGrid``, the occupancy list over that floor's cells.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import InvalidDimensionsError

Cell = tuple[int, int]

FREE = -1  # occupancy value of a floor cell nobody stands on
WALL = -2  # occupancy value of the slot past the floor, where index -1 lands
COORD_MAX = int(np.iinfo(np.int16).max)  # coordinates are held as int16

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class Floor:
    """The static floor: dimensions, exit segment, heading field, cone tables.

    ``heading`` (read-only) maps each floor cell, the exit segment first
    and then rows 1..L-1 y-major, to its heading toward the nearest exit;
    a wall is a cell that is not a key.  The exit segment is contiguous
    and ordered by transverse index.  A run works on cell indices in that
    order: ``cells[k]`` is cell ``k`` and ``xs``/``ys`` (read-only
    ``int16``) hold the coordinates, so indices ``0..w-1`` are the exit
    segment.  ``tables`` holds the agents' cone tables
    (``agent.neighbourhood``) and ``holders`` their reverse tables
    (``agent.cone_holders``), both keyed on ``(vision_radius, d_max)``.
    """

    width: int
    length: int
    exit_cells: tuple[Cell, ...]
    heading: Mapping[Cell, float]
    cells: tuple[Cell, ...] = field(init=False, repr=False)
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)
    tables: dict = field(init=False, default_factory=dict, repr=False)
    holders: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        heading = dict(self.heading)
        cells = tuple(heading)
        xs, ys = np.array(cells, dtype=np.int16).reshape(-1, 2).T.copy()
        xs.flags.writeable = ys.flags.writeable = False
        set_field = object.__setattr__
        set_field(self, "heading", MappingProxyType(heading))
        set_field(self, "cells", cells)
        set_field(self, "xs", xs)
        set_field(self, "ys", ys)


def check_geometry(W: int, L: int, w: int) -> None:
    """Raise InvalidDimensionsError unless ``1 <= w <= W < L <= COORD_MAX + 1``."""
    if w < 1 or w > W:
        raise InvalidDimensionsError(f"exit width w={w} must satisfy 1 <= w <= W={W}")
    if L <= W:
        raise InvalidDimensionsError(f"corridor length L={L} must exceed width W={W}")
    if L > COORD_MAX + 1:
        raise InvalidDimensionsError(
            f"corridor length L={L} must be at most {COORD_MAX + 1} (coordinates are int16)"
        )


@lru_cache(maxsize=1)  # consecutive runs of one geometry share it; one floor alive
def build_floor(W: int, L: int, w: int) -> Floor:
    """The floor of a W-by-L corridor with a centered w-wide exit on the end wall.

    When ``W - w`` is odd the segment sits one cell closer to the low-index
    side.  A cell's heading is the angle in [0, 2*pi) toward its nearest
    exit coordinate, 0 on an exit cell.  Raises InvalidDimensionsError
    unless ``1 <= w <= W < L <= COORD_MAX + 1``.
    """
    check_geometry(W, L, w)
    x0, x1 = (W - w) // 2, (W - w) // 2 + w - 1
    exits = tuple((x, 0) for x in range(x0, x1 + 1))
    rows = ((x, y) for y in range(1, L) for x in range(W))
    heading = {}
    for cell in (*exits, *rows):
        x, y = cell
        a = math.atan2(-y, min(max(x, x0), x1) - x)  # in [-pi, pi]: no fmod needed
        heading[cell] = a + TWO_PI if a < 0 else a
    return Floor(width=W, length=L, exit_cells=exits, heading=heading)


@dataclass
class WorldGrid:
    """One run's occupancy: for each floor cell index, the id of the agent
    standing there or FREE.

    One more slot follows the floor cells and is never FREE: index -1, a
    pace onto a wall, reads as taken.  ``marks`` holds the cells whose
    vision cone the step found full (``engine.step``): None, or the
    floor's cone table and a copy of it in which each such cell's entries
    are empty.
    """

    floor: Floor
    occupancy: list[int] = field(init=False)
    marks: tuple | None = field(init=False, default=None)

    def __post_init__(self):
        self.occupancy = [FREE] * len(self.floor.cells) + [WALL]

