"""Corridor geometry: a discrete W-by-L grid with one exit segment.

Coordinates are integer cells ``(x, y)`` with ``x`` transverse (0..W-1,
across the corridor) and ``y`` longitudinal (0..L-1, along it).  The end
wall holding the exit is the row ``y == 0``; the crowd approaches from
larger ``y``.  One cell holds one person.  Everything outside the
coordinate rectangle counts as wall, as do the non-exit cells of row 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidDimensionsError

Cell = tuple[int, int]


@dataclass
class WorldGrid:
    """Corridor state: dimensions, exit segment, and cell occupancy.

    ``occupancy`` maps a cell to the id of the agent standing on it;
    absent keys are empty cells.  The exit segment is contiguous along
    the end wall and ordered by transverse index.
    """

    width: int
    length: int
    exit_cells: tuple[Cell, ...]
    occupancy: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        xs = [x for x, _ in self.exit_cells]
        # contiguous segment bounds, used for O(1) nearest-exit lookups
        self._exit_x0 = min(xs)
        self._exit_x1 = max(xs)

    @property
    def exit_width(self) -> int:
        return len(self.exit_cells)

    def is_wall(self, cell: Cell) -> bool:
        """True for out-of-bounds coordinates and non-exit end-wall cells."""
        x, y = cell
        if not (0 <= x < self.width and 0 <= y < self.length):
            return True
        return y == 0 and not (self._exit_x0 <= x <= self._exit_x1)

    def place(self, agent_id: int, cell: Cell) -> None:
        if cell in self.occupancy:
            raise ValueError(f"cell {cell} already occupied by {self.occupancy[cell]}")
        if self.is_wall(cell):
            raise ValueError(f"cell {cell} is a wall")
        self.occupancy[cell] = agent_id

    def vacate(self, cell: Cell) -> None:
        del self.occupancy[cell]

    def move(self, old: Cell, new: Cell) -> None:
        agent_id = self.occupancy.pop(old)
        self.place(agent_id, new)


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
    """True iff ``cell`` is inside the corridor, not a wall, and empty.

    Exit cells count as free; out-of-bounds queries return False.
    """
    return not grid.is_wall(cell) and cell not in grid.occupancy


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
