"""The simulated crowd and its per-step decision primitives.

The crowd is columns indexed by agent id: each agent's floor-cell index
and exited flag; the floor holds each cell's heading toward the nearest
exit.  Social comparison scores a pair of agents by how close
they stand and how alike their headings are.  Movement decisions are
pure functions of (cell, occupancy, run config):

* :func:`neighbourhood` tabulates, once per floor, each floor cell's
  cone cells (the forward vision cone is a 100-degree wedge facing the
  heading) with the pace toward each and the similarity score of a
  neighbour standing there.
* :func:`cone_holders` inverts that table: the cells whose cone holds
  a given cell.
* :func:`steer` is the veer of a triggered agent, one whose best match
  looks too dissimilar: it closes the gap by heading for the free cell
  nearest that match.  The step finds the closest free cell and the
  best match itself and calls it only for a triggered agent.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .world import FREE, TWO_PI, Cell, Floor

if TYPE_CHECKING:
    from .engine import SimConfig

HALF_CONE = math.radians(50.0)  # half of the 100-degree vision field
_ANGLE_EPS = 1e-9  # a cell exactly on the cone boundary counts as inside
_PAIRS = 1 << 12  # (cell, offset) pairs per block of the table build: keeps its arrays small


class AgentView(NamedTuple):
    """One agent of a Crowd, read-only."""

    id: int
    pos: Cell
    exited: bool


@dataclass(eq=False)
class Crowd:
    """The crowd as typed columns indexed by agent id: the index of the
    floor cell each agent stands on (``array("q")``, from any sequence of
    ints), and its exited flag (0 or 1).

    ``len()`` is the crowd size; iterating yields an AgentView per agent.
    """

    floor: Floor
    cell: array
    exited: bytearray

    def __post_init__(self):
        self.cell = array("q", self.cell)

    def __len__(self) -> int:
        return len(self.cell)

    def __iter__(self):
        cells = self.floor.cells
        return map(AgentView, count(), map(cells.__getitem__, self.cell), map(bool, self.exited))


def _disc_offsets(radius: int) -> tuple[tuple[int, int, float, float], ...]:
    """All nonzero integer offsets within Euclidean ``radius``, ``(ox, oy,
    dist, angle)``, ordered by (dist, ox, oy)."""
    span = range(-radius, radius + 1)
    offsets = [(ox, oy, math.sqrt(d2), math.atan2(oy, ox)) for ox in span for oy in span
               if 0 < (d2 := ox * ox + oy * oy) <= radius * radius]
    return tuple(sorted(offsets, key=lambda o: o[2]))  # stable: ties keep (ox, oy) order


Entry = tuple[int, int, float]  # (cone cell q, pace toward q, similarity score)
Entries = tuple[tuple[Entry, ...], tuple[Entry, ...]]  # (cone order, score order)


def neighbourhood(floor: Floor, config: SimConfig) -> list[Entries]:
    """Each floor cell's cone entries ``(q, pace, score)``, in cone order
    and ranked by descending score, indexed by cell index.

    ``q`` runs over the floor cells of the cone facing the cell's heading
    (walls are dropped), ``pace`` is the one-cell step toward ``q`` and
    ``score`` the similarity of an agent on the cell to one on ``q``.
    ``q`` and ``pace`` are cell indices; a pace onto a wall is -1.
    Built on first use and kept on the floor, keyed on
    ``(vision_radius, d_max)``: the heading field is static, so the table
    holds for every run on the floor.

    The cone of heading ``h`` holds the disc offsets whose direction
    deviates from ``h`` by at most 50 degrees, ordered by (distance,
    absolute deviation, clockwise first, ox, oy): the natural scan order
    for "closest free space" with fixed tie breaks.  The score is the
    equal-weight sum of distance similarity, falling linearly from 1 to 0
    at ``d_max`` cells, and heading similarity, 1 minus the angle between
    the two cells' headings over pi.  The ranking is stable: equal scores
    keep cone order.  Both tuples hold the same entry objects.
    """
    key = (config.vision_radius, config.d_max)
    table = floor.tables.get(key)
    if table is None:
        table = floor.tables[key] = _build_neighbourhood(floor, config)
    return table


def cone_holders(floor: Floor, config: SimConfig) -> list[tuple[int, ...]]:
    """For each floor cell index ``k``, the cells whose cone holds ``k``:
    the cells that a freed ``k`` can give a free cone cell again.

    Built from :func:`neighbourhood` on first use and kept on the floor
    under the same key.
    """
    key = (config.vision_radius, config.d_max)
    holders = floor.holders.get(key)
    if holders is None:
        found = [[] for _ in floor.cells]
        for p, (cone, _) in enumerate(neighbourhood(floor, config)):
            for q, _, _ in cone:
                found[q].append(p)
        holders = floor.holders[key] = list(map(tuple, found))
    return holders


def _deviation(d: np.ndarray) -> np.ndarray:
    """Smallest signed rotation for angle differences ``d``, in (-pi, pi]."""
    d = np.fmod(d, TWO_PI)
    return np.where(d > math.pi, d - TWO_PI, np.where(d <= -math.pi, d + TWO_PI, d))


def _build_neighbourhood(floor: Floor, config: SimConfig) -> list[Entries]:
    """The table, computed with numpy a block of ``_PAIRS`` (cell, offset) pairs at a time.

    The angles come from ``math.atan2`` (the heading field's and
    ``_disc_offsets``'); the rest is fmod, abs, +, -, *, /, max and
    comparisons, which IEEE arithmetic rounds correctly, so every score
    has the bits the formula gives one Python float at a time.
    """
    # no two floor cells lie W + L apart, so a longer radius adds no entry
    radius = min(config.vision_radius, floor.width + floor.length)
    n = len(floor.cells)
    ints = list(range(n)) + [-1]  # entries share one int object per index
    xs, ys = floor.xs.astype(int), floor.ys.astype(int)
    headings = np.fromiter(floor.heading.values(), float, n)
    # each floor cell's row on a grid padded by the radius; walls are -1
    rows = np.full((floor.length + 2 * radius, floor.width + 2 * radius), -1)
    rows[ys + radius, xs + radius] = np.arange(n)
    ox, oy, dist, angle = map(np.array, zip(*_disc_offsets(radius)))
    distance_rank = np.unique(dist, return_inverse=True)[1]
    by_distance = np.maximum(0.0, 1.0 - dist / config.d_max)
    cells_per_block = max(1, _PAIRS // len(ox))
    table = []
    for lo in range(0, n, cells_per_block):
        block = slice(lo, lo + cells_per_block)
        x, y, h = xs[block], ys[block], headings[block]
        dev = _deviation(angle - h[:, None])
        on_floor = rows[y[:, None] + oy + radius, x[:, None] + ox + radius] >= 0
        cell, off = np.nonzero((np.abs(dev) <= HALF_CONE + _ANGLE_EPS) & on_floor)
        # the in-cone floor pairs in cone order within each cell: the
        # stable sort keeps the offsets' (ox, oy) order for the last tie
        # break, and clockwise (negative rotation) wins ties on |deviation|
        dev = dev[cell, off]
        order = np.lexsort((dev >= 0, np.abs(dev), cell * len(ox) + distance_rank[off]))
        cell, off = cell[order], off[order]
        x, y, h, cx, cy = x[cell], y[cell], h[cell], ox[off], oy[off]
        q = rows[y + cy + radius, x + cx + radius]
        pace = rows[y + np.sign(cy) + radius, x + np.sign(cx) + radius]
        apart = _deviation(h - headings[q])
        score = by_distance[off] * 0.5 + (1.0 - np.abs(apart) / math.pi) * 0.5
        entries = list(zip(map(ints.__getitem__, q.tolist()),
                           map(ints.__getitem__, pace.tolist()), score.tolist()))
        ends = np.cumsum(np.bincount(cell, minlength=len(on_floor))).tolist()
        cones = [tuple(entries[a:b]) for a, b in zip([0, *ends], ends)]
        # most cones already run by descending score and are their own
        # ranking; the rest are ranked by a stable sort, so equal scores
        # keep cone order
        rises = np.zeros(len(on_floor), bool)
        rises[cell[1:][(score[1:] > score[:-1]) & (cell[1:] == cell[:-1])]] = True
        table += [(cone, tuple(sorted(cone, key=lambda e: -e[2])) if rise else cone)
                  for cone, rise in zip(cones, rises.tolist())]
    return table


def steer(
    entries: Entries, occupancy: list[int], exited: bytearray,
    cells: tuple[Cell, ...], best: float,
) -> int:
    """The pace of a triggered agent from a cell with these entries.

    The match is the live agent with the lowest id among the ranked
    entries scoring ``best``; the pace heads for the free cone cell
    nearest it, ties to the earlier cone cell.  ``cells`` gives a cell
    index's coordinates.  At least one cone cell must be free.  The pace
    cell itself may be occupied or a wall (-1).
    """
    cone, ranked = entries
    _, match = min((occupancy[q], q) for q, _, score in ranked
                   if score == best and occupancy[q] != FREE and not exited[occupancy[q]])
    tx, ty = cells[match]
    return min(
        (entry for entry in cone if occupancy[entry[0]] == FREE),
        key=lambda entry: (cells[entry[0]][0] - tx) ** 2 + (cells[entry[0]][1] - ty) ** 2,
    )[1]
