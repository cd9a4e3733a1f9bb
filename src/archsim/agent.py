"""The simulated individual and its per-step decision primitives.

An agent carries a position; the floor holds its heading toward the
nearest exit.  Social comparison scores a pair of agents by how close
they stand and how alike their headings are.  Movement decisions are
pure functions of (agent, world snapshot, run config):

* :func:`cone_offsets` lists the offsets inside the forward vision
  cone, a 100-degree wedge facing the heading.
* :func:`scan_cone` walks the cone once and returns the free cells, in
  cone order, and the live agents in view with their distances.
* :func:`most_similar_neighbor` picks the best social match among them.
* :func:`steer` takes the closest free cell, unless the best match
  looks too dissimilar: then the agent is triggered to close the gap
  and takes the free cell nearest the match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .world import FREE, TWO_PI, Cell, WorldGrid

if TYPE_CHECKING:
    from .engine import SimConfig

HALF_CONE = math.radians(50.0)  # half of the 100-degree vision field
_ANGLE_EPS = 1e-9  # a cell exactly on the cone boundary counts as inside


@dataclass(slots=True)
class Agent:
    id: int
    pos: Cell
    exited: bool = False


def signed_deviation(angle: float, heading: float) -> float:
    """Smallest signed rotation from ``heading`` to ``angle``, in (-pi, pi]."""
    d = math.fmod(angle - heading, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


def similarity(dist: float, heading: float, other_heading: float, config: SimConfig) -> float:
    """Equal-weight sum of distance and heading similarity, in [0, 1].

    Distance similarity falls linearly from 1 to 0 at ``config.d_max``
    cells; heading similarity is 1 minus the angle between the headings
    over pi.
    """
    by_distance = max(0.0, 1.0 - dist / config.d_max)
    by_heading = 1.0 - abs(signed_deviation(heading, other_heading)) / math.pi
    return by_distance * 0.5 + by_heading * 0.5


def most_similar_neighbor(
    agent: Agent, visible: list[tuple[Agent, float]], grid: WorldGrid, config: SimConfig
) -> tuple[Agent, float] | None:
    """The visible agent with the highest similarity score, ties to lowest id."""
    headings = grid.heading
    heading = headings[agent.pos]
    best = None
    best_score = -1.0
    for other, dist in visible:
        score = similarity(dist, heading, headings[other.pos], config)
        if score > best_score or (score == best_score and other.id < best.id):
            best = other
            best_score = score
    if best is None:
        return None
    return best, best_score


@lru_cache(maxsize=None)
def _disc_offsets(radius: int) -> tuple[tuple[int, int, float], ...]:
    """All nonzero integer offsets within Euclidean ``radius``, with distances."""
    out = []
    for oy in range(-radius, radius + 1):
        for ox in range(-radius, radius + 1):
            if ox == 0 and oy == 0:
                continue
            d2 = ox * ox + oy * oy
            if d2 <= radius * radius:
                out.append((ox, oy, math.sqrt(d2)))
    return tuple(out)


@lru_cache(maxsize=None)
def cone_offsets(radius: int, heading: float) -> tuple[tuple[int, int, float], ...]:
    """Offsets inside the vision cone, in deterministic preference order.

    Ordered by (distance, absolute angular deviation, clockwise first):
    the natural scan order for "closest free space" with fixed tie
    breaks.  Cached on the exact heading float, a value of the floor's
    heading field, so there is one entry per direction to an exit cell.
    """
    selected = []
    for ox, oy, dist in _disc_offsets(radius):
        dev = signed_deviation(math.atan2(oy, ox), heading)
        adev = abs(dev)
        if adev <= HALF_CONE + _ANGLE_EPS:
            # clockwise (negative rotation) wins ties on |deviation|
            selected.append((dist, adev, 0 if dev < 0 else 1, ox, oy))
    selected.sort()
    return tuple((ox, oy, dist) for dist, _, _, ox, oy in selected)


def scan_cone(
    agent: Agent, grid: WorldGrid, agents: list[Agent], radius: int
) -> tuple[list[Cell], list[tuple[Agent, float]]]:
    """One pass over the vision cone: (free cells, visible live agents).

    The cone faces the floor's heading; each visible agent comes with its
    cone-table distance.  Both lists follow the cone scan order, so
    ``free[0]`` is the closest free cell, ties resolved toward the
    smallest angular deviation, then the clockwise side.
    """
    x, y = agent.pos
    occupancy = grid.occupancy
    free = []
    visible = []
    for ox, oy, dist in cone_offsets(radius, grid.heading[agent.pos]):
        cell = (x + ox, y + oy)
        other_id = occupancy.get(cell)  # None off the floor
        if other_id == FREE:
            free.append(cell)
        elif other_id is not None and not agents[other_id].exited:
            visible.append((agents[other_id], dist))
    return free, visible


def steer(
    comparison: tuple[Agent, float] | None, free: list[Cell], config: SimConfig
) -> Cell | None:
    """The target cell: the closest free cell, unless comparison triggers.

    If the best match scores below the trigger threshold, the agent
    moves to reduce the difference: the target becomes the free cell
    closest to the match's position, ties to the earlier cone cell.
    None when the cone holds no free cell.
    """
    if not free:
        return None
    if comparison is None or comparison[1] >= config.trigger_threshold:
        return free[0]
    tx, ty = comparison[0].pos
    return min(free, key=lambda cell: (cell[0] - tx) ** 2 + (cell[1] - ty) ** 2)
