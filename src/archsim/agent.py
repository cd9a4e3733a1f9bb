"""The simulated individual and its per-step decision primitives.

An agent carries a position and a heading (pointed at its current
target exit coordinate); social comparison scores a pair of agents by
how close they stand and how alike their headings are.  Movement
decisions are pure functions of (agent, world snapshot, run config):

* :func:`cone_offsets` lists the offsets inside the forward vision
  cone, a 100-degree wedge facing the heading.
* :func:`scan_cone` walks the cone once and returns the free cells, in
  cone order, and the live agents in view.
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

from .world import Cell, WorldGrid

if TYPE_CHECKING:
    from .engine import SimConfig

HALF_CONE = math.radians(50.0)  # half of the 100-degree vision field
_ANGLE_EPS = 1e-9  # a cell exactly on the cone boundary counts as inside

TWO_PI = 2.0 * math.pi


@dataclass(slots=True)
class Agent:
    id: int
    pos: Cell
    heading: float = 0.0  # radians in [0, 2*pi)
    exited: bool = False
    moved_last_step: bool = False


def wrap_angle(a: float) -> float:
    """Map an angle into [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0 else a


def signed_deviation(angle: float, heading: float) -> float:
    """Smallest signed rotation from ``heading`` to ``angle``, in (-pi, pi]."""
    d = math.fmod(angle - heading, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


def heading_toward(src: Cell, dst: Cell) -> float:
    """Heading angle from ``src`` to ``dst`` in [0, 2*pi).

    Falls back to 0 for coincident cells; callers treat that case
    (distance 0) as already-exited before the heading matters.
    """
    return wrap_angle(math.atan2(dst[1] - src[1], dst[0] - src[0]))


def similarity(x: Agent, y: Agent, config: SimConfig) -> float:
    """Equal-weight sum of distance and heading similarity, in [0, 1].

    Distance similarity falls linearly from 1 to 0 at ``config.d_max``
    cells; heading similarity is 1 minus the angle between the headings
    over pi.
    """
    dist = math.hypot(x.pos[0] - y.pos[0], x.pos[1] - y.pos[1])
    by_distance = max(0.0, 1.0 - dist / config.d_max)
    by_heading = 1.0 - abs(signed_deviation(x.heading, y.heading)) / math.pi
    return by_distance * 0.5 + by_heading * 0.5


def most_similar_neighbor(
    agent: Agent, visible: list[Agent], config: SimConfig
) -> tuple[Agent, float] | None:
    """The visible agent with the highest similarity score, ties to lowest id."""
    best = None
    best_score = -1.0
    for other in visible:
        score = similarity(agent, other, config)
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
    breaks.  Cached on the exact heading float; headings are atan2 of
    integer deltas, so the same direction always hits the same entry.
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
) -> tuple[list[Cell], list[Agent]]:
    """One pass over the vision cone: (free cells, visible live agents).

    Both lists follow the cone scan order, so ``free[0]`` is the closest
    free cell, ties resolved toward the smallest angular deviation, then
    the clockwise side.
    """
    x, y = agent.pos
    occupancy = grid.occupancy
    free = []
    visible = []
    for ox, oy, _ in cone_offsets(radius, agent.heading):
        cell = (x + ox, y + oy)
        other_id = occupancy.get(cell)
        if other_id is None:
            if not grid.is_wall(cell):
                free.append(cell)
        elif not agents[other_id].exited:
            visible.append(agents[other_id])
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
