"""The simulated individual and its per-step decision primitives.

An agent carries a position; the floor holds its heading toward the
nearest exit.  Social comparison scores a pair of agents by how close
they stand and how alike their headings are.  Movement decisions are
pure functions of (agent, world snapshot, run config):

* :func:`cone_offsets` lists the offsets inside the forward vision
  cone, a 100-degree wedge facing the heading.
* :func:`neighbourhood` tabulates, once per floor, each floor cell's
  cone cells with the pace toward each and the similarity score of a
  neighbour standing there.
* :func:`choose_pace` reads its cell's entries once: it takes the
  closest free cell, unless the best match looks too dissimilar: then
  the agent is triggered to close the gap and heads for the free cell
  nearest the match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .world import FREE, TWO_PI, Cell, Floor

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


def cone_offsets(radius: int, heading: float) -> tuple[tuple[int, int, float], ...]:
    """Offsets inside the vision cone, in deterministic preference order.

    Ordered by (distance, absolute angular deviation, clockwise first):
    the natural scan order for "closest free space" with fixed tie
    breaks.
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


Entry = tuple[Cell, Cell, float]  # (cone cell q, pace toward q, similarity score)


def neighbourhood(floor: Floor, config: SimConfig) -> dict[Cell, tuple[Entry, ...]]:
    """Each floor cell's cone entries ``(q, pace, score)``, in cone order.

    ``q`` runs over the floor cells of the cone facing the cell's heading
    (walls are dropped), ``pace`` is the one-cell step toward ``q`` and
    ``score`` the similarity of an agent on the cell to one on ``q``.
    Built on first use and kept on the floor, keyed on
    ``(vision_radius, d_max)``: the heading field is static, so the table
    holds for every run on the floor.
    """
    key = (config.vision_radius, config.d_max)
    table = floor.tables.get(key)
    if table is None:
        table = floor.tables[key] = _build_neighbourhood(floor, config)
    return table


def _build_neighbourhood(floor: Floor, config: SimConfig) -> dict[Cell, tuple[Entry, ...]]:
    headings = floor.heading
    cells = {cell: cell for cell in headings}  # entries share the floor's key tuples
    cones = {}  # heading -> its cone offsets, for this build only
    table = {}
    for cell, heading in headings.items():
        x, y = cell
        if heading not in cones:
            cones[heading] = cone_offsets(config.vision_radius, heading)
        entries = []
        for ox, oy, dist in cones[heading]:
            q = cells.get((x + ox, y + oy))
            if q is not None:
                pace = (x + (ox > 0) - (ox < 0), y + (oy > 0) - (oy < 0))
                score = similarity(dist, heading, headings[q], config)
                entries.append((q, cells.get(pace, pace), score))
        table[cell] = tuple(entries)
    return table


def choose_pace(
    entries: tuple[Entry, ...], occupancy: dict[Cell, int], agents: list[Agent], threshold: float
) -> Cell | None:
    """The next pace from a cell with these entries; None when no cone cell is free.

    One pass over the entries finds the closest free cell (the first free
    entry) and the most similar live agent in view (highest score, ties
    to the lowest id).  The pace heads for the closest free cell, unless
    that match scores below ``threshold``: then the agent moves to reduce
    the difference and heads for the free cell nearest the match, ties
    to the earlier cone cell.  The pace cell itself may be occupied or a
    wall.
    """
    pace = match = None
    best_id = -1
    best_score = -1.0
    for cell, toward, score in entries:
        other_id = occupancy[cell]
        if other_id == FREE:
            if pace is None:
                pace = toward
        elif (score > best_score or (score == best_score and other_id < best_id)) \
                and not agents[other_id].exited:
            match, best_id, best_score = cell, other_id, score
    if pace is None or match is None or best_score >= threshold:
        return pace
    tx, ty = match
    return min(
        (entry for entry in entries if occupancy[entry[0]] == FREE),
        key=lambda entry: (entry[0][0] - tx) ** 2 + (entry[0][1] - ty) ** 2,
    )[1]
