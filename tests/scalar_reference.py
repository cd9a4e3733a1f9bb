"""Scalar reference for the neighbourhood table.

The vision cone and the similarity score, written from their definitions
one Python float operation at a time.  ``archsim.agent`` builds the same
table with numpy; the tests require the two to agree bit for bit.
"""

import math

from archsim.world import TWO_PI

HALF_CONE = math.radians(50.0)  # half of the 100-degree vision field
ANGLE_EPS = 1e-9  # a cell exactly on the cone boundary counts as inside


def signed_deviation(angle, heading):
    """Smallest signed rotation from ``heading`` to ``angle``, in (-pi, pi]."""
    d = math.fmod(angle - heading, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d <= -math.pi:
        d += TWO_PI
    return d


def similarity(dist, heading, other_heading, config):
    """Equal-weight sum of distance and heading similarity, in [0, 1].

    Distance similarity falls linearly from 1 to 0 at ``config.d_max``
    cells; heading similarity is 1 minus the angle between the headings
    over pi.
    """
    by_distance = max(0.0, 1.0 - dist / config.d_max)
    by_heading = 1.0 - abs(signed_deviation(heading, other_heading)) / math.pi
    return by_distance * 0.5 + by_heading * 0.5


def cone_offsets(radius, heading):
    """Offsets ``(ox, oy, dist)`` inside the vision cone, in preference order.

    Ordered by (distance, absolute angular deviation, clockwise first,
    ox, oy).
    """
    selected = []
    for oy in range(-radius, radius + 1):
        for ox in range(-radius, radius + 1):
            d2 = ox * ox + oy * oy
            if d2 == 0 or d2 > radius * radius:
                continue
            dev = signed_deviation(math.atan2(oy, ox), heading)
            adev = abs(dev)
            if adev <= HALF_CONE + ANGLE_EPS:
                # clockwise (negative rotation) wins ties on |deviation|
                selected.append((math.sqrt(d2), adev, 0 if dev < 0 else 1, ox, oy))
    selected.sort()
    return tuple((ox, oy, dist) for dist, _, _, ox, oy in selected)


def build_neighbourhood(floor, config):
    """Each floor cell's ``(q, pace, score)`` entries, one cell at a time."""
    headings = floor.heading
    cells = {cell: cell for cell in headings}  # entries share the floor's key tuples
    table = {}
    for cell, heading in headings.items():
        x, y = cell
        entries = []
        for ox, oy, dist in cone_offsets(config.vision_radius, heading):
            q = cells.get((x + ox, y + oy))
            if q is not None:
                pace = (x + (ox > 0) - (ox < 0), y + (oy > 0) - (oy < 0))
                score = similarity(dist, heading, headings[q], config)
                entries.append((q, cells.get(pace, pace), score))
        table[cell] = tuple(entries)
    return table
