"""Scalar reference for the neighbourhood table and the step.

The vision cone and the similarity score, written from their definitions
one Python float operation at a time.  ``archsim.agent`` builds the same
table with numpy; the tests require the two to agree bit for bit.

``reference_run`` is the step kernel as it was before it moved to cell
indices: ``Agent`` objects, an occupancy dict keyed by cell tuples,
``is_free`` and ``WorldGrid.move``, over the tuple-keyed scalar table.
The tests require ``engine.run`` to give the same records.  Each of its
records is a ``ReferenceRecord``, which also holds the kernel's own
count of the step's exits; the tests require ``engine.write_summary_csv``
to write the same counts.

``one_pass_choose_pace`` is the index-based pace decision as it was
before the table ranked each cell's entries by score: one pass over the
cone entries.  ``step_pace`` is the decision as ``engine.step`` makes
it: the step's two scans, copied line for line, and ``agent.steer`` for
a triggered agent.  The tests require the two to return the same pace.

``heading_toward`` is the heading from one cell to another as a helper
of its own; ``build_floor`` computes the same angle inline for its
heading field, and the tests require the two to agree bit for bit.
``write_trace_csv`` is the trace writer as it was before each step's
rows were rendered from per-value text tables: one ``csv.writer`` row
per (step, agent).  The tests require ``engine.write_trace_csv`` to
write the same bytes.

``_scan_rows`` is the trace reader's line scan as it was before it
matched each line against one compiled row pattern: every field parsed
by ``table.parse_int``.  The tests require ``engine._scan_rows`` to
raise the same message.
"""

import math
import operator
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NoReturn

import numpy as np

from archsim import table
from archsim.agent import steer
from archsim.engine import TRACE_HEADER, StepRecord
from archsim.errors import ArchsimError, ConfigError
from archsim.table import write_table
from archsim.world import FREE, TWO_PI, build_floor

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


def wrap_angle(a):
    """Map an angle into [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0 else a


def heading_toward(src, dst):
    """Heading angle from ``src`` to ``dst`` in [0, 2*pi); 0 for coincident cells."""
    return wrap_angle(math.atan2(dst[1] - src[1], dst[0] - src[0]))


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


# ------------------------------------------------- the tuple-keyed step kernel

@dataclass(slots=True)
class Agent:
    id: int
    pos: tuple
    exited: bool = False


@dataclass
class WorldGrid:
    """One run's occupancy map: each floor cell, in the heading field's
    order, maps to the id of the agent standing there or to FREE."""

    floor: object
    occupancy: dict = field(init=False)

    def __post_init__(self):
        self.occupancy = dict.fromkeys(self.floor.heading, FREE)

    def place(self, agent_id, cell):
        occupant = self.occupancy.get(cell)
        if occupant is None:
            raise ValueError(f"cell {cell} is a wall")
        if occupant != FREE:
            raise ValueError(f"cell {cell} already occupied by {occupant}")
        self.occupancy[cell] = agent_id

    def vacate(self, cell):
        self.occupancy[cell] = FREE

    def move(self, old, new):
        self.place(self.occupancy[old], new)
        self.vacate(old)


def is_free(grid, cell):
    """True iff ``cell`` is a floor cell nobody stands on.

    Exit cells count as free; walls and out-of-bounds queries do not.
    """
    return grid.occupancy.get(cell) == FREE


def choose_pace(entries, occupancy, agents, threshold):
    """The next pace from a cell with these tuple-keyed entries; None when
    no cone cell is free."""
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


def one_pass_choose_pace(entries, occupancy, exited, cells, threshold):
    """The next pace from a cell with these cone entries ``(q, pace, score)``
    of cell indices; None when no cone cell is free."""
    pace = match = None
    best_id = -1
    best_score = -1.0
    for q, toward, score in entries:
        other_id = occupancy[q]
        if other_id == FREE:
            if pace is None:
                pace = toward
        elif (score > best_score or (score == best_score and other_id < best_id)) \
                and not exited[other_id]:
            match, best_id, best_score = q, other_id, score
    if pace is None or match is None or best_score >= threshold:
        return pace
    tx, ty = cells[match]
    return min(
        (entry for entry in entries if occupancy[entry[0]] == FREE),
        key=lambda entry: (cells[entry[0]][0] - tx) ** 2 + (cells[entry[0]][1] - ty) ** 2,
    )[1]


def step_pace(entries, occupancy, exited, cells, threshold):
    """The next pace ``engine.step`` takes from a cell with these entries;
    None when no cone cell is free.

    The two scans are ``engine.step``'s, copied line for line: the first
    free entry in cone order, then the first live agent in score order,
    whose score below ``threshold`` hands the pace to ``agent.steer``.
    """
    for q, pace, _ in entries[0]:
        if occupancy[q] == FREE:
            break
    else:
        return None
    for match, _, best in entries[1]:
        best_id = occupancy[match]
        if best_id != FREE and not exited[best_id]:
            if best < threshold:
                pace = steer(entries, occupancy, exited, cells, best)
            break
    return pace


@dataclass
class ReferenceRecord(StepRecord):
    """A step's record with the kernel's own count of the agents that
    exited in that step."""

    exits_this_step: int


def _snapshot(t, agents, moved, exits):
    n = len(agents)
    xs = np.fromiter((a.pos[0] for a in agents), dtype=np.int16, count=n)
    ys = np.fromiter((a.pos[1] for a in agents), dtype=np.int16, count=n)
    exited = np.fromiter((a.exited for a in agents), dtype=bool, count=n)
    return ReferenceRecord(t, xs, ys, exited, moved, exits)


def initialize(config):
    config.validate()
    grid = WorldGrid(build_floor(config.W, config.L, config.w))
    rng = np.random.default_rng(config.seed)
    spawn = [cell for cell in grid.occupancy if cell[1] >= config.spawn_margin]
    picks = rng.choice(len(spawn), size=config.c, replace=False)
    agents = []
    for agent_id, i in enumerate(picks):
        pos = spawn[int(i)]
        grid.place(agent_id, pos)
        agents.append(Agent(id=agent_id, pos=pos))
    return grid, agents, rng


def step(grid, agents, rng, config, t, table):
    exits_this_step = 0
    moved = np.zeros(len(agents), dtype=bool)
    occupancy = grid.occupancy

    for idx in rng.permutation(len(agents)):
        agent = agents[int(idx)]
        if agent.exited:
            if occupancy.get(agent.pos) == agent.id:
                grid.vacate(agent.pos)
            continue

        if agent.pos[1] == 0:
            agent.exited = True
            exits_this_step += 1
            continue

        pace = choose_pace(table[agent.pos], occupancy, agents, config.trigger_threshold)
        if pace is not None and is_free(grid, pace):
            grid.move(agent.pos, pace)
            agent.pos = pace
            moved[agent.id] = True

        if agent.pos[1] == 0:
            agent.exited = True
            exits_this_step += 1

    record = _snapshot(t, agents, moved, exits_this_step)
    live = record.agent_count - record.exited_count
    dwelling = sum(
        1 for a in agents if a.exited and grid.occupancy.get(a.pos) == a.id
    )
    occupied = len(grid.occupancy) - operator.countOf(grid.occupancy.values(), FREE)
    if occupied != live + dwelling:
        raise ArchsimError(
            f"step {t}: {occupied} occupied cells for {live} live agents "
            f"and {dwelling} bodies in the doorway"
        )
    return record


def reference_run(config):
    """The full trace of a run, initial snapshot included, stepped by the
    tuple-keyed kernel."""
    grid, agents, rng = initialize(config)
    table = build_neighbourhood(grid.floor, config)
    record = _snapshot(0, agents, np.zeros(len(agents), dtype=bool), 0)
    records = [record]
    t = 0
    while record.exited_count < len(agents) and t < config.max_steps:
        t += 1
        record = step(grid, agents, rng, config, t, table)
        records.append(record)
    return records


# ------------------------------------------------------------ the trace writer

def write_trace_csv(records, path):
    """One row per (step, agent): positions and exited flags over time."""
    steps = (
        zip(repeat(rec.t), range(rec.agent_count), rec.xs.tolist(), rec.ys.tolist(),
            rec.exited.view(np.int8).tolist())
        for rec in records
    )
    write_table(path, TRACE_HEADER, chain.from_iterable(steps))


# ------------------------------------------------------------ the trace line scan

def _scan_rows(path, fh, width: int) -> NoReturn:
    """Raise ConfigError naming the first line left in the open table ``fh``
    that is not ``width`` ints, each ``-?[0-9]+`` within int32."""
    for line, text in enumerate(fh, 2):
        text = text.rstrip("\r\n")
        fields = text.split(table.SEPARATOR) if text else []
        try:
            row = [table.parse_int(field) for field in fields]
        except ValueError:
            row = []
        if len(row) != width or not all(-(2**31) <= v < 2**31 for v in row):
            raise ConfigError(f"{path}: line {line}: expected {width} integers, got {fields}")
    raise ConfigError(f"{path}: trace body does not parse as rows of {width} integers")
