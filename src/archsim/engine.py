"""Deterministic simulation loop.

Each step visits every live agent once, in a fresh seeded random
permutation.  An agent reads its cell's neighbourhood entries once: the
cells of the vision cone facing the floor's heading toward the nearest
exit coordinate, tabulated once per floor with the pace toward each and
the similarity score of a neighbour there.  It aims at the closest free
cell unless social comparison steers it elsewhere, then takes one pace
(one 8-neighbor cell) toward that target if the pace cell is free.
Reaching an exit coordinate (distance < 1) marks the agent as exited;
the body keeps occupying the doorway until the agent's next activation,
when it moves off the world — so exit cells are briefly blocked and the
door is a real bottleneck.

A run is a pure function of its config: identical configs (seed
included) produce identical traces.  ``simulate`` yields the trace one
StepRecord at a time, so a consumer such as the arch detector can stop
the run as soon as it has read enough; ``run`` collects the whole trace.
The trace and summary rows go to CSV through ``table``; the trace is
rendered a step at a time from per-value text tables.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import table
from .agent import Crowd, cone_holders, neighbourhood, steer
from .errors import ArchsimError, ConfigError, CrowdTooLargeError
from .world import COORD_MAX, FREE, WorldGrid, build_floor

TRACE_HEADER = ["t", "agent_id", "transverse", "longitudinal", "exited"]
SUMMARY_HEADER = ["t", "exits_this_step", "stationary_count"]
_FULL = ((), ())  # the cone entries of a cell marked full: no cell, no match


@dataclass(kw_only=True)
class RunSettings:
    """World, behaviour and budget settings shared by a run and a sweep."""

    W: int = 19
    L: int = 60
    max_steps: int = 5000
    vision_radius: int = 3
    spawn_margin: int = 5
    trigger_threshold: float = 0.5  # veer toward a best match scoring below this
    d_max: float | None = None  # similarity reaches 0 at this distance; None: vision_radius

    def __post_init__(self):
        if self.vision_radius >= 2**63:  # before float() can overflow
            raise ConfigError(f"vision_radius={self.vision_radius} must be below 2**63")
        if self.d_max is None:
            self.d_max = float(self.vision_radius)

    def validate(self) -> None:
        if self.max_steps < 1:
            raise ConfigError(f"max_steps={self.max_steps} must be positive")
        if self.vision_radius < 1:
            raise ConfigError(f"vision_radius={self.vision_radius} must be >= 1")
        if self.spawn_margin < 0 or self.spawn_margin >= self.L:
            raise ConfigError(f"spawn_margin={self.spawn_margin} outside corridor")
        if not 0.0 <= self.trigger_threshold <= 1.0:
            raise ConfigError(f"trigger_threshold={self.trigger_threshold} outside [0, 1]")
        if not (math.isfinite(self.d_max) and self.d_max > 0):
            raise ConfigError(f"d_max={self.d_max} must be positive and finite")


@dataclass
class SimConfig(RunSettings):
    """All tunables for one run."""

    c: int
    w: int
    seed: int = 0

    def validate(self) -> None:
        super().validate()
        if self.c < 0:
            raise ConfigError(f"crowd size c={self.c} must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be nonnegative")
        floor = build_floor(self.W, self.L, self.w)  # checks the geometry first
        spawnable = np.count_nonzero(floor.ys >= self.spawn_margin)
        if self.c > spawnable:
            raise CrowdTooLargeError(f"crowd size c={self.c} exceeds {spawnable} spawnable cells")


@dataclass
class StepRecord:
    """Per-step snapshot: agent arrays are indexed by agent id."""

    t: int
    xs: np.ndarray
    ys: np.ndarray
    exited: np.ndarray
    moved: np.ndarray  # the agents whose cell changed in the step

    @property
    def agent_count(self) -> int:
        return len(self.xs)

    @property
    def exited_count(self) -> int:
        return int(np.count_nonzero(self.exited))

    @property
    def stationary_count(self) -> int:
        """Live agents that did not move this step."""
        return len(self.exited) - int(np.count_nonzero(self.exited | self.moved))


def _snapshot(t: int, crowd: Crowd, moved: np.ndarray) -> StepRecord:
    where = np.frombuffer(crowd.cell, np.int64)
    floor = crowd.floor
    exited = np.frombuffer(crowd.exited, dtype=bool).copy()
    return StepRecord(t, floor.xs[where], floor.ys[where], exited, moved)


def initialize(config: SimConfig) -> tuple[WorldGrid, Crowd, np.random.Generator]:
    """Lay the run's occupancy list over its floor and place the crowd.

    Agents land uniformly at random (seeded) on distinct free cells at
    longitudinal coordinate >= spawn_margin.
    """
    config.validate()
    floor = build_floor(config.W, config.L, config.w)
    grid = WorldGrid(floor)
    rng = np.random.default_rng(config.seed)
    spawn = np.flatnonzero(floor.ys >= config.spawn_margin)  # in the floor's cell order
    cell = spawn[rng.choice(len(spawn), size=config.c, replace=False)].tolist()
    for agent_id, k in enumerate(cell):
        grid.occupancy[k] = agent_id
    return grid, Crowd(floor, cell, bytearray(config.c)), rng


def step(
    grid: WorldGrid,
    crowd: Crowd,
    rng: np.random.Generator,
    config: SimConfig,
    t: int,
) -> StepRecord:
    """Advance the simulation by one step and record the result.

    An exited agent is visited only while its body stands in the doorway,
    and that activation frees its exit cell.  While the crowd is mostly
    stuck (the last step's activations that found no free cone cell
    outnumber its moves), a cell whose cone was found full is marked in
    ``grid.marks``, and its next activations end unread, their result
    known, until a cell of that cone is freed: a move's old cell, or a
    body leaving the doorway.  A grid is stepped under one
    ``(vision_radius, d_max)``, and code that frees a cell of
    ``grid.occupancy`` between steps must set ``grid.marks`` to None.
    """
    floor, occupancy = grid.floor, grid.occupancy
    cell, exited = crowd.cell, crowd.exited
    base, cells, threshold = neighbourhood(floor, config), floor.cells, config.trigger_threshold
    w = len(floor.exit_cells)  # cell indices 0..w-1 are the exit segment
    jammed = 0
    before = np.frombuffer(cell, np.int64).copy()
    # while marking, ``table`` is the run's copy of the cone table in which
    # a marked cell's entries are ``_FULL``
    marking = grid.marks is not None
    table = grid.marks if marking else base
    holders = cone_holders(floor, config) if marking else None

    order = rng.permutation(len(crowd))
    if 1 in exited:
        # an exited agent's body stands on an exit cell until its next
        # activation clears it; every other exited agent is done
        visit = np.frombuffer(exited, dtype=bool) == 0
        visit[[i for i in occupancy[:w] if i != FREE]] = True
        order = order[visit[order]]

    for i in order.tolist():
        here = cell[i]
        entries = table[here]
        if entries is _FULL:
            # a marked cell holds its live, jammed agent (exit cells are
            # never scanned, so never marked): nothing else need be read
            jammed += 1
            continue
        if exited[i]:
            # a freshly exited body clears the doorway at its next
            # activation ("moves to the edge of the world"): the visit
            # mask admits an exited agent only while its body stands there
            occupancy[here] = FREE
            if marking:
                for p in holders[here]:
                    table[p] = base[p]
            continue

        # spawned on an exit coordinate (possible with spawn_margin = 0)
        if here < w:
            exited[i] = 1
            continue

        # the closest free cell, then the best live match in view: a match
        # scoring below the threshold triggers a veer toward it
        for q, pace, _ in entries[0]:
            if occupancy[q] == FREE:
                break
        else:
            # no free cone cell: nothing changes until one of them is freed
            jammed += 1
            if marking:
                table[here] = _FULL
            continue
        for match, _, best in entries[1]:
            best_id = occupancy[match]
            if best_id != FREE and not exited[best_id]:
                if best < threshold:
                    pace = steer(entries, occupancy, exited, cells, best)
                break
        if occupancy[pace] == FREE:
            occupancy[pace], occupancy[here] = i, FREE
            cell[i] = pace
            if marking:
                for p in holders[here]:
                    table[p] = base[p]
            if pace < w:  # distance < 1 to an exit cell means standing on it
                exited[i] = 1

    moved = np.frombuffer(cell, np.int64) != before
    if jammed <= np.count_nonzero(moved):
        grid.marks = None
    elif not marking:
        grid.marks = list(base)
    record = _snapshot(t, crowd, moved)
    _check_occupancy(grid, crowd, t)
    return record


def _check_occupancy(grid: WorldGrid, crowd: Crowd, t: int) -> None:
    """Raise ArchsimError unless the occupied cells are the live agents'
    plus the bodies still standing in the doorway.

    An exited agent's body stays on its exit cell (cell indices 0..w-1)
    until its next activation: an exit cell counts as a body while its
    occupant is exited and stands on it.
    """
    occupancy, cell, exited = grid.occupancy, crowd.cell, crowd.exited
    live = len(crowd) - exited.count(1)
    dwelling = sum(1 for k in range(len(grid.floor.exit_cells))
                   if (i := occupancy[k]) != FREE and exited[i] and cell[i] == k)
    occupied = len(occupancy) - occupancy.count(FREE) - 1  # the wall slot
    if occupied != live + dwelling:
        raise ArchsimError(
            f"step {t}: {occupied} occupied cells for {live} live agents "
            f"and {dwelling} bodies in the doorway"
        )


def simulate(config: SimConfig):
    """Yield the t=0 snapshot, then one record per step.

    Stops once every agent has exited or max_steps is reached.  A
    consumer that stops reading stops the simulation there.
    """
    grid, crowd, rng = initialize(config)
    yield _snapshot(0, crowd, np.zeros(len(crowd), dtype=bool))
    t = 0
    while crowd.exited.count(1) < len(crowd) and t < config.max_steps:
        t += 1
        yield step(grid, crowd, rng, config, t)


def run(config: SimConfig) -> list[StepRecord]:
    """The full trace of simulate(config), initial snapshot included."""
    return list(simulate(config))


def write_trace_csv(records: list[StepRecord], path) -> None:
    """One row per (step, agent): positions and exited flags over time.

    Writes what read_trace_csv reads back, but an empty crowd's header-only
    trace, which it refuses (so ``archsim run`` refuses an empty crowd
    before it simulates): raises ArchsimError naming the step, before the
    file is opened, if a record's agent count differs from the first
    record's or a coordinate lies outside 0..COORD_MAX.
    """
    n, top = _trace_extent(records)
    table.write_rendered(path, TRACE_HEADER, _trace_text(records, n, top))


_EXTENT_BLOCK = 64  # records per coordinate check: no slower than one block of all of them


def _trace_extent(records: list[StepRecord]) -> tuple[int, int]:
    """The agent count of every record and the largest coordinate in them,
    checked _EXTENT_BLOCK records at a time so that the copies stay small."""
    n = records[0].agent_count if records else 0
    for rec in records:
        if rec.agent_count != n:
            raise ArchsimError(f"step {rec.t}: {rec.agent_count} agents where step 0 has {n}")
    if not n:
        return 0, 0
    top = 0
    for b in range(0, len(records), _EXTENT_BLOCK):
        block = records[b:b + _EXTENT_BLOCK]
        coords = np.concatenate([(rec.xs, rec.ys) for rec in block], axis=1)  # (2, len(block) * n)
        bad = np.flatnonzero(((coords < 0) | (coords > COORD_MAX)).any(axis=0))
        if bad.size:
            s, i = divmod(int(bad[0]), n)
            raise ArchsimError(
                f"step {block[s].t}: agent {i} at {tuple(coords[:, bad[0]].tolist())} "
                f"outside 0..{COORD_MAX}"
            )
        top = max(top, int(coords.max()))
    return n, top


def _trace_text(records: list[StepRecord], n: int, top: int):
    """Each record's rows as one string, joined from per-value text tables.

    Each row is the step's field followed by the agent's part: its id, x,
    and y with the exited flag, the last from a table indexed by
    ``2*y + exited``.  Only the agent parts whose (x, y, exited) differ
    from the previous record are rendered again, all of them for the
    first; the step's field joins them.  The tables run to ``top``, at
    most COORD_MAX, not over every (x, y, exited) triple: read-back
    records may hold any coordinate up to COORD_MAX.
    """
    if not n:
        return
    coord_text = [table.int_field(v) for v in range(top + 1)]
    flag_text = [table.int_field(e, last=True) for e in (0, 1)]
    tail_text = [y + e for y in coord_text for e in flag_text]
    id_text = [table.int_field(i) for i in range(n)]
    agent_text = [""] * n  # each row after its step field, as of the previous record
    prev_xs = prev_tails = np.full(n, -1)  # no record comes before the first
    for rec in records:
        t_text = table.int_field(rec.t)
        xs, tails = rec.xs, 2 * rec.ys.astype(np.intp) + rec.exited
        changed = np.flatnonzero((xs != prev_xs) | (tails != prev_tails))
        prev_xs, prev_tails = xs, tails
        for i, x, tail in zip(changed.tolist(), xs[changed].tolist(), tails[changed].tolist()):
            agent_text[i] = id_text[i] + coord_text[x] + tail_text[tail]
        yield t_text + t_text.join(agent_text)


def write_summary_csv(records: list[StepRecord], path) -> None:
    """A step's exits are the rise in its exited count over the previous
    record's (over 0 for the first): an exited flag never returns to 0."""
    counts = [rec.exited_count for rec in records]
    table.write_table(
        path, SUMMARY_HEADER,
        ((rec.t, now - before, rec.stationary_count)
         for rec, before, now in zip(records, [0, *counts], counts)),
    )


def read_trace_csv(path) -> list[StepRecord]:
    """Rebuild StepRecords from a trace CSV (inverse of write_trace_csv).

    Every row holds five decimal integers and has its place in the
    writer's layout: body row k is agent k mod n of step k div n, where n
    is the first step's size, and the body holds whole steps.  Each
    exited flag is 0 or 1 and never returns from 1 to 0, and each
    coordinate lies in 0..COORD_MAX.  A malformed row or step raises
    ConfigError naming the line: a wrong step field or value by its own
    line, a wrong id, an un-exit or a short last step by the first line
    of its step.  The body is parsed once, into one array of the records'
    own int16 (int32 where a field lies beyond it), and checked there.
    """
    with table.open_table(path, TRACE_HEADER, "trace") as fh:
        rows = _load_rows(path, fh)

    # body row k, on line k + 2, is agent k mod n of step k div n.  Read
    # unsigned, a negative field lies above any bound, so one compare per
    # column checks both ends.  The rows of whole steps form an array of
    # shape (steps, n, 5); any rows after them are a short last step.
    t, fields = rows[:, 0], rows.view(f"u{rows.itemsize}")
    n = int(np.argmax(t != t[0])) or len(rows)  # the first step's size
    whole = len(rows) // n
    steps = rows[: whole * n].reshape(whole, n, len(TRACE_HEADER))
    bad_value = (fields[:, 2] > COORD_MAX) | (fields[:, 3] > COORD_MAX) | (fields[:, 4] > 1)
    bad = bad_value | np.concatenate([  # a step field out of its place
        (steps[:, :, 0] != np.arange(whole)[:, None]).ravel(),
        t[whole * n:] != whole,
    ])
    if bad.any():
        k = int(bad.argmax())
        if bad_value[k]:
            raise ConfigError(
                f"{path}: line {k + 2}: exited must be 0 or 1 and coordinates "
                f"within 0..{COORD_MAX}, got {rows[k].tolist()}"
            )
        raise ConfigError(
            f"{path}: line {k + 2}: step {t[k]} where step {k // n} belongs; "
            f"steps must run 0, 1, 2, ... in order, each as long as the first"
        )
    del bad_value, bad  # before the records' copies are made
    exited = steps[:, :, 4].astype(bool)
    bad_ids = (steps[:, :, 1] != np.arange(n)).any(axis=1)
    unexit = np.zeros(whole, dtype=bool)
    unexit[1:] = (exited[:-1] > exited[1:]).any(axis=1)  # exited, then not
    failing = np.flatnonzero(bad_ids | unexit)
    s = int(failing[0]) if failing.size else whole
    if s * n < len(rows):
        line = s * n + 2
        if s == whole or bad_ids[s]:
            raise ConfigError(
                f"{path}: line {line}: step {s} does not list agent ids "
                f"0..{n - 1} in order"
            )
        raise ConfigError(
            f"{path}: line {line}: step {s} marks exited agent "
            f"{np.flatnonzero(exited[s - 1] > exited[s])[0]} as not exited"
        )

    xs, ys = steps[:, :, 2].astype(np.int16), steps[:, :, 3].astype(np.int16)
    del rows, t, fields, steps  # every field the records keep is copied out
    moved = np.zeros_like(exited)  # before the first step nobody has moved or exited
    moved[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    return [StepRecord(s, xs[s], ys[s], exited[s], moved[s]) for s in range(whole)]


_CHUNK = 1 << 20  # bytes per read of the trace body's check
_FIELD_BYTES = b"0123456789-" + table.SEPARATOR.encode()  # a row's bytes but its line end
# numpy reads a path with one of these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
_FIRST_LINE = re.compile(rb"[^\r\n]*(\r\n|\r|\n)?")
_ROW = re.compile(table.SEPARATOR.join([table.INT] * len(TRACE_HEADER)))  # one trace row
_TEN_DIGITS = re.compile(r"[0-9]{10}")  # only a field with ten digits can pass int32


def _load_rows(path, fh) -> np.ndarray:
    """The trace body, the lines below the header of the open table ``fh``,
    as an array with one row of TRACE_HEADER's fields per line, parsed by
    numpy's file reader: int16, or int32 where a field lies beyond int16.

    A body that holds anything but ``0-9``, ``-``, ``,`` and line ends, or
    does not parse to one row per line (numpy skips a blank line), raises
    ConfigError naming its first bad line (``_scan_rows``).  numpy streams
    in C only from a path, so the body is checked and its lines counted in
    a binary pass first; the count bounds the parse.  A name numpy would
    decompress is parsed from ``fh``.
    """
    body, lines, last = fh.tell(), 0, b"\n"
    with open(path, "rb") as raw:
        chunk = raw.read(_CHUNK)
        chunk = chunk[_FIRST_LINE.match(chunk).end():]  # the header, which open_table checked
        while chunk:
            ends = chunk.translate(None, _FIELD_BYTES)
            if ends.translate(None, b"\r\n"):
                break  # a byte no row holds
            # \n, \r and \r\n each end a line, also a \r\n split between two reads
            lines += len(ends) - (b"\r" in ends and chunk.count(b"\r\n"))
            if last == b"\r" and chunk.startswith(b"\n"):
                lines -= 1
            last = chunk[-1:]
            chunk = raw.read(_CHUNK)
    if not chunk:  # the byte check read the whole body
        lines += last not in b"\r\n"  # the last line has no line end
        if not lines:
            raise ConfigError(f"{path}: trace holds no rows")
        source, skip = (fh, 0) if str(path).endswith(_COMPRESSED) else (path, 1)
        for dtype in (np.int16, np.int32):
            fh.seek(body)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a blank line, which numpy skips
                    rows = np.loadtxt(source, dtype, delimiter=table.SEPARATOR, ndmin=2,
                                      comments=None, skiprows=skip, max_rows=lines,
                                      encoding="utf-8")
            except ValueError:  # a field that is not of this type, or rows of unequal width
                continue
            if rows.shape == (lines, len(TRACE_HEADER)):
                return rows
            break
    fh.seek(body)
    _scan_rows(path, fh)


def _scan_rows(path, fh) -> NoReturn:
    """Raise ConfigError naming the first line left in the open table ``fh``
    that is not one ``_ROW`` match with every field within int32."""
    width = len(TRACE_HEADER)
    for line, text in enumerate(fh, 2):
        text = text.rstrip("\r\n")
        if not _ROW.fullmatch(text) or _TEN_DIGITS.search(text) and not all(
            -(2**31) <= int(v) < 2**31 for v in text.split(table.SEPARATOR)
        ):
            fields = text.split(table.SEPARATOR) if text else []
            raise ConfigError(f"{path}: line {line}: expected {width} integers, got {fields}")
    raise ConfigError(f"{path}: trace body does not parse as rows of {width} integers")
