"""Deterministic simulation loop.

Each step visits every live agent once, in a fresh seeded random
permutation.  An agent faces the nearest exit coordinate, scans its
vision cone once for free cells and visible neighbours, aims at the
closest free cell unless social comparison steers it elsewhere, then
takes one pace (one 8-neighbor cell) toward that target if the pace
cell is free.  Reaching an exit coordinate (distance < 1) marks the
agent as exited; the body keeps occupying the doorway until the
agent's next activation, when it moves off the world — so exit cells
are briefly blocked and the door is a real bottleneck.

A run is a pure function of its config: identical configs (seed
included) produce identical traces.  ``simulate`` yields the trace one
StepRecord at a time, so a consumer such as the arch detector can stop
the run as soon as it has read enough; ``run`` collects the whole trace.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .agent import Agent, heading_toward, most_similar_neighbor, scan_cone, steer
from .errors import ArchsimError, ConfigError, CrowdTooLargeError
from .world import WorldGrid, build_world, is_free, nearest_exit_coordinate

TRACE_HEADER = ["t", "agent_id", "transverse", "longitudinal", "exited"]
SUMMARY_HEADER = ["t", "exits_this_step", "stationary_count"]


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
        if self.d_max <= 0:
            raise ConfigError(f"d_max={self.d_max} must be positive")


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
        build_world(self.W, self.L, self.w)  # geometry preconditions


@dataclass
class StepRecord:
    """Per-step snapshot: agent arrays are indexed by agent id."""

    t: int
    xs: np.ndarray
    ys: np.ndarray
    exited: np.ndarray
    moved: np.ndarray
    exits_this_step: int

    @property
    def agent_count(self) -> int:
        return len(self.xs)

    @property
    def exited_count(self) -> int:
        return int(self.exited.sum())

    @property
    def stationary_count(self) -> int:
        """Live agents that did not move this step."""
        return int((~self.exited & ~self.moved).sum())


def _snapshot(t: int, agents: list[Agent], exits_this_step: int) -> StepRecord:
    n = len(agents)
    xs = np.fromiter((a.pos[0] for a in agents), dtype=np.int16, count=n)
    ys = np.fromiter((a.pos[1] for a in agents), dtype=np.int16, count=n)
    exited = np.fromiter((a.exited for a in agents), dtype=bool, count=n)
    moved = np.fromiter((a.moved_last_step for a in agents), dtype=bool, count=n)
    return StepRecord(t, xs, ys, exited, moved, exits_this_step)


def initialize(config: SimConfig) -> tuple[WorldGrid, list[Agent], np.random.Generator]:
    """Build the world and place the crowd.

    Agents land uniformly at random (seeded) on distinct free cells at
    longitudinal coordinate >= spawn_margin, headings aimed at their
    nearest exit coordinate.
    """
    config.validate()
    grid = build_world(config.W, config.L, config.w)
    rng = np.random.default_rng(config.seed)
    spawn = [
        (x, y)
        for y in range(config.spawn_margin, config.L)
        for x in range(config.W)
        if not grid.is_wall((x, y))
    ]
    if config.c > len(spawn):
        raise CrowdTooLargeError(
            f"crowd size c={config.c} exceeds {len(spawn)} spawnable cells"
        )
    picks = rng.choice(len(spawn), size=config.c, replace=False)
    agents = []
    for agent_id, i in enumerate(picks):
        pos = spawn[int(i)]
        heading = heading_toward(pos, nearest_exit_coordinate(grid, pos))
        grid.place(agent_id, pos)
        agents.append(Agent(id=agent_id, pos=pos, heading=heading))
    return grid, agents, rng


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def step(
    grid: WorldGrid,
    agents: list[Agent],
    rng: np.random.Generator,
    config: SimConfig,
    t: int,
) -> StepRecord:
    """Advance the simulation by one step and record the result."""
    radius = config.vision_radius
    exits_this_step = 0

    for idx in rng.permutation(len(agents)):
        agent = agents[int(idx)]
        if agent.exited:
            # a freshly exited body clears the doorway at its next
            # activation ("moves to the edge of the world")
            if grid.occupancy.get(agent.pos) == agent.id:
                grid.vacate(agent.pos)
            agent.moved_last_step = False
            continue

        # spawned on an exit coordinate (possible with spawn_margin = 0)
        if agent.pos == nearest_exit_coordinate(grid, agent.pos):
            agent.exited = True
            agent.moved_last_step = False
            exits_this_step += 1
            continue

        # the heading set at spawn or at the end of the last activation
        # still faces the nearest exit: only the agent moves its body
        free, visible = scan_cone(agent, grid, agents, radius)
        comparison = most_similar_neighbor(agent, visible, config)
        target = steer(comparison, free, config)

        moved = False
        if target is not None:
            pace = (
                agent.pos[0] + _sign(target[0] - agent.pos[0]),
                agent.pos[1] + _sign(target[1] - agent.pos[1]),
            )
            if is_free(grid, pace):
                grid.move(agent.pos, pace)
                agent.pos = pace
                moved = True
        agent.moved_last_step = moved

        new_exit = nearest_exit_coordinate(grid, agent.pos)
        if agent.pos == new_exit:  # distance < 1 on integer cells means distance 0
            agent.exited = True
            exits_this_step += 1
        else:
            agent.heading = heading_toward(agent.pos, new_exit)

    record = _snapshot(t, agents, exits_this_step)
    live = record.agent_count - record.exited_count
    dwelling = sum(
        1 for a in agents if a.exited and grid.occupancy.get(a.pos) == a.id
    )
    if len(grid.occupancy) != live + dwelling:
        raise ArchsimError(
            f"step {t}: {len(grid.occupancy)} occupied cells for {live} live agents "
            f"and {dwelling} bodies in the doorway"
        )
    return record


def simulate(config: SimConfig):
    """Yield the t=0 snapshot, then one record per step.

    Stops once every agent has exited or max_steps is reached.  A
    consumer that stops reading stops the simulation there.
    """
    grid, agents, rng = initialize(config)
    record = _snapshot(0, agents, 0)
    yield record
    t = 0
    while record.exited_count < len(agents) and t < config.max_steps:
        t += 1
        record = step(grid, agents, rng, config, t)
        yield record


def run(config: SimConfig) -> list[StepRecord]:
    """The full trace of simulate(config), initial snapshot included."""
    return list(simulate(config))


def write_trace_csv(records: list[StepRecord], path) -> None:
    """One row per (step, agent): positions and exited flags over time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for rec in records:
            for agent_id in range(rec.agent_count):
                writer.writerow(
                    [
                        rec.t,
                        agent_id,
                        int(rec.xs[agent_id]),
                        int(rec.ys[agent_id]),
                        int(rec.exited[agent_id]),
                    ]
                )


def write_summary_csv(records: list[StepRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for rec in records:
            writer.writerow([rec.t, rec.exits_this_step, rec.stationary_count])


def read_trace_csv(path) -> list[StepRecord]:
    """Rebuild StepRecords from a trace CSV (inverse of write_trace_csv).

    Every step must list agent ids 0..n-1 exactly once, with the n of
    the first step; a malformed row or step raises ConfigError.
    """
    by_step: dict[int, list[tuple[int, int, int, int]]] = {}
    first_line: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ConfigError(f"{path}: unexpected trace header: {header}")
        for row in reader:
            try:
                t, agent_id, x, y, exited = (int(v) for v in row)
            except ValueError:
                raise ConfigError(
                    f"{path}: line {reader.line_num}: expected {len(TRACE_HEADER)} "
                    f"integers, got {row}"
                ) from None
            by_step.setdefault(t, []).append((agent_id, x, y, exited))
            first_line.setdefault(t, reader.line_num)
    if not by_step:
        raise ConfigError(f"{path}: trace holds no rows")
    records = []
    for t in sorted(by_step):
        rows = sorted(by_step[t])
        n = records[0].agent_count if records else len(rows)
        if [r[0] for r in rows] != list(range(n)):
            raise ConfigError(
                f"{path}: line {first_line[t]}: step {t} does not list agent ids "
                f"0..{n - 1} exactly once"
            )
        xs = np.array([r[1] for r in rows], dtype=np.int16)
        ys = np.array([r[2] for r in rows], dtype=np.int16)
        exited = np.array([bool(r[3]) for r in rows])
        prev_exited = records[-1].exited if records else np.zeros(len(rows), dtype=bool)
        if records:
            moved = (xs != records[-1].xs) | (ys != records[-1].ys)
        else:
            moved = np.zeros(len(rows), dtype=bool)
        exits = int((exited & ~prev_exited).sum())
        records.append(StepRecord(t, xs, ys, exited, moved, exits))
    return records
