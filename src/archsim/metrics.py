"""Arch detection and measurement on recorded or live runs.

An arch shows up as a clog: a connected blob of agents that stopped
moving because the cells ahead of them are taken, anchored at the exit.
We take the largest 8-connected component of stationary live agents
that touches the exit (some member within Euclidean distance 1 of an
exit cell), call its first sufficiently large and persistent appearance
the onset, and measure its axes there: M is how deep it reaches into
the corridor, m is how wide it spans the exit wall.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArchsimError
from .world import Cell, Floor

_NEIGHBORS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]

THRESHOLD_FACTOR = 3.0  # an onset cluster holds at least 3 agents per exit cell
PERSISTENCE = 3  # ... and stays nonempty for the next 3 steps


@dataclass
class ArchMeasurement:
    arch_detected: bool
    T: int | None = None
    M: int | None = None
    m: int | None = None
    cluster_size: int | None = None


def clog_cluster(record, floor: Floor) -> set[Cell]:
    """Largest exit-anchored component of stationary live agents.

    Returns an empty set when nothing qualifies.  Among equally large
    components the one with the smallest cell wins, so the result never
    depends on iteration order.  A floor cell within distance 1 of an exit
    cell is one or stands directly above one: row 0's floor cells are the
    exit cells, and a row-1 cell beside the exit columns is at least
    sqrt(2) from them.  The flood fills start from the agents on those
    cells only, so no component away from the exit is ever filled, and
    the stationary set is built only once there is a seed.
    """
    mask = ~record.exited & ~record.moved
    (x0, _), (x1, _) = floor.exit_cells[0], floor.exit_cells[-1]
    front = mask & (record.ys <= 1) & (record.xs >= x0) & (record.xs <= x1)
    seeds = list(zip(record.xs[front].tolist(), record.ys[front].tolist()))
    if not seeds:
        return set()
    remaining = set(zip(record.xs[mask].tolist(), record.ys[mask].tolist()))
    candidates = []
    for seed in seeds:
        if seed not in remaining:  # reached from an earlier seed
            continue
        remaining.remove(seed)
        comp = {seed}
        frontier = [seed]
        while frontier:
            x, y = frontier.pop()
            for dx, dy in _NEIGHBORS:
                nb = (x + dx, y + dy)
                if nb in remaining:
                    remaining.remove(nb)
                    comp.add(nb)
                    frontier.append(nb)
        candidates.append(comp)
    return min(candidates, key=lambda comp: (-len(comp), min(comp)))


def detect_arch_onset(
    records,
    floor: Floor,
    threshold_factor: float = THRESHOLD_FACTOR,
    persistence: int = PERSISTENCE,
) -> ArchMeasurement:
    """Find the arch onset in a trace and measure the arch there.

    The onset T is the first step whose clog cluster is nonempty, holds at
    least threshold_factor * w agents and stays nonempty for the next
    `persistence` steps.  Returns a no-arch measurement when no
    step qualifies (or the trace ends before persistence can be
    confirmed).

    `records` may be any iterable, a live simulation included: it is
    read only up to step T + persistence.  One candidate is pending at a
    time.  While it waits, a later qualifying step cannot win: it is
    either later than a confirmed candidate or its own window holds the
    empty cluster that rejects the pending one.
    """
    threshold = threshold_factor * len(floor.exit_cells)
    pending = None  # (record, cluster) of the candidate onset
    confirmed = 0  # nonempty clusters seen since the candidate
    for record in records:
        cluster = clog_cluster(record, floor)
        if pending is not None and cluster:
            confirmed += 1
        elif cluster and len(cluster) >= threshold:  # an empty one ends any pending window
            pending, confirmed = (record, cluster), 0
        else:
            pending = None
            continue
        if confirmed >= persistence:
            onset, cluster = pending
            M, m = measure_axes(cluster)
            if m > floor.width:
                raise ArchsimError(
                    f"step {onset.t}: arch spans {m} cells, wider than the corridor"
                )
            return ArchMeasurement(True, T=onset.t, M=M, m=m, cluster_size=len(cluster))
    return ArchMeasurement(arch_detected=False)


def measure_axes(cluster: set[Cell]) -> tuple[int, int]:
    """(M, m): depth into the corridor and span along the exit wall.

    M is the maximal longitudinal coordinate (the exit wall sits at 0);
    m is the transverse extent, max - min + 1.  The cluster is nonempty:
    the detector takes no empty cluster as an onset candidate.
    """
    M = max(y for _, y in cluster)
    xs = [x for x, _ in cluster]
    m = max(xs) - min(xs) + 1
    return M, m

