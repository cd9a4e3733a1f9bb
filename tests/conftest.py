"""Shared fixtures and record-building helpers for the test suite."""

import time
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from archsim.agent import Crowd
from archsim.engine import StepRecord
from archsim.world import FREE


def make_record(t, positions, moved=(), exited=()):
    """Build a StepRecord from a list of (x, y); list index is the agent id.

    `moved` and `exited` are iterables of agent ids whose flags are set.
    """
    n = len(positions)
    xs = np.array([p[0] for p in positions], dtype=np.int16)
    ys = np.array([p[1] for p in positions], dtype=np.int16)
    ex = np.zeros(n, dtype=bool)
    mv = np.zeros(n, dtype=bool)
    for i in exited:
        ex[i] = True
    for i in moved:
        mv[i] = True
    return StepRecord(t, xs, ys, ex, mv)


@lru_cache(maxsize=8)  # tests look cells up one at a time
def cell_index(floor):
    """Each cell of ``floor`` mapped to its index ``k``: ``floor.cells[k]``."""
    return {cell: k for k, cell in enumerate(floor.cells)}


def crowd_on(grid, cells):
    """The Crowd of agents 0..n-1 standing on the free floor cells ``cells``
    of ``grid``, their bodies written into its occupancy."""
    where = [cell_index(grid.floor)[cell] for cell in cells]
    assert all(grid.occupancy[k] == FREE for k in where) and len(set(where)) == len(where)
    for agent_id, k in enumerate(where):
        grid.occupancy[k] = agent_id
    return Crowd(grid.floor, where, bytearray(len(cells)))


def reading(records, seen):
    """Pass `records` through, appending each step's t to `seen` as it is read."""
    for rec in records:
        seen.append(rec.t)
        yield rec


@pytest.fixture(scope="session")
def default_sweep(tmp_path_factory):
    """One full default sweep (5 c-levels x 7 w-levels x 3 replicates).

    Run once per session through the CLI and shared by the CLI tests and
    the acceptance suite; `elapsed` is the wall-clock time of the sweep
    command itself.
    """
    from archsim.cli import main
    from archsim.sweep import read_measurements_csv

    out = tmp_path_factory.mktemp("default_sweep")
    t0 = time.perf_counter()
    status = main(["sweep", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert status == 0
    rows = read_measurements_csv(out / "measurements.csv")
    return SimpleNamespace(rows=rows, elapsed=elapsed, out=out)
