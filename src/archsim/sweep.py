"""Factorial experiment harness: crowd size x exit width, replicated.

Every run's seed is derived by hashing (base_seed, c, w, replicate), so
any single cell can be reproduced in isolation and the full sweep gives
identical results no matter how many workers execute it or in what
order the cells finish.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields

from . import table
from .engine import RunSettings, SimConfig, simulate
from .errors import ArchsimError, ConfigError
from .metrics import PERSISTENCE, THRESHOLD_FACTOR, ArchMeasurement, detect_arch_onset
from .world import build_floor, check_geometry

DEFAULT_C_LEVELS = (200, 300, 350, 400, 450)
DEFAULT_W_LEVELS = (1, 3, 5, 7, 9, 11, 13)


@dataclass
class SweepConfig(RunSettings):
    c_levels: tuple = DEFAULT_C_LEVELS
    w_levels: tuple = DEFAULT_W_LEVELS
    replicates: int = 3
    base_seed: int = 0
    threshold_factor: float = THRESHOLD_FACTOR
    persistence: int = PERSISTENCE

    def validate(self) -> None:
        super().validate()
        if not self.c_levels or not self.w_levels:
            raise ConfigError("c_levels and w_levels must be nonempty")
        for name in ("c_levels", "w_levels"):
            levels = getattr(self, name)
            if len(set(levels)) != len(levels):
                raise ConfigError(f"{name}={levels} repeats a level")
        if min(self.c_levels) < 0:
            raise ConfigError(f"c_levels={self.c_levels} holds a negative crowd size")
        if self.replicates < 1:
            raise ConfigError(f"replicates={self.replicates} must be >= 1")
        if self.persistence < 1:
            raise ConfigError(f"persistence={self.persistence} must be >= 1")
        if not (math.isfinite(self.threshold_factor) and self.threshold_factor > 0):
            raise ConfigError(
                f"threshold_factor={self.threshold_factor} must be positive and finite"
            )
        for w in self.w_levels:
            check_geometry(self.W, self.L, w)

    def sim_config(self, c: int, w: int, replicate: int) -> SimConfig:
        seed = derive_seed(self.base_seed, c, w, replicate)
        shared = {f.name: getattr(self, f.name) for f in fields(RunSettings)}
        return SimConfig(c=c, w=w, seed=seed, **shared)


def derive_seed(base_seed: int, c: int, w: int, replicate: int) -> int:
    """Stable per-cell seed: first 8 bytes of sha256('base:c:w:rep')."""
    # imported here: OpenSSL's hashlib costs every cold start that imports
    # this module, and only a sweep derives seeds
    import hashlib

    digest = hashlib.sha256(f"{base_seed}:{c}:{w}:{replicate}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class _RunKey:
    """Which run a measurement belongs to: the leading CSV columns."""

    c: int
    w: int
    W: int
    seed: int
    replicate: int


@dataclass
class MeasurementRow(ArchMeasurement, _RunKey):
    """One CSV row: which run, then what the detector measured in it."""

    @classmethod
    def from_csv_row(cls, row) -> "MeasurementRow":
        if len(row) != len(MEASUREMENT_HEADER):
            raise ValueError(f"expected {len(MEASUREMENT_HEADER)} fields, got {len(row)}")
        values = {}
        for f, raw in zip(fields(cls), row):
            if raw == "" and f.default is None:
                values[f.name] = None
            elif f.type == "bool":
                if raw not in ("0", "1"):
                    raise ValueError(f"{f.name}={raw} must be 0 or 1")
                values[f.name] = raw == "1"
            else:
                try:
                    values[f.name] = table.parse_int(raw)
                except ValueError as exc:
                    raise ValueError(f"{f.name}={exc}") from None
                # analysis takes every field but seed as a float
                if f.name != "seed" and values[f.name] >= 2**63:
                    raise ValueError(f"{f.name}={raw} must be below 2**63")
        parsed = cls(**values)
        if not 1 <= parsed.w <= parsed.W:
            raise ValueError(f"w={parsed.w} must satisfy 1 <= w <= W={parsed.W}")
        for name in ("c", "seed", "replicate"):
            if getattr(parsed, name) < 0:
                raise ValueError(f"{name}={getattr(parsed, name)} must be nonnegative")
        measured = {f.name: getattr(parsed, f.name) for f in fields(ArchMeasurement)[1:]}
        if {v is not None for v in measured.values()} != {parsed.arch_detected}:
            state = "all set" if parsed.arch_detected else "all empty"
            raise ValueError(
                f"arch_detected={int(parsed.arch_detected)} needs T, M, m and "
                f"cluster_size {state}"
            )
        if parsed.arch_detected and not (
            min(parsed.T, parsed.M) >= 0 and 1 <= parsed.m <= parsed.W
            and 1 <= parsed.cluster_size <= parsed.c
        ):
            got = ", ".join(f"{k}={v}" for k, v in measured.items())
            raise ValueError(
                f"arch_detected=1 needs T, M >= 0, 1 <= m <= W={parsed.W} and "
                f"1 <= cluster_size <= c={parsed.c}, got {got}"
            )
        return parsed


MEASUREMENT_HEADER = table.columns(MeasurementRow)


@dataclass
class SweepError:
    c: int
    w: int
    replicate: int
    error: str


def measure(
    sim_config: SimConfig,
    records,
    replicate: int = 0,
    threshold_factor: float = THRESHOLD_FACTOR,
    persistence: int = PERSISTENCE,
) -> MeasurementRow:
    """Detect the arch in one run's records (a list or a live simulation)
    and label it with the run."""
    floor = build_floor(sim_config.W, sim_config.L, sim_config.w)
    measurement = detect_arch_onset(records, floor, threshold_factor, persistence)
    return MeasurementRow(
        c=sim_config.c, w=sim_config.w, W=sim_config.W, seed=sim_config.seed,
        replicate=replicate, **asdict(measurement),
    )


def run_cell(config: SweepConfig, c: int, w: int, replicate: int) -> MeasurementRow:
    """Simulate one factorial cell and measure its arch.

    The simulation stops at the confirmed onset (step T + persistence);
    a cell with no arch runs until the crowd drains or max_steps.
    """
    sim_config = config.sim_config(c, w, replicate)
    return measure(
        sim_config, simulate(sim_config), replicate,
        config.threshold_factor, config.persistence,
    )


def plan_chunks(tasks: list, parallelism: int) -> list[list]:
    """Split w-major ``tasks`` into the pool's chunks, in order.

    Guided self-scheduling: with R cells left, the next chunk takes the
    next ceil(R / parallelism) of them, cut short where the exit width
    ends, so a worker keeps the floor and table it already built.
    """
    chunks = []
    left = len(tasks)
    for _, width in itertools.groupby(tasks, key=lambda task: task[1]):
        width = list(width)
        while width:
            size = -(-left // parallelism)
            chunks.append(width[:size])
            width = width[size:]
            left -= len(chunks[-1])
    return chunks


def _attempt(config: SweepConfig, task) -> tuple:
    """(row, None), or (None, error text) if the cell failed.

    Looks ``run_cell`` up as the module global, so a patched one runs."""
    try:
        return run_cell(config, *task), None
    except Exception as exc:  # noqa: BLE001 - cell failures are data
        return None, f"{type(exc).__name__}: {exc}"


def _run_chunk(config: SweepConfig, chunk: list) -> list[tuple]:
    """A pool worker's job: the chunk's cells in order, one outcome per cell."""
    return [_attempt(config, task) for task in chunk]


def run_sweep(
    config: SweepConfig, parallelism: int = 1, progress=None
) -> tuple[list[MeasurementRow], list[SweepError]]:
    """Run every (c, w, replicate) cell, w-major: consecutive cells share a floor.

    Failed cells are collected rather than aborting the sweep.  Both
    returned lists are sorted by (c, w, replicate), so the output is
    byte-identical across parallelism settings.  A pool runs the cells in
    chunks from ``plan_chunks`` and reports each chunk's cells when it
    ends.  A crashed pool worker aborts the sweep with one ArchsimError.
    """
    config.validate()
    if parallelism < 1:
        raise ConfigError(f"parallelism={parallelism} must be >= 1")
    tasks = [
        (c, w, rep)
        for w in config.w_levels
        for c in config.c_levels
        for rep in range(config.replicates)
    ]
    rows: list[MeasurementRow] = []
    errors: list[SweepError] = []

    def finish(task, row, err):
        if err is None:
            rows.append(row)
        else:
            errors.append(SweepError(task[0], task[1], task[2], err))
        if progress is not None:
            progress(len(rows) + len(errors), len(tasks), task)

    if parallelism == 1:
        for task in tasks:
            finish(task, *_attempt(config, task))
    else:
        # imported here: the pool machinery loads multiprocessing, socket and
        # logging, which a serial sweep or a single run never needs
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        chunks = plan_chunks(tasks, parallelism)
        # the pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(parallelism, len(chunks))) as pool:
            futures = {pool.submit(_run_chunk, config, chunk): chunk for chunk in chunks}
            for fut in as_completed(futures):
                chunk = futures[fut]
                try:
                    outcomes = fut.result()
                except BrokenProcessPool:
                    # every unfinished cell fails with it: not their fault
                    lost = sum(
                        len(c) for f, c in futures.items()
                        if isinstance(f.exception(), BrokenProcessPool)
                    )
                    raise ArchsimError(
                        f"a sweep worker crashed; {lost} of {len(tasks)} cells "
                        "left unfinished"
                    ) from None
                except Exception as exc:  # noqa: BLE001 - its outcomes never came back
                    outcomes = [(None, f"{type(exc).__name__}: {exc}")] * len(chunk)
                for task, outcome in zip(chunk, outcomes):
                    finish(task, *outcome)

    rows.sort(key=lambda r: (r.c, r.w, r.replicate))
    errors.sort(key=lambda e: (e.c, e.w, e.replicate))
    return rows, errors


def read_measurements_csv(path) -> list[MeasurementRow]:
    """The rows of one sweep: each row checked, no (c, w, replicate) twice and
    one corridor width W; a refused row is named in a ConfigError."""
    rows, first = [], {}  # the line of each (c, w, replicate)
    for line, raw in table.read_table(path, MEASUREMENT_HEADER, "measurement"):
        try:
            row = MeasurementRow.from_csv_row(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: row {line}: {exc}") from None
        key = f"c={row.c}, w={row.w}, replicate={row.replicate}"
        if first.setdefault(key, line) != line:
            raise ConfigError(f"{path}: row {line}: {key} repeats row {first[key]}")
        if rows and row.W != rows[0].W:
            top = next(iter(first.values()))
            raise ConfigError(f"{path}: row {line}: W={row.W} where row {top} has W={rows[0].W}")
        rows.append(row)
    return rows
