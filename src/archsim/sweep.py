"""Factorial experiment harness: crowd size x exit width, replicated.

Every run's seed is derived by hashing (base_seed, c, w, replicate), so
any single cell can be reproduced in isolation and the full sweep gives
identical results no matter how many workers execute it or in what
order the cells finish.
"""

from __future__ import annotations

import csv
import hashlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields

from .engine import RunSettings, SimConfig, simulate
from .errors import ArchsimError, ConfigError
from .metrics import PERSISTENCE, THRESHOLD_FACTOR, ArchMeasurement, detect_arch_onset
from .world import build_world

ERROR_HEADER = ["c", "w", "replicate", "error"]

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
        if self.replicates < 1:
            raise ConfigError(f"replicates={self.replicates} must be >= 1")
        if self.persistence < 1:
            raise ConfigError(f"persistence={self.persistence} must be >= 1")
        if self.threshold_factor <= 0:
            raise ConfigError(f"threshold_factor={self.threshold_factor} must be > 0")
        for w in self.w_levels:
            build_world(self.W, self.L, w)  # geometry preconditions of every cell

    def sim_config(self, c: int, w: int, replicate: int) -> SimConfig:
        seed = derive_seed(self.base_seed, c, w, replicate)
        shared = {f.name: getattr(self, f.name) for f in fields(RunSettings)}
        return SimConfig(c=c, w=w, seed=seed, **shared)


def derive_seed(base_seed: int, c: int, w: int, replicate: int) -> int:
    """Stable per-cell seed: first 8 bytes of sha256('base:c:w:rep')."""
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

    def to_csv_row(self) -> list:
        values = (getattr(self, f.name) for f in fields(self))
        return ["" if v is None else int(v) if isinstance(v, bool) else v for v in values]

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
                values[f.name] = int(raw)
        parsed = cls(**values)
        measured = {f.name: getattr(parsed, f.name) for f in fields(ArchMeasurement)[1:]}
        if {v is not None for v in measured.values()} != {parsed.arch_detected}:
            state = "all set" if parsed.arch_detected else "all empty"
            raise ValueError(
                f"arch_detected={int(parsed.arch_detected)} needs T, M, m and "
                f"cluster_size {state}"
            )
        negative = [f"{k}={v}" for k, v in measured.items() if v is not None and v < 0]
        if negative:
            raise ValueError(
                "arch_detected=1 needs T, M, m and cluster_size nonnegative, "
                f"got {', '.join(negative)}"
            )
        return parsed


MEASUREMENT_HEADER = [f.name for f in fields(MeasurementRow)]


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
    grid = build_world(sim_config.W, sim_config.L, sim_config.w)
    measurement = detect_arch_onset(records, grid, threshold_factor, persistence)
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


def run_sweep(
    config: SweepConfig, parallelism: int = 1, progress=None
) -> tuple[list[MeasurementRow], list[SweepError]]:
    """Run every (c, w, replicate) cell.

    Failed cells are collected rather than aborting the sweep.  Both
    returned lists are sorted by (c, w, replicate), so the output is
    byte-identical across parallelism settings.  A crashed pool worker
    aborts the sweep with one ArchsimError.
    """
    config.validate()
    tasks = [
        (c, w, rep)
        for c in config.c_levels
        for w in config.w_levels
        for rep in range(config.replicates)
    ]
    rows: list[MeasurementRow] = []
    errors: list[SweepError] = []
    done = 0

    def finish(task, row, err):
        nonlocal done
        done += 1
        if err is None:
            rows.append(row)
        else:
            errors.append(SweepError(task[0], task[1], task[2], err))
        if progress is not None:
            progress(done, len(tasks), task)

    if parallelism <= 1:
        for task in tasks:
            try:
                row = run_cell(config, *task)
                finish(task, row, None)
            except Exception as exc:  # noqa: BLE001 - cell failures are data
                finish(task, None, f"{type(exc).__name__}: {exc}")
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = {pool.submit(run_cell, config, *task): task for task in tasks}
            pending = set(futures)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    task = futures[fut]
                    try:
                        finish(task, fut.result(), None)
                    except BrokenProcessPool:
                        # every unfinished cell fails with it: not their fault
                        lost = sum(isinstance(f.exception(), BrokenProcessPool) for f in futures)
                        raise ArchsimError(
                            f"a sweep worker crashed; {lost} of {len(tasks)} cells "
                            "left unfinished"
                        ) from None
                    except Exception as exc:  # noqa: BLE001
                        finish(task, None, f"{type(exc).__name__}: {exc}")

    rows.sort(key=lambda r: (r.c, r.w, r.replicate))
    errors.sort(key=lambda e: (e.c, e.w, e.replicate))
    return rows, errors


def write_measurements_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MEASUREMENT_HEADER)
        for row in rows:
            writer.writerow(row.to_csv_row())


def read_measurements_csv(path) -> list[MeasurementRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MEASUREMENT_HEADER:
            raise ConfigError(f"{path}: unexpected measurement header: {header}")
        for lineno, raw in enumerate(reader, start=2):
            try:
                rows.append(MeasurementRow.from_csv_row(raw))
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{path}: row {lineno}: {exc}") from None
    return rows


def write_errors_csv(errors, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ERROR_HEADER)
        for err in errors:
            writer.writerow([err.c, err.w, err.replicate, err.error])
