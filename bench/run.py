#!/usr/bin/env python3
"""archsim benchmark: times the paper's workloads and gates on output identity.

Run from the repository root; archsim is imported from ./src and driven
only through its public entry points (``archsim.cli.main``, ``engine.run``
and the CSV readers).

    python3 bench/run.py --workload sweep-serial --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload run-trace --trace 1   # per-layer split

Every pass's outputs are hashed and compared with the golden sha256
values in bench/golden.json (seed 0) or with the run's own reference
pass (any other seed, whose hashes are printed).  A mismatch, a failed
cell or a disagreeing exact count makes the command exit 1.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from hostspeed import HostProbe  # noqa: E402
from tracer import EXACT_COUNTS, Tracer  # noqa: E402

GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())

MIN_PASSES = 3  # timed passes per run, whatever --seconds says
MIN_TRACED_ROUNDS = 2  # untraced + traced pass pairs per traced run
SETUP_REPEATS = 5  # cold starts importing archsim.cli, each between two numpy-only starts
BOUNDARY_CHUNKS = 4  # host-speed probe chunks between passes
# Median wall time of a cold interpreter that imports only numpy on the
# reference host (2 vCPUs, Python 3.11, numpy 2.4); setup_s is scaled to it.
REFERENCE_NUMPY_START_S = 0.19


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep": archsim sweep; "run": archsim run + archsim render
    config: str  # archsim config file text
    cells: int  # measurement rows per pass
    parallelism: int = 1
    golden: str | None = None  # key of the seed-0 hashes in golden.json


# The paper's 105-cell grid takes about a minute per pass on two cores,
# longer than a timed run may last, so the sweeps run its replicate-0
# rows at two densities and every exit width.  The slice was picked by
# measured shares, close to the full grid's (see README.md): time in the
# w=1 cells, time in arch detection, steps simulated after the onset,
# and the pool's idle tail behind the slow c=450 w=1 cell.
BENCH_GRID = """\
c_levels = 300,450
w_levels = 1,3,5,7,9,11,13
replicates = 1
"""

WORKLOADS = {
    wl.name: wl
    for wl in (
        # the paper's experiment: step kernel and arch detection
        Workload("sweep-serial", "sweep", BENCH_GRID, cells=14, golden="bench-grid"),
        # the process pool and its idle tail behind the slow c=450 w=1 cell
        Workload("sweep-p2", "sweep", BENCH_GRID, cells=14, parallelism=2,
                 golden="bench-grid"),
        # a run that keeps its whole trace, writes it and renders from it: CSV I/O
        Workload("run-trace", "run", "c = 450\nw = 1\n", cells=1, golden="run-trace"),
    )
}

# The reference trace: c=400, w=7 at the replicate-0 seed of the sweep.
REFERENCE_CW = (400, 7)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "engine.steps": "count",
    "engine.activations": "count",
    "engine.moved_frac": "ratio",
    "engine.initialize_s": "s",
    "engine.step_s": "s",
    "engine.step_self_s": "s",
    "engine.us_per_activation": "us",
    "engine.visible_agents_s": "s",
    "engine.write_trace_s": "s",
    "engine.write_summary_s": "s",
    "engine.read_trace_s": "s",
    "engine.trace_bytes": "bytes",
    "agent.most_similar_neighbor_s": "s",
    "agent.choose_target_cell_s": "s",
    "agent.sct_adjust_s": "s",
    "agent.heading_toward_s": "s",
    "agent.triggered_frac": "ratio",
    "agent.cone_cache_hits": "count",
    "agent.cone_cache_misses": "count",
    "world.nearest_exit_s": "s",
    "world.is_free_s": "s",
    "world.is_free_calls": "count",
    "metrics.detect_s": "s",
    "metrics.clog_cluster_s": "s",
    "metrics.clog_cluster_calls": "count",
    "metrics.scanned_frac": "ratio",
    "sweep.cell_p50_s": "s",
    "sweep.cell_p90_s": "s",
    "sweep.tail_idle_s": "s",
    "render.frame_s": "s",
    "analysis.aggregate_s": "s",
    "config.load_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here: no archsim source under ./src."""


def import_archsim(root: Path):
    """Import archsim from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "archsim" / "__init__.py").is_file():
        raise BenchError(f"no archsim source under {src}")
    sys.path.insert(0, str(src))
    import archsim.cli

    if Path(archsim.__file__).resolve().parent != src / "archsim":
        raise BenchError(f"imported archsim from {archsim.__file__}, not {src}")
    return archsim


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Clock:
    """Stdout sink that timestamps archsim's progress lines.

    With a ``probe``, it also runs one host-speed probe chunk at every
    progress line and keeps that time out of the pass (``paused``).
    """

    def __init__(self, probe: HostProbe | None = None):
        self.t0 = time.perf_counter()
        self.completions: list[float] = []
        self.probe = probe
        self.paused = 0.0

    def write(self, text: str) -> int:
        if text.startswith("["):  # "[done/total] c=... w=... replicate=..."
            self.completions.append(time.perf_counter() - self.t0 - self.paused)
            self.pause()
        return len(text)

    def pause(self) -> None:
        if self.probe is not None:
            self.paused += self.probe()

    def flush(self) -> None:
        pass


@dataclass
class Pass:
    wall: float
    statuses: list[int]
    completions: list[float]
    out: Path


def run_pass(archsim, wl: Workload, cfg: Path, seed: int, out: Path,
             parallelism: int, probe: HostProbe | None = None) -> Pass:
    """One timed pass of the workload through ``archsim.cli.main``.

    A serial pass with a ``probe`` probes the host's speed between cells
    and between commands.  A pooled pass does not: the probe would share
    the cores with the workers.  ``wall`` leaves the probe time out.
    """
    if wl.kind == "sweep":
        commands = [["sweep", "--config", cfg, "--out", out, "--seed", seed,
                     "--parallelism", parallelism, "--verbose"]]
    else:
        commands = [
            ["run", "--config", cfg, "--out", out, "--seed", seed],
            ["render", out / "trace.csv", "--config", out / "effective_config.txt",
             "--out", out / "frame.txt"],
        ]
    clock = _Clock(probe if parallelism == 1 else None)
    statuses = []
    with contextlib.redirect_stdout(clock):
        clock.t0 = t0 = time.perf_counter()
        for i, argv in enumerate(commands):
            if i:
                clock.pause()
            statuses.append(archsim.cli.main([str(a) for a in argv]))
        wall = time.perf_counter() - t0 - clock.paused
    return Pass(wall, statuses, clock.completions, out)


def output_files(wl: Workload) -> tuple[str, ...]:
    if wl.kind == "sweep":
        return ("measurements.csv", "sweep_table.csv")
    return ("trace.csv", "summary.csv", "measurement.csv", "frame.txt")


@dataclass
class Ledger:
    """Operations attempted and failed over a run, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        self.add(1, 0 if ok else 1, problem)


def check_pass(archsim, wl: Workload, p: Pass, reference: dict | None,
               ledger: Ledger) -> dict:
    """Count failed cells and compare output hashes; returns the hashes.

    With ``reference`` None nothing is compared (the pass defines it).
    """
    errors_csv = p.out / "errors.csv"
    failed_cells = 0
    if errors_csv.exists():
        with open(errors_csv, newline="") as fh:
            failed_cells = max(0, sum(1 for _ in csv.reader(fh)) - 1)
    ledger.add(wl.cells, failed_cells, f"{failed_cells} cells failed (see {errors_csv})")
    if not failed_cells:
        ledger.check(all(s == 0 for s in p.statuses),
                     f"archsim exited with {p.statuses}")
    measurements = p.out / "measurements.csv"
    if wl.kind == "sweep" and measurements.exists():
        rows = archsim.sweep.read_measurements_csv(measurements)
        ledger.check(len(rows) + failed_cells == wl.cells,
                     f"{len(rows)} measurement rows and {failed_cells} failed cells, "
                     f"expected {wl.cells} cells")
    hashes = {}
    for name in output_files(wl):
        path = p.out / name
        hashes[name] = sha256(path) if path.exists() else None
        if reference is not None:
            ledger.check(hashes[name] == reference[name],
                         f"{name}: sha256 {hashes[name]} != {reference[name]}")
    return hashes


def check_run_consistency(archsim, wl: Workload, seed: int, out: Path,
                          ledger: Ledger) -> None:
    """The written trace, read back, equals what engine.run returns."""
    values = archsim.config.parse_config_text(wl.config)
    records = archsim.engine.run(
        archsim.engine.SimConfig(c=values["c"], w=values["w"], seed=seed))
    loaded = archsim.engine.read_trace_csv(out / "trace.csv")
    same = len(records) == len(loaded) and all(
        a.t == b.t and (a.xs == b.xs).all() and (a.ys == b.ys).all()
        and (a.exited == b.exited).all()
        for a, b in zip(records, loaded)
    )
    ledger.check(same, "trace.csv read back differs from engine.run")


def check_reference_trace(archsim, seed: int, work: Path, ledger: Ledger) -> str:
    """sha256 of the c=400, w=7 replicate-0 trace; gated against golden at seed 0."""
    c, w = REFERENCE_CW
    cfg = work / "reference.cfg"
    cfg.write_text(f"c = {c}\nw = {w}\n")
    out = work / "reference"
    cell_seed = archsim.sweep.derive_seed(seed, c, w, 0)
    with contextlib.redirect_stdout(_Clock()):
        status = archsim.cli.main(["run", "--config", str(cfg), "--out", str(out),
                                   "--seed", str(cell_seed)])
    ledger.check(status == 0, f"reference run exited with {status}")
    digest = sha256(out / "trace.csv") if status == 0 else None
    if seed == 0:
        expected = GOLDEN["reference-trace"]["trace.csv"]
        ledger.check(digest == expected,
                     f"reference trace.csv: sha256 {digest} != {expected}")
    shutil.rmtree(out)
    return digest


def cold_start(root: Path, code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code``, e.g. an import."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code],
                   cwd=root, env=dict(os.environ, PYTHONPATH="src"), check=True)
    return time.perf_counter() - t0


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """Cold starts importing archsim.cli, raw and scaled to host speed.

    Each archsim start sits between two starts that import only numpy,
    which do the same kind of work (process start, module loading) and
    none of archsim's.  The scaled time is the archsim start over the
    mean of those two, times ``REFERENCE_NUMPY_START_S``.
    """
    baseline = [cold_start(root, "import numpy")]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(cold_start(root, "import archsim.cli"))
        baseline.append(cold_start(root, "import numpy"))
        scaled.append(raw[-1] / statistics.fmean(baseline[-2:]) * REFERENCE_NUMPY_START_S)
    return raw, scaled


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit(root: Path) -> str:
    """HEAD from .git files, without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    import numpy

    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def run_workload(archsim, wl: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, root: Path) -> tuple[dict, dict, Ledger]:
    """Set up, warm up, then time passes for ``seconds``.

    Each untraced pass sits between two batches of host-speed probe
    chunks (serial passes probe inside too).  Its normalised time is its
    wall time over the host's slowness in those chunks (see
    hostspeed.py); set-up is scaled likewise (``measure_setup``).  The
    timed metrics are medians of scaled times; the raw times are in the
    report.

    Returns (metrics, report, ledger); metrics maps name -> value.
    """
    ledger = Ledger()
    setup, setup_norm = measure_setup(root)
    cfg = work / "workload.cfg"
    cfg.write_text(wl.config)
    golden = GOLDEN[wl.golden] if seed == 0 and wl.golden else None

    # Untimed reference pass, always serial: it fills the caches that
    # forked pool workers inherit, and for a seed without golden hashes
    # its outputs are what every timed pass (parallel ones too) must match.
    warm = run_pass(archsim, wl, cfg, seed, work / "warm", 1)
    hashes = check_pass(archsim, wl, warm, golden, ledger)
    reference = golden or hashes
    report = {"reference_hashes": hashes}
    if wl.kind == "run" and all(s == 0 for s in warm.statuses):
        check_run_consistency(archsim, wl, seed, warm.out, ledger)
        report["reference_trace_sha256"] = check_reference_trace(archsim, seed, work, ledger)
    shutil.rmtree(warm.out)

    walls: list[float] = []
    walls_norm: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    tracer = Tracer(work / "spool")
    probe = HostProbe()
    probe(BOUNDARY_CHUNKS)
    start = time.perf_counter()
    n = 0

    def time_left() -> bool:
        # Start another round unless it would end more than half past
        # the deadline, so a run measures about ``seconds`` on average.
        now = time.perf_counter()
        rounds = len(walls)
        return now + (now - start) / rounds / 2 < start + seconds

    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_PASSES
    while len(walls) < min_rounds or time_left():
        n += 1
        first = len(probe.samples) - BOUNDARY_CHUNKS
        p = run_pass(archsim, wl, cfg, seed, work / f"pass{n}", wl.parallelism, probe)
        probe(BOUNDARY_CHUNKS)
        walls.append(p.wall)
        walls_norm.append(p.wall / probe.speed(first))
        check_pass(archsim, wl, p, reference, ledger)
        shutil.rmtree(p.out)
        if not trace:
            continue
        n += 1
        tracer.reset()
        with tracer.installed():
            p = run_pass(archsim, wl, cfg, seed, work / f"pass{n}", wl.parallelism)
        tracer.collect_workers()
        traced_walls.append(p.wall)
        check_pass(archsim, wl, p, reference, ledger)
        shutil.rmtree(p.out)
        if wl.kind == "sweep":
            ledger.check(len(tracer.cells) == wl.cells,
                         f"traced {len(tracer.cells)} cells of {wl.cells}")
        layers.append(tracer.layer_metrics(p.completions, wl.parallelism))
        probe(BOUNDARY_CHUNKS)  # the batch before the next untraced pass

    report.update(
        passes=len(walls), setup_repeats=len(setup), probe_chunks=len(probe.samples),
        quartiles={"wall_s": statistics.quantiles(walls_norm, n=4),
                   "setup_s": statistics.quantiles(setup_norm, n=4),
                   "raw_wall_s": statistics.quantiles(walls, n=4),
                   "raw_setup_s": statistics.quantiles(setup, n=4),
                   "probe_chunk_s": statistics.quantiles(probe.samples, n=4)},
        wall_s_values=walls_norm, setup_s_values=setup_norm,
        raw_wall_s_values=walls, raw_setup_s_values=setup)
    if trace:
        for key in EXACT_COUNTS:
            seen = sorted({layer[key] for layer in layers})
            ledger.check(len(seen) == 1, f"{key} differs between traced passes: {seen}")
        metrics = {}
        for name, first in layers[0].items():
            values = [layer[name] for layer in layers]
            # a count stays a whole number: the exact counts are all equal
            median = statistics.median_low if isinstance(first, int) else statistics.median
            metrics[name] = median(values)
        metrics["trace_overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        report["quartiles"]["traced_wall_s"] = statistics.quantiles(traced_walls, n=4)
        report.update(traced_passes=len(traced_walls), traced_wall_s_values=traced_walls)
    else:
        wall = statistics.median(walls_norm)
        metrics = {
            "setup_s": statistics.median(setup_norm),
            "wall_s": wall,
            "cells_per_s": wl.cells / wall,
            "peak_rss_mb": peak_rss_mb(),
        }
    return metrics, report, ledger


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, handed to archsim as seed/base_seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep timing passes (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        archsim = import_archsim(root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload]
        metrics, report, ledger = run_workload(
            archsim, wl, args.seed, args.seconds, bool(args.trace), work, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report.update(workload=wl.name, seed=args.seed, trace=args.trace,
                  environment=environment(root))
    print(f"env: {json.dumps(report['environment'])}")
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{report['passes']} untraced and {report.get('traced_passes', 0)} "
          f"traced passes of {wl.cells} cells")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    failed_frac = ledger.failed / ledger.attempted
    print(f"  failed_frac = {failed_frac:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    if args.seed != 0:
        print(f"  output hashes for seed {args.seed}: {json.dumps(report['reference_hashes'])}")
    print("report: " + json.dumps(report))
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
