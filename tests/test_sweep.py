"""Sweep harness: seed derivation, cell execution, CSV artifacts, parallelism."""

import concurrent.futures
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import archsim
from archsim import agent, config as configmod, engine, sweep, table, world
from archsim.cli import main
from archsim.engine import run
from archsim.errors import ArchsimError, ConfigError, InvalidDimensionsError
from archsim.sweep import (
    DEFAULT_C_LEVELS,
    DEFAULT_W_LEVELS,
    MeasurementRow,
    SweepConfig,
    SweepError,
    derive_seed,
    measure,
    plan_chunks,
    read_measurements_csv,
    run_cell,
    run_sweep,
)

TINY = SweepConfig(
    c_levels=(20, 40), w_levels=(3, 5), replicates=2, base_seed=1, max_steps=400
)


def test_seed_derivation_is_documented_hash():
    digest = hashlib.sha256(b"0:400:7:0").digest()
    assert derive_seed(0, 400, 7, 0) == int.from_bytes(digest[:8], "big")
    assert derive_seed(0, 400, 7, 0) == 10407789527042297638  # frozen


def test_seed_derivation_separates_cells():
    seeds = {
        derive_seed(b, c, w, r)
        for b in (0, 1)
        for c in (200, 400)
        for w in (1, 7)
        for r in (0, 1, 2)
    }
    assert len(seeds) == 24  # no collisions across any varied coordinate


def test_default_design_is_35_by_3():
    cfg = SweepConfig()
    assert len(DEFAULT_C_LEVELS) * len(DEFAULT_W_LEVELS) == 35
    assert cfg.replicates == 3
    assert cfg.c_levels == DEFAULT_C_LEVELS


def test_run_cell_reproducible():
    row = run_cell(TINY, 20, 3, 0)
    assert (row.c, row.w, row.replicate, row.W) == (20, 3, 0, 19)
    assert row.seed == derive_seed(1, 20, 3, 0)
    assert row == run_cell(TINY, 20, 3, 0)


def test_run_cell_stops_at_confirmed_onset(monkeypatch):
    cfg = SweepConfig(c_levels=(200,), w_levels=(3,), replicates=1)
    sim_config = cfg.sim_config(200, 3, 0)
    records = run(sim_config)
    steps = []
    real_step = engine.step

    def counting_step(*args):
        steps.append(args[-1])
        return real_step(*args)

    monkeypatch.setattr(engine, "step", counting_step)
    row = run_cell(cfg, 200, 3, 0)
    assert row == measure(sim_config, records) and row.arch_detected
    assert len(steps) == row.T + cfg.persistence < len(records) - 1


def test_sweep_rows_sorted_and_complete():
    rows, errors = run_sweep(TINY)
    assert errors == []
    assert [(1, r.c, r.w, r.replicate) for r in rows] == [
        (1, c, w, rep) for c in (20, 40) for w in (3, 5) for rep in (0, 1)
    ]


def test_sweep_independent_of_parallelism():
    serial, _ = run_sweep(TINY, parallelism=1)
    assert run_sweep(TINY, parallelism=2)[0] == serial
    # three workers split TINY's 8 cells into chunks of 3, 1, 2, 1 and 1
    assert [len(chunk) for chunk in plan_chunks(_tasks(TINY), 3)] == [3, 1, 2, 1, 1]
    assert run_sweep(TINY, parallelism=3)[0] == serial


def _tasks(config):
    """The sweep's w-major task list, as run_sweep builds it."""
    return [(c, w, rep) for w in config.w_levels for c in config.c_levels
            for rep in range(config.replicates)]


@pytest.mark.parametrize("parallelism", [1, 2, 3, 4, 8, 16, 200])
@pytest.mark.parametrize(
    "config",
    [TINY, SweepConfig(), SweepConfig(c_levels=(300, 450), replicates=1),
     SweepConfig(c_levels=(10, 20, 30), w_levels=(7, 1, 3), replicates=5)],
    ids=["tiny", "default", "slice", "uneven"],
)
def test_plan_chunks_are_guided_and_stay_within_one_width(config, parallelism):
    tasks = _tasks(config)
    chunks = plan_chunks(tasks, parallelism)
    assert [task for chunk in chunks for task in chunk] == tasks
    left = len(tasks)
    for chunk in chunks:
        assert len({w for _, w, _ in chunk}) == 1
        width_left = sum(w == chunk[0][1] for _, w, _ in tasks[len(tasks) - left:])
        # as long as the guided share allows, and never past the width's end
        assert len(chunk) == min(-(-left // parallelism), width_left)
        left -= len(chunk)


def test_plan_chunks_split_the_bench_slice_by_width():
    """Two workers get one chunk per width, but two for the last: 8 tables, not 14."""
    slice_config = SweepConfig(c_levels=(300, 450), replicates=1)
    chunks = plan_chunks(_tasks(slice_config), 2)
    assert [chunk[0][1] for chunk in chunks] == [*DEFAULT_W_LEVELS, 13]
    assert [len(chunk) for chunk in chunks] == [2] * 6 + [1, 1]


def test_pool_forks_no_more_workers_than_chunks(monkeypatch):
    sizes = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counting_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    cfg = SweepConfig(c_levels=(15, 25), w_levels=(3,), replicates=2, max_steps=300)
    rows, errors = run_sweep(cfg, parallelism=8)
    assert len(rows) == 4 and not errors
    assert sizes == [len(plan_chunks(_tasks(cfg), 8))] == [4]


def test_sweep_progress_callback():
    """A serial sweep visits the cells w-major, so consecutive cells share a floor."""
    seen = []
    run_sweep(
        SweepConfig(c_levels=(15, 10), w_levels=(3, 1), replicates=2, max_steps=300),
        progress=lambda done, total, task: seen.append((done, total, task)),
    )
    assert [(d, t) for d, t, _ in seen] == [(d, 8) for d in range(1, 9)]
    assert [task for _, _, task in seen] == [
        (c, w, rep) for w in (3, 1) for c in (15, 10) for rep in (0, 1)
    ]


def test_run_cell_independent_of_the_floors_before_it():
    """A cell's row does not depend on which geometries ran before it in the process."""
    first = run_cell(TINY, 20, 3, 1)
    run_cell(TINY, 40, 5, 0)
    assert run_cell(TINY, 20, 3, 1) == first


def test_serial_sweep_builds_one_table_per_width(monkeypatch):
    builds = []
    real_build = agent._build_neighbourhood

    def counting_build(floor, config):
        builds.append((len(floor.exit_cells), config.vision_radius))
        return real_build(floor, config)

    monkeypatch.setattr(agent, "_build_neighbourhood", counting_build)
    world.build_floor.cache_clear()  # no floor left over from earlier tests
    rows, errors = run_sweep(
        SweepConfig(c_levels=(10, 20), w_levels=(1, 3, 5), replicates=2, max_steps=300)
    )
    assert len(rows) == 12 and not errors
    assert builds == [(1, 3), (3, 3), (5, 3)]


def test_single_cell_single_replicate():
    rows, errors = run_sweep(
        SweepConfig(c_levels=(25,), w_levels=(5,), replicates=1, max_steps=400)
    )
    assert len(rows) == 1 and not errors


@pytest.mark.parametrize("parallelism", [0, -3])
def test_run_sweep_rejects_parallelism_below_one(monkeypatch, parallelism):
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sweep, "run_cell", no_cells)
    cfg = SweepConfig(c_levels=(10,), w_levels=(3,), replicates=1)
    with pytest.raises(ConfigError, match=f"parallelism={parallelism} must be >= 1"):
        run_sweep(cfg, parallelism=parallelism)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_failing_cells_become_error_rows(tmp_path, parallelism):
    cfg = SweepConfig(c_levels=(10, 1100, 20, 30), w_levels=(3,), replicates=1, max_steps=200)
    # on the pool, the oversized crowd shares its chunk with a healthy cell
    assert plan_chunks(_tasks(cfg), 2)[0] == [(10, 3, 0), (1100, 3, 0)]
    rows, errors = run_sweep(cfg, parallelism=parallelism)
    assert [r.c for r in rows] == [10, 20, 30]
    assert [(e.c, e.w, e.replicate) for e in errors] == [(1100, 3, 0)]
    assert "1100" in errors[0].error  # names the oversized crowd
    table.write_records(tmp_path / "errors.csv", SweepError, errors)
    lines = (tmp_path / "errors.csv").read_text().splitlines()
    assert lines[0] == "c,w,replicate,error"
    assert lines[1].startswith("1100,3,0,")


def _cell_that_kills_its_worker(config, c, w, replicate):
    if (c, w, replicate) == (20, 5, 0):
        os._exit(1)
    return run_cell(config, c, w, replicate)


def test_crashed_worker_is_reported_once(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sweep, "run_cell", _cell_that_kills_its_worker)
    cfg = SweepConfig(c_levels=(20,), w_levels=(1, 3, 5, 7, 9), replicates=2, max_steps=200)
    with pytest.raises(ArchsimError, match=r"worker crashed; \d+ of 10 cells left unfinished"):
        run_sweep(cfg, parallelism=2)

    (tmp_path / "sweep.cfg").write_text(configmod.dump_config(cfg))
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out), "--config", str(tmp_path / "sweep.cfg"),
            "--parallelism", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "worker crashed" in err[0]
    assert not out.exists()


def _cell_whose_row_cannot_come_back(config, c, w, replicate):
    row = run_cell(config, c, w, replicate)
    return (lambda: row) if w == 3 else row  # a local lambda does not pickle


def test_outcomes_that_never_came_back_fail_their_cells(monkeypatch):
    """A chunk whose outcomes the worker cannot send back fails each of its
    cells with the error the pool gave; the other chunk's rows arrive."""
    monkeypatch.setattr(sweep, "run_cell", _cell_whose_row_cannot_come_back)
    cfg = SweepConfig(c_levels=(20,), w_levels=(1, 3), replicates=2, max_steps=200)
    rows, errors = run_sweep(cfg, parallelism=2)
    assert rows == [run_cell(cfg, 20, 1, rep) for rep in (0, 1)]
    assert [(e.c, e.w, e.replicate) for e in errors] == [(20, 3, 0), (20, 3, 1)]
    assert all(e.error.startswith("AttributeError: Can't pickle local object")
               for e in errors)


def _in_a_fresh_interpreter(code, *argv, cwd=None):
    """The last line ``code`` prints, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(archsim.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "module", ["concurrent.futures", "archsim.analysis", "archsim.render", "hashlib"]
)
def test_cli_import_leaves_command_modules_unloaded(module):
    """A command imports what only it runs: a parallel sweep the pool (and
    with it multiprocessing, socket and logging), sweep and analyze the
    analysis, analyze and render the renderer, a sweep's seeds hashlib."""
    code = f"import sys, archsim.cli; print({module!r} in sys.modules)"
    assert _in_a_fresh_interpreter(code) == "False"


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """A tiny run's and sweep's files, for the commands that read them."""
    root = tmp_path_factory.mktemp("commands")
    (root / "run.cfg").write_text("c = 5\nw = 3\nW = 5\nL = 12\nseed = 4\nmax_steps = 60\n")
    (root / "sweep.cfg").write_text("c_levels = 5\nw_levels = 3\nW = 5\nL = 12\n"
                                    "replicates = 1\nmax_steps = 60\n")
    for command in ("run", "sweep"):
        argv = [command, "--config", str(root / f"{command}.cfg"), "--out", str(root / command)]
        assert main(argv) == 0
    return root


# each command's argv, and what its cold start must not load; a run's first
# generator loads hashlib, which numpy.random imports through secrets
COMMANDS = {
    "run": (["run", "--config", "run.cfg", "--out", "run2"],
            {"archsim.analysis", "archsim.render"}),
    "sweep": (["sweep", "--config", "sweep.cfg", "--out", "sweep2"], {"archsim.render"}),
    "analyze": (["analyze", "sweep/measurements.csv", "--out", "analysis"], {"hashlib"}),
    "render": (["render", "run/trace.csv", "--config", "run/effective_config.txt",
                "--out", "frame.txt"], {"hashlib", "archsim.analysis"}),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_command_loads_only_what_it_runs(command_inputs, command):
    argv, unloaded = COMMANDS[command]
    unloaded = sorted(unloaded | {"concurrent.futures"})
    code = ("import sys; from archsim.cli import main; status = main(sys.argv[1:]); "
            f"print(status, [m for m in {unloaded!r} if m in sys.modules])")
    assert _in_a_fresh_interpreter(code, *argv, cwd=command_inputs) == "0 []"


def test_invalid_sweep_configs():
    with pytest.raises(ConfigError):
        SweepConfig(c_levels=()).validate()
    with pytest.raises(ConfigError):
        SweepConfig(replicates=0).validate()
    with pytest.raises(ConfigError):
        SweepConfig(persistence=0).validate()
    with pytest.raises(ConfigError):
        SweepConfig(threshold_factor=0.0).validate()
    # a non-finite factor would switch detection off without a word
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            SweepConfig(threshold_factor=bad).validate()
        with pytest.raises(ConfigError, match="finite"):
            SweepConfig(d_max=bad).validate()
    # a repeated level runs the same cell twice; a negative crowd fails every cell
    with pytest.raises(ConfigError, match="repeats"):
        SweepConfig(c_levels=(20, 20)).validate()
    with pytest.raises(ConfigError, match="repeats"):
        SweepConfig(w_levels=(3, 5, 3)).validate()
    with pytest.raises(ConfigError, match="negative"):
        SweepConfig(c_levels=(-5, 20)).validate()
    # settings shared with every run fail once, before any cell starts
    with pytest.raises(ConfigError):
        SweepConfig(trigger_threshold=2.0).validate()
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig(c_levels=(10,), w_levels=(3,), replicates=1, d_max=-1.0))
    with pytest.raises(InvalidDimensionsError):
        SweepConfig(L=10).validate()
    with pytest.raises(InvalidDimensionsError):
        SweepConfig(w_levels=(1, 25)).validate()


def test_measurements_csv_round_trip(tmp_path):
    rows = [
        MeasurementRow(c=400, w=7, W=19, seed=11, replicate=0,
                       arch_detected=True, T=21, M=6, m=11, cluster_size=30),
        MeasurementRow(c=200, w=13, W=19, seed=12, replicate=1,
                       arch_detected=False),  # None fields -> empty cells
    ]
    path = tmp_path / "m.csv"
    table.write_records(path, MeasurementRow, rows)
    text = path.read_text()
    assert text.splitlines()[0] == "c,w,W,seed,replicate,arch_detected,T,M,m,cluster_size"
    assert "200,13,19,12,1,0,,,," in text
    assert read_measurements_csv(path) == rows


def test_measurements_csv_rejects_garbage(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("x,y\n1,2\n")
    with pytest.raises(ConfigError):
        read_measurements_csv(bad_header)

    bad_row = tmp_path / "b.csv"
    bad_row.write_text(
        "c,w,W,seed,replicate,arch_detected,T,M,m,cluster_size\n"
        "400,7,19,11,0,1,21,6,11,30\n"
        "400,7,19,11,oops,1,21,6,11,30\n"
    )
    with pytest.raises(ConfigError) as err:
        read_measurements_csv(bad_row)
    assert "3" in str(err.value)  # diagnostic carries the file row number


REJECTED_ROWS = [
    ("400,7,19,11,0,1,,,,", "arch_detected="),  # detected, nothing measured
    ("400,7,19,11,0,1,21,6,,30", "arch_detected="),  # detected, one axis missing
    ("400,7,19,11,0,0,21,6,11,30", "arch_detected="),  # not detected, yet measured
    ("400,7,19,11,0,0,,,,30", "arch_detected="),
    ("400,7,19,11,0,2,21,6,11,30", "arch_detected="),  # neither 0 nor 1
    ("400,7,19,11,0,1,-4,6,11,30", "arch_detected="),  # negative onset step
    ("400,0,19,11,0,1,21,6,11,30", "w=0"),  # no exit: 1/(c*w) undefined
    ("200,0,19,14,0,1,22,6,11,30", "w=0"),
    ("400,20,19,11,0,1,21,6,11,30", "w=20"),  # exit wider than the corridor
    ("-400,7,19,11,0,0,,,,", "c=-400"),
    ("400,7,19,-11,0,0,,,,", "seed=-11"),
    ("400,7,19,11,-1,0,,,,", "replicate=-1"),
    ("0,7,19,11,0,1,21,6,11,30", "cluster_size=30"),  # a cluster at c = 0
    ("400,7,19,11,0,1,21,6,11,0", "cluster_size=0"),  # an empty onset cluster
    ("400,7,19,11,0,1,21,6,20,30", "m=20"),  # an arch wider than the corridor
    ("400,7,19,11,0,1,21,6,0,30", "m=0"),  # an arch that spans no column
    # a field int() reads, but not a decimal integer
    ("4_00,7,19,11,0,1,2_1,6,11,30", "c='4_00' must be a decimal integer"),
    ("400,7,19,11,0,1, 19 ,6,11,30", "T=' 19 ' must be a decimal integer"),
    ("\u0664\u0660\u0660,7,19,11,0,0,,,,", "c='\u0664\u0660\u0660' must be"),
    ("400,+7,19,11,0,0,,,,", r"w='\+7' must be"),
    # analysis takes these as floats: 2**63 and up is refused
    (f"400,7,19,11,0,1,{2**63},6,11,30", f"T={2**63} must be below"),
    (f"{2**63},7,19,11,0,0,,,,", f"c={2**63} must be below"),
]


@pytest.mark.parametrize(
    "row,problem", [pytest.param(row, problem, id=row) for row, problem in REJECTED_ROWS]
)
def test_measurements_csv_rejects_inconsistent_rows(tmp_path, row, problem):
    path = tmp_path / "m.csv"
    path.write_text(
        "c,w,W,seed,replicate,arch_detected,T,M,m,cluster_size\n"
        "200,13,19,12,1,0,,,,\n" + row + "\n"
    )
    with pytest.raises(ConfigError, match=rf"m\.csv: row 3: .*{problem}"):
        read_measurements_csv(path)


@pytest.mark.parametrize("seed", [11, 12], ids=["repeated-row", "same-key-other-seed"])
def test_measurements_csv_rejects_a_repeated_run(tmp_path, seed):
    """A sweep measures each (c, w, replicate) once: a second row for one,
    under its seed or another, would count as one more replicate."""
    path = tmp_path / "m.csv"
    path.write_text(
        "c,w,W,seed,replicate,arch_detected,T,M,m,cluster_size\n"
        "400,7,19,11,0,1,21,6,11,30\n"
        "200,13,19,12,1,0,,,,\n"
        f"400,7,19,{seed},0,1,21,6,11,30\n"
    )
    with pytest.raises(ConfigError) as err:
        read_measurements_csv(path)
    assert str(err.value) == f"{path}: row 4: c=400, w=7, replicate=0 repeats row 2"


def test_measurements_csv_refuses_mixed_corridor_widths_at_their_row(tmp_path):
    """A sweep's runs share one corridor: the first row whose W differs
    from the first row's is refused, naming both rows."""
    path = tmp_path / "m.csv"
    path.write_text(
        "c,w,W,seed,replicate,arch_detected,T,M,m,cluster_size\n"
        "400,7,19,11,0,1,21,6,11,30\n"
        "200,13,19,12,1,0,,,,\n"
        "200,3,35,13,0,1,9,2,2,9\n"
        "200,5,21,14,0,0,,,,\n"
    )
    with pytest.raises(ConfigError) as err:
        read_measurements_csv(path)
    assert str(err.value) == f"{path}: row 4: W=35 where row 2 has W=19"


def test_measurements_csv_reads_fields_below_2_63_and_any_seed(tmp_path):
    """Every field but seed stays below 2**63; a seed, which no analysis
    takes as a float, has no bound."""
    top = 2**63 - 1
    path = tmp_path / "m.csv"
    path.write_text(
        "c,w,W,seed,replicate,arch_detected,T,M,m,cluster_size\n"
        f"{top},7,{top},{10**400},{top},1,{top},{top},{top},{top}\n"
    )
    [row] = read_measurements_csv(path)
    assert (row.c, row.W, row.seed, row.replicate, row.T, row.cluster_size) == (
        top, top, 10**400, top, top, top)
