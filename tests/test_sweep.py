"""Sweep harness: seed derivation, cell execution, CSV artifacts, parallelism."""

import hashlib
import os

import pytest

from archsim import config as configmod, engine, sweep
from archsim.cli import main
from archsim.engine import run
from archsim.errors import ArchsimError, ConfigError, InvalidDimensionsError
from archsim.sweep import (
    DEFAULT_C_LEVELS,
    DEFAULT_W_LEVELS,
    MeasurementRow,
    SweepConfig,
    derive_seed,
    measure,
    read_measurements_csv,
    run_cell,
    run_sweep,
    write_errors_csv,
    write_measurements_csv,
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
    parallel, _ = run_sweep(TINY, parallelism=2)
    assert serial == parallel


def test_sweep_progress_callback():
    seen = []
    run_sweep(
        SweepConfig(c_levels=(15,), w_levels=(3,), replicates=2, max_steps=300),
        progress=lambda done, total, task: seen.append((done, total, task)),
    )
    assert [(d, t) for d, t, _ in seen] == [(1, 2), (2, 2)]
    assert {task for _, _, task in seen} == {(15, 3, 0), (15, 3, 1)}


def test_single_cell_single_replicate():
    rows, errors = run_sweep(
        SweepConfig(c_levels=(25,), w_levels=(5,), replicates=1, max_steps=400)
    )
    assert len(rows) == 1 and not errors


def test_failing_cells_become_error_rows(tmp_path):
    cfg = SweepConfig(c_levels=(10, 1100), w_levels=(3,), replicates=1, max_steps=200)
    rows, errors = run_sweep(cfg)
    assert [r.c for r in rows] == [10]
    assert [(e.c, e.w, e.replicate) for e in errors] == [(1100, 3, 0)]
    assert "1100" in errors[0].error  # names the oversized crowd
    write_errors_csv(errors, tmp_path / "errors.csv")
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
    assert not (out / "errors.csv").exists()
    assert not (out / "measurements.csv").exists()


def test_invalid_sweep_configs():
    with pytest.raises(ConfigError):
        SweepConfig(c_levels=()).validate()
    with pytest.raises(ConfigError):
        SweepConfig(replicates=0).validate()
    with pytest.raises(ConfigError):
        SweepConfig(persistence=0).validate()
    with pytest.raises(ConfigError):
        SweepConfig(threshold_factor=0.0).validate()
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
    write_measurements_csv(rows, path)
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


@pytest.mark.parametrize(
    "row",
    [
        "400,7,19,11,0,1,,,,",  # detected, nothing measured
        "400,7,19,11,0,1,21,6,,30",  # detected, one axis missing
        "400,7,19,11,0,0,21,6,11,30",  # not detected, yet measured
        "400,7,19,11,0,0,,,,30",
        "400,7,19,11,0,2,21,6,11,30",  # arch_detected neither 0 nor 1
        "400,7,19,11,0,1,-4,6,11,30",  # negative onset step
    ],
)
def test_measurements_csv_rejects_inconsistent_rows(tmp_path, row):
    path = tmp_path / "m.csv"
    path.write_text(
        "c,w,W,seed,replicate,arch_detected,T,M,m,cluster_size\n"
        "200,13,19,12,1,0,,,,\n" + row + "\n"
    )
    with pytest.raises(ConfigError, match=r"m\.csv: row 3: arch_detected="):
        read_measurements_csv(path)
