"""End-to-end CLI behaviour: artifacts, headers, reproducibility, exit codes."""

import argparse
import csv
import errno
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import archsim
from archsim import analysis, world
from archsim.cli import build_parser, main
from archsim.engine import read_trace_csv, simulate
from archsim.sweep import DEFAULT_W_LEVELS

RUN_CFG = "c = 5\nw = 3\nseed = 4\nmax_steps = 500\n"

MEASUREMENTS_HEADER = "c,w,W,seed,replicate,arch_detected,T,M,m,cluster_size"

# two crowd sizes, T exactly linear in w, shapes varying but far from the
# wall-to-wall regime
PERFECT_LINE_CSV = MEASUREMENTS_HEADER + "\n" + "\n".join(
    f"{c},{w},19,5,0,1,{T},{w + 2},{w + 4},{3 * w}"
    for c, slope, icpt in ((200, -1, 30), (400, -2, 50))
    for w, T in ((w, slope * w + icpt) for w in (1, 3, 5))
) + "\n"


@pytest.fixture
def run_dir(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_run_writes_exactly_four_files(run_dir):
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == [
        "effective_config.txt", "measurement.csv", "summary.csv", "trace.csv",
    ]


def test_artifact_headers(run_dir):
    first = lambda name: (run_dir / name).read_text().splitlines()[0]
    assert first("trace.csv") == "t,agent_id,transverse,longitudinal,exited"
    assert first("summary.csv") == "t,exits_this_step,stationary_count"
    assert first("measurement.csv") == MEASUREMENTS_HEADER


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "no.cfg"),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no.cfg" in err


def test_run_rejects_oversized_crowd(tmp_path, capsys):
    """A crowd the corridor cannot hold is refused as the config is built,
    in one line naming the file: 19 columns x 55 rows past the margin."""
    cfg = tmp_path / "big.cfg"
    cfg.write_text("c = 2000\nw = 3\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr() == (
        "", f"error: {cfg}: crowd size c=2000 exceeds 1045 spawnable cells\n"
    )


def test_run_rejects_corridor_longer_than_int16(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("W = 1\nL = 40000\nw = 1\nc = 5\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "L=40000" in err
    assert not out.exists()


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 2000\nw = 3\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_an_empty_crowd(tmp_path, capsys):
    """A crowd of none would write a trace of no rows, which render refuses:
    the run is refused before it simulates, naming the config file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 0\nw = 3\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: crowd size c=0 must be positive: "
        "an empty crowd's trace holds no rows to render\n"
    )
    assert not out.exists()


def test_run_rejects_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(RUN_CFG.encode() + b"# caf\xff\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text\n"
    assert not out.exists()


def test_run_takes_no_frame_flags(tmp_path, capsys):
    """``run`` records and ``render`` draws: a frame flag given to ``run``
    is an unrecognized argument, refused before anything runs."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "o"
    for flag in (["--format", "ascii"], ["--step", "3"]):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--config", str(cfg), "--out", str(out), *flag])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("radius", [str(2**63), "1" + "0" * 400])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_vision_radius_at_2_63_is_one_error_line(tmp_path, capsys, command, radius):
    """A radius at or above 2**63 is refused by name before the d_max
    default takes it as a float, where a 401-digit one overflowed."""
    cfg = tmp_path / "big.cfg"
    crowd = "c_levels = 5\nw_levels = 3\nreplicates = 1\n" if command == "sweep" else RUN_CFG
    cfg.write_text(f"vision_radius = {radius}\nW = 5\nL = 8\n{crowd}")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {cfg}: vision_radius={radius} must be below 2**63\n"
    )
    assert not out.exists()


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
    assert "seed = 9" in (out / "effective_config.txt").read_text()
    assert (out / "measurement.csv").read_text().splitlines()[1].startswith("5,3,19,9,0,")


@pytest.mark.parametrize("config_text,message", [
    (RUN_CFG, "seed=-1 must be nonnegative"),
    ("c = 5\nw = 0\n", "{cfg}: exit width w=0 must satisfy 1 <= w <= W=19"),
], ids=["flag", "file"])
def test_a_refused_config_names_the_file_only_at_its_fault(tmp_path, capsys, config_text,
                                                           message):
    """A refused ``--seed`` is the flag's fault, not the file's; a refused
    file value is named with the file even when a flag is given."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(cfg=cfg)}\n")
    assert not out.exists()


def test_a_file_refused_alone_is_refused_under_a_flag_for_its_fault(tmp_path, capsys):
    """The file's keys are built before the flags: a faulty seed in the
    file is named even when --seed would replace it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 5\nw = 3\nseed = -1\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}: seed=-1 must be nonnegative\n")
    assert not out.exists()


def test_rerun_is_byte_identical(run_dir, tmp_path):
    cfg = tmp_path / "again.cfg"
    cfg.write_text(RUN_CFG)
    out2 = tmp_path / "out2"
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out2 / "trace.csv").read_bytes() == (run_dir / "trace.csv").read_bytes()


def test_sidecar_reproduces_run(run_dir, tmp_path):
    out2 = tmp_path / "replay"
    assert main(["run", "--config", str(run_dir / "effective_config.txt"),
                 "--out", str(out2)]) == 0
    assert (out2 / "trace.csv").read_bytes() == (run_dir / "trace.csv").read_bytes()


def test_render_step_zero_shows_the_spawned_crowd(run_dir, capsys):
    capsys.readouterr()  # drop the run banner
    assert main(["render", str(run_dir / "trace.csv"),
                 "--config", str(run_dir / "effective_config.txt"), "--step", "0"]) == 0
    stdout = capsys.readouterr().out
    # t=0: all five agents present and nobody has moved yet
    assert stdout.count("x") == 5 and stdout.count("o") == 0
    assert stdout.startswith("#")


def test_render_svg_to_file(run_dir, tmp_path):
    target = tmp_path / "frame.svg"
    assert main(["render", str(run_dir / "trace.csv"),
                 "--config", str(run_dir / "effective_config.txt"),
                 "--format", "svg", "--out", str(target)]) == 0
    assert target.read_text().startswith("<svg")


def test_render_step_out_of_range(run_dir, capsys):
    assert main(["render", str(run_dir / "trace.csv"),
                 "--config", str(run_dir / "effective_config.txt"),
                 "--step", "999999"]) == 1
    assert "outside trace" in capsys.readouterr().err


def test_render_rejects_agent_off_the_floor(run_dir, tmp_path, capsys):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("c = 5\nw = 3\nW = 9\nL = 20\n")
    first = read_trace_csv(run_dir / "trace.csv")[0]
    off = [(i, (int(x), int(y))) for i, (x, y) in enumerate(zip(first.xs, first.ys))
           if x >= 9 or y >= 20]
    assert off, "the W=19 run must have an agent outside the 9x20 corridor at t=0"
    trace = run_dir / "trace.csv"
    assert main(["render", str(trace), "--config", str(cfg), "--step", "0"]) == 1
    captured = capsys.readouterr()
    agent_id, cell = off[0]
    assert captured.out == ""
    assert captured.err == (
        f"error: {trace}: step 0: agent {agent_id} stands off the floor at {cell}\n"
    )


def test_render_rejects_two_live_agents_on_one_cell(tmp_path, capsys):
    """One cell holds one person: a frame with two live agents on a cell is
    refused, not drawn as one."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 2\nw = 3\nW = 5\nL = 8\n")
    trace = tmp_path / "trace.csv"
    trace.write_text("t,agent_id,transverse,longitudinal,exited\n0,0,2,5,0\n0,1,2,5,0\n")
    assert main(["render", str(trace), "--config", str(cfg)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {trace}: step 0: agents 0 and 1 both stand on (2, 5)\n"
    )


def test_render_rejects_ragged_trace(run_dir, tmp_path, capsys):
    lines = (run_dir / "trace.csv").read_text().splitlines(keepends=True)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("".join(lines[:8] + lines[9:]))  # step 1 loses agent 2
    assert main(["render", str(ragged),
                 "--config", str(run_dir / "effective_config.txt")]) == 1
    err = capsys.readouterr().err
    # step 2's first row, on line 11, takes the place of step 1's last
    assert err.startswith("error:") and "ragged.csv: line 11: step 2 where step 1" in err


def test_render_rejects_trace_that_is_not_utf8(run_dir, tmp_path, capsys):
    lines = (run_dir / "trace.csv").read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines[:8] + [b"1,\xff" + lines[8][2:]] + lines[9:]))
    out = tmp_path / "frame.txt"
    assert main(["render", str(bad), "--config", str(run_dir / "effective_config.txt"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: not UTF-8 text\n")
    assert not out.exists()


def test_render_rejects_out_of_range_coordinate(run_dir, tmp_path, capsys):
    lines = (run_dir / "trace.csv").read_text().splitlines(keepends=True)
    t, agent_id, _, y, exited = lines[3].split(",")
    lines[3] = ",".join([t, agent_id, "40000", y, exited])  # beyond int16
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    assert main(["render", str(bad),
                 "--config", str(run_dir / "effective_config.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.csv: line 4:" in err


def test_render_rejects_a_header_field_over_the_csv_limit(run_dir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text('t,agent_id,transverse,longitudinal,"' + "x" * 200_000 + '"\n0,0,1,5,0\n')
    assert main(["render", str(bad),
                 "--config", str(run_dir / "effective_config.txt")]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: trace header: field larger "
                                       f"than field limit ({csv.field_size_limit()})\n")


@pytest.mark.parametrize(
    "config_text,message",
    [(None, "config file not found: {cfg}"),
     ("c = 5\nw = 0\n", "{cfg}: exit width w=0 must satisfy 1 <= w <= W=19"),
     ("c = 2000\nw = 3\n", "{cfg}: crowd size c=2000 exceeds 1045 spawnable cells")],
    ids=["missing", "invalid", "overfull"],
)
def test_render_checks_its_config_before_the_trace(tmp_path, capsys, config_text, message):
    """A bad --config is reported as such, before the trace is read, even
    when the trace is malformed too."""
    trace = tmp_path / "trace.csv"
    trace.write_text("t,agent_id,transverse,longitudinal,exited\n0,0,1,5\n")
    cfg = tmp_path / "run.cfg"
    if config_text is not None:
        cfg.write_text(config_text)
    assert main(["render", str(trace), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"


@pytest.mark.parametrize("command", ["run", "sweep", "analyze", "render"])
def test_every_command_reports_an_os_error_as_one_line(run_dir, tmp_path, capsys, command):
    """``main`` is the one error boundary: an OSError from any command is
    one ``error:`` line on stderr and exit status 1.  ``--out`` names a
    regular file, or a file in a missing directory for ``render``."""
    cfg = run_dir / "effective_config.txt"
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text("c_levels = 5\nw_levels = 3\nreplicates = 1\nmax_steps = 300\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    argv, out, code = {
        "run": (["run", "--config", str(cfg)], taken, errno.EEXIST),
        "sweep": (["sweep", "--config", str(sweep_cfg)], taken, errno.EEXIST),
        "analyze": (["analyze", str(run_dir / "measurement.csv")], taken, errno.EEXIST),
        "render": (["render", str(run_dir / "trace.csv"), "--config", str(cfg)],
                   tmp_path / "missing" / "frame.txt", errno.ENOENT),
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    problem = OSError(code, os.strerror(code), str(out))
    assert capsys.readouterr() == ("", f"error: {problem}\n")


@pytest.mark.parametrize("value", ["1_0", "+7", "\u0662"])
@pytest.mark.parametrize("command,flag", [
    ("run", "--seed"), ("sweep", "--seed"), ("sweep", "--parallelism"),
    ("render", "--step"),
])
def test_int_flags_take_the_config_grammar(tmp_path, capsys, command, flag, value):
    """An int flag holds what a config int may, -?[0-9]+, and refuses the
    rest before anything runs."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("c_levels = 5\nw_levels = 3\nreplicates = 1\nmax_steps = 20\n"
                   if command == "sweep" else RUN_CFG)
    out = tmp_path / "o"
    argv = {"run": ["run"], "sweep": ["sweep"],
            "render": ["render", str(tmp_path / "trace.csv")]}[command]
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--config", str(cfg), "--out", str(out), flag, value])
    assert exit_.value.code == 2
    assert f"argument {flag}: invalid parse_int value: {value!r}" in capsys.readouterr().err
    assert not out.exists()


def _sweep(tmp_path, text, name="sweep.cfg", extra=()):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / (name + ".out")
    status = main(["sweep", "--config", str(cfg), "--out", str(out), *extra])
    return status, out


def test_sweep_artifacts_and_sidecar(tmp_path):
    status, out = _sweep(
        tmp_path,
        "c_levels = 20,40\nw_levels = 3,5\nreplicates = 2\n"
        "base_seed = 1\nmax_steps = 400\n",
    )
    assert status == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["effective_config.txt", "measurements.csv", "sweep_table.csv"]
    measurements = (out / "measurements.csv").read_text().splitlines()
    assert measurements[0] == MEASUREMENTS_HEADER
    assert len(measurements) == 9  # 2c x 2w x 2 replicates
    table = (out / "sweep_table.csv").read_text().splitlines()
    assert table[0] == ("c,w,W,n_replicates,n_detected,arch_rate,"
                        "T_mean,T_sd,M_mean,M_sd,m_mean,m_sd")
    assert len(table) == 5  # one row per (c, w) cell
    sidecar = (out / "effective_config.txt").read_text()
    assert sidecar.splitlines()[-1] == (
        "# per-run seed = first 8 bytes of sha256('base_seed:c:w:replicate')"
    )


def test_sweep_builds_one_floor_per_width(tmp_path):
    """Validation checks each width's geometry without building its floor."""
    world.build_floor.cache_clear()
    status, _ = _sweep(tmp_path, "c_levels = 10\nreplicates = 1\nmax_steps = 20\n")
    assert status == 0
    assert world.build_floor.cache_info().misses == len(DEFAULT_W_LEVELS) == 7


def test_sweep_parallelism_does_not_change_bytes(tmp_path):
    text = ("c_levels = 15,25\nw_levels = 3\nreplicates = 2\n"
            "base_seed = 7\nmax_steps = 300\n")
    _, serial = _sweep(tmp_path, text, name="serial.cfg", extra=["--parallelism", "1"])
    _, wide = _sweep(tmp_path, text, name="wide.cfg", extra=["--parallelism", "8"])
    assert (serial / "measurements.csv").read_bytes() == \
        (wide / "measurements.csv").read_bytes()


def _no_cells(*args, **kwargs):
    raise AssertionError("a cell ran")


@pytest.mark.parametrize("parallelism", ["0", "-3"])
def test_sweep_rejects_parallelism_below_one(tmp_path, capsys, monkeypatch, parallelism):
    monkeypatch.setattr("archsim.sweep.run_cell", _no_cells)
    status, out = _sweep(tmp_path, "c_levels = 10\nw_levels = 3\nreplicates = 1\n",
                         extra=["--parallelism", parallelism])
    assert status == 1
    assert capsys.readouterr().err == f"error: parallelism={parallelism} must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_sweep_partial_failure(tmp_path, capsys, parallelism):
    # at parallelism 2 the first chunk holds c=10 and c=1100
    status, out = _sweep(
        tmp_path,
        "c_levels = 10,1100,20,30\nw_levels = 3\nreplicates = 1\nmax_steps = 200\n",
        extra=["--parallelism", parallelism],
    )
    assert status == 1
    assert "errors.csv" in capsys.readouterr().err
    errors = (out / "errors.csv").read_text().splitlines()
    assert len(errors) == 2 and errors[1].startswith("1100,3,0,")
    # the healthy cells, its chunk-mate among them, are still measured
    rows = (out / "measurements.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["10", "3"], ["20", "3"], ["30", "3"]]


def test_a_clean_sweep_removes_a_stale_errors_csv(tmp_path, capsys):
    """A clean sweep into a reused --out leaves no earlier sweep's failed
    cells listed beside its own measurements."""
    status, out = _sweep(
        tmp_path, "c_levels = 10,1100\nw_levels = 3\nreplicates = 1\nmax_steps = 200\n"
    )
    assert status == 1 and (out / "errors.csv").exists()
    status, out = _sweep(tmp_path, "c_levels = 10\nw_levels = 3\nreplicates = 1\n")
    assert status == 0
    assert not (out / "errors.csv").exists()


def test_sweep_rejects_corridor_longer_than_int16(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("archsim.sweep.run_cell", _no_cells)
    status, out = _sweep(
        tmp_path, "W = 1\nL = 40000\nc_levels = 5\nw_levels = 1\nreplicates = 1\n"
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "L=40000" in err
    assert not (out / "errors.csv").exists()


def test_sweep_bad_shared_setting_fails_before_any_cell(tmp_path, capsys):
    status, out = _sweep(
        tmp_path,
        "c_levels = 10,20\nw_levels = 3\nreplicates = 1\ntrigger_threshold = 2\n",
        extra=["--verbose"],
    )
    assert status == 1
    captured = capsys.readouterr()
    assert "trigger_threshold" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "levels,problem",
    [("20,20", "c_levels=(20, 20) repeats"), ("-5,20", "c_levels=(-5, 20) holds a negative")],
)
def test_sweep_bad_levels_fail_before_any_cell(tmp_path, capsys, levels, problem):
    status, out = _sweep(
        tmp_path,
        f"c_levels = {levels}\nw_levels = 3\nreplicates = 1\n",
        extra=["--verbose"],
    )
    assert status == 1
    captured = capsys.readouterr()
    assert problem in captured.err and captured.out == ""
    assert not out.exists()


def test_sweep_verbose_progress(tmp_path, capsys):
    status, _ = _sweep(
        tmp_path,
        "c_levels = 15\nw_levels = 3\nreplicates = 1\nmax_steps = 300\n",
        extra=["--verbose"],
    )
    assert status == 0
    assert "[1/1] c=15 w=3 replicate=0" in capsys.readouterr().out


def _analyze(csv_text, tmp_path, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    src = tmp_path / "measurements.csv"
    src.write_text(csv_text)
    out = tmp_path / "analysis"
    status = main(["analyze", str(src), "--out", str(out), *extra])
    return status, out


def test_analyze_perfect_lines(tmp_path):
    status, out = _analyze(PERFECT_LINE_CSV, tmp_path)
    assert status == 0
    assert (out / "regression.csv").read_text() == (
        "c,slope,intercept,r_squared,t_stat,n\n"
        "200,-1.0,30.0,1.0,,3\n"     # zero residual: no finite t statistic
        "400,-2.0,50.0,1.0,,3\n"
    )
    table = (out / "sweep_table.csv").read_text().splitlines()
    assert table[1] == "200,1,19,1,1,1.0,29.0,0.0,3.0,0.0,5.0,0.0"
    trends = (out / "trends.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in trends] == [
        "trend", "T_vs_inverse_cw", "M_vs_c_over_w", "m_vs_cw",
    ]
    for line in trends[1:]:
        _, r, n_cells, excluded = line.split(",")
        assert -1.0 <= float(r) <= 1.0
        assert (n_cells, excluded) == ("6", "0")
    assert sorted(p.name for p in out.glob("*.svg")) == [
        "T_vs_w_c200.svg", "T_vs_w_c400.svg",
    ]


def test_analyze_replaces_the_plots_of_an_earlier_analysis(tmp_path):
    """An analysis into a reused --out leaves only its own per-c plots,
    each with the bytes it has in a fresh --out."""
    status, out = _analyze(PERFECT_LINE_CSV, tmp_path)
    assert status == 0
    c400 = (out / "T_vs_w_c400.svg").read_bytes()
    rows = [line for line in PERFECT_LINE_CSV.splitlines() if line.startswith("400,")]
    status, out = _analyze("\n".join([MEASUREMENTS_HEADER, *rows]) + "\n", tmp_path)
    assert status == 0
    assert [p.name for p in out.glob("*.svg")] == ["T_vs_w_c400.svg"]
    assert (out / "T_vs_w_c400.svg").read_bytes() == c400


def test_analyze_per_replicate_changes_sample_size(tmp_path):
    doubled = PERFECT_LINE_CSV + "".join(
        line.replace(",0,1,", ",1,1,", 1) + "\n"
        for line in PERFECT_LINE_CSV.splitlines()[1:]
    )
    _, means_out = _analyze(PERFECT_LINE_CSV, tmp_path)
    status, raw_out = _analyze(doubled, tmp_path / "raw", "--per-replicate")
    assert status == 0
    means = (means_out / "regression.csv").read_text().splitlines()
    raw = (raw_out / "regression.csv").read_text().splitlines()
    assert means[1].split(",")[1] == raw[1].split(",")[1] == "-1.0"  # same slope
    assert means[1].split(",")[-1] == "3" and raw[1].split(",")[-1] == "6"


@pytest.mark.parametrize("extra", [(), ("--per-replicate",)])
def test_analyze_aggregates_once(tmp_path, monkeypatch, extra):
    calls = []
    aggregate = analysis.aggregate

    def counted(rows):
        calls.append(len(rows))
        return aggregate(rows)

    monkeypatch.setattr(analysis, "aggregate", counted)
    status, _ = _analyze(PERFECT_LINE_CSV, tmp_path, *extra)
    assert status == 0
    assert calls == [6]


def test_analyze_few_cells_leaves_trends_empty(tmp_path):
    two_cells = MEASUREMENTS_HEADER + "\n" \
        "400,1,19,5,0,1,48,3,5,3\n" \
        "400,3,19,5,0,1,44,5,7,9\n"
    status, out = _analyze(two_cells, tmp_path)
    assert status == 0
    assert (out / "trends.csv").read_text() == \
        "trend,pearson_r,n_cells,n_saturated_excluded\n"
    regression = (out / "regression.csv").read_text().splitlines()
    assert len(regression) == 2 and regression[1].startswith("400,-2.0,")


def test_analyze_survives_sweep_without_detections(tmp_path):
    # small crowds never jam; every pipeline stage must still succeed
    status, out = _sweep(
        tmp_path,
        "c_levels = 10,20\nw_levels = 5,7\nreplicates = 1\nmax_steps = 300\n",
    )
    assert status == 0
    out2 = tmp_path / "analysis"
    assert main(["analyze", str(out / "measurements.csv"), "--out", str(out2)]) == 0
    assert (out2 / "sweep_table.csv").read_text().count("\n") == 5


def test_analyze_empty_measurements(tmp_path, capsys):
    status, _ = _analyze(MEASUREMENTS_HEADER + "\n", tmp_path)
    assert status == 1
    assert "no measurement rows" in capsys.readouterr().err


MIXED_W_CSV = MEASUREMENTS_HEADER + "\n200,1,19,5,0,1,9,2,2,3\n200,3,35,5,0,1,9,2,2,9\n"


def test_analyze_rejects_mixed_corridor_widths(tmp_path, capsys):
    status, out = _analyze(MIXED_W_CSV, tmp_path)
    assert status == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'measurements.csv'}: row 3: W=35 where row 2 has W=19\n"
    )
    assert not out.exists()


def test_analyze_rejects_detection_without_measurements(tmp_path, capsys):
    status, out = _analyze(MEASUREMENTS_HEADER + "\n400,7,19,11,0,1,,,,\n", tmp_path)
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "measurements.csv: row 2:" in err
    assert not out.exists()


def test_analyze_rejects_measurements_that_are_not_utf8(tmp_path, capsys):
    src = tmp_path / "measurements.csv"
    src.write_bytes(PERFECT_LINE_CSV.encode() + b"200,5,19,5,0,1,25,7,9,15\xff\n")
    out = tmp_path / "analysis"
    assert main(["analyze", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src}: not UTF-8 text\n"
    assert not out.exists()


def test_analyze_rejects_zero_exit_width(tmp_path, capsys):
    status, out = _analyze(PERFECT_LINE_CSV + "400,0,19,11,0,1,21,6,11,30\n"
                           "200,0,19,14,0,1,22,6,11,30\n", tmp_path)
    assert status == 1
    err = capsys.readouterr().err
    rows = PERFECT_LINE_CSV.count("\n") + 1
    assert err.startswith("error:") and f"measurements.csv: row {rows}: w=0" in err
    assert not out.exists()


def test_analyze_rejects_a_field_over_the_csv_limit(tmp_path, capsys):
    status, out = _analyze(PERFECT_LINE_CSV + '"' + "9" * 200_000 + '",7,19,11,0,0,,,,\n',
                           tmp_path)
    assert status == 1
    line = PERFECT_LINE_CSV.count("\n") + 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'measurements.csv'}: line {line}: field larger than "
        f"field limit ({csv.field_size_limit()})\n"
    )
    assert not out.exists()


README_SECTIONS = {"run": "Single run", "sweep": "Factorial sweep",
                   "analyze": "Analysis", "render": "Frame rendering"}


def test_readme_sections_match_the_parser():
    """Each command's README section names every long flag the command
    takes, and the section's code blocks use no flag it does not take."""
    readme = (Path(archsim.__file__).parents[2] / "README.md").read_text()
    sections = dict(re.findall(r"^### (.+?)\n(.*?)(?=^## |^### |\Z)", readme, re.M | re.S))
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    flag = re.compile(r"--[a-z][a-z-]*")
    for command, title in README_SECTIONS.items():
        takes = {option for action in commands[command]._actions
                 for option in action.option_strings if flag.fullmatch(option)} - {"--help"}
        text = sections[title]
        blocks = "".join(re.findall(r"^```\n(.*?)^```", text, re.M | re.S))
        assert sorted(takes - set(flag.findall(text))) == [], command
        assert sorted(set(flag.findall(blocks)) - takes) == [], command


def test_checks_survive_optimized_mode(tmp_path):
    """Invariant checks are exceptions, not asserts, so python -O keeps them."""
    src = tmp_path / "measurements.csv"
    src.write_text(MIXED_W_CSV)
    env = dict(os.environ, PYTHONPATH=str(Path(archsim.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "archsim.cli", "analyze", str(src),
         "--out", str(tmp_path / "analysis")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "row 3: W=35 where row 2 has W=19" in proc.stderr


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_default_sweep(default_sweep, tmp_path):
    """The analysis of the default sweep, byte for byte: the regression and
    trend tables and one scatter plot per crowd size."""
    out = tmp_path / "analysis"
    assert main(["analyze", str(default_sweep.out / "measurements.csv"),
                 "--out", str(out)]) == 0
    table = (out / "sweep_table.csv").read_text().splitlines()
    assert len(table) == 36  # header + one row per factorial cell
    fits = (out / "regression.csv").read_text().splitlines()[1:]
    assert len(list(out.glob("T_vs_w_c*.svg"))) == len(fits)
    pinned = {
        "regression.csv": "648e368546ab477f527c3cd2cb8157c6777fcdaf407bccd8e12445a6dd846412",
        "trends.csv": "d6a50f839758376cca7b48867186ecd2c255cb5c80fcbf857cd9d9430ed9c638",
        "T_vs_w_c200.svg": "46911a36c52a89a8d0c50a3017c8a64eaaf97136d66c011df66082707631ac42",
        "T_vs_w_c300.svg": "67be1f1b5b6ead22885f962f3df3562330c657d34fea61afad5b2d8dfd53d319",
        "T_vs_w_c350.svg": "2590b8faaa751b0521c7036f89ca50d7b5afe53a2ed6a1fe0b6c821a5041639c",
        "T_vs_w_c400.svg": "acb05a9e27a5a229c3ef010f450e6eb9279a223d17c4b8c68fa1915c6f750657",
        "T_vs_w_c450.svg": "4da7754cd23d68fe11e5bac462054e513ad9b7e81aa525ef44595e0e28572da7",
    }
    for name, sha256 in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha256, name


def test_analyze_refuses_a_repeated_run(default_sweep, tmp_path, capsys):
    """A default sweep's row 2 appended again would be counted as a fourth
    replicate of its cell; the repeat is refused, naming both rows."""
    lines = (default_sweep.out / "measurements.csv").read_text().splitlines(keepends=True)
    path = tmp_path / "measurements.csv"
    path.write_text("".join(lines) + lines[1])
    assert main(["analyze", str(path), "--out", str(tmp_path / "analysis")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: row 107: c=200, w=1, replicate=0 repeats row 2\n"
    )
    assert not (tmp_path / "analysis").exists()


def test_default_sweep_bytes_are_pinned(default_sweep):
    """The default sweep's files are a contract: bench/golden.json records the
    same hashes, and no refactor of the step, the floor or the sweep order may
    change them."""
    pinned = {
        "measurements.csv": "e620dc3202b44e9572b2f395ec1f58b2891ca048f83ea5355d17ed7ab33bd42b",
        "sweep_table.csv": "437c8325a1ceba67ba1d6c2413bbbda282f43f495c725b31f5ca5d0e35aaec04",
    }
    for name, sha256 in pinned.items():
        assert hashlib.sha256((default_sweep.out / name).read_bytes()).hexdigest() == sha256, name


def test_default_sweep_shape(default_sweep):
    rows = default_sweep.rows
    assert len(rows) == 105
    assert [(r.c, r.w, r.replicate) for r in rows] == sorted(
        (c, w, rep)
        for c in (200, 300, 350, 400, 450)
        for w in (1, 3, 5, 7, 9, 11, 13)
        for rep in range(3)
    )


# what a byte edit inserts: a sign, an int64 overflow, a line end, a NUL,
# a byte that is not UTF-8, float spellings, a CSV quote and a key separator
_TOKENS = [b"-1", b"9" * 20, b"\r", b"\x00", b"\xff", b"nan", b"1e999", b'"', b"="]


@st.composite
def _mutated(draw, data):
    """``data`` after one to three byte edits, each a deleted span, an
    inserted token, a flipped bit or a duplicated span.  Half the edits
    start on a digit, where the readers check values, not just syntax."""
    for _ in range(draw(st.integers(1, 3))):
        digits = [k for k, byte in enumerate(data) if byte in b"0123456789"]
        anywhere = st.integers(0, len(data))
        at = draw(st.sampled_from(digits) | anywhere if digits else anywhere)
        kind = draw(st.sampled_from(["delete", "insert", "flip", "duplicate"]))
        if kind == "insert" or at == len(data):
            data = data[:at] + draw(st.sampled_from(_TOKENS)) + data[at:]
            continue
        if kind == "flip":
            data = data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
            continue
        end = draw(st.integers(at + 1, min(len(data), at + 12)))
        span = data[at:end]
        data = data[:at] + data[end:] if kind == "delete" else data[:end] + span + data[end:]
    return data


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """The bytes of every file a command reads, from a small run and sweep."""
    root = tmp_path_factory.mktemp("inputs")
    run_cfg, sweep_cfg = root / "run.cfg", root / "sweep.cfg"
    run_cfg.write_text("c = 5\nw = 3\nW = 5\nL = 12\nseed = 4\nmax_steps = 60\n")
    sweep_cfg.write_text("c_levels = 30,60\nw_levels = 1,3\nW = 7\nL = 20\n"
                         "replicates = 2\nmax_steps = 300\n")
    assert main(["run", "--config", str(run_cfg), "--out", str(root / "run")]) == 0
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(root / "sweep")]) == 0
    trace = (root / "run" / "trace.csv").read_bytes()
    return {"trace.csv": trace, "trace.csv.gz": trace,
            "effective_config.txt": (root / "run" / "effective_config.txt").read_bytes(),
            "measurements.csv": (root / "sweep" / "measurements.csv").read_bytes(),
            "sweep.cfg": sweep_cfg.read_bytes(), "run.cfg": run_cfg.read_bytes()}


def _first_record(config):
    """The t=0 record alone: the crowd is placed, but no step is run."""
    return [next(simulate(config))]


# the command that reads each file; a sweep's cells are not run (a mutated
# level or replicate count may ask for any number of them), so its config
# is read and built, and the sweep's files are written.  A run stops at its
# placed crowd (a mutated crowd or corridor may ask for a long run) and
# writes its four files.  The trace is read under a name numpy would
# decompress too, which is parsed from the open file
_READERS = {
    "trace.csv": ["render", "trace.csv", "--config", "effective_config.txt", "--out", "frame"],
    "trace.csv.gz": ["render", "trace.csv.gz", "--config", "effective_config.txt",
                     "--out", "frame"],
    "effective_config.txt": ["render", "trace.csv", "--config", "effective_config.txt",
                             "--out", "frame"],
    "measurements.csv": ["analyze", "measurements.csv", "--out", "analysis"],
    "sweep.cfg": ["sweep", "--config", "sweep.cfg", "--out", "sweep"],
    "run.cfg": ["run", "--config", "run.cfg", "--out", "run"],
}


@pytest.mark.parametrize("name", list(_READERS))
@given(data=st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_a_mutated_input_is_read_or_named_in_one_error_line(reader_inputs, name, data):
    """Every reader takes a file with deleted, inserted, flipped or
    duplicated bytes either whole (exit 0) or refuses it with one
    ``error:`` line that names it (exit 1); it never raises."""
    mutated = data.draw(_mutated(reader_inputs[name]), label="mutated")
    with tempfile.TemporaryDirectory() as tmp:
        for file, content in reader_inputs.items():
            Path(tmp, file).write_bytes(mutated if file == name else content)
        argv = [str(Path(tmp, arg)) if i > 0 and not arg.startswith("--") else arg
                for i, arg in enumerate(_READERS[name])]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                mock.patch("archsim.cli.run_sweep", return_value=([], [])), \
                mock.patch("archsim.cli.run", _first_record):
            status = main(argv)
    err = err.getvalue()
    if status == 0:
        assert err == ""
    else:
        assert status == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert str(Path(tmp, name)) in err, err
