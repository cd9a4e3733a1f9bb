"""Engine semantics: scheduling, movement, exits, traces, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from archsim.agent import Agent, heading_toward
from archsim.engine import (
    SimConfig,
    initialize,
    read_trace_csv,
    run,
    simulate,
    step,
    write_summary_csv,
    write_trace_csv,
)
from archsim.errors import ConfigError, CrowdTooLargeError, InvalidDimensionsError
from archsim.metrics import detect_arch_onset
from archsim.world import build_world, nearest_exit_coordinate

from conftest import reading


def _lone_agent_world(pos, w=1):
    grid = build_world(19, 60, w)
    agent = Agent(id=0, pos=pos)
    agent.heading = heading_toward(pos, nearest_exit_coordinate(grid, pos))
    grid.place(0, pos)
    return grid, [agent]


def test_ten_cells_straight_exits_at_step_ten():
    grid, agents = _lone_agent_world((9, 10))
    rng = np.random.default_rng(0)
    cfg = SimConfig(c=1, w=1)
    for t in range(1, 12):
        rec = step(grid, agents, rng, cfg, t)
        if rec.exited_count == 1:
            break
    assert t == 10
    assert agents[0].pos == (9, 0)


def test_agent_standing_on_exit_cell_exits():
    grid, agents = _lone_agent_world((9, 0), w=7)
    rng = np.random.default_rng(0)
    rec = step(grid, agents, rng, SimConfig(c=1, w=7), 1)
    assert rec.exited_count == 1
    assert rec.exits_this_step == 1
    assert not rec.moved[0]
    # the body clears the doorway at the next activation, not immediately
    assert grid.occupancy.get((9, 0)) == 0
    step(grid, agents, rng, SimConfig(c=1, w=7), 2)
    assert (9, 0) not in grid.occupancy


def test_enclosed_agent_stays_put():
    grid = build_world(19, 60, 7)
    focal = Agent(id=0, pos=(9, 30))
    focal.heading = heading_toward(focal.pos, nearest_exit_coordinate(grid, focal.pos))
    grid.place(0, focal.pos)
    agents = [focal]
    for i, (ox, oy) in enumerate(
        [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]
    ):
        blocker = Agent(id=i + 1, pos=(9 + ox, 30 + oy))
        grid.place(blocker.id, blocker.pos)
        agents.append(blocker)
    # pick a seed whose first permutation activates the focal agent first,
    # so it decides while still fully enclosed
    seed = next(
        s for s in range(100) if np.random.default_rng(s).permutation(9)[0] == 0
    )
    step(grid, agents, np.random.default_rng(seed), SimConfig(c=9, w=7, seed=seed), 1)
    assert focal.pos == (9, 30)
    assert not focal.moved_last_step


def test_lone_agent_trace_length_is_taxicab_distance():
    """Unobstructed runs take axis paces only: steps = |dx| + |dy| (+<=1)."""
    for seed in range(5):
        cfg = SimConfig(c=1, w=7, seed=seed)
        grid, (agent,), _ = initialize(cfg)
        ex = nearest_exit_coordinate(grid, agent.pos)
        d = abs(agent.pos[0] - ex[0]) + abs(agent.pos[1] - ex[1])
        records = run(cfg)
        assert records[-1].exited_count == 1
        assert d <= records[-1].t <= d + 1
        # same config twice: bit-identical trajectory
        again = run(cfg)
        assert len(again) == len(records)
        assert all(
            np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
            for a, b in zip(records, again)
        )


def test_empty_crowd_is_valid():
    records = run(SimConfig(c=0, w=7))
    assert len(records) == 1
    assert records[0].t == 0
    assert records[0].agent_count == 0


def test_spawn_region_exactly_filled():
    # 19 columns x 55 rows below the margin = 1045 spawnable cells
    cfg = SimConfig(c=1045, w=7)
    grid, agents, _ = initialize(cfg)
    assert len(agents) == 1045
    assert len(grid.occupancy) == 1045
    assert all(a.pos[1] >= cfg.spawn_margin for a in agents)
    with pytest.raises(CrowdTooLargeError):
        initialize(SimConfig(c=1046, w=7))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(c=-1, w=7),
        dict(c=10, w=7, max_steps=0),
        dict(c=10, w=7, vision_radius=0),
        dict(c=10, w=7, spawn_margin=60),
        dict(c=10, w=7, seed=-1),
        dict(c=10, w=7, trigger_threshold=1.5),
        dict(c=10, w=7, trigger_threshold=-0.1),
        dict(c=10, w=7, d_max=0.0),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs).validate()


def test_bad_world_dimensions_propagate():
    with pytest.raises(InvalidDimensionsError):
        SimConfig(c=10, w=25).validate()


def test_run_invariants_small_crowd():
    """Conservation, exit monotonicity, and one-pace moves over a real run."""
    cfg = SimConfig(c=60, w=3, seed=2)
    records = run(cfg)
    assert records[-1].exited_count == 60
    prev = None
    for rec in records:
        assert rec.agent_count == 60
        if prev is not None:
            assert rec.exited_count >= prev.exited_count
            dx = np.abs(rec.xs.astype(int) - prev.xs.astype(int))
            dy = np.abs(rec.ys.astype(int) - prev.ys.astype(int))
            assert int(np.maximum(dx, dy).max()) <= 1
            # exited agents stay frozen in the record arrays
            gone = prev.exited
            assert np.array_equal(rec.xs[gone], prev.xs[gone])
            assert np.array_equal(rec.ys[gone], prev.ys[gone])
            assert bool(rec.exited[gone].all())
        prev = rec


@st.composite
def _small_configs(draw):
    W = draw(st.integers(3, 12))
    L = draw(st.integers(W + 1, 30))
    spawn_margin = draw(st.integers(0, L - 1))
    spawnable = W * (L - spawn_margin) - (W - 1 if spawn_margin == 0 else 0)
    return SimConfig(
        c=draw(st.integers(0, min(60, spawnable))),
        w=draw(st.integers(1, W)),
        W=W,
        L=L,
        seed=draw(st.integers(0, 2**32)),
        max_steps=150,
        vision_radius=draw(st.integers(1, 4)),
        spawn_margin=spawn_margin,
        trigger_threshold=draw(st.floats(0.0, 1.0)),
        d_max=draw(st.none() | st.floats(0.5, 6.0)),
    )


@given(cfg=_small_configs())
@settings(max_examples=20, deadline=None)
def test_step_invariants_hold_on_random_configs(cfg):
    """One body per cell, none on a wall, occupancy = live agents plus the
    bodies of this step's exits, exits never undone, every move one
    8-neighbour pace, every live heading facing the nearest exit."""
    grid, agents, rng = initialize(cfg)
    for t in range(1, cfg.max_steps + 1):
        before = [(a.pos, a.exited) for a in agents]
        step(grid, agents, rng, cfg, t)
        for a, (pos, was_exited) in zip(agents, before):
            assert a.exited or not was_exited
            assert max(abs(a.pos[0] - pos[0]), abs(a.pos[1] - pos[1])) <= 1
        # a body leaves the doorway at its agent's next activation
        bodies = [(a.pos, a.id) for a, (_, was_exited) in zip(agents, before)
                  if not was_exited]
        assert len({pos for pos, _ in bodies}) == len(bodies)  # one body per cell
        assert dict(bodies) == grid.occupancy
        assert not any(grid.is_wall(pos) for pos, _ in bodies)
        for a in agents:
            if not a.exited:
                assert a.heading == heading_toward(a.pos, nearest_exit_coordinate(grid, a.pos))
        if all(a.exited for a in agents):
            break


@given(
    cfg=_small_configs(),
    threshold_factor=st.sampled_from([0.5, 1.0, 3.0]),
    persistence=st.integers(1, 4),
)
@settings(max_examples=20, deadline=None)
def test_detector_on_live_simulation_matches_full_trace(cfg, threshold_factor, persistence):
    """Streaming the run gives the stored trace's measurement, and an
    arch stops the simulation right after its persistence window."""
    grid = build_world(cfg.W, cfg.L, cfg.w)
    records = run(cfg)
    read = []
    live = detect_arch_onset(reading(simulate(cfg), read), grid, threshold_factor, persistence)
    assert live == detect_arch_onset(records, grid, threshold_factor, persistence)
    if live.arch_detected:
        assert read == list(range(live.T + persistence + 1))
    else:
        assert read == [rec.t for rec in records]


def test_default_scenario_drains_within_budget():
    from archsim.sweep import derive_seed

    for rep in range(3):
        cfg = SimConfig(c=400, w=7, seed=derive_seed(0, 400, 7, rep))
        records = run(cfg)
        assert records[-1].exited_count == 400
        assert records[-1].t < 5000


def test_trace_csv_round_trip(tmp_path):
    records = run(SimConfig(c=25, w=5, seed=7))
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    back = read_trace_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.t == b.t
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.exited, b.exited)
        assert np.array_equal(a.moved, b.moved)
    assert path.read_text().splitlines()[0] == "t,agent_id,transverse,longitudinal,exited"


def test_trace_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_trace_csv(path)


@pytest.mark.parametrize(
    "body,line",
    [
        ("0,0,1,5,0\n0,1,2,5,0\n1,0,1,4,0\n", 4),
        ("0,0,1,5,0\n0,1,2,5,0\n1,0,1,4,0\n1,0,2,4,0\n", 4),
        ("0,0,1,5,0\n0,2,2,5,0\n", 2),
        ("0,0,1,5,0\n0,1,2,5\n", 3),
        ("0,0,1,5,0\n0,1,2.5,5,0\n", 3),
    ],
    ids=["missing-agent", "duplicate-agent", "skipped-id", "short-row", "non-integer"],
)
def test_trace_csv_rejects_malformed_steps(tmp_path, body, line):
    path = tmp_path / "trace.csv"
    path.write_text("t,agent_id,transverse,longitudinal,exited\n" + body)
    with pytest.raises(ConfigError) as err:
        read_trace_csv(path)
    assert str(err.value).startswith(f"{path}: line {line}:")


def test_trace_csv_without_rows_is_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(SimConfig(c=0, w=7)), path)  # an empty crowd: header only
    with pytest.raises(ConfigError, match="no rows"):
        read_trace_csv(path)


def test_summary_csv(tmp_path):
    records = run(SimConfig(c=10, w=5, seed=1))
    path = tmp_path / "summary.csv"
    write_summary_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,exits_this_step,stationary_count"
    assert len(lines) == len(records) + 1
    total_exits = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total_exits == 10
