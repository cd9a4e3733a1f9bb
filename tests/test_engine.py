"""Engine semantics: scheduling, movement, exits, traces, determinism."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import archsim
from archsim import engine, table
from archsim.agent import neighbourhood
from archsim.engine import (
    COORD_MAX,
    SimConfig,
    StepRecord,
    initialize,
    read_trace_csv,
    run,
    simulate,
    step,
    write_summary_csv,
    write_trace_csv,
)
from archsim.errors import ArchsimError, ConfigError, CrowdTooLargeError, InvalidDimensionsError
from archsim.metrics import detect_arch_onset
from archsim.world import FREE, WALL, WorldGrid, build_floor

import scalar_reference
from conftest import cell_index, crowd_on, make_record, reading
from scalar_reference import reference_run


def _crowd_world(cells, w=1):
    """A grid on the 19x60 floor with agents 0..n-1 standing on ``cells``."""
    grid = WorldGrid(build_floor(19, 60, w))
    return grid, crowd_on(grid, cells)


def _lone_agent_world(pos, w=1):
    return _crowd_world([pos], w)


def _body_at(grid, cell):
    """The id on ``cell``'s occupancy slot (FREE when nobody stands there)."""
    return grid.occupancy[cell_index(grid.floor)[cell]]


def test_ten_cells_straight_exits_at_step_ten():
    grid, agents = _lone_agent_world((9, 10))
    rng = np.random.default_rng(0)
    cfg = SimConfig(c=1, w=1)
    for t in range(1, 12):
        rec = step(grid, agents, rng, cfg, t)
        if rec.exited_count == 1:
            break
    assert t == 10
    assert list(agents)[0].pos == (9, 0)


def test_agent_standing_on_exit_cell_exits():
    grid, agents = _lone_agent_world((9, 0), w=7)
    rng = np.random.default_rng(0)
    rec = step(grid, agents, rng, SimConfig(c=1, w=7), 1)
    assert rec.exited_count == 1
    assert not rec.moved[0]
    # the body clears the doorway at the next activation, not immediately
    assert _body_at(grid, (9, 0)) == 0
    step(grid, agents, rng, SimConfig(c=1, w=7), 2)
    assert _body_at(grid, (9, 0)) == FREE


def test_enclosed_agent_stays_put():
    grid, agents = _crowd_world([(9, 30)] + [
        (9 + ox, 30 + oy)
        for ox, oy in [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]
    ], w=7)
    # pick a seed whose first permutation activates the focal agent first,
    # so it decides while still fully enclosed
    seed = next(
        s for s in range(100) if np.random.default_rng(s).permutation(9)[0] == 0
    )
    rec = step(grid, agents, np.random.default_rng(seed), SimConfig(c=9, w=7, seed=seed), 1)
    focal = list(agents)[0]
    assert focal.pos == (9, 30)
    assert not rec.moved[0]


def test_occupancy_ends_in_a_wall_slot_that_is_never_free():
    """One slot per floor cell, then the slot that index -1 (a pace onto a
    wall) reads; a run never frees it."""
    cfg = SimConfig(c=40, w=1, W=7, L=12, spawn_margin=0, seed=3)
    grid, crowd, rng = initialize(cfg)
    assert len(grid.occupancy) == len(grid.floor.cells) + 1
    assert grid.occupancy[-1] == WALL != FREE
    for t in range(1, 200):
        record = step(grid, crowd, rng, cfg, t)
        assert grid.occupancy[-1] == WALL
        if record.exited_count == len(crowd):
            break
    assert record.exited_count == len(crowd)


def test_agent_whose_first_free_pace_is_a_wall_stays_put():
    """Beside a one-cell exit, with (8, 1) and (9, 1) taken, the closest free
    cone cell of (7, 1) is the exit (9, 0).  The pace toward it crosses the
    wall corner (8, 0): index -1, whose slot is never FREE, so the agent
    stays put."""
    grid, agents = _crowd_world([(7, 1), (8, 1), (9, 1)], w=1)
    floor, cfg = grid.floor, SimConfig(c=3, w=1)
    entries, _ = neighbourhood(floor, cfg)[cell_index(floor)[(7, 1)]]
    toward_8_1 = cell_index(floor)[(8, 1)]
    assert [(floor.cells[q], pace) for q, pace, _ in entries[:3]] == [
        ((8, 1), toward_8_1), ((9, 1), toward_8_1), ((9, 0), -1)]
    # a seed whose first permutation activates agent 0 before the blockers move
    seed = next(s for s in range(100) if np.random.default_rng(s).permutation(3)[0] == 0)
    rec = step(grid, agents, np.random.default_rng(seed), cfg, 1)
    assert list(agents)[0].pos == (7, 1)
    assert not rec.moved[0]
    assert _body_at(grid, (7, 1)) == 0


@pytest.mark.parametrize("body_exited, pace", [(True, (9, 1)), (False, (8, 1))])
def test_an_exited_body_is_no_match(body_exited, pace):
    """Beside a one-cell exit, the agent on (8, 2) ranks the doorway (9, 0)
    above the agent on (10, 1).  At threshold 0.44 the doorway scores above
    it and (10, 1) below it.  A live agent in the doorway is the best match,
    so the agent takes its closest free pace, (8, 1); an exited body there
    is no match, so the agent is triggered toward (10, 1) and paces to (9, 1)."""
    grid, crowd = _crowd_world([(8, 2), (9, 0), (10, 1)], w=1)
    crowd.exited[1] = body_exited
    floor, cfg = grid.floor, SimConfig(c=3, w=1, trigger_threshold=0.44)
    _, ranked = neighbourhood(floor, cfg)[cell_index(floor)[(8, 2)]]
    seen = [floor.cells[q] for q, _, _ in ranked]
    assert seen.index((9, 0)) < seen.index((10, 1))
    assert ranked[seen.index((9, 0))][2] >= 0.44 > ranked[seen.index((10, 1))][2]
    # a seed whose first permutation activates agent 0 first
    seed = next(s for s in range(100) if np.random.default_rng(s).permutation(3)[0] == 0)
    step(grid, crowd, np.random.default_rng(seed), cfg, 1)
    assert list(crowd)[0].pos == pace


def _phantom_body_step():
    """Step a 30-agent run whose grid holds a second body for agent 7."""
    cfg = SimConfig(c=30, w=3)
    grid, agents, rng = initialize(cfg)
    grid.occupancy[cell_index(grid.floor)[(0, 1)]] = 7  # a second body for agent 7
    step(grid, agents, rng, cfg, 1)


def test_phantom_body_fails_the_occupancy_check():
    with pytest.raises(ArchsimError, match="31 occupied cells for 30 live agents"):
        _phantom_body_step()


def _stray_doorway_body_step():
    """Step a 30-agent run whose exit cell 0 holds the id of exited agent 7,
    which stands on its spawn cell, not there."""
    cfg = SimConfig(c=30, w=3)
    grid, agents, rng = initialize(cfg)
    agents.exited[7] = 1
    grid.occupancy[0] = 7
    step(grid, agents, rng, cfg, 1)


def test_doorway_body_of_an_agent_standing_elsewhere_fails_the_occupancy_check():
    """An exit cell counts as a body in the doorway only when its exited
    occupant stands on it."""
    with pytest.raises(ArchsimError, match="30 occupied cells for 29 live agents "
                                           "and 0 bodies in the doorway"):
        _stray_doorway_body_step()


def _write_trace_with_a_negative_coordinate():
    records = [make_record(0, [(1, 5), (2, 5)]), make_record(1, [(1, 4), (2, -1)])]
    write_trace_csv(records, os.devnull)


def _write_trace_whose_crowd_grows():
    write_trace_csv([make_record(0, [(1, 5)]), make_record(1, [(1, 4), (2, 5)])], os.devnull)


def _checks_in_optimized_mode():
    """Print the ArchsimError each broken input raises, one line each."""
    for broken in (_phantom_body_step, _stray_doorway_body_step,
                   _write_trace_with_a_negative_coordinate, _write_trace_whose_crowd_grows):
        try:
            broken()
        except ArchsimError as exc:
            print(exc)
        else:
            print(f"{broken.__name__}: no error")


def test_occupancy_check_survives_optimized_mode():
    """The occupancy and trace-writer checks are exceptions, not asserts,
    so python -O keeps them."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(archsim.__file__).parent.parent), str(Path(__file__).parent)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import test_engine; test_engine._checks_in_optimized_mode()"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "step 1: 31 occupied cells for 30 live agents and 0 bodies in the doorway",
        "step 1: 30 occupied cells for 29 live agents and 0 bodies in the doorway",
        f"step 1: agent 1 at (2, -1) outside 0..{COORD_MAX}",
        "step 1: 2 agents where step 0 has 1",
    ]


def test_lone_agent_trace_length_is_taxicab_distance():
    """Unobstructed runs take axis paces only: steps = |dx| + |dy| (+<=1)."""
    for seed in range(5):
        cfg = SimConfig(c=1, w=7, seed=seed)
        grid, (agent,), _ = initialize(cfg)
        x, y = agent.pos
        d = min(abs(x - ex) + abs(y - ey) for ex, ey in grid.floor.exit_cells)
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
    assert sum(v != FREE for v in grid.occupancy[:-1]) == 1045
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
        dict(c=10, w=7, d_max=float("nan")),
        dict(c=10, w=7, d_max=float("inf")),
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


def _spawnable(W, L, w, spawn_margin):
    """The floor cells at or past ``spawn_margin``: row 0 holds only the
    w exit cells."""
    return W * (L - spawn_margin) - (W - w if spawn_margin == 0 else 0)


@st.composite
def _small_floors(draw):
    """(W, L, w, spawn_margin) of a small corridor."""
    W = draw(st.integers(3, 12))
    L = draw(st.integers(W + 1, 30))
    return W, L, draw(st.integers(1, W)), draw(st.integers(0, L - 1))


@given(floor=_small_floors(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_run_config_that_validates_can_be_initialized(floor, data):
    """Validation refuses exactly the crowds the corridor cannot hold past
    its margin, so every config it passes places its whole crowd."""
    W, L, w, spawn_margin = floor
    spawnable = _spawnable(W, L, w, spawn_margin)
    edge = st.sampled_from([spawnable, spawnable + 1])  # the fullest crowd and one more
    c = data.draw(edge | st.integers(0, spawnable + 3), label="c")
    cfg = SimConfig(c=c, w=w, W=W, L=L, spawn_margin=spawn_margin)
    if c > spawnable:
        with pytest.raises(CrowdTooLargeError,
                           match=f"^crowd size c={c} exceeds {spawnable} spawnable cells$"):
            cfg.validate()
        return
    grid, crowd, _ = initialize(cfg)
    assert len(crowd) == c == len(grid.occupancy) - grid.occupancy.count(FREE) - 1


@st.composite
def _small_configs(draw):
    W, L, w, spawn_margin = draw(_small_floors())
    return SimConfig(
        c=draw(st.integers(0, min(60, _spawnable(W, L, w, spawn_margin)))),
        w=w,
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
    8-neighbour pace, and the record's moved flags exactly the agents
    whose cell changed."""
    grid, agents, rng = initialize(cfg)
    cells = grid.floor.cells
    for t in range(1, cfg.max_steps + 1):
        before = [(a.pos, a.exited) for a in agents]
        record = step(grid, agents, rng, cfg, t)
        for a, (pos, was_exited) in zip(agents, before):
            assert a.exited or not was_exited
            assert max(abs(a.pos[0] - pos[0]), abs(a.pos[1] - pos[1])) <= 1
            assert bool(record.moved[a.id]) == (a.pos != pos), (t, a.id)
        # a body leaves the doorway at its agent's next activation
        bodies = [(a.pos, a.id) for a, (_, was_exited) in zip(agents, before)
                  if not was_exited]
        assert len({pos for pos, _ in bodies}) == len(bodies)  # one body per cell
        assert dict(bodies) == {cells[k]: i for k, i in enumerate(grid.occupancy[:-1])
                                if i != FREE}
        assert all(pos in grid.floor.heading for pos, _ in bodies)
        if all(a.exited for a in agents):
            break


@st.composite
def _reference_configs(draw):
    """Small configs for the reference run: spawn_margin 0 at times, and
    d_max below and above the vision radius."""
    cfg = draw(_small_configs())
    if draw(st.booleans()):
        cfg.spawn_margin = 0
    radius = cfg.vision_radius
    cfg.d_max = draw(st.floats(0.25, radius, exclude_max=True) | st.floats(radius, 3.0 * radius))
    return cfg


@given(cfg=_reference_configs())
@example(cfg=SimConfig(c=12, w=3, W=3, L=4, spawn_margin=0, seed=1))  # the exit row full
@example(cfg=SimConfig(c=20, w=1, W=5, L=6, spawn_margin=0, seed=2, d_max=1.5))
@settings(max_examples=60, deadline=None)
def test_run_matches_the_tuple_keyed_reference(cfg):
    """engine.run on cell indices gives the tuple-keyed kernel's records,
    record for record: positions, exited and moved flags."""
    expected = reference_run(cfg)
    _assert_same_records(run(cfg), expected)
    assert len(expected) > 1 or cfg.c == 0


@pytest.mark.parametrize("cfg", [SimConfig(c=60, w=1, W=7, L=20, seed=1),
                                 SimConfig(c=450, w=1, seed=0)], ids=["small-floor", "c450"])
def test_jammed_cell_marks_keep_the_reference_records(cfg):
    """Clogged one-cell exits keep the step marking full cones on most
    steps; the skipped scans and the unvisited departed agents leave the
    tuple-keyed kernel's records, record for record.  After every step
    the marks hold what lets an activation end on a mark alone: no exit
    cell is marked, and each marked cell holds a live agent."""
    grid, crowd, rng = initialize(cfg)
    records = [next(simulate(cfg))]  # the t=0 snapshot
    marked = 0
    for t in range(1, cfg.max_steps + 1):
        records.append(step(grid, crowd, rng, cfg, t))
        if grid.marks is not None:
            marked += 1
            full = [k for k, entries in enumerate(grid.marks) if entries is engine._FULL]
            assert min(full, default=cfg.w) >= cfg.w, f"step {t}: exit cell marked"
            for k in full:
                i = grid.occupancy[k]
                assert i != FREE and not crowd.exited[i] and crowd.cell[i] == k, (t, k)
        if records[-1].exited_count == len(crowd):
            break
    assert marked > len(records) // 2
    _assert_same_records(records, reference_run(cfg))


@pytest.mark.parametrize("edge", ["a table score", 0.0, 1.0])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_run_matches_the_reference_at_the_threshold_edges(edge, data):
    """The step decides ``best < threshold``.  At a threshold equal to a
    score of the floor's own table, a best match can score exactly the
    threshold; 0 triggers nobody, and 1 every agent with a live match in
    view (no score reaches 1)."""
    cfg = data.draw(_reference_configs())
    if edge == "a table score":
        table = neighbourhood(build_floor(cfg.W, cfg.L, cfg.w), cfg)
        edge = data.draw(st.sampled_from([s for cone, _ in table for _, _, s in cone]))
    cfg.trigger_threshold = edge
    _assert_same_records(run(cfg), reference_run(cfg))


class _FocalFirst:
    """An rng stand-in whose permutation activates ``focal`` first, then
    the others in id order."""

    def __init__(self, focal):
        self.focal = focal

    def permutation(self, n):
        return np.array([self.focal, *(i for i in range(n) if i != self.focal)])


@st.composite
def _focal_layouts(draw):
    """A config and a focal agent off the exit among free cells, live
    agents and exited bodies in its cone, under random ids: the layouts of
    ``test_ranked_choose_pace_matches_one_pass`` (mixed, no free cell,
    nobody in view, equal best scores), with exited bodies on exit cells
    only, as the step's occupancy check requires.  The threshold is 0, 1,
    or at or one ulp either side of the best live score in view.
    Returns ``(config, cells, exited, focal)``: each agent's cell and
    exited flag by id."""
    W = draw(st.integers(1, 9))
    L = draw(st.integers(W + 1, 12))
    w = draw(st.just(W) | st.integers(1, W))
    floor = build_floor(W, L, w)
    radius = draw(st.integers(1, 4))
    config = SimConfig(c=1, w=w, W=W, L=L, vision_radius=radius,
                       d_max=draw(st.floats(0.5, 6.0)))
    n, exits = len(floor.cells), len(floor.exit_cells)
    beside_door = [k for k in range(exits, n) if floor.cells[k][1] <= radius]
    k = draw(st.sampled_from(beside_door) | st.integers(exits, n - 1))
    cone, _ = neighbourhood(floor, config)[k]
    scores = [score for _, _, score in cone]
    tied = [[i for i, other in enumerate(scores) if other == score] for score in set(scores)]
    tied = [group for group in tied if len(group) > 1]
    fills = ["mixed", "no free cell", "nobody in view"] + ["equal best scores"] * bool(tied)
    fill = draw(st.sampled_from(fills))
    choices = {
        "mixed": ["free", "live", "exited"],
        "no free cell": ["live", "exited"],
        "nobody in view": ["free", "exited"],
        "equal best scores": ["free", "exited"],
    }[fill]
    kinds = [draw(st.sampled_from([kind for kind in choices if kind != "exited" or q < exits]))
             for q, _, _ in cone]
    if fill == "equal best scores":  # the only live agents in view, beside exited bodies
        group = draw(st.sampled_from(tied))
        for i in group:
            kinds[i] = draw(st.sampled_from(["live"] + ["exited"] * (cone[i][0] < exits)))
        kinds[draw(st.sampled_from(group))] = "live"
    taken = [(q, kind) for (q, _, _), kind in zip(cone, kinds) if kind != "free"]
    focal, *ids = draw(st.permutations(range(len(taken) + 1)))
    cells, exited = [None] * (len(taken) + 1), bytearray(len(taken) + 1)
    cells[focal] = floor.cells[k]
    for (q, kind), agent_id in zip(taken, ids):
        cells[agent_id] = floor.cells[q]
        exited[agent_id] = kind == "exited"
    thresholds = [0.0, 1.0]
    live = [score for score, kind in zip(scores, kinds) if kind == "live"]
    if live:
        best = max(live)
        thresholds += [best, math.nextafter(best, -1.0), math.nextafter(best, 2.0)]
    config.c, config.trigger_threshold = len(cells), draw(st.sampled_from(thresholds))
    return config, cells, exited, focal


def _mirrored_at_best():
    """Agents 1 and 2 on mirrored cells ahead of agent 0, which faces
    straight down: they score equal, and the threshold is that score."""
    config = SimConfig(c=3, w=7, W=7, L=12)
    floor = build_floor(7, 12, 7)
    _, ranked = neighbourhood(floor, config)[cell_index(floor)[(3, 5)]]
    config.trigger_threshold = next(s for q, _, s in ranked if floor.cells[q] == (2, 3))
    return config, [(3, 5), (2, 3), (4, 3)], bytearray(3), 0


def _in_line_beyond_d_max():
    """Agents 1 and 2 straight ahead of agent 0, three and two cells
    away, both beyond ``d_max``: they score equal, so agent 1 is the match.
    Triggered, agent 0 heads for (2, 3), the free cell nearest agent 1 by
    Euclidean distance; (3, 4) is as near in taxicab steps and comes
    earlier in the cone."""
    config = SimConfig(c=3, w=7, W=7, L=12, d_max=1.5, trigger_threshold=1.0)
    return config, [(3, 5), (3, 2), (3, 3)], bytearray(3), 0


def _exited_body_at_best():
    """An exited body (agent 1) and a live agent (agent 2) on mirrored exit
    cells ahead of agent 0: they score equal, the body has the lower id,
    and the threshold triggers.  Only agent 2 is a match, so agent 0 veers
    toward (4, 0), not toward the body at (2, 0)."""
    config = SimConfig(c=3, w=7, W=7, L=12, trigger_threshold=1.0)
    return config, [(3, 2), (2, 0), (4, 0)], bytearray([0, 1, 0]), 0


@given(case=_focal_layouts())
@example(case=_mirrored_at_best())  # a best match scoring the threshold triggers nobody
@example(case=_in_line_beyond_d_max())
@example(case=_exited_body_at_best())
@settings(max_examples=200, deadline=None)
def test_step_paces_the_agent_it_activates_first_as_the_one_pass_decides(case):
    """The step's own scans, one activation at a time: the agent activated
    first ends on the one-pass decision's pace when that cell was free
    before the step, and otherwise stays where it was."""
    config, cells, exited, focal = case
    grid = WorldGrid(build_floor(config.W, config.L, config.w))
    crowd = crowd_on(grid, cells)
    crowd.exited[:] = exited
    floor, here = grid.floor, crowd.cell[focal]
    cone, _ = neighbourhood(floor, config)[here]
    pace = scalar_reference.one_pass_choose_pace(cone, grid.occupancy, crowd.exited,
                                                 floor.cells, config.trigger_threshold)
    moves = pace is not None and grid.occupancy[pace] == FREE
    step(grid, crowd, _FocalFirst(focal), config, 1)
    assert crowd.cell[focal] == (pace if moves else here)


@given(
    cfg=_small_configs(),
    threshold_factor=st.sampled_from([0.5, 1.0, 3.0]),
    persistence=st.integers(1, 4),
)
@settings(max_examples=20, deadline=None)
def test_detector_on_live_simulation_matches_full_trace(cfg, threshold_factor, persistence):
    """Streaming the run gives the stored trace's measurement, and an
    arch stops the simulation right after its persistence window."""
    floor = build_floor(cfg.W, cfg.L, cfg.w)
    records = run(cfg)
    read = []
    live = detect_arch_onset(reading(simulate(cfg), read), floor, threshold_factor, persistence)
    assert live == detect_arch_onset(records, floor, threshold_factor, persistence)
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
        assert (b.xs.dtype, b.ys.dtype, b.exited.dtype, b.moved.dtype) == (
            np.int16, np.int16, bool, bool,
        )
    assert back[-1].exited_count == 25
    assert path.read_text().splitlines()[0] == "t,agent_id,transverse,longitudinal,exited"


def _assert_same_records(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.t == y.t
        for name in ("xs", "ys", "exited", "moved"):
            assert np.array_equal(getattr(x, name), getattr(y, name))


def test_trace_csv_refuses_ids_out_of_order_within_a_step(tmp_path):
    """Ids permuted within a step are refused at that step's first line,
    not sorted: the writer lists every step's ids in order."""
    records = run(SimConfig(c=12, w=3, seed=2))
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    n = records[0].agent_count
    rng = np.random.default_rng(0)
    for s in (0, 3):
        order = rng.permutation(n)
        assert (order != np.arange(n)).any()
        permuted = rows[: s * n] + [rows[s * n + i] for i in order] + rows[(s + 1) * n:]
        path.write_text(header + "".join(permuted))
        with pytest.raises(ConfigError, match=rf": line {s * n + 2}: step {s} does not list"):
            read_trace_csv(path)


def test_trace_csv_reads_crlf_and_a_missing_final_newline(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(SimConfig(c=8, w=3, seed=1)), path)
    text = path.read_text()
    expected = read_trace_csv(path)
    for variant in (text.replace("\n", "\r\n"), text.rstrip("\n"),
                    text.replace("\n", "\r\n").rstrip("\r\n"), text.replace("\n", "\r")):
        path.write_bytes(variant.encode())
        _assert_same_records(read_trace_csv(path), expected)


def _scan_raises(*args):
    raise AssertionError("the line scan ran")


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "none"])
def test_written_traces_are_parsed_without_the_line_scan(tmp_path, monkeypatch, ending):
    """A trace archsim wrote is read by the array parse under any line
    ending and without a final one: the line scan, a slow fallback that
    would read it just as well, is never reached."""
    records = run(SimConfig(c=30, w=3, seed=4))
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    text = path.read_text()
    text = text.rstrip("\n") if ending == "none" else text.replace("\n", ending)
    path.write_bytes(text.encode())
    monkeypatch.setattr(engine, "_scan_rows", _scan_raises)
    _assert_same_records(read_trace_csv(path), records)


@pytest.mark.parametrize("suffix,ending", [
    pytest.param(suffix, ending, id=suffix + tag)
    for suffix in (".gz", ".bz2", ".xz", ".lzma")
    for ending, tag in [("\n", ""), ("\r\n", "-crlf"), ("\r", "-cr"), ("none", "-no-final-end")]
])
def test_trace_named_like_a_compressed_file_reads_as_text(tmp_path, monkeypatch, suffix, ending):
    """numpy's file reader decompresses a path by its suffix; a plain-text
    trace under such a name is still read as text, by the array parse of
    the open file under any line ending, not by the line scan."""
    records = run(SimConfig(c=10, w=3, seed=1))
    path = tmp_path / f"trace{suffix}"
    write_trace_csv(records, path)
    text = path.read_text()
    text = text.rstrip("\n") if ending == "none" else text.replace("\n", ending)
    path.write_bytes(text.encode())
    monkeypatch.setattr(engine, "_scan_rows", _scan_raises)
    _assert_same_records(read_trace_csv(path), records)


# rows whose x is a value at an edge of int32: the array parse reads
# each at int32, and the coordinate bound refuses it
INT32_EDGES_READ = ["2147483647", "-2147483648", "0002147483647"]
# one past an edge: the line scan refuses each as no integer
INT32_EDGES_SCANNED = ["2147483648", "-2147483649", "0002147483648"]


def _x_at_line_3(x):
    return f"0,0,1,5,0\n0,1,{x},5,0\n1,0,1,4,0\n1,1,2,5,0\n"


def test_the_line_scan_reads_no_rows(tmp_path, monkeypatch):
    """Only the array parse produces rows: where it refuses a body whose
    every line the scan would take, under any line ending and with int32's
    edges among its fields, the read still fails, naming the file."""
    path = tmp_path / "trace.csv"
    write_trace_csv(run(SimConfig(c=10, w=3, seed=1)), path)
    header = "t,agent_id,transverse,longitudinal,exited\n"
    texts = [path.read_text(), *(header + _x_at_line_3(x) for x in INT32_EDGES_READ)]

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", refuse)
    for text in texts:
        for ending in ("\n", "\r\n", "\r", "none"):
            variant = text.rstrip("\n") if ending == "none" else text.replace("\n", ending)
            path.write_bytes(variant.encode())
            with pytest.raises(ConfigError, match="does not parse as rows of 5 integers") as err:
                read_trace_csv(path)
            assert str(err.value).startswith(f"{path}: "), (text[:60], ending)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("x", INT32_EDGES_READ + INT32_EDGES_SCANNED)
def test_int32_edges_are_read_or_refused_by_the_scan(tmp_path, x, ending):
    """A field of ten or more digits is the only one that can pass int32:
    one within it is read and then refused by the coordinate bound, one
    beyond it is refused by the line scan."""
    path = tmp_path / "trace.csv"
    text = "t,agent_id,transverse,longitudinal,exited\n" + _x_at_line_3(x)
    path.write_bytes(text.replace("\n", ending).encode())
    with pytest.raises(ConfigError) as err:
        read_trace_csv(path)
    if x in INT32_EDGES_READ:
        assert str(err.value) == (
            f"{path}: line 3: exited must be 0 or 1 and coordinates within "
            f"0..{COORD_MAX}, got [0, 1, {int(x)}, 5, 0]"
        )
    else:
        assert str(err.value) == (
            f"{path}: line 3: expected 5 integers, got ['0', '1', '{x}', '5', '0']"
        )


def _ints(max_digits):
    return st.builds(lambda sign, digits: sign + digits, st.sampled_from(["", "-"]),
                     st.text("0123456789", min_size=1, max_size=max_digits))


# 2**31 - 1, 2**31 and 2**31 + 1, signed or not, with leading zeros or not
_EDGE_INTS = st.sampled_from([sign + pad + str(2**31 + d) for sign in ("", "-")
                              for pad in ("", "00") for d in (-1, 0, 1)])
_FIELD_TOKENS = _ints(12) | _EDGE_INTS | st.sampled_from(
    ["-", "--1", "1-", "+1", " 1", "1_0", "\xa0", ""]
)


def _rows_of(fields, min_size=5, max_size=5):
    return st.lists(fields, min_size=min_size, max_size=max_size).map(",".join)


_SCAN_LINES = st.one_of(
    _rows_of(_ints(9)), _rows_of(_ints(9)),  # rows the scan takes, drawn most often
    _rows_of(_ints(9) | _EDGE_INTS),  # within int32 or just past it
    _rows_of(_FIELD_TOKENS, 4, 6),
    st.just(""),  # a blank line
)


@given(lines=st.lists(_SCAN_LINES, min_size=2, max_size=6), final_end=st.booleans())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_the_line_scan_matches_the_per_field_scan(tmp_path_factory, lines, final_end):
    """The one-pattern line scan names the same line with the same message
    as the per-field scan it replaced, under every line ending."""
    path = tmp_path_factory.mktemp("scan") / "trace.csv"
    for ending in ("\n", "\r\n", "\r"):
        body = ending.join(lines) + (ending if final_end else "")
        path.write_bytes(("t,agent_id,transverse,longitudinal,exited" + ending + body).encode())
        messages = []
        for scan in (engine._scan_rows,
                     lambda path, fh: scalar_reference._scan_rows(path, fh, 5)):
            with table.open_table(path, engine.TRACE_HEADER, "trace") as fh:
                with pytest.raises(ConfigError) as err:
                    scan(path, fh)
            messages.append(str(err.value))
        assert messages[0] == messages[1], ending


def test_trace_csv_counts_a_crlf_split_between_read_chunks(tmp_path, monkeypatch):
    """A \\r\\n that straddles the 1 MiB boundary of the file's first read
    still ends one line, so the array parse reads the file; one of these
    zero paddings of the first row's x puts it across the boundary."""
    header = "t,agent_id,transverse,longitudinal,exited\r\n"
    rows = "".join(f"0,{i},1,5,0\r\n" for i in range(1, 90000))
    path = tmp_path / "trace.csv"
    monkeypatch.setattr(engine, "_scan_rows", _scan_raises)
    split = False
    for pad in range(16):
        text = header + "0,0," + "0" * pad + "1,5,0\r\n" + rows
        split |= text[(1 << 20) - 1:(1 << 20) + 1] == "\r\n"
        path.write_bytes(text.encode())
        assert read_trace_csv(path)[0].agent_count == 90000
    assert split


def _records_of(xs, ys, exited):
    """StepRecords of per-step coordinates and exited flags, each of shape
    (steps, n), with moved derived as a read derives it."""
    moved = np.zeros_like(exited)
    moved[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    return [StepRecord(t, xs[t], ys[t], exited[t], moved[t]) for t in range(len(xs))]


def _parsed_dtype(path):
    """The type the array parse reads the trace body at ``path`` as."""
    with table.open_table(path, engine.TRACE_HEADER, "trace") as fh:
        return engine._load_rows(path, fh).dtype


@pytest.mark.parametrize("steps,n", [(32770, 1), (1, 32770)], ids=["long-run", "large-crowd"])
def test_traces_past_int16_are_parsed_as_int32(tmp_path, monkeypatch, steps, n):
    """A step or an agent id past 32767 is valid, since max_steps has no
    upper bound: such a trace is read by the array parse at int32, not by
    the line scan."""
    t = np.arange(steps)[:, None]
    i = np.arange(n)
    xs = ((t + i) % 19).astype(np.int16)
    ys = ((t * 7 + i) % 60).astype(np.int16)
    exited = np.maximum.accumulate((t + i) % 5 == 4, axis=0)  # once exited, always
    records = _records_of(xs, ys, exited)
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    monkeypatch.setattr(engine, "_scan_rows", _scan_raises)
    assert _parsed_dtype(path) == np.int32
    _assert_same_records(read_trace_csv(path), records)


def _traced_peak(fn, *args):
    """The tracemalloc peak of ``fn(*args)``, in bytes above what was
    traced when it was called."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_trace_read_peaks_at_20_bytes_per_row(tmp_path):
    """The reader parses the body as int16, the records' own type, and
    copies no full-length index: on the 262,800-row trace of c=450, w=1,
    its peak, the records included, stays within 20 bytes per row
    (15.3 measured).  So it does under a name numpy would decompress,
    and when one blank line after the last row is refused: the line scan
    that names it keeps no row."""
    records = run(SimConfig(c=450, w=1, seed=0))
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    rows = len(records) * records[0].agent_count
    assert rows == 262_800
    assert _traced_peak(read_trace_csv, path) <= 20 * rows
    assert _parsed_dtype(path) == np.int16
    named_gz = tmp_path / "trace.csv.gz"
    named_gz.write_bytes(path.read_bytes())
    assert _traced_peak(read_trace_csv, named_gz) <= 20 * rows
    blank_last = tmp_path / "blank.csv"
    blank_last.write_bytes(path.read_bytes() + b"\n")

    def refused():
        with pytest.raises(ConfigError) as err:
            read_trace_csv(blank_last)
        assert str(err.value).startswith(f"{blank_last}: line 262802:")

    assert _traced_peak(refused) <= 20 * rows


def test_trace_write_peak_does_not_grow_with_the_record_count(tmp_path):
    """The writer checks coordinates a bounded block of records at a
    time: ten times the records do not double its peak."""
    rng = np.random.default_rng(0)
    shape = (600, 450)
    xs = rng.integers(0, 19, shape, dtype=np.int16)
    ys = rng.integers(0, 60, shape, dtype=np.int16)
    records = _records_of(xs, ys, np.zeros(shape, dtype=bool))
    short, long = (_traced_peak(write_trace_csv, records[:count], tmp_path / f"{count}.csv")
                   for count in (60, 600))
    assert long < 2 * short


def test_trace_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_trace_csv(path)


MALFORMED_STEPS = [
    pytest.param("0,0,1,5,0\n0,1,2,5,0\n1,0,1,4,0\n", 4, id="missing-agent"),
    pytest.param("0,0,1,5,0\n0,1,2,5,0\n1,0,1,4,0\n1,0,2,4,0\n", 4, id="duplicate-agent"),
    pytest.param("0,0,1,5,0\n0,2,2,5,0\n", 2, id="skipped-id"),
    pytest.param("0,0,1,5,0\n0,1,2,5\n", 3, id="short-row"),
    pytest.param("0,0,1,5,0\n0,1,2.5,5,0\n", 3, id="non-integer"),
    pytest.param("0,0,1,5,7\n", 2, id="exited-not-flag"),
    pytest.param("0,0,1,5,0\n0,1,-3,5,0\n", 3, id="negative-coordinate"),
    pytest.param("0,0,1,5,0\n0,1,2,-5,0\n", 3, id="negative-longitudinal"),
    pytest.param("0,0,1,5,-1\n", 2, id="negative-exited"),
    pytest.param("0,0,1,5,0\n0,1,2,40000,0\n", 3, id="int16-overflow"),
    pytest.param("0,0,1,5,0\n1,0,1,4,0\n3,0,1,3,0\n", 4, id="step-gap"),
    pytest.param("1,0,1,5,0\n2,0,1,4,0\n", 2, id="first-step-not-zero"),
    pytest.param("-1,0,1,5,0\n0,0,1,5,0\n1,0,1,4,0\n", 2, id="first-step-negative"),
    pytest.param("0,0,1,5,0\n0,1,2,0,1\n1,0,1,4,0\n1,1,2,0,0\n", 4, id="un-exit"),
    pytest.param("0,0,1,5,0\n1,0,1,4,0\n0,1,2,5,0\n", 4, id="step-revisited"),
    pytest.param("0,0,1,5,0\n0,1,2,5,0\n1,1,2,4,0\n1,0,1,4,0\n", 4, id="ids-out-of-order"),
    pytest.param("0,0,1,5,0\n0,1,2,5,0\n1,0,1,4,0\n1,1,2,4,0\n1,2,3,4,0\n", 6,
                 id="long-step"),
    pytest.param("0,0,1,5,0\n0,1,2,5,0\n1,0,1,4,0\n2,0,1,3,0\n2,1,2,3,0\n", 5,
                 id="short-middle-step"),
]


@pytest.mark.parametrize("body,line", MALFORMED_STEPS)
def test_trace_csv_rejects_malformed_steps(tmp_path, body, line):
    path = tmp_path / "trace.csv"
    path.write_text("t,agent_id,transverse,longitudinal,exited\n" + body)
    with pytest.raises(ConfigError) as err:
        read_trace_csv(path)
    assert str(err.value).startswith(f"{path}: line {line}:")


UNREADABLE_ROWS = [
    pytest.param("0,0,1,5,0\n\n0,1,2,5,0\n", 3, id="blank-line"),
    pytest.param("0,0,1,5,0\n0,1,2,5,0\n\n", 4, id="trailing-blank-line"),
    pytest.param("0,0,1,5,0\n0,1,\"0\",5,0\n1,0,1,4,0\n", 3, id="quoted-field"),
    pytest.param("0,0,1,5,0\n0,1_0,2,5,0\n1,0,1,4,0\n", 3, id="underscore-field"),
    pytest.param("0,0,1,5,0\n0,1,2,99999999999,0\n1,0,1,4,0\n", 3, id="int32-overflow"),
    pytest.param("0,0,1,5,0\n0,1,2,5,99999999999\n1,0,1,4,0\n", 3,
                 id="int32-overflow-in-flag"),
    # two faults: the one earlier in the file is named
    pytest.param("0,0,1,5,0\n\n0,1,2.5,5,0\n", 3, id="blank-line-before-bad-field"),
    pytest.param("0,0,1,5,0\n0,1,2.5,5,0\n\n", 3, id="bad-field-before-trailing-blank"),
    # rows of another width: the array parse reads them, or fails on the second
    pytest.param("0,0,1,5,0,1\n0,1,2,5,0,1\n", 2, id="six-fields-throughout"),
    pytest.param("0,0,1,5,0,1\n0,1,2,5,0\n", 2, id="six-fields-then-five"),
    pytest.param("\n0,0,1,5,0,1\n0,1,2,5,0,1\n", 2, id="blank-line-before-six-fields"),
    # fields int() would read as 2: only -?[0-9]+ is an int
    *(pytest.param(f"0,0,1,5,0\n0,1,{field},5,0\n1,0,1,4,0\n1,1,2,4,0\n", 3, id=name)
      for name, field in [("plus-sign", "+2"), ("leading-space", " 2"),
                          ("trailing-space", "2 "), ("leading-tab", "\t2"),
                          ("trailing-vertical-tab", "2\x0b"), ("trailing-nbsp", "2\xa0")]),
]


@pytest.mark.parametrize("body,line", UNREADABLE_ROWS)
def test_trace_csv_rejects_fields_the_array_parse_cannot_read(tmp_path, body, line):
    path = tmp_path / "trace.csv"
    path.write_text("t,agent_id,transverse,longitudinal,exited\n" + body)
    with pytest.raises(ConfigError) as err:
        read_trace_csv(path)
    assert str(err.value).startswith(f"{path}: line {line}:")


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("body,line", MALFORMED_STEPS + UNREADABLE_ROWS)
def test_trace_csv_names_the_same_line_under_any_line_ending(tmp_path, body, line, ending):
    """The line a fault is reported on does not depend on how lines end."""
    path = tmp_path / "trace.csv"
    text = "t,agent_id,transverse,longitudinal,exited\n" + body
    path.write_bytes(text.replace("\n", ending).encode())
    with pytest.raises(ConfigError) as err:
        read_trace_csv(path)
    assert str(err.value).startswith(f"{path}: line {line}:")


@given(field=st.text(st.sampled_from("0123456789+-_ \t\"'.e\x0c\x00\u0665\xa0"), max_size=12)
       | st.integers(-(2**40), 2**40).map(str))
@settings(max_examples=200, deadline=None)
def test_trace_csv_field_reads_or_names_its_line(tmp_path_factory, field):
    """Any text in one coordinate field either reads as that integer or
    fails naming its line, never another one."""
    path = tmp_path_factory.mktemp("field") / "trace.csv"
    path.write_text(
        "t,agent_id,transverse,longitudinal,exited\n"
        f"0,0,1,5,0\n0,1,{field},5,0\n1,0,1,4,0\n1,1,2,5,0\n"
    )
    try:
        records = read_trace_csv(path)
    except ConfigError as err:
        assert str(err).startswith(f"{path}: line 3:")
    else:
        assert records[0].xs[1] == int(field)


@pytest.mark.parametrize(
    "config,sha256",
    [
        (SimConfig(c=120, w=5, seed=3),
         "8cb824c94d30efd41a6c741867cad3f9063a3d5d0a25303e4acddc2240d28b68"),
        (SimConfig(c=60, w=3, seed=7, vision_radius=2, d_max=4.5, trigger_threshold=0.7),
         "a78e772406b7da29e7a480fe74cd2fc6e8ad3eac08ddab270b665c073cdcb3a4"),
    ],
    ids=["criterion-6-run", "radius-2"],
)
def test_trace_bytes_are_pinned(tmp_path, config, sha256):
    """The step kernel's outputs are a contract: these traces were recorded
    before the per-cell neighbourhood table replaced the cone scan, and any
    change to the kernel must leave them byte-identical."""
    path = tmp_path / "trace.csv"
    write_trace_csv(run(config), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


_COORDS = st.integers(0, COORD_MAX) | st.sampled_from([0, COORD_MAX])


@st.composite
def _traces(draw):
    """1 to 20 steps of 0 to 30 agents, at any coordinates the reader
    accepts, each agent exited or not at random."""
    n, steps = draw(st.integers(0, 30)), draw(st.integers(1, 20))
    xs, ys = (draw(arrays(np.int16, (steps, n), elements=_COORDS)) for _ in "xy")
    exited = draw(arrays(bool, (steps, n)))
    moved = np.zeros(n, dtype=bool)
    return [StepRecord(t, xs[t], ys[t], exited[t], moved) for t in range(steps)]


@given(records=_traces())
@example(records=[make_record(0, [])])  # an empty crowd: the header alone
@settings(max_examples=40, deadline=None)
def test_trace_bytes_equal_the_csv_writer_reference(tmp_path_factory, records):
    out = tmp_path_factory.mktemp("trace")
    write_trace_csv(records, out / "trace.csv")
    scalar_reference.write_trace_csv(records, out / "reference.csv")
    assert (out / "trace.csv").read_bytes() == (out / "reference.csv").read_bytes()


@st.composite
def _evolving_traces(draw):
    """1 to 20 steps of 1 to 30 agents, each step the previous one with
    some agents changed: moved, flipped between exited and not in place,
    or put back to the row of an earlier step."""
    n, steps = draw(st.integers(1, 30)), draw(st.integers(1, 20))
    xs, ys = (draw(arrays(np.int16, n, elements=_COORDS)) for _ in "xy")
    records = [StepRecord(0, xs, ys, draw(arrays(bool, n)), np.zeros(n, dtype=bool))]
    for t in range(1, steps):
        prev = records[-1]
        xs, ys, exited = prev.xs.copy(), prev.ys.copy(), prev.exited.copy()
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            change = draw(st.sampled_from(["move", "flip", "revert"]))
            if change == "move":
                xs[i], ys[i] = draw(_COORDS), draw(_COORDS)
            elif change == "flip":
                exited[i] = not exited[i]
            else:
                old = records[draw(st.integers(0, t - 1))]
                xs[i], ys[i], exited[i] = old.xs[i], old.ys[i], old.exited[i]
        records.append(StepRecord(t, xs, ys, exited, np.zeros(n, dtype=bool)))
    return records


@given(records=_evolving_traces())
@example(records=[
    make_record(0, [(0, 5), (1, 5), (2, 5), (3, 5)]),
    make_record(1, [(0, 4), (1, 5), (2, 5), (3, 5)]),  # one row changes
    make_record(2, [(0, 4), (1, 5), (2, 5), (3, 5)], exited=[1]),  # exits in place
    make_record(3, [(1, 3), (2, 4), (3, 4), (COORD_MAX, 0)]),  # every row changes
    make_record(4, [(0, 4), (2, 4), (3, 4), (COORD_MAX, 0)]),  # back to step 1's row
])
@settings(max_examples=40, deadline=None)
def test_trace_bytes_equal_the_reference_when_few_rows_change(tmp_path_factory, records):
    """Steps that re-render only the rows that changed since the previous
    record, whether none, a few or all of them, and steps that keep rows
    rendered before a step in which every row changed, write the
    reference's bytes."""
    out = tmp_path_factory.mktemp("trace")
    write_trace_csv(records, out / "trace.csv")
    scalar_reference.write_trace_csv(records, out / "reference.csv")
    assert (out / "trace.csv").read_bytes() == (out / "reference.csv").read_bytes()


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_trace_csv_refuses_a_shuffled_step_at_its_first_line(tmp_path_factory, data):
    """Ids shuffled within any subset of the steps are refused at the first
    line of the first step whose ids moved; a file whose shuffles moved no
    id reads back as the ordered file."""
    n, steps = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 8))
    xs, ys = (data.draw(arrays(np.int16, (steps, n), elements=_COORDS)) for _ in "xy")
    exited = np.logical_or.accumulate(data.draw(arrays(bool, (steps, n))), axis=0)
    records = [StepRecord(t, xs[t], ys[t], exited[t], exited[t]) for t in range(steps)]
    out = tmp_path_factory.mktemp("shuffled")
    write_trace_csv(records, out / "trace.csv")
    header, *rows = (out / "trace.csv").read_text().splitlines(keepends=True)
    shuffled = data.draw(st.sets(st.integers(0, steps - 1)))
    orders = [data.draw(st.permutations(range(n))) if s in shuffled else list(range(n))
              for s in range(steps)]
    body = [rows[s * n + i] for s in range(steps) for i in orders[s]]
    (out / "shuffled.csv").write_text(header + "".join(body))
    moved = [s for s in range(steps) if orders[s] != list(range(n))]
    if not moved:
        _assert_same_records(read_trace_csv(out / "shuffled.csv"),
                             read_trace_csv(out / "trace.csv"))
        return
    with pytest.raises(ConfigError, match=rf": line {moved[0] * n + 2}: step {moved[0]} "):
        read_trace_csv(out / "shuffled.csv")


@pytest.mark.parametrize(
    "xs,dtype,agent",
    [([1, -1], np.int16, 1), ([COORD_MAX + 1, 2], np.int32, 0)],
    ids=["negative", "beyond-int16"],
)
def test_trace_writer_rejects_coordinates_the_reader_rejects(tmp_path, xs, dtype, agent):
    """A coordinate outside 0..COORD_MAX fails naming its step, before the
    file is made."""
    first, bad = make_record(0, [(1, 5), (2, 5)]), make_record(3, [(1, 4), (2, 4)])
    bad.xs = np.array(xs, dtype=dtype)
    path = tmp_path / "trace.csv"
    with pytest.raises(ArchsimError, match=rf"^step 3: agent {agent} at \({xs[agent]}, 4\)"):
        write_trace_csv([first, bad], path)
    assert not path.exists()


def test_trace_writer_rejects_a_changing_agent_count(tmp_path):
    records = [make_record(0, [(1, 5), (2, 5)]), make_record(1, [(1, 4), (2, 5)]),
               make_record(2, [(1, 3)])]
    path = tmp_path / "trace.csv"
    with pytest.raises(ArchsimError, match="^step 2: 1 agents where step 0 has 2$"):
        write_trace_csv(records, path)
    assert not path.exists()


def test_trace_csv_without_rows_is_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(SimConfig(c=0, w=7)), path)  # an empty crowd: header only
    with pytest.raises(ConfigError, match="no rows"):
        read_trace_csv(path)


def test_summary_csv(tmp_path):
    """Each row's exits equal the tuple-keyed kernel's own count of the
    step's exits.  With spawn_margin = 0, an agent spawned on an exit cell
    counts at its first activation."""
    for cfg in SimConfig(c=10, w=5, seed=1), SimConfig(c=60, w=3, spawn_margin=0, seed=0):
        records = run(cfg)
        path = tmp_path / "summary.csv"
        write_summary_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,exits_this_step,stationary_count"
        assert len(lines) == len(records) + 1
        exits = [int(line.split(",")[1]) for line in lines[1:]]
        assert exits == [rec.exits_this_step for rec in reference_run(cfg)]
        assert sum(exits) == cfg.c
    assert (records[0].ys == 0).any()  # the last run spawned an agent on an exit cell
