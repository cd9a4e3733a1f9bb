"""Clog-cluster detection, arch onset and axis measurement."""

import random

import pytest

from archsim.engine import SimConfig, read_trace_csv, run, write_trace_csv
from archsim.errors import ArchsimError
from archsim.metrics import clog_cluster, detect_arch_onset, measure_axes
from archsim.world import build_floor

from conftest import make_record, reading


def _oracle_clog(record, floor):
    """Independent BFS oracle for the largest exit-touching stationary blob."""
    cells = {
        (int(x), int(y))
        for x, y, ex, mv in zip(record.xs, record.ys, record.exited, record.moved)
        if not ex and not mv
    }
    comps, seen = [], set()
    for start in cells:
        if start in seen:
            continue
        comp, stack = set(), [start]
        seen.add(start)
        while stack:
            x, y = stack.pop()
            comp.add((x, y))
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = (x + dx, y + dy)
                    if nb in cells and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        comps.append(comp)
    touching = [
        comp
        for comp in comps
        if any(
            (cx - ex) ** 2 + (cy - ey) ** 2 <= 1
            for cx, cy in comp
            for ex, ey in floor.exit_cells
        )
    ]
    if not touching:
        return set()
    return min(touching, key=lambda comp: (-len(comp), min(comp)))


# -------------------------------------------------------------- clog_cluster

def test_free_flowing_step_has_no_cluster():
    floor = build_floor(19, 60, 7)
    rec = make_record(3, [(9, 1), (10, 2), (8, 3)], moved=(0, 1, 2))
    assert clog_cluster(rec, floor) == set()


def test_isolated_stationary_agent_at_exit_is_singleton():
    floor = build_floor(19, 60, 7)
    rec = make_record(3, [(6, 1), (10, 30)], moved=(1,))
    assert clog_cluster(rec, floor) == {(6, 1)}


def test_exit_adjacency_is_euclidean_not_diagonal():
    """A lone stationary agent on a floor cell with ``y <= 1`` forms a
    one-agent cluster exactly when it is within Euclidean distance 1 of an
    exit cell (``_oracle_clog``'s rule), on every floor of width 4, 11 and
    19 with every exit width: those where the exit's edge cell touches a
    side wall (W=4, w=3) and those where the exit fills the wall too."""
    floor = build_floor(19, 60, 7)
    # (5,1) is sqrt(2) from the nearest exit cell (6,0): not adjacent
    assert clog_cluster(make_record(0, [(5, 1)]), floor) == set()
    assert clog_cluster(make_record(0, [(6, 1)]), floor) == {(6, 1)}
    assert clog_cluster(make_record(0, [(6, 0)]), floor) == {(6, 0)}
    anchored = 0
    for W in (4, 11, 19):
        for w in range(1, W + 1):
            floor = build_floor(W, 20, w)
            for cell in floor.cells[: w + W]:  # the exit cells, then row 1
                rec = make_record(0, [cell])
                expected = _oracle_clog(rec, floor)
                assert clog_cluster(rec, floor) == expected, (W, w, cell)
                anchored += len(expected)
    assert anchored == 2 * sum(range(1, 20)) + 2 * sum(range(1, 12)) + 2 * sum(range(1, 5))


def test_blob_plus_distant_stragglers():
    """12-agent blob touching the exit wins over 3 distant stationary agents."""
    floor = build_floor(19, 60, 7)
    blob = [(x, y) for x in (8, 9, 10, 11) for y in (1, 2, 3)]
    distant = [(2, 40), (3, 41), (16, 50)]
    rec = make_record(9, blob + distant)
    cluster = clog_cluster(rec, floor)
    assert cluster == set(blob)
    assert len(cluster) == 12
    assert cluster == _oracle_clog(rec, floor)


def test_equal_size_tie_prefers_smaller_min_cell():
    floor = build_floor(19, 60, 19)  # whole wall is exit: both blobs touch
    left = [(0, 1), (1, 1), (2, 1)]
    right = [(10, 1), (11, 1), (12, 1)]
    rec = make_record(0, left + right)
    assert clog_cluster(rec, floor) == set(left)


def test_exited_agents_never_cluster():
    floor = build_floor(19, 60, 7)
    rec = make_record(4, [(9, 1), (9, 2)], exited=(1,))
    assert clog_cluster(rec, floor) == {(9, 1)}
    # nor can an exited body anchor its neighbors to the exit: alone,
    # (9, 2) is two cells from the exit row and does not qualify
    rec2 = make_record(4, [(9, 1), (9, 2)], exited=(0,))
    assert clog_cluster(rec2, floor) == set()


def test_clog_cluster_matches_oracle_on_random_layouts():
    """Seeded random <=30-agent layouts inside an 11x11 window."""
    rnd = random.Random(4021)
    for trial in range(300):
        w = rnd.choice([1, 3, 5, 7, 11])
        floor = build_floor(11, 12, w)
        cells = [(x, y) for x in range(11) for y in range(11) if (x, y) in floor.heading]
        n = rnd.randint(0, 30)
        layout = rnd.sample(cells, n)
        moved = [i for i in range(n) if rnd.random() < 0.35]
        rec = make_record(trial, layout, moved=moved)
        assert clog_cluster(rec, floor) == _oracle_clog(rec, floor), (trial, w, layout)


def _column(x, y0, height):
    return [(x, y) for y in range(y0, y0 + height)]


def test_clog_cluster_matches_oracle_on_seeding_layouts():
    """Seeded layouts aimed at the flood fills that start from the exit:
    equal anchored components where min(comp) decides, live agents
    standing on exit cells (the t=0 record with spawn_margin=0), blobs
    touching the exit row only diagonally (distance sqrt(2): no anchor),
    an exit across the whole end wall, and large stationary crowds
    behind the clog."""
    # equal anchored components: the one with the smaller min cell reaches
    # farther along the wall, so only min(comp) decides for it
    floor = build_floor(11, 30, 11)
    hook = [(0, 1), (0, 2), (0, 3)] + [(x, 4) for x in range(1, 8)]
    block = [(x, y) for x in range(3, 8) for y in (1, 2)]
    for layout in (hook + block, block + hook):
        rec = make_record(0, layout)
        assert clog_cluster(rec, floor) == _oracle_clog(rec, floor) == set(hook)

    rnd = random.Random(1506)
    for trial in range(60):
        # two equal anchored columns, listed in either order
        W = rnd.randint(5, 19)
        floor = build_floor(W, 30, rnd.randint(3, W))
        (x0, _), (x1, _) = floor.exit_cells[0], floor.exit_cells[-1]
        a = rnd.randint(x0, x1 - 2)
        b = rnd.randint(a + 2, x1)
        height = rnd.randint(1, 6)
        columns = [_column(a, rnd.randint(0, 1), height), _column(b, rnd.randint(0, 1), height)]
        rnd.shuffle(columns)
        rec = make_record(trial, columns[0] + columns[1])
        expected = min(map(set, columns), key=min)
        assert clog_cluster(rec, floor) == _oracle_clog(rec, floor) == expected, (trial, W)

        # live agents on exit cells, some linked to a stationary blob behind
        on_exit = rnd.sample(floor.exit_cells, rnd.randint(1, len(floor.exit_cells)))
        behind = rnd.sample([cell for cell in floor.cells if 1 <= cell[1] <= 6], 12)
        layout = list(dict.fromkeys(on_exit + behind))
        moved = [i for i in range(len(layout)) if rnd.random() < 0.3]
        rec = make_record(0, layout, moved=moved)
        assert clog_cluster(rec, floor) == _oracle_clog(rec, floor), (trial, layout)

        # a blob meeting the one-cell exit's row only across a corner
        floor = build_floor(W, 30, 1)
        (e, _), = floor.exit_cells
        side = e + rnd.choice([-1, 1]) if 0 < e < W - 1 else (1 if e == 0 else W - 2)
        blob = _column(side, 1, rnd.randint(1, 5)) + _column(e, rnd.randint(2, 3), 3)
        rec = make_record(trial, blob)
        assert clog_cluster(rec, floor) == _oracle_clog(rec, floor) == set(), (trial, blob)

        # the whole end wall an exit
        floor = build_floor(W, 30, W)
        layout = rnd.sample(floor.cells, rnd.randint(0, 3 * W))
        moved = [i for i in range(len(layout)) if rnd.random() < 0.35]
        rec = make_record(trial, layout, moved=moved)
        assert clog_cluster(rec, floor) == _oracle_clog(rec, floor), (trial, W, layout)

    for trial in range(10):
        # a clog at the exit and a dense stationary crowd behind it, joined or not
        w = rnd.choice([1, 3, 7, 19])
        floor = build_floor(19, 60, w)
        clog = [cell for cell in floor.cells if cell[1] <= 3 and rnd.random() < 0.7]
        crowd = [cell for cell in floor.cells
                 if rnd.randint(4, 5) <= cell[1] <= 50 and rnd.random() < 0.6]
        layout = clog + crowd
        moved = [i for i in range(len(layout)) if rnd.random() < 0.1]
        rec = make_record(trial, layout, moved=moved)
        assert clog_cluster(rec, floor) == _oracle_clog(rec, floor), (trial, w)


# ------------------------------------------------------------------- onset

def _half_disk_cells(w=7):
    """Discrete half-disk of radius 4 on the exit midpoint, walls clipped."""
    floor = build_floor(19, 60, w)
    return {
        (9 + dx, dy)
        for dy in range(0, 5)
        for dx in range(-4, 5)
        if dx * dx + dy * dy <= 16 and (9 + dx, dy) in floor.heading
    }


def test_unclogged_single_agent_has_no_arch():
    floor = build_floor(19, 60, 7)
    records = run(SimConfig(c=1, w=7, seed=3))
    result = detect_arch_onset(records, floor)
    assert not result.arch_detected
    assert result.T is None and result.M is None and result.m is None


def test_half_disk_onset_at_t17():
    floor = build_floor(19, 60, 7)
    cells = sorted(_half_disk_cells())
    assert len(cells) == 27  # above the 3*w = 21 threshold
    moving = [make_record(t, cells, moved=range(len(cells))) for t in range(17)]
    still = [make_record(t, cells) for t in range(17, 22)]
    result = detect_arch_onset(moving + still, floor)
    assert result.arch_detected
    assert result.T == 17
    assert result.cluster_size == 27
    assert (result.M, result.m) == (4, 7)


def test_transient_cluster_is_not_onset():
    """A qualifying cluster must stay nonempty for the next 3 steps."""
    floor = build_floor(19, 60, 7)
    cells = sorted(_half_disk_cells())
    ids = range(len(cells))
    frames = []
    for t in range(14):
        if t in (5, 6) or t >= 9:
            frames.append(make_record(t, cells))            # stationary
        else:
            frames.append(make_record(t, cells, moved=ids))  # dissolved
    result = detect_arch_onset(frames, floor)
    # t=5 qualifies on size but its cluster dissolves at t=7; the run of
    # stationary frames from t=9 leaves a full persistence window
    assert result.T == 9


def _column_frames(sizes):
    """One frame per size: a stationary column of that many agents on the
    exit (size 0: the same column, all moving), so each frame's clog
    cluster holds exactly `size` cells."""
    column = [(9, y) for y in range(1, 1 + max(sizes))]
    return [
        make_record(t, column, moved=range(n, len(column)))
        for t, n in enumerate(sizes)
    ]


def _reference_onset(frames, floor, threshold_factor, persistence):
    """The detector's definition spelled out on the stored trace: the first
    qualifying step whose next `persistence` clusters are all nonempty."""
    clusters = [clog_cluster(rec, floor) for rec in frames]
    for i, cluster in enumerate(clusters):
        window = clusters[i + 1 : i + 1 + persistence]
        if len(cluster) >= threshold_factor * len(floor.exit_cells) and (
            len(window) == persistence and all(window)
        ):
            return frames[i].t, len(cluster)
    return None


def test_empty_cluster_in_window_resumes_scan_after_it():
    floor = build_floor(19, 60, 1)  # threshold 3
    # t=0 and t=1 qualify, but t=2 is empty; t=3 qualifies and holds
    frames = _column_frames([3, 4, 0, 3, 1, 1, 2, 5, 5])
    read = []
    result = detect_arch_onset(reading(frames, read), floor)
    assert (result.T, result.cluster_size) == (3, 3)
    assert read == [0, 1, 2, 3, 4, 5, 6]  # stopped at T + persistence


def test_trace_ending_inside_the_window_has_no_arch():
    floor = build_floor(19, 60, 1)
    frames = _column_frames([1, 0, 4, 2, 1])  # t=2 qualifies, trace ends at t=4
    read = []
    assert not detect_arch_onset(reading(frames, read), floor).arch_detected
    assert read == [0, 1, 2, 3, 4]
    assert detect_arch_onset(frames, floor, persistence=2).T == 2


def test_streaming_detector_matches_reference_on_random_traces():
    floor = build_floor(19, 60, 1)
    rnd = random.Random(77)
    for trial in range(400):
        sizes = [rnd.choice([0, 0, 1, 2, 3, 4]) for _ in range(rnd.randint(1, 12))]
        sizes.append(1)  # keep the column at least one cell tall
        frames = _column_frames(sizes)
        threshold_factor = rnd.choice([1.0, 3.0, 4.0])
        persistence = rnd.randint(0, 4)
        result = detect_arch_onset(frames, floor, threshold_factor, persistence)
        expected = _reference_onset(frames, floor, threshold_factor, persistence)
        got = (result.T, result.cluster_size) if result.arch_detected else None
        assert got == expected, (trial, sizes, threshold_factor, persistence)


def test_zero_threshold_takes_no_empty_cluster_as_onset():
    """At threshold_factor 0 every cluster is large enough, but an empty
    one is no candidate: the onset is the first nonempty cluster."""
    floor = build_floor(19, 60, 1)
    frames = _column_frames([0, 1, 1, 1, 1])
    result = detect_arch_onset(frames, floor, threshold_factor=0.0)
    assert (result.T, result.M, result.m, result.cluster_size) == (1, 1, 1, 1)


def test_onset_threshold_scales_with_exit_width():
    floor = build_floor(19, 60, 7)
    small = [(x, 1) for x in range(6, 13)]  # 7 cells: below the 3*7 threshold
    frames = [make_record(t, small) for t in range(10)]
    assert not detect_arch_onset(frames, floor).arch_detected
    assert detect_arch_onset(frames, floor, threshold_factor=1.0).arch_detected


def test_detector_is_deterministic_on_stored_trace(tmp_path):
    from archsim.sweep import derive_seed

    cfg = SimConfig(c=200, w=3, seed=derive_seed(0, 200, 3, 0))
    floor = build_floor(cfg.W, cfg.L, cfg.w)
    records = run(cfg)
    first = detect_arch_onset(records, floor)
    assert first.arch_detected
    write_trace_csv(records, tmp_path / "trace.csv")
    second = detect_arch_onset(read_trace_csv(tmp_path / "trace.csv"), floor)
    assert (first.T, first.M, first.m, first.cluster_size) == (
        second.T, second.M, second.m, second.cluster_size,
    )


def test_width_overflow_is_a_hard_assertion():
    # corrupt trace: contiguous stationary row wider than the corridor
    floor = build_floor(19, 60, 7)
    row = [(x, 1) for x in range(-2, 21)]
    frames = [make_record(t, row) for t in range(6)]
    with pytest.raises(ArchsimError):
        detect_arch_onset(frames, floor)


# ------------------------------------------------------------- measure_axes

def test_single_agent_axes():
    assert measure_axes({(9, 1)}) == (1, 1)


def test_half_disk_axes():
    # pure geometry, no wall clipping: radius 4 spans 9 columns, 4 rows deep
    cells = {
        (9 + dx, dy)
        for dy in range(0, 5)
        for dx in range(-4, 5)
        if dx * dx + dy * dy <= 16
    }
    assert measure_axes(cells) == (4, 9)


def test_full_width_cluster():
    cells = {(x, 1) for x in range(19)} | {(x, 2) for x in range(19)}
    M, m = measure_axes(cells)
    assert m == 19


def test_half_ellipse_extents_recovered_exactly():
    a, b = 5, 3
    cells = {
        (9 + dx, dy)
        for dx in range(-a, a + 1)
        for dy in range(0, b + 1)
        if (dx / a) ** 2 + (dy / b) ** 2 <= 1.0
    }
    assert measure_axes(cells) == (b, 2 * a + 1)

