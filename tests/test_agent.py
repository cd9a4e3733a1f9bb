"""Vision cone geometry, similarity scoring, the neighbourhood table and the
per-cell pace decision."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import scalar_reference
from conftest import cell_index, crowd_on as _crowd
from scalar_reference import (
    Agent, build_neighbourhood, cone_offsets, heading_toward, is_free, one_pass_choose_pace,
    signed_deviation, similarity, step_pace, wrap_angle,
)

from archsim import agent as agent_module
from archsim.agent import _build_neighbourhood, cone_holders, neighbourhood
from archsim.engine import SimConfig
from archsim.world import FREE, WALL, Floor, WorldGrid, build_floor

HALF_CONE_DEG = 50.0
CONFIG = SimConfig(c=2, w=1)  # d_max = vision_radius = 3, trigger_threshold = 0.5


# ---------------------------------------------------------------- similarity

def test_heading_similarity_quarter_turn():
    # same cell (distance term 1), headings pi/2 apart (heading term 0.5)
    assert similarity(0.0, 0.0, math.pi / 2, CONFIG) == pytest.approx(0.5 * 1.0 + 0.5 * 0.5)


def test_distance_similarity_saturates():
    assert similarity(0.0, 0.0, 0.0, CONFIG) == 1.0
    assert similarity(3.0, 0.0, 0.0, CONFIG) == 0.5  # at d_max = 3
    assert similarity(math.hypot(7, 4), 0.0, 0.0, CONFIG) == 0.5  # clamped


def test_weighted_similarity_example():
    """Term scores (0.5, 0.25) under equal weights -> 0.375."""
    config = SimConfig(c=2, w=1, d_max=10.0)
    # 5 cells apart, headings 3*pi/4 apart: S_dist=0.5, S_head=0.25
    assert similarity(5.0, 0.0, 3 * math.pi / 4, config) == pytest.approx(0.375, abs=1e-12)


@given(
    dist=st.floats(0.0, 30.0),
    ha=st.floats(0, 2 * math.pi, allow_nan=False),
    hb=st.floats(0, 2 * math.pi, allow_nan=False),
)
def test_similarity_symmetric_and_bounded(dist, ha, hb):
    s = similarity(dist, ha, hb, CONFIG)
    assert 0.0 <= s <= 1.0
    assert similarity(dist, hb, ha, CONFIG) == pytest.approx(s, abs=1e-12)


# ------------------------------------------------------------------ geometry

def test_wrap_and_deviation():
    assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert signed_deviation(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
    assert signed_deviation(2 * math.pi - 0.1, 0.1) == pytest.approx(-0.2)


def test_heading_toward():
    assert heading_toward((9, 10), (9, 0)) == pytest.approx(3 * math.pi / 2)
    assert heading_toward((0, 0), (1, 1)) == pytest.approx(math.pi / 4)
    assert heading_toward((4, 4), (4, 4)) == 0.0  # coincident fallback


def _oracle_cone(radius, heading):
    """Independent membership check: disc cells within 50 degrees of heading."""
    out = set()
    for ox in range(-radius, radius + 1):
        for oy in range(-radius, radius + 1):
            if ox == 0 and oy == 0:
                continue
            if ox * ox + oy * oy > radius * radius:
                continue
            dev = math.atan2(oy, ox) - heading
            while dev <= -math.pi:
                dev += 2 * math.pi
            while dev > math.pi:
                dev -= 2 * math.pi
            if abs(dev) <= math.radians(HALF_CONE_DEG) + 1e-9:
                out.add((ox, oy))
    return out


def test_cone_membership_matches_oracle_exhaustive():
    """All radii to 5 (an 11x11 neighborhood) x all integer-delta headings."""
    headings = {wrap_angle(math.atan2(b, a))
                for a in range(-5, 6) for b in range(-5, 6) if (a, b) != (0, 0)}
    rnd = random.Random(17)
    headings |= {rnd.uniform(0, 2 * math.pi) for _ in range(50)}
    for radius in range(1, 6):
        for heading in headings:
            got = {(ox, oy) for ox, oy, _ in cone_offsets(radius, heading)}
            assert got == _oracle_cone(radius, heading), (radius, heading)


def test_cone_order_distance_then_deviation():
    # heading 10 degrees counterclockwise short of the (2,1) direction
    heading = math.atan2(1, 2) - math.radians(10)
    offs = [(ox, oy) for ox, oy, _ in cone_offsets(3, heading)]
    assert offs[:5] == [(1, 0), (1, 1), (2, 0), (2, 1), (2, -1)]
    # equal distance sqrt(5): deviations +10.0 vs -43.1 degrees, closer wins
    assert offs.index((2, 1)) < offs.index((2, -1))


def test_cone_clockwise_wins_deviation_ties():
    # heading straight at the exit wall: (1,-1) and (-1,-1) both deviate 45 deg
    # and tie on distance; the clockwise one (negative deviation) comes first
    offs = [(ox, oy) for ox, oy, _ in cone_offsets(2, 3 * math.pi / 2)]
    assert offs == [(0, -1), (-1, -1), (1, -1), (0, -2)]


def test_cone_distance_is_hypot():
    """The cone table's distance is exactly the hypot similarity once took."""
    for radius in range(1, 21):
        # four 100-degree cones facing the axes cover the whole disc
        offsets = {off for heading in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
                   for off in cone_offsets(radius, heading)}
        assert len(offsets) == sum(
            1 for ox in range(-radius, radius + 1) for oy in range(-radius, radius + 1)
            if 0 < ox * ox + oy * oy <= radius * radius
        )
        for ox, oy, dist in offsets:
            assert dist == math.hypot(ox, oy), (ox, oy)


def test_cone_boundary_inclusive():
    # (1,1) sits exactly 50 degrees from this heading: still inside
    heading = math.atan2(1, 1) - math.radians(50)
    members = {(ox, oy) for ox, oy, _ in cone_offsets(3, heading)}
    assert (1, 1) in members


def _columns(floor, agents):
    """The grid and crowd columns of reference ``agents`` on ``floor``."""
    grid = WorldGrid(floor)
    crowd = _crowd(grid, [agent.pos for agent in agents])
    crowd.exited[:] = bytes(agent.exited for agent in agents)
    return grid, crowd


def _vacate(grid, cell):
    grid.occupancy[cell_index(grid.floor)[cell]] = FREE


def _is_free(grid, cell):
    """True iff ``cell`` is a floor cell whose occupancy slot is FREE."""
    k = cell_index(grid.floor).get(cell)
    return k is not None and grid.occupancy[k] == FREE


def _on_floor(floor, pace):
    """A pace in step_pace's terms: a floor cell as is, a wall as -1."""
    return pace if pace is None or pace in floor.heading else -1


def _floor_with(base, headings):
    """A floor like ``base`` whose heading field has ``headings`` written over it."""
    return Floor(base.width, base.length, base.exit_cells, {**base.heading, **headings})


def _pace(agent, grid, crowd, config):
    """step_pace on the agent's entries of the grid's floor table: the
    pace cell, -1 for a wall, or None."""
    floor = grid.floor
    entries = neighbourhood(floor, config)[cell_index(floor)[agent.pos]]
    pace = step_pace(entries, grid.occupancy, crowd.exited, floor.cells,
                     config.trigger_threshold)
    return pace if pace is None or pace < 0 else floor.cells[pace]


def _scores(grid, cell, config):
    """The neighbourhood table's similarity score for each cone cell of ``cell``."""
    floor = grid.floor
    cone, _ = neighbourhood(floor, config)[cell_index(floor)[cell]]
    return {floor.cells[q]: score for q, _, score in cone}


def _toward(src, dst):
    """The one-cell pace from ``src`` toward ``dst``."""
    return (src[0] + _sign(dst[0] - src[0]), src[1] + _sign(dst[1] - src[1]))


def _free_cone_cells(agent, grid, radius):
    x, y = agent.pos
    return [(x + ox, y + oy) for ox, oy, _ in cone_offsets(radius, grid.floor.heading[agent.pos])
            if _is_free(grid, (x + ox, y + oy))]


# ---------------------------------------------------------------- the table

def _boundary_headings():
    """Headings that put a lattice direction on the cone boundary, and one
    and two ulps outside it, where the boundary tolerance decides."""
    out = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            for side in (-1.0, 1.0) if (a, b) != (0, 0) else ():
                heading = wrap_angle(math.atan2(b, a) + side * math.radians(HALF_CONE_DEG))
                for _ in range(3):
                    out.append(heading)
                    heading = math.nextafter(heading, side * 10.0)
    return out


_BOUNDARY_HEADINGS = _boundary_headings()


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_table_matches_scalar_reference_bit_for_bit(data):
    """The numpy build equals the scalar cone and similarity definitions:
    cell and entry order, cell indices (-1 for a pace onto a wall), float
    bits and Python types (no numpy scalar reaches the step's list
    lookups), one int object per index.  Each cell's ranked tuple is a
    stable descending-score sort of its cone tuple, holding the same entry
    objects.  Some cells face arbitrary headings, at times exactly onto a
    cone boundary."""
    W = data.draw(st.integers(1, 14))
    L = data.draw(st.integers(W + 1, 30))
    radius = data.draw(st.integers(1, 5))
    base = build_floor(W, L, data.draw(st.integers(1, W)))
    headings = data.draw(st.dictionaries(
        st.sampled_from(list(base.heading)),
        st.floats(0.0, 2 * math.pi, exclude_max=True) | st.sampled_from(_BOUNDARY_HEADINGS),
        max_size=6,
    ))
    floor = _floor_with(base, headings)
    d_max = data.draw(st.floats(0.25, radius, exclude_max=True)
                      | st.floats(radius, 4.0 * radius))
    config = SimConfig(c=1, w=1, W=W, L=L, vision_radius=radius, d_max=d_max)

    table = _build_neighbourhood(floor, config)
    expected = build_neighbourhood(floor, config)
    assert type(table) is list and list(expected) == list(floor.heading) == list(floor.cells)
    assert len(table) == len(expected)
    shared = {}  # index -> the one int object entries hold for it
    for (entries, ranked), ref_entries in zip(table, expected.values()):
        assert type(entries) is tuple and len(entries) == len(ref_entries)
        by_score = sorted(entries, key=lambda entry: -entry[2])  # sorted is stable
        assert type(ranked) is tuple and len(ranked) == len(entries)
        assert all(entry is ref for entry, ref in zip(ranked, by_score))
        for (q, pace, score), (ref_q, ref_pace, ref_score) in zip(entries, ref_entries):
            assert (floor.cells[q], pace) == (ref_q, cell_index(floor).get(ref_pace, -1))
            assert type(q) is int and type(pace) is int and q >= 0
            assert shared.setdefault(q, q) is q and shared.setdefault(pace, pace) is pace
            assert type(score) is float and score.hex() == ref_score.hex()


@pytest.mark.parametrize("w", [1, 5])
def test_radius_beyond_the_floor_adds_no_entry(w):
    """No two floor cells lie W + L apart, so the table build clips the
    radius there; the unclipped scalar reference agrees at longer radii."""
    W, L = 5, 8
    floor = build_floor(W, L, w)
    index = cell_index(floor)
    for radius in (W + L, 3 * (W + L)):
        config = SimConfig(c=1, w=w, W=W, L=L, vision_radius=radius, d_max=4.0)
        table = [[(floor.cells[q], pace, score) for q, pace, score in cone]
                 for cone, _ in _build_neighbourhood(floor, config)]
        expected = [[(q, index.get(pace, -1), score) for q, pace, score in entries]
                    for entries in build_neighbourhood(floor, config).values()]
        assert table == expected


@pytest.mark.parametrize("pairs", [1, 997])
@pytest.mark.parametrize("W, L, w", [(9, 20, 3), (5, 8, 1)])
def test_pair_budget_never_changes_the_table(monkeypatch, pairs, W, L, w):
    """A block of one cell, or an odd budget that splits the floor
    unevenly, builds the default table: the same entries and float bits,
    and ranked tuples that are the cone tuple exactly where they are at
    the default budget."""
    floor = build_floor(W, L, w)
    for radius in (1, 3, 5, W + L):
        config = SimConfig(c=1, w=w, W=W, L=L, vision_radius=radius, d_max=2.5)
        expected = _build_neighbourhood(floor, config)
        with monkeypatch.context() as patch:
            patch.setattr(agent_module, "_PAIRS", pairs)
            table = _build_neighbourhood(floor, config)
        assert len(table) == len(expected)
        for (cone, ranked), (ref_cone, ref_ranked) in zip(table, expected):
            assert [(q, pace, score.hex()) for q, pace, score in cone] \
                == [(q, pace, score.hex()) for q, pace, score in ref_cone]
            assert ranked == ref_ranked and (ranked is cone) == (ref_ranked is ref_cone)


@pytest.mark.parametrize("W, L, w, radius", [(5, 8, 1, 1), (9, 20, 3, 3), (19, 60, 7, 3),
                                             (7, 12, 7, 5), (5, 8, 2, 13)])
def test_cone_holders_match_the_scalar_cones(W, L, w, radius):
    """Each cell's holders are the ascending cells whose scalar-reference
    cone holds it."""
    floor = build_floor(W, L, w)
    config = SimConfig(c=1, w=w, W=W, L=L, vision_radius=radius, d_max=3.0)
    index = cell_index(floor)
    expected = [[] for _ in floor.cells]
    for p, entries in build_neighbourhood(floor, config).items():
        for q, _, _ in entries:
            expected[index[q]].append(index[p])
    assert cone_holders(floor, config) == [tuple(sorted(cells)) for cells in expected]


# ------------------------------------------------------------- the best match

def test_most_similar_neighbor_tie_to_lowest_id():
    """Scores {0.58, 0.85, 0.85} for ids {5, 3, 9} -> agent 3, at 0.85.

    The threshold 0.9 triggers on the best match, so the pace heads for
    the free cell nearest it and shows which agent won."""
    config = SimConfig(c=10, w=19, d_max=10.0, vision_radius=9, trigger_threshold=0.9)
    focal, right, ahead, far = (5, 20), (8, 20), (5, 17), (11, 14)
    paces = {right: (6, 20), ahead: (5, 19), far: (6, 19)}
    for ids in ({right: 3, ahead: 9, far: 5}, {right: 9, ahead: 3, far: 5}):
        crowd = {focal: 0, **ids}
        down_right = dict.fromkeys(crowd, 7 * math.pi / 4)  # heading term 1
        grid = WorldGrid(_floor_with(build_floor(19, 60, 19), down_right))
        cells = [(i, 50) for i in range(10)]  # parked out of view
        for cell, agent_id in crowd.items():
            cells[agent_id] = cell
        crowd = _crowd(grid, cells)
        scores = _scores(grid, focal, config)
        assert scores[right] == pytest.approx(0.85)  # 0.5 * (1 - 3/10) + 0.5
        assert scores[ahead] == pytest.approx(0.85)
        assert scores[far] == pytest.approx(0.5 * (1 - math.hypot(6, 6) / 10) + 0.5)
        best = next(cell for cell, agent_id in ids.items() if agent_id == 3)
        assert _pace(list(crowd)[0], grid, crowd, config) == paces[best]


def test_most_similar_neighbor_reads_headings_from_the_floor():
    """A near neighbour on a cell facing a quarter turn away loses to a
    farther one facing the same way."""
    config = SimConfig(c=3, w=19, d_max=10.0, vision_radius=4, trigger_threshold=0.9)
    # every floor heading straight down but (5, 9)'s, facing along the wall
    grid = WorldGrid(_floor_with(build_floor(19, 60, 19), {(5, 9): math.pi}))
    crowd = _crowd(grid, [(5, 10), (5, 9), (5, 6)])
    scores = _scores(grid, (5, 10), config)
    assert scores[(5, 9)] == pytest.approx(0.7)  # 0.5 * (1 - 1/10) + 0.5 * 0.5
    assert scores[(5, 6)] == pytest.approx(0.8)  # 0.5 * (1 - 4/10) + 0.5 * 1.0
    # triggered by the far match: toward (5, 7), the free cell nearest it;
    # the near match would have drawn the agent to (4, 9)
    assert _pace(list(crowd)[0], grid, crowd, config) == (5, 9)


def test_most_similar_neighbor_empty():
    """Alone in view, the agent never triggers: the closest free cell wins."""
    config = SimConfig(c=1, w=7, trigger_threshold=1.0)
    grid = WorldGrid(build_floor(19, 60, 7))
    crowd = _crowd(grid, [(4, 4)])
    assert _pace(list(crowd)[0], grid, crowd, config) == (4, 3)
    floor = grid.floor
    cone, _ = neighbourhood(floor, config)[cell_index(floor)[(4, 4)]]
    assert cone[0][:2] == (cell_index(floor)[(4, 3)],) * 2


# -------------------------------------------------------------- the free cell

UNTRIGGERED = SimConfig(c=2, w=1, trigger_threshold=0.0)  # no score falls below 0


def test_choose_target_prefers_smaller_deviation_at_equal_distance():
    """Equal-distance candidates at ~10 and ~43 degrees: the 10-degree one."""
    heading = math.atan2(1, 2) - math.radians(10)
    grid = WorldGrid(_floor_with(build_floor(19, 60, 7), {(5, 30): heading}))
    # the focal agent, then blockers on the nearer cells (1,0), (1,1), (2,0)
    crowd = _crowd(grid, [(5, 30), (6, 30), (6, 31), (7, 30)])
    # toward (7, 31); the 43-degree cell (7, 29) would give (6, 29)
    assert _pace(list(crowd)[0], grid, crowd, UNTRIGGERED) == (6, 31)
    floor = grid.floor
    entries, _ = neighbourhood(floor, UNTRIGGERED)[cell_index(floor)[(5, 30)]]
    assert [floor.cells[q] for q, _, _ in entries[:4]] == [(6, 30), (6, 31), (7, 30), (7, 31)]
    for (q, _, score), dist in zip(entries, [1.0, math.sqrt(2), 2.0]):
        assert score == similarity(dist, heading, floor.heading[floor.cells[q]], UNTRIGGERED)


def test_choose_target_none_when_cone_blocked():
    grid = WorldGrid(_floor_with(build_floor(19, 60, 7), {(9, 30): 3 * math.pi / 2}))
    blockers = [(9 + ox, 30 + oy) for ox, oy in sorted(_oracle_cone(3, 3 * math.pi / 2))]
    crowd = _crowd(grid, [(9, 30)] + blockers)
    focal = list(crowd)[0]
    cone, _ = neighbourhood(grid.floor, CONFIG)[crowd.cell[0]]
    assert len(cone) == len(blockers)
    assert _pace(focal, grid, crowd, UNTRIGGERED) is None
    triggered = SimConfig(c=2, w=1, trigger_threshold=1.0)
    assert _pace(focal, grid, crowd, triggered) is None


@given(data=st.data())
@settings(max_examples=60)
def test_choose_target_returns_free_cell(data):
    grid = WorldGrid(build_floor(9, 14, 3))
    x = data.draw(st.integers(0, 8))
    y = data.draw(st.integers(1, 13))
    cells = [(i, j) for i in range(9) for j in range(14)
             if _is_free(grid, (i, j)) and (i, j) != (x, y)]
    blocked = data.draw(st.lists(st.sampled_from(cells), max_size=20, unique=True))
    crowd = _crowd(grid, [(x, y)] + blocked)
    focal = list(crowd)[0]
    free = _free_cone_cells(focal, grid, 3)
    pace = _pace(focal, grid, crowd, UNTRIGGERED)
    assert (pace is None) == (not free)
    if pace is not None:
        assert _on_floor(grid.floor, _toward((x, y), free[0])) == pace
        assert _is_free(grid, free[0])
        assert math.hypot(free[0][0] - x, free[0][1] - y) <= 3.0


# ---------------------------------------------------------------- adjustment

def test_sct_passthrough_above_threshold():
    grid = WorldGrid(build_floor(19, 60, 1))
    crowd = _crowd(grid, [(10, 10), (8, 8)])
    focal, other = crowd
    score = _scores(grid, focal.pos, CONFIG)[other.pos]
    for threshold in (0.0, score):  # below and at the match's score
        config = SimConfig(c=2, w=1, trigger_threshold=threshold)
        assert _pace(focal, grid, crowd, config) == (10, 9)
    _vacate(grid, other.pos)  # no match in view
    assert _pace(focal, grid, crowd, CONFIG) == (10, 9)


def test_sct_veers_toward_dissimilar_comparison():
    """A low-scoring match two cells down-left pulls the pace leftward."""
    grid = WorldGrid(build_floor(19, 60, 1))
    crowd = _crowd(grid, [(10, 10), (8, 8)])
    config = SimConfig(c=2, w=1, trigger_threshold=1.0)
    # nearest free cone cell to (8,8) is (9,8): one step down-left of the focal agent
    assert _pace(list(crowd)[0], grid, crowd, config) == (9, 9)


@given(data=st.data())
@settings(max_examples=60)
def test_sct_adjust_result_is_free_or_goal(data):
    grid = WorldGrid(build_floor(9, 14, 3))
    x, y = data.draw(st.integers(0, 8)), data.draw(st.integers(2, 13))
    ox, oy = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
    other_pos = (x + ox, y + oy)
    if other_pos == (x, y) or other_pos not in grid.floor.heading:
        other_pos = (x, min(13, y + 1))
    crowd = _crowd(grid, list(dict.fromkeys([(x, y), other_pos])))
    focal = list(crowd)[0]
    threshold = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    config = SimConfig(c=2, w=3, W=9, L=14, trigger_threshold=threshold)
    pace = _pace(focal, grid, crowd, config)
    score = _scores(grid, (x, y), config).get(other_pos)
    if score is None or score >= threshold:
        assert pace == _pace(focal, grid, crowd, UNTRIGGERED)
    elif pace is not None:
        assert pace in {_on_floor(grid.floor, _toward((x, y), cell))
                        for cell in _free_cone_cells(focal, grid, 3)}


# ------------------------------------ the three scans the table replaced

def _sign(v):
    return (v > 0) - (v < 0)


def _choose_target_cell(agent, grid, radius):
    x, y = agent.pos
    for ox, oy, _ in cone_offsets(radius, grid.floor.heading[agent.pos]):
        cell = (x + ox, y + oy)
        if is_free(grid, cell):
            return cell
    return None


def _visible_agents(agent, grid, agents, radius):
    x, y = agent.pos
    out = []
    for ox, oy, _ in cone_offsets(radius, grid.floor.heading[agent.pos]):
        other_id = grid.occupancy.get((x + ox, y + oy))
        if other_id not in (None, FREE) and not agents[other_id].exited:
            out.append((agents[other_id], math.hypot(ox, oy)))
    return out


def _most_similar_neighbor(agent, visible, grid, config):
    """The visible agent with the highest similarity score, ties to lowest id."""
    headings = grid.floor.heading
    heading = headings[agent.pos]
    best = None
    best_score = -1.0
    for other, dist in visible:
        score = similarity(dist, heading, headings[other.pos], config)
        if score > best_score or (score == best_score and other.id < best.id):
            best = other
            best_score = score
    if best is None:
        return None
    return best, best_score


def _sct_adjust(agent, comparison, goal_target, grid, radius, config):
    if comparison is None:
        return goal_target
    other, score = comparison
    if score >= config.trigger_threshold:
        return goal_target
    x, y = agent.pos
    tx, ty = other.pos
    best = None
    best_d2 = None
    for ox, oy, _ in cone_offsets(radius, grid.floor.heading[agent.pos]):
        cell = (x + ox, y + oy)
        if not is_free(grid, cell):
            continue
        d2 = (cell[0] - tx) ** 2 + (cell[1] - ty) ** 2
        if best_d2 is None or d2 < best_d2:
            best = cell
            best_d2 = d2
    return best


def _reference_pace(agent, grid, agents, config):
    """The pace of the separate target, visibility and veering scans."""
    radius = config.vision_radius
    visible = _visible_agents(agent, grid, agents, radius)
    comparison = _most_similar_neighbor(agent, visible, grid, config)
    goal = _choose_target_cell(agent, grid, radius)
    target = _sct_adjust(agent, comparison, goal, grid, radius, config)
    return None if target is None else _toward(agent.pos, target)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_choose_pace_matches_scan_reference(data):
    """The table-driven decision returns the reference's pace, or None: random
    blockers, walls in view, exited bodies in the doorway, radius 1-4,
    d_max 0.5-6, thresholds at and one ulp either side of the best score,
    and equal-score pairs whose ids decide the match."""
    W = data.draw(st.integers(3, 10))
    L = data.draw(st.integers(W + 1, 14))
    mirrored = data.draw(st.booleans())
    # with the exit across the whole end wall, every floor cell faces straight
    # down, so two cells mirrored across the focal's column score equal
    base = build_floor(W, L, W if mirrored else data.draw(st.integers(1, W)))
    radius = data.draw(st.integers(1, 4))
    x = data.draw(st.integers(0, W - 1))
    # often near the door, where exited bodies stand in view
    y = data.draw(st.integers(1, min(radius + 1, L - 1)) | st.integers(1, L - 1))
    headings = {}  # written over the floor's field, which faces the exit
    if not data.draw(st.booleans()):
        headings[x, y] = data.draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    # blockers mostly in view; cells off the floor put a wall in view
    cone = cone_offsets(radius, headings.get((x, y), base.heading[x, y]))
    in_view = st.sampled_from([(ox, oy) for ox, oy, _ in cone])
    anywhere = st.tuples(st.integers(-radius, radius), st.integers(-radius, radius))
    offsets = data.draw(st.lists(in_view | anywhere, min_size=1, max_size=12))
    if mirrored:
        ox, oy = data.draw(st.integers(1, radius)), data.draw(st.integers(-radius, -1))
        offsets += [(ox, oy), (-ox, oy)]
    cells = [cell for cell in dict.fromkeys((x + ox, y + oy) for ox, oy in [(0, 0), *offsets])
             if cell in base.heading]
    order = data.draw(st.permutations(range(len(cells))))  # ids in random order
    agents = [Agent(id=i, pos=cells[j]) for i, j in enumerate(order)]
    focal = agents[order.index(0)]
    for agent in agents:
        if agent.pos[1] == 0:  # an exited body still standing in the doorway
            agent.exited = data.draw(st.booleans())
    if not mirrored and data.draw(st.booleans()):
        headings[data.draw(st.sampled_from(cells))] = data.draw(
            st.floats(0.0, 2 * math.pi, exclude_max=True))
    grid = scalar_reference.WorldGrid(_floor_with(base, headings))
    for agent in agents:
        grid.place(agent.id, agent.pos)
    config = SimConfig(c=len(agents), w=1, W=W, L=L, vision_radius=radius,
                       d_max=data.draw(st.floats(0.5, 6.0)))
    visible = _visible_agents(focal, grid, agents, radius)
    comparison = _most_similar_neighbor(focal, visible, grid, config)
    thresholds = st.floats(0.0, 1.0)
    if comparison is not None:
        best = comparison[1]
        at_best = [best, math.nextafter(best, -1.0), math.nextafter(best, 2.0)]
        thresholds = st.sampled_from(at_best) | thresholds
    config.trigger_threshold = data.draw(thresholds)

    expected = _reference_pace(focal, grid, agents, config)
    columns, crowd = _columns(grid.floor, agents)
    assert _pace(focal, columns, crowd, config) == _on_floor(grid.floor, expected)


# ------------------------------------------- the ranked scan and the one pass

@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_ranked_choose_pace_matches_one_pass(data):
    """The step's short scans over the cone and the ranked entries return
    the one-pass decision's pace: random free, live and exited occupants
    under random ids, exited bodies in the doorway, no free cell, nobody
    in view, triggered agents whose best matches share a score (with the
    whole end wall an exit every heading faces straight down) under
    either id order, and thresholds at 0, at 1, in between and at and one
    ulp either side of the best score."""
    W = data.draw(st.integers(1, 9))
    L = data.draw(st.integers(W + 1, 12))
    floor = build_floor(W, L, data.draw(st.just(W) | st.integers(1, W)))
    radius = data.draw(st.integers(1, 4))
    config = SimConfig(c=1, w=1, W=W, L=L, vision_radius=radius,
                       d_max=data.draw(st.floats(0.5, 6.0)))
    n, w = len(floor.cells), len(floor.exit_cells)
    beside_door = [k for k in range(w, n) if floor.cells[k][1] <= radius]
    k = data.draw(st.sampled_from(beside_door) | st.integers(w, n - 1))
    entries = neighbourhood(floor, config)[k]
    cone, _ = entries
    scores = [score for _, _, score in cone]
    tied = [[i for i, other in enumerate(scores) if other == score] for score in set(scores)]
    tied = [group for group in tied if len(group) > 1]
    fills = ["mixed", "no free cell", "nobody in view"] + ["equal best scores"] * bool(tied)
    fill = data.draw(st.sampled_from(fills))
    kinds = {
        "mixed": st.sampled_from(["free", "live", "exited"]),
        "no free cell": st.sampled_from(["live", "exited"]),
        "nobody in view": st.sampled_from(["free", "exited"]),
        "equal best scores": st.sampled_from(["free", "exited"]),
    }[fill]
    kinds = data.draw(st.lists(kinds, min_size=len(cone), max_size=len(cone)))
    if fill == "equal best scores":  # the only live agents in view, beside exited bodies
        group = data.draw(st.sampled_from(tied))
        for i in group:
            kinds[i] = data.draw(st.sampled_from(["live", "exited"]))
        kinds[data.draw(st.sampled_from(group))] = "live"
    taken = [(q, kind) for (q, _, _), kind in zip(cone, kinds) if kind != "free"]
    ids = data.draw(st.permutations(range(1, len(taken) + 1)))
    occupancy = [FREE] * n + [WALL]
    exited = bytearray(len(taken) + 1)
    occupancy[k] = 0
    for (q, kind), agent_id in zip(taken, ids):
        occupancy[q] = agent_id
        exited[agent_id] = kind == "exited"
    live = [score for score, kind in zip(scores, kinds) if kind == "live"]
    thresholds = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    if live:
        best = max(live)
        thresholds |= st.sampled_from([best, math.nextafter(best, -1.0), math.nextafter(best, 2.0)])
    if fill == "equal best scores":  # triggered, so the ids decide the match
        thresholds = st.floats(best, 1.0, exclude_min=True)
    threshold = data.draw(thresholds)

    assert step_pace(entries, occupancy, exited, floor.cells, threshold) == \
        one_pass_choose_pace(cone, occupancy, exited, floor.cells, threshold)


def test_ranked_choose_pace_equal_scores_in_both_id_orders():
    """Two agents on mirrored cells score equal; the lower id among the live
    ones is the match and draws the triggered agent to its side, in both
    id orders.  An exited body, straight ahead or on a mirrored cell, is
    no match."""
    floor = build_floor(7, 12, 7)  # every heading straight down
    entries = neighbourhood(floor, CONFIG)[cell_index(floor)[(3, 5)]]
    left, right, ahead = (cell_index(floor)[cell] for cell in [(2, 3), (4, 3), (3, 3)])
    for ids in ((1, 2), (2, 1)):
        for first_exited in (0, 1):
            occupancy = [FREE] * len(floor.cells) + [WALL]
            occupancy[left], occupancy[right], occupancy[ahead] = *ids, 3
            exited = bytearray([0, first_exited, 0, 1])
            match = ids.index(2 if first_exited else 1)
            side = [(2, 4), (4, 4)][match]
            for threshold, pace in ((0.0, (3, 4)), (0.5, (3, 4)), (1.0, side)):
                got = step_pace(entries, occupancy, exited, floor.cells, threshold)
                assert got == one_pass_choose_pace(entries[0], occupancy, exited, floor.cells,
                                                   threshold)
                assert floor.cells[got] == pace, (ids, first_exited, threshold)
