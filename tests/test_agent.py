"""Vision cone geometry, similarity scoring, and target selection."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from archsim.agent import (
    Agent,
    cone_offsets,
    heading_toward,
    most_similar_neighbor,
    scan_cone,
    similarity,
    signed_deviation,
    steer,
    wrap_angle,
)
from archsim.engine import SimConfig
from archsim.world import build_world, is_free, nearest_exit_coordinate

HALF_CONE_DEG = 50.0
CONFIG = SimConfig(c=2, w=1)  # d_max = vision_radius = 3, trigger_threshold = 0.5


# ---------------------------------------------------------------- similarity

def test_heading_similarity_quarter_turn():
    # same cell (distance term 1), headings pi/2 apart (heading term 0.5)
    a = Agent(id=0, pos=(4, 4), heading=0.0)
    b = Agent(id=1, pos=(4, 4), heading=math.pi / 2)
    assert similarity(a, b, CONFIG) == pytest.approx(0.5 * 1.0 + 0.5 * 0.5)


def test_distance_similarity_saturates():
    a = Agent(id=0, pos=(0, 0))
    assert similarity(a, Agent(id=1, pos=(0, 0)), CONFIG) == 1.0
    assert similarity(a, Agent(id=1, pos=(3, 0)), CONFIG) == 0.5  # at d_max = 3
    assert similarity(a, Agent(id=1, pos=(7, 4)), CONFIG) == 0.5  # clamped


def test_weighted_similarity_example():
    """Term scores (0.5, 0.25) under equal weights -> 0.375."""
    config = SimConfig(c=2, w=1, d_max=10.0)
    a = Agent(id=0, pos=(0, 0), heading=0.0)
    b = Agent(id=1, pos=(5, 0), heading=3 * math.pi / 4)  # S_dist=0.5, S_head=0.25
    assert similarity(a, b, config) == pytest.approx(0.375, abs=1e-12)


def test_most_similar_neighbor_tie_to_lowest_id():
    """Scores {0.6, 0.85, 0.85} for ids {5, 3, 9} -> (agent 3, 0.85)."""
    config = SimConfig(c=4, w=1, d_max=10.0)
    focal = Agent(id=0, pos=(0, 0))  # every heading 0: heading term 1
    far = Agent(id=5, pos=(8, 0))    # 0.5 * (1 - 8/10) + 0.5 = 0.6
    near1 = Agent(id=3, pos=(3, 0))  # 0.5 * (1 - 3/10) + 0.5 = 0.85
    near2 = Agent(id=9, pos=(0, 3))  # same distance, same score
    for order in ([far, near1, near2], [near2, far, near1], [near1, near2, far]):
        best, score = most_similar_neighbor(focal, order, config)
        assert best.id == 3
        assert score == pytest.approx(0.85)


def test_most_similar_neighbor_empty():
    assert most_similar_neighbor(Agent(id=0, pos=(0, 0)), [], CONFIG) is None


@given(
    ax=st.integers(-8, 8), ay=st.integers(-8, 8),
    bx=st.integers(-8, 8), by=st.integers(-8, 8),
    ha=st.floats(0, 2 * math.pi, allow_nan=False),
    hb=st.floats(0, 2 * math.pi, allow_nan=False),
)
def test_similarity_symmetric_and_bounded(ax, ay, bx, by, ha, hb):
    a = Agent(id=0, pos=(ax, ay), heading=ha)
    b = Agent(id=1, pos=(bx, by), heading=hb)
    s = similarity(a, b, CONFIG)
    assert 0.0 <= s <= 1.0
    assert similarity(b, a, CONFIG) == pytest.approx(s, abs=1e-12)


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


def test_cone_boundary_inclusive():
    # (1,1) sits exactly 50 degrees from this heading: still inside
    heading = math.atan2(1, 1) - math.radians(50)
    members = {(ox, oy) for ox, oy, _ in cone_offsets(3, heading)}
    assert (1, 1) in members


def _crowd(grid, cells):
    """Agents 0..n-1 standing on ``cells``, placed on ``grid``."""
    agents = [Agent(id=i, pos=cell) for i, cell in enumerate(cells)]
    for agent in agents:
        grid.place(agent.id, agent.pos)
    return agents


def _facing_exit(grid, agent):
    agent.heading = heading_toward(agent.pos, nearest_exit_coordinate(grid, agent.pos))
    return agent


def test_choose_target_prefers_smaller_deviation_at_equal_distance():
    """Equal-distance candidates at ~10 and ~43 degrees: the 10-degree one."""
    grid = build_world(19, 60, 7)
    # the focal agent, then blockers on the nearer cells (1,0), (1,1), (2,0)
    agents = _crowd(grid, [(5, 30), (6, 30), (6, 31), (7, 30)])
    agents[0].heading = math.atan2(1, 2) - math.radians(10)
    free, visible = scan_cone(agents[0], grid, agents, 3)
    assert steer(None, free, CONFIG) == (7, 31)
    assert [a.id for a in visible] == [1, 2, 3]


def test_choose_target_none_when_cone_blocked():
    grid = build_world(19, 60, 7)
    blockers = [(9 + ox, 30 + oy) for ox, oy in sorted(_oracle_cone(3, 3 * math.pi / 2))]
    agents = _crowd(grid, [(9, 30)] + blockers)
    agents[0].heading = 3 * math.pi / 2
    free, visible = scan_cone(agents[0], grid, agents, 3)
    assert free == []
    assert len(visible) == len(blockers)
    assert steer(None, free, CONFIG) is None
    assert steer((agents[1], 0.0), free, CONFIG) is None


@given(data=st.data())
@settings(max_examples=60)
def test_choose_target_returns_free_cell(data):
    grid = build_world(9, 14, 3)
    x = data.draw(st.integers(0, 8))
    y = data.draw(st.integers(1, 13))
    cells = [(i, j) for i in range(9) for j in range(14)
             if is_free(grid, (i, j)) and (i, j) != (x, y)]
    blocked = data.draw(st.lists(st.sampled_from(cells), max_size=20, unique=True))
    agents = _crowd(grid, [(x, y)] + blocked)
    free, _ = scan_cone(_facing_exit(grid, agents[0]), grid, agents, 3)
    target = steer(None, free, CONFIG)
    if target is not None:
        assert is_free(grid, target)
        assert math.hypot(target[0] - x, target[1] - y) <= 3.0


# ---------------------------------------------------------------- adjustment

def test_sct_passthrough_above_threshold():
    grid = build_world(19, 60, 1)
    focal, other = _crowd(grid, [(10, 10), (8, 10)])
    free, _ = scan_cone(_facing_exit(grid, focal), grid, [focal, other], 3)
    assert steer((other, 0.9), free, CONFIG) == (10, 9)
    assert steer((other, 0.5), free, CONFIG) == (10, 9)  # at the threshold
    assert steer(None, free, CONFIG) == (10, 9)


def test_sct_veers_toward_dissimilar_comparison():
    """A low-scoring match two cells to the left pulls the target leftward."""
    grid = build_world(19, 60, 1)
    focal, other = _crowd(grid, [(10, 10), (8, 10)])
    free, _ = scan_cone(_facing_exit(grid, focal), grid, [focal, other], 3)
    # nearest free cone cell to (8,10): one step down-left of the focal agent
    assert steer((other, 0.2), free, CONFIG) == (9, 9)


@given(data=st.data())
@settings(max_examples=60)
def test_sct_adjust_result_is_free_or_goal(data):
    grid = build_world(9, 14, 3)
    x, y = data.draw(st.integers(0, 8)), data.draw(st.integers(2, 13))
    ox, oy = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
    other_pos = (x + ox, y + oy)
    if other_pos == (x, y) or grid.is_wall(other_pos):
        other_pos = (x, min(13, y + 1))
    agents = _crowd(grid, list(dict.fromkeys([(x, y), other_pos])))
    other = Agent(id=1, pos=other_pos)
    score = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    free, _ = scan_cone(_facing_exit(grid, agents[0]), grid, agents, 3)
    adjusted = steer((other, score), free, CONFIG)
    if score >= 0.5:
        assert adjusted == steer(None, free, CONFIG)
    elif adjusted is not None:
        assert is_free(grid, adjusted)


# ------------------------------------------- the three scans the fused one replaced

def _choose_target_cell(agent, grid, radius):
    x, y = agent.pos
    for ox, oy, _ in cone_offsets(radius, agent.heading):
        cell = (x + ox, y + oy)
        if is_free(grid, cell):
            return cell
    return None


def _visible_agents(agent, grid, agents, radius):
    x, y = agent.pos
    out = []
    for ox, oy, _ in cone_offsets(radius, agent.heading):
        other_id = grid.occupancy.get((x + ox, y + oy))
        if other_id is not None and not agents[other_id].exited:
            out.append(agents[other_id])
    return out


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
    for ox, oy, _ in cone_offsets(radius, agent.heading):
        cell = (x + ox, y + oy)
        if not is_free(grid, cell):
            continue
        d2 = (cell[0] - tx) ** 2 + (cell[1] - ty) ** 2
        if best_d2 is None or d2 < best_d2:
            best = cell
            best_d2 = d2
    return best


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fused_scan_matches_three_scans(data):
    """scan_cone + steer choose the target and the visible agents exactly
    as the separate target, visibility and veering scans did: random
    blockers, the corridor walls in view, exited bodies still standing in
    the doorway, and trigger scores on both sides of the threshold."""
    W = data.draw(st.integers(3, 10))
    L = data.draw(st.integers(W + 1, 14))
    grid = build_world(W, L, data.draw(st.integers(1, W)))
    open_cells = [(x, y) for y in range(L) for x in range(W) if not grid.is_wall((x, y))]
    cells = data.draw(st.lists(st.sampled_from(open_cells), min_size=1, unique=True))
    agents = _crowd(grid, cells)
    focal = agents[data.draw(st.integers(0, len(agents) - 1))]
    for agent in agents:
        if agent is not focal and agent.pos[1] == 0:
            agent.exited = data.draw(st.booleans())
    if data.draw(st.booleans()):
        _facing_exit(grid, focal)
    else:
        focal.heading = data.draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    threshold = data.draw(st.floats(0.0, 1.0))
    config = SimConfig(c=len(agents), w=1, W=W, L=L, trigger_threshold=threshold)
    comparison = None
    if data.draw(st.booleans()):
        score = data.draw(st.sampled_from([threshold, math.nextafter(threshold, -1.0)])
                          | st.floats(0.0, 1.0))
        comparison = (data.draw(st.sampled_from(agents)), score)
    radius = data.draw(st.integers(1, 4))

    free, visible = scan_cone(focal, grid, agents, radius)
    goal = _choose_target_cell(focal, grid, radius)
    assert visible == _visible_agents(focal, grid, agents, radius)
    assert steer(comparison, free, config) == _sct_adjust(
        focal, comparison, goal, grid, radius, config
    )
