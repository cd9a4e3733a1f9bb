"""Vision cone geometry, similarity scoring, and target selection."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from archsim.agent import (
    Agent,
    choose_target_cell,
    cone_offsets,
    heading_toward,
    most_similar_neighbor,
    sct_adjust,
    similarity,
    signed_deviation,
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


def test_choose_target_prefers_smaller_deviation_at_equal_distance():
    """Equal-distance candidates at ~10 and ~43 degrees: the 10-degree one."""
    grid = build_world(19, 60, 7)
    agent = Agent(id=0, pos=(5, 30), heading=math.atan2(1, 2) - math.radians(10))
    grid.place(0, agent.pos)
    for i, (ox, oy) in enumerate([(1, 0), (1, 1), (2, 0)]):  # block nearer cells
        grid.place(i + 1, (5 + ox, 30 + oy))
    assert choose_target_cell(agent, grid, 3) == (7, 31)


def test_choose_target_none_when_cone_blocked():
    grid = build_world(19, 60, 7)
    agent = Agent(id=0, pos=(9, 30), heading=3 * math.pi / 2)
    grid.place(0, agent.pos)
    blockers = _oracle_cone(3, 3 * math.pi / 2)
    for i, (ox, oy) in enumerate(sorted(blockers)):
        grid.place(i + 1, (9 + ox, 30 + oy))
    assert choose_target_cell(agent, grid, 3) is None


@given(data=st.data())
@settings(max_examples=60)
def test_choose_target_returns_free_cell(data):
    grid = build_world(9, 14, 3)
    x = data.draw(st.integers(0, 8))
    y = data.draw(st.integers(1, 13))
    agent = Agent(id=0, pos=(x, y))
    agent.heading = heading_toward(agent.pos, nearest_exit_coordinate(grid, agent.pos))
    grid.place(0, agent.pos)
    free = [(i, j) for i in range(9) for j in range(14)
            if is_free(grid, (i, j))]
    blocked = data.draw(st.lists(st.sampled_from(free), max_size=20, unique=True))
    for i, cell in enumerate(blocked):
        grid.place(i + 1, cell)
    target = choose_target_cell(agent, grid, 3)
    if target is not None:
        assert is_free(grid, target)
        assert math.hypot(target[0] - x, target[1] - y) <= 3.0


# ---------------------------------------------------------------- adjustment

def test_sct_passthrough_above_threshold():
    grid = build_world(19, 60, 1)
    focal = Agent(id=0, pos=(10, 10))
    focal.heading = heading_toward(focal.pos, nearest_exit_coordinate(grid, focal.pos))
    other = Agent(id=1, pos=(8, 10))
    grid.place(0, focal.pos)
    grid.place(1, other.pos)
    goal = (10, 9)
    assert sct_adjust(focal, (other, 0.9), goal, grid, 3, CONFIG) == goal
    assert sct_adjust(focal, None, goal, grid, 3, CONFIG) == goal


def test_sct_veers_toward_dissimilar_comparison():
    """A low-scoring match two cells to the left pulls the target leftward."""
    grid = build_world(19, 60, 1)
    focal = Agent(id=0, pos=(10, 10))
    focal.heading = heading_toward(focal.pos, nearest_exit_coordinate(grid, focal.pos))
    other = Agent(id=1, pos=(8, 10))
    grid.place(0, focal.pos)
    grid.place(1, other.pos)
    adjusted = sct_adjust(focal, (other, 0.2), (10, 9), grid, 3, CONFIG)
    # nearest free cone cell to (8,10): one step down-left of the focal agent
    assert adjusted == (9, 9)


@given(data=st.data())
@settings(max_examples=60)
def test_sct_adjust_result_is_free_or_goal(data):
    grid = build_world(9, 14, 3)
    focal = Agent(id=0, pos=(data.draw(st.integers(0, 8)), data.draw(st.integers(2, 13))))
    focal.heading = heading_toward(focal.pos, nearest_exit_coordinate(grid, focal.pos))
    grid.place(0, focal.pos)
    ox, oy = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
    other_pos = (focal.pos[0] + ox, focal.pos[1] + oy)
    if other_pos == focal.pos or grid.is_wall(other_pos):
        other_pos = (focal.pos[0], min(13, focal.pos[1] + 1))
    other = Agent(id=1, pos=other_pos)
    if other_pos not in grid.occupancy:
        grid.place(1, other_pos)
    score = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    goal = choose_target_cell(focal, grid, 3)
    adjusted = sct_adjust(focal, (other, score), goal, grid, 3, CONFIG)
    if score >= 0.5:
        assert adjusted == goal
    elif adjusted is not None:
        assert is_free(grid, adjusted)
