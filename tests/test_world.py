"""World geometry: exit placement, walls, occupancy, the heading field
toward the nearest exit, cell indices and the shared floor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from archsim.errors import InvalidDimensionsError
from archsim.world import (
    COORD_MAX,
    FREE,
    WALL,
    WorldGrid,
    build_floor,
    check_geometry,
)

from conftest import cell_index, crowd_on
from scalar_reference import heading_toward


def _is_free(grid, cell):
    """True iff ``cell`` is a floor cell whose occupancy slot is FREE."""
    k = cell_index(grid.floor).get(cell)
    return k is not None and grid.occupancy[k] == FREE


def test_centered_exit_19_7():
    floor = build_floor(19, 60, 7)
    assert floor.exit_cells == tuple((x, 0) for x in range(6, 13))


def test_exit_spanning_whole_wall():
    floor = build_floor(19, 60, 19)
    assert floor.exit_cells == tuple((x, 0) for x in range(0, 19))
    # no wall cell remains on the end wall
    assert all((x, 0) in floor.heading for x in range(19))


def test_wide_corridor_offsets():
    floor = build_floor(35, 60, 13)
    assert floor.exit_cells[0] == (11, 0)
    assert floor.exit_cells[-1] == (23, 0)


def test_odd_leftover_biases_low_index():
    # W - w = 4 - 1 = 3 is odd: segment sits one cell toward index 0
    floor = build_floor(4, 10, 1)
    assert floor.exit_cells == ((1, 0),)


@pytest.mark.parametrize(
    "W,L,w",
    [(19, 60, 0), (19, 60, 20), (19, 19, 7), (19, 10, 7), (0, 60, 0), (1, 32769, 1)],
)
def test_invalid_dimensions(W, L, w):
    with pytest.raises(InvalidDimensionsError):
        check_geometry(W, L, w)
    if L <= COORD_MAX + 1:  # never build a floor longer than int16 holds
        with pytest.raises(InvalidDimensionsError):
            build_floor(W, L, w)


def test_wall_predicate():
    floor = build_floor(19, 60, 7)
    assert (0, 0) not in floor.heading   # end wall outside the exit
    assert (5, 0) not in floor.heading
    assert (6, 0) in floor.heading       # exit cells are not walls
    assert (12, 0) in floor.heading
    assert (13, 0) not in floor.heading
    assert (0, 1) in floor.heading
    assert (-1, 5) not in floor.heading  # out of bounds counts as wall
    assert (19, 5) not in floor.heading
    assert (5, 60) not in floor.heading


def test_occupancy_slots():
    grid = WorldGrid(build_floor(19, 60, 7))
    index = cell_index(grid.floor)
    # one FREE slot per floor cell, then the one a pace onto a wall (index -1) reads
    assert grid.occupancy == [FREE] * len(grid.floor.cells) + [WALL]
    assert _is_free(grid, (9, 5))
    grid.occupancy[index[(9, 5)]] = 0
    assert not _is_free(grid, (9, 5))
    assert not _is_free(grid, (0, 0))     # wall
    assert not _is_free(grid, (-1, 3))    # out of bounds
    assert _is_free(grid, (9, 0))         # exit cells count as free


def test_floor_cell_indices():
    """Cell k of the heading field's order is cells[k] = (xs[k], ys[k]); the
    exit segment comes first; the coordinate columns are read-only."""
    floor = build_floor(19, 60, 7)
    assert floor.cells == tuple(floor.heading)
    assert floor.cells[:7] == floor.exit_cells
    assert list(zip(floor.xs.tolist(), floor.ys.tolist())) == list(floor.cells)
    assert floor.xs.dtype == floor.ys.dtype == np.int16
    with pytest.raises(ValueError):
        floor.xs[0] = 1
    with pytest.raises(ValueError):
        floor.ys[0] = 1


def _reference_is_wall(floor, cell):
    """The bounds arithmetic the floor map replaced."""
    x, y = cell
    if not (0 <= x < floor.width and 0 <= y < floor.length):
        return True
    x0, x1 = floor.exit_cells[0][0], floor.exit_cells[-1][0]
    return y == 0 and not (x0 <= x <= x1)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_floor_map_matches_bounds_arithmetic(data):
    """The floor's cell index and the occupancy slots agree with the
    bounds-arithmetic walls on every cell of a box reaching 4 cells beyond
    the corridor."""
    W = data.draw(st.integers(1, 9))
    L = data.draw(st.integers(W + 1, 12))
    grid = WorldGrid(build_floor(W, L, data.draw(st.integers(1, W))))
    box = [(x, y) for y in range(-4, L + 4) for x in range(-4, W + 4)]
    cells = [cell for cell in box if not _reference_is_wall(grid.floor, cell)]
    bodies = data.draw(st.lists(st.sampled_from(cells), unique=True))
    crowd_on(grid, bodies)
    occupied = set(bodies)
    for cell in box:
        wall = _reference_is_wall(grid.floor, cell)
        assert (cell not in grid.floor.heading) == wall
        assert _is_free(grid, cell) == (not wall and cell not in occupied)


def _oracle_nearest(floor, pos):
    """Exhaustive argmin over exit cells; ties to the lowest transverse index."""
    best, best_d = None, math.inf
    for ex, ey in sorted(floor.exit_cells):
        d = math.hypot(pos[0] - ex, pos[1] - ey)
        if d < best_d:
            best, best_d = (ex, ey), d
    return best


@pytest.mark.parametrize("W,L,w", [(19, 60, 7), (19, 60, 1), (4, 10, 1), (10, 14, 3), (11, 12, 11)])
def test_heading_field_faces_nearest_exit(W, L, w):
    """Every floor cell's heading points at the brute-force nearest exit."""
    floor = build_floor(W, L, w)
    assert list(floor.heading) == list(floor.cells)
    assert len(WorldGrid(floor).occupancy) == len(floor.cells) + 1
    for cell in floor.heading:
        assert floor.heading[cell] == heading_toward(cell, _oracle_nearest(floor, cell)), cell


def test_floor_heading_field_is_read_only():
    floor = build_floor(19, 60, 7)
    with pytest.raises(TypeError):
        floor.heading[(9, 5)] = 0.0
    with pytest.raises(AttributeError):
        floor.heading = {}
    assert floor.heading[(9, 5)] == heading_toward((9, 5), (9, 0))


def test_build_floor_keeps_the_last_geometry_only():
    """Runs of one geometry share its floor; another geometry replaces it."""
    first = build_floor(19, 60, 7)
    assert build_floor(19, 60, 7) is first
    assert build_floor(19, 60, 9) is not first
    assert build_floor(19, 60, 7) is not first
