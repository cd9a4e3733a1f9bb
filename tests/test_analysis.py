"""Statistical kernel: OLS, Pearson trends, aggregation."""

import math
import random

import pytest

from archsim.analysis import (
    CellStats,
    aggregate,
    compute_trends,
    ols_fit,
    regression_by_c,
    trend_correlation,
)
from archsim.errors import DegenerateInputError
from archsim.sweep import MeasurementRow


# ------------------------------------------------------------------ ols_fit

def test_perfect_line():
    fit = ols_fit([(1, 2), (2, 4), (3, 6)])
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.n == 3
    # a zero-residual line has no slope noise: t undefined by policy
    assert fit.t_stat is None


def test_constant_y_r_squared_policy():
    fit = ols_fit([(0, 1), (1, 1), (2, 1)])
    assert fit.slope == pytest.approx(0.0, abs=1e-9)
    assert fit.intercept == pytest.approx(1.0, abs=1e-9)
    assert fit.r_squared == 0.0  # SST = 0 -> defined as 0


def test_symmetric_vee():
    fit = ols_fit([(0, 0), (1, 1), (2, 0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-9)
    assert fit.intercept == pytest.approx(1 / 3, abs=1e-9)
    assert fit.r_squared == pytest.approx(0.0, abs=1e-9)


def test_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        ols_fit([(1, 2)])
    with pytest.raises(DegenerateInputError):
        ols_fit([(2, 1), (2, 5), (2, 9)])  # vertical line
    with pytest.raises(DegenerateInputError):
        ols_fit([])


def test_two_points_have_no_t_statistic():
    fit = ols_fit([(0, 1), (1, 3)])
    assert fit.slope == pytest.approx(2.0)
    assert fit.t_stat is None  # df = n - 2 = 0


def test_slope_standard_error_formula():
    pts = [(0.0, 0.1), (1.0, 0.9), (2.0, 2.2), (3.0, 2.8), (4.0, 4.1)]
    fit = ols_fit(pts)
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sse = sum((y - (fit.slope * x + fit.intercept)) ** 2 for x, y in pts)
    se = math.sqrt(sse / (n - 2) / sxx)
    assert fit.t_stat == pytest.approx(fit.slope / se, rel=1e-12)
    # strongly sloped: clears the two-sided 5% critical t at df=3, 3.182
    assert fit.t_stat > 3.182


def test_insignificant_slope():
    fit = ols_fit([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)])
    assert fit.t_stat == pytest.approx(0.0, abs=1e-12)  # a zigzag has no trend


def _grid_search_ols(points):
    """SSE minimization by iterative grid refinement; no normal equations.

    Searches (slope, value at the x mean): with x centered the SSE
    surface is axis-aligned, so the shrinking window cannot lose the
    minimum down a diagonal valley.
    """
    mx = sum(x for x, _ in points) / len(points)

    def sse(a, b0):
        return sum((y - (a * (x - mx) + b0)) ** 2 for x, y in points)

    lo_a, hi_a = -50.0, 50.0
    lo_b, hi_b = -50.0, 50.0
    best = (0.0, 0.0)
    for _ in range(14):
        steps_a = [lo_a + i * (hi_a - lo_a) / 20 for i in range(21)]
        steps_b = [lo_b + i * (hi_b - lo_b) / 20 for i in range(21)]
        best = min(((a, b) for a in steps_a for b in steps_b), key=lambda p: sse(*p))
        span_a = (hi_a - lo_a) / 20 * 2
        span_b = (hi_b - lo_b) / 20 * 2
        lo_a, hi_a = best[0] - span_a, best[0] + span_a
        lo_b, hi_b = best[1] - span_b, best[1] + span_b
    return best[0], best[1] - best[0] * mx


def test_matches_grid_search_oracle():
    """100 random small datasets; fitted parameters agree to 1e-6."""
    rnd = random.Random(91)
    for trial in range(100):
        n = rnd.randint(2, 10)
        while True:
            xs = [rnd.uniform(-5, 5) for _ in range(n)]
            if max(xs) - min(xs) > 2.0:  # keep the least-squares slope inside ±50
                break
        ys = [rnd.uniform(-5, 5) for _ in range(n)]
        fit = ols_fit(list(zip(xs, ys)))
        slope, intercept = _grid_search_ols(list(zip(xs, ys)))
        assert fit.slope == pytest.approx(slope, abs=1e-6), trial
        assert fit.intercept == pytest.approx(intercept, abs=1e-6), trial


def test_r_squared_equals_squared_pearson():
    rnd = random.Random(5)
    for _ in range(100):
        n = rnd.randint(3, 10)
        xs = [rnd.uniform(-5, 5) for _ in range(n)]
        ys = [rnd.uniform(-5, 5) for _ in range(n)]
        if max(xs) - min(xs) < 0.5 or max(ys) - min(ys) < 1e-6:
            continue
        fit = ols_fit(list(zip(xs, ys)))
        r = trend_correlation(xs, ys)
        assert fit.r_squared == pytest.approx(r * r, abs=1e-12)


# -------------------------------------------------------- trend_correlation

def test_trend_exact_lines():
    xs = [1.0, 2.0, 3.0, 5.0]
    assert trend_correlation(xs, [2 * x for x in xs]) == pytest.approx(1.0)
    assert trend_correlation(xs, [-x + 7 for x in xs]) == pytest.approx(-1.0)


def test_trend_hand_case():
    # direct covariance/variance arithmetic gives 5.5/sqrt(5*8.75)
    r = trend_correlation([1, 2, 3, 4], [1, 3, 2, 5])
    assert r == pytest.approx(0.8315218406202999, abs=1e-12)


def test_trend_degenerate():
    with pytest.raises(DegenerateInputError):
        trend_correlation([1, 2], [1, 2])  # fewer than 3 points
    with pytest.raises(DegenerateInputError):
        trend_correlation([1, 1, 1], [1, 2, 3])  # zero variance
    with pytest.raises(DegenerateInputError):
        trend_correlation([1, 2, 3], [4, 4, 4])


# ---------------------------------------------------------------- aggregate

def _row(c, w, rep, T=None, M=None, m=None, W=19):
    detected = T is not None
    return MeasurementRow(
        c=c, w=w, W=W, seed=rep, replicate=rep, arch_detected=detected,
        T=T, M=M, m=m, cluster_size=(3 * w if detected else None),
    )


def _cell_means(rows):
    """regression_by_c samples: (c, w, mean T) of the cells with a detection."""
    return [(s.c, s.w, s.T_mean) for s in aggregate(rows) if s.n_detected]


def test_aggregate_mean_and_sd():
    rows = [_row(400, 7, i, T=t, M=5, m=9) for i, t in enumerate((30, 32, 34))]
    (cell,) = aggregate(rows)
    assert cell.T_mean == pytest.approx(32.0)
    assert cell.T_sd == pytest.approx(2.0)  # sample sd, ddof=1
    assert cell.n_replicates == 3
    assert cell.n_detected == 3
    assert cell.arch_rate == pytest.approx(1.0)


def test_aggregate_single_replicate_sd_zero():
    (cell,) = aggregate([_row(300, 5, 0, T=40, M=4, m=8)])
    assert cell.T_mean == 40
    assert cell.T_sd == 0.0


def test_aggregate_undetected_cell_flagged_empty():
    rows = [_row(200, 13, i) for i in range(3)]
    (cell,) = aggregate(rows)
    assert cell.n_detected == 0
    assert cell.arch_rate == 0.0
    assert cell.T_mean is None and cell.M_mean is None and cell.m_mean is None
    # and such a cell contributes nothing to the per-c regression
    assert regression_by_c(_cell_means(rows)) == {}


def test_aggregate_mixed_detection():
    rows = [_row(350, 5, 0, T=20, M=4, m=7), _row(350, 5, 1),
            _row(350, 5, 2, T=26, M=6, m=9)]
    (cell,) = aggregate(rows)
    assert cell.n_detected == 2
    assert cell.arch_rate == pytest.approx(2 / 3)
    assert cell.T_mean == pytest.approx(23.0)


def test_aggregate_sorted_and_order_invariant():
    rows = [
        _row(450, 3, 0, T=12, M=3, m=5),
        _row(200, 1, 0, T=15, M=2, m=3),
        _row(450, 1, 0, T=9, M=2, m=2),
        _row(200, 3, 0, T=22, M=3, m=4),
    ]
    stats = aggregate(rows)
    assert [(s.c, s.w) for s in stats] == [(200, 1), (200, 3), (450, 1), (450, 3)]
    shuffled = list(reversed(rows))
    assert aggregate(shuffled) == stats
    assert regression_by_c(_cell_means(shuffled)) == regression_by_c(_cell_means(rows))


def test_saturation_flag():
    sat = _row(450, 9, 0, T=10, M=8, m=18)
    (cell,) = aggregate([sat])
    assert cell.saturated  # m within one cell of W = 19
    (cell2,) = aggregate([_row(450, 9, 0, T=10, M=8, m=17)])
    assert not cell2.saturated


# ------------------------------------------------------------------- trends

def _trend_rows():
    """Four unsaturated cells with hand-picked means."""
    rows = []
    cells = [
        (200, 3, 30, 3, 5),
        (300, 5, 22, 5, 8),
        (400, 7, 15, 7, 11),
        (450, 9, 11, 9, 14),
    ]
    for c, w, T, M, m in cells:
        rows.extend(_row(c, w, rep, T=T, M=M, m=m) for rep in range(3))
    return rows, cells


def _pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def test_compute_trends_against_direct_formula():
    rows, cells = _trend_rows()
    trends = compute_trends(aggregate(rows))
    assert trends.n_cells == 4
    assert trends.n_saturated_excluded == 0
    inv_cw = [1 / (c * w) for c, w, *_ in cells]
    over = [c / w for c, w, *_ in cells]
    cw = [c * w for c, w, *_ in cells]
    assert trends.T_vs_inverse_cw == pytest.approx(_pearson(inv_cw, [r[2] for r in cells]))
    assert trends.M_vs_c_over_w == pytest.approx(_pearson(over, [r[3] for r in cells]))
    assert trends.m_vs_cw == pytest.approx(_pearson(cw, [r[4] for r in cells]))


def test_trends_exclude_saturated_cells_by_default():
    rows, _ = _trend_rows()
    rows.extend(_row(450, 13, rep, T=8, M=12, m=19) for rep in range(3))
    trends = compute_trends(aggregate(rows))
    assert trends.n_cells == 4
    assert trends.n_saturated_excluded == 1


def test_trends_need_three_cells():
    rows = [_row(200, 3, 0, T=30, M=3, m=5), _row(300, 5, 0, T=22, M=5, m=8)]
    with pytest.raises(DegenerateInputError):
        compute_trends(aggregate(rows))


# ---------------------------------------------------------- regression_by_c

def test_regression_on_cell_means():
    rows = []
    for w, ts in [(1, (50, 52)), (3, (44, 46)), (5, (40, 40))]:
        rows.extend(_row(400, w, rep, T=t, M=3, m=2 * w) for rep, t in enumerate(ts))
    fits = regression_by_c(_cell_means(rows))
    assert set(fits) == {400}
    means = [(1, 51.0), (3, 45.0), (5, 40.0)]
    expected = ols_fit(means)
    assert fits[400].slope == pytest.approx(expected.slope)
    assert fits[400].n == 3

    raw = regression_by_c((r.c, r.w, r.T) for r in rows if r.arch_detected)
    assert raw[400].n == 6
    # same balanced-design slope, but within-cell scatter costs R^2
    assert raw[400].slope == pytest.approx(fits[400].slope)
    assert raw[400].r_squared < fits[400].r_squared


def test_regression_skips_single_width_groups():
    rows = [_row(200, 7, rep, T=20 + rep, M=3, m=9) for rep in range(3)]
    assert regression_by_c(_cell_means(rows)) == {}  # all x equal: no usable fit


def test_cellstats_is_plain_data():
    s = CellStats(
        c=200, w=3, W=19, n_replicates=3, n_detected=2,
        T_mean=20.0, T_sd=1.0, M_mean=3.0, M_sd=0.0, m_mean=5.0, m_sd=1.0,
    )
    assert s.arch_rate == pytest.approx(2 / 3)
    assert not s.saturated
