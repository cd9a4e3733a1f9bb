"""Statistics over sweep measurements.

Ordinary least squares via the normal equations (with the slope's t
statistic), per-(c, w) aggregation of replicate measurements, and the
three trend correlations that summarize how onset time and arch axes
scale with crowd size and exit width: T against 1/(c*w), M against
c/w, and m against c*w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float
    t_stat: float | None
    n: int


def ols_fit(points) -> RegressionFit:
    """Least-squares line y = slope*x + intercept over (x, y) pairs.

    R^2 is clamped to [0, 1] and defined as 0 when y has no variance.
    The slope t statistic needs n >= 3 and a nonzero standard error;
    otherwise it is left as None.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.size == 0:
        raise DegenerateInputError("need at least 2 points, got 0")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DegenerateInputError("points must be (x, y) pairs")
    x, y = pts[:, 0], pts[:, 1]
    n = len(x)
    if n < 2:
        raise DegenerateInputError(f"need at least 2 points, got {n}")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateInputError("all x values identical, slope undefined")
    sxy = float(np.sum((x - x.mean()) * (y - y.mean())))
    slope = sxy / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    sse = float(np.sum((y - (slope * x + intercept)) ** 2))
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        r_squared = 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - sse / sst))
    t_stat = None
    if n >= 3:
        slope_se = math.sqrt(sse / (n - 2) / sxx)
        if slope_se > 0.0:
            t_stat = slope / slope_se
    return RegressionFit(slope, intercept, r_squared, t_stat, n)


def trend_correlation(xs, ys) -> float:
    """Pearson correlation coefficient in [-1, 1]."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) != len(y) or len(x) < 3:
        raise DegenerateInputError("need two equal-length sequences of >= 3 points")
    sxx = float(np.sum((x - x.mean()) ** 2))
    syy = float(np.sum((y - y.mean()) ** 2))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("zero variance, correlation undefined")
    sxy = float(np.sum((x - x.mean()) * (y - y.mean())))
    return sxy / math.sqrt(sxx * syy)


def _mean_sd(values) -> tuple[float, float]:
    vals = [float(v) for v in values]
    mean = sum(vals) / len(vals)
    if len(vals) == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var)


@dataclass
class CellStats:
    """Replicate statistics for one (c, w) factorial cell."""

    c: int
    w: int
    W: int
    n_replicates: int
    n_detected: int
    arch_rate: float = field(init=False)
    T_mean: float | None = None
    T_sd: float | None = None
    M_mean: float | None = None
    M_sd: float | None = None
    m_mean: float | None = None
    m_sd: float | None = None

    def __post_init__(self):
        self.arch_rate = self.n_detected / self.n_replicates

    @property
    def saturated(self) -> bool:
        """Arch width pinned against the corridor walls."""
        return self.m_mean is not None and self.m_mean >= self.W - 1


def aggregate(rows) -> list[CellStats]:
    """Collapse per-replicate measurements to per-(c, w) statistics.

    T/M/m statistics are over the replicates where an arch was detected;
    cells with no detection keep them as None.  Sorted by (c, w).  The
    rows share one corridor width W, as a sweep's and those
    ``sweep.read_measurements_csv`` returns do.
    """
    by_cell: dict[tuple[int, int], list] = {}
    for row in rows:
        by_cell.setdefault((row.c, row.w), []).append(row)
    out = []
    for (c, w) in sorted(by_cell):
        cell_rows = by_cell[(c, w)]
        detected = [r for r in cell_rows if r.arch_detected]
        stats = CellStats(
            c=c,
            w=w,
            W=cell_rows[0].W,
            n_replicates=len(cell_rows),
            n_detected=len(detected),
        )
        if detected:
            stats.T_mean, stats.T_sd = _mean_sd(r.T for r in detected)
            stats.M_mean, stats.M_sd = _mean_sd(r.M for r in detected)
            stats.m_mean, stats.m_sd = _mean_sd(r.m for r in detected)
        out.append(stats)
    return out


@dataclass
class TrendReport:
    T_vs_inverse_cw: float
    M_vs_c_over_w: float
    m_vs_cw: float
    n_cells: int
    n_saturated_excluded: int


def compute_trends(stats) -> TrendReport:
    """Pearson correlations of cell means against the scaling predictors.

    Takes the CellStats of ``aggregate``.  Cells where the arch spans
    the whole corridor (mean m >= W - 1) are excluded: their width is
    set by the walls, not by c and w.
    """
    cells = [s for s in stats if s.n_detected > 0]
    usable = [s for s in cells if not s.saturated]
    n_saturated = len(cells) - len(usable)
    if len(usable) < 3:
        raise DegenerateInputError(
            f"only {len(usable)} usable cells with detections, need >= 3"
        )
    cw = [s.c * s.w for s in usable]
    return TrendReport(
        T_vs_inverse_cw=trend_correlation([1.0 / v for v in cw], [s.T_mean for s in usable]),
        M_vs_c_over_w=trend_correlation([s.c / s.w for s in usable], [s.M_mean for s in usable]),
        m_vs_cw=trend_correlation(cw, [s.m_mean for s in usable]),
        n_cells=len(usable),
        n_saturated_excluded=n_saturated,
    )


def regression_by_c(samples) -> dict[int, RegressionFit]:
    """Fit onset time T against exit width w, one line per crowd size.

    ``samples`` are (c, w, T) triples: the detected cells' mean T, or
    the detected replicates' raw T.  Crowd sizes whose points are
    degenerate (fewer than two distinct widths) are skipped.
    """
    points: dict[int, list[tuple[int, float]]] = {}
    for c, w, T in samples:
        points.setdefault(c, []).append((w, T))
    fits: dict[int, RegressionFit] = {}
    for c in sorted(points):
        try:
            fits[c] = ols_fit(sorted(points[c]))
        except DegenerateInputError:
            continue
    return fits
