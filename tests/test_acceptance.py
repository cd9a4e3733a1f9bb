"""Release gate: the eight acceptance criteria, one verdict line each.

Each test prints exactly one line

    criterion N: PASS - <measured values>
    criterion N: FAIL - <measured values>

and then asserts on it, so a failing criterion is a failing test carrying
the same message.  Run `pytest tests/test_acceptance.py -s` to see the
verdicts for passing criteria too (pytest swallows stdout of passes
otherwise).

The full default sweep backing criteria 2, 3, 4, 6 and 8 is run once per
session by the `default_sweep` fixture in conftest.py.
"""

import math
import time

import numpy as np

from conftest import make_record
from scalar_reference import cone_offsets, heading_toward

from archsim.analysis import (
    aggregate,
    compute_trends,
    ols_fit,
    regression_by_c,
    trend_correlation,
)
from archsim.cli import main
from archsim.engine import SimConfig, run, write_trace_csv
from archsim.errors import ArchsimError
from archsim.metrics import clog_cluster, detect_arch_onset
from archsim.sweep import SweepConfig, run_sweep
from archsim.world import build_floor


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _fmt(v, spec=".2f"):
    return "none" if v is None else format(v, spec)


# ----------------------------------------------------------------- 1: arching

def test_criterion_1_arching_emergence():
    sweep = SweepConfig()
    floor = build_floor(19, 60, 7)
    qualifying, runtimes, notes = 0, [], []
    for rep in range(3):
        cfg = sweep.sim_config(400, 7, rep)
        t0 = time.perf_counter()
        records = run(cfg)
        runtimes.append(time.perf_counter() - t0)
        meas = detect_arch_onset(records, floor)
        if not meas.arch_detected:
            notes.append(f"rep{rep}: no arch")
            continue
        half_t = next(
            (r.t for r in records if 2 * r.exited_count >= cfg.c), math.inf
        )
        good = meas.M >= 2 and 7 <= meas.m <= 19 and meas.T < half_t
        qualifying += good
        notes.append(
            f"rep{rep}: T={meas.T} M={meas.M} m={meas.m}"
            + ("" if good else " (shape/timing out of bounds)")
        )
    ok = qualifying >= 2 and max(runtimes) < 30.0
    _verdict(
        1,
        ok,
        f"{qualifying}/3 qualifying c=400 w=7 runs, need >=2 "
        f"({'; '.join(notes)}); slowest run {max(runtimes):.1f}s of 30s budget",
    )


# ------------------------------------------------------------- 2: T-w slopes

def test_criterion_2_onset_slope_direction(default_sweep):
    fits = regression_by_c(
        (s.c, s.w, s.T_mean) for s in aggregate(default_sweep.rows) if s.n_detected
    )
    missing = [c for c in (200, 400, 450) if c not in fits]
    if missing:
        _verdict(2, False, f"no usable mean-T regression for c={missing}")
    s = {c: fits[c].slope for c in (200, 400, 450)}
    ok = s[450] < 0 and s[400] < 0 and abs(s[450]) > abs(s[200])
    _verdict(
        2,
        ok,
        f"slope(450)={s[450]:+.3f}, slope(400)={s[400]:+.3f}, "
        f"slope(200)={s[200]:+.3f}; need the first two negative and "
        f"|slope(450)| > |slope(200)|",
    )


# -------------------------------------------------------------- 3: m plateau

def test_criterion_3_transverse_plateau(default_sweep):
    stats = {(s.c, s.w): s for s in aggregate(default_sweep.rows)}
    plateau = {w: stats[(450, w)].m_mean for w in (9, 11, 13)}
    plateau_ok = all(v is not None and abs(v - 19) <= 1 for v in plateau.values())

    wide_rows, wide_errors = run_sweep(SweepConfig(c_levels=(450,), w_levels=(13,), W=35))
    assert not wide_errors
    (wide,) = aggregate(wide_rows)
    widened_ok = wide.m_mean is not None and wide.m_mean > 19
    _verdict(
        3,
        plateau_ok and widened_ok,
        "W=19 c=450 mean m at w=9,11,13: "
        + ", ".join(_fmt(plateau[w]) for w in (9, 11, 13))
        + f" (each must be within 1 of 19); W=35 rerun at w=13: "
        f"mean m = {_fmt(wide.m_mean)} (must exceed 19)",
    )


# ------------------------------------------------------- 4: trend correlations

def test_criterion_4_trend_correlations(default_sweep):
    try:
        trends = compute_trends(aggregate(default_sweep.rows))
    except ArchsimError as exc:
        _verdict(4, False, f"trends not computable: {exc}")
    ok = (
        trends.T_vs_inverse_cw > 0.5
        and trends.M_vs_c_over_w > 0.5
        and trends.m_vs_cw > 0.5
    )
    _verdict(
        4,
        ok,
        f"r(T, 1/(c*w)) = {trends.T_vs_inverse_cw:+.3f}, "
        f"r(M, c/w) = {trends.M_vs_c_over_w:+.3f}, "
        f"r(m, c*w) = {trends.m_vs_cw:+.3f} over {trends.n_cells} cells "
        f"({trends.n_saturated_excluded} saturated excluded); all must exceed +0.5",
    )


# ------------------------------------------------------------- 5: OLS kernel

def _grid_search_ols(x, y):
    """Brute-force SSE minimizer: 21x21 grid, 14 refinement rounds.

    Works in (slope, value at the x mean) coordinates; centering x makes
    the SSE surface axis-aligned so the shrinking window keeps the
    minimum.
    """
    mx = float(x.mean())
    u = x - mx
    lo_a = lo_b = -50.0
    hi_a = hi_b = 50.0
    for _ in range(14):
        a = np.linspace(lo_a, hi_a, 21)
        b = np.linspace(lo_b, hi_b, 21)
        sse = ((y[None, None, :] - a[:, None, None] * u[None, None, :]
                - b[None, :, None]) ** 2).sum(axis=-1)
        i, j = np.unravel_index(int(np.argmin(sse)), sse.shape)
        step_a, step_b = (hi_a - lo_a) / 20, (hi_b - lo_b) / 20
        lo_a, hi_a = a[i] - 2 * step_a, a[i] + 2 * step_a
        lo_b, hi_b = b[j] - 2 * step_b, b[j] + 2 * step_b
    return float(a[i]), float(b[j]) - float(a[i]) * mx


def test_criterion_5_statistical_kernel():
    worst_example = 0.0
    for pts, slope, intercept, r2 in [
        ([(1, 2), (2, 4), (3, 6)], 2.0, 0.0, 1.0),
        ([(0, 1), (1, 1), (2, 1)], 0.0, 1.0, 0.0),
        ([(0, 0), (1, 1), (2, 0)], 0.0, 1.0 / 3.0, 0.0),
    ]:
        fit = ols_fit(pts)
        worst_example = max(
            worst_example,
            abs(fit.slope - slope),
            abs(fit.intercept - intercept),
            abs(fit.r_squared - r2),
        )

    rng = np.random.default_rng(20260815)
    worst_oracle = worst_identity = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        x = rng.uniform(-5.0, 5.0, n)
        while np.ptp(x) < 2.0:  # keeps the true slope well inside ±50
            x = rng.uniform(-5.0, 5.0, n)
        y = (rng.uniform(-3.0, 3.0) * x + rng.uniform(-5.0, 5.0)
             + rng.normal(0.0, 1.0, n))
        fit = ols_fit(list(zip(x, y)))
        oracle_slope, oracle_intercept = _grid_search_ols(x, y)
        worst_oracle = max(
            worst_oracle,
            abs(fit.slope - oracle_slope),
            abs(fit.intercept - oracle_intercept),
        )
        r = trend_correlation(list(x), list(y))
        worst_identity = max(worst_identity, abs(fit.r_squared - r * r))

    ok = worst_example <= 1e-9 and worst_oracle <= 1e-6 and worst_identity <= 1e-12
    _verdict(
        5,
        ok,
        f"listed examples off by {worst_example:.1e} (tol 1e-9); grid-search "
        f"oracle off by {worst_oracle:.1e} over 100 datasets (tol 1e-6); "
        f"max |R^2 - r^2| = {worst_identity:.1e} (tol 1e-12)",
    )


# ------------------------------------------------------------ 6: determinism

def test_criterion_6_determinism(default_sweep, tmp_path):
    cfg = SimConfig(c=120, w=5, seed=3)
    write_trace_csv(run(cfg), tmp_path / "a.csv")
    write_trace_csv(run(cfg), tmp_path / "b.csv")
    trace_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    out = tmp_path / "parallel"
    status = main(["sweep", "--out", str(out), "--parallelism", "2"])
    sweep_ok = status == 0 and (
        (out / "measurements.csv").read_bytes()
        == (default_sweep.out / "measurements.csv").read_bytes()
    )
    _verdict(
        6,
        trace_ok and sweep_ok,
        f"repeated c=120 run trace bytes identical: {trace_ok}; full sweep at "
        f"parallelism 2 byte-identical to serial: {sweep_ok}",
    )


# ---------------------------------------------------------- 7: oracle suites

def _cone_oracle(radius, heading):
    members = set()
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            if (dx, dy) == (0, 0) or math.hypot(dx, dy) > radius + 1e-9:
                continue
            dev = (math.atan2(dy, dx) - heading) % (2 * math.pi)
            if dev > math.pi:
                dev -= 2 * math.pi
            if abs(dev) <= math.radians(50) + 1e-9:
                members.add((dx, dy))
    return members


def _cluster_oracle(cells, exit_cells):
    remaining = set(cells)
    components = []
    while remaining:
        comp = {remaining.pop()}
        queue = list(comp)
        while queue:
            x, y = queue.pop()
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    nb = (x + dx, y + dy)
                    if nb in remaining:
                        remaining.discard(nb)
                        comp.add(nb)
                        queue.append(nb)
        components.append(comp)
    touching = [
        comp
        for comp in components
        if any(
            (x - ex) ** 2 + (y - ey) ** 2 <= 1
            for x, y in comp
            for ex, ey in exit_cells
        )
    ]
    if not touching:
        return set()
    return min(touching, key=lambda comp: (-len(comp), min(comp)))


def test_criterion_7_oracle_suites():
    cone_bad = 0
    headings = [k * 2 * math.pi / 72 for k in range(72)]
    headings += [  # lattice directions pushed exactly onto the cone boundary
        (math.atan2(1, 2) - math.radians(50)) % (2 * math.pi),
        (math.atan2(1, 1) + math.radians(50)) % (2 * math.pi),
        (math.atan2(-1, 3) + math.radians(50)) % (2 * math.pi),
        (math.atan2(2, 1) - math.radians(50)) % (2 * math.pi),
    ]
    cone_total = 0
    for radius in range(1, 6):
        for heading in headings:
            cone_total += 1
            members = {(ox, oy) for ox, oy, _ in cone_offsets(radius, heading)}
            if members != _cone_oracle(radius, heading):
                cone_bad += 1

    rng = np.random.default_rng(7)
    cluster_bad = 0
    window = [(x, y) for x in range(11) for y in range(1, 12)]
    for _ in range(200):
        floor = build_floor(11, 12, int(rng.integers(1, 12)))
        picks = rng.choice(len(window), size=int(rng.integers(0, 31)), replace=False)
        cells = [window[i] for i in picks]
        record = make_record(0, cells)
        if clog_cluster(record, floor) != _cluster_oracle(set(cells), floor.exit_cells):
            cluster_bad += 1

    exit_bad = exit_total = 0
    for w in range(1, 12):
        floor = build_floor(11, 12, w)
        for x in range(11):
            for y in range(11):
                if (x, y) not in floor.heading:  # a wall cell of the end wall
                    continue
                exit_total += 1
                best = min(
                    sorted(floor.exit_cells),
                    key=lambda e: math.hypot(x - e[0], y - e[1]),
                )
                if floor.heading[(x, y)] != heading_toward((x, y), best):
                    exit_bad += 1

    ok = cone_bad == cluster_bad == exit_bad == 0
    _verdict(
        7,
        ok,
        f"cone: {cone_total - cone_bad}/{cone_total} radius-heading instances "
        f"match; clusters: {200 - cluster_bad}/200 random layouts match; "
        f"nearest exit: {exit_total - exit_bad}/{exit_total} floor cells' headings match",
    )


# ---------------------------------------------------------------- 8: runtime

def test_criterion_8_sweep_runtime(default_sweep):
    ok = default_sweep.elapsed < 600.0
    _verdict(
        8,
        ok,
        f"full 35-cell x 3-replicate sweep took {default_sweep.elapsed:.1f}s "
        f"of the 600s budget ({len(default_sweep.rows)} runs)",
    )
