"""Frame and plot rendering: plain text or self-contained SVG.

ASCII frames use one character per cell ('o' moving agent, 'x'
stationary agent, '=' exit, '#' wall).  SVG output embeds everything
inline so the files open anywhere without a renderer dependency.
"""

from __future__ import annotations

import math

from .errors import ArchsimError
from .world import Floor

_SVG_COLORS = {
    "wall": "#555555",
    "floor": "#f5f5f0",
    "exit": "#58b368",
    "moving": "#4878b0",
    "stationary": "#c03830",
}
_CELL_PX = 10  # side of one floor cell in an SVG frame
_PLOT_WIDTH, _PLOT_HEIGHT = 480, 360
_TICKS = 5  # about this many ticks per plot axis


def _live_agents(record, floor: Floor) -> dict:
    """cell -> id of the agent on it, for agents still in the corridor.

    ArchsimError names the step and the agent if a live agent stands off
    ``floor`` or on a cell that another one holds."""
    out = {}
    columns = zip(record.xs.tolist(), record.ys.tolist(), record.exited.tolist())
    for agent_id, (x, y, exited) in enumerate(columns):
        if exited:
            continue
        cell = (x, y)
        if cell not in floor.heading:
            problem = f"agent {agent_id} stands off the floor at {cell}"
        elif cell in out:
            problem = f"agents {out[cell]} and {agent_id} both stand on {cell}"
        else:
            out[cell] = agent_id
            continue
        raise ArchsimError(f"step {record.t}: {problem}")
    return out


def ascii_frame(record, floor: Floor) -> str:
    glyphs = {cell: "o" if record.moved[agent_id] else "x"
              for cell, agent_id in _live_agents(record, floor).items()}
    exit_xs = {x for x, _ in floor.exit_cells}
    top = "".join("=" if x in exit_xs else "#" for x in range(floor.width))
    lines = ["#" + top + "#"]
    for y in range(1, floor.length):
        row = "".join(glyphs.get((x, y), ".") for x in range(floor.width))
        lines.append("#" + row + "#")
    lines.append("#" * (floor.width + 2))
    return "\n".join(lines)


def svg_frame(record, floor: Floor) -> str:
    W, L = floor.width, floor.length
    width_px = (W + 2) * _CELL_PX
    height_px = (L + 1) * _CELL_PX
    c = _SVG_COLORS

    def rect(x, y, w, h, color):
        return (
            f'<rect x="{x * _CELL_PX}" y="{y * _CELL_PX}" width="{w * _CELL_PX}" '
            f'height="{h * _CELL_PX}" fill="{color}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        rect(0, 0, W + 2, L + 1, c["floor"]),
        rect(0, 0, 1, L + 1, c["wall"]),          # left wall
        rect(W + 1, 0, 1, L + 1, c["wall"]),      # right wall
        rect(1, 0, W, 1, c["wall"]),              # exit wall
    ]
    for ex, _ in floor.exit_cells:
        parts.append(rect(ex + 1, 0, 1, 1, c["exit"]))
    for (x, y), agent_id in sorted(_live_agents(record, floor).items()):
        color = c["moving"] if record.moved[agent_id] else c["stationary"]
        parts.append(rect(x + 1, y, 1, 1, color))
    parts.append("</svg>")
    return "\n".join(parts)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round ticks over [lo, hi], ``lo < hi``."""
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9:
        ticks.append(round(v, 10))
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:g}"


def svg_scatter(points, fit, title: str, xlabel: str, ylabel: str) -> str:
    """Scatter plot with its fitted line y = slope*x + intercept.

    `fit` is anything with slope/intercept attributes, e.g. a RegressionFit.
    """
    width, height = _PLOT_WIDTH, _PLOT_HEIGHT
    ml, mr, mt, mb = 52, 16, 30, 42
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    xpad = (xhi - xlo) * 0.08 or 1.0
    ypad = (yhi - ylo) * 0.08 or 1.0
    xlo, xhi = xlo - xpad, xhi + xpad
    ylo, yhi = ylo - ypad, yhi + ypad

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - ylo) / (yhi - ylo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
        f'height="{height - mt - mb}" fill="none" stroke="#888"/>',
    ]
    for tx in _nice_ticks(xlo, xhi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.1f}" y1="{height - mb}" x2="{x:.1f}" '
            f'y2="{height - mb + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height - mb + 16}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _nice_ticks(ylo, yhi):
        y = py(ty)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="#444"/>')
        parts.append(
            f'<text x="{ml - 7}" y="{y + 3.5:.1f}" text-anchor="end">{_fmt(ty)}</text>'
        )
    slope, intercept = fit.slope, fit.intercept
    x1, x2 = xlo + xpad * 0.25, xhi - xpad * 0.25
    parts.append(
        f'<line x1="{px(x1):.1f}" y1="{py(slope * x1 + intercept):.1f}" '
        f'x2="{px(x2):.1f}" y2="{py(slope * x2 + intercept):.1f}" '
        f'stroke="#4878b0" stroke-width="1.5"/>'
    )
    for x, y in points:
        parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.5" fill="#c03830"/>')
    ymid = (mt + height - mb) / 2
    parts += [
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 8}" text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{ymid:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {ymid:.0f})">{ylabel}</text>',
        "</svg>",
    ]
    return "\n".join(parts)
