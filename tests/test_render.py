"""Frame and plot rendering."""

from types import SimpleNamespace

from conftest import make_record

from archsim.render import _nice_ticks, ascii_frame, svg_frame, svg_scatter
from archsim.world import build_floor


def _tiny_scene():
    # 3x4 corridor, one exit cell at x=1; agent 0 just moved, agent 1 is
    # stuck, agent 2 already left (must not be drawn)
    floor = build_floor(3, 4, 1)
    record = make_record(
        5, [(1, 2), (0, 1), (2, 2)], moved=(0,), exited=(2,)
    )
    return floor, record


def test_ascii_frame_exact():
    floor, record = _tiny_scene()
    assert ascii_frame(record, floor) == (
        "##=##\n"
        "#x..#\n"
        "#.o.#\n"
        "#...#\n"
        "#####"
    )


def test_ascii_frame_empty_world():
    floor = build_floor(3, 4, 1)
    record = make_record(0, [])
    frame = ascii_frame(record, floor)
    assert "o" not in frame and "x" not in frame
    assert frame.count("=") == 1


def test_svg_frame_glyphs():
    floor, record = _tiny_scene()
    svg = svg_frame(record, floor)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert 'width="50"' in svg and 'height="50"' in svg  # (W+2, L+1) cells at 10px
    assert svg.count('fill="#58b368"') == 1  # exit cell
    assert svg.count('fill="#4878b0"') == 1  # the mover
    assert svg.count('fill="#c03830"') == 1  # the stuck agent; exited one absent


def test_svg_scatter_contents():
    points = [(1, 48), (3, 44), (5, 40)]
    svg = svg_scatter(
        points,
        fit=SimpleNamespace(slope=-2.0, intercept=50.0),
        title="onset vs width",
        xlabel="w",
        ylabel="T",
    )
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") == 3
    assert svg.count('stroke="#4878b0"') == 1  # fitted line drawn once
    assert "onset vs width" in svg and "rotate(-90" in svg


def test_nice_ticks():
    assert _nice_ticks(0, 10) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert _nice_ticks(0.37, 0.82) == [0.4, 0.5, 0.6, 0.7, 0.8]
