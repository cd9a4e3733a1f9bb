"""Host-speed probe: a fixed amount of work, timed around and inside passes.

The reference host is two vCPUs of a shared machine.  Its speed drifts
by up to 1.8x, over seconds as well as minutes, and a process's CPU time
drifts with it, so raw pass times of unchanged code spread by 20-35%
from run to run.  The timed metrics therefore divide each pass's wall
time by the host's slowness, measured with this probe just before,
inside and just after the pass.  bench/README.md gives the spreads
measured with and without it.

A probe chunk is shaped like archsim's step loop: slotted walker
objects, a dict of occupied cells, a vision cone cached per heading,
atan2/fmod/hypot, a numpy permutation and a small numpy reduction per
step.  It shares no code with archsim, so no change to archsim can move
it, and it does the same work on every call.
"""

from __future__ import annotations

import math
import time

import numpy as np

CHUNK_STEPS = 50  # lattice steps per probe chunk: about 45 ms
# Median chunk time on the reference host (2 vCPUs, Python 3.11,
# numpy 2.4).  A normalised time is the wall time this host would have
# taken at that speed.
REFERENCE_CHUNK_S = 0.045

_TWO_PI = 2.0 * math.pi
_WIDTH, _LENGTH, _WALKERS = 19, 40, 120
_HALF_CONE = math.radians(50.0)
_cones: dict[float, tuple] = {}


class _Walker:
    __slots__ = ("pos", "heading")

    def __init__(self, pos):
        self.pos = pos
        self.heading = 0.0


def _cone(heading: float) -> tuple:
    cone = _cones.get(heading)
    if cone is None:
        cells = []
        for oy in range(-3, 4):
            for ox in range(-3, 4):
                if (ox or oy) and ox * ox + oy * oy <= 9:
                    dev = math.fmod(math.atan2(oy, ox) - heading, _TWO_PI)
                    if dev > math.pi:
                        dev -= _TWO_PI
                    elif dev <= -math.pi:
                        dev += _TWO_PI
                    if abs(dev) <= _HALF_CONE:
                        cells.append((math.hypot(ox, oy), abs(dev), ox, oy))
        cells.sort()
        cone = _cones[heading] = tuple((ox, oy) for _, _, ox, oy in cells)
    return cone


def _score(a: _Walker, b: _Walker) -> float:
    near = max(0.0, 1.0 - math.hypot(a.pos[0] - b.pos[0], a.pos[1] - b.pos[1]) / 3.0)
    turn = abs(math.fmod(a.heading - b.heading, _TWO_PI))
    return 0.5 * near + 0.5 * (1.0 - min(turn, _TWO_PI - turn) / _TWO_PI)


def _chunk(steps: int) -> float:
    """Walkers head for a door in the bottom row and re-enter at the top."""
    occupied = {}
    walkers = []
    for i in range(_WALKERS):
        pos = (i % _WIDTH, _LENGTH - 1 - i // _WIDTH)
        occupied[pos] = i
        walkers.append(_Walker(pos))
    rng = np.random.default_rng(7)
    door = (_WIDTH // 2, 0)
    total = 0.0
    for _ in range(steps):
        for idx in rng.permutation(_WALKERS):
            a = walkers[int(idx)]
            x, y = a.pos
            a.heading = math.fmod(math.atan2(door[1] - y, door[0] - x) + _TWO_PI, _TWO_PI)
            target = None
            seen = []
            for ox, oy in _cone(a.heading):
                cell = (x + ox, y + oy)
                other = occupied.get(cell)
                if other is not None:
                    seen.append(walkers[other])
                elif target is None and 0 <= cell[0] < _WIDTH and 0 <= cell[1] < _LENGTH:
                    target = cell
            total += max((_score(a, b) for b in seen), default=0.0)
            if target is None:
                continue
            pace = (x + (target[0] > x) - (target[0] < x), y + (target[1] > y) - (target[1] < y))
            if pace in occupied or not 0 <= pace[1] < _LENGTH:
                continue
            if pace[1] == 0:  # through the door: back in at the top row if free
                pace = (pace[0], _LENGTH - 1)
                if pace in occupied:
                    continue
            del occupied[a.pos]
            occupied[pace] = int(idx)
            a.pos = pace
        total += float(np.array([w.pos[0] for w in walkers]).mean())
    return total


class HostProbe:
    """Times probe chunks; ``samples`` holds every chunk time of a run."""

    def __init__(self):
        self.samples: list[float] = []
        _chunk(CHUNK_STEPS)  # fill the cone cache: every timed chunk does equal work

    def __call__(self, chunks: int = 1) -> float:
        """Run ``chunks`` chunks; returns the wall time they took."""
        t0 = time.perf_counter()
        for _ in range(chunks):
            c0 = time.perf_counter()
            _chunk(CHUNK_STEPS)
            self.samples.append(time.perf_counter() - c0)
        return time.perf_counter() - t0

    def speed(self, since: int) -> float:
        """Host slowness over the samples from index ``since``: 1 at reference speed."""
        window = self.samples[since:]
        return sum(window) / len(window) / REFERENCE_CHUNK_S
