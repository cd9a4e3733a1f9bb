"""Traced mode: per-module spans and counts, recorded from outside archsim.

A traced pass replaces module attributes with timing wrappers and puts
the originals back afterwards, so untraced passes run the unmodified
code.  A helper imported by name (``from .agent import sct_adjust``) is
looked up in the importing module at call time, so it is patched there:
``archsim.engine.<name>`` for the step loop's helpers, ``archsim.agent``
for the ``is_free`` calls inside the cone scans, ``archsim.sweep`` and
``archsim.cli`` for ``detect_arch_onset``.

Each span accumulates its call count, inclusive time and self time
(inclusive minus the time covered by nested spans).  Sweep cells that
run in pool workers are traced too: workers are forked with the patches
in place, and each worker appends its per-cell deltas to a spool file
that the parent merges after the pass.

A span whose attribute the module no longer has is skipped, so its
metrics read 0; the hooks read only arguments and return values of the
spans they sit on, and the cone-cache counters once per cell or pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Counts that must repeat exactly between traced passes of the same code.
EXACT_COUNTS = (
    "engine.steps",
    "engine.activations",
    "metrics.clog_cluster_calls",
    "agent.cone_cache_hits",
    "agent.cone_cache_misses",
    "world.is_free_calls",
)


def _live_before_step(args):
    return sum(1 for agent in args[1] if not agent.exited)


def _count_step(stats, args, record, live, dt):
    stats["engine.activations"] += live
    stats["engine.moved"] += int(record.moved.sum())


def _count_trigger(stats, args, target, pre, dt):
    # args: (agent, comparison, goal_target, grid, radius, spec)
    comparison, spec = args[1], args[5]
    if comparison is not None and comparison[1] < spec.trigger_threshold:
        stats["agent.triggered"] += 1


def _count_trace_bytes(stats, args, result, pre, dt):
    stats["engine.trace_bytes"] += os.path.getsize(args[1])


def _cone_cache():
    """archsim.agent.cone_offsets if it is still an lru_cache, else None."""
    cache = getattr(importlib.import_module("archsim.agent"), "cone_offsets", None)
    return cache if hasattr(cache, "cache_info") else None


def _take_cone_counts(stats) -> None:
    """Add the cone cache's hits and misses to ``stats`` and empty it.

    Taken after every sweep cell and at the end of a pass, with the cache
    emptied at its start, so the counts do not depend on which cells ran
    before in the same process: serial and pooled passes agree.
    """
    cache = _cone_cache()
    if cache is None:
        return
    info = cache.cache_info()
    stats["agent.cone_cache_hits"] += info.hits
    stats["agent.cone_cache_misses"] += info.misses
    cache.cache_clear()


# (module, attribute, span name, before hook, after hook)
SPANS = (
    ("archsim.engine", "initialize", "engine.initialize", None, None),
    ("archsim.engine", "step", "engine.step", _live_before_step, _count_step),
    ("archsim.engine", "_visible_agents", "engine.visible_agents", None, None),
    ("archsim.engine", "nearest_exit_coordinate", "world.nearest_exit", None, None),
    ("archsim.engine", "heading_toward", "agent.heading_toward", None, None),
    ("archsim.engine", "choose_target_cell", "agent.choose_target_cell", None, None),
    ("archsim.engine", "most_similar_neighbor", "agent.most_similar_neighbor", None, None),
    ("archsim.engine", "sct_adjust", "agent.sct_adjust", None, _count_trigger),
    ("archsim.engine", "is_free", "world.is_free", None, None),
    ("archsim.agent", "is_free", "world.is_free", None, None),
    ("archsim.sweep", "detect_arch_onset", "metrics.detect", None, None),
    ("archsim.cli", "detect_arch_onset", "metrics.detect", None, None),
    ("archsim.metrics", "clog_cluster", "metrics.clog_cluster", None, None),
    ("archsim.cli", "write_trace_csv", "engine.write_trace", None, _count_trace_bytes),
    ("archsim.cli", "write_summary_csv", "engine.write_summary", None, None),
    ("archsim.cli", "read_trace_csv", "engine.read_trace", None, None),
    ("archsim.render", "ascii_frame", "render.frame", None, None),
    ("archsim.analysis", "aggregate", "analysis.aggregate", None, None),
    ("archsim.config", "load_config_file", "config.load", None, None),
)


class Tracer:
    """Span and count recorder for one benchmark run."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.stats: dict[str, float] = defaultdict(float)
        self.cells: list[float] = []
        self._stack = [0.0]  # time covered by child spans, per open span
        self._owner = os.getpid()

    def reset(self) -> None:
        self.stats.clear()
        self.cells.clear()

    def _wrap(self, name, fn, before=None, after=None):
        stats, stack = self.stats, self._stack
        calls, total, own = name + ".calls", name + ".s", name + ".self_s"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                stats[calls] += 1
                stats[total] += dt
                stats[own] += dt - child
            if after is not None:
                after(stats, args, result, pre, dt)
            return result

        return wrapper

    def _cell_before(self, args):
        return dict(self.stats) if os.getpid() != self._owner else None

    def _cell_after(self, stats, args, row, snapshot, dt):
        _take_cone_counts(stats)
        if snapshot is None:
            self.cells.append(dt)
            return
        delta = {k: v - snapshot.get(k, 0.0) for k, v in stats.items()}
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spool_dir / f"{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps({"stats": delta, "cell_s": dt}) + "\n")

    @contextmanager
    def installed(self):
        """Patch every span in place for the duration of the block."""
        saved = []
        spans = SPANS + (
            ("archsim.sweep", "run_cell", "sweep.cell", self._cell_before, self._cell_after),
        )
        try:
            for module_name, attr, name, before, after in spans:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                # functools.wraps keeps __module__/__qualname__, so the
                # patched run_cell still pickles by reference for the pool.
                setattr(module, attr, self._wrap(name, original, before, after))
            cache = _cone_cache()
            if cache is not None:
                cache.cache_clear()
            yield self
            _take_cone_counts(self.stats)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def collect_workers(self) -> None:
        """Merge the worker spool into this process's stats and delete it."""
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                for key, value in entry["stats"].items():
                    self.stats[key] += value
                self.cells.append(entry["cell_s"])
            path.unlink()

    def layer_metrics(self, completions: list[float], parallelism: int) -> dict:
        """Per-layer metrics of one traced pass, by name."""
        s = self.stats
        activations = s["engine.activations"]
        # engine.run stores the initial snapshot and one record per step
        records = s["engine.step.calls"] + s["engine.initialize.calls"]

        def share(num, den):
            return num / den if den else 0.0

        cells = sorted(self.cells)
        if len(cells) > 1:
            deciles = statistics.quantiles(cells, n=10)
            p50, p90 = statistics.median(cells), deciles[8]
        else:
            p50 = p90 = cells[0] if cells else 0.0
        done = sorted(completions)
        if len(done) > parallelism:
            tail_idle = done[-1] - done[len(done) - parallelism - 1]
        else:
            tail_idle = done[-1] if done else 0.0
        return {
            "engine.steps": int(s["engine.step.calls"]),
            "engine.activations": int(activations),
            "engine.moved_frac": share(s["engine.moved"], activations),
            "engine.initialize_s": s["engine.initialize.s"],
            "engine.step_s": s["engine.step.s"],
            "engine.step_self_s": s["engine.step.self_s"],
            "engine.us_per_activation": share(s["engine.step.s"], activations) * 1e6,
            "engine.visible_agents_s": s["engine.visible_agents.s"],
            "engine.write_trace_s": s["engine.write_trace.s"],
            "engine.write_summary_s": s["engine.write_summary.s"],
            "engine.read_trace_s": s["engine.read_trace.s"],
            "engine.trace_bytes": int(s["engine.trace_bytes"]),
            "agent.most_similar_neighbor_s": s["agent.most_similar_neighbor.s"],
            "agent.choose_target_cell_s": s["agent.choose_target_cell.s"],
            "agent.sct_adjust_s": s["agent.sct_adjust.s"],
            "agent.heading_toward_s": s["agent.heading_toward.s"],
            "agent.triggered_frac": share(s["agent.triggered"], activations),
            "agent.cone_cache_hits": int(s["agent.cone_cache_hits"]),
            "agent.cone_cache_misses": int(s["agent.cone_cache_misses"]),
            "world.nearest_exit_s": s["world.nearest_exit.s"],
            "world.is_free_s": s["world.is_free.s"],
            "world.is_free_calls": int(s["world.is_free.calls"]),
            "metrics.detect_s": s["metrics.detect.s"],
            "metrics.clog_cluster_s": s["metrics.clog_cluster.s"],
            "metrics.clog_cluster_calls": int(s["metrics.clog_cluster.calls"]),
            "metrics.scanned_frac": share(s["metrics.clog_cluster.calls"], records),
            "sweep.cell_p50_s": p50,
            "sweep.cell_p90_s": p90,
            "sweep.tail_idle_s": tail_idle,
            "render.frame_s": s["render.frame.s"],
            "analysis.aggregate_s": s["analysis.aggregate.s"],
            "config.load_s": s["config.load.s"],
        }
