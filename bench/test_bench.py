"""Self-test of the benchmark harness.

Run from the repository root (about 35 s on two cores, most of it the
paper's full default sweep):

    python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

# Two cheap no-arch cells on a 2-process pool, so the traced mode also
# has to merge the spans recorded in forked workers.
TWO_CELLS = bench.Workload(
    "two-cells", "sweep", "c_levels = 200\nw_levels = 11,13\nreplicates = 1\n",
    cells=2, parallelism=2,
)

# The paper's default grid: 5 c x 7 w x 3 replicates, no config keys.
DEFAULT_SWEEP = bench.Workload(
    "default-sweep", "sweep", "", cells=105, parallelism=2, golden="default-sweep",
)


def run_main(argv):
    """bench.main with TWO_CELLS selectable; returns (status, stdout lines)."""
    out = io.StringIO()
    bench.WORKLOADS[TWO_CELLS.name] = TWO_CELLS
    try:
        with contextlib.redirect_stdout(out):
            status = bench.main(argv)
    finally:
        del bench.WORKLOADS[TWO_CELLS.name]
    return status, out.getvalue().splitlines()


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.archsim = bench.import_archsim(ROOT)
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.work = ROOT / ".bench_work" / "selftest"
        cls.work.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            cls.work.parent.rmdir()

    def assert_reports(self, trace: int, declared: list[dict]) -> None:
        status, lines = run_main(["--workload", TWO_CELLS.name, "--seed", "3",
                                  "--seconds", "0", "--trace", str(trace)])
        self.assertEqual(status, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()}, expected)
        for name, unit in expected.items():
            self.assertTrue(
                any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                    for line in lines),
                f"{name} not printed with unit {unit}")

    def test_timed_mode_prints_every_end_to_end_metric(self):
        self.assert_reports(0, self.spec["end_to_end"])

    def test_traced_mode_prints_every_per_layer_metric(self):
        self.assert_reports(1, self.spec["per_layer"])

    def test_declared_workloads_exist(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(bench.WORKLOADS))

    def test_hash_gate_trips_on_tampered_measurements(self):
        cfg = self.work / "two-cells.cfg"
        cfg.write_text(TWO_CELLS.config)
        p = bench.run_pass(self.archsim, TWO_CELLS, cfg, 0, self.work / "pass", 1)
        clean = bench.Ledger()
        reference = bench.check_pass(self.archsim, TWO_CELLS, p, None, clean)
        self.assertEqual(clean.failed, 0)
        measurements = p.out / "measurements.csv"
        measurements.write_text(measurements.read_text().replace(",13,", ",12,"))
        ledger = bench.Ledger()
        bench.check_pass(self.archsim, TWO_CELLS, p, reference, ledger)
        self.assertEqual(ledger.failed, 1)
        self.assertIn("measurements.csv", ledger.problems[0])

    def test_host_probe_does_fixed_work(self):
        self.assertEqual(hostspeed._chunk(5), hostspeed._chunk(5))
        probe = hostspeed.HostProbe()
        probe(2)
        self.assertEqual(len(probe.samples), 2)
        self.assertAlmostEqual(probe.speed(0) * hostspeed.REFERENCE_CHUNK_S,
                               statistics.fmean(probe.samples))

    def test_probe_time_is_kept_out_of_a_serial_pass(self):
        cfg = self.work / "two-cells-probed.cfg"
        cfg.write_text(TWO_CELLS.config)
        probe = hostspeed.HostProbe()
        t0 = time.perf_counter()
        p = bench.run_pass(self.archsim, TWO_CELLS, cfg, 0, self.work / "probed", 1, probe)
        elapsed = time.perf_counter() - t0
        self.assertEqual(len(probe.samples), TWO_CELLS.cells)  # one per progress line
        self.assertLessEqual(p.wall, elapsed - sum(probe.samples))
        # a pooled pass leaves both cores to its workers
        p = bench.run_pass(self.archsim, TWO_CELLS, cfg, 0, self.work / "pooled", 2, probe)
        self.assertEqual(len(probe.samples), TWO_CELLS.cells)

    def test_default_sweep_matches_golden_and_contains_bench_grid(self):
        cfg = self.work / "default.cfg"
        cfg.write_text(DEFAULT_SWEEP.config)
        p = bench.run_pass(self.archsim, DEFAULT_SWEEP, cfg, 0, self.work / "default", 2)
        ledger = bench.Ledger()
        bench.check_pass(self.archsim, DEFAULT_SWEEP, p,
                         bench.GOLDEN[DEFAULT_SWEEP.golden], ledger)
        self.assertEqual(ledger.failed, 0, ledger.problems)
        # The timed sweeps' seed-0 golden is a subset of the default rows:
        # same derive_seed, so the same (c, w, replicate) gives the same row.
        grid = self.archsim.config.parse_config_text(bench.BENCH_GRID)
        header, *rows = (p.out / "measurements.csv").read_bytes().splitlines(keepends=True)
        subset = [header] + [
            row for row in rows
            if int(row.split(b",")[0]) in grid["c_levels"]
            and int(row.split(b",")[1]) in grid["w_levels"]
            and int(row.split(b",")[4]) < grid["replicates"]
        ]
        self.assertEqual(len(subset) - 1, bench.WORKLOADS["sweep-serial"].cells)
        self.assertEqual(hashlib.sha256(b"".join(subset)).hexdigest(),
                         bench.GOLDEN["bench-grid"]["measurements.csv"])

    def test_span_missing_from_archsim_is_skipped(self):
        cfg = self.work / "two-cells-missing.cfg"
        cfg.write_text(TWO_CELLS.config)
        spans = tracer.SPANS
        tracer.SPANS = spans + (
            ("archsim.engine", "no_such_helper", "engine.no_such_helper", None, None),)
        t = tracer.Tracer(self.work / "spool")
        try:
            with t.installed():
                bench.run_pass(self.archsim, TWO_CELLS, cfg, 0, self.work / "missing", 1)
        finally:
            tracer.SPANS = spans
        self.assertFalse(hasattr(self.archsim.engine, "no_such_helper"))
        self.assertEqual(t.stats["engine.no_such_helper.calls"], 0)
        self.assertEqual(len(t.cells), TWO_CELLS.cells)
        self.assertGreater(t.layer_metrics([], 1)["engine.steps"], 0)

    def test_refuses_a_tree_without_archsim_source(self):
        empty = self.work / "empty"
        empty.mkdir()
        with self.assertRaises(bench.BenchError):
            bench.import_archsim(empty)


if __name__ == "__main__":
    unittest.main()
