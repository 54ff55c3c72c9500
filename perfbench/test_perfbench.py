"""Unit tests for the perf benchmark's Python side.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import obs_reader  # noqa: E402
import run  # noqa: E402


def span(cat: str, name: str, ts: float, dur: float, tid: int) -> str:
    return json.dumps(
        {
            "type": "span",
            "cat": cat,
            "name": name,
            "ts_us": f"{ts:.3f}",
            "dur_us": f"{dur:.3f}",
            "arg": 0,
            "lane": 0,
            "tid": tid,
        }
    )


MANIFEST = json.dumps({"type": "manifest", "schema": "slumber-obs-v1"})
FOOTER = json.dumps(
    {
        "type": "footer",
        "frames": 2,
        "wall_ms": 0.2,
        "lanes": [{"lane": 0, "busy_ms": 0.1}, {"lane": 1, "busy_ms": 0.05}],
        "chunk_imbalance_mean": 1.5,
        "chunk_imbalance_max": 2.0,
    }
)

# Thread 1: a frame holding a nested frame and a scan; the scan holds
# the caller lane's chunk. Thread 2: a worker chunk (a root there).
# A counter line in between must be ignored.
EXPORT = [
    MANIFEST,
    span("mis", "frame", 0, 100, 1),
    span("mis", "frame", 10, 50, 1),
    span("engine", "scan", 20, 30, 1),
    span("engine", "chunk", 20, 25, 1),
    json.dumps({"type": "counter", "name": "awake_set", "ts_us": "5.0"}),
    span("engine", "chunk", 21, 29, 2),
    span("engine", "scan", 70, 10, 1),
    FOOTER,
]


class FoldTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_per_thread(self) -> None:
        report = obs_reader.fold(EXPORT)
        frame = report.stats("mis", "frame")
        self.assertEqual(frame.count, 2)
        self.assertAlmostEqual(frame.total_us, 150.0)
        # Outer frame: 100 - 50 (inner frame) - 10 (second scan) = 40;
        # inner frame: 50 - 30 (scan) = 20.
        self.assertAlmostEqual(frame.self_us, 60.0)
        scan = report.stats("engine", "scan")
        self.assertAlmostEqual(scan.total_us, 40.0)
        self.assertAlmostEqual(scan.self_us, 15.0)
        chunk = report.stats("engine", "chunk")
        self.assertEqual(chunk.count, 2)
        self.assertAlmostEqual(chunk.self_us, 54.0)

    def test_self_times_cover_each_thread_once(self) -> None:
        report = obs_reader.fold(EXPORT)
        covered = sum(s.self_us for s in report.spans.values())
        # Thread 1 is covered for 100 us, thread 2 for 29 us.
        self.assertAlmostEqual(covered, 129.0)

    def test_footer_and_missing_keys(self) -> None:
        report = obs_reader.fold(EXPORT)
        self.assertAlmostEqual(report.lane_busy_ms(), 0.15)
        self.assertEqual(report.footer["frames"], 2)
        self.assertEqual(report.stats("gen", "fill_pass").count, 0)

    def test_rejects_malformed_exports(self) -> None:
        with self.assertRaises(ValueError):
            obs_reader.fold(EXPORT[1:])
        with self.assertRaises(ValueError):
            obs_reader.fold(EXPORT[:-1])
        wrong = json.dumps({"type": "manifest", "schema": "other"})
        with self.assertRaises(ValueError):
            obs_reader.fold([wrong, *EXPORT[1:]])


class LayerMetricsTest(unittest.TestCase):
    def test_folds_spans_per_traced_op(self) -> None:
        driver = {"traced_ops": 2, "lanes": 2, "metrics": {"bulk.run_s": 1.0}}
        metrics = run.layer_metrics(driver, obs_reader.fold(EXPORT))
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertEqual(metrics["bulk.run_s"], 1.0)
        self.assertAlmostEqual(metrics["bulk.frame_self_s"], 30e-6)
        self.assertAlmostEqual(metrics["bulk.scan_s"], 20e-6)
        self.assertEqual(metrics["bulk.scans"], 1.0)
        self.assertEqual(metrics["bulk.frames"], 1.0)
        self.assertAlmostEqual(metrics["pool.lane_busy_frac"], 0.375)
        self.assertEqual(metrics["graph.fill_pass_s"], 0.0)

    def test_tail_needs_ten_ops_beyond(self) -> None:
        self.assertIn("n/a", run.tail([1.0] * 10))
        twenty = run.tail([float(i) for i in range(20)])
        self.assertTrue(twenty.startswith("9.0000 s (p50"))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self) -> None:
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        spec = json.loads(path.read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER
        )
        self.assertEqual(
            tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS
        )


if __name__ == "__main__":
    unittest.main()
