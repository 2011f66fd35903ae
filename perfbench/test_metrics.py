"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_metrics.py
"""

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as m  # noqa: E402
import run  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_picks_p95_when_ten_samples_lie_beyond(self):
        values = list(range(1, 201))  # rank of p95 is 190: 10 beyond
        self.assertEqual(m.tail_percentile(values), (95.0, 190))

    def test_steps_down_when_p95_has_fewer_than_ten_beyond(self):
        values = list(range(1, 200))  # p95 rank 190 leaves 9 beyond
        self.assertEqual(m.tail_percentile(values), (90.0, 180))

    def test_never_exceeds_target(self):
        values = list(range(1, 100001))
        self.assertEqual(m.tail_percentile(values)[0], 95.0)

    def test_small_samples_fall_back_to_median(self):
        self.assertEqual(m.tail_percentile([5, 1, 4, 2, 3]), (50.0, 3))
        self.assertEqual(m.tail_percentile(list(range(1, 26))), (50.0, 13))

    def test_failed_samples_count_as_infinite(self):
        values = [1.0] * 190 + [math.inf] * 10
        self.assertEqual(m.tail_percentile(values), (95.0, 1.0))
        values = [1.0] * 189 + [math.inf] * 11
        self.assertEqual(m.tail_percentile(values), (95.0, math.inf))


class FailureCountTest(unittest.TestCase):
    # Driver op rows: latency_s, keys, ok, virtual_us.
    OPS = [[0.1, 10, 1, 5.0], [0.2, 10, 0, 6.0], [None, 10, 0, 0.0],
           [0.3, 10, 1, 7.0]]

    def test_failed_fraction_counts_unverified_failed_and_shed(self):
        self.assertEqual(m.failed_fraction(self.OPS), (4, 2, 0.5))

    def test_failed_and_shed_latencies_are_infinite(self):
        self.assertEqual(m.op_latencies(self.OPS),
                         [0.1, math.inf, math.inf, 0.3])

    def test_nothing_attempted_is_all_failed(self):
        self.assertEqual(m.failed_fraction([]), (0, 0, 1.0))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            ("root", 0.0, 10.0, -1, "r"),
            ("a", 1.0, 3.0, 0, "r"),
            ("b", 2.0, 5.0, 0, "r"),   # overlaps a: union [1, 5]
            ("c", 7.0, 8.0, 0, "r"),
            ("a.x", 1.5, 2.5, 1, "r"),  # grandchild: only a loses it
        ]
        self.assertEqual(m.self_times(spans), [5.0, 1.0, 3.0, 1.0, 1.0])

    def test_children_are_clipped_to_the_parent(self):
        spans = [("root", 0.0, 4.0, -1, "r"), ("late", 3.0, 6.0, 0, "r")]
        self.assertEqual(m.self_times(spans), [3.0, 3.0])

    def test_chrome_trace_events(self):
        spans = [("root", 0.0, 1.0, -1, "r"), ("kid", 0.25, 0.5, 0, "r")]
        events = m.chrome_trace(spans)["traceEvents"]
        self.assertEqual([e["ph"] for e in events], ["X", "X"])
        self.assertEqual(events[1]["args"]["parent"], "root")
        self.assertAlmostEqual(events[0]["args"]["self_us"], 750000.0)
        self.assertAlmostEqual(events[1]["dur"], 250000.0)


class CriticalPathTest(unittest.TestCase):
    def test_slowest_shard_per_batch_summed_over_batches(self):
        # ticket, tenant, class, shard, batch, plan_s, attempts
        jobs = [
            [0, 0, 0, 0, 0, 1.0, 1], [1, 0, 0, 0, 0, 2.0, 1],  # shard 0: 3
            [2, 1, 0, 1, 0, 2.5, 1],                           # shard 1: 2.5
            [3, 2, 1, 1, 1, 4.0, 1], [4, 0, 0, 0, 1, 1.0, 1],  # batch 1: 4
            [5, 0, 0, -1, -1, 9.0, 0],                         # never ran
        ]
        self.assertEqual(m.critical_path(jobs), 7.0)

    def test_service_layer_figures(self):
        raw = {"layers": {"service.batch_s": 10.0},
               "calibration_s": [0.3, 0.1, 0.2],
               "traced_rep_s": [2.2], "untraced_rep_s": [2.0, 2.0],
               "jobs": [[0, 0, 0, 0, 0, 6.0, 1], [1, 2, 1, 1, 0, 2.0, 3]],
               "threads": 4}
        values, bypassed = run.per_layer(raw)
        self.assertEqual(values["core.plan_s"], 8.0)
        self.assertEqual(values["core.plan_s.tenant-pcm"], 6.0)
        self.assertEqual(values["core.plan_s.tenant-spin"], 2.0)
        self.assertEqual(values["core.plan_s.extsort"], 2.0)
        self.assertEqual(values["core.attempts_per_job"], 2.0)
        self.assertEqual(values["service.critical_path_s"], 6.0)
        self.assertEqual(values["service.overhead_s"], 4.0)
        self.assertEqual(values["service.parallel_efficiency"], 0.2)
        self.assertEqual(values["mlc.calibration_s"], 0.2)
        self.assertAlmostEqual(values["trace.overhead_frac"], 0.1)
        self.assertIn("extsort.merge_s", bypassed)
        self.assertEqual(values["extsort.merge_s"], 0.0)


class GateTest(unittest.TestCase):
    RAW = {"errors": [], "ops": [[1.0, 8, 1, 2.0]], "digests": ["a", "a"],
           "traced_digests": ["a"]}

    def test_clean_run_passes(self):
        self.assertEqual(run.gate(self.RAW), [])

    def test_digest_mismatch_fails(self):
        raw = dict(self.RAW, traced_digests=["b"])
        self.assertEqual(len(run.gate(raw)), 1)

    def test_unverified_operation_fails(self):
        raw = dict(self.RAW, ops=[[1.0, 8, 1, 2.0], [1.0, 8, 0, 2.0]])
        self.assertEqual(len(run.gate(raw)), 1)

    def test_failed_driver_still_prints_a_failing_result(self):
        line = json.loads(run.failed_line(run.END_TO_END))
        self.assertEqual((line["correct"], line["attempted"], line["failed"]),
                         (False, 1, 1))
        self.assertEqual(list(line["metrics"]),
                         [name for name, _unit in run.END_TO_END])

    def test_driver_time_limit_grows_with_seconds(self):
        self.assertEqual(run.driver_timeout_s(20), 170.0)
        self.assertEqual(run.driver_timeout_s(1), 170.0)
        self.assertEqual(run.driver_timeout_s(60), 290.0)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        with open(HERE.parent / "BENCHMARK.json") as f:
            spec = json.load(f)
        self.assertEqual([(e["name"], e["unit"]) for e in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(e["name"], e["unit"]) for e in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.load_workloads()))


if __name__ == "__main__":
    unittest.main()
