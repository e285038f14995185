"""Self-tests of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 perfbench/run.py --selftest
    python3 -m unittest discover -s perfbench/tests
"""

import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402
from metrics import Span  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        # p99 of 1000 samples has exactly 10 above it; of 999, only 9.
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.highest_percentile(1000), 99.0)
        self.assertEqual(metrics.samples_beyond(999, 99), 9)
        self.assertEqual(metrics.highest_percentile(999), 90.0)
        self.assertEqual(metrics.highest_percentile(100), 90.0)
        self.assertEqual(metrics.highest_percentile(99), 50.0)
        self.assertEqual(metrics.highest_percentile(10000), 99.9)
        self.assertIsNone(metrics.highest_percentile(19))

    def test_entry_reports_sample_count_and_validity(self):
        entry = metrics.percentile_entry([float(i) for i in range(1000)], 99)
        self.assertEqual(entry["n"], 1000)
        self.assertTrue(entry["valid"])
        short = metrics.percentile_entry([float(i) for i in range(999)], 99)
        self.assertEqual(short["n"], 999)
        self.assertFalse(short["valid"])
        self.assertFalse(metrics.percentile_entry([], 50)["valid"])


class OpenLoopLatencyTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Due at t=0, sent 5 ms late, 10 ms inside the service.
        self.assertAlmostEqual(metrics.due_latency_ms(0.0, 5000.0, 10.0), 15.0)
        self.assertAlmostEqual(metrics.due_latency_ms(1e6, 1e6, 2.5), 2.5)

    def test_stall_is_charged_to_later_requests_not_the_generator(self):
        # Three requests due 10 ms apart; the first Submit blocks 100 ms.
        sends = [(0.0, 0.0, 100_000.0),
                 (10_000.0, 100_000.0, 100_100.0),
                 (20_000.0, 100_100.0, 100_200.0)]
        late = metrics.generator_lateness_ms(sends)
        self.assertEqual(late, [0.0, 0.0, 0.0])
        # ...but the requests that waited carry the stall in their latency.
        waited = [metrics.due_latency_ms(d, s, 1.0) for d, s, _ in sends]
        self.assertAlmostEqual(waited[1], 91.0)
        self.assertAlmostEqual(waited[2], 81.1)

    def test_generator_running_late_on_its_own_counts(self):
        # Free at its due time, but sent 3 ms later: late by 3 ms.
        sends = [(0.0, 0.0, 100.0), (10_000.0, 13_000.0, 13_100.0)]
        self.assertEqual(metrics.generator_lateness_ms(sends), [0.0, 3.0])


class DriverMetricsTest(unittest.TestCase):
    def setUp(self):
        self.phase = Span(0, -1, "eval.evaluate", 0.0, 35.0)
        # Worker 1 runs two short tasks, worker 2 one long one.
        self.tasks = [Span(1, 0, "attack.geattack", 0.0, 10.0, thread=1),
                      Span(2, 0, "attack.geattack", 10.0, 20.0, thread=1),
                      Span(3, 0, "attack.geattack", 0.0, 30.0, thread=2)]

    def test_busy_wait_and_tail(self):
        busy, capacity, waits, tail = metrics.driver_phase_metrics(
            self.phase, self.tasks, workers=2)
        self.assertEqual(busy, 50.0)
        self.assertEqual(capacity, 60.0)  # 2 workers x attack phase [0, 30].
        self.assertAlmostEqual(busy / capacity, 50.0 / 60.0)
        self.assertEqual(sorted(waits), [0.0, 0.0, 10.0])
        # Worker 1 ran out at 20; the attack phase ended at 30.
        self.assertEqual(tail, 10.0)

    def test_worker_without_tasks_runs_out_at_phase_start(self):
        busy, capacity, _, tail = metrics.driver_phase_metrics(
            self.phase, self.tasks, workers=3)
        self.assertEqual(capacity, 90.0)
        self.assertEqual(tail, 30.0)

    def test_no_tasks(self):
        self.assertEqual(metrics.driver_phase_metrics(self.phase, [], 4),
                         (0.0, 0.0, [], 0.0))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_interval_once(self):
        spans = [
            Span(0, -1, "eval.evaluate", 0.0, 100.0),
            # Two children running in parallel on different threads.
            Span(1, 0, "attack.geattack", 10.0, 30.0, thread=1),
            Span(2, 0, "attack.geattack", 20.0, 50.0, thread=2),
            Span(3, 1, "explain.gnn", 15.0, 25.0, thread=1),
            # A child that outlives its parent only covers the overlap.
            Span(4, -1, "setup", 200.0, 210.0),
            Span(5, 4, "nn.train", 205.0, 230.0),
        ]
        selfs = metrics.self_times_us(spans)
        self.assertEqual(selfs[0], 60.0)  # 100 - union [10, 50).
        self.assertEqual(selfs[1], 10.0)
        self.assertEqual(selfs[2], 30.0)
        self.assertEqual(selfs[3], 10.0)
        self.assertEqual(selfs[4], 5.0)
        table = {name: (count, total, own) for name, count, total, own in
                 metrics.self_time_table(spans)}
        self.assertEqual(table["attack.geattack"][0], 2)
        self.assertAlmostEqual(table["attack.geattack"][1], 0.05)  # ms.
        self.assertAlmostEqual(table["attack.geattack"][2], 0.04)

    def test_covered_merges_overlaps(self):
        self.assertEqual(metrics.covered_us(0, 10, [(1, 3), (2, 5), (7, 20)]),
                         7.0)
        self.assertEqual(metrics.covered_us(0, 10, []), 0.0)

    def test_chrome_trace_events(self):
        trace = metrics.chrome_trace([Span(7, 3, "tensor.spmm", 5.0, 9.5,
                                           request=2, thread=4)])
        (event,) = trace["traceEvents"]
        self.assertEqual(event["ph"], "X")
        self.assertEqual(event["ts"], 5.0)
        self.assertEqual(event["dur"], 4.5)
        self.assertEqual(event["tid"], 4)
        self.assertEqual(event["args"], {"id": 7, "parent": 3, "request": 2})


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = HERE.parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        spec = json.loads(path.read_text())
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["paper_campaign", "sparse_20k", "service_live"])


if __name__ == "__main__":
    unittest.main()
