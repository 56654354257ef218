"""Tests of the benchmark's own helpers.

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest

sys.dont_write_bytecode = True
import ledger  # noqa: E402


def serve_report(**over):
    m = {"model": "alexnet", "offered": 10, "completed": 9, "shed": 1}
    m.update(over)
    return json.dumps({"models": [m]})


def fleet_report(**over):
    r = {"offered": 10, "completed": 10, "shed": 0, "unaccounted": 0,
         "models": [{"model": "resnet-18", "offered": 10,
                     "completed": 10, "shed": 0}]}
    r.update(over)
    return json.dumps(r)


def stream_report(**over):
    lane = {"model": "tiny-yolov3", "policy": "skip_to_latest",
            "produced": 100, "completed": 60, "dropped": 38,
            "in_flight": 2}
    lane.update(over)
    keeps_up = {"model": "mobilenetv1", "policy": "drop_oldest",
                "produced": 50, "completed": 50, "dropped": 0,
                "in_flight": 0}
    return json.dumps({"models": [lane, keeps_up]})


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        spans = [
            ("outer", 0, 0, 100),
            ("a", 0, 10, 40),
            ("a_inner", 0, 20, 30),
            ("b", 0, 50, 70),
            ("worker", 1, 0, 100),  # another thread: not a child
        ]
        self.assertEqual(ledger.self_times(spans),
                         {0: 50, 1: 20, 2: 10, 3: 20, 4: 100})

    def test_child_sharing_parent_bounds(self):
        spans = [("outer", 0, 0, 10), ("inner", 0, 0, 10)]
        self.assertEqual(ledger.self_times(spans), {0: 0, 1: 10})

    def test_ledger_rows_sum_to_the_call(self):
        spans = [
            ("bench_call", 0, 0, 1000),
            ("bench_entry", 0, 5, 900),
            ("serve_build", 0, 10, 100),
            ("build", 0, 20, 80),
            ("pass:fusion", 0, 30, 40),
            ("tactic_sweep", 0, 40, 70),
            ("serve_replay", 0, 200, 600),
            ("some_new_span", 0, 700, 750),
            ("bench_report_json", 0, 900, 950),
            ("bench_metrics_json", 0, 950, 990),
            ("tactic_sweep", 1, 0, 500),  # worker thread: ignored
        ]
        rows = ledger.ledger(spans)
        self.assertAlmostEqual(sum(rows.values()), 1000e-9, places=15)
        self.assertAlmostEqual(rows["phase.build_s"], 30e-9, places=15)
        self.assertAlmostEqual(rows["core.build_s"], 30e-9, places=15)
        self.assertAlmostEqual(rows["core.tactic_sweep_s"], 30e-9,
                               places=15)
        self.assertAlmostEqual(rows["phase.replay_s"], 400e-9, places=15)
        # bench_call's own 15, bench_entry's 355 and the unnamed 50.
        self.assertAlmostEqual(rows["phase.self_s"], 420e-9, places=15)


class RssPeakTest(unittest.TestCase):
    def test_samples_go_to_the_enclosing_phase(self):
        spans = [
            ("bench_call", 0, 0, 100),
            ("bench_entry", 0, 0, 90),
            ("fleet_build", 0, 10, 20),
            ("fleet_control", 0, 30, 40),
            ("context_setup", 0, 32, 34),  # inside control
            ("fleet_replay", 0, 50, 60),
        ]
        samples = [(5, 1024), (15, 2048), (33, 4096), (35, 3072),
                   (55, 8192), (70, 10240), (200, 99999)]
        peaks = ledger.rss_peaks_mb(spans, samples)
        self.assertEqual(peaks, {"build": 2.0, "control": 4.0,
                                 "replay": 8.0, "self": 10.0})

    def test_phase_without_samples_reports_its_entry_size(self):
        spans = [("bench_call", 0, 0, 100), ("fleet_build", 0, 10, 11)]
        samples = [(5, 1024), (50, 2048)]
        peaks = ledger.rss_peaks_mb(spans, samples)
        self.assertEqual(peaks["build"], 1.0)
        self.assertEqual(peaks["self"], 2.0)


class TailPercentileTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(100, 0, -1))
        self.assertEqual(ledger.tail_percentile(values), (90.0, 90))

    def test_smallest_sample_with_a_tail(self):
        pct, value = ledger.tail_percentile(range(1, 12))
        self.assertAlmostEqual(pct, 100.0 / 11)
        self.assertEqual(value, 1)

    def test_too_few_samples(self):
        self.assertIsNone(ledger.tail_percentile(range(10)))


class OutputCheckTest(unittest.TestCase):
    def test_valid_reports_pass(self):
        for kind, text in (("serve", serve_report()),
                           ("fleet", fleet_report()),
                           ("stream", stream_report())):
            self.assertEqual(
                ledger.check_report(kind, text, ledger.sha256(text)), [])

    def test_one_flipped_byte_is_rejected(self):
        text = fleet_report()
        flipped = text.replace("10", "11", 1)
        self.assertEqual(len(flipped), len(text))
        self.assertTrue(
            ledger.check_report("fleet", flipped, ledger.sha256(text)))
        self.assertNotEqual(ledger.fnv1a64(flipped),
                            ledger.fnv1a64(text))

    def test_broken_conservation_is_rejected(self):
        self.assertTrue(ledger.check_report("serve",
                                            serve_report(completed=8)))
        self.assertTrue(ledger.check_report("fleet",
                                            fleet_report(completed=9)))
        self.assertTrue(ledger.check_report("fleet",
                                            fleet_report(unaccounted=1)))
        self.assertTrue(ledger.check_report("stream",
                                            stream_report(in_flight=3)))

    def test_overloaded_lane_must_drop(self):
        problems = ledger.check_report(
            "stream", stream_report(completed=98, dropped=0))
        self.assertEqual(len(problems), 1)
        self.assertIn("dropped no frames", problems[0])

    def test_unparsable_report_is_rejected(self):
        self.assertTrue(ledger.check_report("serve", "{not json"))
        self.assertTrue(ledger.check_report("serve", "{}"))

    def test_fnv_matches_the_reference_vectors(self):
        self.assertEqual(ledger.fnv1a64(""), "cbf29ce484222325")
        self.assertEqual(ledger.fnv1a64("a"), "af63dc4c8601ec8c")


if __name__ == "__main__":
    unittest.main()
