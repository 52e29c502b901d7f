"""Tests of the benchmark's own percentile and self-time helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.stats import median, percentile, supported, tail_count, tail_percentile, timing  # noqa: E402
from perfbench.tracer import Tracer, covered, install, merge_summaries, self_times  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(10, 0, -1))  # unsorted on purpose
        self.assertEqual(percentile(values, 50), 5)
        self.assertEqual(percentile(values, 90), 9)
        self.assertEqual(percentile(values, 100), 10)
        self.assertEqual(percentile(values, 1), 1)
        self.assertEqual(percentile([7.5], 90), 7.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1, 2], 0)

    def test_ten_samples_beyond(self):
        self.assertEqual(tail_count(20, 50), 10)
        self.assertTrue(supported(20, 50))
        self.assertFalse(supported(19, 50))
        self.assertTrue(supported(100, 90))
        self.assertFalse(supported(99, 90))
        self.assertFalse(supported(0, 50))

    def test_tail_falls_back_to_the_highest_supported_percentile(self):
        self.assertEqual(tail_percentile(100), 90)
        self.assertEqual(tail_percentile(95), 89)
        self.assertEqual(tail_percentile(22), 54)
        self.assertIsNone(tail_percentile(19))  # nothing above the median
        samples = [float(v) for v in range(1, 41)]
        self.assertEqual(timing(samples, 50), {"value": 20.0, "unit": "ms", "samples": 40, "percentile": 50})
        self.assertEqual(timing(samples, 90), {"value": 30.0, "unit": "ms", "samples": 40, "percentile": 75})
        self.assertEqual(timing([], 90), {"value": None, "unit": "ms", "samples": 0})

    def test_median(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 2, 3]), 2.5)


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_and_clips(self):
        self.assertAlmostEqual(covered([(1, 3), (2, 5), (8, 12)], 0, 10), 6.0)
        self.assertAlmostEqual(covered([(2, 3), (1, 6)], 0, 10), 5.0)
        self.assertEqual(covered([], 0, 10), 0.0)

    def test_self_time_subtracts_children_once(self):
        spans = [
            (1, 0, "outer", 0.0, 10.0),
            (2, 1, "a", 1.0, 3.0),
            (3, 1, "b", 2.0, 5.0),  # overlaps a: covered once
            (4, 3, "leaf", 2.5, 3.5),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 6.0)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 2.0)
        self.assertAlmostEqual(own[4], 1.0)
        self.assertAlmostEqual(sum(own.values()), 11.0)  # 10 s outer + 1 s of a/b overlap

    def test_tracer_nesting_and_merge(self):
        tracer = Tracer(keep_durations={"inner"})
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        tracer.end("inner", inner)
        tracer.end("outer", outer)
        tracer.count("things", 3)
        summary = tracer.summary()
        self.assertEqual(summary["spans"]["outer"]["calls"], 1)
        self.assertLessEqual(summary["spans"]["outer"]["self_s"], summary["spans"]["outer"]["total_s"])
        self.assertEqual(len(summary["spans"]["inner"]["durations"]), 1)
        merged = merge_summaries([summary, summary])
        self.assertEqual(merged["spans"]["inner"]["calls"], 2)
        self.assertEqual(len(merged["spans"]["inner"]["durations"]), 2)
        self.assertEqual(merged["counts"]["things"], 6)
        self.assertEqual(merged["n_spans"], 4)


class InstallTest(unittest.TestCase):
    def setUp(self):
        def leaf(x):
            return x + 1

        def steps(n):
            yield from range(n)

        base = types.ModuleType("fakepkg.base")
        base.leaf, base.steps = leaf, steps
        user = types.ModuleType("fakepkg.user")
        user.leaf = leaf  # as after `from .base import leaf`
        user.TABLE = {"leaf": leaf}
        self.modules = {"fakepkg.base": base, "fakepkg.user": user}
        sys.modules.update(self.modules)
        self.leaf = leaf

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_every_reference_is_wrapped_and_restored(self):
        tracer = Tracer()
        restore = install(tracer, "fakepkg.base:leaf", "leaf", package="fakepkg")
        user = self.modules["fakepkg.user"]
        self.assertEqual(user.leaf(1), 2)
        self.assertEqual(user.TABLE["leaf"](2), 3)
        self.assertEqual(self.modules["fakepkg.base"].leaf(3), 4)
        self.assertEqual(tracer.summary()["spans"]["leaf"]["calls"], 3)
        restore()
        self.assertIs(user.leaf, self.leaf)
        self.assertIs(user.TABLE["leaf"], self.leaf)

    def test_generator_steps_are_spans(self):
        tracer = Tracer()
        seen = []
        install(tracer, "fakepkg.base:steps", "steps", generator=True,
                after=lambda t, item: seen.append(item), package="fakepkg")
        self.assertEqual(list(self.modules["fakepkg.base"].steps(3)), [0, 1, 2])
        self.assertEqual(seen, [0, 1, 2])
        self.assertEqual(tracer.summary()["spans"]["steps"]["calls"], 4)  # 3 items + exhaustion


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        import json

        from perfbench.layers import PER_LAYER
        from perfbench.run import END_TO_END_UNITS

        doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, END_TO_END_UNITS)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         [(name, unit) for name, unit, _how in PER_LAYER])


if __name__ == "__main__":
    unittest.main()
