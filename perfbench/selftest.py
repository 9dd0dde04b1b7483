"""Checks of the benchmark's own tracer and reference comparison.

    python3 perfbench/selftest.py

The last test traces every workload twice (about two minutes on 2 CPUs).
"""

from __future__ import annotations

import shutil
import tempfile
import unittest
from pathlib import Path

from run import ROOT, _import_pontus

_import_pontus()

import pontus.cli  # noqa: E402
import pontus.dynamics  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics, self_times, tail  # noqa: E402
from workloads import WORKLOADS, Workload, _same, load_references  # noqa: E402


def _is_count(name):
    return not name.endswith(("_s", "_ms")) and not name.startswith("tracer.")


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        # root 0..100 has children A 10..30 and B 40..90; B has child C 50..60
        spans = [
            ("r", "root", 0, 100, -1),
            ("a", "A", 10, 30, 0),
            ("b", "B", 40, 90, 0),
            ("c", "C", 50, 60, 2),
        ]
        self.assertEqual([round(s * 1e9) for s in self_times(spans)], [30, 20, 40, 10])

    def test_overlapping_children_count_once(self):
        spans = [
            ("r", "root", 0, 100, -1),
            ("a", "A", 10, 30, 0),
            ("a", "D", 20, 35, 0),
            ("a", "E", 90, 120, 0),  # clipped at the parent's end
        ]
        self.assertAlmostEqual(self_times(spans)[0] * 1e9, 100 - 25 - 10)

    def test_self_times_sum_to_root_duration(self):
        spans = [
            ("r", "root", 0, 1000, -1),
            ("a", "A", 100, 400, 0),
            ("b", "B", 150, 250, 1),
            ("b", "B", 260, 390, 1),
            ("a", "A", 500, 900, 0),
        ]
        self.assertAlmostEqual(sum(self_times(spans)) * 1e9, 1000)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        value, pct = tail([float(i) for i in range(30)])
        self.assertEqual(value, 19.0)  # ten samples (20..29) lie beyond it
        self.assertAlmostEqual(pct, 100.0 * 20 / 30)


class Robustness(unittest.TestCase):
    def test_missing_targets_are_reported_absent(self):
        targets = TARGETS + (
            ("gone", "pontus.dynamics", "no_such_function", None),
            ("gone", "pontus.dynamics", "NoSuchClass.method", None),
            ("gone", "pontus.no_such_module", "f", None),
        )
        with Tracer(targets=targets) as tracer:
            pass
        self.assertEqual(len(tracer.absent), 3)
        metrics = layer_metrics(tracer)
        self.assertEqual(metrics["tracer.absent_targets"], 3)
        self.assertEqual(metrics["dynamics.integrate.calls"], 0)

    def test_originals_restored(self):
        before = (pontus.cli.main, pontus.dynamics.expm,
                  pontus.dynamics.ConstantFlow.__dict__["state"])
        with Tracer():
            self.assertIsNot(pontus.cli.main, before[0])
        after = (pontus.cli.main, pontus.dynamics.expm,
                 pontus.dynamics.ConstantFlow.__dict__["state"])
        self.assertEqual(before, after)

    def test_tau_tolerance(self):
        self.assertTrue(_same(1.0 + 0.9e-6, 1.0))
        self.assertFalse(_same(1.0 + 1.1e-6, 1.0))
        self.assertTrue(_same(float("nan"), float("nan")))
        self.assertFalse(_same(None, 1.0))
        self.assertFalse(_same("ball-violation", "ok"))


class Repeatability(unittest.TestCase):
    def test_counts_repeat_across_two_traced_passes(self):
        refs = load_references()
        work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT)))
        try:
            for name in WORKLOADS:
                wl = Workload(name, 0, work_dir, jobs=1)
                wl.write_configs()
                passes = []
                for _ in range(2):
                    with Tracer() as tracer:
                        for call in wl.calls():
                            call.run()
                            failed, _, messages = wl.check(call, refs)
                            self.assertEqual(failed, 0, messages)
                    metrics = layer_metrics(tracer)
                    passes.append({k: v for k, v in metrics.items() if _is_count(k)})
                self.assertEqual(passes[0], passes[1], name)
                if name == "ti_scan":
                    self.assertEqual(passes[0]["dynamics.integrate.calls"], 0)
                    self.assertEqual(passes[0]["protocols.rhs_calls"], 0)
                else:
                    self.assertGreater(passes[0]["dynamics.integrate.calls"], 0)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
