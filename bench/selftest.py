"""Self-test of the benchmark: tiny sizes of every workload end to end, the
self-time arithmetic of the tracer, and the metric names against
BENCHMARK.json.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".bench_work" / f"selftest-{os.getpid()}"

# Tiny sizes, small enough for seconds per workload.
TINY = {
    "align-talks": {"TALK_SIZES": (3, 4, 6, 8)},
    "train-chain": {"TRAIN": 40, "EPOCHS": 1, "HELD_OUT": 10, "FINE_TUNE_EPOCHS": 1},
}


def tiny(name: str, seed: int):
    cls = type(f"Tiny{name}", (workloads.WORKLOADS[name],), TINY[name])
    return cls(seed)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # [name, start, end, parent, tag, ok]
        spans = [
            ["root", 0.0, 10.0, -1, None, True],
            ["a", 1.0, 4.0, 0, None, True],
            ["b", 3.0, 6.0, 0, None, True],  # overlaps a: root's children cover 1..6
            ["a.child", 2.0, 3.0, 1, None, True],
            ["b.child", 5.0, 7.0, 2, None, True],  # runs past b's end: clipped to 5..6
            ["other", 11.0, 12.5, -1, None, False],
        ]
        self.assertEqual(tracer.self_times(spans), [5.0, 2.0, 2.0, 1.0, 2.0, 1.5])

    def test_layer_metrics_from_spans(self):
        t = tracer.Tracer()
        t.spans = [
            ["cli.train", 0.0, 4.0, -1, None, True],
            ["segmenters.train", 0.5, 3.5, 0, None, True],
            ["annotate.align_sentence", 5.0, 5.002, -1, "talk0", True],
            ["annotate.align_sentence", 6.0, 6.010, -1, "talk3", False],
        ]
        metrics = tracer.layer_metrics(t, {"talk0"}, {"talk3"})
        self.assertEqual(metrics["cli.train.s"], 4.0)
        self.assertEqual(metrics["cli.train.self_s"], 1.0)
        self.assertEqual(metrics["segmenters.train.s"], 3.0)
        self.assertEqual(metrics["annotate.align_sentence.calls"], 2)
        self.assertEqual(metrics["annotate.align_sentence.ok_ratio"], 0.5)
        self.assertAlmostEqual(metrics["annotate.align_sentence.short_talk_ms"], 2.0)
        self.assertAlmostEqual(metrics["annotate.align_sentence.long_talk_ms"], 10.0)

    def test_install_patches_every_binding_and_uninstall_restores(self):
        import subseg
        from subseg import cli, pipeline, segmenters
        from subseg.annotate import AnnotatedSentence

        originals = (segmenters.fine_tune, pipeline.fine_tune, cli.fine_tune, subseg.fine_tune)
        from_text = AnnotatedSentence.__dict__["from_text"]
        t = tracer.Tracer()
        t.install()
        try:
            self.assertTrue(all(f is not segmenters.fine_tune for f in originals))
            self.assertIs(pipeline.fine_tune, segmenters.fine_tune)
            self.assertIs(cli.fine_tune, segmenters.fine_tune)
            AnnotatedSentence.from_text("a b <eob>")
        finally:
            t.uninstall()
        self.assertEqual((segmenters.fine_tune, pipeline.fine_tune, cli.fine_tune, subseg.fine_tune), originals)
        self.assertIs(AnnotatedSentence.__dict__["from_text"], from_text)
        self.assertEqual(t.counts["annotate.from_text.calls"], 1)


class WorkloadTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def measure(self, name, seed, trace):
        metrics, total, info = run.measure(tiny(name, seed), WORK / f"{name}-{seed}-{trace}", 0, trace)
        self.assertEqual(total.failed, 0)
        return metrics, total, info

    def test_every_workload_reports_every_listed_metric(self):
        for name in workloads.WORKLOADS:
            for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    metrics, total, _ = self.measure(name, 1, trace)
                    line = run.result_line(metrics, SPEC[listed], total)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(list(line["metrics"]), [m["name"] for m in SPEC[listed]])
                    if not trace:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(metrics[m["name"]], 0, m["name"])
                    else:
                        calls = metrics["segmenters.extract_features.calls"]
                        if name == "align-talks":
                            self.assertEqual(calls, 0)
                            self.assertGreater(metrics["annotate.align_sentence.calls"], 0)
                        else:
                            self.assertGreater(calls, 0)

    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = self.measure(name, 7, False)[2]
                second = self.measure(name, 7, False)[2]
                other = self.measure(name, 8, False)[2]
                self.assertEqual(first["input_digest"], second["input_digest"])
                self.assertEqual(first["output_digest"], second["output_digest"])
                self.assertNotEqual(first["input_digest"], other["input_digest"])


class CommandTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_last_line_is_the_result(self):
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "train-chain", "--seed", "3",
             "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(
            {name: value["unit"] for name, value in result["metrics"].items()},
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        )

    def test_fails_without_the_program(self):
        bare = WORK / "bare"
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "align-talks", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
