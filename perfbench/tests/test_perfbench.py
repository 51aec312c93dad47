#!/usr/bin/env python3
"""The benchmark's own checks: its correctness gates must fail when the
program is wrong. Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark first (like run.py) and takes about a minute.
"""

import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)


def fake_figures(root, failing=None, truncated=None):
    """Stand-in figure binaries printing the expected table rows; the
    `failing` one exits 1, the `truncated` one drops its last row."""
    root.mkdir(parents=True, exist_ok=True)
    for name, _, rows in run.FIGURES:
        printed = rows - 1 if name == truncated else rows
        code = 1 if name == failing else 0
        script = root / name
        script.write_text("#!/bin/sh\n"
                          f"i=0; while [ $i -lt {printed} ]; do echo '| row |'; i=$((i+1)); done\n"
                          f"exit {code}\n")
        script.chmod(0o755)


def setUpModule():
    run.build()  # the figure checks spawn through the driver's launcher


class PaperFigsChecks(unittest.TestCase):
    def setUp(self):
        self.dir = run.ROOT / ".bench_build" / "tests" / self.id().rsplit(".", 1)[-1]
        shutil.rmtree(self.dir, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def ok_frac(self, **faults):
        fake_figures(self.dir, **faults)
        result, _, _, _ = run.paper_figs(run.DEFAULT_SEED, 0.0, False, fig_dir=self.dir)
        return result

    def test_clean_figures_pass(self):
        result = self.ok_frac()
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["ok_frac"][0], 1.0)

    def test_nonzero_exit_lowers_ok_frac(self):
        result = self.ok_frac(failing="fig14_stages")
        self.assertFalse(result["correct"])
        self.assertLess(result["metrics"]["ok_frac"][0], 1.0)
        self.assertEqual(result["failed"], 1)

    def test_truncated_table_lowers_ok_frac(self):
        result = self.ok_frac(truncated="fig12_sr2_rta")
        self.assertLess(result["metrics"]["ok_frac"][0], 1.0)


class InProcessChecks(unittest.TestCase):
    def test_trace_mix_reads_back_every_token(self):
        out = run.run_driver("trace_mix", run.DEFAULT_SEED, 0.1, False)
        self.assertTrue(out["correct"])
        self.assertEqual(out["metrics"]["ok_frac"]["value"], 1.0)

    def test_corrupt_translation_lowers_ok_frac(self):
        out = run.run_driver("trace_mix", run.DEFAULT_SEED, 0.1, False,
                             ["--inject-fault", "translate"])
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertLess(out["metrics"]["ok_frac"]["value"], 1.0)

    def test_seed_changes_inputs_and_repeats(self):
        a = run.run_driver("trace_mix", 1, 0.1, False)["digest"]
        b = run.run_driver("trace_mix", 1, 0.1, False)["digest"]
        c = run.run_driver("trace_mix", run.HELD_OUT_SEED, 0.1, False)["digest"]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_traced_trace_mix_matches_untraced(self):
        untraced = run.run_driver("trace_mix", run.DEFAULT_SEED, 0.1, False)
        traced = run.run_driver("trace_mix", run.DEFAULT_SEED, 0.1, True)
        self.assertEqual(traced["exit"], 0)
        self.assertEqual(traced["digest"], untraced["digest"])
        self.assertIn("controller.read_ns.security-rbsg", traced["metrics"])


if __name__ == "__main__":
    unittest.main()
