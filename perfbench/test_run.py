#!/usr/bin/env python3
"""Tests of the benchmark harness itself (no library build needed):

    python3 perfbench/test_run.py
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import textwrap
import time
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# A stand-in for step_runner speaking the same line protocol. MODE=ok
# trains every step and prints a result; MODE=stall stops printing inside
# step STALL_AT's forward pass and sleeps; MODE=crash exits there;
# MODE=flat trains but its loss never decreases; MODE=slow sleeps
# SLOW_S in every step while still printing its span events.
FAKE_CHILD = textwrap.dedent("""
    import os, sys, time
    mode = os.environ["FAKE_MODE"]
    slow_s = float(os.environ.get("FAKE_SLOW_S", "0"))
    steps = int(os.environ["FAKE_STEPS"])
    stall_at = int(os.environ.get("FAKE_STALL_AT", "1"))
    t = [0.0]
    def ev(tag, name, step):
        t[0] += 0.01
        print("%s %s %d %.9f" % (tag, name, step, t[0]), flush=True)
    ev("B", "setup", 0)
    for s in range(steps):
        ev("B", "step", s)
        ev("B", "graph.forward", s)
        if mode == "slow":
            time.sleep(slow_s)
        if mode in ("stall", "crash") and s == stall_at:
            if mode == "crash":
                sys.exit(3)
            time.sleep(600)
        ev("E", "graph.forward", s)
        loss = 2.0 if mode == "flat" else 2.0 - 0.1 * s
        print("L %d %016x %.17g" % (s, int(loss * 1000), loss), flush=True)
        ev("E", "step", s)
        if s == 0:
            ev("E", "setup", 0)
    print('R {"peak_rss_mib": 1.0}', flush=True)
""")


class StatisticsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, q2, q3 = run.quartiles(values)
        self.assertEqual((q1, q2, q3),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(q2, statistics.median(values))
        self.assertEqual(q2, 4.0)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)
        with self.assertRaises(ValueError):
            run.quartiles([1.0])

    def test_tail_percentile_refused_below_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(1, 21)), 50), 10)
        with self.assertRaises(ValueError):
            run.percentile(list(range(1, 20)), 50)   # 9 beyond the median
        self.assertEqual(run.percentile(list(range(1, 101)), 90), 90)
        with self.assertRaises(ValueError):
            run.percentile(list(range(1, 100)), 90)  # 9 beyond p90
        with self.assertRaises(ValueError):
            run.percentile(list(range(1, 1001)), 99.5)


class SchemaTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def check(self, trace):
        declared = self.spec["per_layer" if trace else "end_to_end"]
        values = {d["name"]: 1.5 for d in declared}
        line = run.format_result(self.spec, trace, True, 12, 1, values)
        out = json.loads(line)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(out["correct"], True)
        self.assertEqual((out["attempted"], out["failed"]), (12, 1))
        self.assertEqual(set(out["metrics"]), set(values))
        for d in declared:
            self.assertEqual(out["metrics"][d["name"]],
                             {"value": 1.5, "unit": d["unit"]})
        del values[declared[0]["name"]]
        with self.assertRaises(RuntimeError):
            run.format_result(self.spec, trace, True, 12, 1, values)

    def test_end_to_end_schema(self):
        self.check(trace=0)

    def test_per_layer_schema(self):
        self.check(trace=1)

    def test_every_metric_is_computed(self):
        # The metric names the harness computes are exactly those declared.
        with open(run.__file__) as fh:
            src = fh.read()
        for section in ("end_to_end", "per_layer"):
            for d in self.spec[section]:
                self.assertIn('"%s"' % d["name"], src, d["name"])

    def test_spec_limits(self):
        e2e = {d["name"]: d for d in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(d["bound"] for d in e2e.values()))
        self.assertTrue(all(0 < d["bound"] <= 0.25 for d in e2e.values()))
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.WORKLOADS))


class WatchdogTest(unittest.TestCase):
    STEPS = 4

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.fake = os.path.join(self.tmp.name, "fake_child.py")
        with open(self.fake, "w") as fh:
            fh.write(FAKE_CHILD)
        self.workload = dict(run.WORKLOADS["deep_narrow"],
                             steps=self.STEPS, children=1)

    def tearDown(self):
        self.tmp.cleanup()

    def env(self, mode):
        return dict(os.environ, FAKE_MODE=mode, FAKE_STEPS=str(self.STEPS),
                    FAKE_STALL_AT="1", FAKE_SLOW_S="2.0")

    def test_stalled_child_is_killed_and_names_its_phase(self):
        t0 = time.monotonic()
        out = run.run_child([sys.executable, self.fake], self.env("stall"),
                            stall_s=1.0, deadline=time.monotonic() + 60)
        self.assertLess(time.monotonic() - t0, 30)
        self.assertTrue(out.stalled)
        self.assertFalse(out.finished)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.last_open(),
                         "step[1] > graph.forward[1]")
        self.assertEqual(run.step_health(out, self.STEPS), (1, 3))

    def run_fake(self, modes, stall_s):
        """One run_children call whose children are fake children taking
        `modes` in launch order."""
        modes = iter(modes)
        real_run_child = run.run_child

        def child(_cmd, _env, stall_s, deadline):
            return real_run_child([sys.executable, self.fake],
                                  self.env(next(modes)), stall_s, deadline)

        state = run.RunState("deep_narrow", 1, seconds=0)
        state.w = self.workload
        with mock.patch.object(run, "run_child", child), \
                mock.patch.object(run, "BUILD_DIR", self.tmp.name):
            finished = run.run_children(state, "unused", {}, [False],
                                        stall_s=stall_s)
        return state, finished

    def test_stall_counts_unfinished_steps_as_failed(self):
        state, finished = self.run_fake(["stall", "ok"], stall_s=1.0)
        # The stalled child finished step 0 only; its replacement finished.
        self.assertEqual(len(finished), 1)
        self.assertEqual(state.attempted, 2 * self.STEPS)
        self.assertEqual(state.failed, self.STEPS - 1)
        self.assertTrue(state.correct)
        self.assertTrue(any("stalled" in n and "graph.forward[1]" in n
                            for n in state.notes), state.notes)

    def test_crash_counts_unfinished_steps_as_failed(self):
        state, finished = self.run_fake(["crash"] * (1 + run.MAX_REPLACEMENTS),
                                        stall_s=5.0)
        # One child plus MAX_REPLACEMENTS replacements, all crashed in step 1.
        self.assertEqual(finished, [])
        runs = 1 + run.MAX_REPLACEMENTS
        self.assertEqual(state.attempted, runs * self.STEPS)
        self.assertEqual(state.failed, runs * (self.STEPS - 1))
        self.assertTrue(any("exited with code 3" in n for n in state.notes))

    def test_budget_cut_is_not_a_stall(self):
        # A child still printing span events when the run budget runs out
        # is cut, not stalled: its unfinished steps are not failures.
        with mock.patch.object(run, "RUN_BUDGET_S", 7.0):
            state, finished = self.run_fake(["slow"], stall_s=5.0)
        self.assertEqual(finished, [])
        self.assertEqual(state.failed, 0)
        self.assertGreaterEqual(state.attempted, 1)
        self.assertLess(state.attempted, self.STEPS)
        self.assertTrue(state.correct)
        self.assertTrue(any("cut at the run budget" in n
                            for n in state.notes), state.notes)
        self.assertFalse(any("stalled" in n for n in state.notes))

    def test_non_decreasing_loss_reports_incorrect(self):
        # A child whose loss never decreases fails the gate. The run still
        # prints its result line, with correct=false and every step failed.
        modes = iter(["flat"] * 2)
        real_run_child = run.run_child

        def child(_cmd, _env, stall_s, deadline):
            return real_run_child([sys.executable, self.fake],
                                  dict(self.env(next(modes)),
                                       FAKE_STEPS="11"), stall_s, deadline)

        workloads = dict(run.WORKLOADS)
        workloads["deep_narrow"] = dict(self.workload, steps=11,
                                           children=2)
        stdout = io.StringIO()
        with mock.patch.object(run, "run_child", child), \
                mock.patch.object(run, "build", lambda: None), \
                mock.patch.object(run, "BUILD_DIR", self.tmp.name), \
                mock.patch.object(run, "WORKLOADS", workloads), \
                contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "deep_narrow", "--seed", "1",
                             "--seconds", "0", "--trace", "0"])
        self.assertEqual(code, 0)
        out = json.loads(stdout.getvalue().splitlines()[-1])
        self.assertIs(out["correct"], False)
        self.assertEqual(out["attempted"], 22)
        self.assertEqual(out["failed"], 22)
        self.assertEqual({d["name"] for d in run.load_spec()["end_to_end"]},
                         set(out["metrics"]))
        self.assertIn("loss did not decrease", stdout.getvalue())

    def test_digest_mismatch_fails_the_gate(self):
        state, finished = self.run_fake(["ok"], stall_s=5.0)
        self.assertEqual(len(finished), 1)
        self.assertTrue(state.correct)
        # Corrupt the stored digest: the next run of the same code, seed
        # and threads must fail the gate, and its steps count as failed.
        path = os.path.join(self.tmp.name, "loss_digests.json")
        with open(path) as fh:
            store = json.load(fh)
        with open(path, "w") as fh:
            json.dump({k: "0" * 64 for k in store}, fh)
        state, finished = self.run_fake(["ok"], stall_s=5.0)
        self.assertEqual(len(finished), 1)   # its timings are still reported
        self.assertFalse(state.correct)
        self.assertEqual(state.failed, self.STEPS)


if __name__ == "__main__":
    unittest.main()
