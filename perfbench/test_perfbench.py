"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 -m unittest discover -s perfbench

Run from the root of an optsl2 checkout.  The planted-fault test runs
one conjugates-qq pass in this process (a few seconds).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pass_child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

optsl2 = pass_child.import_optsl2()
from optsl2 import sl2  # noqa: E402


def sample_calls():
    """Results of calls through every kind of wrapped binding."""
    inst = workloads.qq_instances(3)[6]
    XQ = optsl2.Mat.from_rows(optsl2.QQ, inst.matrix)
    X = optsl2.rep_from_partition(optsl2.Fp(3), (3, 1))
    phi = optsl2.build_optimal(X)
    return [
        XQ * XQ + XQ.scale(2) - XQ,                      # Mat methods
        optsl2.nilpotent_jordan(XQ).basis,               # package binding
        optsl2.eval_hom(phi, optsl2.sl2_y1(optsl2.Fp(3), 2)),
        sl2.verify_optimal(phi, X, random.Random(1)),    # intra-module calls
        list(optsl2.matrices.enumerate_group(2, 2)),     # generator
        optsl2.run_suite("gcr", n_max=2, primes=[2]).records,
    ]


class TracerTest(unittest.TestCase):
    def test_wrapped_returns_what_unwrapped_returns(self):
        plain = sample_calls()
        originals = (optsl2.Mat.__mul__, sl2.eval_hom, optsl2.eval_hom)
        t = tracer.Tracer()
        with t:
            self.assertIsNot(sl2.eval_hom, originals[1])
            wrapped = sample_calls()
        self.assertEqual(wrapped, plain)
        self.assertEqual((optsl2.Mat.__mul__, sl2.eval_hom, optsl2.eval_hom),
                         originals)
        m = t.metrics()
        self.assertEqual(m["matrices.enumerate_group.calls"]["value"], 1)
        self.assertEqual(m["matrices.enumerate_group.yielded"]["value"], 6)
        self.assertGreater(m["sl2.eval_hom.calls"]["value"], 1)
        self.assertGreater(m["suites.gcr.total_s"]["value"], 0)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         tracer.metric_names())


class GeneratorTest(unittest.TestCase):
    def test_conjugates_qq_inputs_repeat_for_a_seed(self):
        a = workloads.qq_instances(7)
        self.assertEqual(a, workloads.qq_instances(7))
        self.assertNotEqual(a, workloads.qq_instances(8))
        self.assertEqual(len(a), 28)
        self.assertEqual([i.partition for i in a],
                         [lam for n in range(2, 7)
                          for lam in workloads.partitions(n)])


class PlantedFaultTest(unittest.TestCase):
    def run_in_process(self):
        """run.main with its passes in this process, so stubs apply."""
        saved = run.cold_pass, run.MIN_PASSES
        run.cold_pass = lambda w, seed, spans=None: run.pass_result(
            pass_child.one_pass(w, seed, spans))
        run.MIN_PASSES = 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "conjugates-qq", "--seed", "7",
                                 "--seconds", "0.1", "--trace", "0"])
        finally:
            run.cold_pass, run.MIN_PASSES = saved
        return code, json.loads(out.getvalue().splitlines()[-1])

    def test_failing_verify_optimal_fails_the_run(self):
        report = sl2.OptimalVerifyReport(True, True, True, True, False)
        original = sl2.verify_optimal
        stub_binds = [(m, a) for m in (optsl2, sl2)
                      for a, v in vars(m).items() if v is original]
        try:
            for module, attr in stub_binds:
                setattr(module, attr, lambda *a, **k: report)
            code, result = self.run_in_process()
        finally:
            for module, attr in stub_binds:
                setattr(module, attr, original)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_silent_suite_is_a_failure(self):
        saved = workloads.cli_request
        workloads.cli_request = lambda suite, seed: (0, None, "")
        try:
            outcomes = workloads.cli_pass(("gcr",), 7)
        finally:
            workloads.cli_request = saved
        self.assertEqual([o.ok for o in outcomes], [False])

    def test_thinned_or_changed_verdicts_are_caught(self):
        outs = workloads.cli_pass(("gcr",), 7)
        self.assertEqual(run.expectation_problems("enum-fp", 7, outs)[:1],
                         ["19 records, expected 59"])
        qq = workloads.qq_pass(workloads.qq_instances(7)[:3])
        problems = run.expectation_problems("conjugates-qq", 7, qq)
        self.assertEqual(len(problems), 2)
        self.assertIn("verdict_sha differs", problems[1])
        self.assertEqual(run.expectation_problems("conjugates-qq", 5, qq),
                         problems[:1])


if __name__ == "__main__":
    unittest.main()
