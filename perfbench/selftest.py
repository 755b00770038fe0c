"""Untimed checks of the benchmark itself; run from the checkout root:

    python3 perfbench/selftest.py

Covers seed determinism, the output check, exact reconciliation of the
traced run, restoration of every wrapped name, the printed result and the
refusal to run without polyquo's sources.  Uses a few divisions per workload.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run

run.import_polyquo()

import tracer  # noqa: E402  (needs polyquo on the path)
import workloads  # noqa: E402
from polyquo.polynomial import DensePoly, classical_div  # noqa: E402

NAMES = list(workloads.WORKLOADS)
# Few leading inputs per workload keep the test short; cli-small's 18 cover
# both ring kinds and every method/side pair.
COUNTS = {"gfp-modred": 2, "mat3-fresh": 2, "lodo-rquo": 2, "cli-small": 18}


def make(name, seed):
    return workloads.make_workload(name, seed, COUNTS[name], run.OUT_DIR)


def base_muls(wl):
    out = []
    for i in range(wl.count):
        inp = wl.input(i)
        before = wl.mul_count()
        result = wl.divide(inp)
        out.append(wl.mul_count() - before)
        wl.check(inp, result)
    return out


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs_and_counts(self):
        for name in NAMES:
            a, b = make(name, 7), make(name, 7)
            try:
                self.assertEqual(a.input_digest(), b.input_digest(), name)
                self.assertEqual(base_muls(a), base_muls(b), name)
            finally:
                a.close()
                b.close()

    def test_other_seed_other_inputs(self):
        for name in NAMES:
            a, b = make(name, 7), make(name, 8)
            try:
                self.assertNotEqual(a.input_digest(), b.input_digest(), name)
            finally:
                a.close()
                b.close()


class OutputCheck(unittest.TestCase):
    def test_long_division_matches_classical_div(self):
        # The timed runs compare quo against the benchmark's packed long
        # division; this ties that oracle to polyquo's own classical route.
        for name in ("gfp-modred", "mat3-fresh"):
            wl = workloads.make_workload(name, 5, 4)
            for i in range(wl.count):  # mat3-fresh alternates left and right
                u, v, side = wl.input(i)
                q, r = classical_div(u, v, side)
                expected = (workloads.as_matrices(q.coeffs, wl.n),
                            workloads.as_matrices(r.coeffs, wl.n))
                self.assertEqual(workloads.long_division(u, v, side, wl.n), expected, name)
            u, v, side = wl.input(0)
            self.assertEqual(workloads.long_division(v, u, side, wl.n),  # deg u < deg v
                             ([], workloads.as_matrices(v.coeffs, wl.n)))

    def test_wrong_quotient_is_caught(self):
        for name in ("gfp-modred", "mat3-fresh"):
            wl = make(name, 1)
            inp = wl.input(0)
            v = inp[1]
            q, r = wl.divide(inp)
            one = DensePoly.one(wl.ring)
            with self.assertRaises(workloads.CheckFailed, msg=name):
                wl.check(inp, (q + one, r))
            # a wrong pair that still satisfies u = q*v + r, but not deg r < deg v
            with self.assertRaises(workloads.CheckFailed, msg=name):
                wl.check(inp, (q - one, r + v))

    def test_wrong_skew_quotient_is_caught(self):
        wl = make("lodo-rquo", 1)
        inp = wl.input(0)
        q, r = wl.divide(inp)
        with self.assertRaises(workloads.CheckFailed):
            wl.check(inp, (q + q.ctx.one(), r))

    def test_cli_failure_is_caught(self):
        wl = make("cli-small", 1)
        try:
            with self.assertRaises(workloads.CheckFailed):
                wl.check(wl.input(0), 1)
        finally:
            wl.close()


class TracedRun(unittest.TestCase):
    def test_reconciles_and_restores(self):
        targets = tracer.patch_targets()
        originals = [vars(o).get(a) for o, a in targets]
        for name in NAMES:
            wl = make(name, 3)
            tally = run.Tally()
            path = os.path.join(run.OUT_DIR, "selftest-spans-%s.jsonl" % name)
            try:
                metrics, notes, consistent = run.traced_run(wl, 0, tally, path)
                untraced = make(name, 3)
                per_div = base_muls(untraced)
                untraced.close()
            finally:
                wl.close()
            m = {k: v for k, (v, _) in metrics.items()}
            self.assertTrue(consistent, name)
            self.assertEqual(tally.failed, 0, name)
            self.assertEqual(m["trace.divisions"], wl.count, name)
            self.assertEqual(m["rings.base_muls"], sum(per_div), name)
            if name in ("gfp-modred", "mat3-fresh"):
                self.assertEqual(tracer.reconcile(m, tracer.SHINV_PHASES), 0, name)
                self.assertGreater(m["shinv.pow_diff_muls"], 0, name)
                self.assertEqual(m["shinv.quo_other_muls"], 0, name)
                for ratio in ("polynomial.mul_mod_kept_ratio", "shinv.quotient_product_kept_ratio",
                              "shinv.remainder_product_kept_ratio"):
                    self.assertGreater(m[ratio], 0, (name, ratio))
                self.assertEqual(m["skew.skew_mul_calls"], 0, name)
            if name == "lodo-rquo":
                self.assertEqual(tracer.reconcile(m, tracer.SKEW_PHASES), 0, name)
                self.assertEqual(m["polynomial.mul_calls"] + m["shinv.shinv_calls"], 0)
                self.assertGreater(m["skew.lshinv_updates"], 0)
            if name == "cli-small":
                self.assertGreater(m["documents.bytes_in"], 0)
                self.assertGreater(m["cli.residual_s"], 0)
            self.assertEqual([vars(o).get(a) for o, a in targets], originals, name)
            for ring in wl.rings():
                self.assertFalse(set(tracer.RING_METHODS) & set(vars(ring)), name)
            with open(path, encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            os.remove(path)
            self.assertEqual(len(spans), notes["spans"])
            self.assertEqual({s["division"] for s in spans}, set(range(wl.count)))


class RenamedProduct(unittest.TestCase):
    def test_product_under_another_name_moves_a_phase(self):
        # A quo whose products bypass shinv.mul_oriented: their muls must land
        # in shinv.quo_other_muls, and the phases must still add up exactly.
        import importlib

        polynomial = importlib.import_module("polyquo.polynomial")
        shinv_module = importlib.import_module("polyquo.shinv")

        def renamed_quo(u, v, side):
            h = u.degree
            iv = shinv_module.shinv(v, h + 1, None, side)
            q = polynomial.shift(polynomial.mul_oriented(u, iv, side), -h - 1)
            return q, u - polynomial.mul_oriented(q, v, side)

        original = workloads.quo
        workloads.quo = renamed_quo
        tally = run.Tally()
        try:
            wl = make("gfp-modred", 3)
            metrics, _, consistent = run.traced_run(
                wl, 0, tally, os.path.join(run.OUT_DIR, "selftest-spans-renamed.jsonl"))
        finally:
            workloads.quo = original
            os.remove(os.path.join(run.OUT_DIR, "selftest-spans-renamed.jsonl"))
        m = {k: v for k, (v, _) in metrics.items()}
        self.assertTrue(consistent)
        self.assertEqual(tally.failed, 0)
        self.assertEqual(m["shinv.quotient_product_muls"] + m["shinv.remainder_product_muls"], 0)
        self.assertGreater(m["shinv.quo_other_muls"], 0)
        self.assertEqual(tracer.reconcile(m, tracer.SHINV_PHASES), 0)


class Command(unittest.TestCase):
    def test_prints_every_metric_last(self):
        done = subprocess.run(
            [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload",
             "cli-small", "--seed", "2", "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=120,
        )
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            listed = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
        self.assertEqual(listed, run.END_TO_END)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_refuses_without_sources(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
        try:
            shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "gfp-modred", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
