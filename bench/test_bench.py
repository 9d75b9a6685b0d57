"""The benchmark's own checks.

    python3 -m unittest discover -s bench

from the repository root.  The smoke test runs every decided job of all
four workloads once (about 10 s) and checks each against its oracle.
"""

import sys
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
from workloads import WORKLOADS, Families  # noqa: E402


def setup(workload, seed=7):
    fs, jobs, _, _ = harness.prepare(workload, seed, harness.NullTracer())
    return fs, jobs


class SmokeTest(unittest.TestCase):

    def test_every_decided_job_matches_its_oracle(self):
        for name in WORKLOADS:
            fs, jobs = setup(name)
            self.assertTrue(any(j.wall for j in jobs), name)
            for job in jobs:
                self.assertIsNotNone(job.expected, job.slot)
                if job.wall:
                    continue
                rec, _ = harness.run_job(fs, job, harness.LIMIT_S,
                                         harness.NullTracer())
                self.assertEqual(rec["outcome"], "ok", (name, job.slot))
                self.assertTrue(rec["correct"], (name, job.slot))

    def test_traced_counters_and_spans(self):
        fs, jobs = setup("identity")
        tr = harness.Tracer()
        job = next(j for j in jobs if j.kind == "hsip" and not j.wall)
        tr.job = 0
        remove = harness.install_wrappers(fs, tr)
        try:
            rec, artefacts = harness.run_job(fs, job, harness.LIMIT_S, tr)
        finally:
            remove()
        counts = harness.count(fs, artefacts)
        names = {s["name"] for s in tr.spans}
        self.assertTrue({"cli.parse", "sigcore.validate",
                         "finsem.saturation", "homspan.hsip",
                         "homspan.structure_iso"} <= names, names)
        self.assertEqual(counts["hom_classes"], 14)
        self.assertGreater(counts["ind_pairs"], 0)
        # the wrappers are gone again
        self.assertFalse(hasattr(fs.homspan.structure_iso, "__wrapped__"))

    def test_traced_run_reports_every_layer_metric(self):
        result = harness.run_workload("signature", 7, 0, trace=True)
        self.assertEqual(result["rounds"], harness.MIN_ROUNDS)
        self.assertEqual(result["wrong_verdicts"], 0)
        self.assertAlmostEqual(result["metrics"]["decided_frac"], 22 / 24)
        layers = result["layers"]
        self.assertEqual(len(layers), 21)
        for name in ("cli.parse_s", "sigcore.validate_s",
                     "sigcore.classes_per_s", "isogen.nodes_per_s",
                     "stdlib.build_s"):
            self.assertGreater(layers[name], 0, name)


class OracleTest(unittest.TestCase):

    def test_equiv_closed_form_matches_brute_force(self):
        """The closed form 1 for `forall x:O. A(x,x) ~= A(x,x)` against
        stdlib-side bijection counting on small members."""
        fs = harness.import_foldsat()
        fam = Families(fs, 3, harness.NullTracer())
        for C in (fam.cyclic(2), fam.cyclic(4), fam.indiscrete(3),
                  fam.poset(4, 4)):
            M = fs.stdlib.category_to_structure(C)
            total = 1
            for x in C.objects:
                delta = {q: x for q in M.sig.out("A")}
                total *= fs.finsem.equiv_card_via_bijections(
                    M, "A", delta, delta)
            self.assertEqual(total, 1, C.name)

    def test_wrong_expected_answer_is_caught(self):
        fs, jobs = setup("evaluate")
        job = next(j for j in jobs if j.kind == "eval-card" and not j.wall)
        job.expected += 1
        rec, _ = harness.run_job(fs, job, harness.LIMIT_S,
                                 harness.NullTracer())
        self.assertIs(rec["correct"], False)
        summary = harness.summarize({job.slot: [rec]}, 0.1, 20.0)
        self.assertEqual(summary["wrong_verdicts"], 1)
        self.assertEqual(summary["metrics"]["decided_frac"], 0.0)


class CalibrationTest(unittest.TestCase):

    def test_times_are_scaled_to_the_reference_speed(self):
        rec = {"slot": "j", "outcome": "ok", "seconds": 0.2, "scale": 0.5,
               "correct": True}
        summary = harness.summarize({"j": [rec]}, 0.1, 20.0)
        self.assertAlmostEqual(summary["metrics"]["verdict_p50_s"], 0.1)
        self.assertAlmostEqual(summary["metrics"]["jobs_per_s"], 10.0)
        self.assertAlmostEqual(summary["raw_verdict_p50_s"], 0.2)
        self.assertGreater(harness.Calibration().scale(), 0)


class TimeLimitTest(unittest.TestCase):

    def test_timeout_stops_a_job(self):
        fs, jobs = setup("identity")
        wall = next(j for j in jobs if j.wall)
        start = time.perf_counter()
        rec, artefacts = harness.run_job(fs, wall, 0.2,
                                         harness.NullTracer())
        self.assertLess(time.perf_counter() - start, 2.0)
        self.assertEqual(rec["outcome"], "timeout")
        self.assertIsNone(artefacts)
        self.assertIsNone(rec["correct"])

    def test_program_error_is_recorded_by_class(self):
        fs, jobs = setup("signature")
        job = next(j for j in jobs if j.kind == "check-sig")
        job.texts = {"signature": "signature broken {"}
        rec, _ = harness.run_job(fs, job, harness.LIMIT_S,
                                 harness.NullTracer())
        self.assertEqual(rec["outcome"], "ParseError")
        summary = harness.summarize({job.slot: [rec]}, 0.1, 20.0)
        self.assertEqual(summary["errors"], 1)


if __name__ == "__main__":
    unittest.main()
