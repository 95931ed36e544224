"""Self-tests of the benchmark's own parts.

    python3 bench/selftest.py

Checks that the reference oracles agree with apwords on known fixtures and
re-derive the hand-written oracles-gate answers, that a wrong answer is
counted as a failed job, that a seed always yields the same job list, and
that the tracer leaves the program as it found it.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import apwords as ap  # noqa: E402
import check  # noqa: E402
import expected  # noqa: E402
import reference as ref  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _outputs(jobs, tracer=None):
    state = {}
    outs = []
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = idx
        outs.append(worker.summarize(job, worker.execute(job, state, None)))
    worker.finish(jobs, state, outs)
    return outs


class ReferenceAgreesWithApwords(unittest.TestCase):
    def test_prefixes(self):
        specs = ["tm", "thm21", "thm21tau:45", "periodic:012", "prepend:000:tm",
                 "fixture:tm-triple:2", "product:thm21,periodic:ab"]
        for spec in specs:
            with self.subTest(spec=spec):
                got = ap.make_sequence(spec).read(0, 3999).symbols
                self.assertEqual(got, ref.prefix(spec, 4000))

    def test_thue_morse_is_cube_free(self):
        text, _ = ref.encode(ref.prefix("tm", 2 ** 12))
        self.assertIsNone(ref.smallest_cube_period(text))
        self.assertEqual(ap.is_cube_free(ap.read(ap.thue_morse(), 0, 2 ** 12 - 1)).status,
                         "pass")

    def test_cube_search_finds_the_smallest_period(self):
        for word, period in (("0110000", 1), ("abaabaaba", 3), ("0110100110", None)):
            self.assertEqual(ref.smallest_cube_period(ref.encode(word)[0]), period, word)

    def test_thm21_fails_check_sap_with_witness_c1(self):
        v = ap.check_sap(ap.thm21(), 5 ** 6, 20)
        self.assertEqual(v.status, "fail")
        self.assertIn(expected.C1, [ce.factor.text() for _, ce in v.failures])
        text, codes = ref.encode(ref.prefix("thm21", 5 ** 6))
        self.assertEqual(ref.sap_failures(text, 20), ("fail", v.failure_count))
        last = text.rfind(ref.factor_text(expected.C1, codes))
        self.assertTrue(0 <= last < 5 ** 6 / 2)  # last seen in the first half

    def test_gate_answers(self):
        """The hand-written oracles-gate answers, re-derived."""
        thm21, _ = ref.encode(ref.prefix("thm21", 5 ** 7))
        tm = ref.prefix("tm", 2 ** 16)
        gate = expected.GATE
        self.assertEqual(ref.check_regulator(thm21[:5 ** 6], ref.regulator(["thm21"]), 8),
                         ("pass", None))
        self.assertEqual(ref.check_regulator(thm21, ref.regulator(["thm21"]), 12),
                         ("pass", None))
        self.assertEqual(ref.sap_failures(thm21[:5 ** 6], 20),
                         ("fail", gate["sap-thm21-5^6"]["failure_count"]))
        tm_text, _ = ref.encode(tm)
        self.assertEqual({str(n): ref.empirical_value(tm_text, n) for n in range(1, 13)},
                         gate["emp-tm-2^16"]["table"])
        self.assertEqual(ref.pr_estimate(ref.prefix("thm21", 5 ** 6), 20),
                         gate["pr-thm21-5^6"]["estimate"])
        self.assertEqual(ref.pr_estimate(tm[:2 ** 14], 12), gate["pr-tm-2^14"]["estimate"])
        self.assertIsNone(ref.smallest_cube_period(tm_text))
        self.assertEqual(gate["cube-tm-2^16"], {"status": "pass"})
        self.assertEqual(gate["cube-tm-2^15"], {"status": "pass"})

    def test_random_jobs_check_clean(self):
        jobs = workloads.random_jobs(7)[:60]
        attempted, failed, problems = check.check_outputs(jobs, [_outputs(jobs)])
        self.assertEqual((attempted, failed), (60, 0), problems)


class WrongAnswersFail(unittest.TestCase):
    def setUp(self):
        self.jobs = [j for j in workloads.gate_jobs()
                     if j["name"] in ("creg-thm21-5^6", "pr-tm-2^14")]
        self.outs = _outputs(self.jobs)

    def test_gate(self):
        self.assertEqual(check.check_outputs(self.jobs, [self.outs])[:2],
                         (2, 0))
        wrong = dict(expected.GATE, **{"pr-tm-2^14": {"estimate": 1}})
        attempted, failed, _ = check.check_outputs(self.jobs,
                                                   [self.outs], gate=wrong)
        self.assertEqual((attempted, failed), (2, 1))

    def test_cli(self):
        def stdout(how):
            if how is None:
                return ""
            form, want = how
            if form == "text":
                return want + "\n"
            if form == "json":
                return json.dumps(want)
            if form == "tsv":
                return "\t".join(want.get(i, "x") for i in range(max(want) + 1))
            return "\n".join(want)

        jobs = workloads.cli_jobs()
        outs = [{"code": code, "stdout": stdout(how)} for code, how in expected.CLI]
        self.assertEqual(check.check_outputs(jobs, [outs])[:2],
                         (len(jobs), 0))
        wrong = list(expected.CLI)
        wrong[3] = (1, wrong[3][1])
        wrong[9] = (wrong[9][0], ("json", {"status": "pass"}))
        attempted, failed, _ = check.check_outputs(jobs, [outs], cli=wrong)
        self.assertEqual((attempted, failed), (len(jobs), 2))

    def test_build_B(self):
        jobs = [j for j in workloads.machine_jobs(5) if j["kind"] == "build-B"]
        outs = _outputs(jobs)
        self.assertEqual(check.check_outputs(jobs, [outs])[:2], (1, 0))
        outs[0]["values"]["7"] += 1
        self.assertEqual(check.check_outputs(jobs, [outs])[:2], (1, 1))

    def test_exception_and_flipped_verdict(self):
        jobs = workloads.random_jobs(3)[:5]
        outs = _outputs(jobs)
        outs[0] = {"error": "RuntimeError: boom"}
        for i, job in enumerate(jobs):
            if job["kind"] in ("creg", "sap", "cube") and i:
                outs[i] = dict(outs[i], status="pass" if outs[i]["status"] == "fail" else "fail")
                break
        attempted, failed, _ = check.check_outputs(jobs, [outs])
        self.assertEqual((attempted, failed), (5, 2))


class JobLists(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for wl in workloads.WORKLOADS:
            a = json.dumps(workloads.jobs(wl, 11), sort_keys=True)
            b = json.dumps(workloads.jobs(wl, 11), sort_keys=True)
            self.assertEqual(a, b, wl)

    def test_seeded_workloads_depend_on_seed(self):
        for wl in workloads.SEEDED:
            self.assertNotEqual(workloads.jobs(wl, 1), workloads.jobs(wl, 2), wl)


class TracerLeavesNoTrace(unittest.TestCase):
    def test_restores_and_agrees(self):
        from apwords import analysis, automata, regulators, words

        owners = (ap, analysis, automata, regulators, words, words.SequenceHandle,
                  words.FuncSequence, words.StreamSequence, analysis.EmpiricalRegulator,
                  regulators.Regulator)
        before = [dict(vars(o)) for o in owners]
        jobs = workloads.random_jobs(5)[:40] + worker.setup("machines", 5, HERE)[:12]
        plain = _outputs(jobs)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _outputs(jobs, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        for o, b in zip(owners, before):
            self.assertEqual(dict(vars(o)), b, o)
        summary = tracer.summary()
        self.assertGreater(summary["counts"]["words.at_calls"], 0)
        self.assertGreater(summary["self_s"]["analysis.factor_stats"], 0)
        self.assertGreater(summary["self_s"]["automata.drive"], 0)


if __name__ == "__main__":
    unittest.main()
