"""Check every output of a run against its reference answer.

Jobs of oracles-gate and cli-batch are compared with the hand-written
answers in ``expected.py``; those of oracles-random and machines with the
reference oracles in ``reference.py``.  Every counterexample an oracle reports is also re-scanned
in the reference prefix.  A job fails on a wrong verdict, estimate, table or
exit code, or on an exception.
"""

import json

import expected
import reference as ref
import workloads


def check_outputs(jobs, outputs, gate=None, cli=None):
    """(attempted, failed, problems) over the outputs of every pass."""
    checker = Checker(gate or expected.GATE, cli or expected.CLI)
    attempted = failed = 0
    problems = []
    for outs in outputs:
        if len(outs) != len(jobs):
            attempted += len(jobs)
            failed += len(jobs)
            problems.append(f"a pass returned {len(outs)} outputs for {len(jobs)} jobs")
            continue
        for job, out in zip(jobs, outs):
            attempted += 1
            why = checker.check(job, out)
            if why:
                failed += 1
                problems.append(f"{job['name']}: {why}")
    return attempted, failed, problems


def _factor(symbols):
    return tuple(tuple(s) if isinstance(s, list) else s for s in symbols)


class Checker:
    def __init__(self, gate, cli):
        self.gate = gate
        self.cli = cli
        self._memo = {}

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _text(self, spec, horizon):
        return self._cached(("text", spec, horizon),
                            lambda: ref.encode(ref.prefix(spec, horizon)))

    def _expected(self, job, compute):
        if job["part"] == "oracles-gate":
            return self.gate[job["name"]]
        # jobs with the same arguments share one reference answer
        key = json.dumps({k: v for k, v in job.items() if k != "name"}, sort_keys=True)
        return self._cached(key, compute)

    def check(self, job, out):
        if "error" in out:
            return "raised " + out["error"]
        return getattr(self, "_" + job["kind"].replace("-", "_"))(job, out)

    # -- oracles -------------------------------------------------------------

    def _creg(self, job, out):
        text, codes = self._text(job["spec"], job["horizon"])
        reg = ref.regulator(job["reg"])

        def compute():
            status, n = ref.check_regulator(text, reg, job["n_max"])
            return {"status": status, "n": n}

        exp = self._expected(job, compute)
        if out["status"] != exp["status"]:
            return f"status {out['status']}, expected {exp['status']}"
        if out["status"] != "fail":
            return None
        n, factor, start, length = out["witnesses"][0]
        if exp.get("n") is not None and n != exp["n"]:
            return f"first failure at n={n}, expected n={exp['n']}"
        pat = ref.factor_text(_factor(factor), codes)
        if pat is None or len(factor) != n or length != reg(n):
            return f"malformed witness {out['witnesses'][0]}"
        if text.find(pat, reg(n)) == -1:
            return "witness factor does not recur past the cutoff"
        if not ref.absent_from_window(text, pat, start, length):
            return f"witness factor occurs in window {start}+{length}"
        return None

    def _sap(self, job, out):
        text, codes = self._text(job["spec"], job["horizon"])

        def compute():
            status, count = ref.sap_failures(text, job["n_max"])
            return {"status": status, "failure_count": count}

        exp = self._expected(job, compute)
        got = (out["status"], out["failure_count"])
        if got != (exp["status"], exp["failure_count"]):
            return f"verdict {got}, expected {(exp['status'], exp['failure_count'])}"
        for n, factor, start, length in out["witnesses"]:
            pat = ref.factor_text(_factor(factor), codes)
            if pat is None or len(factor) != n:
                return f"malformed witness {factor}"
            if not ref.absent_from_window(text, pat, start, length):
                return f"witness {factor} occurs in window {start}+{length}"
        if "witness" in exp and not any("".join(f) == exp["witness"]
                                        for _, f, _, _ in out["witnesses"]):
            return f"{exp['witness']} is not among the witnesses"
        return None

    def _cube(self, job, out):
        text, codes = self._text(job["spec"], job["horizon"])

        def compute():
            p = ref.smallest_cube_period(text)
            return {"status": "fail" if p else "pass", "period": p}

        exp = self._expected(job, compute)
        if out["status"] != exp["status"]:
            return f"status {out['status']}, expected {exp['status']}"
        if out["status"] != "fail":
            return None
        p, factor, start, length = out["witnesses"][0]
        if exp.get("period") is not None and p != exp["period"]:
            return f"cube of period {p}, the smallest is {exp['period']}"
        pat = ref.factor_text(_factor(factor), codes)
        if pat is None or len(factor) != p or length != 3 * p:
            return f"malformed witness {out['witnesses'][0]}"
        if text[start:start + length] != pat * 3:
            return f"no cube of {factor} at {start}"
        return None

    def _emp(self, job, out):
        text, _ = self._text(job["spec"], job["horizon"])
        exp = self._expected(job, lambda: {"table": {
            str(n): ref.empirical_value(text, n) for n in range(1, job["n_max"] + 1)}})
        if out["table"] != exp["table"]:
            return f"table {out['table']}, expected {exp['table']}"
        return None

    def _pr(self, job, out):
        exp = self._expected(job, lambda: {"estimate": ref.pr_estimate(
            ref.prefix(job["spec"], job["horizon"]), job["n_max"])})
        if out["estimate"] != exp["estimate"]:
            return f"estimate {out['estimate']}, expected {exp['estimate']}"
        return None

    # -- machines ------------------------------------------------------------

    def _B(self, n):
        """The empirical bound of Thue-Morse at the machines' horizon (every
        build-B job uses it)."""
        text, _ = self._text("tm", workloads.B_HORIZON)
        return self._cached(("B", n), lambda: ref.empirical_value(text, n))

    def _build_B(self, job, out):
        values = out.get("values", {})
        missing = [n for n in range(1, workloads.B_CHECKED + 1)
                   if str(n) not in values]
        if missing:
            return f"no value of B for n = {missing}"
        for n, v in values.items():
            if v != self._B(int(n)):
                return f"B({n}) = {v}, expected {self._B(int(n))}"
        return None

    def _transducer(self, job, out):
        def compute():
            w = ref.transducer_output(job["machine"], job["inputs"])
            return [len(w), ref.digest(w)]

        want = self._cached(job["name"], compute)
        for side in ("word", "direct", "composed"):
            if out[side] != want:
                return f"{side} output {out[side]}, expected {want}"
        return None

    def _reduce(self, job, out):
        if len(out["reports"]) != len(job["machines"]):
            return "one report per automaton expected"
        for machine, rep in zip(job["machines"], out["reports"]):
            why = self._reduction(len(machine["states"]), rep)
            if why:
                return why
        return None

    def _reduction(self, n_states, rep):
        counts = rep["state_counts"]
        if any(a <= b for a, b in zip(counts, counts[1:])):
            return f"state counts {counts} do not strictly decrease"
        if len(rep["letters"]) != len(counts) - 1 or len(rep["letters"]) > n_states:
            return f"{len(rep['letters'])} steps for {n_states} states"
        if len(rep["final_states"]) != counts[-1]:
            return "final automaton size differs from the last state count"
        if not ref.is_reversible(rep["final_states"], rep["final_delta"]):
            return "final automaton is not reversible"
        bound = self._cached(("bound", n_states),
                             lambda: ref.iterated_bound(self._B, n_states))
        if rep["bound"] != bound:
            return f"theorem bound {rep['bound']}, expected {bound}"
        if not 0 <= rep["deleted"] <= bound:
            return f"deleted prefix {rep['deleted']} exceeds the bound {bound}"
        return None

    def _run(self, job, out):
        def compute():
            w = ref.automaton_output(job["machine"], ref.tm_prefix(job["letters"]))
            return {"length": len(w), "sha": ref.digest(w)}

        want = self._cached(job["name"], compute)
        return None if out == want else f"run output {out}, expected {want}"

    def _split(self, job, out):
        def compute():
            n = job["blocks"]
            offset, blocks = ref.marker_blocks(ref.tm_prefix(4 * n), job["marker"])
            blocks = blocks[:n]
            return {"offset": offset, "max_block_len": max(map(len, blocks)),
                    "sha": ref.digest("|".join(blocks))}

        want = self._cached(job["name"], compute)
        return None if out == want else f"split {out}, expected {want}"

    # -- cli -----------------------------------------------------------------

    def _cli(self, job, out):
        code, how = self.cli[job["index"]]
        if out["code"] != code:
            return f"exit {out['code']}, expected {code}"
        if how is None:
            return None
        form, want = how
        stdout = out["stdout"]
        if form == "text":
            ok = stdout == want + "\n"
        elif form == "json":
            try:
                got = json.loads(stdout)
            except ValueError:
                return "stdout is not JSON"
            ok = all(got.get(k, object()) == v for k, v in want.items())
        elif form == "tsv":
            cols = stdout.rstrip("\n").split("\t")
            ok = all(i < len(cols) and cols[i] == v for i, v in want.items())
        else:
            ok = set(want) <= set(stdout.splitlines())
        return None if ok else f"stdout {stdout[:200]!r} does not match"
