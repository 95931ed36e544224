"""Run one workload in a fresh process and print what it measured as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode timed|traced|setup --workdir DIR

``setup`` imports apwords, builds the workload's inputs and reports how long
that took.  ``timed`` runs the job list again and again until ``--seconds``
have passed (and at least MIN_PASSES times), with tracing off.  ``traced``
alternates untraced and traced passes over the same budget (cli-batch
children then run through ``cli_shim.py`` in both kinds of pass).  Outputs
of every pass are summarized after each job, outside its timing, for
``run.py`` to check against the reference answers.

Between jobs, outside their timing, the worker runs a fixed calibration
kernel about every CALIBRATE_EVERY_S seconds.  Its times tell ``run.py`` how
fast the machine ran this process during each pass.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import workloads
from reference import digest
from tracer import Tracer

MIN_PASSES = 4
MIN_TRACED_PASSES = 2
CLI_TIMEOUT_S = 60
CALIBRATE_EVERY_S = 0.1
SETUP_CALIBRATIONS = 10

_here = os.path.dirname(os.path.abspath(__file__))


_CAL_TEXT = "".join(chr(0xE000 + bin(i).count("1") % 2) for i in range(4096))


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work (substring counting,
    the kind of work the program does), which does not touch apwords."""
    t0 = time.perf_counter()
    counts = {}
    for n in (3, 7):
        for i in range(len(_CAL_TEXT) - n):
            key = _CAL_TEXT[i:i + n]
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def _symbols(word):
    return [s if isinstance(s, str) else list(s) for s in word.symbols]


def _verdict(v, all_failures=False):
    failures = v.failures if all_failures else v.failures[:4]
    return {
        "status": v.status,
        "failure_count": v.failure_count,
        "witnesses": [[n, _symbols(ce.factor), ce.window_start, ce.window_len]
                      for n, ce in failures],
    }


# ---------------------------------------------------------------------------
# Set-up: the import and the inputs (timed as setup_s)

def setup(workload, seed, workdir):
    """Import apwords and build the job list with the objects jobs need."""
    from apwords import automata, words

    def automaton(m):
        delta = {(q, s): (nxt, out) for q, s, nxt, out in m["delta"]}
        return automata.Automaton(words.BINARY, words.BINARY, m["states"],
                                  m["states"][0], delta)

    jobs = workloads.jobs(workload, seed)
    for job in jobs:
        m = job.get("machine")
        if job["kind"] == "transducer":
            delta = {(q, s): (nxt, tuple(out)) for q, s, nxt, out in m["delta"]}
            job["obj"] = automata.Transducer(
                words.Alphabet(tuple(m["letters"])), words.Alphabet(("x", "y")),
                m["states"], m["states"][0], delta)
        elif job["kind"] == "run":
            job["obj"] = automaton(m)
        elif job["kind"] == "reduce":
            job["objs"] = [automaton(m) for m in job["machines"]]
    if workload == "cli-batch":
        workloads.write_cli_files(workdir)
        for job in jobs:
            job["argv"] = [a.replace("{dir}", workdir) for a in job["argv"]]
    return jobs


# ---------------------------------------------------------------------------
# Jobs: each returns its raw result; summarize() turns it into plain data

def execute(job, state, cli_cmd):
    from apwords import analysis, automata, regulators, words

    kind = job["kind"]
    if kind in ("creg", "sap", "cube", "emp", "pr"):
        seq = words.make_sequence(job["spec"])
        horizon = job["horizon"]
        if kind == "creg":
            desc = job["reg"]
            if desc[0] == "thm21":
                reg = regulators.reg_thm21()
            elif desc[0] == "id+c":
                reg = regulators.identity_plus(desc[1])
            else:
                reg = regulators.periodic_regulator(desc[1])
            return analysis.check_regulator(seq, reg, horizon, job["n_max"])
        if kind == "sap":
            return analysis.check_sap(seq, horizon, job["n_max"])
        if kind == "cube":
            return analysis.is_cube_free(seq.read(0, horizon - 1))
        if kind == "emp":
            return analysis.empirical_regulator(seq, horizon, job["n_max"]).table
        return analysis.pr_upper_estimate(seq, horizon, job["n_max"])
    if kind == "build-B":
        tm = words.make_sequence("tm")
        state["empirical"] = analysis.empirical_regulator(tm, job["horizon"])
        state["B"] = state["empirical"].as_regulator()
        return job["horizon"]
    if kind == "transducer":
        # The outputs of the first n input letters, three ways: the
        # decomposition applied to a finite word, the transducer stream, and
        # the homomorphism stream over the automaton stream.  Every job
        # reads n input letters whatever its output rate.
        trans = job["obj"]
        letters, n = job["machine"]["letters"], job["inputs"]
        base = words.FuncSequence(
            trans.input_alphabet,
            lambda i, k=len(letters), ls=letters: ls[bin(i).count("1") % k],
            "folded counting sequence")
        auto, hom = automata.transducer_decompose(trans)
        word = hom.apply_word(automata.run(auto, base).read(0, n - 1)).symbols
        if not word:
            return word, word, word
        k = len(word)
        direct = automata.transducer_run(trans, base, stall_limit=n).read(0, k - 1)
        composed = automata.hom_apply(hom, automata.run(auto, base), stall_limit=n)
        return word, direct.symbols, composed.read(0, k - 1).symbols
    if kind == "reduce":
        tm = words.make_sequence("tm")
        return [automata.reduce_to_reversible(auto, tm, state["B"]) for auto in job["objs"]]
    if kind == "run":
        out = automata.run(job["obj"], words.make_sequence("tm"))
        return out.read(0, job["letters"] - 1)
    if kind == "split":
        sr = automata.split(words.make_sequence("tm"), job["marker"], state["B"])
        return sr, sr.split_sequence.read(0, job["blocks"] - 1)
    if kind == "cli":
        return subprocess.run(cli_cmd(job) + job["argv"], capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    raise ValueError(f"unknown job kind {kind!r}")


def summarize(job, raw):
    kind = job["kind"]
    if kind in ("creg", "sap", "cube"):
        return _verdict(raw, job.get("all_failures", False))
    if kind == "emp":
        return {"table": {str(n): v for n, v in sorted(raw.items())}}
    if kind == "pr":
        return {"estimate": raw}
    if kind == "build-B":
        return {"horizon": raw}
    if kind == "transducer":
        return {side: [len(w), digest("".join(w))]
                for side, w in zip(("word", "direct", "composed"), raw)}
    if kind == "reduce":
        return {"reports": [{
            "letters": [str(s.letter) for s in rep.steps],
            "state_counts": [len(auto.states)] + rep.state_counts,
            "deleted": rep.deleted_prefix_len,
            "bound": rep.theorem_bound,
            "final_states": list(rep.final_automaton.states),
            "final_delta": [[q, str(s), rep.final_automaton.delta[(q, s)][0]]
                            for q in rep.final_automaton.states
                            for s in rep.final_automaton.input_alphabet],
        } for auto, rep in zip(job["objs"], raw)]}
    if kind == "run":
        return {"length": len(raw), "sha": digest("".join(raw.symbols))}
    if kind == "split":
        sr, blocks = raw
        return {"offset": sr.offset, "max_block_len": sr.max_block_len,
                "sha": digest("|".join(sr.decode[b].text() for b in blocks.symbols))}
    if kind == "cli":
        return {"code": raw.returncode, "stdout": raw.stdout}
    raise ValueError(kind)


def finish(jobs, state, outputs):
    """Untimed, after a pass: give the build-B output every value of B the
    pass computed, and those for n = 1..B_CHECKED, for checking.  B is lazy,
    so this comes after the jobs, which must still pay for the values they
    ask for."""
    empirical = state.get("empirical")
    if empirical is None:
        return
    for n in range(1, workloads.B_CHECKED + 1):
        empirical.value(n)
    for job, out in zip(jobs, outputs):
        if job["kind"] == "build-B" and "error" not in out:
            out["values"] = {str(n): v for n, v in sorted(empirical.table.items())}


# ---------------------------------------------------------------------------
# Passes

def run_pass(jobs, cli_cmd, tracer=None, after_job=None):
    """One pass over the job list: (wall seconds, job latencies, outputs,
    calibration times).  A tracer, if given, is installed for the jobs only.

    The wall time is the sum of the job latencies, so the untimed checking
    and calibration work between jobs is left out of it.
    """
    state = {}
    latencies, outputs = [], []
    calibrations = [calibrate()]
    last = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for idx, job in enumerate(jobs):
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                last = time.perf_counter()
            if tracer is not None:
                tracer.job_id = idx
            t0 = time.perf_counter()
            try:
                raw = execute(job, state, cli_cmd)
            except Exception as exc:  # a failed job is counted, not fatal
                raw, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            latencies.append(time.perf_counter() - t0)
            outputs.append({"error": error} if error else summarize(job, raw))
            del raw
            if after_job is not None:
                after_job()
    finally:
        if tracer is not None:
            tracer.uninstall()
    finish(jobs, state, outputs)
    return sum(latencies), latencies, outputs, calibrations


def _cli_plain(job):
    return [sys.executable, "-m", "apwords.cli"]


class _CliShim:
    """cli-batch children run through cli_shim.py, traced or not.  Each leaves
    its dispatch time and trace summary in a file, gathered here after it
    exits."""

    def __init__(self, workdir, mode):
        self.workdir = workdir
        self.mode = mode
        self.summaries = []
        self._n = 0
        self._pending = None

    def __call__(self, job):
        self._n += 1
        path = os.path.join(self.workdir, f"{self.mode}-{self._n}.json")
        self._pending = path
        return [sys.executable, os.path.join(_here, "cli_shim.py"), self.mode, path]

    def collect(self):
        try:
            with open(self._pending) as fh:
                self.summaries.append(json.load(fh))
        except FileNotFoundError:
            return  # the child failed before writing; its job fails the check
        os.remove(self._pending)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    jobs = setup(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        result["calibrations"] = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        print(json.dumps(result))
        return

    cli = args.workload == "cli-batch"
    walls, traced_walls, latencies, outputs, summaries = [], [], [], [], []
    calibrations, traced_calibrations, dispatch_ms = [], [], []
    start = time.perf_counter()
    while True:
        if cli and args.mode == "traced":
            # untraced too, but through the shim, which times cli.main alone
            shim = _CliShim(args.workdir, "plain")
            wall, lat, outs, cal = run_pass(jobs, shim, after_job=shim.collect)
            dispatch_ms.append([c["dispatch_ms"] for c in shim.summaries])
        else:
            wall, lat, outs, cal = run_pass(jobs, _cli_plain)
        walls.append(wall)
        latencies.append(lat)
        outputs.append(outs)
        calibrations.append(cal)
        if args.mode == "traced":
            if cli:
                shim = _CliShim(args.workdir, "trace")
                wall, lat, outs, cal = run_pass(jobs, shim, after_job=shim.collect)
                summaries.append({"children": shim.summaries})
            else:
                tracer = Tracer()
                wall, lat, outs, cal = run_pass(jobs, _cli_plain, tracer)
                summaries.append(tracer.summary())
            traced_walls.append(wall)
            traced_calibrations.append(cal)
            outputs.append(outs)
        enough = MIN_TRACED_PASSES if args.mode == "traced" else MIN_PASSES
        if time.perf_counter() - start >= args.seconds and len(walls) >= enough:
            break

    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result.update({
        "walls": walls,
        "traced_walls": traced_walls,
        "latencies": latencies,
        "calibrations": calibrations,
        "traced_calibrations": traced_calibrations,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
        "trace": summaries,
        "dispatch_ms": dispatch_ms,
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
