"""Regenerate the golden corpus, ``cli.json`` and ``library.json`` beside
this script.

Usage: ``python3 tests/golden/regen.py`` from the repository root.

``cli.json`` holds, for every invocation in ``argvs()``, the exact stdout,
stderr and exit status of ``apwords`` run in-process through ``cli.main``.
``{dir}`` in an argument stands for a directory holding a copy of
``inputs/``; the same directory reads back as ``{dir}`` in the outputs.

``library.json`` holds, for every call in ``library_calls()``, what the
factor oracles return: ``check_regulator`` and ``check_sap`` verdicts with
every witness and the failure count, ``EmpiricalRegulator`` tables and
``pr_upper_estimate`` values.

A change that means to alter an output regenerates the corpus, and the
diff shows every line it alters.
"""

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.json"
LIBRARY = HERE / "library.json"
INPUTS = HERE / "inputs"

# The CLI_ARGVS of bench/workloads.py, copied: tests do not import bench/.
CLI_ARGVS = [
    ["gen", "--spec", "tm", "--count", "64"],
    ["gen", "--spec", "thm21", "--count", "24"],
    ["gen", "--spec", "product:tm,periodic:012", "--count", "4"],
    ["gen", "--spec", "scheme:{dir}/quint.scheme", "--count", "25"],
    ["run", "--auto", "{dir}/swap.aut", "--spec", "tm", "--count", "16"],
    ["run", "--auto", "{dir}/merge2.aut", "--spec", "tm", "--count", "4",
     "--with-states"],
    ["split", "--spec", "tm", "--marker", "0", "--reg", "id+c:3", "--count", "8",
     "--json"],
    ["reduce", "--auto", "{dir}/merge2.aut", "--spec", "tm",
     "--reg", "empirical:{dir}/tm.reg", "--json"],
    ["check-regulator", "--spec", "thm21", "--reg", "thm21",
     "--horizon", "3125", "--nmax", "6"],
    ["check-regulator", "--spec", "tm", "--reg", "id+c:1",
     "--horizon", "1024", "--nmax", "4", "--json"],
    ["check-regulator", "--spec", "tm", "--reg", "thm21",
     "--horizon", "64", "--nmax", "2"],
    ["check-sap", "--spec", "thm21", "--horizon", "3125", "--nmax", "8"],
    ["check-sap", "--spec", "tm", "--horizon", "2048", "--nmax", "6", "--json"],
    ["empirical-regulator", "--spec", "tm", "--horizon", "4096", "--nmax", "6",
     "--json"],
    ["pr-estimate", "--spec", "tm", "--horizon", "1024", "--nmax", "6"],
    ["pr-estimate", "--spec", "fixture:tm-triple:1", "--horizon", "1024",
     "--nmax", "6", "--json"],
    ["cube-check", "--spec", "tm", "--count", "1024"],
    ["cube-check", "--spec", "periodic:01", "--count", "64", "--json"],
    ["scheme-validate", "--scheme", "{dir}/quint.scheme", "--strengthened"],
    ["scheme-validate", "--scheme", "{dir}/tm.scheme", "--strengthened"],
    ["decompose", "--trans", "{dir}/t.trans"],
    ["gen", "--spec", "suffix:x:tm"],
    ["check-sap", "--spec", "tm", "--horizon", "not-a-number"],
    ["check-regulator", "--spec", "tm", "--reg", "bogus", "--horizon", "64"],
    ["run", "--auto", "{dir}/missing.aut", "--spec", "tm"],
]

# Subcommands with a --json report.
JSON_COMMANDS = {"split", "reduce", "check-regulator", "check-sap",
                 "empirical-regulator", "pr-estimate", "cube-check",
                 "scheme-validate"}


def _twin(argv):
    """argv with --json toggled."""
    return [a for a in argv if a != "--json"] if "--json" in argv else argv + ["--json"]


def argvs():
    """CLI_ARGVS, then the text or --json twin of each line that has one."""
    twins = [_twin(a) for a in CLI_ARGVS if a[0] in JSON_COMMANDS]
    return CLI_ARGVS + [t for t in twins if t not in CLI_ARGVS]


def run(argv, directory):
    """{"argv", "code", "stdout", "stderr"} of one in-process CLI run, with
    ``{dir}`` standing for ``directory`` in the arguments and outputs."""
    from apwords import cli  # after main() puts src/ on the path
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage lines to the terminal's width
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([a.replace("{dir}", str(directory)) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "code": code,
            "stdout": out.getvalue().replace(str(directory), "{dir}"),
            "stderr": err.getvalue().replace(str(directory), "{dir}")}


def copy_inputs(directory):
    for path in INPUTS.iterdir():
        shutil.copy(path, directory)


# The factor-oracle jobs of bench/workloads.py's oracles-gate list, copied.
GATE_CALLS = [
    {"op": "check_regulator", "spec": "thm21", "reg": "thm21",
     "horizon": 5 ** 6, "n_max": 8},
    {"op": "check_regulator", "spec": "thm21", "reg": "thm21",
     "horizon": 5 ** 7, "n_max": 12},
    {"op": "check_sap", "spec": "thm21", "horizon": 5 ** 6, "n_max": 20},
    {"op": "empirical_regulator", "spec": "tm", "horizon": 2 ** 16, "n_max": 12},
    {"op": "pr_upper_estimate", "spec": "thm21", "horizon": 5 ** 6, "n_max": 20},
    {"op": "pr_upper_estimate", "spec": "tm", "horizon": 2 ** 14, "n_max": 12},
]

LIBRARY_OPS = ("check_regulator", "check_sap", "empirical_regulator",
               "pr_upper_estimate")
LIBRARY_HORIZONS = (2 ** 9, 2 ** 10, 2 ** 11, 2 ** 12)


def _letters(rng, letters, lo, hi):
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _seeded_spec(rng, family):
    """A spec of one family, drawn as the bench's oracles-random list does."""
    if family == "periodic":
        return "periodic:" + _letters(rng, "012", 1, 6)
    if family == "prepend":
        return "prepend:" + _letters(rng, "01", 1, 5) + ":tm"
    if family == "thm21tau":
        return "thm21tau:" + _letters(rng, "45", 1, 3)
    if family == "fixture":
        return f"fixture:tm-triple:{rng.randint(0, 3)}"
    left = rng.choice(("tm", "thm21"))
    return f"product:{left},periodic:" + _letters(rng, "ab", 1, 4)


def library_calls():
    """GATE_CALLS, then one seeded call per oracle, spec family and horizon."""
    rng = random.Random("golden-library")
    calls = list(GATE_CALLS)
    for op in LIBRARY_OPS:
        for family in ("periodic", "prepend", "thm21tau", "fixture", "product"):
            for horizon in LIBRARY_HORIZONS:
                call = {"op": op, "spec": _seeded_spec(rng, family),
                        "horizon": horizon, "n_max": rng.randint(2, 10)}
                if op == "check_regulator":
                    call["reg"] = rng.choice((
                        f"id+c:{rng.randint(1, 96)}",
                        f"lin:{rng.randint(1, 4)}:{rng.randint(0, 24)}"))
                calls.append(call)
    return calls


def _witness(n, ce):
    return [n, ce.factor.text(" "), ce.window_start, ce.window_len]


def library_record(call):
    """call plus the "result" of one library call."""
    import apwords as ap
    seq = ap.make_sequence(call["spec"])
    horizon, n_max = call["horizon"], call["n_max"]
    op = call["op"]
    if op == "check_regulator":
        reg = ap.parse_regulator(call["reg"])
        v = ap.check_regulator(seq, reg, horizon, n_max)
    elif op == "check_sap":
        v = ap.check_sap(seq, horizon, n_max)
    elif op == "empirical_regulator":
        table = ap.empirical_regulator(seq, horizon, n_max).table
        return {**call, "result": [table[n] for n in range(1, n_max + 1)]}
    else:
        return {**call, "result": ap.pr_upper_estimate(seq, horizon, n_max)}
    return {**call, "result": {
        "status": v.status, "horizon": v.horizon, "note": v.note,
        "failure_count": v.failure_count,
        "failures": [_witness(n, ce) for n, ce in v.failures]}}


def main():
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as directory:
        copy_inputs(directory)
        cases = [run(argv, directory) for argv in argvs()]
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")
    records = [library_record(call) for call in library_calls()]
    LIBRARY.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {LIBRARY}")


if __name__ == "__main__":
    main()
