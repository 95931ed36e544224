"""Regenerate the golden CLI corpus, ``cli.json`` beside this script.

Usage: ``python3 tests/golden/regen.py`` from the repository root.

The corpus holds, for every invocation in ``argvs()``, the exact stdout,
stderr and exit status of ``apwords`` run in-process through ``cli.main``.
``{dir}`` in an argument stands for a directory holding a copy of
``inputs/``; the same directory reads back as ``{dir}`` in the outputs.
A change that means to alter an output regenerates the corpus, and the
diff of ``cli.json`` shows every line it alters.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.json"
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


def main():
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as directory:
        copy_inputs(directory)
        cases = [run(argv, directory) for argv in argvs()]
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")


if __name__ == "__main__":
    main()
