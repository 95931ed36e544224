"""CLI commands, report formats, and the exit-status contract."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import apwords
from apwords import cli, words


def run_cli(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_gen_tm(capsys):
    code, out = run_cli(capsys, ["gen", "--spec", "tm", "--count", "16"])
    assert code == 0
    assert out.strip() == "0110100110010110"


def test_gen_thm21(capsys):
    code, out = run_cli(capsys, ["gen", "--spec", "thm21", "--count", "24"])
    assert code == 0
    assert out.strip() == "1111" + "10011" * 4


def test_gen_parse_error_exit_2(capsys):
    code, _ = run_cli(capsys, ["gen", "--spec", "suffix:x:tm"])
    assert code == 2


def test_missing_required_flag_exit_2(capsys):
    code, _ = run_cli(capsys, ["gen"])
    assert code == 2


def test_unknown_command_exit_2(capsys):
    code, _ = run_cli(capsys, ["frobnicate"])
    assert code == 2


def test_run_automaton(capsys, tmp_path):
    aut = tmp_path / "swap.aut"
    aut.write_text(
        "input: 0 1\noutput: 0 1\nstates: q\ninitial: q\n"
        "q 0 -> q 1\nq 1 -> q 0\n"
    )
    code, out = run_cli(
        capsys, ["run", "--auto", str(aut), "--spec", "tm", "--count", "4"]
    )
    assert code == 0
    assert out.strip() == "1001"


def test_split_report(capsys):
    code, out = run_cli(
        capsys,
        ["split", "--spec", "tm", "--marker", "0", "--reg", "id+c:3", "--count", "5",
         "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_block_len"] <= 4
    assert len(payload["blocks"]) == 5


def test_reduce_merge2(capsys, tmp_path):
    aut = tmp_path / "merge2.aut"
    aut.write_text(
        "input: 0 1\noutput: 0 1\nstates: q0 q1\ninitial: q0\n"
        "q0 0 -> q0 0\nq1 0 -> q0 0\nq0 1 -> q1 1\nq1 1 -> q0 1\n"
    )
    reg = tmp_path / "tm.reg"
    reg.write_text("1 3\n2 9\n3 11\n4 21\n5 23\n")
    code, out = run_cli(
        capsys,
        ["reduce", "--auto", str(aut), "--spec", "tm",
         "--reg", f"empirical:{reg}", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"] == 1
    assert payload["deleted_prefix_len"] == 1
    assert payload["deleted_prefix_len"] <= payload["theorem_bound"]
    assert payload["final_reversible"] is True


def test_bad_empirical_table_exit_2(capsys, tmp_path):
    reg = tmp_path / "bad.reg"
    reg.write_text("1 3\n2 9\n3 8\n")
    code, _ = run_cli(
        capsys,
        ["check-regulator", "--spec", "tm", "--reg", f"empirical:{reg}",
         "--horizon", "1024", "--nmax", "3"],
    )
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("1 3\n2\n", ":2: expected two integers 'n value', got '2'"),
    ("1 3\n# no entry\n2 x\n", ":3: expected two integers 'n value', got '2 x'"),
    ("1 3 5\n", ":1: expected two integers 'n value', got '1 3 5'"),
    ("1 3\n1 5\n", ":2: repeated n = 1"),
    ("1 \u0663\n", ":1: expected two integers 'n value', got '1 \u0663'"),
    ("1 +3\n", ":1: expected two integers 'n value', got '1 +3'"),
    ("1_0 3\n", ":1: expected two integers 'n value', got '1_0 3'"),
])
def test_bad_empirical_table_line_exit_2(capsys, tmp_path, text, message):
    reg = tmp_path / "bad.reg"
    reg.write_text(text)
    assert cli.main(["check-regulator", "--spec", "tm", "--reg", f"empirical:{reg}",
                     "--horizon", "64", "--nmax", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reg}{message}\n"


def test_check_regulator_pass(capsys):
    code, out = run_cli(
        capsys,
        ["check-regulator", "--spec", "thm21", "--reg", "thm21",
         "--horizon", "3125", "--nmax", "4"],
    )
    assert code == 0
    assert "pass" in out


def test_check_sap_quintuple_fails_exit_1(capsys):
    code, out = run_cli(
        capsys,
        ["check-sap", "--spec", "thm21", "--horizon", "15625", "--nmax", "20"],
    )
    assert code == 1
    fields = out.strip().split("\t")
    assert fields[4] == "fail"
    assert fields[5] != "-"  # a counterexample factor is reported


def test_check_sap_tm_passes(capsys):
    code, out = run_cli(
        capsys, ["check-sap", "--spec", "tm", "--horizon", "4096", "--nmax", "8"]
    )
    assert code == 0


def test_check_sap_inconclusive_exit_3(capsys):
    code, _ = run_cli(
        capsys, ["check-sap", "--spec", "tm", "--horizon", "8", "--nmax", "9"]
    )
    assert code == 3


@pytest.mark.parametrize("spec, horizon, nmax", [
    ("periodic:0", 16, 10),  # an 8-letter window cannot hold a 9-letter factor
    ("tm", 64, 40),
])
def test_check_sap_without_room_past_the_recur_cut_is_inconclusive(capsys, spec,
                                                                    horizon, nmax):
    code, out = run_cli(capsys, ["check-sap", "--spec", spec, "--horizon", str(horizon),
                                 "--nmax", str(nmax)])
    assert code == 3
    assert out == (f"check-sap\t{spec}\t{horizon}\t{nmax}\tinconclusive\t-\t"
                   f"no factor of length {nmax} can start past the recur cut "
                   f"{horizon // 2}\n")


def test_empirical_regulator_table(capsys):
    code, out = run_cli(
        capsys,
        ["empirical-regulator", "--spec", "tm", "--horizon", "1024", "--nmax", "4"],
    )
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert rows["1"] == "3"


def test_pr_estimate(capsys):
    code, out = run_cli(
        capsys, ["pr-estimate", "--spec", "tm", "--horizon", "4096", "--nmax", "8"]
    )
    assert code == 0
    assert out.strip().endswith("0")


def test_cube_check(capsys):
    code, out = run_cli(capsys, ["cube-check", "--spec", "tm", "--count", "1024"])
    assert code == 0
    code, out = run_cli(
        capsys, ["cube-check", "--spec", "periodic:01", "--count", "64"]
    )
    assert code == 1


def test_scheme_validate(capsys, tmp_path):
    sch = tmp_path / "tm.scheme"
    sch.write_text(
        "labels A B\nstart A\nrule A A B\nrule B B A\ndecode A 0\ndecode B 1\n"
    )
    code, out = run_cli(capsys, ["scheme-validate", "--scheme", str(sch)])
    assert code == 0
    code, out = run_cli(
        capsys, ["scheme-validate", "--scheme", str(sch), "--strengthened"]
    )
    assert code == 1
    assert "strengthened\tfail" in out
    # a label missing from an image fails the basic check, and gen rejects it
    sch = str(Path(__file__).parent / "schemes" / "missing-label.scheme")
    code, out = run_cli(capsys, ["scheme-validate", "--scheme", sch])
    assert code == 1
    assert out.splitlines() == [
        "basic\tfail", "failure\tlabel 'C' missing from image of 'A'"]
    code, out = run_cli(capsys, ["gen", "--spec", f"scheme:{sch}", "--count", "4"])
    assert code == 2 and out == ""


def test_decompose_roundtrip(capsys, tmp_path):
    trans = tmp_path / "t.trans"
    trans.write_text(
        "input: 0 1\noutput: 0 1\nstates: q\ninitial: q\n"
        "q 0 -> q -\nq 1 -> q 1 1\n"
    )
    code, out = run_cli(capsys, ["decompose", "--trans", str(trans)])
    assert code == 0
    assert out == (
        "# state-tracing automaton\n"
        "input: 0 1\n"
        "output: ('0', 'q') ('1', 'q')\n"
        "states: q\n"
        "initial: q\n"
        "q 0 -> q ('0', 'q')\n"
        "q 1 -> q ('1', 'q')\n"
        "# homomorphism\n"
        "input: ('0', 'q') ('1', 'q')\n"
        "output: 0 1\n"
        "('0', 'q') -> -\n"
        "('1', 'q') -> 1 1\n"
        "\n"
    )


MERGE2_AUT = ("input: 0 1\noutput: 0 1\nstates: q0 q1\ninitial: q0\n"
              "q0 0 -> q0 0\nq1 0 -> q0 0\nq0 1 -> q1 1\nq1 1 -> q0 1\n")


def test_run_with_states_exact_output(capsys, tmp_path):
    aut = tmp_path / "merge2.aut"
    aut.write_text(MERGE2_AUT)
    code, out = run_cli(capsys, ["run", "--auto", str(aut), "--spec", "tm",
                                 "--count", "8", "--with-states"])
    assert code == 0
    assert out == ("('0', 'q0') ('1', 'q0') ('1', 'q1') ('0', 'q0') "
                   "('1', 'q0') ('0', 'q1') ('0', 'q0') ('1', 'q0')\n")


def test_reduce_json_exact_output(capsys, tmp_path):
    aut = tmp_path / "merge2.aut"
    aut.write_text(MERGE2_AUT)
    reg = tmp_path / "tm.reg"
    reg.write_text("1 3\n2 9\n3 11\n4 21\n5 22\n6 41\n7 42\n8 43\n9 44\n"
                   "10 81\n11 82\n12 83\n")
    code, out = run_cli(capsys, ["reduce", "--auto", str(aut), "--spec", "tm",
                                 "--reg", f"empirical:{reg}", "--json"])
    assert code == 0
    assert out == ('{"deleted_prefix_len": 1, "final_reversible": true, '
                   '"letters": ["0"], "op": "reduce", "spec": "tm", '
                   '"state_counts": [2, 1], "steps": 1, "theorem_bound": 14}\n')


def test_repeated_transition_exit_2(capsys, tmp_path):
    aut = tmp_path / "twice.aut"
    aut.write_text(MERGE2_AUT + "q0 0 -> q0 1\n")
    assert cli.main(["run", "--auto", str(aut), "--spec", "tm", "--count", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {aut}:9: repeated transition for 'q0 0'\n"


def test_json_report_shape(capsys):
    code, out = run_cli(
        capsys,
        ["check-sap", "--spec", "periodic:ab", "--horizon", "512", "--nmax", "4",
         "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["op"] == "check-sap"


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out = run_cli(
        capsys, ["gen", "--spec", "tm", "--count", "8", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "01101001"


def test_missing_file_exit_2(capsys):
    code, _ = run_cli(capsys, ["reduce", "--auto", "/nonexistent.aut",
                               "--spec", "tm", "--reg", "id+c:3"])
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--horizon", "-5"), ("--horizon", "0"),
                                         ("--nmax", "0"), ("--nmax", "-3")])
def test_nonpositive_numbers_exit_2(capsys, flag, value):
    code, out = run_cli(capsys, ["check-sap", "--spec", "tm", flag, value])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["gen", "--spec", "tm", "--count", "\u0663"],
    ["check-sap", "--spec", "tm", "--nmax", "2", "--horizon", "\u0661\u0660\u0662\u0664"],
    ["check-sap", "--spec", "tm", "--nmax", "\uff12"],
    ["check-sap", "--spec", "tm", "--horizon", "not-a-number"],
    # int() would read these three as 1024
    ["check-sap", "--spec", "tm", "--horizon", "1_024"],
    ["check-sap", "--spec", "tm", "--horizon", " 1024"],
    ["check-sap", "--spec", "tm", "--horizon", "+1024"],
])
def test_numbers_must_be_ascii_integers(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {argv[-2]}: invalid int value: "
                                 f"{argv[-1]!r}\n")


@pytest.mark.parametrize("reg, form", [("id+c:\u0663", "id+c:<c>"),
                                       ("lin:1:\u0663", "lin:<a>:<b>"),
                                       ("id+c:1_0", "id+c:<c>"),
                                       ("lin:1:+2", "lin:<a>:<b>"),
                                       ("lin: 1:2", "lin:<a>:<b>"),
                                       ("lin:1:-", "lin:<a>:<b>"),
                                       ("id+c:--5", "id+c:<c>")])
def test_regulator_values_must_be_ascii_integers(capsys, reg, form):
    assert cli.main(["check-regulator", "--spec", "tm", "--reg", reg,
                     "--horizon", "64", "--nmax", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad regulator descriptor {reg!r}: "
                            f"expected {form} with integer values\n")


@pytest.mark.parametrize("command", ["pr-estimate", "empirical-regulator"])
def test_horizon_below_nmax_exit_2(capsys, command):
    # pr-estimate would judge no cut and report "none"
    assert cli.main([command, "--spec", "tm", "--horizon", "2", "--nmax", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need horizon >= n_max >= 1\n"


def test_negative_regulator_values_are_read(capsys):
    # lin:2:-1 gives windows 1, 3, ...: "0" is missing from the first 1-window
    assert cli.main(["check-regulator", "--spec", "tm", "--reg", "lin:2:-1",
                     "--horizon", "64", "--nmax", "2", "--json"]) == 1
    ce = json.loads(capsys.readouterr().out)["counterexample"]
    assert ce == {"factor": "0", "window_len": 1, "window_start": 1}


def test_negative_identity_offset_exit_2(capsys):
    for reg in ("id+c:-5", "lin:1:-5"):
        code, out = run_cli(capsys, ["check-regulator", "--spec", "tm",
                                     "--reg", reg])
        assert code == 2, reg
        assert out == ""


@pytest.mark.parametrize("argv", [
    ["gen", "--spec", "tm", "--count", "8"],
    ["run", "--auto", "unread.aut", "--spec", "tm"],
    ["decompose", "--trans", "unread.trans"],
])
def test_json_is_refused_where_no_json_report_exists(capsys, argv):
    # these commands print words or machine files, never a JSON report
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --json" in captured.err


@pytest.mark.parametrize("argv", [
    ["gen", "--spec", "tm"],
    ["run", "--auto", "unread.aut", "--spec", "tm"],
    ["split", "--spec", "tm", "--marker", "0", "--reg", "id+c:3"],
    ["cube-check", "--spec", "tm"],
])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_nonpositive_count_is_a_usage_error(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--count", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err


def test_bad_scheme_file_exit_2(capsys, tmp_path):
    sch = tmp_path / "twice.scheme"
    sch.write_text("labels A B\nstart A\nrule A A B\nrule B B A\n"
                   "rule A A A\ndecode A 0\ndecode B 1\n")
    for argv in (["scheme-validate", "--scheme", str(sch)],
                 ["gen", "--spec", f"scheme:{sch}", "--count", "4"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{sch}:5: repeated 'rule A' stanza" in captured.err


@pytest.mark.parametrize("text, message", [
    ("labels\nstart A\n", ":1: alphabet must be non-empty"),
    ("labels A B\nstart A\nrule A A C\nrule B B A\ndecode A 0\ndecode B 1\n",
     ":3: rule image symbol 'C' is not a label"),
])
def test_scheme_file_error_location_exit_2(capsys, tmp_path, text, message):
    sch = tmp_path / "bad.scheme"
    sch.write_text(text)
    assert cli.main(["scheme-validate", "--scheme", str(sch)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {sch}{message}\n"


TM_SCHEME = "labels A B\nstart A\nrule A A B\nrule B B A\ndecode A 0\ndecode B 1\n"
TM_SCHEME_PAIRS = ("pair 'A''A' not adjacent in image of 'A'",
                   "pair 'B''A' not adjacent in image of 'A'",
                   "pair 'B''B' not adjacent in image of 'A'",
                   "pair 'A''A' not adjacent in image of 'B'",
                   "pair 'A''B' not adjacent in image of 'B'",
                   "pair 'B''B' not adjacent in image of 'B'")


@pytest.mark.parametrize("argv, code, out", [
    (["split", "--spec", "tm", "--marker", "0", "--reg", "id+c:3", "--count", "5"],
     0, "offset\t1\nmax_block_len\t3\nblock\tb0\t110\nblock\tb1\t10\n"
        "block\tb2\t0\nprefix\t(110)(10)(0)(110)(0)\n"),
    (["empirical-regulator", "--spec", "tm", "--horizon", "1024", "--nmax", "4"],
     0, "1\t3\n2\t9\n3\t11\n4\t21\n"),
    (["pr-estimate", "--spec", "tm", "--horizon", "1024", "--nmax", "4", "--json"],
     0, '{"estimate": 0, "horizon": 1024, "n_max": 4, "note": "upper estimate at '
        'horizon, not pr itself", "op": "pr-estimate", "spec": "tm"}\n'),
    (["pr-estimate", "--spec", "thm21", "--horizon", "625", "--nmax", "6"],
     0, "pr-estimate\t2\n"),
    (["cube-check", "--spec", "periodic:01", "--count", "64", "--json"],
     1, '{"counterexample": {"factor": "01", "window_len": 6, "window_start": 0}, '
        '"failure_count": 1, "horizon": 64, "n_max": 0, "note": "", '
        '"op": "cube-check", "spec": "periodic:01", "status": "fail"}\n'),
    (["scheme-validate", "--scheme", "tm.scheme", "--strengthened"],
     1, "basic\tpass\nstrengthened\tfail\n"
        + "".join(f"failure\t{f}\n" for f in TM_SCHEME_PAIRS)),
    (["scheme-validate", "--scheme", "tm.scheme", "--strengthened", "--json"],
     1, '{"basic_ok": true, "failures": ['
        + ", ".join(f'"{f}"' for f in TM_SCHEME_PAIRS)
        + '], "op": "scheme-validate", "scheme": "tm.scheme", '
          '"strengthened_ok": false}\n'),
])
def test_report_exact_output(capsys, tmp_path, monkeypatch, argv, code, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tm.scheme").write_text(TM_SCHEME)
    assert run_cli(capsys, argv) == (code, out)


def _readme_block(heading):
    """The first fenced block after a README heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(heading + "\n", 1)[1].split("```")[1]


def test_readme_lists_every_construction_and_subcommand():
    grammar = _readme_block("### Sequence-spec mini-language")
    assert set(re.findall(r'"([a-z0-9]+)[:"]', grammar)) == set(words._GRAMMAR)
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    commands = _readme_block("## CLI")
    assert set(re.findall(r"^apwords (\S+)", commands, re.M)) == set(subparsers.choices)


# One CLI process per case, in a fresh interpreter: its exit status and every
# module it loaded.
PROBE = """import sys
from apwords import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code
print(repr((code, sorted(sys.modules))))
"""
TM_TRANS = "input: 0 1\noutput: 0 1\nstates: q\ninitial: q\nq 0 -> q -\nq 1 -> q 1 1\n"
WORDS = {"words", "regulators"}  # words reads the regulator ceiling


def _fresh(tmp_path, probe, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, code, loaded", [
    (["gen", "--spec", "tm", "--count", "4"], 0, WORDS),
    (["run", "--auto", "m.aut", "--spec", "tm", "--count", "4"], 0, WORDS | {"automata"}),
    (["split", "--spec", "tm", "--marker", "0", "--reg", "id+c:3", "--json"], 0,
     WORDS | {"automata"}),
    (["reduce", "--auto", "m.aut", "--spec", "tm", "--reg", "id+c:3"], 0,
     WORDS | {"automata"}),
    (["check-regulator", "--spec", "tm", "--reg", "id+c:1", "--horizon", "256",
      "--nmax", "4"], 1, WORDS | {"analysis"}),
    (["check-sap", "--spec", "tm", "--horizon", "256", "--nmax", "4", "--json"], 0,
     WORDS | {"analysis"}),
    (["empirical-regulator", "--spec", "tm", "--horizon", "256", "--nmax", "4"], 0,
     WORDS | {"analysis"}),
    (["pr-estimate", "--spec", "tm", "--horizon", "256", "--nmax", "4"], 0,
     WORDS | {"analysis"}),
    (["cube-check", "--spec", "tm", "--count", "64"], 0, WORDS | {"analysis"}),
    (["scheme-validate", "--scheme", "tm.scheme"], 0, WORDS),
    (["decompose", "--trans", "t.trans"], 0, WORDS | {"automata"}),
    (["check-sap", "--spec", "tm", "--horizon", "not-a-number"], 2, set()),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, code, loaded):
    (tmp_path / "m.aut").write_text(MERGE2_AUT)
    (tmp_path / "tm.scheme").write_text(TM_SCHEME)
    (tmp_path / "t.trans").write_text(TM_TRANS)
    got, modules = _fresh(tmp_path, PROBE, *argv)
    assert got == code
    package = {m.partition(".")[2] for m in modules if m.startswith("apwords.")}
    assert package == {"cli", "errors"} | loaded
    assert "dataclasses" not in modules and "inspect" not in modules
    assert ("json" in modules) == ("--json" in argv)


# Every public name of the package; none may go missing.
PUBLIC_NAMES = """
Alphabet AlphabetError ApwordsError Automaton BINARY Counterexample
EmpiricalRegulator FiniteOutputError FuncSequence Homomorphism
InvariantViolation ReductionReport ReductionStep Regulator ResourceLimitError
SchemeError SchemeSpec SequenceHandle SpecNode SpecParseError SplitResult
StreamSequence TauSpec Transducer Verdict Word analysis
automata automaton_text block_automaton check_regulator check_sap complement
cyclic_automaton default_cut_grid empirical_regulator errors hom_apply
homomorphism_text identity_plus infinite_letters is_cube_free is_reversible
letter_images linear load_automaton load_homomorphism load_table_regulator
load_transducer make_sequence occurrences parse_regulator parse_scheme_file
parse_spec periodic periodic_regulator pointwise_max pr_upper_estimate prepend
product projections quintuple_limit read reduce_to_reversible reg_iterated_bound
reg_reversible_distance reg_split reg_thm21 regulators run scaled
scheme_generate scheme_validate split table_regulator thm21 thm21_block
thm21_tau thue_morse tm_block tm_triple_fixture transducer_decompose
transducer_run verdict_fields verdict_tsv word words
""".split()


def test_importing_the_package_loads_only_errors(tmp_path):
    probe = "import sys, apwords\nprint(repr(sorted(sys.modules)))"
    modules = _fresh(tmp_path, probe)
    assert [m for m in modules if m.startswith("apwords")] == ["apwords", "apwords.errors"]


def test_every_module_imports_only_the_standard_library(tmp_path):
    package = Path(apwords.__file__).parent
    names = ["apwords"] + [f"apwords.{p.stem}" for p in sorted(package.glob("*.py"))
                           if p.stem != "__init__"]
    probe = ("import sys\nbefore = set(sys.modules)\n"
             f"for name in {names!r}:\n    __import__(name)\n"
             "print(repr(sorted(set(sys.modules) - before)))")
    added = _fresh(tmp_path, probe)
    assert set(names) <= set(added)
    foreign = [m for m in added if m.partition(".")[0] not in
               sys.stdlib_module_names | {"apwords"}]
    assert foreign == []


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from apwords import {name}", namespace)
        assert namespace[name] is getattr(apwords, name), name
        assert name in dir(apwords), name


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from apwords import *", namespace)
    assert set(PUBLIC_NAMES) == set(namespace) - {"__builtins__"}
    with pytest.raises(AttributeError, match="no_such_name"):
        apwords.no_such_name
    with pytest.raises(ImportError):
        exec("from apwords import no_such_name", {})


def test_lazy_names_are_not_cached(monkeypatch):
    # a name patched in its module reads patched through the package, and
    # restoring the module restores the package (what a tracer relies on)
    first = apwords.thue_morse
    assert apwords.thue_morse is first is words.thue_morse
    assert "thue_morse" not in vars(apwords)
    monkeypatch.setattr(words, "thue_morse", len)
    assert apwords.thue_morse is len
    monkeypatch.undo()
    assert apwords.thue_morse is first
    assert "thue_morse" not in vars(apwords)
