"""CLI commands, report formats, and the exit-status contract."""

import argparse
import json
import re
from pathlib import Path

import pytest

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
