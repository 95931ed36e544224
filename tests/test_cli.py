"""CLI commands, report formats, and the exit-status contract."""

import json

import pytest

from apwords import cli


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
    assert "# state-tracing automaton" in out
    assert "# homomorphism" in out


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
    code, out = run_cli(capsys, ["check-regulator", "--spec", "tm",
                                 "--reg", "id+c:-5"])
    assert code == 2
    assert out == ""
