"""Regenerate the golden corpus, ``cli.json``, ``library.json`` and
``machines.json`` beside this script.

Usage: ``python3 tests/golden/regen.py`` from the repository root.

``cli.json`` holds, for every invocation in ``argvs()``, the exact stdout,
stderr and exit status of ``apwords`` run in-process through ``cli.main``.
``{dir}`` in an argument stands for a directory holding a copy of
``inputs/`` and ``../schemes/``; the same directory reads back as ``{dir}``
in the outputs.

``library.json`` holds, for every call in ``library_calls()``, what the
factor oracles return: ``check_regulator`` and ``check_sap`` verdicts with
every witness and the failure count, ``EmpiricalRegulator`` tables and
``pr_upper_estimate`` values, and ``is_cube_free`` verdicts over the
first ``horizon`` letters with the period and the witness.

``machines.json`` holds, for every call in ``machine_calls()``, what the
machine layer returns: reduction reports, split alphabets, offsets and first
blocks (and those of one nested split), the letters or the error of
every read of a ``run``, ``transducer_run`` or ``hom_apply`` stream,
``FiniteOutputError.produced`` included, and the error of loading each bad
homomorphism file of ``inputs/`` (``bad-*.hom`` and ``dup-header.hom``).

A change that means to alter an output regenerates the corpus, and the
diff shows every line it alters.
"""

import contextlib
import functools
import hashlib
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
MACHINES = HERE / "machines.json"
INPUTS = HERE / "inputs"
SCHEMES = HERE.parent / "schemes"

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

# Bad input, each file once: machine, transducer, scheme and table-regulator
# files with a missing, undeclared, repeated or malformed line (the inputs
# named bad-*), the scheme files of tests/schemes/, bad regulator
# descriptors and bad specs.  Homomorphism files, which no subcommand reads,
# are machine records.
BAD_DESCRIPTORS = ["id+c:-5", "id+c:", "id+c:1:2", "lin:0:3", "lin:1:-1",
                   "lin:1:+2", "thm21:3", "empirical:", "empirical:{dir}/absent.reg"]
BAD_SPECS = ["", "tm:", "nosuch", "periodic:", "periodic:01,tm", "product:tm",
             "prepend:2:tm", "suffix:-1:tm", "thm21tau:6", "scheme:{dir}/absent.scheme"]


def _bad(suffix):
    return sorted(f"{{dir}}/{p.name}" for p in INPUTS.glob(f"bad-*.{suffix}"))


def bad_argvs():
    argvs = [["reduce", "--auto", path, "--spec", "tm", "--reg", "id+c:3"]
             for path in _bad("aut")]
    argvs.append(["run", "--auto", "{dir}/bad-arrow.aut", "--spec", "tm"])
    argvs += [["decompose", "--trans", path] for path in _bad("trans")]
    argvs += [["scheme-validate", "--scheme", path] for path in _bad("scheme")]
    argvs += [["scheme-validate", "--scheme", f"{{dir}}/{p.name}", "--strengthened"]
              for p in sorted(SCHEMES.iterdir())]
    argvs += [["gen", "--spec", f"scheme:{{dir}}/{name}.scheme", "--count", "4"]
              for name in ("missing-label", "bad-repeated")]
    argvs += [["check-regulator", "--spec", "tm", "--reg", f"empirical:{path}",
               "--horizon", "64", "--nmax", "2"] for path in _bad("reg")]
    argvs += [["check-regulator", "--spec", "tm", "--reg", reg,
               "--horizon", "64", "--nmax", "2"] for reg in BAD_DESCRIPTORS]
    # a table too short for the question asked of it
    argvs += [["check-regulator", "--spec", "tm", "--reg", "empirical:{dir}/short.reg",
               "--horizon", "64", "--nmax", "3"],
              ["split", "--spec", "tm", "--marker", "0",
               "--reg", "empirical:{dir}/short.reg"],
              ["split", "--spec", "tm", "--marker", "0", "--reg", "bogus"]]
    argvs += [["check-sap", "--spec", spec, "--horizon", "64", "--nmax", "2"]
              for spec in BAD_SPECS]
    return argvs


# Subcommands with a --json report.
JSON_COMMANDS = {"split", "reduce", "check-regulator", "check-sap",
                 "empirical-regulator", "pr-estimate", "cube-check",
                 "scheme-validate"}


def _twin(argv):
    """argv with --json toggled."""
    return [a for a in argv if a != "--json"] if "--json" in argv else argv + ["--json"]


def _with_twins(argvs):
    """argvs, then the text or --json twin of each line that has one."""
    twins = [_twin(a) for a in argvs if a[0] in JSON_COMMANDS]
    return argvs + [t for t in twins if t not in argvs]


def argvs():
    """CLI_ARGVS and the bad-input lines, each list with its twins, then a
    run of a machine file whose header repeats a letter, a gen with the
    default count, an unknown fixture family, a scheme rule with no image,
    a scheme decode line without its symbol, and a regulator value past
    the ceiling."""
    return _with_twins(CLI_ARGVS) + _with_twins(bad_argvs()) + [
        ["run", "--auto", "{dir}/dup-header.aut", "--spec", "tm"],
        ["gen", "--spec", "tm"],
        ["gen", "--spec", "fixture:tm-quad:1"],
        ["scheme-validate", "--scheme", "{dir}/rule-no-image.scheme"],
        ["scheme-validate", "--scheme", "{dir}/decode-arity.scheme"],
        ["check-regulator", "--spec", "tm", "--reg", "lin:1:281474976710656",
         "--horizon", "64", "--nmax", "2"]]


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
    for path in [*INPUTS.iterdir(), *SCHEMES.iterdir()]:
        shutil.copy(path, directory)


# The oracle jobs of bench/workloads.py's oracles-gate list, copied.
GATE_CALLS = [
    {"op": "check_regulator", "spec": "thm21", "reg": "thm21",
     "horizon": 5 ** 6, "n_max": 8},
    {"op": "check_regulator", "spec": "thm21", "reg": "thm21",
     "horizon": 5 ** 7, "n_max": 12},
    {"op": "check_sap", "spec": "thm21", "horizon": 5 ** 6, "n_max": 20},
    {"op": "empirical_regulator", "spec": "tm", "horizon": 2 ** 16, "n_max": 12},
    {"op": "pr_upper_estimate", "spec": "thm21", "horizon": 5 ** 6, "n_max": 20},
    {"op": "pr_upper_estimate", "spec": "tm", "horizon": 2 ** 14, "n_max": 12},
    {"op": "is_cube_free", "spec": "tm", "horizon": 2 ** 15},
    {"op": "is_cube_free", "spec": "tm", "horizon": 2 ** 16},
]

LIBRARY_OPS = ("check_regulator", "check_sap", "empirical_regulator",
               "pr_upper_estimate", "is_cube_free")
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
                        "horizon": horizon}
                if op != "is_cube_free":
                    call["n_max"] = rng.randint(2, 10)
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
    horizon, n_max = call["horizon"], call.get("n_max")
    op = call["op"]
    if op == "is_cube_free":
        v = ap.is_cube_free(seq.read(0, horizon - 1))
    elif op == "check_regulator":
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


# ---------------------------------------------------------------------------
# Machine records.  An input is a spec, or one of the index-function and
# finite inputs below; a regulator is a CLI descriptor, or "B": the empirical
# regulator of Thue-Morse at 2^16, as the bench's machine jobs use it.

MERGE2 = {"input": "01", "output": "01", "states": ["q0", "q1"], "delta": [
    ["q0", "0", "q0", "0"], ["q1", "0", "q0", "0"],
    ["q0", "1", "q1", "1"], ["q1", "1", "q0", "1"]]}


@functools.lru_cache(maxsize=None)
def _regulator(desc):
    import apwords as ap
    if desc == "B":
        tm = ap.make_sequence("tm")
        return ap.empirical_regulator(tm, 2 ** 16).as_regulator()
    return ap.parse_regulator(desc)


def _input(desc):
    """The sequence an input descriptor names:
    ``fold:<letters>``: letter popcount(i) mod k of the letters;
    ``fails:<n>``: 0101... whose index function raises from n on;
    ``late:<n>:<letter>``: 0101... up to n - 1, then the letter;
    ``finite:<letters>:<text>``: the finite stream of text;
    anything else: a spec."""
    import apwords as ap
    kind, _, arg = desc.partition(":")
    if kind == "fold":
        return ap.FuncSequence(ap.Alphabet(tuple(arg)),
                               lambda i: arg[bin(i).count("1") % len(arg)], desc)
    if kind in ("fails", "late"):
        n, _, tail = arg.partition(":")
        n = int(n)

        def fn(i):
            if i >= n:
                if kind == "fails":
                    raise ZeroDivisionError(f"index {i}")
                return tail
            return "01"[i % 2]

        return ap.FuncSequence(ap.BINARY, fn, desc)
    if kind == "finite":
        letters, _, text = arg.partition(":")
        return ap.StreamSequence(ap.Alphabet(tuple(letters)), iter(text), desc)
    return ap.make_sequence(desc)


def _machine(m, cls):
    """A machine from its JSON description; a transducer's outputs are lists."""
    import apwords as ap
    delta = {(q, s): (nxt, out if isinstance(out, str) else tuple(out))
             for q, s, nxt, out in m["delta"]}
    return cls(ap.Alphabet(tuple(m["input"])), ap.Alphabet(tuple(m["output"])),
               m["states"], m["states"][0], delta)


def _random_machine(rng, letters, outputs, n_states, word_outputs):
    """A seeded machine: one-letter outputs, or words of 0-2 letters."""
    states = [f"q{i}" for i in range(n_states)]
    delta = []
    for q in states:
        for s in letters:
            if word_outputs:
                out = [rng.choice(outputs) for _ in range(rng.randint(0, 2))]
            else:
                out = rng.choice(outputs)
            delta.append([q, s, rng.choice(states), out])
    return {"input": letters, "output": outputs, "states": states, "delta": delta}


def _error(exc):
    out = {"error": type(exc).__name__,
           "message": str(exc).replace(str(INPUTS), "{dir}")}
    if hasattr(exc, "produced"):
        out["produced"] = exc.produced
    return out


def _digest(symbols):
    """Length, head and digest of a read: the first 16 letters as text, and a
    hash of every letter."""
    names = [s if isinstance(s, str) else repr(s) for s in symbols]
    return {"len": len(names), "head": " ".join(names[:16]),
            "sha": hashlib.sha256("\x1f".join(names).encode()).hexdigest()[:16]}


def _reads(seq, reads):
    """The letters, or the error, of each read in turn on one handle."""
    out = []
    for i, j in reads:
        try:
            out.append(_digest(seq.read(i, j).symbols))
        except Exception as exc:
            out.append(_error(exc))
    return out


STREAM_READS = [[0, 63], [4000, 4200], [0, 9999], [12000, 12100]]
FINITE_READS = [[0, 9], [0, 39], [30, 100], [0, 63]]


def machine_calls():
    """Seeded reductions, marker splits with one nested level, and machine
    streams over infinite, index-function, failing, finite and stalling
    inputs."""
    rng = random.Random("golden-machines")
    calls = [{"op": "reduce", "input": "tm", "reg": "B", "machine": MERGE2}]
    for n_states in (1, 2, 3, 4):
        for _ in range(3):
            calls.append({"op": "reduce", "input": "tm", "reg": "B",
                          "machine": _random_machine(rng, "01", "01", n_states,
                                                     False)})
    for spec, reg in (("thm21", "thm21"), ("periodic:0010110", "id+c:7")):
        for n_states in (2, 3, 4):
            calls.append({"op": "reduce", "input": spec, "reg": reg,
                          "machine": _random_machine(rng, "01", "01", n_states,
                                                     False)})
    for spec, reg in (("tm", "B"), ("tm", "id+c:3"), ("thm21", "thm21"),
                      ("periodic:0010110", "id+c:7")):
        for marker in "01":
            calls.append({"op": "split", "input": spec, "reg": reg,
                          "marker": marker, "blocks": 256})
    calls.append({"op": "split", "input": "late:1000:1", "reg": "id+c:3",
                  "marker": "1", "blocks": 256})
    for desc in ("tm", "thm21", "fold:abc", "fold:ab", "fails:5000",
                 "finite:01:0110100110010110100101100110100110010110"):
        letters = desc[5:] if desc.startswith("fold") else "01"
        reads = FINITE_READS if desc.startswith("finite") else STREAM_READS
        for n_states in (1, 2, 4):
            for with_states in (False, True):
                calls.append({"op": "run", "input": desc, "with_states": with_states,
                              "machine": _random_machine(rng, letters, "xy",
                                                         n_states, False),
                              "reads": reads})
            calls.append({"op": "transducer_run", "input": desc,
                          "stall_limit": 64,
                          "machine": _random_machine(rng, letters, "xy",
                                                     n_states, True),
                          "reads": reads})
        images = {s: [rng.choice("xy") for _ in range(rng.randint(0, 2))]
                  for s in letters}
        calls.append({"op": "hom_apply", "input": desc, "images": images,
                      "output": "xy", "reg": None, "stall_limit": 64,
                      "reads": reads})
    # erasing machines: the output stalls, or ends with a finite input
    erase = {"input": "01", "output": "01", "states": ["q0", "q1"], "delta": [
        ["q0", "0", "q1", []], ["q0", "1", "q0", ["1"]],
        ["q1", "0", "q1", []], ["q1", "1", "q0", ["1", "0"]]]}
    for desc in ("tm", "late:5:0", "finite:01:110100000011"):
        for stall_limit in (1, 5, 64):
            calls.append({"op": "transducer_run", "input": desc,
                          "stall_limit": stall_limit, "machine": erase,
                          "reads": [[0, 0], [0, 7], [0, 99]]})
    for images, reg in (({"0": [], "1": ["1"]}, "B"), ({"0": ["0", "1"], "1": []}, "B"),
                        ({"0": [], "1": ["1", "0"]}, None)):
        calls.append({"op": "hom_apply", "input": "tm", "images": images,
                      "output": "01", "reg": reg, "stall_limit": 64,
                      "reads": [[0, 15], [0, 4999], [70000, 70063]]})
    for desc in ("late:3:0", "late:4:0", "late:5:1"):
        calls.append({"op": "hom_apply", "input": desc, "output": "01",
                      "images": {"0": [], "1": ["1", "1"]}, "reg": None,
                      "stall_limit": 3, "reads": [[0, 3], [0, 8], [100, 200]]})
    # bad homomorphism files, which no subcommand reads
    calls += [{"op": "load_homomorphism", "input": p.name}
              for p in sorted(INPUTS.glob("bad-*.hom"))]
    calls.append({"op": "load_homomorphism", "input": "dup-header.hom"})
    return calls


def _split_result(sr, blocks):
    """What a split returns, and its first blocks."""
    return {"offset": sr.offset, "max_block_len": sr.max_block_len,
            "alphabet": list(sr.block_alphabet.symbols),
            "decode": [sr.decode[b].text(" ") for b in sr.block_alphabet],
            "blocks": _reads(sr.split_sequence, [[0, blocks - 1]])}


def _report(rep):
    final = rep.final_automaton
    return {"letters": [s.letter for s in rep.steps],
            "images": [list(s.image) for s in rep.steps],
            "state_counts": rep.state_counts,
            "offsets": [s.split_result.offset for s in rep.steps],
            "max_block_lens": [s.split_result.max_block_len for s in rep.steps],
            "deleted_letters": [s.deleted_letters for s in rep.steps],
            "deleted": rep.deleted_prefix_len, "bound": rep.theorem_bound,
            "final_states": list(final.states), "final_initial": final.initial,
            "final_delta": [[q, s, final.delta[(q, s)][0]]
                            for q in final.states for s in final.input_alphabet],
            "final_outputs": _digest([final.delta[(q, s)][1] for q in final.states
                                       for s in final.input_alphabet])}


def _machine_result(call):
    import apwords as ap
    op = call["op"]
    if op == "load_homomorphism":
        hom = ap.load_homomorphism(INPUTS / call["input"])
        return {"text": ap.homomorphism_text(hom)}
    seq = _input(call["input"])
    if op == "reduce":
        auto = _machine(call["machine"], ap.Automaton)
        return _report(ap.reduce_to_reversible(auto, seq, _regulator(call["reg"])))
    if op == "split":
        reg = _regulator(call["reg"])
        sr = ap.split(seq, call["marker"], reg)
        out = _split_result(sr, call["blocks"])
        # one nested level, on every letter of the block alphabet
        nested_reg = ap.reg_split(reg, sr.max_block_len)
        out["nested"] = []
        for b in sr.block_alphabet:
            try:
                out["nested"].append(_split_result(
                    ap.split(sr.split_sequence, b, nested_reg), call["blocks"]))
            except Exception as exc:
                out["nested"].append(_error(exc))
        return out
    if op == "run":
        stream = ap.run(_machine(call["machine"], ap.Automaton), seq,
                        with_states=call["with_states"])
    elif op == "transducer_run":
        stream = ap.transducer_run(_machine(call["machine"], ap.Transducer), seq,
                                   stall_limit=call["stall_limit"])
    else:
        h = ap.Homomorphism(seq.alphabet, ap.Alphabet(tuple(call["output"])),
                            {s: tuple(w) for s, w in call["images"].items()})
        reg = call["reg"] and _regulator(call["reg"])
        stream = ap.hom_apply(h, seq, reg, stall_limit=call["stall_limit"])
    return {"reads": _reads(stream, call["reads"])}


def machine_record(call):
    """call plus the "result" of one machine call, or the error it raised."""
    try:
        result = _machine_result(call)
    except Exception as exc:
        result = _error(exc)
    return {**call, "result": result}


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
    records = [machine_record(call) for call in machine_calls()]
    MACHINES.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {MACHINES}")


if __name__ == "__main__":
    main()
