"""Command-line front end for batch experiments over infinite words.

Exit statuses: 0 pass/success, 1 fail verdict, 2 usage or parse error,
3 resource limit or inconclusive verdict.

Each handler imports the modules it calls when it runs, and ``json`` is
imported only for ``--json``: a batch of short runs pays mostly for start-up,
so a process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ApwordsError, ResourceLimitError, SpecParseError, ascii_int

DEFAULT_HORIZON = 2 ** 14
DEFAULT_NMAX = 12

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _positive_int(text):
    try:
        value = ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _verdict(op, spec, n_max, verdict):
    from . import analysis
    fields = analysis.verdict_fields(op, spec, n_max, verdict)
    code = {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(verdict.status, EXIT_RESOURCE)
    return fields, analysis.verdict_tsv(fields), code


def _prefix_text(seq, count):
    sep = " " if any(len(str(s)) != 1 for s in seq.alphabet) else ""
    return seq.read(0, count - 1).text(sep)


def _gen(args):
    from . import words
    return None, _prefix_text(words.make_sequence(args.spec), args.count), EXIT_PASS


def _run(args):
    from . import automata, words
    auto = automata.load_automaton(args.auto)
    seq = words.make_sequence(args.spec)
    out = automata.run(auto, seq, with_states=args.with_states)
    return None, _prefix_text(out, args.count), EXIT_PASS


def _split(args):
    from . import automata, regulators, words
    seq = words.make_sequence(args.spec)
    reg = regulators.parse_regulator(args.reg)
    sr = automata.split(seq, args.marker, reg)
    blocks = sr.split_sequence.read(0, args.count - 1).symbols
    payload = {
        "op": "split",
        "spec": args.spec,
        "marker": args.marker,
        "offset": sr.offset,
        "max_block_len": sr.max_block_len,
        "alphabet": {b: sr.decode[b].text() for b in sr.block_alphabet},
        "blocks": [str(b) for b in blocks],
    }
    lines = [f"offset\t{sr.offset}", f"max_block_len\t{sr.max_block_len}"]
    lines += [f"block\t{b}\t{sr.decode[b].text()}" for b in sr.block_alphabet]
    lines.append("prefix\t" + "".join(f"({sr.decode[b].text()})" for b in blocks))
    return payload, "\n".join(lines), EXIT_PASS


def _reduce(args):
    from . import automata, regulators, words
    auto = automata.load_automaton(args.auto)
    seq = words.make_sequence(args.spec)
    reg = regulators.parse_regulator(args.reg)
    report = automata.reduce_to_reversible(auto, seq, reg)
    payload = {
        "op": "reduce",
        "spec": args.spec,
        "steps": len(report.steps),
        "letters": [str(s.letter) for s in report.steps],
        "state_counts": [len(auto.states)] + report.state_counts,
        "deleted_prefix_len": report.deleted_prefix_len,
        "theorem_bound": report.theorem_bound,
        "final_reversible": automata.is_reversible(report.final_automaton),
    }
    return payload, "\n".join(f"{k}\t{v}" for k, v in payload.items()), EXIT_PASS


def _check_regulator(args):
    from . import analysis, regulators, words
    seq = words.make_sequence(args.spec)
    reg = regulators.parse_regulator(args.reg)
    v = analysis.check_regulator(seq, reg, args.horizon, args.nmax)
    return _verdict("check-regulator", args.spec, args.nmax, v)


def _check_sap(args):
    from . import analysis, words
    seq = words.make_sequence(args.spec)
    v = analysis.check_sap(seq, args.horizon, args.nmax)
    return _verdict("check-sap", args.spec, args.nmax, v)


def _empirical_regulator(args):
    from . import analysis, words
    seq = words.make_sequence(args.spec)
    table = analysis.empirical_regulator(seq, args.horizon, args.nmax).table
    payload = {
        "op": "empirical-regulator", "spec": args.spec, "horizon": args.horizon,
        "table": {str(n): table[n] for n in sorted(table)},
    }
    return payload, "\n".join(f"{n}\t{table[n]}" for n in sorted(table)), EXIT_PASS


def _pr_estimate(args):
    from . import analysis, words
    seq = words.make_sequence(args.spec)
    if args.horizon < args.nmax:  # no cut to judge; empirical-regulator's message
        raise ValueError("need horizon >= n_max >= 1")
    est = analysis.pr_upper_estimate(seq, args.horizon, args.nmax)
    payload = {
        "op": "pr-estimate", "spec": args.spec, "horizon": args.horizon,
        "n_max": args.nmax,
        "estimate": est if est is not None else "none",
        "note": "upper estimate at horizon, not pr itself",
    }
    return payload, f"pr-estimate\t{payload['estimate']}", EXIT_PASS


def _cube_check(args):
    from . import analysis, words
    seq = words.make_sequence(args.spec)
    v = analysis.is_cube_free(seq.read(0, args.count - 1))
    return _verdict("cube-check", args.spec, 0, v)


def _scheme_validate(args):
    from . import words
    spec = words.parse_scheme_file(args.scheme)
    verdict = words.scheme_validate(spec, strengthened=args.strengthened)
    payload = {
        "op": "scheme-validate",
        "scheme": args.scheme,
        "basic_ok": verdict.basic_ok,
        "strengthened_ok": verdict.strengthened_ok,
        "failures": list(verdict.failures),
    }
    lines = [f"basic\t{'pass' if verdict.basic_ok else 'fail'}"]
    if verdict.strengthened_ok is not None:
        lines.append(f"strengthened\t{'pass' if verdict.strengthened_ok else 'fail'}")
    lines += [f"failure\t{f}" for f in verdict.failures]
    return payload, "\n".join(lines), EXIT_PASS if verdict.ok else EXIT_FAIL


def _decompose(args):
    from . import automata
    auto, hom = automata.transducer_decompose(automata.load_transducer(args.trans))
    text = ("# state-tracing automaton\n" + automata.automaton_text(auto)
            + "# homomorphism\n" + automata.homomorphism_text(hom))
    return None, text, EXIT_PASS


def _build_parser():
    p = argparse.ArgumentParser(
        prog="apwords",
        description="Constructions and brute-force checks for almost periodic words.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, handler, spec=True, reg=False, horizon=False, as_json=True):
        sp.set_defaults(handler=handler, json=False)
        if spec:
            sp.add_argument("--spec", required=True, help="sequence-spec string")
        if reg:
            sp.add_argument("--reg", required=True, help="regulator descriptor")
        if horizon:
            sp.add_argument("--horizon", type=_positive_int, default=DEFAULT_HORIZON)
            sp.add_argument("--nmax", type=_positive_int, default=DEFAULT_NMAX)
        if as_json:
            sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--out", help="write the report to this file")

    sp = sub.add_parser("gen", help="print a prefix of a sequence")
    sp.add_argument("--count", type=_positive_int, default=64)
    common(sp, _gen, as_json=False)

    sp = sub.add_parser("run", help="run an automaton over a sequence")
    sp.add_argument("--auto", required=True)
    sp.add_argument("--count", type=_positive_int, default=64)
    sp.add_argument("--with-states", action="store_true")
    common(sp, _run, as_json=False)

    sp = sub.add_parser("split", help="marker-split a sequence into blocks")
    sp.add_argument("--marker", required=True)
    sp.add_argument("--count", type=_positive_int, default=16, help="blocks to print")
    common(sp, _split, reg=True)

    sp = sub.add_parser("reduce", help="reduce an automaton to a reversible one")
    sp.add_argument("--auto", required=True)
    common(sp, _reduce, reg=True)

    sp = sub.add_parser("check-regulator", help="falsify a candidate regulator")
    common(sp, _check_regulator, reg=True, horizon=True)

    sp = sub.add_parser("check-sap", help="falsify uniform recurrence")
    common(sp, _check_sap, horizon=True)

    sp = sub.add_parser("empirical-regulator", help="tabulate the lower bound")
    common(sp, _empirical_regulator, horizon=True)

    sp = sub.add_parser("pr-estimate", help="estimate the recurrent-suffix cut")
    common(sp, _pr_estimate, horizon=True)

    sp = sub.add_parser("cube-check", help="check a prefix for cubes")
    sp.add_argument("--count", type=_positive_int, default=DEFAULT_HORIZON)
    common(sp, _cube_check)

    sp = sub.add_parser("scheme-validate", help="check scheme recurrence conditions")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--strengthened", action="store_true")
    common(sp, _scheme_validate, spec=False)

    sp = sub.add_parser("decompose", help="split a transducer into automaton + hom")
    sp.add_argument("--trans", required=True)
    common(sp, _decompose, spec=False, as_json=False)

    return p


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def dispatch(args):
    """Run the subcommand's handler, args -> (JSON payload or None, text
    report, exit status), and print the report that --json asks for."""
    payload, text, code = args.handler(args)
    if args.json:
        import json
        text = json.dumps(payload, sort_keys=True)
    _emit(args, text)
    return code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = dispatch(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        code = EXIT_RESOURCE
    except (SpecParseError, ApwordsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
