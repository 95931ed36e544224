"""The bench tracer patches names of the package by name, so a rename in the
package would crash every traced bench run; this checks that each name it
patches exists and is put back."""

import importlib.util
from pathlib import Path

import apwords as ap

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_tracer_patches_existing_names_and_restores_them():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        replaced = [vars(owner)[attr] is not orig for owner, attr, orig in patched]
        rep = ap.reduce_to_reversible(ap.Automaton(
            ap.BINARY, ap.BINARY, ("p", "q"), "p",
            {("p", "0"): ("p", "0"), ("q", "0"): ("p", "0"),
             ("p", "1"): ("q", "1"), ("q", "1"): ("p", "1")}),
            ap.thue_morse(), ap.identity_plus(3))
        ap.split(ap.thue_morse(), "0", ap.identity_plus(3)).split_sequence.read(0, 9)
    finally:
        tracer.uninstall()
    assert all(replaced)
    assert {"split", "block_automaton", "reduce_to_reversible"} <= {
        attr for owner, attr, _ in patched if owner is ap.automata}
    for owner, attr, orig in patched:
        assert vars(owner)[attr] is orig, f"{owner!r}.{attr} not restored"
    assert tracer.counts["automata.reduce_steps"] == len(rep.steps) == 1
    assert tracer.summary()["self_s"]["automata.split"] > 0
