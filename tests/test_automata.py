"""Automata, transducers, homomorphisms, splits, and the reversible reduction."""

import itertools
import random
import sys
import threading
import time
import tracemalloc

import pytest

import apwords as ap
from apwords import (
    Alphabet,
    Automaton,
    Homomorphism,
    Transducer,
    block_automaton,
    cyclic_automaton,
    hom_apply,
    infinite_letters,
    is_reversible,
    load_automaton,
    load_homomorphism,
    load_transducer,
    periodic,
    prepend,
    product,
    read,
    reduce_to_reversible,
    reg_iterated_bound,
    run,
    split,
    thue_morse,
    transducer_decompose,
    transducer_run,
    word,
)
from conftest import deadline

BIN = ap.BINARY


def identity_automaton():
    delta = {("q", s): ("q", s) for s in "01"}
    return Automaton(BIN, BIN, ("q",), "q", delta)


def swap_automaton():
    delta = {("q", "0"): ("q", "1"), ("q", "1"): ("q", "0")}
    return Automaton(BIN, BIN, ("q",), "q", delta)


def xor_automaton():
    # f(q, s) = (q xor s, q): next state is the running parity, output the
    # state before the step.
    states = ("0", "1")
    delta = {(q, s): (str(int(q) ^ int(s)), q) for q in states for s in "01"}
    return Automaton(BIN, BIN, states, "0", delta)


def merge2_automaton():
    # letter 0 funnels both states into q0; letter 1 toggles.
    delta = {
        ("q0", "0"): ("q0", "0"),
        ("q1", "0"): ("q0", "0"),
        ("q0", "1"): ("q1", "1"),
        ("q1", "1"): ("q0", "1"),
    }
    return Automaton(BIN, BIN, ("q0", "q1"), "q0", delta)


import functools


@functools.lru_cache(maxsize=1)
def tm_empirical():
    return ap.empirical_regulator(thue_morse(), 2 ** 16).as_regulator()


def test_run_identity():
    out = run(identity_automaton(), thue_morse())
    assert read(out, 0, 9999).symbols == read(thue_morse(), 0, 9999).symbols


def test_run_swap():
    out = run(swap_automaton(), thue_morse())
    assert read(out, 0, 3).text() == "1001"


def test_run_xor_state_trace_matches_hand_simulation():
    # independent step-by-step oracle
    inputs = read(thue_morse(), 0, 5).symbols
    state, trace = 0, []
    for s in inputs:
        trace.append((s, str(state)))
        state = state ^ int(s)
    out = run(xor_automaton(), thue_morse(), with_states=True)
    assert read(out, 0, 5).symbols == tuple(trace)
    # plain output is the state-before-step projection
    plain = run(xor_automaton(), thue_morse())
    assert read(plain, 0, 5).symbols == tuple(q for _, q in trace)


def test_is_reversible():
    assert is_reversible(cyclic_automaton(word("012", Alphabet(("0", "1", "2"))), BIN))
    assert is_reversible(identity_automaton())
    assert not is_reversible(merge2_automaton())


def test_automaton_repr():
    assert repr(merge2_automaton()) == "Automaton(states=2, input=['0', '1'])"


def test_reversibility_equals_preimage_existence():
    # bijectivity per letter <=> every (state, letter) has a unique pre-state
    rng = random.Random(7)
    for _ in range(40):
        ns = rng.randint(1, 4)
        states = tuple(f"q{i}" for i in range(ns))
        delta = {
            (q, s): (rng.choice(states), rng.choice("01"))
            for q in states
            for s in "01"
        }
        auto = Automaton(BIN, BIN, states, states[0], delta)
        unique_preimage = all(
            sum(1 for q in states if delta[(q, s)][0] == q2) == 1
            for s in "01"
            for q2 in states
        )
        assert is_reversible(auto) == unique_preimage


def test_infinite_letters():
    ones = periodic(word("1", BIN))
    assert infinite_letters(prepend(word("0"), ones), ap.identity_plus(1)) == {"1"}
    assert infinite_letters(thue_morse(), tm_empirical()) == {"0", "1"}
    abc = Alphabet(("a", "b"))
    assert infinite_letters(periodic(word("ab", abc)), ap.linear(2, 0)) == {"a", "b"}


# ---------------------------------------------------------------------------
# Splits


def test_split_worked_example():
    sigma = Alphabet(tuple("01234"))
    seq = periodic(word("3200122403100110", sigma))
    sr = split(seq, "0", ap.periodic_regulator(16))
    assert sr.offset == 3
    first = read(sr.split_sequence, 0, 4).symbols
    assert [sr.decode[b].text() for b in first] == ["0", "12240", "310", "0", "110"]


def test_split_periodic_single_block():
    sr = split(periodic(word("10", BIN)), "0", ap.periodic_regulator(2))
    assert {w.text() for w in sr.decode.values()} == {"10"}
    assert read(sr.split_sequence, 0, 9).symbols == (sr.split_sequence.at(0),) * 10


def test_split_tm_block_bound():
    # independent oracle: longest distance between consecutive 0s in a long
    # prefix bounds every block
    text = read(thue_morse(), 0, 2 ** 16 - 1).text()
    zeros = [i for i, ch in enumerate(text) if ch == "0"]
    longest = max(b - a for a, b in zip(zeros, zeros[1:]))
    assert longest == 3
    sr = split(thue_morse(), "0", tm_empirical())
    assert sr.max_block_len == 3
    assert sr.max_block_len <= tm_empirical()(1)


def test_split_invariants():
    sr = split(thue_morse(), "0", tm_empirical())
    for w in sr.decode.values():
        assert w.symbols[-1] == "0"
        assert "0" not in w.symbols[:-1]
    blocks = read(sr.split_sequence, 0, 5000).symbols
    rebuilt = "".join(sr.decode[b].text() for b in blocks)
    assert rebuilt == read(thue_morse(), sr.offset, sr.offset + len(rebuilt) - 1).text()


def test_split_rejects_finite_marker():
    seq = prepend(word("0"), periodic(word("1", BIN)))
    with pytest.raises(ValueError, match="does not recur"):
        split(seq, "0", ap.identity_plus(1))


def test_split_rejects_marker_missing_from_the_first_window():
    # "0" recurs, but r(1) = 3 letters of "1111" pass before its first start
    seq = prepend(word("1111", BIN), periodic(word("01")))
    with pytest.raises(ap.InvariantViolation,
                       match="^marker absent from the first regulator window$"):
        split(seq, "0", ap.identity_plus(2))


# ---------------------------------------------------------------------------
# Block automata and the reduction


def test_block_automaton_merge_letter_states():
    sr = split(thue_morse(), "0", tm_empirical())
    ba = block_automaton(merge2_automaton(), sr)
    # image of letter 0 is the singleton {q0}
    assert ba.states == ("q0",)
    assert is_reversible(ba)


def test_block_automaton_identity_stays_single_state():
    sr = split(thue_morse(), "0", tm_empirical())
    ba = block_automaton(identity_automaton(), sr)
    assert len(ba.states) == 1
    assert is_reversible(ba)
    with pytest.raises(ap.AlphabetError,
                       match="^marker '0' unknown to the automaton$"):
        block_automaton(identity_automaton().restricted(("1",)), sr)
    with pytest.raises(ValueError,
                       match="^restriction would empty the input alphabet$"):
        identity_automaton().restricted(())


def test_block_automaton_simulates_original():
    auto = merge2_automaton()
    sr = split(thue_morse(), "0", tm_empirical())
    ba = block_automaton(auto, sr)
    # running the block automaton and decoding pair outputs reproduces the
    # (input, state) trace of the original automaton on the suffix
    suffix_run = run(auto, ap.make_sequence(f"suffix:{sr.offset}:tm"), with_states=True)
    block_out = run(ba, sr.split_sequence)
    flattened = []
    for i in range(200):
        flattened.extend(block_out.at(i))
    assert tuple(flattened[:400]) == read(suffix_run, 0, 399).symbols


def test_reduce_reversible_input_is_noop():
    rep = reduce_to_reversible(swap_automaton(), thue_morse(), tm_empirical())
    assert rep.steps == []
    assert rep.deleted_prefix_len == 0
    assert is_reversible(rep.final_automaton)


def test_reduce_merge2_single_step():
    B = tm_empirical()
    rep = reduce_to_reversible(merge2_automaton(), thue_morse(), B)
    assert len(rep.steps) == 1
    assert rep.steps[0].letter == "0"
    assert len(rep.final_automaton.states) == 1
    assert is_reversible(rep.final_automaton)
    # omega_T starts with 0: dropped partial block is just "0"
    assert rep.deleted_prefix_len == 1
    assert rep.deleted_prefix_len <= B(1) + B(B(1))
    assert rep.theorem_bound == reg_iterated_bound(B, 2)


def test_reduce_random_automata_invariants():
    B = tm_empirical()
    rng = random.Random(99)
    for _ in range(20):
        ns = rng.randint(1, 4)
        states = tuple(f"q{i}" for i in range(ns))
        delta = {
            (q, s): (rng.choice(states), rng.choice("01"))
            for q in states
            for s in "01"
        }
        auto = Automaton(BIN, BIN, states, states[0], delta)
        rep = reduce_to_reversible(auto, thue_morse(), B)
        counts = [len(auto.states)] + [len(st.automaton.states) for st in rep.steps]
        assert all(a > b for a, b in zip(counts, counts[1:]))
        assert is_reversible(rep.final_automaton)
        assert rep.deleted_prefix_len <= rep.theorem_bound
        assert len(rep.steps) <= ns


def four_state_automaton(rows):
    """States q0-q3 from q0; rows[q] gives q's (next, output) on 0, then on 1."""
    delta = {(f"q{q}", s): (f"q{to}", out)
             for q, row in enumerate(rows) for s, (to, out) in zip("01", row)}
    return Automaton(BIN, BIN, ("q0", "q1", "q2", "q3"), "q0", delta)


@pytest.mark.parametrize("reg", ["id+c:2", "lin:2:1"])
def test_reduce_refuses_a_block_letter_the_regulator_window_missed(reg):
    # the window [3, 5] of 1111111 tm reads 111, so the machine keeps only
    # 1, and the blocks that split on 1 cuts hold the recurring 0
    auto = four_state_automaton([((3, "1"), (2, "0")), ((1, "1"), (0, "1")),
                                 ((3, "1"), (0, "0")), ((0, "1"), (0, "0"))])
    with pytest.raises(ap.InvariantViolation, match=r"^letter '0' of block '01' is "
                       r"missing from the regulator window \[3, 5\]$"):
        reduce_to_reversible(auto, ap.make_sequence("prepend:1111111:tm"),
                             ap.parse_regulator(reg))


def test_reduce_reads_a_dropped_letter_that_does_not_recur():
    # 2 then Thue-Morse: the machine keeps 0 and 1, splits on 0, and drops
    # the prefix 20, which only the whole machine can read
    tern = Alphabet(("0", "1", "2"))
    tm = thue_morse()
    seq = ap.FuncSequence(tern, lambda i: tm.at(i - 1) if i else "2", "2 then tm")
    delta = {(q, "2"): ("q1", "2") for q in ("q0", "q1")}
    delta.update(merge2_automaton().delta)
    rep = reduce_to_reversible(Automaton(tern, tern, ("q0", "q1"), "q0", delta),
                               seq, ap.identity_plus(20))
    assert (rep.deleted_prefix_len, rep.state_counts) == (2, [1])
    assert rep.final_automaton.initial == "q0"


def test_reduce_restricts_the_final_machine_to_the_recurring_letters():
    # x occurs once and sends both states to p; left in the machine it would
    # be chosen as the marker, and left in the final machine it is not
    # reversible, while 0 and 1 permute the states
    xbin = Alphabet(("x", "0", "1"))
    seq = prepend("x", ap.FuncSequence(xbin, thue_morse().at))
    delta = {(q, "0"): (q, "0") for q in "pq"}
    delta.update({("p", "1"): ("q", "1"), ("q", "1"): ("p", "1")})
    delta.update({(q, "x"): ("p", "x") for q in "pq"})
    auto = Automaton(xbin, xbin, ("p", "q"), "p", delta)
    rep = reduce_to_reversible(auto, seq, ap.empirical_regulator(seq, 2 ** 12).as_regulator())
    assert rep.steps == []
    assert rep.deleted_prefix_len == 1  # the x
    assert rep.final_automaton.input_alphabet.symbols == ("0", "1")
    assert is_reversible(rep.final_automaton)


def test_reduce_accepts_a_true_regulator_over_a_transient_letter():
    # ax then (ab)^w: lin:2:3 is a true regulator; the cut follows the a at
    # 2, past the transient x, not the a at 0, which would leave the block xa
    abx = Alphabet(("a", "b", "x"))
    seq = prepend("ax", periodic(word("ab", abx)))
    reg = ap.parse_regulator("lin:2:3")
    assert ap.check_regulator(seq, reg, 4096, 10).status == "pass"
    delta = {(q, "a"): ("0", "a") for q in "01"}
    delta.update({("0", "b"): ("1", "b"), ("1", "b"): ("0", "b")})
    delta.update({(q, "x"): (q, "x") for q in "01"})
    rep = reduce_to_reversible(Automaton(abx, abx, ("0", "1"), "0", delta), seq, reg)
    assert (len(rep.steps), rep.steps[0].split_result.offset) == (1, 3)
    assert (rep.deleted_prefix_len, rep.theorem_bound) == (3, 18)


ABX = Alphabet(("a", "b", "x"))


def table_automaton(text, states):
    """The automaton over (a, b, x) from state 0 whose moves are written
    "qsto", one per (state q, letter s): next state t, output o."""
    delta = {(m[0], m[1]): (m[2], m[3]) for m in text.split()}
    return Automaton(ABX, ABX, tuple(states), "0", delta)


def transient_block_case():
    """a then (babb)^w under a true regulator, and a machine whose one split,
    on a, starts the split sequence with the transient block b0 = ba."""
    auto = table_automaton("0a1a 0b0b 0x0a 1a0a 1b3a 1x2a 2a2a 2b1b 2x2a 3a1a 3b2a 3x2b",
                           "0123")
    return auto, prepend("a", periodic(word("babb", ABX))), ap.identity_plus(4)


def test_reduce_cuts_the_final_level_past_its_transient_letters():
    # the final machine reads only b1, so the cut passes b0 too, and the
    # image from letter 3, not 1, is recurrent
    auto, seq, reg = transient_block_case()
    assert ap.check_regulator(seq, reg, 4096, 10).status == "pass"
    rep = reduce_to_reversible(auto, seq, reg)
    assert [st.deleted_letters for st in rep.steps] == [1]
    assert rep.steps[0].split_result.decode["b0"].text() == "ba"
    assert rep.final_automaton.input_alphabet.symbols == ("b1",)
    assert (rep.deleted_prefix_len, rep.theorem_bound) == (3, 44)
    image = run(auto, seq)
    assert ap.check_sap(image.suffix(1), 2 ** 12, 10).status == "fail"
    assert ap.check_sap(image.suffix(3), 2 ** 12, 10).status == "pass"


def test_reduce_accepts_every_true_regulator_of_a_transient_word_then_a_period():
    # w over (a, b, x), then (u)^w with u over (a, b): r(n) = n + |u| - 1 + |w|
    # is a true regulator, and every machine reduces within the bound
    rng = random.Random(1)
    for _ in range(300):
        w = "".join(rng.choice("abx") for _ in range(rng.randint(1, 8)))
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
        states = "0123"[:rng.randint(2, 4)]
        auto = table_automaton(" ".join(q + s + rng.choice(states) + rng.choice("abx")
                                        for q in states for s in "abx"), states)
        seq = prepend(w, periodic(word(u, ABX)))
        rep = reduce_to_reversible(auto, seq, ap.identity_plus(len(u) - 1 + len(w)))
        assert rep.deleted_prefix_len <= rep.theorem_bound, (w, u, auto.delta)
        if not rep.steps:  # the final machine starts where the cut leaves the machine
            q, cut = auto.initial, rep.deleted_prefix_len
            for s in read(seq, 0, cut).symbols[:cut]:
                q = auto.delta[(q, s)][0]
            assert rep.final_automaton.initial == q, (w, u, auto.delta)


def test_reduce_refuses_a_prefix_past_the_theorem_bound():
    auto = four_state_automaton([((3, "1"), (3, "1")), ((0, "1"), (3, "0")),
                                 ((2, "1"), (0, "1")), ((1, "1"), (2, "0"))])
    with pytest.raises(ap.InvariantViolation,
                       match="^deleted prefix 38 exceeds the theorem bound 24$"):
        reduce_to_reversible(auto, ap.make_sequence("fixture:tm-triple:1"),
                             ap.identity_plus(2))


def test_block_automaton_refuses_a_prefix_that_leaves_the_marker_image():
    # merge2's marker 0 leads only to q0, but the dropped prefix 1 ends in q1
    blocks = Alphabet(("b0",))
    sr = ap.SplitResult("0", blocks, {"b0": word("10")}, 1, None, 2, word("1", BIN))
    with pytest.raises(ap.InvariantViolation,
                       match="^post-prefix state escaped the marker image$"):
        block_automaton(merge2_automaton(), sr)


# ---------------------------------------------------------------------------
# Homomorphisms and transducers


def test_hom_apply_erasing_is_finite():
    h = Homomorphism(BIN, BIN, {"0": (), "1": ()})
    with pytest.raises(ap.FiniteOutputError):
        hom_apply(h, thue_morse(), tm_empirical()).at(0)


def test_hom_apply_finite_image_with_a_regulator():
    # 1, the only recurrent letter, is erased: the image is finite, and it is
    # h(seq[0 : r(1) - 1]) = h(0011) = 11, what the stall path reads too
    h = Homomorphism(BIN, BIN, {"0": ("1",), "1": ()})
    seq = prepend("00", periodic(word("1", BIN)))
    for out in (hom_apply(h, seq, ap.identity_plus(3)), hom_apply(h, seq)):
        assert read(out, 0, 1).text() == "11"
        for _ in range(2):
            with pytest.raises(ap.FiniteOutputError) as exc:
                read(out, 1, 2)
            assert exc.value.produced == 2


class CountedReads(ap.SequenceHandle):
    """A view of seq that records the range reads made through it."""

    def __init__(self, seq):
        super().__init__(seq.alphabet, seq.description)
        self.seq = seq
        self.reads = []

    def _read_symbols(self, i, j):
        self.reads.append((i, j))
        return self.seq._read_symbols(i, j)


def hom_image(h, seq, n):
    """The first n letters of h(seq), an infinite image, letter by letter."""
    out = []
    for s in map(seq.at, itertools.count()):
        if len(out) >= n:
            return tuple(out[:n])
        out += h.images[s]


def test_hom_apply_agrees_with_the_recurrent_letter_decision():
    # the reference decision: the image is finite iff h erases every
    # letter of infinite_letters, and it is then h(seq[0 : r(1) - 1])
    rng = random.Random(20)
    cases = [("tm", tm_empirical()), ("thm21", ap.reg_thm21())]
    for _ in range(8):
        period = "".join(rng.choice("01") for _ in range(rng.randint(1, 5)))
        cases.append((f"periodic:{period}", ap.periodic_regulator(len(period))))
    for spec, reg in cases:
        for _ in range(12):
            h = Homomorphism(BIN, BIN, {s: tuple(rng.choice("01") for _ in
                                                 range(rng.randint(0, 2)))
                                        for s in "01"})
            seq = CountedReads(ap.make_sequence(spec))
            out = hom_apply(h, seq, reg)
            assert seq.reads == []  # nothing is read before the first read
            if any(h.images[s] for s in infinite_letters(seq.seq, reg)):
                assert read(out, 0, 4999).symbols == hom_image(h, seq.seq, 5000)
                continue
            image = h.apply_word(seq.seq.read(0, reg(1) - 1)).symbols
            if image:
                assert read(out, 0, len(image) - 1).symbols == image
            assert produced_at(out, len(image)) == len(image)


def test_hom_apply_under_a_false_regulator_ends_by_its_stall_rule():
    # check_regulator rejects identity_plus(2) for 1110 1 1 1 ...: 0 is in
    # the window [r(1), 2r(1) - 1] but does not recur.  The image "1" is
    # finite; the stall rule ends it after r(1) = 3 erased inputs.
    h = Homomorphism(BIN, BIN, {"0": ("1",), "1": ()})
    with deadline(10):
        out = hom_apply(h, prepend("1110", periodic(word("1", BIN))),
                        ap.identity_plus(2))
        with pytest.raises(ap.FiniteOutputError):
            out.read(0, 1)


def test_hom_apply_partial_erasure():
    h = Homomorphism(BIN, BIN, {"0": (), "1": ("1",)})
    out = hom_apply(h, thue_morse(), tm_empirical())
    assert read(out, 0, 49).text() == "1" * 50


def test_hom_apply_doubling():
    h = Homomorphism(BIN, BIN, {"0": ("0", "0"), "1": ("1", "1")})
    out = hom_apply(h, thue_morse())
    assert read(out, 0, 7).text() == "00111100"


def test_transducer_identity():
    delta = {("q", s): ("q", (s,)) for s in "01"}
    t = Transducer(BIN, BIN, ("q",), "q", delta)
    out = transducer_run(t, thue_morse())
    assert read(out, 0, 9999).symbols == read(thue_morse(), 0, 9999).symbols



def test_foreign_input_symbols_are_named():
    seq = periodic(word("0a", Alphabet(("0", "a"))))
    identity = {("q", s): ("q", (s,)) for s in "01"}
    calls = [
        (lambda: run(identity_automaton(), seq), "automaton"),
        (lambda: reduce_to_reversible(identity_automaton(), seq,
                                      ap.identity_plus(3)), "automaton"),
        (lambda: transducer_run(Transducer(BIN, BIN, ("q",), "q", identity), seq),
         "transducer"),
        (lambda: hom_apply(Homomorphism(BIN, BIN, {"0": ("1",), "1": ()}), seq),
         "homomorphism"),
        (lambda: hom_apply(Homomorphism(BIN, BIN, {"0": ("1",), "1": ()}), seq,
                           ap.identity_plus(3)), "homomorphism"),
        # the input is checked before the regulator is asked for r(1)
        (lambda: hom_apply(Homomorphism(BIN, BIN, {"0": ("1",), "1": ()}), seq,
                           ap.table_regulator({2: 5})), "homomorphism"),
    ]
    for call, noun in calls:
        with pytest.raises(ap.AlphabetError) as exc:
            call()
        assert str(exc.value) == f"sequence symbols ['a'] unknown to {noun}"

def test_one_state_transducer_equals_homomorphism():
    images = {"0": ("1", "0"), "1": ()}
    delta = {("q", s): ("q", images[s]) for s in "01"}
    t = Transducer(BIN, BIN, ("q",), "q", delta)
    h = Homomorphism(BIN, BIN, images)
    a = transducer_run(t, thue_morse())
    b = hom_apply(h, thue_morse(), tm_empirical())
    assert read(a, 0, 999).symbols == read(b, 0, 999).symbols


def test_decompose_identity_transducer():
    delta = {("q", s): ("q", (s,)) for s in "01"}
    auto, hom = transducer_decompose(Transducer(BIN, BIN, ("q",), "q", delta))
    assert hom.images[("0", "q")] == ("0",)
    assert hom.images[("1", "q")] == ("1",)
    out = hom_apply(hom, run(auto, thue_morse()))
    assert read(out, 0, 99).symbols == read(thue_morse(), 0, 99).symbols


def test_decompose_erasing_both_exhaust():
    delta = {("q", s): ("q", ()) for s in "01"}
    t = Transducer(BIN, BIN, ("q",), "q", delta)
    auto, hom = transducer_decompose(t)
    with pytest.raises(ap.FiniteOutputError):
        transducer_run(t, thue_morse(), stall_limit=1000).at(0)
    with pytest.raises(ap.FiniteOutputError):
        hom_apply(hom, run(auto, thue_morse()), stall_limit=1000).at(0)


def test_decompose_random_transducers_match_direct_run():
    rng = random.Random(13)
    for _ in range(25):
        ns = rng.randint(1, 3)
        states = tuple(f"q{i}" for i in range(ns))
        delta = {}
        for q in states:
            for s in "01":
                out = tuple(rng.choice("01") for _ in range(rng.randint(0, 2)))
                delta[(q, s)] = (rng.choice(states), out)
        t = Transducer(BIN, BIN, states, states[0], delta)
        direct = transducer_run(t, thue_morse(), stall_limit=4096)
        auto, hom = transducer_decompose(t)
        composed = hom_apply(hom, run(auto, thue_morse()), stall_limit=4096)

        def take(seq, n=2000):
            try:
                return read(seq, 0, n - 1).symbols
            except ap.FiniteOutputError as exc:
                return read(seq, 0, exc.produced - 1).symbols if exc.produced else ()

        assert take(direct) == take(composed)


# ---------------------------------------------------------------------------
# Cyclic automata and products


def test_cyclic_automaton_equals_product():
    tern = Alphabet(("0", "1", "2"))
    out = run(cyclic_automaton(word("01", BIN), BIN), thue_morse())
    prod = product(thue_morse(), periodic(word("01", BIN)))
    assert read(out, 0, 999).symbols == read(prod, 0, 999).symbols
    assert is_reversible(cyclic_automaton(word("012", tern), BIN))


def test_cyclic_automaton_takes_a_string_period():
    assert cyclic_automaton("01", BIN).delta == cyclic_automaton(word("01"), BIN).delta


def test_cyclic_automaton_single_letter():
    auto = cyclic_automaton(word("a", Alphabet(("a",))), BIN)
    assert len(auto.states) == 1
    out = run(auto, thue_morse())
    assert read(out, 0, 3).symbols == (("0", "a"), ("1", "a"), ("1", "a"), ("0", "a"))


def test_cyclic_automaton_rejects_empty_word():
    with pytest.raises(ValueError):
        cyclic_automaton(word("", BIN), BIN)


# ---------------------------------------------------------------------------
# File formats


def test_automaton_file_roundtrip(tmp_path):
    auto = merge2_automaton()
    p = tmp_path / "m.aut"
    p.write_text(ap.automaton_text(auto))
    loaded = load_automaton(str(p))
    assert loaded.delta == auto.delta
    assert loaded.states == auto.states
    assert loaded.initial == auto.initial


def test_transducer_file(tmp_path):
    p = tmp_path / "t.trans"
    p.write_text(
        "input: 0 1\noutput: 0 1\nstates: a b\ninitial: a\n"
        "a 0 -> b 0 1\na 1 -> a -\nb 0 -> a 0\nb 1 -> b 1\n"
    )
    t = load_transducer(str(p))
    assert t.delta[("a", "0")] == ("b", ("0", "1"))
    assert t.delta[("a", "1")] == ("a", ())


def test_homomorphism_file(tmp_path):
    p = tmp_path / "h.hom"
    p.write_text("input: 0 1\n0 -> -\n1 -> 1 1\n")
    h = load_homomorphism(str(p))
    assert h.images == {"0": (), "1": ("1", "1")}
    p2 = tmp_path / "h2.hom"
    p2.write_text(ap.homomorphism_text(h))
    assert load_homomorphism(str(p2)).images == h.images


def test_automaton_file_errors(tmp_path):
    p = tmp_path / "bad.aut"
    p.write_text("input: 0 1\noutput: 0 1\nstates: a\n")  # missing initial
    with pytest.raises(ValueError):
        load_automaton(str(p))
    p.write_text("input: 0 1\noutput: 0 1\nstates: a\ninitial: a\na 0 -> a 0\n")
    with pytest.raises(ValueError):  # transition table not total
        load_automaton(str(p))


def test_machines_reject_transitions_outside_states_and_input():
    delta = {("q", "0"): ("q", "1"), ("q", "1"): ("q", "0")}
    for extra in (("p", "0"), ("q", "2")):
        with pytest.raises(ValueError, match="outside the states and input"):
            Automaton(BIN, BIN, ("q",), "q", {**delta, extra: ("q", "0")})
        with pytest.raises(ValueError, match="outside the states and input"):
            Transducer(BIN, BIN, ("q",), "q", {**delta, extra: ("q", ())})
    with pytest.raises(ValueError, match="outside the states and input"):
        Homomorphism(BIN, BIN, {"0": (), "1": ("1",), "2": ("0",)})


def test_automaton_is_a_transducer_and_homomorphism_a_one_state_one():
    auto = merge2_automaton()
    assert isinstance(auto, Transducer)
    assert auto.delta[("q0", "1")] == ("q1", "1")
    h = Homomorphism(BIN, BIN, {"0": ["1", "0"], "1": ()})
    assert isinstance(h, Transducer)
    assert h.states == (None,)
    assert h.images == {"0": ("1", "0"), "1": ()}
    assert h.apply_word(word("0110")).symbols == ("1", "0", "1", "0")


HEAD = "input: 0 1\noutput: 0 1\nstates: a b\ninitial: a\n"
TABLE = "a 0 -> a 0\na 1 -> b 1\nb 0 -> a 0\nb 1 -> b 1\n"


@pytest.mark.parametrize("text, message", [
    (HEAD + TABLE + "a 0 -> a 1\n", r"m\.aut:9: repeated transition for 'a 0'"),
    (HEAD + TABLE + "c 0 -> a 0\n", r"from \('c', '0'\) outside the states"),
    (HEAD + TABLE + "a 2 -> a 0\n", r"from \('a', '2'\) outside the states"),
    (HEAD + "states: a\n" + TABLE, r"m\.aut:5: repeated 'states' header line"),
    (HEAD + "initial: b\n" + TABLE, r"m\.aut:5: repeated 'initial' header line"),
    (HEAD + "a 0 ->\n" + TABLE, r"m\.aut:5: bad transition line 'a 0 ->'"),
    (HEAD.replace("states: a b", "states: a b a") + TABLE, "states must be distinct"),
])
def test_machine_files_reject_repeated_and_undeclared_lines(tmp_path, text, message):
    p = tmp_path / "m.aut"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_automaton(str(p))
    t = tmp_path / "m.trans"
    t.write_text(text)
    with pytest.raises(ValueError, match=message.replace("aut", "trans")):
        load_transducer(str(t))


@pytest.mark.parametrize("text, message", [
    ("input: 0 1\n0 -> 1\n1 -> 0\n0 -> 0 0\n", r"h\.hom:4: repeated image for '0'"),
    ("input: 0 1\ninput: 0\n0 -> 1\n1 -> 0\n", r"h\.hom:2: repeated 'input' header"),
    ("input: 0 1\n0 -> 1\n1 -> 0\n2 -> 0\n", r"h\.hom: image for undeclared letter '2'$"),
])
def test_homomorphism_files_reject_repeated_and_undeclared_lines(tmp_path, text, message):
    p = tmp_path / "h.hom"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_homomorphism(str(p))


# ---------------------------------------------------------------------------
# Laziness: machine streams read upstream a range at a time, yet raise only
# where a per-letter reader would


def finite_stream(text):
    return ap.StreamSequence(BIN, iter(text), "finite")


def produced_at(seq, i):
    with pytest.raises(ap.FiniteOutputError) as exc:
        seq.at(i)
    return exc.value.produced


def test_run_over_finite_stream_ends_where_the_input_ends():
    swap = Automaton(BIN, BIN, ("q",), "q", {("q", "0"): ("q", "1"), ("q", "1"): ("q", "0")})
    out = run(swap, finite_stream("0110" * 25))
    assert read(out, 0, 99).text() == "1001" * 25
    assert produced_at(out, 100) == 100
    assert produced_at(out, 5000) == 100


@pytest.mark.parametrize("make, letters", [
    (lambda: prepend("01", finite_stream("0110" * 25)), "10" + "1001" * 25),
    (lambda: finite_stream("0110" * 25).suffix(3), ("1001" * 25)[3:]),
    (lambda: ap.projections(product(finite_stream("0110" * 25), thue_morse()))[0],
     "1001" * 25),
    # a pair exists only where both sides do, so the infinite side ends too
    (lambda: ap.projections(product(finite_stream("0110" * 25), thue_morse()))[1],
     ap.complement(read(thue_morse(), 0, 99)).text()),
], ids=["prepend", "suffix", "projection-finite", "projection-infinite"])
def test_run_over_a_composite_ends_where_its_stream_ends(make, letters):
    out = run(swap_automaton(), make())
    assert read(out, 0, len(letters) - 1).text() == letters
    # the inner stream's error, with the inner count, at the composite's end
    errors = []
    for i in (len(letters), len(letters), 5000):
        with pytest.raises(ap.FiniteOutputError) as exc:
            out.at(i)
        errors.append(exc.value)
    assert [e.produced for e in errors] == [100, 100, 100]
    assert errors[0] is errors[1] is errors[2]


def test_hom_apply_over_finite_stream_reports_the_input_end():
    h = Homomorphism(BIN, BIN, {"0": ("0", "0"), "1": ("1",)})
    out = hom_apply(h, finite_stream("01" * 50))
    assert len(read(out, 0, 149)) == 150
    assert produced_at(out, 150) == 100
    assert produced_at(out, 150) == 100


def test_hom_apply_stall_point_is_per_letter():
    h = Homomorphism(BIN, BIN, {"0": (), "1": ("1",)})
    out = hom_apply(h, prepend(word("11111", BIN), periodic(word("0", BIN))),
                    stall_limit=1000)
    assert read(out, 0, 4).text() == "11111"
    assert produced_at(out, 5) == 5


def test_transducer_run_stall_and_end_of_input():
    delta = {("q", "0"): ("q", ()), ("q", "1"): ("q", ("1",))}
    t = Transducer(BIN, BIN, ("q",), "q", delta)
    text = "1" * 10 + "0" * 50
    assert produced_at(transducer_run(t, finite_stream(text), stall_limit=20), 10) == 10
    assert produced_at(transducer_run(t, finite_stream(text), stall_limit=100), 10) == 60
    # the stall ends the output after exactly stall_limit silent inputs
    text = "1" * 10 + "0" * 20 + "1" * 5
    assert produced_at(transducer_run(t, finite_stream(text), stall_limit=20), 10) == 10
    assert produced_at(transducer_run(t, finite_stream(text), stall_limit=21), 15) == 35


def test_split_raises_only_at_the_offending_block():
    # blocks "01" up to position 999, then "1" blocks: the closure scan sees
    # only "01", and block 499 is the first "1"; or then "00000001" blocks,
    # which are longer than r(1) = 4 and so are never named by the scan
    for late, match in [
        (lambda i: "1", "first seen after"),
        (lambda i: "1" if i % 12 == 11 else "0",
         "^block '00000001' first seen after the closure scan$"),
    ]:
        def fn(i, late=late):
            return "01"[i % 2] if i < 1000 else late(i)

        sr = split(ap.FuncSequence(BIN, fn, "late"), "1", ap.identity_plus(3))
        assert sr.offset == 2
        assert set(read(sr.split_sequence, 0, 498).symbols) == {"b0"}
        for _ in range(2):
            with pytest.raises(ap.InvariantViolation, match=match):
                sr.split_sequence.at(499)


def test_split_raises_where_the_marker_stops_recurring():
    # the marker 0 occurs at 2, 4, ..., 198 and never again: blocks 0..98
    # are "10", and the unfinished block after them reaches r(1) = 4 letters
    seq = ap.FuncSequence(BIN, lambda i: "01"[i % 2] if i < 200 else "1", "stops")
    with deadline(10):
        sr = split(seq, "0", ap.identity_plus(3))
        errors = []
        for _ in range(2):
            with pytest.raises(ap.InvariantViolation, match=r"block of length "
                               r"over \d+ exceeds the regulator window 4$") as exc:
                sr.split_sequence.at(99)
            errors.append(str(exc.value))
        assert read(sr.split_sequence, 0, 98).symbols == ("b0",) * 99
    assert errors[0] == errors[1]


def test_run_over_a_failing_index_function_stops_at_the_failure():
    calls = []

    def fn(i):
        calls.append(i)
        if i >= 5000:
            raise ZeroDivisionError(i)
        return "01"[i % 2]

    out = run(swap_automaton(), ap.FuncSequence(BIN, fn, "fails from 5000"))
    assert read(out, 0, 4999).text() == "10" * 2500
    with pytest.raises(ZeroDivisionError):
        out.at(5000)
    # the letter-by-letter reads after the failed range read do not refill
    # the failing chunk once per letter
    assert len(calls) < 2 * ap.FuncSequence.CHUNK


@pytest.mark.parametrize("stream, letters", [
    (lambda seq: run(swap_automaton(), seq), "10" * 5),
    (lambda seq: hom_apply(Homomorphism(BIN, BIN, {"0": ("1",), "1": ("0",)}), seq),
     "10" * 5),
    (lambda seq: transducer_run(swap_automaton(), seq), "10" * 5),
    # the prefix holds the closure scan, so the split is made before index 10
    (lambda seq: split(prepend("01" * 10, seq), "1", ap.identity_plus(1)).split_sequence,
     "b0" * 10),
], ids=["run", "hom_apply", "transducer_run", "split"])
def test_index_function_raising_stop_iteration_gives_no_short_read(stream, letters):
    def fn(i):
        if i >= 10:
            raise StopIteration
        return "01"[i % 2]

    seq = ap.FuncSequence(BIN, fn, "stops at 10")
    out = stream(seq)
    with deadline(10):
        assert read(seq, 0, 9).text() == "01" * 5
        with pytest.raises(StopIteration):
            read(seq, 0, 19)
        with pytest.raises(StopIteration):
            seq.at(15)
        assert read(out, 0, 9).text() == letters
        # the machine stream raises fn's StopIteration itself, neither
        # relabelled nor taken for the stream's end, nor chained to another
        with pytest.raises(StopIteration) as exc:
            read(out, 0, 19)
        assert exc.value.__context__ is None


def raising_once(exc, at):
    """Thue-Morse by an index function that raises exc on its first call
    at index at, and returns the letter on every later call."""
    raised = []

    def fn(i):
        if i == at and not raised:
            raised.append(i)
            raise exc
        return "01"[bin(i).count("1") % 2]

    return ap.FuncSequence(BIN, fn, f"raises once at {at}")


def test_func_sequence_resumes_a_fill_that_fn_interrupted():
    seq = raising_once(KeyboardInterrupt, 10)
    with pytest.raises(KeyboardInterrupt):
        read(seq, 0, 19)
    assert read(seq, 0, 19) == read(thue_morse(), 0, 19)


def test_an_interrupted_machine_stream_never_claims_to_be_finite():
    out = run(swap_automaton(), raising_once(KeyboardInterrupt, 100))
    errors = []
    for _ in range(2):
        with pytest.raises(KeyboardInterrupt) as exc:
            read(out, 0, 199)
        errors.append(exc.value)
    assert errors[0] is errors[1]


def test_a_read_never_returns_letters_past_an_error_raised_computing_them():
    # fn's one TimeoutError lies inside the read, as a signal handler's
    # would: the read raises it, and a later read of the handle succeeds
    seq = raising_once(TimeoutError, 50)
    with pytest.raises(TimeoutError):
        read(seq, 0, 99)
    assert read(seq, 0, 99) == read(thue_morse(), 0, 99)
    # the stream's range read raises it, and its letter reads do not
    with pytest.raises(TimeoutError):
        read(run(swap_automaton(), raising_once(TimeoutError, 50)), 0, 99)


# ---------------------------------------------------------------------------
# Read volumes: a machine stream pulls only as far as its reader needs

# a run reads 10^4 letters in pulls of 4096, 4096 and 1808 inputs; a pull
# asks for at least 64 inputs, so no read of n letters fills more than n + 63
RUN_FN_CALLS = 10 ** 4 + 63
# Thue-Morse letters read to split TM on 0, split its blocks on b0, and read
# 1000 blocks of that (6224 measured), a pull asking for the blocks still
# needed at each level
NESTED_SPLIT_TM_LETTERS = 6300


def counted_thue_morse(calls, yield_gil=False):
    """Thue-Morse by an index function that records each index it is called
    with, and optionally lets other threads run at each call."""

    def fn(i):
        calls.append(i)
        if yield_gil:
            time.sleep(0)
        return "01"[bin(i).count("1") % 2]

    return ap.FuncSequence(BIN, fn, "counted Thue-Morse")


def test_run_fills_each_index_once_and_none_far_past_the_read():
    calls = []
    out = run(swap_automaton(), counted_thue_morse(calls))
    tm_letters = read(thue_morse(), 0, 9999).symbols
    assert read(out, 0, 9999).symbols == tuple(ref_run(swap_automaton(), tm_letters))
    assert len(calls) <= RUN_FN_CALLS
    assert calls == list(range(len(calls)))


def test_nested_split_reads_a_bounded_prefix(monkeypatch):
    letters = [0]
    read_symbols = ap.words._FixedPoint._read_symbols

    def counted(self, i, j):
        letters[0] += j - i + 1
        return read_symbols(self, i, j)

    monkeypatch.setattr(ap.words._FixedPoint, "_read_symbols", counted)
    reg = ap.identity_plus(3)
    outer = split(thue_morse(), "0", reg)
    inner = split(outer.split_sequence, "b0", ap.reg_split(reg, outer.max_block_len))
    assert len(read(inner.split_sequence, 0, 999)) == 1000
    assert letters[0] < NESTED_SPLIT_TM_LETTERS


def test_split_reads_each_letter_past_the_offset_once(monkeypatch):
    reg = tm_empirical()
    tm = thue_morse()
    reads = []
    read_symbols = ap.words._FixedPoint._read_symbols

    def recorded(self, i, j):
        if self is tm:
            reads.append((i, j))
        return read_symbols(self, i, j)

    monkeypatch.setattr(ap.words._FixedPoint, "_read_symbols", recorded)
    sr = split(tm, "0", reg)
    assert len(read(sr.split_sequence, 0, 2 ** 14 - 1)) == 2 ** 14
    past = sorted(r for r in reads if r[0] >= sr.offset)
    assert len(past) > 1
    assert all(j < i for (_, j), (i, _) in zip(past, past[1:]))


@pytest.mark.parametrize("case", ["tm", "transient"])
def test_each_reduction_step_reads_its_windows_once_and_nothing_below_its_offset(
        monkeypatch, case):
    # a 3-step reduction over Thue-Morse, and transient_block_case
    if case == "tm":
        delta = {("q0", "0"): ("q2", "1"), ("q0", "1"): ("q2", "0"),
                 ("q1", "0"): ("q1", "0"), ("q1", "1"): ("q3", "0"),
                 ("q2", "0"): ("q0", "1"), ("q2", "1"): ("q1", "1"),
                 ("q3", "0"): ("q1", "1"), ("q3", "1"): ("q0", "1")}
        auto = Automaton(BIN, BIN, ("q0", "q1", "q2", "q3"), "q0", delta)
        seq, reg = thue_morse(), tm_empirical()
    else:
        auto, seq, reg = transient_block_case()
    windows, reads = [], []
    real_windows, real_read = ap.automata._windows, ap.SequenceHandle.read

    def counted(seq, reg):
        windows.append(seq)
        return real_windows(seq, reg)

    def recorded(seq, i, j):
        reads.append((seq, i))
        return real_read(seq, i, j)

    monkeypatch.setattr(ap.automata, "_windows", counted)
    monkeypatch.setattr(ap.SequenceHandle, "read", recorded)
    rep = reduce_to_reversible(auto, seq, reg)
    assert len(rep.steps) == (3 if case == "tm" else 1)
    levels = [seq] + [st.split_result.split_sequence for st in rep.steps]
    assert windows == levels
    offsets = [st.split_result.offset for st in rep.steps]
    for level, offset in zip(levels, offsets + [float("inf")]):
        # one read from 0, the windows', and none other below the offset
        # (on the final level, none other at all)
        starts = sorted(i for s, i in reads if s is level)
        assert starts[0] == 0 and all(i >= offset for i in starts[1:])


def test_concurrent_reads_agree_and_fill_each_index_once():
    calls = []
    base = counted_thue_morse(calls, yield_gil=True)
    out = run(xor_automaton(), base)
    # stacked images: both outer ones build steps of mid's composed rows
    # while mid's own fills do
    mid = run(swap_automaton(), out)
    handles = (base, out, mid, run(identity_automaton(), mid),
               run(swap_automaton(), mid))
    ranges = [(t * 1500, t * 1500 + 7000) for t in range(4)]
    start = threading.Barrier(len(ranges))
    results = {}

    def reader(i, j):
        # many short reads, so that fills of the handles interleave
        start.wait(timeout=60)
        got = tuple([] for _ in handles)
        for k in range(i, j + 1, 50):
            for seq, letters in zip(handles, got):
                letters += read(seq, k, min(k + 49, j)).symbols
        results[i] = tuple(map(tuple, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=reader, args=r) for r in ranges]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    tm_letters = read(thue_morse(), 0, 11500).symbols
    xor = ref_run(xor_automaton(), tm_letters)
    swapped = ref_run(swap_automaton(), xor)
    for i, j in ranges:
        x, y = tuple(xor[i:j + 1]), tuple(swapped[i:j + 1])
        assert results[i] == (tm_letters[i:j + 1], x, y, y, x)
    assert sorted(calls) == list(range(len(calls)))


def test_split_raises_at_the_first_block_longer_than_r1():
    # markers at 1, 5, then every 40: the block at 2..5 spans r(1) = 4
    # letters, and the next, at 6..40, spans 35
    seq = ap.FuncSequence(
        BIN, lambda i: "1" if i in (1, 5) or (i >= 6 and i % 40 == 0) else "0",
        "sparse")
    with pytest.raises(ap.InvariantViolation,
                       match="block of length 35 exceeds the regulator window 4"):
        split(seq, "1", ap.identity_plus(3))


def test_split_and_reduce_read_the_scan_cap_when_called(monkeypatch):
    monkeypatch.setattr(ap.automata, "DEFAULT_SCAN_CAP", 10)
    with pytest.raises(ap.ResourceLimitError, match="exceeds cap 10"):
        split(thue_morse(), "0", ap.identity_plus(3))
    with pytest.raises(ap.ResourceLimitError, match="exceeds cap 10"):
        reduce_to_reversible(merge2_automaton(), thue_morse(), ap.identity_plus(3))


def test_split_and_reduce_refuse_an_oversized_window_before_reading_it():
    # 2r(1) letters past the scan cap cannot fit the closure scan either
    reg = ap.identity_plus(2 ** 40)
    with deadline(10):
        with pytest.raises(ap.ResourceLimitError,
                           match=f"^regulator windows of {2 ** 41 + 2} letters exceed"):
            split(thue_morse(), "0", reg)
        with pytest.raises(ap.ResourceLimitError, match="closure-scan cap 16777216$"):
            reduce_to_reversible(merge2_automaton(), thue_morse(), reg)
        with pytest.raises(ap.ResourceLimitError,
                           match=f"^regulator windows of {2 ** 41 + 2} letters exceed"):
            infinite_letters(thue_morse(), reg)


# ---------------------------------------------------------------------------
# Reference drivers: every machine stream runs the one linked-row loop, so it
# is checked here against plain per-letter loops over delta


def ref_run(auto, inputs, with_states=False):
    """Outputs of an automaton over a finite list of inputs, letter by letter;
    with_states writes the (input, current state) pair instead."""
    rows = {}
    for (q, s), v in auto.delta.items():
        rows.setdefault(q, {})[s] = v
    q = auto.initial
    out = []
    if with_states:
        for s in inputs:
            out.append((s, q))
            q = rows[q][s][0]
    else:
        for s in inputs:
            q, o = rows[q][s]
            out.append(o)
    return out


def ref_transduce(delta, q, inputs, stall_limit):
    """Output of a transducer over a finite list of inputs, letter by letter,
    and whether it ended after stall_limit consecutive silent inputs."""
    rows = {}
    for (p, s), v in delta.items():
        rows.setdefault(p, {})[s] = v
    stalled = 0
    out = []
    for s in inputs:
        q, o = rows[q][s]
        if o:
            stalled = 0
            out += o
        else:
            stalled += 1
            if stall_limit is not None and stalled >= stall_limit:
                return out, True
    return out, False


def assert_stream(stream, inputs, finite, expected, stalled=False):
    """The stream starts with the expected letters; where the reference
    says it ends, a read just past them raises FiniteOutputError with the
    produced count of a per-letter reader: the output length after a stall,
    the input length where a finite input runs out."""
    if expected:
        assert stream.read(0, len(expected) - 1).symbols == tuple(expected)
    if stalled or finite:
        with pytest.raises(ap.FiniteOutputError) as exc:
            stream.at(len(expected))
        assert exc.value.produced == (len(expected) if stalled else len(inputs))


def random_machine(rng, letters, outputs):
    """1-4 states over the letters; a transducer with outputs of 0-2 letters
    and an automaton with one-letter outputs."""
    states = tuple(f"q{i}" for i in range(rng.randint(1, 4)))
    words, letter_outs = {}, {}
    for q in states:
        for s in letters:
            nxt = rng.choice(states)
            words[(q, s)] = (nxt, tuple(rng.choice(outputs)
                                        for _ in range(rng.randint(0, 2))))
            letter_outs[(q, s)] = (rng.choice(states), rng.choice(outputs))
    sigma, out = Alphabet(tuple(letters)), Alphabet(tuple(outputs))
    return (Transducer(sigma, out, states, states[0], words),
            Automaton(sigma, out, states, states[0], letter_outs))


def reference_inputs(rng):
    """(letters, sequence maker, prefix, finite) for TM, the folded counting
    sequence and finite streams."""
    yield "01", thue_morse, read(thue_morse(), 0, 4999).symbols, False
    letters = "abc"[:rng.randint(1, 3)]
    fold = ap.FuncSequence(Alphabet(tuple(letters)),
                           lambda i: letters[bin(i).count("1") % len(letters)],
                           "folded counting sequence")
    yield letters, lambda: fold, read(fold, 0, 4999).symbols, False
    text = tuple(rng.choice(letters) for _ in range(rng.randint(0, 300)))
    yield (letters, lambda: ap.StreamSequence(Alphabet(tuple(letters)), iter(text),
                                              "finite"), text, True)


def test_drivers_match_per_letter_references():
    rng = random.Random(77)
    for _ in range(12):
        for letters, make, xs, finite in reference_inputs(rng):
            trans, auto = random_machine(rng, letters, "xy")
            assert_stream(run(auto, make()), xs, finite, ref_run(auto, xs))
            assert_stream(run(auto, make(), with_states=True), xs, finite,
                          ref_run(auto, xs, with_states=True))
            dec_auto, hom = transducer_decompose(trans)
            pairs = ref_run(dec_auto, xs)
            assert pairs == ref_run(trans, xs, with_states=True)
            if xs:
                whole, _ = ref_transduce(trans.delta, trans.initial, xs, None)
                traced = read(run(dec_auto, make()), 0, len(xs) - 1)
                assert hom.apply_word(traced).symbols == tuple(whole)
            for stall in (1, 3, 64, None):
                out, stalled = ref_transduce(trans.delta, trans.initial, xs, stall)
                assert_stream(transducer_run(trans, make(), stall_limit=stall),
                              xs, finite, out, stalled)
                one_state = {(None, s): (None, image) for s, image in hom.images.items()}
                h_out, h_stalled = ref_transduce(one_state, None, pairs, stall)
                assert (h_out, h_stalled) == (out, stalled)
                assert_stream(hom_apply(hom, run(dec_auto, make()), stall_limit=stall),
                              xs, finite, h_out, h_stalled)


def test_stacked_images_match_the_references_applied_in_turn():
    # a machine over a run image drives the run's input through one composed
    # machine; the inner image, read on its own before and after the outer
    # read, keeps its own letters
    rng = random.Random(78)
    for _ in range(8):
        for letters, make, xs, finite in reference_inputs(rng):
            trans, auto = random_machine(rng, letters, "xy")
            second_trans, second = random_machine(rng, "xy", "01")
            _, third = random_machine(rng, "01", "xy")
            mid = ref_run(auto, xs)
            chains = [
                (lambda x: run(second, run(auto, x)), ref_run(second, mid)),
                (lambda x: run(second, run(auto, x), with_states=True),
                 ref_run(second, mid, with_states=True)),
                (lambda x: run(third, run(second, run(auto, x))),
                 ref_run(third, ref_run(second, mid))),
            ]
            for chain, expected in chains:
                assert_stream(chain(make()), xs, finite, expected)
            dec_auto, hom = transducer_decompose(trans)
            _, auto_hom = transducer_decompose(auto)
            for stall in (1, 3, 64, None):
                out, stalled = ref_transduce(second_trans.delta, second_trans.initial,
                                             mid, stall)
                inner = run(auto, make())
                if xs:
                    assert inner.read(0, len(xs) // 2).symbols == tuple(mid[:len(xs) // 2 + 1])
                assert_stream(transducer_run(second_trans, inner, stall_limit=stall),
                              xs, finite, out, stalled)
                assert_stream(inner, xs, finite, mid)
                out, stalled = ref_transduce(trans.delta, trans.initial, xs, stall)
                inner = run(dec_auto, make())
                assert_stream(hom_apply(hom, inner, stall_limit=stall),
                              xs, finite, out, stalled)
                assert_stream(inner, xs, finite, ref_run(dec_auto, xs))
                # the with_states image of an automaton is its tracer's image
                out, stalled = ref_transduce(auto_hom.delta, None,
                                             ref_run(auto, xs, with_states=True), stall)
                assert out == mid[:len(out)]
                assert_stream(hom_apply(auto_hom, run(auto, make(), with_states=True),
                                        stall_limit=stall), xs, finite, out, stalled)


def test_a_machine_over_a_run_image_reads_the_run_input_once():
    fold = ap.FuncSequence(BIN, lambda i: "01"[bin(i).count("1") % 2], "fold")
    inner = run(xor_automaton(), fold, with_states=True)
    _, h = transducer_decompose(xor_automaton())
    out = hom_apply(h, inner)
    assert out.description == "hom:run[pairs]:fold"
    assert read(out, 0, 999).symbols == read(run(xor_automaton(), fold), 0, 999).symbols
    # the outer stream reads fold itself: the inner stream is never filled
    assert inner._buf == []
    assert read(inner, 0, 999).symbols == tuple(ref_run(xor_automaton(),
                                                        read(fold, 0, 999), True))


def test_composed_machines_build_only_the_pairs_their_letters_reach():
    # coprime periods 1000 and 1001 advance in lockstep through 1001000
    # pairs of states; reading a few letters builds a few of them
    first = cyclic_automaton(word("0" * 999 + "1"), BIN)
    then = cyclic_automaton(word("1" + "0" * 1000), first.output_alphabet)
    tracemalloc.start()
    try:
        out = run(then, run(first, thue_morse()))
        letters = read(out, 0, 199).symbols
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tm = read(thue_morse(), 0, 199).symbols
    assert letters == tuple(ref_run(then, ref_run(first, tm)))
    assert peak < 2 ** 20


def foreign_after_five():
    return ap.FuncSequence(BIN, lambda i: "01"[i % 2] if i < 5 else "2", "foreign")


class Digits(ap.SequenceHandle):
    """A handle class of user code whose letter k is k mod 3."""

    def _read_symbols(self, i, j):
        return tuple(str(k % 3) for k in range(i, j + 1))


@pytest.mark.parametrize("make, good", [
    (foreign_after_five, 5),
    (lambda: ap.StreamSequence(BIN, iter("0120")), 2),
    (lambda: Digits(BIN, "digits"), 2),
], ids=["index-function", "iterator", "handle-class"])
def test_a_foreign_letter_fails_at_its_own_index_through_machines(make, good):
    # letters of user code are checked where they enter, so a machine gets
    # the letters before a foreign one and the foreign one as AlphabetError
    h = Homomorphism(BIN, BIN, {"0": ("1",), "1": ("0",)})
    t = Transducer(BIN, BIN, ("q",), "q", {("q", s): ("q", o) for s, o in h.images.items()})
    expected = "10101"[:good]
    for image in (lambda seq: run(swap_automaton(), seq),
                  lambda seq: hom_apply(h, seq),
                  lambda seq: transducer_run(t, seq),
                  lambda seq: hom_apply(h, run(identity_automaton(), seq)),
                  lambda seq: run(swap_automaton(), run(identity_automaton(), seq))):
        seq = make()
        out = image(seq)
        assert read(out, 0, good - 1).text() == expected
        errors = []
        for i in (good, good, good + 7):
            with pytest.raises(ap.AlphabetError, match="^symbol '2' not in alphabet$") as exc:
                out.at(i)
            errors.append(exc.value)
        assert errors[0] is errors[1] is errors[2]
        assert read(out, 0, good - 1).text() == expected
        assert read(seq, 0, good - 1).text() == "01010"[:good]
        with pytest.raises(ap.AlphabetError, match="^symbol '2' not in alphabet$"):
            read(seq, 0, 9)
