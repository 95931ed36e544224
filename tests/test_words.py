"""Sequence constructions, schemes, and the spec mini-language."""

import ast
import sys
import tracemalloc
from pathlib import Path

import pytest

import apwords as ap
from apwords import (
    Alphabet,
    SchemeSpec,
    SpecNode,
    SpecParseError,
    TauSpec,
    complement,
    make_sequence,
    parse_scheme_file,
    parse_spec,
    periodic,
    prepend,
    product,
    projections,
    read,
    scheme_generate,
    scheme_validate,
    thm21,
    thm21_block,
    thm21_tau,
    thue_morse,
    tm_block,
    tm_triple_fixture,
    word,
)
from conftest import deadline

AB = Alphabet(("A", "B"))
SCHEMES = Path(__file__).parent / "schemes"


def test_thue_morse_prefix():
    assert read(thue_morse(), 0, 15).text() == "0110100110010110"


def test_periodic_read():
    assert read(periodic(word("ab")), 5, 5).text() == "b"
    with pytest.raises(ValueError, match="^period word must be non-empty$"):
        periodic(word("", ap.BINARY))


def test_thm21_prefix():
    assert read(thm21(), 0, 23).text() == "1111" + "10011" * 4


def test_a_word_equals_only_words():
    assert word("01") == ap.Word(Alphabet("012"), "01")
    assert word("01") != "01" and word("01") != ("0", "1")


def test_complement_examples():
    assert complement(word("10011")).text() == "01100"
    assert complement(word("", ap.BINARY)).text() == ""


def test_complement_involution():
    import random

    rng = random.Random(1)
    for _ in range(50):
        w = word("".join(rng.choice("01") for _ in range(rng.randint(0, 12))), ap.BINARY)
        assert complement(complement(w)) == w


def test_complement_needs_two_letters():
    w = word("abc", Alphabet(("a", "b", "c")))
    with pytest.raises(ap.AlphabetError):
        complement(w)


def test_quintuple_blocks():
    assert thm21_block(1).text() == "10011"
    assert thm21_block(2).text() == "1001101100011001001110011"
    assert len(thm21_block(4)) == 625


def test_quintuple_block_recursion():
    for n in range(8):
        a = thm21_block(n)
        abar = complement(a)
        expect = a.symbols + abar.symbols + abar.symbols + a.symbols + a.symbols
        assert thm21_block(n + 1).symbols == expect
        assert len(thm21_block(n)) == 5 ** n


def test_tm_blocks():
    assert tm_block(0).text() == "0"
    assert tm_block(2).text() == "0110"
    assert tm_block(4).text() == "0110100110010110"


def test_tm_block_refuses_a_negative_level():
    with pytest.raises(ValueError, match="^level must be >= 0$"):
        tm_block(-1)


def test_tm_block_prefix_chain():
    for n in range(16):
        a, b = tm_block(n), tm_block(n + 1)
        assert b.symbols[: len(a)] == a.symbols


def test_suffix_shift_identity():
    base = thue_morse()
    for n, i, j in [(0, 0, 7), (3, 0, 7), (17, 5, 40), (100, 0, 0)]:
        suf = make_sequence(f"suffix:{n}:tm")
        assert read(suf, i, j).symbols == read(base, n + i, n + j).symbols
    with pytest.raises(ValueError, match="^suffix shift must be >= 0$"):
        base.suffix(-1)


def test_suffix_full_period_is_identity():
    s = make_sequence("suffix:3:periodic:abc")
    p = periodic(word("abc", Alphabet(("a", "b", "c"))))
    assert read(s, 0, 20).symbols == read(p, 0, 20).symbols


def test_product_pairs():
    s = make_sequence("product:tm,periodic:01")
    assert read(s, 0, 3).symbols == (
        ("0", "0"),
        ("1", "1"),
        ("1", "0"),
        ("0", "1"),
    )


def test_product_projections_roundtrip():
    a = thue_morse()
    b = periodic(word("012", Alphabet(("0", "1", "2"))))
    pa, pb = projections(product(a, b))
    assert read(pa, 0, 99).symbols == read(a, 0, 99).symbols
    assert read(pb, 0, 99).symbols == read(b, 0, 99).symbols


def test_prepend_reads():
    s = prepend(word("0"), periodic(word("1", ap.BINARY)))
    assert read(s, 0, 4).text() == "01111"
    with pytest.raises(ap.AlphabetError,
                       match="^prepended symbol '2' not in sequence alphabet$"):
        prepend(word("2", Alphabet(("2",))), thue_morse())


@pytest.mark.parametrize("spec, head, shift", [
    ("prepend:01:prepend:10:tm", "0110", 0),
    ("suffix:2:prepend:0110:tm", "10", 0),
    ("suffix:9:prepend:0110:tm", "", 5),
    ("prepend:01:suffix:5:thm21", "01", 6),
    ("suffix:7:suffix:3:thm21", "", 11),
    ("thm21tau:45", "", 1),
    ("fixture:tm-triple:2", "0110" * 3, 0),
])
def test_prepends_and_suffixes_fold_into_one_view_of_a_fixed_point(spec, head, shift):
    seq = make_sequence(spec)
    assert type(seq) is ap.words._View and type(seq._base) is ap.words._FixedPoint
    assert (seq._head, seq._shift) == (tuple(head), shift)
    assert repr(seq) == f"<_View {spec!r}>"


def test_window_read_matches_single_reads():
    s = thm21()
    assert read(s, 10, 30).symbols == tuple(s.at(i) for i in range(10, 31))


def test_determinism_same_spec():
    h1 = make_sequence("thm21tau:45")
    h2 = make_sequence("thm21tau:45")
    assert read(h1, 0, 10 ** 5 - 1).symbols == read(h2, 0, 10 ** 5 - 1).symbols


def test_thm21tau_handles_share_their_levels_per_pattern():
    h1, h2 = make_sequence("thm21tau:45"), thm21_tau((4, 5))
    assert h1 is not h2 and h1._base is h2._base
    assert h1.description == h2.description == "thm21tau:45"
    first = read(h1, 0, 10 ** 4).symbols
    for k in range(40):  # more patterns than are kept
        t = thm21_tau(tuple(4 + (k >> j & 1) for j in range(6)))
        assert t.description == "thm21tau:" + "".join(str(4 + (k >> j & 1)) for j in range(6))
    assert len(ap.words._PASTED) <= 32
    h3 = thm21_tau((4, 5))
    assert h3._base is not h1._base and read(h3, 0, 10 ** 4).symbols == first


def test_tau_all_fours_is_base_sequence():
    t = thm21_tau(TauSpec((4,)))
    assert read(t, 0, 999).symbols == read(thm21(), 0, 999).symbols


def test_tau_pattern_prefix():
    # tau = 5,4,5,4,...: c0 = a0^5, then c1 = a1^4, then a2... begins.
    t = thm21_tau(TauSpec((5, 4)))
    assert read(t, 0, 24).text() == "11111" + "10011" * 4


def test_tau_validation():
    with pytest.raises(ValueError):
        TauSpec(())
    with pytest.raises(ValueError):
        TauSpec((4, 6))


def test_stream_sequence_finite_output():
    s = ap.StreamSequence(ap.BINARY, iter("0101"), "finite")
    assert read(s, 0, 3).text() == "0101"
    with pytest.raises(ap.FiniteOutputError):
        s.at(4)


def test_a_whole_buffer_read_holds_one_copy_of_the_letters():
    n = 2 ** 16
    seq = ap.StreamSequence._of_fill(ap.BINARY, lambda need: ["1"] * need)
    assert len(read(seq, 0, n - 1)) == len(seq._buf) == n
    tracemalloc.start()
    try:
        w = read(seq, 0, n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.symbols == ("1",) * n
    assert peak < 1.5 * sys.getsizeof(w.symbols)  # the tuple, and no list slice

    class FilledDuringCopy(list):
        def __iter__(self):  # a concurrent fill between the length check and the copy
            self.append("0")
            return super().__iter__()

    seq._buf = FilledDuringCopy(seq._buf)
    assert read(seq, 0, n - 1) == w and len(seq._buf) == n + 1
    assert read(seq, 1, n).symbols == w.symbols[1:] + ("0",)


def test_negative_index_is_rejected_like_a_negative_read():
    tm = thue_morse()
    pairs = product(tm, periodic(word("01")))
    auto = ap.cyclic_automaton(word("ab"), ap.BINARY)
    for seq in (tm, ap.quintuple_limit(), scheme_generate(tm_scheme()), thm21(),
                thm21_tau((4, 5)), periodic(word("01")), prepend(word("0"), tm),
                tm.suffix(3), pairs, projections(pairs)[1], tm_triple_fixture(1),
                ap.FuncSequence(ap.BINARY, lambda i: "01"[i % 2], "alternating"),
                ap.StreamSequence(ap.BINARY, iter("0101"), "finite"),
                ap.run(auto, tm), make_sequence("suffix:2:prepend:01:tm")):
        read(seq, 0, 3)  # fill a stream's buffer, which a negative index reached
        for i in (-1, -5):
            with pytest.raises(ValueError) as by_read:
                seq.read(i, i)
            with pytest.raises(ValueError) as by_at:
                seq.at(i)
            assert str(by_at.value) == str(by_read.value), seq


def test_tm_triple_fixture_prefix():
    # tm a_1 = "01"; fixture is a_1 a_1 a_1 followed by thue_morse.
    assert read(tm_triple_fixture(1), 0, 9).text() == "0101010110"


# ---------------------------------------------------------------------------
# Schemes


def tm_scheme():
    return SchemeSpec(
        AB, {"A": word("AB", AB), "B": word("BA", AB)}, {"A": "0", "B": "1"}, "A"
    )


def quintuple_scheme():
    return SchemeSpec(
        AB,
        {"A": word("ABBAA", AB), "B": word("BAABB", AB)},
        {"A": "1", "B": "0"},
        "A",
    )


def test_scheme_generates_thue_morse():
    g = scheme_generate(tm_scheme())
    assert read(g, 0, 255).symbols == read(thue_morse(), 0, 255).symbols


def test_scheme_single_label_constant():
    one = Alphabet(("L",))
    s = SchemeSpec(one, {"L": word("LL", one)}, {"L": "1"}, "L")
    assert read(scheme_generate(s), 0, 9).text() == "1" * 10


def test_scheme_generates_quintuple_limit():
    g = scheme_generate(quintuple_scheme())
    nu = ap.quintuple_limit()
    assert read(g, 0, 624).symbols == read(nu, 0, 624).symbols
    # the limit extends every level block
    assert read(nu, 0, 24).text() == thm21_block(2).text()


def test_scheme_aligned_blocks_decode_to_level_images():
    spec = quintuple_scheme()
    g = scheme_generate(spec)
    # level-n images under iteration of the rules
    level = {lab: word(lab, AB) for lab in "AB"}
    decode = lambda w: "".join(spec.decode[s] for s in w.symbols)
    for n in range(1, 4):
        level = {
            lab: word("".join(spec.rules[s].text() for s in level[lab].symbols), AB)
            for lab in "AB"
        }
        images = {decode(w) for w in level.values()}
        k = 5 ** n
        for i in range(4):
            assert read(g, i * k, (i + 1) * k - 1).text() in images


def brute_pair_check(spec):
    """Independent oracle: every ordered label pair adjacent in every image."""
    labels = list(spec.labels)
    for x in labels:
        for y in labels:
            for img in spec.rules.values():
                syms = img.symbols
                if not any(
                    syms[i] == x and syms[i + 1] == y for i in range(len(syms) - 1)
                ):
                    return False
    return True


def test_scheme_validate_basic():
    v = scheme_validate(tm_scheme())
    assert v.basic_ok and v.strengthened_ok is None
    spec = parse_scheme_file(SCHEMES / "missing-label.scheme")
    v = scheme_validate(spec)
    assert not v.basic_ok and not v.ok and v.strengthened_ok is None
    assert v.failures == ("label 'C' missing from image of 'A'",)
    with pytest.raises(ap.SchemeError, match="^scheme rejected: label 'C' missing"):
        scheme_generate(spec)


def test_scheme_validate_strengthened_tm_fails():
    # image length 2 holds a single adjacent pair, so the pair condition
    # cannot be met; cross-checked against the brute-force enumeration.
    v = scheme_validate(tm_scheme(), strengthened=True)
    assert v.basic_ok and v.strengthened_ok is False
    assert not brute_pair_check(tm_scheme())


def test_scheme_validate_strengthened_vs_oracle():
    spec = SchemeSpec(
        AB, {"A": word("ABBA", AB), "B": word("BAAB", AB)}, {"A": "0", "B": "1"}, "A"
    )
    v = scheme_validate(spec, strengthened=True)
    assert v.strengthened_ok == brute_pair_check(spec)
    v5 = scheme_validate(quintuple_scheme(), strengthened=True)
    assert v5.strengthened_ok == brute_pair_check(quintuple_scheme())


def test_scheme_rejects_bad_specs():
    decode = {"A": "0", "B": "1"}
    # unequal image lengths, and a start whose first labels cycle A -> B -> A
    SchemeSpec(AB, {"A": word("AB", AB), "B": word("BAB", AB)}, decode, "A")
    SchemeSpec(AB, {"A": word("BA", AB), "B": word("AB", AB)}, decode, "A")
    with pytest.raises(ap.SchemeError):
        # a one-label image
        SchemeSpec(AB, {"A": word("AB", AB), "B": word("B", AB)}, decode, "A")
    with pytest.raises(ap.SchemeError):
        # label B missing from decode
        SchemeSpec(AB, {"A": word("AB", AB), "B": word("BA", AB)}, {"A": "0"}, "A")
    with pytest.raises(ap.SchemeError):
        # first labels A -> B -> B -> ... never lead back to the start
        SchemeSpec(AB, {"A": word("BA", AB), "B": word("BA", AB)}, decode, "A")


def test_scheme_file_roundtrip(tmp_path):
    p = tmp_path / "tm.scheme"
    p.write_text(
        "labels A B\nstart A\nrule A A B\nrule B B A\ndecode A 0\ndecode B 1\n"
    )
    spec = ap.parse_scheme_file(str(p))
    g = scheme_generate(spec)
    assert read(g, 0, 63).symbols == read(thue_morse(), 0, 63).symbols


TM_SCHEME_TEXT = "labels A B\nstart A\nrule A A B\nrule B B A\ndecode A 0\ndecode B 1\n"


@pytest.mark.parametrize("extra, message", [
    ("labels A B", "repeated 'labels' stanza"),
    ("start B", "repeated 'start' stanza"),
    ("rule A A A", "repeated 'rule A' stanza"),
    ("decode B 0", "repeated 'decode B' stanza"),
    ("rule C C A", "rule for undeclared label 'C'"),
    ("decode C 1", "decode for undeclared label 'C'"),
])
def test_scheme_file_rejects_repeats_and_undeclared_labels(tmp_path, extra, message):
    p = tmp_path / "bad.scheme"
    p.write_text(TM_SCHEME_TEXT + extra + "\n")  # the seventh line
    with pytest.raises(ap.SchemeError) as exc:
        ap.parse_scheme_file(str(p))
    assert str(exc.value) == f"{p}:7: {message}"


@pytest.mark.parametrize("text, message", [
    ("labels\nstart A\n", ":1: alphabet must be non-empty"),
    ("labels A A\n", ":1: duplicate symbol 'A'"),
    (TM_SCHEME_TEXT.replace("rule A A B", "rule A A C"),
     ":3: rule image symbol 'C' is not a label"),
    (TM_SCHEME_TEXT.replace("rule B B A", "rule B B"),
     ":4: rule images must have length >= 2"),
    (TM_SCHEME_TEXT.replace("start A", "start B").replace("B B A", "B A B"),
     ":2: first labels of images from the start label must lead back to it"),
    (TM_SCHEME_TEXT.replace("decode B 1\n", ""), ":1: no decode entry for label 'B'"),
    (TM_SCHEME_TEXT.replace("start A\n", ""),
     ": start label missing from label alphabet"),
])
def test_scheme_file_errors_name_the_stanza_at_fault(tmp_path, text, message):
    p = tmp_path / "bad.scheme"
    p.write_text(text)
    with pytest.raises((ap.SchemeError, ap.AlphabetError)) as exc:
        ap.parse_scheme_file(str(p))
    assert str(exc.value) == f"{p}{message}"


@pytest.mark.parametrize("text, prefix", [
    # images of lengths 2 and 3
    (TM_SCHEME_TEXT.replace("rule B B A", "rule B B A A"), "0110010001011000"),
    # first labels A -> B -> A: the fixed point of sigma^2 from A
    (TM_SCHEME_TEXT.replace("A A B", "A B A").replace("B B A", "B A B"),
     "0110100110010110"),
])
def test_scheme_file_accepts_unequal_images_and_a_start_cycle(tmp_path, text, prefix):
    p = tmp_path / "ok.scheme"
    p.write_text(text)
    assert read(scheme_generate(ap.parse_scheme_file(str(p))), 0, 15).text() == prefix


def test_scheme_file_labels_may_follow_rules(tmp_path):
    p = tmp_path / "late.scheme"
    lines = TM_SCHEME_TEXT.splitlines()
    p.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
    spec = ap.parse_scheme_file(str(p))
    assert read(scheme_generate(spec), 0, 15).text() == "0110100110010110"


# ---------------------------------------------------------------------------
# Spec mini-language


def test_parse_spec_tree():
    node = parse_spec("product:tm,periodic:01")
    assert node.kind == "product"
    assert [c.kind for c in node.children] == ["tm", "periodic"]


@pytest.mark.parametrize("spec, tree", [
    ("tm", SpecNode("tm")),
    ("thm21", SpecNode("thm21")),
    ("thm21tau:455", SpecNode("thm21tau", ("455",))),
    ("periodic:012", SpecNode("periodic", ("012",))),
    ("prepend:01:tm", SpecNode("prepend", ("01",), (SpecNode("tm"),))),
    ("suffix:12:thm21", SpecNode("suffix", (12,), (SpecNode("thm21"),))),
    ("product:tm,periodic:01",
     SpecNode("product", (), (SpecNode("tm"), SpecNode("periodic", ("01",))))),
    ("scheme:C:/dir/x.scheme", SpecNode("scheme", ("C:/dir/x.scheme",))),
    ("fixture:tm-triple:3", SpecNode("fixture", (3,))),
    ("suffix:3:prepend:1:product:suffix:2:tm,prepend:0:periodic:10",
     SpecNode("suffix", (3,), (SpecNode("prepend", ("1",), (SpecNode("product", (), (
         SpecNode("suffix", (2,), (SpecNode("tm"),)),
         SpecNode("prepend", ("0",), (SpecNode("periodic", ("10",)),)),
     )),)),))),
    ("product:product:tm,thm21,scheme:a:b",
     SpecNode("product", (), (
         SpecNode("product", (), (SpecNode("tm"), SpecNode("thm21"))),
         SpecNode("scheme", ("a:b",)),
     ))),
])
def test_parse_spec_whole_trees(spec, tree):
    assert parse_spec(spec) == tree


def test_build_sequence_refuses_an_unknown_node_kind():
    with pytest.raises(ValueError, match="^unknown node kind 'nope'$"):
        ap.words.build_sequence(SpecNode("nope"))


def test_parse_spec_error_position():
    with pytest.raises(SpecParseError) as exc:
        parse_spec("suffix:x:tm")
    assert exc.value.position == 7


@pytest.mark.parametrize("spec, position", [
    ("suffix:\u0663:tm", 7), ("suffix:\u00b2:tm", 7), ("fixture:tm-triple:\u0663", 18),
])
def test_parse_spec_numbers_are_ascii_digits(spec, position):
    with pytest.raises(SpecParseError) as exc:
        parse_spec(spec)
    assert exc.value.position == position


def test_parse_spec_tau_pattern():
    node = parse_spec("thm21tau:455")
    assert node.kind == "thm21tau"
    assert node.args == ("455",)
    assert read(make_sequence("thm21tau:455"), 0, 4).text() == "11111"


def test_make_sequence_rejects_garbage():
    for bad in ["", "nope", "suffix:tm", "product:tm", "periodic:", "thm21tau:46"]:
        with pytest.raises((SpecParseError, ValueError)):
            make_sequence(bad)


def test_func_sequence_raises_only_where_a_read_reaches_a_failing_index():
    def fn(i):
        if i == 5000:
            raise ZeroDivisionError(i)
        return "01"[i % 2]

    seq = ap.FuncSequence(ap.BINARY, fn, "fails at 5000")
    for _ in range(2):
        assert read(seq, 5001, 5002).text() == "10"
        assert read(seq, 4098, 4999).text() == "01" * 451
        with pytest.raises(ZeroDivisionError):
            read(seq, 4990, 5010)
        with pytest.raises(ZeroDivisionError):
            seq.at(5000)
    assert read(seq, 0, 3).text() + read(seq, 8192, 8193).text() == "010101"


def test_func_sequence_checks_each_letter_where_fn_makes_it():
    # a foreign letter fails at its own index, like an error of fn, also on
    # a read that starts past an earlier failure and so calls fn index by index
    def fn(i):
        if i == 3:
            raise ZeroDivisionError(i)
        return "2" if i in (6, 5000) else "01"[i % 2]

    seq = ap.FuncSequence(ap.BINARY, fn, "foreign at 6 and 5000")
    for _ in range(2):
        assert read(seq, 0, 2).text() == "010"
        with pytest.raises(ZeroDivisionError):
            read(seq, 0, 9)
        assert read(seq, 4, 5).text() == "01"
        with pytest.raises(ap.AlphabetError, match="^symbol '2' not in alphabet$"):
            read(seq, 4, 9)
        with pytest.raises(ap.AlphabetError, match="^symbol '2' not in alphabet$"):
            seq.at(6)
        assert read(seq, 7, 4999).text() == ("01" * 2500)[7:5000]
        with pytest.raises(ap.AlphabetError):
            read(seq, 4990, 5010)
        assert read(seq, 5001, 5002).text() == "10"


def test_stream_sequence_checks_each_letter_of_its_iterator():
    seq = ap.StreamSequence(ap.BINARY, iter("0120"))
    assert read(seq, 0, 1).text() == "01"
    for _ in range(2):
        with pytest.raises(ap.AlphabetError, match="^symbol '2' not in alphabet$"):
            read(seq, 0, 3)
    assert read(seq, 0, 1).text() == "01"


@pytest.mark.parametrize("path", ["read", "at", "suffix", "prepend", "product",
                                  "first-projection", "second-projection"])
def test_read_checks_the_letters_of_a_handle_class_defined_elsewhere(path):
    class Digits(ap.SequenceHandle):
        def _read_symbols(self, i, j):
            return tuple(str(k % 3) for k in range(i, j + 1))

    digits = Digits(ap.BINARY, "digits")
    pairs = product(digits, thue_morse())
    # each path's handle and its letters before the first '2' of digits
    seq, before = {
        "read": (digits, ("0", "1")),
        "at": (digits, ("0", "1")),
        "suffix": (digits.suffix(1), ("1",)),
        "prepend": (prepend("1", digits), ("1", "0", "1")),
        "product": (pairs, (("0", "0"), ("1", "1"))),
        "first-projection": (projections(pairs)[0], ("0", "1")),
        "second-projection": (projections(pairs)[1], ("0", "1")),
    }[path]
    if path == "at":
        def letters(j):
            return tuple(seq.at(k) for k in range(j + 1))
    else:
        def letters(j):
            return read(seq, 0, j).symbols
    assert letters(len(before) - 1) == before
    for _ in range(2):
        with pytest.raises(ap.AlphabetError, match="^symbol '2' not in alphabet$"):
            letters(len(before))
    assert letters(len(before) - 1) == before


def test_read_is_the_only_caller_of_the_range_read():
    # a composite that read a child's _read_symbols directly would skip the
    # check read makes of a handle class defined elsewhere
    src = Path(ap.__file__).parent
    callers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node)
                   for cls in tree.body if isinstance(cls, ast.ClassDef)
                   and cls.name == "SequenceHandle"
                   for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "read"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == "_read_symbols":
                callers.append((path.name, node.lineno, id(node) in allowed))
    assert callers and [(name, line) for name, line, ok in callers if not ok] == []


def test_alphabet_invariants():
    with pytest.raises(ap.AlphabetError):
        Alphabet(("a", "a"))
    with pytest.raises(ap.AlphabetError):
        Alphabet(())
    with pytest.raises(ap.AlphabetError):
        word("abc", ap.BINARY)
    with pytest.raises(ap.AlphabetError, match="^symbol '2' not in alphabet$"):
        ap.BINARY.index("2")


def test_alphabet_letter_codes_round_trip():
    tm = read(thue_morse(), 0, 999).symbols
    pairs = Alphabet(tuple((a, b) for a in "01" for b in "xyz"))
    for alphabet, symbols in [
        (ap.BINARY, tm),
        (pairs, tuple(pairs.symbols[3 * a + i % 3] for i, a in enumerate(map(int, tm)))),
        (Alphabet(range(300)), tuple(range(300)) + (299, 0, 255, 256, 7) * 3),
        (Alphabet(range(60000)), tuple(range(0, 60000, 7)) + tuple(range(0xD7F0, 0xE010))),
    ]:
        text = alphabet.encode(symbols)
        assert len(text) == len(symbols) and alphabet.decode(text) == symbols
        codes = [alphabet.encode((s,)) for s in alphabet.symbols]
        assert len(set(codes)) == len(alphabet) and all(len(c) == 1 for c in codes)
        assert text == "".join(codes[alphabet.index(s)] for s in symbols)
    # one-character letters below U+0100 are their own codes; others are
    # numbered, into the surrogate block from symbol 0xD800 on
    assert ap.BINARY.encode(tm) == "".join(tm)
    assert Alphabet(("b", "\xff", "a")).encode("ab\xff") == "ab\xff"
    assert Alphabet(("b", "\u0100")).encode(("\u0100", "b")) == "\x01\x00"
    assert pairs.encode((("1", "z"),)) == "\x05"
    assert Alphabet(range(60000)).encode((0xD800, 0xDFFF)) == "\ud800\udfff"


def test_blocks_past_the_symbol_limit_are_refused_before_any_read(monkeypatch):
    reads = []
    monkeypatch.setattr(ap.words._FixedPoint, "_read_symbols",
                        lambda self, i, j: reads.append((i, j)))
    with pytest.raises(ap.ResourceLimitError):
        tm_block(26)
    with pytest.raises(ap.ResourceLimitError):
        thm21_block(11)
    assert reads == []


def test_stream_sequence_keeps_the_generator_error():
    def gen():
        yield from "01101"
        raise ap.InvariantViolation("bad letter 5")

    s = ap.StreamSequence(ap.BINARY, gen(), "failing")
    assert read(s, 0, 4).text() == "01101"
    errors = []
    for _ in range(2):
        with pytest.raises(ap.InvariantViolation) as exc:
            s.at(5)
        errors.append(exc.value)
    assert errors[0] is errors[1]
    with pytest.raises(ap.InvariantViolation):
        read(s, 3, 7)
    assert read(s, 2, 4).text() == "101"


def test_stream_sequence_error_traceback_does_not_grow_with_reads():
    def gen():
        yield from "0110100110"
        raise ZeroDivisionError("letter 10")

    s = ap.StreamSequence(ap.BINARY, gen(), "failing")

    def depth():
        with pytest.raises(ZeroDivisionError) as exc:
            s.at(10)
        tb, n = exc.value.__traceback__, 0
        while tb is not None:
            tb, n = tb.tb_next, n + 1
        return n

    with deadline(10):
        first = depth()
        for _ in range(999):
            last = depth()
    assert last == first
