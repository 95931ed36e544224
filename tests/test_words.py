"""Sequence constructions, schemes, and the spec mini-language."""

import pytest

import apwords as ap
from apwords import (
    Alphabet,
    SchemeSpec,
    SpecParseError,
    TauSpec,
    complement,
    make_sequence,
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

AB = Alphabet(("A", "B"))


def test_thue_morse_prefix():
    assert read(thue_morse(), 0, 15).text() == "0110100110010110"


def test_periodic_read():
    assert read(periodic(word("ab")), 5, 5).text() == "b"


def test_thm21_prefix():
    assert read(thm21(), 0, 23).text() == "1111" + "10011" * 4


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


def test_tm_block_prefix_chain():
    for n in range(16):
        a, b = tm_block(n), tm_block(n + 1)
        assert b.symbols[: len(a)] == a.symbols


def test_suffix_shift_identity():
    base = thue_morse()
    for n, i, j in [(0, 0, 7), (3, 0, 7), (17, 5, 40), (100, 0, 0)]:
        suf = make_sequence(f"suffix:{n}:tm")
        assert read(suf, i, j).symbols == read(base, n + i, n + j).symbols


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


def test_window_read_matches_single_reads():
    s = thm21()
    assert read(s, 10, 30).symbols == tuple(s.at(i) for i in range(10, 31))


def test_determinism_same_spec():
    h1 = make_sequence("thm21tau:45")
    h2 = make_sequence("thm21tau:45")
    assert read(h1, 0, 10 ** 5 - 1).symbols == read(h2, 0, 10 ** 5 - 1).symbols


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
    with pytest.raises(ap.SchemeError):
        # unequal image lengths
        SchemeSpec(AB, {"A": word("AB", AB), "B": word("BAB", AB)}, {"A": "0", "B": "1"}, "A")
    with pytest.raises(ap.SchemeError):
        # label B missing from decode
        SchemeSpec(AB, {"A": word("AB", AB), "B": word("BA", AB)}, {"A": "0"}, "A")
    with pytest.raises(ap.SchemeError):
        # start label's image does not begin with it
        SchemeSpec(AB, {"A": word("BA", AB), "B": word("AB", AB)}, {"A": "0", "B": "1"}, "A")


def test_scheme_file_roundtrip(tmp_path):
    p = tmp_path / "tm.scheme"
    p.write_text(
        "labels A B\nstart A\nrule A A B\nrule B B A\ndecode A 0\ndecode B 1\n"
    )
    spec = ap.parse_scheme_file(str(p))
    g = scheme_generate(spec)
    assert read(g, 0, 63).symbols == read(thue_morse(), 0, 63).symbols


# ---------------------------------------------------------------------------
# Spec mini-language


def test_parse_spec_tree():
    node = parse_spec("product:tm,periodic:01")
    assert node.kind == "product"
    assert [c.kind for c in node.children] == ["tm", "periodic"]


def test_parse_spec_error_position():
    with pytest.raises(SpecParseError) as exc:
        parse_spec("suffix:x:tm")
    assert exc.value.position == 7


def test_parse_spec_tau_pattern():
    node = parse_spec("thm21tau:455")
    assert node.kind == "thm21tau"
    assert node.args == ("455",)
    assert read(make_sequence("thm21tau:455"), 0, 4).text() == "11111"


def test_make_sequence_rejects_garbage():
    for bad in ["", "nope", "suffix:tm", "product:tm", "periodic:", "thm21tau:46"]:
        with pytest.raises((SpecParseError, ValueError)):
            make_sequence(bad)


def test_alphabet_invariants():
    with pytest.raises(ap.AlphabetError):
        Alphabet(("a", "a"))
    with pytest.raises(ap.AlphabetError):
        Alphabet(())
    with pytest.raises(ap.AlphabetError):
        word("abc", ap.BINARY)


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
