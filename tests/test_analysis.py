"""Brute-force oracles: occurrence scans, regulators, SAP, cubes, pr bounds."""

import functools
import random

import pytest

import apwords as ap
from apwords import (
    Alphabet,
    Counterexample,
    Regulator,
    Verdict,
    aligned_occurrences,
    check_regulator,
    check_sap,
    default_cut_grid,
    empirical_regulator,
    is_cube_free,
    make_sequence,
    occurrences,
    periodic,
    periodic_regulator,
    pr_upper_estimate,
    prepend,
    read,
    reg_thm21,
    scaled,
    thm21,
    thue_morse,
    tm_triple_fixture,
    verdict_fields,
    verdict_tsv,
    word,
)
from apwords.words import Word


@functools.lru_cache(maxsize=None)
def tm_empirical(horizon=2 ** 16):
    return ap.empirical_regulator(thue_morse(), horizon)


def test_occurrences_doubled_block():
    # the level-1 block inside its own square sits only at offsets 0 and 5
    seq = periodic(word("1001110011", ap.BINARY))
    assert occurrences(word("10011"), seq, 0, 5) == [0, 5]


def test_occurrences_rejects_empty_factor():
    with pytest.raises(ValueError):
        occurrences(word("", ap.BINARY), thue_morse(), 0, 10)


def test_occurrences_tm_prefix():
    assert occurrences(word("0"), thue_morse(), 0, 7) == [0, 3, 5, 6]


def test_occurrences_overlapping():
    seq = periodic(word("111", ap.BINARY))
    assert occurrences(word("11"), seq, 0, 4) == [0, 1, 2, 3, 4]


def test_aligned_occurrences():
    seq = periodic(word("1001110011", ap.BINARY))
    assert aligned_occurrences(word("10011"), seq, 5, 0, 5) == [0, 5]
    assert aligned_occurrences(word("10011"), seq, 1, 0, 5) == [0, 5]
    assert aligned_occurrences(word("10011"), seq, 3, 0, 5) == [0]


def test_block_alignment_in_quintuple_suffix():
    # past the first level-0 run, level-1 blocks repeat with period 5; all
    # occurrences in the next level window are aligned to that grid
    suf = make_sequence("suffix:4:thm21")
    occ = occurrences(word("10011"), suf, 0, 20)
    assert occ == [0, 5, 10, 15, 20]
    assert aligned_occurrences(word("10011"), suf, 5, 0, 20) == occ


def test_empirical_regulator_tm():
    B = tm_empirical()
    assert B.value(1) == 3
    # independent scan oracle for B(1): widest start-gap between equal letters
    text = read(thue_morse(), 0, 2 ** 16 - 1).text()
    worst = 0
    for ch in "01":
        starts = [i for i, c in enumerate(text) if c == ch]
        gaps = [starts[0]] + [b - a for a, b in zip(starts, starts[1:])]
        worst = max(worst, max(gaps))
    assert B.value(1) == worst


def test_empirical_regulator_simple_fixtures():
    ab = periodic(word("ab", Alphabet(("a", "b"))))
    assert empirical_regulator(ab, 1024).value(1) == 2
    ones = periodic(word("1", ap.BINARY))
    B = empirical_regulator(ones, 1024)
    for n in range(1, 9):
        assert B.value(n) == n


def test_empirical_regulator_monotone_and_bounded_below():
    B = tm_empirical()
    prev = 0
    for n in range(1, 17):
        v = B.value(n)
        assert v >= n and v >= prev
        prev = v


def test_empirical_regulator_horizon_guard():
    B = empirical_regulator(thue_morse(), 64)
    with pytest.raises(ap.ResourceLimitError):
        B.value(40)


def test_check_regulator_quintuple():
    v = check_regulator(thm21(), reg_thm21(), 5 ** 5, 6)
    assert v.status == "pass"
    assert v.note == "pass-at-horizon"
    assert v.counterexample is None


def test_check_regulator_constant_fails_with_reproducible_witness():
    seq = thm21()
    v = check_regulator(seq, Regulator(lambda n: 10, "derived", "const10"), 5 ** 5, 8)
    assert v.status == "fail"
    ce = v.counterexample
    assert ce is not None
    # reproduce: the factor is absent from the reported window
    lo, hi = ce.window_start, ce.window_start + ce.window_len - len(ce.factor)
    assert occurrences(ce.factor, seq, lo, hi) == []


def test_check_regulator_constant_sequence():
    ones = periodic(word("1", ap.BINARY))
    v = check_regulator(ones, Regulator(lambda n: n, "derived", "id"), 512, 6)
    assert v.status == "pass"


def test_check_regulator_monotone_falsifier():
    # passing for R implies passing for any pointwise-larger R'
    r = reg_thm21()
    assert check_regulator(thm21(), r, 5 ** 5, 6).status == "pass"
    assert check_regulator(thm21(), scaled(r, 2), 5 ** 5, 6).status == "pass"


def test_check_regulator_small_horizon_inconclusive():
    v = check_regulator(thm21(), reg_thm21(), 100, 8)
    assert v.status == "inconclusive"


def test_check_sap_tm():
    v = check_sap(thue_morse(), 2 ** 16, 16)
    assert v.status == "pass"


def test_check_sap_periodic():
    v = check_sap(periodic(word("abc", Alphabet(("a", "b", "c")))), 2 ** 12, 6)
    assert v.status == "pass"


def test_check_sap_quintuple_detects_nonrecurrent_blocks():
    v = check_sap(thm21(), 5 ** 6, 20)
    assert v.status == "fail"
    assert v.counterexample is not None
    # the level-1 quadruple block (length 20, last seen at position 9) is a
    # witnessed non-recurring factor
    c1 = word("10011" * 4)
    assert any(f.factor == c1 for _, f in v.failures)
    # reported counterexamples are reproducible non-recurrences
    ce = v.counterexample
    tail_occ = occurrences(ce.factor, thm21(), 5 ** 6 // 2, 5 ** 6 - len(ce.factor))
    assert tail_occ == []


def test_cube_free_examples():
    v = is_cube_free(word("010101"))
    assert v.status == "fail"
    # counterexample: repeated unit u plus the window holding uuu
    ce = v.counterexample
    assert ce.window_len == 3 * len(ce.factor)
    assert word("010101").symbols[ce.window_start : ce.window_start + ce.window_len] \
        == ce.factor.symbols * 3
    assert is_cube_free(read(thue_morse(), 0, 2 ** 10 - 1)).status == "pass"
    assert is_cube_free(word("0")).status == "pass"
    assert is_cube_free(word("", ap.BINARY)).status == "pass"


def test_cube_free_vs_naive_oracle():
    import random

    def naive(text):
        n = len(text)
        for p in range(1, n // 3 + 1):
            for i in range(n - 3 * p + 1):
                if text[i : i + p] == text[i + p : i + 2 * p] == text[i + 2 * p : i + 3 * p]:
                    return False
        return True

    rng = random.Random(5)
    for _ in range(200):
        text = "".join(rng.choice("01") for _ in range(rng.randint(1, 24)))
        got = is_cube_free(word(text, ap.BINARY)).status == "pass"
        assert got == naive(text)


def cube_scan_per_letter(w):
    """Reference cube scan: per period p and anchor t = kp (k >= 1), grow the
    agreement run between w and its shift by p letter by letter, forward
    without a cap and backward up to p letters; a run of length >= 2p is a
    cube starting where the backward run ends."""
    s = w.symbols
    n = len(s)
    for p in range(1, n // 3 + 1):
        t = p
        while t + p <= n:
            f = 0
            while t + p + f < n and s[t + f] == s[t + p + f]:
                f += 1
            b = 0
            while b < p and t - 1 - b >= 0 and s[t - 1 - b] == s[t + p - 1 - b]:
                b += 1
            if b + f >= 2 * p:
                i = t - b
                ce = Counterexample(Word(w.alphabet, s[i:i + p]), i, 3 * p)
                return Verdict("fail", n, counterexample=ce,
                               failures=((p, ce),), failure_count=1)
            t += p
    return Verdict("pass", n)


def test_cube_free_matches_per_letter_scan_on_random_words():
    rng = random.Random(20261018)
    verdicts = set()
    for _ in range(2000):
        letters = "abc"[:rng.randint(1, 3)]
        text = "".join(rng.choice(letters) for _ in range(rng.randint(0, 300)))
        w = word(text, Alphabet(tuple(letters)))
        got = is_cube_free(w)
        assert got == cube_scan_per_letter(w), text
        verdicts.add(got.status)
    assert verdicts == {"pass", "fail"}


def _random_cube_spec(rng, family):
    """One spec of a cube family of the bench's oracles-random job list."""
    def draw(letters, lo, hi):
        return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))
    if family == "periodic":
        return "periodic:" + draw("012", 1, 6)
    if family == "prepend":
        return "prepend:" + draw("01", 1, 5) + ":tm"
    if family == "thm21tau":
        return "thm21tau:" + draw("45", 1, 3)
    if family == "fixture":
        return f"fixture:tm-triple:{rng.randint(0, 3)}"
    return f"product:{rng.choice(('tm', 'thm21'))},periodic:" + draw("ab", 1, 4)


def test_cube_free_matches_per_letter_scan_on_cube_families():
    rng = random.Random(4)
    verdicts = set()
    for family in ("periodic", "prepend", "thm21tau", "fixture", "product"):
        for _ in range(2):
            seq = make_sequence(_random_cube_spec(rng, family))
            for h in (2 ** 9, 2 ** 10, 2 ** 11, 2 ** 12):
                w = read(seq, 0, h - 1)
                got = is_cube_free(w)
                assert got == cube_scan_per_letter(w), (seq.description, h)
                verdicts.add(got.status)
    assert verdicts == {"pass", "fail"}
    tm = read(thue_morse(), 0, 2 ** 15 - 1)
    assert is_cube_free(tm) == cube_scan_per_letter(tm) == Verdict("pass", 2 ** 15)


def test_default_cut_grid():
    assert default_cut_grid(64) == [0, 1, 2, 4, 8, 16, 32]
    assert default_cut_grid(2) == [0, 1]


def test_pr_estimate_tm_is_zero():
    assert pr_upper_estimate(thue_morse(), 2 ** 12, 8) == 0


def test_pr_estimate_triple_block_fixture_is_positive():
    # the prepended cube 010101 never recurs in the tail, so cut 0 fails
    est = pr_upper_estimate(tm_triple_fixture(1), 2 ** 12, 8)
    assert est is not None and est >= 1


def pr_by_cuts(seq, horizon, n_max, cut_grid=None, **fractions):
    """Reference pr estimate: the first sorted cut c, before the first with
    horizon - c < n_max, at which check_sap(seq.suffix(c), ...) passes."""
    grid = default_cut_grid(horizon) if cut_grid is None else cut_grid
    for c in sorted(grid):
        if horizon - c < n_max:
            break
        if check_sap(seq.suffix(c), horizon - c, n_max, **fractions).passed:
            return c
    return None


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def test_pr_estimate_matches_per_cut_definition():
    rng = random.Random(77)
    families = ("periodic", "prepend", "thm21tau", "fixture", "product")
    estimates = set()
    for i in range(60):
        spec = rng.choice(("tm", "thm21") + families)
        if spec in families:
            spec = _random_cube_spec(rng, spec)
        seq = make_sequence(spec)
        horizon = rng.randint(2 ** 6, 2 ** 10)
        n_max = rng.randint(1, 10)
        kwargs = {}
        if i % 3 == 1:
            # unsorted, with duplicates and cuts past horizon - n_max
            kwargs["cut_grid"] = [rng.randint(0, horizon) for _ in range(8)] * 2
        if i % 2 == 1:
            kwargs["recur_fraction"] = rng.choice((0.3, 0.5, 0.7))
            kwargs["gap_fraction"] = rng.choice((0.1, 0.25, 0.4))
        got = pr_upper_estimate(seq, horizon, n_max, **kwargs)
        assert got == pr_by_cuts(seq, horizon, n_max, **kwargs), (spec, horizon, n_max, kwargs)
        estimates.add(got if got in (None, 0) else "positive")
    assert estimates == {None, 0, "positive"}


def test_pr_estimate_judges_gaps_past_the_cut_only():
    # "0" starts at 0, is absent for 1100 letters, then recurs every 3: its
    # widest start-gap lies before cut 128, which passes
    seq = prepend(word("0" + "1" * 1099), periodic(word("011")))
    assert pr_upper_estimate(seq, 4096, 2) == pr_by_cuts(seq, 4096, 2) == 128


def test_pr_estimate_thm21_at_cap_60():
    h = 5 ** 6
    assert pr_upper_estimate(thm21(), h, 60) == pr_by_cuts(thm21(), h, 60) == 128


def test_pr_estimate_errors_match_per_cut_definition():
    tm = thue_morse()
    for args, kwargs in [
        ((tm, 256, 0), {}),
        ((tm, 256, -3), {}),
        ((tm, 256, 4), {"cut_grid": [8, -2, 0]}),
        ((tm, 256, 0), {"cut_grid": [-1]}),
        ((tm, 256, 4), {"cut_grid": [300, -1]}),  # stops before any cut
    ]:
        got = _outcome(pr_upper_estimate, *args, **kwargs)
        assert got == _outcome(pr_by_cuts, *args, **kwargs), (args, kwargs)
    assert _outcome(pr_upper_estimate, tm, 256, 0)[0] is ValueError
    assert _outcome(pr_upper_estimate, tm, 256, 4, cut_grid=[-1])[0] is ValueError


def test_verdict_report_shape():
    v = check_sap(periodic(word("ab", Alphabet(("a", "b")))), 1024, 4)
    fields = verdict_fields("check-sap", "periodic:ab", 4, v)
    assert list(fields) == [
        "op",
        "spec",
        "horizon",
        "n_max",
        "status",
        "note",
        "failure_count",
        "counterexample",
    ]
    line = verdict_tsv(fields)
    assert line.split("\t")[0] == "check-sap"
    assert line.split("\t")[4] == "pass"


def test_lower_bound_consistency_periodic():
    for text in ["ab", "abc", "aabb"]:
        sigma = Alphabet(tuple(sorted(set(text))))
        seq = periodic(word(text, sigma))
        B = empirical_regulator(seq, 2048)
        R = periodic_regulator(len(text))
        for n in range(1, 9):
            assert B.value(n) <= R(n)
