"""Brute-force oracles: occurrence scans, regulators, SAP, cubes, pr bounds."""

import functools
import math
import random

import pytest

import apwords as ap
from apwords import (
    Alphabet,
    Counterexample,
    Regulator,
    Verdict,
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
from apwords.analysis import (
    _WEIGHTS,
    FactorIndex,
    _factor_stats,
    _seq_text,
    _widest_gap,
    _window_names,
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
    for lo, hi in ((5, 4), (-1, 4)):
        with pytest.raises(ValueError, match=rf"^bad scan range \[{lo}, {hi}\]$"):
            occurrences(word("01"), thue_morse(), lo, hi)


def test_occurrences_tm_prefix():
    assert occurrences(word("0"), thue_morse(), 0, 7) == [0, 3, 5, 6]
    # a factor with letters foreign to the alphabet occurs nowhere
    assert occurrences(word("ab"), thue_morse(), 0, 7) == []


def test_occurrences_overlapping():
    seq = periodic(word("111", ap.BINARY))
    assert occurrences(word("11"), seq, 0, 4) == [0, 1, 2, 3, 4]


def test_block_alignment_in_quintuple_suffix():
    # past the first level-0 run, level-1 blocks repeat with period 5; all
    # occurrences in the next level window are aligned to that grid
    suf = make_sequence("suffix:4:thm21")
    occ = occurrences(word("10011"), suf, 0, 20)
    assert occ == [0, 5, 10, 15, 20]


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
    # lengths up to horizon // 2 are bounded, the next one is refused
    B = empirical_regulator(thue_morse(), 16)
    assert B.value(8) == 15
    with pytest.raises(ap.ResourceLimitError,
                       match="^empirical bound for n=9 unsupported at horizon 16$"):
        B.value(9)
    # horizon 1 is accepted, with no length it can bound; horizon 0 is not
    assert ap.EmpiricalRegulator(thue_morse(), 1).table == {}
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        ap.EmpiricalRegulator(thue_morse(), 0)
    with pytest.raises(ValueError, match="^factor length must be >= 1$"):
        ap.EmpiricalRegulator(thue_morse(), 64).value(0)


def factor_stats_per_position(text, n):
    """Reference factor statistics: one forward pass over every start of
    the text, factor -> [first, last, maxgap, gap_prev]."""
    stats = {}
    for i in range(len(text) - n + 1):
        key = text[i:i + n]
        cur = stats.get(key)
        if cur is None:
            stats[key] = [i, i, 0, i]
        else:
            gap = i - cur[1]
            if gap > cur[2]:
                cur[2] = gap
                cur[3] = cur[1]
            cur[1] = i
    return stats


def _assert_index_matches(index, text, ns):
    for n in ns:
        want = factor_stats_per_position(text, n)
        # dict equality ignores order: compare the item lists
        assert list(index.stats(n).items()) == list(want.items()), (text, n)


def test_factor_index_matches_per_position_scan_on_seeded_texts():
    rng = random.Random(20261019)
    for i in range(3000):
        # letters past U+00FF, or latin-1 letters as _seq_text writes them
        alphabet = "\ue000\ue001\ue002\ue003" if i % 4 < 2 else "abcd"
        letters = alphabet[:rng.randint(1, 4)]
        # lengths 1..300, most of them short: checking every n costs length^2
        length = rng.randint(1, 300 if i % 60 == 0 else 30)
        if i % 2:
            period = "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            text = (period * length)[:length]
        else:
            text = "".join(rng.choice(letters) for _ in range(length))
        ns = list(range(length + 2))
        if i % 5 == 0:
            # a smaller n after a larger one rebuilds the index
            ns += [rng.randint(0, length)]
        _assert_index_matches(FactorIndex(text), text, ns)


def test_factor_index_matches_per_position_scan_on_a_large_alphabet():
    # 300 symbols: letter codes past 255 are not cached one-char strings
    rng = random.Random(300)
    text = "".join(chr(0xE000 + rng.randrange(300)) for _ in range(600))
    text += text[:150]  # some factors longer than one letter repeat
    assert len(set(text)) > 256
    _assert_index_matches(FactorIndex(text), text, range(len(text) + 1))


def test_factor_index_matches_per_position_scan_on_thue_morse():
    text = _seq_text(thue_morse(), 0, 2 ** 16 - 1)
    index = FactorIndex(text)
    _assert_index_matches(index, text, [*range(1, 13), 88])
    _assert_positions_match(index, text, 88)
    assert _factor_stats(text, 5) == factor_stats_per_position(text, 5)


def test_factor_index_reads_gaps_across_position_slices():
    # "a" has 4196 starts; its widest gap (4095 -> 4101) spans the first
    # 4096-start slice edge, as do the starts of "aa" it is split into.  The
    # 257 letters after them make every level, from level 0 on, hold arrays
    text = "a" * 4096 + "b" * 5 + "a" * 100 + "".join(map(chr, range(0x100, 0x201)))
    index = FactorIndex(text)
    _assert_index_matches(index, text, range(1, 5))
    for n in range(1, 5):
        _assert_positions_match(index, text, n)
        assert index._at(n)[0] is None
    assert FactorIndex(text).stats(1)["a"] == [0, 4200, 6, 4095]


def factor_positions_per_position(text, n):
    """Reference factor starts: factor -> its ascending starts, in order of
    first occurrence."""
    starts = {}
    for i in range(len(text) - n + 1):
        starts.setdefault(text[i:i + n], []).append(i)
    return starts


def _assert_positions_match(index, text, n):
    """Level n of the index against the reference starts: on an id level,
    ids[i] numbers the factor starting at i in order of first occurrence; on
    an array level, each entry's fifth field holds its factor's starts."""
    ids, level = index._at(n)
    want = factor_positions_per_position(text, n)
    keys = [text[e[0]:e[0] + n] for e in level]
    assert keys == list(want), (text, n)
    if ids is not None:
        number = {key: v for v, key in enumerate(keys)}
        assert list(ids) == [number[text[i:i + n]]
                             for i in range(len(text) - n + 1)], (text, n)
        return
    for key, e in zip(keys, level):
        assert e[4].typecode == "i" and e[4].tolist() == want[key], (text, n, key)


def test_factor_index_positions_match_per_position_scan_on_seeded_texts():
    rng = random.Random(20261019)
    paths = set()
    for i in range(1000):
        letters = "abcdefgh"[:rng.randint(1, 8)]
        length = rng.randint(1, 300 if i % 100 == 0 else 40)
        if i % 2:
            period = "".join(rng.choice(letters) for _ in range(rng.randint(1, 9)))
            text = (period * length)[:length]
        else:
            text = "".join(rng.choice(letters) for _ in range(length))
        index = FactorIndex(text)
        ns = list(range(length + 2))
        if i % 5 == 0:
            # a smaller n after a larger one rebuilds the index
            ns += [rng.randint(0, length)]
        for n in ns:
            # stats, positions or both, from one index moving forward
            ask = rng.choice(("stats", "positions", "both", "both"))
            if ask != "positions":
                assert list(index.stats(n).items()) == list(
                    factor_stats_per_position(text, n).items()), (text, n)
            if ask != "stats":
                _assert_positions_match(index, text, n)
            paths.add("ids" if index._ids is not None else "arrays")
    assert paths == {"ids", "arrays"}


def _de_bruijn(k, order):
    """A de Bruijn word over chr(97)..: every word of the length `order`
    over k letters occurs in it exactly once."""
    a, word = [0] * k * order, []

    def db(t, p):
        if t > order:
            if order % p == 0:
                word.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    word += word[:order - 1]
    return "".join(chr(97 + j) for j in word)


@pytest.mark.parametrize("k, order", [(2, 8), (4, 4), (16, 2)])
def test_factor_index_builds_ids_up_to_256_factor_children(k, order):
    # at n = order - 1 every factor occurs and F * k is exactly 256, so the
    # level of length `order` is still built as ids, and uses byte 255
    text = _de_bruijn(k, order)
    index = FactorIndex(text)
    assert len(index.stats(order - 1)) * k == 256
    assert len(index.stats(order)) == 256 and index._ids is not None
    assert index.stats(order + 1) and index._ids is None  # handed off
    _assert_index_matches(FactorIndex(text), text, range(len(text) + 1))
    for n in range(len(text) + 1):
        _assert_positions_match(index, text, n)


def test_factor_index_and_cube_search_number_the_letters_that_occur():
    # level 1 is built as ids from 256 distinct letters, as arrays from 257
    for k in (256, 257):
        text = "".join(map(chr, range(0x100, 0x100 + k))) * 2
        index = FactorIndex(text)
        index.stats(1)
        assert (index._ids is None) == (k > 256)
        _assert_index_matches(index, text, [*range(6), k, k + 1])
    # two of 300 symbols: the letters, not the alphabet, choose the ids
    tm = thue_morse()
    wide = ap.FuncSequence(Alphabet(range(300)), lambda i: 299 * int(tm.at(i)))
    text = _seq_text(wide, 0, 2 ** 12 - 1)
    assert set(text) == {chr(0), chr(299)}
    index = FactorIndex(text)
    for n in range(13):
        assert list(index.stats(n).items()) == list(
            factor_stats_per_position(text, n).items())
        _assert_positions_match(index, text, n)
        assert index._ids is not None
    w = read(wide, 0, 2 ** 12 - 1)
    assert is_cube_free(w) == cube_scan_per_letter(w) == Verdict("pass", 2 ** 12)
    for i, p in ((5, 1), (1000, 70)):  # a short and a long period
        cube = Word(w.alphabet, _plant(w.symbols, i, p, 2 * p))
        assert is_cube_free(cube) == cube_scan_per_letter(cube)
        assert is_cube_free(cube).status == "fail"


def test_empirical_regulator_refines_once_and_tables_what_was_asked():
    text = _seq_text(thue_morse(), 0, 2 ** 16 - 1)
    B = empirical_regulator(thue_morse(), 2 ** 16)
    resets = []
    reset = B._index._reset
    B._index._reset = lambda: (resets.append(1), reset())
    for n in (82, 76):
        worst = max(max(first, maxgap) for first, _, maxgap, _
                    in factor_stats_per_position(text, n).values())
        assert B.value(n) == max(n, n - 1 + worst)
    assert resets == []
    assert B.table == {82: B.value(82), 76: B.value(76)}


def check_regulator_by_windows(text, reg, n_max):
    """Reference regulator check, window by window: the first (n, factor) in
    order of n and first occurrence such that the factor starts at or past
    reg(n) and some reg(n)-window of the text lacks it; "inconclusive" when
    reg(n) exceeds the text first; None when every factor passes."""
    horizon = len(text)
    for n in range(1, n_max + 1):
        L = reg(n)
        if L > horizon:
            return "inconclusive"
        for x in dict.fromkeys(text[i:i + n] for i in range(horizon - n + 1)):
            if text.find(x, L) == -1:
                continue
            if any(text.find(x, s, s + L) == -1 for s in range(horizon - L + 1)):
                return n, x
    return None


def sap_failures_by_windows(text, n_max):
    """Reference check_sap: every failing (n, factor), in order of n and
    first occurrence.  A factor fails when no start lies at or past
    horizon/2, or when it is absent from a window holding W + 1 starts at
    the front of the text, or W starts with starts of the factor on both
    sides (W the largest whole number <= horizon/4, so a longer run of
    starts without it is a gap above the cut)."""
    horizon = len(text)
    recur_from = math.ceil(horizon * 0.5)
    W = math.floor(horizon * 0.25)
    failing = []
    for n in range(1, n_max + 1):
        for x in dict.fromkeys(text[i:i + n] for i in range(horizon - n + 1)):
            first, last = text.find(x), text.rfind(x)
            if (text.find(x, recur_from) == -1
                    or text.find(x, 0, W + n) == -1
                    or any(text.find(x, s, s + W + n - 1) == -1
                           for s in range(first + 1, last - W + 1))):
                failing.append((n, x))
    return failing


def _windowed_word_spec(rng):
    """A periodic word, or a seeded word glued in front of a periodic one."""
    def draw(letters, lo, hi):
        return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))
    period = draw("012", 1, 7)
    if rng.random() < 0.5:
        return "periodic:" + period
    return "prepend:" + draw(sorted(set(period)), 1, 12) + ":periodic:" + period


def _absent_from_window(text, ce):
    window = text[ce.window_start:ce.window_start + ce.window_len]
    return ce.factor.text() not in window


def test_check_regulator_matches_window_by_window_oracle():
    rng = random.Random(5150)
    statuses = set()
    for _ in range(400):
        seq = make_sequence(_windowed_word_spec(rng))
        horizon = rng.randint(8, 160)
        n_max = rng.randint(1, 6)
        reg = rng.choice((
            periodic_regulator(rng.randint(1, 12)),
            ap.identity_plus(rng.randint(0, 40)),
            ap.linear(rng.randint(1, 3), rng.randint(0, 8)),
        ))
        text = read(seq, 0, horizon - 1).text()
        v = check_regulator(seq, reg, horizon, n_max)
        want = check_regulator_by_windows(text, reg, n_max)
        statuses.add(v.status)
        if want is None:
            assert v.status == "pass", (seq.description, horizon, n_max)
        elif want == "inconclusive":
            assert v.status == "inconclusive", (seq.description, horizon, n_max)
        else:
            assert v.status == "fail", (seq.description, horizon, n_max)
            assert v.failures[0][0] == want[0] and v.counterexample.factor.text() == want[1]
            assert v.counterexample.window_len == reg(want[0])
            assert _absent_from_window(text, v.counterexample)
    assert statuses == {"pass", "fail", "inconclusive"}
    with pytest.raises(ValueError, match="^n_max must be >= 1$"):
        check_regulator(thue_morse(), ap.identity_plus(1), 64, 0)


def test_check_sap_matches_window_by_window_oracle():
    rng = random.Random(6160)
    statuses = set()
    for _ in range(400):
        seq = make_sequence(_windowed_word_spec(rng))
        horizon = rng.randint(8, 160)
        n_max = rng.randint(1, min(6, horizon))
        text = read(seq, 0, horizon - 1).text()
        v = check_sap(seq, horizon, n_max)
        statuses.add(v.status)
        if horizon - n_max < horizon * 0.5:
            # every factor of length n_max would fail the recur cut vacuously
            assert v.status == "inconclusive" and not v.failures, (seq.description, horizon)
            continue
        want = sap_failures_by_windows(text, n_max)
        assert len(want) <= 256  # so the verdict lists every failure
        assert v.status == ("fail" if want else "pass"), (seq.description, horizon)
        assert [(n, ce.factor.text()) for n, ce in v.failures] == want
        assert v.failure_count == len(want)
        for _, ce in v.failures:
            assert _absent_from_window(text, ce), (seq.description, horizon, ce)
    assert statuses == {"pass", "fail", "inconclusive"}


def test_check_sap_lists_the_first_256_failures_and_counts_all():
    # a random head that never recurs, so most of its factors fail
    rng = random.Random(256)
    seq = prepend(word("".join(rng.choice("01") for _ in range(300))),
                  periodic(word("0", ap.BINARY)))
    v = check_sap(seq, 800, 12)
    want = sap_failures_by_windows(read(seq, 0, 799).text(), 12)
    assert len(want) > 256
    assert v.failure_count == len(want)
    assert [(n, ce.factor.text()) for n, ce in v.failures] == want[:256]


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


def _tm_letters(n):
    return list(read(thue_morse(), 0, n - 1).symbols)


def _plant(letters, i, p, run):
    """letters with letter x + p set to letter x for x in [i, i + run), and
    the letter after that, if any, set to differ from the one p before it
    where another letter occurs."""
    s = list(letters)
    for x in range(i, i + run):
        s[x + p] = s[x]
    x = i + run + p
    if x < len(s):
        s[x] = next((a for a in sorted(set(letters)) if a != s[x - p]), s[x])
    return s


def test_cube_free_matches_per_letter_scan_on_planted_cubes():
    tm = _tm_letters(2 ** 13)
    for p in (63, 64, 65, 1500):
        for i in (0, 1, 700, 2 ** 13 - 3 * p - 1):
            w = Word(ap.BINARY, tuple(_plant(tm, i, p, 2 * p)))
            got = is_cube_free(w)
            assert got == cube_scan_per_letter(w), (p, i)
            assert got.status == "fail" and got.failures[0][0] <= p, (p, i)


def test_cube_free_finds_a_cube_of_a_third_of_the_word():
    # u is a Thue-Morse prefix, so cube-free: uuu may hold no cube but its
    # own, of period |u| = n / 3, the largest the search tries, and past
    # _SHORT_PERIOD here
    tm = _tm_letters(129)
    for m in range(64, 130):
        w = Word(ap.BINARY, tuple(tm[:m] * 3))
        got = is_cube_free(w)
        assert got == cube_scan_per_letter(w), m
        assert got.status == "fail", m


def test_cube_free_rejects_near_cubes_on_both_sides_of_the_split():
    # An agreement run of 2p - 1 letters is a square and no cube; over a
    # cube-free random word on 200 letters it is the only long repetition.
    rng = random.Random(3)
    alphabet = Alphabet(tuple(f"s{k}" for k in range(200)))
    base = [rng.choice(alphabet.symbols) for _ in range(4000)]
    assert cube_scan_per_letter(Word(alphabet, tuple(base))).passed
    for p in (1, 2, 62, 63, 64, 65, 200, 999):
        for i in (1, 5, 1000):
            s = _plant(base, i, p, 2 * p - 1)
            s[i - 1] = next(a for a in alphabet.symbols
                            if a not in (s[i - 1 + p], s[i]))
            w = Word(alphabet, tuple(s))
            got = is_cube_free(w)
            assert got == cube_scan_per_letter(w) == Verdict("pass", 4000), (p, i)
            s[i - 1] = s[i - 1 + p]
            w = Word(alphabet, tuple(s))
            got = is_cube_free(w)
            assert got == cube_scan_per_letter(w), (p, i)
            assert got.failures[0][0] == p and got.counterexample.window_start == i - 1


def test_cube_free_on_one_three_and_300_letters():
    rng = random.Random(12)
    wide = Alphabet(tuple(f"s{k}" for k in range(300)))
    for _ in range(40):
        n = rng.randint(0, 900)
        for alphabet in (Alphabet(("a",)), Alphabet(("a", "b", "c")), wide):
            s = [rng.choice(alphabet.symbols) for _ in range(n)]
            if n >= 3 and rng.random() < 0.5:
                p = rng.randint(1, n // 3)
                s = _plant(s, rng.randint(0, n - 3 * p), p, 2 * p)
            w = Word(alphabet, tuple(s))
            assert is_cube_free(w) == cube_scan_per_letter(w), (alphabet, n)
    for text in ("", "0", "1", "00", "01", "10", "11"):
        w = word(text, ap.BINARY)
        assert is_cube_free(w) == cube_scan_per_letter(w) == Verdict("pass", len(text))


def _letters_apart(w):
    """w as text coded apart from Alphabet: symbol i -> chr(0x10000 + i)."""
    return "".join(chr(0x10000 + w.alphabet.index(s)) for s in w.symbols)


@pytest.mark.parametrize("size", [300, 60000])
def test_oracles_match_references_on_wide_alphabets(size):
    # codes past 255, and for 60000 symbols codes in the surrogate block
    alphabet = Alphabet(range(size))
    rng = random.Random(size)
    edges = (255, 256) if size < 0xE000 else (0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF)
    pool = [*rng.sample(range(size), 8), *edges, 0, size - 1]

    def draw(lo, hi):
        return Word(alphabet, tuple(rng.choice(pool) for _ in range(rng.randint(lo, hi))))

    statuses = set()
    for _ in range(12):
        w = draw(0, 300)
        if len(w) >= 3 and rng.random() < 0.5:
            p = rng.randint(1, len(w) // 3)
            i = rng.randint(0, len(w) - 3 * p)
            w = Word(alphabet, tuple(_plant(w.symbols, i, p, 2 * p)))
        cube = is_cube_free(w)
        assert cube == cube_scan_per_letter(w), len(w)
        head = draw(0, 30) if rng.random() < 0.6 else draw(0, 0)
        seq = prepend(head, periodic(draw(1, 6)))
        horizon, n_max = rng.randint(40, 200), rng.randint(1, 6)
        text = _letters_apart(read(seq, 0, horizon - 1))
        v = check_sap(seq, horizon, n_max)
        want = sap_failures_by_windows(text, n_max)
        assert len(want) <= 256  # so the verdict lists every failure
        assert [(n, _letters_apart(ce.factor)) for n, ce in v.failures] == want
        statuses.update({("sap", v.status), ("cube", cube.status)})
        index = FactorIndex(_seq_text(seq, 0, horizon - 1))
        for n in range(n_max + 1):
            got = [(alphabet.decode(k), e) for k, e in index.stats(n).items()]
            ref = factor_stats_per_position(text, n)
            assert got == [(tuple(ord(c) - 0x10000 for c in k), e) for k, e in ref.items()]
        for x in (read(seq, 3, 3 + n_max), Word(alphabet, tuple(edges))):
            pat = _letters_apart(x)
            assert occurrences(x, seq, 0, horizon - len(x)) == [
                i for i in range(horizon) if text[i:i + len(x)] == pat]
    assert statuses == {(oracle, status) for oracle in ("sap", "cube")
                        for status in ("pass", "fail")}


def test_cube_free_accepts_only_whole_letters_of_wide_codes():
    # Past 256 distinct letters a letter takes four bytes.  Letter y0 holds
    # s256 where the letter p before it holds s0, and letter y0 + 2p holds
    # s257 where the one p before holds s256.  The 2p - 1 letters between
    # them agree with the ones p before, so the XOR has a run of 8p zero
    # bytes that starts inside letter y0 and is no cube.
    wide = Alphabet(tuple(f"s{k}" for k in range(300)))
    for p in (3, 70):
        fill = [k for k in range(300) if k not in (0, 256, 257)]
        v, fill = fill[:p - 1], fill[p - 1:]
        y0 = 5 * p
        codes = fill[:y0 - p] + [0, *v, 256, *v, 256, *v, 257] + fill[y0 - p:]
        w = Word(wide, tuple(f"s{k}" for k in codes))
        assert len(set(codes)) == 300
        assert is_cube_free(w) == cube_scan_per_letter(w) == Verdict("pass", len(codes))


def _names_by_sums(codes, width):
    """Window names as the direct weighted sum per 64-letter window."""
    z = 4 if width == 1 else 8
    weights = [w >> 64 - (8 * z - 8 * width - 6) for w in _WEIGHTS]
    letters = [int.from_bytes(codes[i:i + width], "big")
               for i in range(0, len(codes), width)]
    return b"".join(
        sum(map(int.__mul__, letters[s:s + 64], weights)).to_bytes(z, "big")
        for s in range(len(letters) - 63))


def test_window_names_carry_nothing_at_the_widest_codes():
    # every byte 0xFF at width 1; at width 4, 302 distinct letters, with
    # code points up to 0x10FFFF and a run of 100 of that one
    rng = random.Random(7)
    wide = [0x10FFFF, 0xFFFF, *rng.sample(range(0x10000, 0x110000), 300)]
    for codes, width in [
        (bytes([0xFF]) * 300, 1),
        (bytes(rng.choice((0, 1, 0xFE, 0xFF)) for _ in range(400)), 1),
        ("".join(map(chr, [0x10FFFF] * 100 + wide)).encode("utf-32-be"), 4),
    ]:
        assert _window_names(codes, width).tobytes() == _names_by_sums(codes, width)


@pytest.mark.parametrize("p, cube_at, near_at", [
    (64, 128, None), (127, 5, 138), (128, 130, None), (255, 5, 266),
    (256, 269, None), (2 ** 12 // 3, 0, 2),
])
def test_cube_free_matches_per_letter_scan_at_the_band_edges(p, cube_at, near_at):
    # Periods from _SHORT_PERIOD on are searched in bands [lo, 2 lo).  A
    # cube planted at cube_at, or a near-cube (an agreement run of 2p - 1)
    # at near_at, makes no shorter cube at its seams; on this prefix every
    # near-cube of period 2^k makes one.
    n = 2 ** 12
    tm = _tm_letters(n)
    for run in (2 * p, 2 * p - 1):
        for i in {0, cube_at, near_at or 0, n - p - run} & set(range(n - p - run + 1)):
            w = Word(ap.BINARY, tuple(_plant(tm, i, p, run)))
            got = is_cube_free(w)
            assert got == cube_scan_per_letter(w), (p, run, i)
            if (run, i) == (2 * p, cube_at):
                assert got.failures[0][0] == p
            if (run, i) == (2 * p - 1, near_at):
                assert got == Verdict("pass", n)


def test_cube_free_takes_the_least_period_of_a_band_before_an_earlier_anchor():
    # cubes of periods 100 and 70, both in the band [64, 128): the one of
    # period 70 wins, though the one of period 100 holds an earlier anchor
    rng = random.Random(3)
    s = [rng.randrange(200) for _ in range(4000)]
    s = _plant(_plant(s, 5, 100, 200), 2000, 70, 140)
    w = Word(Alphabet(range(200)), tuple(s))
    got = is_cube_free(w)
    assert got == cube_scan_per_letter(w)
    assert (got.failures[0][0], got.counterexample.window_start) == (70, 2000)


def test_cube_free_window_names_are_only_a_filter(monkeypatch):
    rng = random.Random(4)
    words = [read(make_sequence(_random_cube_spec(rng, family)), 0, h - 1)
             for family in ("periodic", "prepend", "thm21tau", "fixture", "product")
             for h in (2 ** 9, 2 ** 12)]
    tm = _tm_letters(2 ** 12)
    words += [Word(ap.BINARY, tuple(_plant(tm, 300, p, 2 * p))) for p in (64, 65, 900)]
    words.append(read(thue_morse(), 0, 2 ** 12 - 1))
    expected = [is_cube_free(w) for w in words]
    # zero weights give every window the name 0: every anchor is a match
    monkeypatch.setattr(ap.analysis, "_WEIGHTS", (0,) * 64)
    assert [is_cube_free(w) for w in words] == expected
    assert expected == [cube_scan_per_letter(w) for w in words]
    assert {v.status for v in expected} == {"pass", "fail"}


def test_thue_morse_2_17_is_cube_free():
    tm = read(thue_morse(), 0, 2 ** 17 - 1)
    assert is_cube_free(tm) == Verdict("pass", 2 ** 17)


def test_default_cut_grid():
    assert default_cut_grid(64) == [0, 1, 2, 4, 8, 16, 32]
    assert default_cut_grid(2) == [0, 1]


def test_pr_estimate_tm_is_zero():
    assert pr_upper_estimate(thue_morse(), 2 ** 12, 8) == 0


def test_pr_estimate_triple_block_fixture_is_positive():
    # the prepended cube 010101 never recurs in the tail, so cut 0 fails
    est = pr_upper_estimate(tm_triple_fixture(1), 2 ** 12, 8)
    assert est is not None and est >= 1


def pr_by_cuts(seq, horizon, n_max):
    """Reference pr estimate: the first cut c of the default grid, before the
    first with horizon - c < n_max, at which check_sap(seq.suffix(c), ...)
    passes."""
    for c in default_cut_grid(horizon):
        if horizon - c < n_max:
            break
        if check_sap(seq.suffix(c), horizon - c, n_max).passed:
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
    for _ in range(60):
        spec = rng.choice(("tm", "thm21") + families)
        if spec in families:
            spec = _random_cube_spec(rng, spec)
        seq = make_sequence(spec)
        horizon = rng.randint(2 ** 6, 2 ** 10)
        n_max = rng.randint(1, 10)
        got = pr_upper_estimate(seq, horizon, n_max)
        assert got == pr_by_cuts(seq, horizon, n_max), (spec, horizon, n_max)
        estimates.add(got if got in (None, 0) else "positive")
    assert estimates == {None, 0, "positive"}


def test_pr_estimate_judges_gaps_past_the_cut_only():
    # "0" starts at 0, is absent for 1100 letters, then recurs every 3: its
    # widest start-gap lies before cut 128, which passes
    seq = prepend(word("0" + "1" * 1099), periodic(word("011")))
    assert pr_upper_estimate(seq, 4096, 2) == pr_by_cuts(seq, 4096, 2) == 128
    # "0" also starts at 127, just before cut 128, and next at 1120: the
    # 993-letter gap opening there is one above cut 128's gap cut of 992, but
    # past the cut the first start is 992 letters in and the gaps are short
    seq = prepend(word("1" * 100 + "00" + "1" * 25 + "0" + "1" * 992),
                  periodic(word("011")))
    assert pr_upper_estimate(seq, 4096, 2) == pr_by_cuts(seq, 4096, 2) == 128


def test_pr_estimate_rescans_gaps_past_the_cut_on_array_levels(monkeypatch):
    # 257 distinct letters after "0" make every level an array level; "0"
    # then recurs only in the period, so its widest gap opens at 0, before
    # every cut but 0, and is rescanned from the cut's first start on
    rescans = []

    def spy(pos, lo=0):
        rescans.append(lo)
        return _widest_gap(pos, lo)

    monkeypatch.setattr("apwords.analysis._widest_gap", spy)
    rng = random.Random(16)
    wide = Alphabet(range(300))
    estimates = set()
    for _ in range(6):
        head = (0, *rng.sample(range(2, 300), 257), *[1] * rng.randint(800, 1500))
        period = (0, *(rng.randrange(2) for _ in range(rng.randint(1, 6))))
        seq = prepend(Word(wide, head), periodic(Word(wide, period)))
        horizon, n_max = rng.choice((2048, 4096)), rng.randint(1, 3)
        rescans.clear()
        got = pr_upper_estimate(seq, horizon, n_max)
        assert any(rescans), (horizon, n_max)
        assert got == pr_by_cuts(seq, horizon, n_max), (horizon, n_max)
        estimates.add(got)
    assert len(estimates) > 1


def test_pr_estimate_thm21_at_cap_60():
    h = 5 ** 6
    assert pr_upper_estimate(thm21(), h, 60) == pr_by_cuts(thm21(), h, 60) == 128


def test_pr_estimate_errors_match_per_cut_definition():
    tm = thue_morse()
    for n_max in (0, -3):
        got = _outcome(pr_upper_estimate, tm, 256, n_max)
        assert got == _outcome(pr_by_cuts, tm, 256, n_max), n_max
        assert got[0] is ValueError
    # no cut can be judged when the horizon is below n_max
    assert pr_upper_estimate(tm, 4, 8) is None and pr_by_cuts(tm, 4, 8) is None


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
