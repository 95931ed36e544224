"""Range reads agree with each other, and with per-letter reference
definitions, for every sequence construction."""

import itertools
import random
from bisect import bisect_right
from pathlib import Path

import pytest

import apwords as ap
from apwords import FuncSequence, make_sequence, projections, read

QUINT_SCHEME = "labels A B\nstart A\nrule A A B B A A\nrule B B A A B B\n" \
               "decode A 1\ndecode B 0\n"
# k = 3, so range reads are cut from stretches of 3^7 = 2187 letters
TRI_SCHEME = "labels A B C\nstart A\nrule A A B C\nrule B C A B\nrule C B C A\n" \
             "decode A x\ndecode B yz\ndecode C x\n"
SCHEMES = Path(__file__).parent / "schemes"

SPECS = [
    "tm",
    "thm21",
    "thm21tau:5",
    "thm21tau:45",
    "periodic:01101",
    "prepend:0110:tm",
    "suffix:4093:tm",
    "suffix:7:suffix:3:thm21",
    "product:tm,periodic:ab",
    "product:prepend:1:thm21,periodic:xyz",
    "fixture:tm-triple:2",
    f"scheme:{SCHEMES / 'nonuniform.scheme'}",
    f"scheme:{SCHEMES / 'cyclic.scheme'}",
]

CHUNK_EDGES = [c * 4096 for c in range(1, 6)]


def _level_starts(tau, levels=7):
    """Where each level c_n, 0 < n <= levels, of a pasted quintuple sequence
    begins."""
    starts, pos = [], 0
    for n in range(levels):
        pos += tau[n % len(tau)] * 5 ** n
        starts.append(pos)
    return starts


EDGES = sorted(set(
    CHUNK_EDGES + _level_starts((4,)) + _level_starts((5,)) + _level_starts((4, 5))
))


def _ranges(seed, count=8):
    rng = random.Random(seed)
    out = [(0, 0), (0, 4096), (4095, 4096)]
    for _ in range(count):
        edge = rng.choice(EDGES)
        i = max(0, edge - rng.randint(0, 400))
        out.append((i, edge + rng.randint(0, 2500)))
    return out


def _assert_range_reads(seq, seed):
    for i, j in _ranges(seed):
        assert read(seq, i, j).symbols == tuple(seq.at(k) for k in range(i, j + 1)), (
            seq.description, i, j)


def _spec_id(spec):
    """A spec, with a scheme file named by its file name alone."""
    return spec.rpartition("/")[2]


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_range_read_equals_letter_reads(spec):
    _assert_range_reads(make_sequence(spec), seed=spec)


def test_scheme_range_reads(tmp_path):
    path = tmp_path / "quint.scheme"
    path.write_text(QUINT_SCHEME)
    _assert_range_reads(make_sequence(f"scheme:{path}"), seed="scheme")


def test_projection_range_reads():
    for seq in projections(make_sequence("product:thm21,periodic:012")):
        _assert_range_reads(seq, seed="projections")


def test_range_read_does_not_depend_on_read_order():
    # a fresh handle per read: memo state must not change what a range holds
    for spec in SPECS:
        for i, j in _ranges(spec, count=3):
            whole = read(make_sequence(spec), 0, j).symbols
            assert read(make_sequence(spec), i, j).symbols == whole[i:]


def test_suffix_shares_the_base_memo():
    calls = []

    def fn(i):
        calls.append(i)
        return "01"[i % 2]

    base = FuncSequence(ap.BINARY, fn, "counting")
    suf = base.suffix(5).suffix(10)
    assert read(suf, 0, 99).symbols == read(base, 15, 114).symbols
    assert calls == list(range(115))  # each index filled once, none past the read


def _assert_ceiling_at(seq, index):
    """seq reads up to index - 1, and a letter or range read reaching index
    raises before any work."""
    assert seq.at(index - 1) == read(seq, index - 3, index - 1).symbols[-1]
    with pytest.raises(ap.ResourceLimitError):
        seq.at(index)
    with pytest.raises(ap.ResourceLimitError):
        read(seq, index - 2, index)


def _pasted_ceiling(tau):
    """Where reads of c_0 c_1 ... stop: the end sum_{m<=n} tau(m) 5^m of the
    first level that ends past DEFAULT_CEILING."""
    end = 0
    for n in itertools.count():
        end += tau[n % len(tau)] * 5 ** n
        if end > ap.regulators.DEFAULT_CEILING:
            return end


def test_fixed_points_raise_at_the_ceiling():
    ceiling = ap.regulators.DEFAULT_CEILING
    assert 5 ** 20 <= ceiling < 5 ** 21 and 2 ** 48 <= ceiling < 2 ** 49
    _assert_ceiling_at(ap.thm21(), 5 ** 21 - 1)
    _assert_ceiling_at(make_sequence("thm21tau:5"), _pasted_ceiling((5,)))
    _assert_ceiling_at(make_sequence("thm21tau:45"), _pasted_ceiling((4, 5)))
    _assert_ceiling_at(ap.thue_morse(), 2 ** 49)
    _assert_ceiling_at(ap.quintuple_limit(), 5 ** 21)


# ---------------------------------------------------------------------------
# Per-letter reference definitions of the substitution fixed points and of
# the constructions over them


def _tm_reference(i):
    """Thue-Morse: the parity of the binary digit sum."""
    return "01"[bin(i).count("1") & 1]


def _quintuple_reference(i):
    """lim a_n: letter 1, flipped once per base-5 digit 1 or 2."""
    flips = 0
    while i:
        i, d = divmod(i, 5)
        flips ^= d in (1, 2)
    return "0" if flips else "1"


def _pasted_reference(tau):
    """c_0 c_1 ...: letter p of level n is letter p mod 5^n of the limit."""
    starts = [0] + _level_starts(tau, 22)  # past the ceiling

    def letter(i):
        n = bisect_right(starts, i) - 1
        return _quintuple_reference((i - starts[n]) % 5 ** n)

    return letter


def _scheme_reference(spec):
    """Letter i decodes letter i of the first iterate sigma^n(start) that is
    longer than i and begins with the start label."""
    prefix = [spec.start]

    def letter(i):
        while len(prefix) <= i:
            iterate = prefix
            while True:
                iterate = [lab for s in iterate for lab in spec.rules[s]]
                if iterate[0] == spec.start:
                    break
            prefix[:] = iterate
        return spec.decode[prefix[i]]

    return letter


def _scheme_case(source):
    """A scheme given as text, or as the Path of a file."""
    def make(tmp_path):
        path = source
        if not isinstance(source, Path):
            path = tmp_path / "case.scheme"
            path.write_text(source)
        seq = make_sequence(f"scheme:{path}")
        return seq, _scheme_reference(ap.parse_scheme_file(str(path)))

    return make


def _prepended(head, reference):
    """head, then the referenced word."""
    return lambda i: head[i] if i < len(head) else reference(i - len(head))


def _shifted(n, reference):
    """The referenced word from letter n on."""
    return lambda i: reference(n + i)


def _tm_triple_reference(n):
    """The first 2^n letters of Thue-Morse three times, then Thue-Morse."""
    block = "".join(map(_tm_reference, range(2 ** n)))
    return _prepended(block * 3, _tm_reference)


def _projection_case(k):
    """Coordinate k of thm21 paired with the period 012."""
    coordinates = (_pasted_reference((4,)), lambda i: "012"[i % 3])

    def make(_):
        return projections(make_sequence("product:thm21,periodic:012"))[k], coordinates[k]

    return make


def _pasted_edges(tau):
    """Level starts, and the 3125-letter stretch edges inside levels 5, 6."""
    starts = [0] + _level_starts(tau)
    return starts[1:] + [starts[n] + t * 3125 for n in (5, 6) for t in (1, 2, 7)]


REFERENCE_CASES = {
    "tm": (lambda _: (make_sequence("tm"), _tm_reference),
           [t * 4096 for t in (1, 2, 3, 17, 40)]),
    "quintuple_limit": (lambda _: (ap.quintuple_limit(), _quintuple_reference),
                        [t * 3125 for t in (1, 2, 5, 24, 26)]),
    "thm21": (lambda _: (make_sequence("thm21"), _pasted_reference((4,))),
              _pasted_edges((4,))),
    "thm21tau:45": (lambda _: (make_sequence("thm21tau:45"),
                               _pasted_reference((4, 5))),
                    _pasted_edges((4, 5))),
    "scheme-quint": (_scheme_case(QUINT_SCHEME), [t * 3125 for t in (1, 2, 6, 25)]),
    "scheme-tri": (_scheme_case(TRI_SCHEME), [t * 2187 for t in (1, 2, 3, 9, 10)]),
    "scheme-nonuniform": (_scheme_case(SCHEMES / "nonuniform.scheme"),
                          [100, 4096, 9001, 30011, 50021]),
    "scheme-cyclic": (_scheme_case(SCHEMES / "cyclic.scheme"),
                      [t * 4096 for t in (1, 2, 3, 17)]),
    "periodic": (lambda _: (make_sequence("periodic:01101"), lambda i: "01101"[i % 5]),
                 [5, 4096, 4100, 12290]),
    "prepend": (lambda _: (make_sequence("prepend:0110:tm"),
                           _prepended("0110", _tm_reference)),
                [4, 4100, 8196, 16388]),
    "suffix": (lambda _: (make_sequence("suffix:4093:tm"), _shifted(4093, _tm_reference)),
               [3, 4099, 8195, 20483]),
    "suffix-of-suffix": (lambda _: (make_sequence("suffix:7:suffix:3:thm21"),
                                    _shifted(10, _pasted_reference((4,)))),
                         [e - 10 for e in _pasted_edges((4,)) if e > 10]),
    "product": (lambda _: (make_sequence("product:tm,periodic:ab"),
                           lambda i: (_tm_reference(i), "ab"[i % 2])),
                [4096, 8192, 12288]),
    "projection-first": (_projection_case(0), _pasted_edges((4,))),
    "projection-second": (_projection_case(1), [3, 4096, 12288]),
    "fixture:tm-triple": (lambda _: (make_sequence("fixture:tm-triple:2"),
                                     _tm_triple_reference(2)),
                          [12, 4108, 8204]),
}


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_range_reads_match_the_reference_definition(tmp_path, name):
    make, edges = REFERENCE_CASES[name]
    seq, reference = make(tmp_path)
    rng = random.Random(name)
    for edge in edges:
        i = max(0, edge - rng.randint(1, 300))
        j = edge + rng.randint(0, 2500)
        expect = tuple(map(reference, range(i, j + 1)))
        assert tuple(seq.at(k) for k in range(i, j + 1)) == expect, (name, i, j)
        assert read(seq, i, j).symbols == expect, (name, i, j)
    # one read across several stretches at once
    i, j = max(0, edges[0] - 7), edges[-1] + 7
    assert read(seq, i, j).symbols == tuple(map(reference, range(i, j + 1))), name


def test_cyclic_start_scheme_decodes_to_thue_morse():
    seq = make_sequence(f"scheme:{SCHEMES / 'cyclic.scheme'}")
    assert read(seq, 0, 2 ** 16 - 1) == read(make_sequence("tm"), 0, 2 ** 16 - 1)


# period 7, and period 30, longer than the levels a read below the ceiling
# can reach
LONG_PATTERNS = ["4554545", "455454554544554455545445545454"]


@pytest.mark.parametrize("pattern", LONG_PATTERNS)
def test_long_tau_patterns_match_the_reference_definition(pattern):
    tau = tuple(map(int, pattern))
    seq = make_sequence("thm21tau:" + pattern)
    reference = _pasted_reference(tau)
    starts = _level_starts(tau, 21)
    edges = [e for e in starts if e <= 5 ** 8] + [starts[18], starts[19], 5 ** 20]
    rng = random.Random(pattern)
    for edge in edges:
        i, j = max(0, edge - rng.randint(1, 300)), edge + rng.randint(0, 2500)
        expect = tuple(map(reference, range(i, j + 1)))
        assert read(seq, i, j).symbols == expect, (pattern, i, j)
        assert tuple(seq.at(k) for k in range(i, j + 1, 37)) == expect[::37], (pattern, i)
