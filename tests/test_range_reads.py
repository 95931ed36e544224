"""Range reads agree with per-letter reads for every sequence construction."""

import random

import pytest

import apwords as ap
from apwords import FuncSequence, make_sequence, projections, read

QUINT_SCHEME = "labels A B\nstart A\nrule A A B B A A\nrule B B A A B B\n" \
               "decode A 1\ndecode B 0\n"

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
]

CHUNK_EDGES = [c * 4096 for c in range(1, 6)]


def _level_starts(tau):
    """Where each level c_n of a pasted quintuple sequence begins."""
    starts, pos = [], 0
    for n in range(7):
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


@pytest.mark.parametrize("spec", SPECS)
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
    assert len(calls) == FuncSequence.CHUNK  # one chunk, filled once


def test_quintuple_level_starts_are_precomputed():
    seq = ap.thm21()
    bounds = seq._bounds
    assert isinstance(bounds, tuple)
    assert all(bounds[n] == 5 ** n - 1 for n in range(len(bounds)))
    assert bounds[-1] > ap.regulators.DEFAULT_CEILING
    with pytest.raises(ap.ResourceLimitError):
        seq.at(bounds[-1])
    with pytest.raises(ap.ResourceLimitError):
        read(seq, bounds[-1] - 2, bounds[-1])
