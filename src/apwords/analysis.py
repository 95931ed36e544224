"""Brute-force verification oracles over finite prefixes.

Everything here is a horizon-bounded falsifier: a "fail" carries a concrete,
re-scannable counterexample; a "pass" is corroboration up to the horizon
only (reported as pass-at-horizon), never a proof of membership.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, pairwise, starmap, takewhile
from operator import eq, sub

from .errors import ResourceLimitError
from .regulators import Regulator
from .words import Word

# Symbols are mapped to private-use-area characters so factor scans can use
# native string slicing and find().
_PUA = 0xE000


def _char_table(alphabet):
    """symbol -> its private-use-area character."""
    return {s: chr(_PUA + i) for i, s in enumerate(alphabet.symbols)}


def _encode(symbols, alphabet):
    return "".join(map(_char_table(alphabet).__getitem__, symbols))


def _seq_text(seq, lo, hi):
    return _encode(seq.read(lo, hi).symbols, seq.alphabet)


def _word_text(x, alphabet):
    """Map a Word through a sequence's alphabet; None if a symbol is foreign."""
    if not alphabet.covers(x.symbols):
        return None
    return _encode(x.symbols, alphabet)


def _text_word(text, alphabet):
    return Word(alphabet, tuple(alphabet.symbols[ord(c) - _PUA] for c in text))


@dataclass(frozen=True)
class Counterexample:
    """A factor and a window in which re-scanning confirms it is absent."""

    factor: Word
    window_start: int
    window_len: int


@dataclass(frozen=True)
class Verdict:
    status: str  # "pass" | "fail" | "inconclusive"
    horizon: int
    counterexample: Counterexample = None
    failures: tuple = ()  # (n, Counterexample) pairs, capped
    failure_count: int = 0
    note: str = ""

    @property
    def passed(self):
        return self.status == "pass"


def occurrences(x, seq, lo, hi):
    """Sorted start positions in [lo, hi] where x occurs in seq."""
    if len(x) < 1:
        raise ValueError("occurrence query needs a non-empty factor")
    if lo > hi or lo < 0:
        raise ValueError(f"bad scan range [{lo}, {hi}]")
    pat = _word_text(x, seq.alphabet)
    if pat is None:
        return []
    text = _seq_text(seq, lo, hi + len(x) - 1)
    starts = []
    i = text.find(pat)
    while i != -1:
        starts.append(lo + i)
        i = text.find(pat, i + 1)
    return starts


def aligned_occurrences(x, seq, k, lo, hi):
    """The occurrences whose start index is divisible by k."""
    if k < 1:
        raise ValueError("alignment modulus must be >= 1")
    return [i for i in occurrences(x, seq, lo, hi) if i % k == 0]


def _factor_stats(text, n):
    """One forward pass: factor -> (first, last, maxgap, maxgap_prev_start).

    Gaps are start-to-start distances between consecutive occurrences; the
    gap from position 0 to the first occurrence is folded in by the callers
    that want it.
    """
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


class EmpiricalRegulator:
    """Finite-horizon lower bound B for any true regulator of a sequence.

    B(n) = (n-1) + the maximal start-gap of any length-n factor of the
    prefix, counting the gap from position 0 to the first occurrence
    (single-occurrence factors contribute only that); clamped to >= n.
    Values are computed on demand from the cached prefix, one O(horizon)
    pass per distinct n.
    """

    def __init__(self, seq, horizon, n_max=None):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.seq = seq
        self.horizon = horizon
        self._text = _seq_text(seq, 0, horizon - 1)
        self._table = {}
        if n_max is not None:
            if n_max < 1 or horizon < n_max:
                raise ValueError("need horizon >= n_max >= 1")
            for n in range(1, n_max + 1):
                self.value(n)

    def value(self, n):
        if n < 1:
            raise ValueError("factor length must be >= 1")
        if n > self.horizon // 2:
            raise ResourceLimitError(
                f"empirical bound for n={n} unsupported at horizon {self.horizon}"
            )
        v = self._table.get(n)
        if v is None:
            stats = _factor_stats(self._text, n)
            worst = max(max(first, maxgap) for first, _, maxgap, _ in stats.values())
            v = max(n, (n - 1) + worst)
            self._table[n] = v
        return v

    @property
    def table(self):
        return dict(self._table)

    def as_regulator(self):
        return Regulator(
            self.value,
            "empirical-lower-bound",
            f"empirical(H={self.horizon}) of {self.seq.description}",
        )


def empirical_regulator(seq, horizon, n_max=None):
    return EmpiricalRegulator(seq, horizon, n_max)


def _fail(horizon, n, ce):
    """A fail verdict with one counterexample, found at factor length n."""
    return Verdict(
        "fail", horizon, counterexample=ce, failures=((n, ce),), failure_count=1
    )


def check_regulator(seq, reg, horizon, n_max):
    """Falsify a candidate regulator against a prefix.

    A factor with some occurrence starting at or past reg(n) is treated as
    recurrent (the regulator's own cutoff condition) and must then occur in
    every reg(n)-window of the prefix.  Any true violation inside the
    horizon is found; a pass is corroboration at this horizon only.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    text = _seq_text(seq, 0, horizon - 1)
    for n in range(1, n_max + 1):
        L = reg(n)
        if L > horizon:
            return Verdict(
                "inconclusive", horizon,
                note=f"horizon {horizon} < window {L} required at n={n}",
            )
        for key, (first, last, maxgap, gap_prev) in _factor_stats(text, n).items():
            if last < L:
                continue  # occurs finitely by the cutoff condition
            if first > L - n:
                start = 0
            elif maxgap > L - n + 1:
                start = gap_prev + 1
            elif last < horizon - L:
                start = horizon - L
            else:
                continue
            return _fail(
                horizon, n, Counterexample(_text_word(key, seq.alphabet), start, L)
            )
    return Verdict("pass", horizon, note="pass-at-horizon")


def _sap_rule(horizon, recur_fraction, gap_fraction):
    """The per-factor test of check_sap at one horizon.

    Returns fault(first, last, maxgap): "recur" when the factor's last start
    lies before horizon*recur_fraction, "gap" when its first start or a
    start-gap exceeds horizon*gap_fraction, None when it passes.
    """
    recur_cut = horizon * recur_fraction
    gap_cut = horizon * gap_fraction

    def fault(first, last, maxgap):
        if last < recur_cut:
            return "recur"
        if max(first, maxgap) > gap_cut:
            return "gap"
        return None

    return fault


def check_sap(seq, horizon, n_max, recur_fraction=0.5, gap_fraction=0.25,
              max_failures=256):
    """Falsify uniform recurrence of every factor up to length n_max.

    A factor whose last occurrence starts before horizon*recur_fraction while
    the scan continues to the horizon is witnessed non-recurrent; a factor
    whose start-gaps exceed horizon*gap_fraction has no witnessed bound.
    Both thresholds are artifact knobs with these defaults.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if horizon < n_max:
        return Verdict("inconclusive", horizon, note="horizon smaller than n_max")
    text = _seq_text(seq, 0, horizon - 1)
    fault = _sap_rule(horizon, recur_fraction, gap_fraction)
    failures = []
    count = 0
    for n in range(1, n_max + 1):
        for key, (first, last, maxgap, gap_prev) in _factor_stats(text, n).items():
            kind = fault(first, last, maxgap)
            if kind is None:
                continue
            if kind == "recur":
                start, length = last + 1, horizon - (last + 1)
            elif first >= maxgap:
                start, length = 0, first - 1 + n
            else:
                start, length = gap_prev + 1, maxgap - 2 + n
            count += 1
            if len(failures) < max_failures:
                failures.append(
                    (n, Counterexample(_text_word(key, seq.alphabet), start, length))
                )
    if count:
        return Verdict(
            "fail", horizon, counterexample=failures[0][1],
            failures=tuple(failures), failure_count=count,
        )
    return Verdict("pass", horizon, note="pass-at-horizon")


def _run_length(text, a, b, cap):
    """Length of the common prefix of text[a:] and text[b:], at most cap.

    Binary search with slice compares: O(log cap) steps in Python.
    """
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if text[a + lo:a + mid] == text[b + lo:b + mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def is_cube_free(w):
    """Whether no non-empty u has uuu as a factor of w.

    A cube of period p holds an anchor t = kp (k >= 1) whose p-blocks
    w[t:t+p] and w[t+p:t+2p] are equal; an anchor where they differ has a
    forward agreement run f < p between w and its shift by p, and at most p
    agreeing letters before t, so it holds no cube.  Per period, the full
    p-blocks are therefore streamed and compared with their right neighbours
    in C.  At a matching anchor, f is grown past p with slice compares
    (capped at 2p) and one slice compare tests the 2p - f letters before t;
    only a confirmed cube counts the agreeing letters before t one by one,
    capped at p, for the witness start.  The witness is the first cube in
    (period, anchor) order.
    """
    text = _encode(w.symbols, w.alphabet)
    n = len(text)
    for p in range(1, n // 3 + 1):
        blocks = map(text.__getitem__,
                     map(slice, range(p, n - p + 1, p), range(2 * p, n + 1, p)))
        for k in compress(count(1), starmap(eq, pairwise(blocks))):
            t = k * p
            f = p + _run_length(text, t + p, t + 2 * p, min(p, n - t - 2 * p))
            need = 2 * p - f
            if text[t - need:t] != text[t + p - need:t + p]:
                continue
            b = 0
            while b < p and text[t - 1 - b] == text[t + p - 1 - b]:
                b += 1
            i = t - b
            return _fail(
                n, p, Counterexample(_text_word(text[i:i + p], w.alphabet), i, 3 * p)
            )
    return Verdict("pass", n)


def default_cut_grid(horizon):
    """0, 1, 2, 4, ... doubling up to horizon // 2."""
    cuts = [0]
    c = 1
    while c <= horizon // 2:
        cuts.append(c)
        c *= 2
    return cuts


def _factor_positions(text, n):
    """One forward pass: factor -> ascending start positions."""
    positions = {}
    for i in range(len(text) - n + 1):
        key = text[i:i + n]
        pos = positions.get(key)
        if pos is None:
            positions[key] = [i]
        else:
            pos.append(i)
    return positions


def pr_upper_estimate(seq, horizon, n_max, cut_grid=None, recur_fraction=0.5,
                      gap_fraction=0.25):
    """Smallest sampled cut whose suffix passes the recurrence falsifier.

    This is an upper estimate of the minimal uniformly-recurrent suffix cut,
    valid only at the horizon and factor lengths scanned; returns None when
    no sampled cut passes.  By definition it is the first cut c of the sorted
    grid (stopping at the first c with horizon - c < n_max) for which
    check_sap(seq.suffix(c), horizon - c, n_max) passes.

    The prefix from the smallest cut is encoded once.  Per factor length n,
    one forward pass lists every factor's start positions and the suffix
    maxima of its start-gaps; each cut still alive then reads its first,
    last and widest start-gap per factor by one bisection and is judged by
    the same per-factor rule as check_sap.  A cut is dropped at its first
    failing factor.

    At a finite n_max, a sequence with no uniformly recurrent suffix can
    still have a passing cut: every non-recurring factor past that cut may be
    longer than n_max.  For thm21 at horizon 5^6 the estimate is 16 at
    n_max = 20 and 128 at n_max = 60.
    """
    if cut_grid is None:
        cut_grid = default_cut_grid(horizon)
    live = list(takewhile(lambda c: horizon - c >= n_max, sorted(cut_grid)))
    if not live:
        return None
    base = live[0]
    # the errors of the definition's first check, in its order
    suffix = seq.suffix(base)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    text = _seq_text(suffix, 0, horizon - base - 1)
    rules = {c: _sap_rule(horizon - c, recur_fraction, gap_fraction) for c in live}
    for n in range(1, n_max + 1):
        # A start-gap no wider than the gap cut of the largest live cut fails
        # no live cut, so a factor without a wider gap skips its suffix
        # maxima and is judged with 0 in their place.
        gap_floor = (horizon - live[-1]) * gap_fraction
        factors = []
        for pos in _factor_positions(text, n).values():
            gaps = list(map(sub, pos[1:], pos))
            tailmax = None
            if max(gaps, default=0) > gap_floor:
                tailmax = list(accumulate(reversed(gaps), max, initial=0))
                tailmax.reverse()
            factors.append((pos, tailmax))
        live = [c for c in live if _cut_passes(factors, c - base, rules[c])]
        if not live:
            return None
    return live[0]


def _cut_passes(factors, d, fault):
    """Whether every factor starting at or past offset d passes fault."""
    for pos, tailmax in factors:
        k = bisect_left(pos, d)
        if k == len(pos):
            continue  # the factor starts only before the cut
        if fault(pos[k] - d, pos[-1] - d, tailmax[k] if tailmax else 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Report serialization


def verdict_fields(op, spec, n_max, verdict):
    ce = verdict.counterexample
    return {
        "op": op,
        "spec": spec,
        "horizon": verdict.horizon,
        "n_max": n_max,
        "status": verdict.status,
        "note": verdict.note,
        "failure_count": verdict.failure_count,
        "counterexample": None if ce is None else {
            "factor": ce.factor.text(),
            "window_start": ce.window_start,
            "window_len": ce.window_len,
        },
    }


def verdict_tsv(fields):
    ce = fields["counterexample"]
    cols = [
        fields["op"], fields["spec"], str(fields["horizon"]),
        str(fields["n_max"]), fields["status"],
        "-" if ce is None else f"{ce['factor']}@{ce['window_start']}+{ce['window_len']}",
        fields["note"] or "-",
    ]
    return "\t".join(cols)
