"""Brute-force verification oracles over finite prefixes.

Everything here is a horizon-bounded falsifier: a "fail" carries a concrete,
re-scannable counterexample; a "pass" is corroboration up to the horizon
only (reported as pass-at-horizon), never a proof of membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
            factor = _text_word(key, seq.alphabet)
            if first > L - n:
                return Verdict(
                    "fail", horizon,
                    counterexample=Counterexample(factor, 0, L),
                    failures=((n, Counterexample(factor, 0, L)),),
                    failure_count=1,
                )
            if maxgap > L - n + 1:
                ce = Counterexample(factor, gap_prev + 1, L)
                return Verdict(
                    "fail", horizon, counterexample=ce,
                    failures=((n, ce),), failure_count=1,
                )
            if last < horizon - L:
                ce = Counterexample(factor, horizon - L, L)
                return Verdict(
                    "fail", horizon, counterexample=ce,
                    failures=((n, ce),), failure_count=1,
                )
    return Verdict("pass", horizon, note="pass-at-horizon")


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
    recur_cut = horizon * recur_fraction
    gap_cut = horizon * gap_fraction
    failures = []
    count = 0
    for n in range(1, n_max + 1):
        for key, (first, last, maxgap, gap_prev) in _factor_stats(text, n).items():
            ce = None
            if last < recur_cut:
                ce = Counterexample(
                    _text_word(key, seq.alphabet), last + 1, horizon - (last + 1)
                )
            elif max(first, maxgap) > gap_cut:
                if first >= maxgap:
                    ce = Counterexample(_text_word(key, seq.alphabet), 0, first - 1 + n)
                else:
                    ce = Counterexample(
                        _text_word(key, seq.alphabet), gap_prev + 1, maxgap - 2 + n
                    )
            if ce is not None:
                count += 1
                if len(failures) < max_failures:
                    failures.append((n, ce))
    if count:
        return Verdict(
            "fail", horizon, counterexample=failures[0][1],
            failures=tuple(failures), failure_count=count,
        )
    return Verdict("pass", horizon, note="pass-at-horizon")


def is_cube_free(w):
    """Whether no non-empty u has uuu as a factor of w.

    Per period p, agreement runs between w and its shift by p are grown
    around anchors at multiples of p; a run of length >= 2p is a cube.
    """
    text = _encode(w.symbols, w.alphabet)
    n = len(text)
    for p in range(1, n // 3 + 1):
        t = p
        while t + p <= n:
            f = 0
            while t + p + f < n and text[t + f] == text[t + p + f]:
                f += 1
            b = 0
            while b < p and t - 1 - b >= 0 and text[t - 1 - b] == text[t + p - 1 - b]:
                b += 1
            if b + f >= 2 * p:
                i = t - b
                factor = _text_word(text[i:i + p], w.alphabet)
                return Verdict(
                    "fail", n,
                    counterexample=Counterexample(factor, i, 3 * p),
                    failures=((p, Counterexample(factor, i, 3 * p)),),
                    failure_count=1,
                )
            t += p
    return Verdict("pass", n)


def default_cut_grid(horizon):
    """0, 1, 2, 4, ... doubling up to horizon // 2."""
    cuts = [0]
    c = 1
    while c <= horizon // 2:
        cuts.append(c)
        c *= 2
    return cuts


def pr_upper_estimate(seq, horizon, n_max, cut_grid=None, **sap_kwargs):
    """Smallest sampled cut whose suffix passes the recurrence falsifier.

    This is an upper estimate of the minimal uniformly-recurrent suffix cut,
    valid only at the horizon and factor lengths scanned; returns None when
    no sampled cut passes.
    """
    if cut_grid is None:
        cut_grid = default_cut_grid(horizon)
    for c in sorted(cut_grid):
        if horizon - c < n_max:
            break
        v = check_sap(seq.suffix(c), horizon - c, n_max, **sap_kwargs)
        if v.status == "pass":
            return c
    return None


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
