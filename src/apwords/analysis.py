"""Brute-force verification oracles over finite prefixes.

Everything here is a horizon-bounded falsifier: a "fail" carries a concrete,
re-scannable counterexample; a "pass" is corroboration up to the horizon
only (reported as pass-at-horizon), never a proof of membership.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate, compress, count, islice, repeat
from operator import add, itemgetter, sub

from .errors import ResourceLimitError
from .regulators import Regulator
from .words import Word, _Record


def _seq_text(seq, lo, hi):
    """Letters lo..hi of seq as text: one letter code each (Alphabet.encode)."""
    return seq.alphabet.encode(seq.read(lo, hi).symbols)


def _word_text(x, alphabet):
    """Map a Word through a sequence's alphabet; None if a symbol is foreign."""
    if not alphabet.covers(x.symbols):
        return None
    return alphabet.encode(x.symbols)


def _text_word(text, alphabet):
    return Word(alphabet, alphabet.decode(text))


class Counterexample(_Record):
    """A factor and a window in which re-scanning confirms it is absent."""

    __slots__ = ("factor", "window_start", "window_len")

    def __init__(self, factor, window_start, window_len):
        self._set(factor, window_start, window_len)


class Verdict(_Record):
    """status: "pass" | "fail" | "inconclusive"; failures: (n,
    Counterexample) pairs, capped."""

    __slots__ = ("status", "horizon", "counterexample", "failures",
                 "failure_count", "note")

    def __init__(self, status, horizon, counterexample=None, failures=(),
                 failure_count=0, note=""):
        self._set(status, horizon, counterexample, failures, failure_count, note)

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


# Positions are held in array('i') and turned into Python ints this many at
# a time, so no pass builds a list as long as the text.
_SLICE = 4096


def _widest_gap(pos, lo=0):
    """(width, start) of the first widest start-gap in pos[lo:].

    (0, pos[lo]) when pos[lo:] holds one start.
    """
    width, at = 0, pos[lo]
    for k in range(lo, len(pos) - 1, _SLICE):
        chunk = pos[k:k + _SLICE + 1].tolist()
        gaps = list(map(sub, islice(chunk, 1, None), chunk))
        widest = max(gaps)
        if widest > width:
            width, at = widest, chunk[gaps.index(widest)]
    return width, at


def _entry(pos):
    """[first, last, maxgap, gap_prev, positions] of ascending starts."""
    return [pos[0], pos[-1], *_widest_gap(pos), pos]


def _split(pos, stop, nxt):
    """The starts pos[:stop] grouped by their next letter nxt[p].

    Each group is ascending; the groups come in no set order.  A slice of
    starts costs one C-level pass per distinct next letter in it.
    """
    groups = {}
    for k in range(0, stop, _SLICE):
        chunk = list(pos[k:min(k + _SLICE, stop)])
        letters = "".join(itemgetter(*chunk)(nxt))
        kinds = set(letters)
        select = dict.fromkeys(map(ord, kinds), 0)
        for a in kinds:
            # a bytes mask of the starts followed by a, for compress()
            select[ord(a)] = 1
            mask = letters.translate(select).encode()
            select[ord(a)] = 0
            group = groups.get(a)
            if group is None:
                group = groups[a] = array("i")
            group.fromlist(list(compress(chunk, mask)))
    return list(groups.values())


def _byte_stats(ids, v):
    """[first, last, maxgap, gap_prev] of the positions of byte v in ids, or
    None when v does not occur; from the lengths of the pieces of one split."""
    lens = list(map(len, ids.split(bytes((v,)))))
    m = len(lens) - 1  # how many times v occurs
    if not m:
        return None
    first, last = lens[0], len(ids) - 1 - lens[-1]
    if m == 1:
        return [first, last, 0, first]
    widest = max(islice(lens, 1, m))
    j = lens.index(widest, 1, m)  # lens[j] lies between positions j - 1 and j
    return [first, last, widest + 1, first + j - 1 + sum(islice(lens, 1, j))]


def _numbered(text):
    """(k, text): the k distinct letters of text and, when k <= 256, the text
    with them numbered 0..k-1 in letter order (latin-1 letters)."""
    letters = sorted(set(text))
    if len(letters) <= 256:
        text = text.translate(dict(zip(map(ord, letters), range(len(letters)))))
    return len(letters), text


def _starts(ids, v):
    """The ascending positions of byte v in ids, as an array('i')."""
    lens = map(len, ids.split(bytes((v,)))[:-1])
    return array("i", map(add, accumulate(lens), count()))


class FactorIndex:
    """Every factor of one text at a factor length n, refined one n at a time.

    Level n lists the distinct length-n factors in order of first
    occurrence, each with its stats [first, last, maxgap, gap_prev]: first
    and last start, the widest start-gap and the start that opens the first
    widest gap (maxgap 0 and gap_prev = first for a factor that occurs
    once).  Level n + 1 is made from level n.  A factor u can have two right
    extensions only if its suffix u[1:] had two at the level before
    (Cassaigne, Recurrence in infinite words, STACS 2001), so only those
    factors are split by next letter; every other factor keeps its stats,
    except the one that starts at len(text) - n, which loses that start.
    One set of strings, the length-(n - 1) factors that had two right
    extensions, serves both kinds of level below.

    The k distinct letters of the text are numbered 0..k-1.  While a
    level's F factors times k fit a byte (F * k <= 256), the level is one
    bytes object of ids, ids[i] = the first-occurrence number of the factor
    starting at i.  The next level is ids[i] * k + the next letter for all
    i in one big-integer multiply-add (no byte can carry), renumbered by one
    bytes.translate; a child of a factor that can branch gets its stats
    from one bytes.split.  From the first level where F * k > 256, each
    factor holds its ascending starts (an array('i')) instead.

    The index moves forward only; asking for a smaller n than the current
    one rebuilds it from n = 0.
    """

    def __init__(self, text):
        self._text = text
        self._k, self._codes = _numbered(text)
        self._reset()

    def _reset(self):
        # Level 0: the empty factor, starting everywhere, always split.
        end = len(self._text)
        self._n = 0
        self._ids = bytes(end + 1)
        self._level = [[0, end, min(end, 1), 0]]
        self._branched = {""}  # factors that branched at n - 1; "" splits level 0

    def _advance(self):
        n, ids, k, codes = self._n, self._ids, self._k, self._codes
        if ids is not None and len(self._level) * k > 256:  # hand off to arrays
            self._level = [[*s, _starts(ids, v)] for v, s in enumerate(self._level)]
            self._ids = None
        if self._ids is None:
            return self._advance_starts()
        size = len(ids) - 1  # the factor starting at size has no next letter
        raw = (int.from_bytes(ids[:-1], "big") * k + int.from_bytes(
            codes[n:].encode("latin-1"), "big")).to_bytes(size, "big")
        kids, branched = [], set()
        for v, s in enumerate(self._level):
            first, last, maxgap, _ = s
            if maxgap and codes[first + 1:first + n] in self._branched:
                split = [*filter(None, map(_byte_stats, repeat(raw, k),
                                           range(v * k, v * k + k)))]
                if len(split) > 1:
                    branched.add(codes[first:first + n])
                kids.extend(split)
            elif last < size:
                kids.append(s)
            elif first < size:
                kids.append(_byte_stats(raw, raw[first]))
        kids.sort(key=itemgetter(0))
        table = bytearray(256)
        for j, s in enumerate(kids):
            table[raw[s[0]]] = j
        self._ids, self._level, self._branched = raw.translate(table), kids, branched
        self._n = n + 1

    def _advance_starts(self):
        n, codes, branched = self._n, self._codes, self._branched
        end = len(codes) - n  # a length-n factor starting here has no next letter
        nxt = codes[n:]
        level, self._branched = [], set()
        for entry in self._level:
            first, last, _, _, pos = entry
            stop = len(pos) - (last == end)
            if stop > 1 and codes[first + 1:first + n] in branched:
                groups = _split(pos, stop, nxt)
                if len(groups) > 1:
                    self._branched.add(codes[first:first + n])
                level.extend(map(_entry, groups))
            elif stop == len(pos):
                level.append(entry)
            elif stop:
                level.append(_entry(pos[:stop]))
        level.sort(key=itemgetter(0))
        self._level, self._n = level, n + 1

    def _at(self, n):
        """(ids, entries) of level n: ids None once entries hold their starts
        as a fifth field; no entries past the text's length."""
        if n < 0:
            raise ValueError("factor length must be >= 0")
        if n < self._n:
            self._reset()
        while self._n < n and self._level:
            self._advance()
        return self._ids, self._level

    def stats(self, n):
        """factor -> [first, last, maxgap, gap_prev] at length n, in order of
        first occurrence (fresh lists)."""
        text = self._text
        return {text[e[0]:e[0] + n]: e[:4] for e in self._at(n)[1]}


def _factor_stats(text, n):
    """factor -> [first, last, maxgap, gap_prev] for the length-n factors of
    text, in order of first occurrence; the same as FactorIndex(text).stats(n).

    Gaps are start-to-start distances between consecutive occurrences; the
    gap from position 0 to the first occurrence is folded in by the callers
    that want it.
    """
    return FactorIndex(text).stats(n)


class EmpiricalRegulator:
    """Finite-horizon lower bound B for any true regulator of a sequence.

    B(n) = (n-1) + the maximal start-gap of any length-n factor of the
    prefix, counting the gap from position 0 to the first occurrence
    (single-occurrence factors contribute only that); clamped to >= n.
    Values are computed on demand from one FactorIndex of the prefix.  The
    index only moves forward, so the worst gap of every length it passes is
    kept: asking for B(82) and then B(76) refines the index once.  ``table``
    holds only the values asked for.
    """

    def __init__(self, seq, horizon, n_max=None):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.seq = seq
        self.horizon = horizon
        self._index = FactorIndex(_seq_text(seq, 0, horizon - 1))
        self._worst = {}  # n -> widest first start or start-gap, n = 1, 2, ...
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
            while n not in self._worst:
                m = len(self._worst) + 1
                self._worst[m] = max(max(first, maxgap) for first, _, maxgap, _
                                     in self._index.stats(m).values())
            v = self._table[n] = max(n, (n - 1) + self._worst[n])
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
    index = FactorIndex(_seq_text(seq, 0, horizon - 1))
    for n in range(1, n_max + 1):
        L = reg(n)
        if L > horizon:
            return Verdict(
                "inconclusive", horizon,
                note=f"horizon {horizon} < window {L} required at n={n}",
            )
        for key, (first, last, maxgap, gap_prev) in index.stats(n).items():
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


SAP_RECUR_FRACTION = 0.5
SAP_GAP_FRACTION = 0.25
SAP_MAX_FAILURES = 256


def _sap_faults(level, cut, horizon, n_max):
    """The factors of lengths 1..n_max that fail the sap rule on the suffix
    of the prefix from cut, in order of length, then of first occurrence.

    level(n) gives (ids, entries) of a FactorIndex of the prefix of length
    horizon.  Only a factor with a start at or past cut is judged, from
    start, the first such start.  It fails "recur" when its last start lies
    before the recur cut (horizon - cut)/2 of the suffix, and "gap" when
    start - cut or a start-gap exceeds the gap cut (horizon - cut)/4.  The
    factor's widest start-gap stands in for the widest one past the cut,
    which it bounds; the gaps past the cut are scanned only when that gap
    opens before the cut and the factor fails with it.  Each failure is
    (n, kind, start, last, maxgap, gap_prev), the gap and the start opening
    it taken past the cut when scanned there.
    """
    recur_cut = (horizon - cut) * SAP_RECUR_FRACTION
    gap_cut = (horizon - cut) * SAP_GAP_FRACTION
    for n in range(1, n_max + 1):
        ids, entries = level(n)
        for v, (first, last, maxgap, gap_prev, *pos) in enumerate(entries):
            if last < cut:
                continue  # the factor starts only before the cut
            if first >= cut:
                start = first
            elif ids is None:
                k = bisect_left(pos[0], cut)
                start = pos[0][k]
            else:
                start = ids.find(v, cut)
            if last - cut < recur_cut:
                kind = "recur"
            elif max(start - cut, maxgap) <= gap_cut:
                continue
            else:
                kind = "gap"
                if gap_prev < cut:
                    # the widest gap opens before the cut: judge the gaps past it
                    if ids is None:
                        maxgap, gap_prev = _widest_gap(pos[0], k)
                    else:
                        _, _, maxgap, gap_prev = _byte_stats(ids[start:], v)
                        gap_prev += start
                    if max(start - cut, maxgap) <= gap_cut:
                        continue
            yield n, kind, start, last, maxgap, gap_prev


def check_sap(seq, horizon, n_max):
    """Falsify uniform recurrence of every factor up to length n_max.

    A factor whose last occurrence starts before the recur cut horizon/2,
    while the scan continues to the horizon, is witnessed non-recurrent; a
    factor whose first start or a start-gap exceeds the gap cut horizon/4
    has no witnessed bound (the rule of _sap_faults, at cut 0).  The verdict
    lists the first 256 failures and counts them all.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    recur_cut = horizon * SAP_RECUR_FRACTION
    if horizon - n_max < recur_cut:
        return Verdict("inconclusive", horizon, note=f"no factor of length {n_max} "
                       f"can start past the recur cut {recur_cut:g}")
    text = _seq_text(seq, 0, horizon - 1)
    failures = []
    count = 0
    for n, kind, first, last, maxgap, gap_prev in _sap_faults(
            FactorIndex(text)._at, 0, horizon, n_max):
        if kind == "recur":
            start, length = last + 1, horizon - (last + 1)
        elif first >= maxgap:
            start, length = 0, first - 1 + n
        else:
            start, length = gap_prev + 1, maxgap - 2 + n
        count += 1
        if len(failures) < SAP_MAX_FAILURES:
            factor = _text_word(text[first:first + n], seq.alphabet)
            failures.append((n, Counterexample(factor, start, length)))
    if count:
        return Verdict(
            "fail", horizon, counterexample=failures[0][1],
            failures=tuple(failures), failure_count=count,
        )
    return Verdict("pass", horizon, note="pass-at-horizon")


# Periods below this get one XOR over the whole word; longer ones compare
# the names of windows this many letters long
_SHORT_PERIOD = 64


def _mixed(x):
    """64 well-mixed bits of x (the splitmix64 finalizer)."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x = (x ^ x >> shift) * factor % 2 ** 64
    return x ^ x >> 31


_WEIGHTS = tuple(map(_mixed, range(1, _SHORT_PERIOD + 1)))


def _window_names(codes, width):
    """Lane s of z bytes (4, or 8 for 4-byte letter codes) names the window
    of letters s..s+63 by the exact sum over j of code[s + j] * w_j, w_j the
    top 8z - 8 width - 6 bits of _WEIGHTS[j]: the codes in lanes times one
    constant, whose product no lane carries out of, so equal windows get
    equal names.  A shared name is only a filter."""
    z, n = 4 if width == 1 else 8, len(codes) // width
    lanes = bytearray(z * n)
    for b in range(width):
        lanes[z - width + b::z] = codes[b::width]
    bits = 8 * (z - width) - 6  # so 64 terms code * w_j sum below 2**(8z)
    weights = sum(w >> 64 - bits << 8 * z * j for j, w in enumerate(_WEIGHTS))
    names = (int.from_bytes(lanes, "big") * weights).to_bytes(z * (n + 63), "big")
    return memoryview(names)[63 * z:n * z].cast("I" if z == 4 else "Q")


def _zero_run(d, run, unit, start=0):
    """The first index >= start, in units of unit bytes, at which bytes d
    hold run zero units, or -1."""
    zeros = bytes(run * unit)
    j = d.find(zeros, start * unit)
    while j % unit and j > 0:
        j = d.find(zeros, j - j % unit + unit)
    return j // unit


def is_cube_free(w):
    """Whether no non-empty u has uuu as a factor of w.

    A cube of period p is 2p letters x with w[x] = w[x + p]: there the letter
    codes (one byte each, or four when more than 256 distinct letters
    occur), read as a number, XOR their shift by p to zero.
    Below _SHORT_PERIOD, one find over that XOR of the whole word gives the
    leftmost cube.  A longer cube holds an anchor t = kp (k >= 1) with equal
    p-blocks, so equal first windows.  Periods go in bands [lo, 2 lo): for
    each k, one XOR of the band's window names at kp and (k + 1)p finds the
    anchors whose names match, and only those get the exact block compare
    and the XOR over w[t-p:t+3p], in (period, anchor) order.  The witness
    has the least period, then leftmost start.
    """
    text, k = w.alphabet.encode(w.symbols), len(w.alphabet)
    if k > 256:  # the letters that occur may still fit a byte
        k, text = _numbered(text)
    if k <= 256:
        codes, width = text.encode("latin-1"), 1
    else:
        codes, width = text.encode("utf-32-be", "surrogatepass"), 4
    n, size, whole = len(text), len(codes), int.from_bytes(codes, "big")
    for p in range(1, min(n // 3 + 1, _SHORT_PERIOD)):
        d = (whole ^ whole >> 8 * width * p).to_bytes(size, "big")
        i = _zero_run(d, 2 * p, width, p)
        if i >= 0:
            return _cube(w, p, i - p)
    view, lo, names = memoryview(codes), _SHORT_PERIOD, _window_names(codes, width)
    z = names.itemsize
    while lo <= n // 3:
        top, hits = min(2 * lo, n // 3 + 1), []
        for k in range(1, n // lo - 1):  # periods p < stop have (k + 2)p <= n
            stop = min(top, n // (k + 2) + 1)
            x = (int.from_bytes(names[k * lo:k * stop:k], "big")
                 ^ int.from_bytes(names[(k + 1) * lo:(k + 1) * stop:k + 1], "big"))
            d, j = x.to_bytes((stop - lo) * z, "big"), -1
            while (j := _zero_run(d, 1, z, j + 1)) >= 0:
                hits.append((lo + j, k))
        for p, k in sorted(hits):
            t = k * p
            a, b, c = t * width, (t + p) * width, (t + 2 * p) * width
            if view[a:b] != view[b:c]:
                continue
            low, high = view[2 * a - b:min(c, size - b + a)], view[a:2 * c - b]
            x = int.from_bytes(low, "big") ^ int.from_bytes(high, "big")
            i = _zero_run(x.to_bytes(len(low), "big"), 2 * p, width)
            if i >= 0:
                return _cube(w, p, t - p + i)
        lo *= 2
    return Verdict("pass", n)


def _cube(w, p, i):
    ce = Counterexample(Word(w.alphabet, w.symbols[i:i + p]), i, 3 * p)
    return _fail(len(w), p, ce)


def default_cut_grid(horizon):
    """0, 1, 2, 4, ... doubling up to horizon // 2."""
    cuts = [0]
    c = 1
    while c <= horizon // 2:
        cuts.append(c)
        c *= 2
    return cuts


def pr_upper_estimate(seq, horizon, n_max):
    """Smallest sampled cut whose suffix passes the recurrence falsifier.

    This is an upper estimate of the minimal uniformly-recurrent suffix cut,
    valid only at the horizon and factor lengths scanned; returns None when
    no sampled cut passes.  The cuts sampled are default_cut_grid(horizon):
    0, 1, 2, 4, ... up to horizon/2.  By definition the estimate is the
    first such cut c (stopping at the first c with horizon - c < n_max) for
    which check_sap(seq.suffix(c), horizon - c, n_max) passes.

    The prefix is encoded once, into one FactorIndex whose levels are kept.
    Each cut is judged by _sap_faults, at n = 1, 2, ... until its first
    failing factor, so only once every smaller cut has failed.

    At a finite n_max, a sequence with no uniformly recurrent suffix can
    still have a passing cut: every non-recurring factor past that cut may be
    longer than n_max.  For thm21 at horizon 5^6 the estimate is 16 at
    n_max = 20 and 128 at n_max = 60.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cuts = [c for c in default_cut_grid(horizon) if horizon - c >= n_max]
    if not cuts:
        return None
    index = FactorIndex(_seq_text(seq, 0, horizon - 1))
    levels = []

    def level(n):
        if len(levels) < n:  # the index never changes a level it built
            levels.append(index._at(n))
        return levels[n - 1]

    for cut in cuts:
        if next(_sap_faults(level, cut, horizon, n_max), None) is None:
            return cut
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
