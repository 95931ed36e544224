"""Reference answers that follow the definitions, written without ``apwords``.

Sequences are built from their defining recurrences (Thue-Morse by doubling,
the quintuple blocks by a_{n+1} = a ~a ~a a a), and the oracles are the
naive ones: a window-by-window regulator check, a recurrence check with
``check_sap``'s documented thresholds, a naive cube search and a naive gap
scan for the empirical bound B.  They are slow and simple on purpose; the
benchmark runs them untimed, after the measured passes.
"""

import hashlib
from functools import lru_cache

# ---------------------------------------------------------------------------
# Sequences, as tuples of symbols (strings, or pairs for products)

_FLIP = str.maketrans("01", "10")


def tm_prefix(n):
    s = "0"
    while len(s) < n:
        s += s.translate(_FLIP)
    return s[:n]


def quintuple_block(level):
    a = "1"
    for _ in range(level):
        na = a.translate(_FLIP)
        a = a + na + na + a + a
    return a


def pasted_prefix(pattern, n):
    """c_0 c_1 ... with c_k the level-k quintuple block repeated pattern[k]."""
    parts, total, level = [], 0, 0
    while total < n:
        block = quintuple_block(level) * pattern[level % len(pattern)]
        parts.append(block)
        total += len(block)
        level += 1
    return "".join(parts)[:n]


@lru_cache(maxsize=64)
def prefix(spec, n):
    """The first n symbols of a sequence spec (the subset the benchmark uses)."""
    if spec == "tm":
        return tuple(tm_prefix(n))
    if spec == "thm21":
        return tuple(pasted_prefix((4,), n))
    kind, _, rest = spec.partition(":")
    if kind == "thm21tau":
        return tuple(pasted_prefix(tuple(int(c) for c in rest), n))
    if kind == "periodic":
        return tuple((rest * (n // len(rest) + 1))[:n])
    if kind == "prepend":
        w, _, child = rest.partition(":")
        return (tuple(w) + prefix(child, max(n - len(w), 0)))[:n]
    if kind == "fixture":
        family, _, level = rest.partition(":")
        if family != "tm-triple":
            raise ValueError(spec)
        block = tm_prefix(2 ** int(level))
        return (tuple(block * 3) + tuple(tm_prefix(n)))[:n]
    if kind == "product":
        left, _, right = rest.partition(",")
        return tuple(zip(prefix(left, n), prefix(right, n)))
    raise ValueError(f"reference has no construction for {spec!r}")


def encode(symbols):
    """Map symbols to characters so factors can be compared as strings."""
    codes = {}
    return "".join(chr(0xE000 + codes.setdefault(s, len(codes))) for s in symbols), codes


def factor_text(symbols, codes):
    """A factor in the same encoding; None if it uses a symbol never seen."""
    try:
        return "".join(chr(0xE000 + codes[s]) for s in symbols)
    except KeyError:
        return None


def regulator(desc):
    """Window length r(n) of a regulator descriptor."""
    kind = desc[0]
    if kind == "id+c":
        return lambda n: n + desc[1]
    if kind == "periodic":
        return lambda n: n + desc[1] - 1
    if kind == "thm21":
        def r(k):
            level = 1
            while 5 ** level <= k:
                level += 1
            return 3 * 5 ** (level + 1) - 1
        return r
    raise ValueError(f"unknown regulator {desc!r}")


# ---------------------------------------------------------------------------
# Oracles

def start_gaps(text, n):
    """[last start, largest start-gap] of every length-n factor, scanning
    every start position; the first occurrence counts as a gap from 0."""
    stats = {}
    for i in range(len(text) - n + 1):
        x = text[i:i + n]
        s = stats.get(x)
        if s is None:
            stats[x] = [i, i]
        else:
            if i - s[0] > s[1]:
                s[1] = i - s[0]
            s[0] = i
    return stats.values()


def check_regulator(text, reg, n_max):
    """(status, first failing n) by sliding every window of length r(n).

    A factor with an occurrence starting at or past r(n) counts as recurrent
    and must occur inside every r(n)-window of the prefix.
    """
    horizon = len(text)
    for n in range(1, n_max + 1):
        L = reg(n)
        if L > horizon:
            return "inconclusive", n
        starts = [text[i:i + n] for i in range(horizon - n + 1)]
        recurrent = {x for i, x in enumerate(starts) if i >= L}
        count = {}
        for i in range(L - n + 1):
            count[starts[i]] = count.get(starts[i], 0) + 1
        missing = sum(1 for x in recurrent if x not in count)
        if missing:
            return "fail", n
        for s in range(1, horizon - L + 1):
            gone = starts[s - 1]
            count[gone] -= 1
            if count[gone] == 0 and gone in recurrent:
                missing += 1
            new = starts[s + L - n]
            c = count.get(new, 0)
            if c == 0 and new in recurrent:
                missing -= 1
            count[new] = c + 1
            if missing:
                return "fail", n
    return "pass", None


# check_sap's documented default thresholds, as shares of the horizon
RECUR_FRACTION = 0.5
GAP_FRACTION = 0.25


def sap_failures(text, n_max):
    """(status, failure count) under check_sap's documented thresholds.

    A factor fails when its last occurrence starts before
    horizon*RECUR_FRACTION, or when a start-gap (the first occurrence counts
    as a gap from 0) exceeds horizon*GAP_FRACTION.
    """
    horizon = len(text)
    if horizon < n_max:
        return "inconclusive", 0
    count = 0
    for n in range(1, n_max + 1):
        for last, gap in start_gaps(text, n):
            if last < horizon * RECUR_FRACTION or gap > horizon * GAP_FRACTION:
                count += 1
    return ("fail" if count else "pass"), count


def smallest_cube_period(text):
    """The least p such that some uuu with |u| = p is a factor, else None."""
    data = bytes(ord(c) - 0xE000 for c in text)
    n = len(data)
    for p in range(1, n // 3 + 1):
        # byte i of diff is zero where text[i] == text[i + p]; a cube is 2p
        # zero bytes in a row
        diff = (int.from_bytes(data[:n - p], "big")
                ^ int.from_bytes(data[p:], "big")).to_bytes(n - p, "big")
        if diff.find(bytes(2 * p)) != -1:
            return p
    return None


def empirical_value(text, n):
    """B(n) = max(n, (n-1) + the largest start-gap of any length-n factor),
    the gap from 0 to the first occurrence included."""
    return max(n, (n - 1) + max(gap for _, gap in start_gaps(text, n)))


def pr_estimate(symbols, n_max):
    """Smallest cut 0, 1, 2, 4, ... <= horizon/2 whose suffix passes."""
    horizon = len(symbols)
    cuts = [0]
    c = 1
    while c <= horizon // 2:
        cuts.append(c)
        c *= 2
    for c in cuts:
        if horizon - c < n_max:
            break
        text, _ = encode(symbols[c:])
        if sap_failures(text, n_max)[0] == "pass":
            return c
    return None


def digest(text):
    """Short fingerprint of a long output, so workers need not ship it whole."""
    return hashlib.sha1(text.encode()).hexdigest()


def absent_from_window(text, pat, start, length):
    """Whether no occurrence of pat lies wholly inside [start, start+length)."""
    if start < 0 or length < 0 or start + length > len(text):
        return False
    return text.find(pat, start, start + length) == -1


# ---------------------------------------------------------------------------
# Machines

def transducer_output(machine, n_inputs):
    """Output of a transducer over the first n_inputs letters of the folded
    counting sequence letters[popcount(i) mod k]."""
    letters = machine["letters"]
    delta = {(q, s): (nxt, out) for q, s, nxt, out in machine["delta"]}
    q = machine["states"][0]
    out = []
    for i in range(n_inputs):
        q, w = delta[(q, letters[bin(i).count("1") % len(letters)])]
        out.append(w)
    return "".join(out)


def automaton_output(machine, symbols):
    delta = {(q, s): (nxt, out) for q, s, nxt, out in machine["delta"]}
    q = machine["states"][0]
    out = []
    for s in symbols:
        q, o = delta[(q, s)]
        out.append(o)
    return "".join(out)


def is_reversible(states, transitions):
    """Every input letter permutes the states."""
    by_letter = {}
    for q, s, nxt in transitions:
        by_letter.setdefault(s, []).append(nxt)
    return all(sorted(v) == sorted(states) for v in by_letter.values())


def iterated_bound(reg, n_states):
    total, v = 0, 1
    for _ in range(n_states):
        v = reg(v)
        total += v
    return total


def marker_blocks(symbols, marker):
    """(offset, blocks): cut after each marker, first partial block dropped."""
    offset = symbols.index(marker) + 1
    blocks, cur = [], []
    for s in symbols[offset:]:
        cur.append(s)
        if s == marker:
            blocks.append("".join(cur))
            cur = []
    return offset, blocks
