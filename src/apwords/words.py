"""Finite words, lazily evaluable infinite words, and their constructions.

Symbols are opaque hashable tokens (single-character strings for the base
alphabets, tuples for product alphabets, generated tokens for block
alphabets).  An Alphabet fixes a total, stable order on its symbols; every
"choose a letter" step elsewhere in the package breaks ties by this order.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import (
    AlphabetError,
    FiniteOutputError,
    ResourceLimitError,
    SchemeError,
    SpecParseError,
)
from .regulators import DEFAULT_CEILING

# Finite blocks larger than this are refused rather than materialized.
MAX_BLOCK_SYMBOLS = 2 ** 25


class Alphabet:
    """An ordered finite set of distinct symbols."""

    def __init__(self, symbols):
        syms = tuple(symbols)
        if not syms:
            raise AlphabetError("alphabet must be non-empty")
        index = {}
        for i, s in enumerate(syms):
            if s in index:
                raise AlphabetError(f"duplicate symbol {s!r}")
            index[s] = i
        self._symbols = syms
        self._index = index

    @classmethod
    def from_text(cls, text):
        """Alphabet of the distinct characters of ``text``, sorted."""
        return cls(sorted(set(text)))

    @property
    def symbols(self):
        return self._symbols

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol):
        return symbol in self._index

    def covers(self, symbols):
        """Whether every one of the symbols is in the alphabet."""
        return self._index.keys() >= set(symbols)

    def __len__(self):
        return len(self._symbols)

    def __iter__(self):
        return iter(self._symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self._symbols == other._symbols

    def __hash__(self):
        return hash(self._symbols)

    def __repr__(self):
        return f"Alphabet({list(self._symbols)!r})"


BINARY = Alphabet(("0", "1"))


class Word:
    """A finite string of symbols over a declared alphabet (empty allowed)."""

    __slots__ = ("alphabet", "symbols")

    def __init__(self, alphabet, symbols):
        symbols = tuple(symbols)
        if not alphabet.covers(symbols):
            bad = next(s for s in symbols if s not in alphabet)
            raise AlphabetError(f"symbol {bad!r} not in alphabet")
        self.alphabet = alphabet
        self.symbols = symbols

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.symbols[i])
        return self.symbols[i]

    def __eq__(self, other):
        if isinstance(other, Word):
            return self.symbols == other.symbols
        return NotImplemented

    def __hash__(self):
        return hash(self.symbols)

    def __add__(self, other):
        if other.alphabet != self.alphabet:
            raise AlphabetError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.symbols + other.symbols)

    def text(self, sep=""):
        return sep.join(str(s) for s in self.symbols)

    def __repr__(self):
        return f"Word({self.text()!r})"


def word(text, alphabet=None):
    """Build a Word from a character string; the alphabet defaults to its
    sorted distinct characters."""
    if alphabet is None:
        alphabet = Alphabet.from_text(text) if text else BINARY
    return Word(alphabet, tuple(text))


def complement(w):
    """Symbol-wise swap over a two-symbol alphabet (an involution)."""
    if len(w.alphabet) != 2:
        raise AlphabetError("complement undefined: alphabet size is not 2")
    a, b = w.alphabet.symbols
    swap = {a: b, b: a}
    return Word(w.alphabet, tuple(swap[s] for s in w.symbols))


# ---------------------------------------------------------------------------
# Infinite sequences


class SequenceHandle:
    """A lazily evaluable infinite word: a pure function of index.

    ``at(i)`` must be deterministic.  ``read(i, j)`` is served by the range
    read ``_read_symbols(i, j)``, which returns letters i..j in one call and
    must equal the individual reads ``at(i) ... at(j)``; composite handles
    serve it from their children's range reads.  A handle may fill ahead of
    a read (memoize a chunk, drive a machine further) only where that cannot
    raise: a failure or the end of a finite word surfaces only when a read
    reaches its position.  Handles are immutable after construction and safe
    for concurrent reads.
    """

    def __init__(self, alphabet, description=""):
        self.alphabet = alphabet
        self.description = description

    def at(self, i):
        raise NotImplementedError

    def read(self, i, j):
        if i < 0 or i > j:
            raise ValueError(f"bad read range [{i}, {j}]")
        return Word(self.alphabet, self._read_symbols(i, j))

    def _read_symbols(self, i, j):
        return tuple(self.at(k) for k in range(i, j + 1))

    def _read_available(self, i, j):
        """Letters i..j, or the prefix of them that a plain read would give
        without raising: this stops quietly where the word ends or a read
        fails, and a plain read of that position raises.  Handles are
        functions of index (streams keep their error), so the error is
        deferred, never lost."""
        try:
            return self._read_symbols(i, j)
        except Exception:
            out = []
            for k in range(i, j + 1):
                try:
                    out.append(self.at(k))
                except Exception:
                    break
            return tuple(out)

    def suffix(self, n):
        """The handle for index -> self(n + index)."""
        if n < 0:
            raise ValueError("suffix shift must be >= 0")
        if n == 0:
            return self
        return _Suffix(self, n, f"suffix:{n}:{self.description}")

    def __repr__(self):
        return f"<{type(self).__name__} {self.description!r}>"


class _Suffix(SequenceHandle):
    """An offset view: reads go to the base handle and share its memo."""

    def __init__(self, base, shift, description):
        super().__init__(base.alphabet, description)
        if isinstance(base, _Suffix):
            base, shift = base._base, base._shift + shift
        self._base = base
        self._shift = shift

    def at(self, i):
        return self._base.at(self._shift + i)

    def _read_symbols(self, i, j):
        return self._base._read_symbols(self._shift + i, self._shift + j)


class FuncSequence(SequenceHandle):
    """Index-function sequence with chunked prefix memoization."""

    CHUNK = 4096

    def __init__(self, alphabet, fn, description=""):
        super().__init__(alphabet, description)
        self._fn = fn
        self._chunks = {}

    def _chunk(self, c):
        chunk = self._chunks.get(c)
        if chunk is None:
            base = c * self.CHUNK
            chunk = tuple(map(self._fn, range(base, base + self.CHUNK)))
            # idempotent fill: concurrent writers produce identical chunks
            self._chunks[c] = chunk
        return chunk

    def at(self, i):
        return self._chunk(i // self.CHUNK)[i % self.CHUNK]

    def _read_symbols(self, i, j):
        c, lo = divmod(i, self.CHUNK)
        last, hi = divmod(j, self.CHUNK)
        if c == last:
            return self._chunk(c)[lo:hi + 1]
        parts = [self._chunk(c)[lo:]]
        parts += map(self._chunk, range(c + 1, last))
        parts.append(self._chunk(last)[:hi + 1])
        return tuple(itertools.chain.from_iterable(parts))


class StreamSequence(SequenceHandle):
    """Sequence backed by a single generator, buffered as it is consumed.

    The generator may be finite; reads past its end raise FiniteOutputError
    lazily.  An exception the generator raises is kept, and every read that
    reaches its position raises it.  Buffer fills are serialized so
    concurrent reads are safe.
    """

    def __init__(self, alphabet, iterator, description=""):
        super().__init__(alphabet, description)
        self._it = iter(iterator)
        self._buf = []
        self._grow = self._buf.append
        self._done = False
        self._error = None
        self._lock = threading.Lock()

    @classmethod
    def _of_chunks(cls, alphabet, chunks, description=""):
        """A stream fed by an iterator of letter lists, one extend per list."""
        stream = cls(alphabet, chunks, description)
        stream._grow = stream._buf.extend
        return stream

    def _ensure(self, n):
        """Fill the buffer past position n, or as far as the generator goes."""
        if len(self._buf) > n:
            return
        with self._lock:
            while len(self._buf) <= n and not self._done:
                try:
                    self._grow(next(self._it))
                except StopIteration:
                    self._done = True
                except Exception as exc:
                    self._done = True
                    self._error = exc

    def _check(self, n):
        self._ensure(n)
        if len(self._buf) <= n:
            if self._error is not None:
                raise self._error
            raise FiniteOutputError(len(self._buf))

    def at(self, i):
        self._check(i)
        return self._buf[i]

    def _read_symbols(self, i, j):
        self._check(j)
        return tuple(self._buf[i:j + 1])

    def _read_available(self, i, j):
        self._ensure(j)
        return tuple(self._buf[i:j + 1])


def read(seq, i, j):
    """seq(i) ... seq(j) as a Word."""
    return seq.read(i, j)


class _Product(SequenceHandle):
    def __init__(self, seq_a, seq_b):
        alphabet = Alphabet(
            tuple(itertools.product(seq_a.alphabet.symbols, seq_b.alphabet.symbols))
        )
        super().__init__(
            alphabet, f"product:{seq_a.description},{seq_b.description}"
        )
        self._a = seq_a
        self._b = seq_b

    def at(self, i):
        return (self._a.at(i), self._b.at(i))

    def _read_symbols(self, i, j):
        return tuple(zip(self._a._read_symbols(i, j), self._b._read_symbols(i, j)))


def product(seq_a, seq_b):
    """Componentwise pairing: index -> (a(i), b(i)) over the product alphabet."""
    return _Product(seq_a, seq_b)


class _Projection(SequenceHandle):
    def __init__(self, alphabet, seq, k):
        super().__init__(alphabet)
        self._seq = seq
        self._k = k

    def at(self, i):
        return self._seq.at(i)[self._k]

    def _read_symbols(self, i, j):
        return tuple(map(itemgetter(self._k), self._seq._read_symbols(i, j)))


def projections(seq):
    """The two coordinate sequences of a product-alphabet sequence."""
    firsts, seconds = [], []
    for a, b in seq.alphabet.symbols:
        if a not in firsts:
            firsts.append(a)
        if b not in seconds:
            seconds.append(b)
    return _Projection(Alphabet(firsts), seq, 0), _Projection(Alphabet(seconds), seq, 1)


class _Periodic(SequenceHandle):
    def __init__(self, w):
        super().__init__(w.alphabet, f"periodic:{w.text()}")
        self._syms = w.symbols

    def at(self, i):
        return self._syms[i % len(self._syms)]

    def _read_symbols(self, i, j):
        syms = self._syms
        q, n = i % len(syms), j - i + 1
        return (syms * ((q + n - 1) // len(syms) + 1))[q:q + n]


def periodic(w):
    """The periodic sequence w w w ..."""
    if isinstance(w, str):
        w = word(w)
    if len(w) == 0:
        raise ValueError("period word must be non-empty")
    return _Periodic(w)


class _Prepend(SequenceHandle):
    def __init__(self, w, seq):
        super().__init__(seq.alphabet, f"prepend:{w.text()}:{seq.description}")
        self._head = w.symbols
        self._seq = seq

    def at(self, i):
        k = len(self._head)
        return self._head[i] if i < k else self._seq.at(i - k)

    def _read_symbols(self, i, j):
        head = self._head
        k = len(head)
        if j < k:
            return head[i:j + 1]
        return head[i:] + self._seq._read_symbols(max(i - k, 0), j - k)


def prepend(w, seq):
    """The sequence w(0) ... w(k-1) seq(0) seq(1) ..."""
    if isinstance(w, str):
        w = word(w, seq.alphabet)
    for s in w.symbols:
        if s not in seq.alphabet:
            raise AlphabetError(f"prepended symbol {s!r} not in sequence alphabet")
    return _Prepend(w, seq)


# ---------------------------------------------------------------------------
# Thue-Morse

_FLIP = str.maketrans("01", "10")


def _stretches(lo, hi, size, blocks, flipped, pieces):
    """Append letters lo..hi-1 of a word made of aligned stretches of size
    letters to pieces: stretch t is blocks[flipped(t)] (a string)."""
    while lo < hi:
        t, r = divmod(lo, size)
        end = min(hi, lo - r + size)
        pieces.append(blocks[flipped(t)][r:r + end - lo])
        lo = end


def _tm_text(n):
    s = "0"
    for _ in range(n):
        s += s.translate(_FLIP)
    return s


def _tm_parity(i):
    return bin(i).count("1") & 1


# Letter t * 2^12 + r of Thue-Morse is tm(r), flipped when tm(t) is 1, so a
# range read is cut from the level-12 block and its complement.
_TM_BASE_LEVEL = 12
_TM_BASE = (_tm_text(_TM_BASE_LEVEL), _tm_text(_TM_BASE_LEVEL).translate(_FLIP))


class _ThueMorse(SequenceHandle):
    """Letter i is the parity of the binary digit sum of i."""

    def __init__(self):
        super().__init__(BINARY, "tm")

    def at(self, i):
        return "01"[_tm_parity(i)]

    def _read_symbols(self, i, j):
        pieces = []
        _stretches(i, j + 1, 2 ** _TM_BASE_LEVEL, _TM_BASE, _tm_parity, pieces)
        return tuple("".join(pieces))


def thue_morse():
    """The Thue-Morse sequence 0110100110010110... over {0,1}."""
    return _ThueMorse()


def tm_block(n, max_len=MAX_BLOCK_SYMBOLS):
    """Doubling block: block(0) = 0, block(n+1) = block(n) + its complement."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if 2 ** n > max_len:
        raise ResourceLimitError(f"block of length 2^{n} exceeds limit {max_len}")
    return word(_tm_text(n), BINARY)


# ---------------------------------------------------------------------------
# The quintuple blocks a_n and the sequences built from them


def _quintuple_text(n):
    """a_0 = 1, a_{n+1} = a ~a ~a a a, as a string."""
    s = "1"
    for _ in range(n):
        t = s.translate(_FLIP)
        s = s + t + t + s + s
    return s


def thm21_block(n, max_len=MAX_BLOCK_SYMBOLS):
    """Quintuple block: a_0 = 1, a_{n+1} = a ~a ~a a a; length 5^n."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if 5 ** n > max_len:
        raise ResourceLimitError(f"block of length 5^{n} exceeds limit {max_len}")
    return word(_quintuple_text(n), BINARY)


def _quintuple_letter(n, j):
    """Letter j of the level-n quintuple block, computed by digit descent."""
    flips = 0
    for _ in range(n):
        if j % 5 in (1, 2):
            flips ^= 1
        j //= 5
    return "0" if flips else "1"


# Range reads of quintuple blocks are cut from (a_b, ~a_b) for b up to this
# level: a_n is a_b or ~a_b in each aligned stretch of 5^b letters.
_QUINTUPLE_BASE_LEVEL = 5
_QUINTUPLE_BASE = tuple(
    (a, a.translate(_FLIP))
    for a in map(_quintuple_text, range(_QUINTUPLE_BASE_LEVEL + 1))
)


def _quintuple_pieces(n, lo, hi, pieces):
    """Append letters lo..hi-1 of a_n a_n a_n ... to pieces, as strings."""
    b = min(n, _QUINTUPLE_BASE_LEVEL)
    count = 5 ** (n - b)  # base stretches per a_n
    _stretches(
        lo, hi, 5 ** b, _QUINTUPLE_BASE[b],
        lambda t: _quintuple_letter_unbounded(t % count) == "0", pieces,
    )


@dataclass(frozen=True)
class TauSpec:
    """Eventually-periodic repetition counts in {4,5} (the pattern repeats)."""

    pattern: tuple

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("tau pattern must be non-empty")
        if any(v not in (4, 5) for v in self.pattern):
            raise ValueError("tau values must be in {4, 5}")

    def count(self, n):
        return self.pattern[n % len(self.pattern)]


class _QuintupleConcat(SequenceHandle):
    """c_0 c_1 c_2 ... where c_n is the level-n quintuple block repeated
    tau(n) times (tau constant 4 gives the plain variant).

    Level n starts at sum_{m<n} tau(m) 5^m.  These starts are computed once,
    up to the regulator ceiling, so reads share no growing state; a range
    read walks them level by level.
    """

    def __init__(self, tau, description):
        super().__init__(BINARY, description)
        bounds = [0]
        while bounds[-1] <= DEFAULT_CEILING:
            n = len(bounds) - 1
            bounds.append(bounds[-1] + tau.count(n) * 5 ** n)
        self._bounds = tuple(bounds)

    def _level_for(self, i):
        n = bisect.bisect_right(self._bounds, i) - 1
        if n == len(self._bounds) - 1:
            raise ResourceLimitError(f"index {i} exceeds ceiling {DEFAULT_CEILING}")
        return n

    def at(self, i):
        n = self._level_for(i)
        p = i - self._bounds[n]
        return _quintuple_letter(n, p % 5 ** n)

    def _read_symbols(self, i, j):
        bounds = self._bounds
        n = self._level_for(i)
        self._level_for(j)  # past the ceiling, raise before any work
        pieces = []
        while i <= j:
            stop = min(j + 1, bounds[n + 1])
            _quintuple_pieces(n, i - bounds[n], stop - bounds[n], pieces)
            i = stop
            n += 1
        return tuple("".join(pieces))


def thm21():
    """The pasted sequence c_0 c_1 c_2 ... with c_n = a_n a_n a_n a_n."""
    return _QuintupleConcat(TauSpec((4,)), "thm21")


def thm21_tau(tau):
    """Variant with c_n repeated tau(n) times, tau eventually periodic."""
    if not isinstance(tau, TauSpec):
        tau = TauSpec(tuple(tau))
    return _QuintupleConcat(tau, "thm21tau:" + "".join(str(v) for v in tau.pattern))


def quintuple_limit():
    """The fixed point lim a_n of the quintuple blocks (a uniformly
    recurrent sequence; also reachable as a scheme fixed point)."""
    return FuncSequence(BINARY, lambda i: _quintuple_letter_unbounded(i))


def _quintuple_letter_unbounded(i):
    flips = 0
    while i:
        if i % 5 in (1, 2):
            flips ^= 1
        i //= 5
    return "0" if flips else "1"


def tm_triple_fixture(n):
    """block block block + Thue-Morse, the moving-prefix counterexample family."""
    b = tm_block(n)
    w = Word(BINARY, b.symbols * 3)
    seq = prepend(w, thue_morse())
    seq.description = f"fixture:tm-triple:{n}"
    return seq


# ---------------------------------------------------------------------------
# Uniform substitution schemes


@dataclass(frozen=True)
class SchemeSpec:
    """Uniform substitution with a self-prefixing start label.

    Structural requirements (checked here): all images have the same length
    k >= 2 over the label alphabet, decode is total, and the start label's
    image begins with the start label.  The recurrence conditions (every
    label in every image; adjacent pairs) are checked by scheme_validate.
    """

    labels: Alphabet
    rules: dict = field(compare=False)
    decode: dict = field(compare=False)
    start: object = None

    def __post_init__(self):
        lengths = set()
        for lab in self.labels:
            if lab not in self.rules:
                raise SchemeError(f"no rule for label {lab!r}")
            image = self.rules[lab]
            lengths.add(len(image))
            for s in image:
                if s not in self.labels:
                    raise SchemeError(f"rule image symbol {s!r} is not a label")
            if lab not in self.decode:
                raise SchemeError(f"no decode entry for label {lab!r}")
        if len(lengths) != 1:
            raise SchemeError("rule images must all have the same length")
        k = lengths.pop()
        if k < 2:
            raise SchemeError("rule images must have length >= 2")
        if self.start not in self.labels:
            raise SchemeError("start label missing from label alphabet")
        if self.rules[self.start][0] != self.start:
            raise SchemeError("start label's image must begin with the start label")

    @property
    def block_length(self):
        return len(self.rules[self.start])

    def base_alphabet(self):
        seen = []
        for lab in self.labels:
            v = self.decode[lab]
            if v not in seen:
                seen.append(v)
        return Alphabet(seen)


@dataclass(frozen=True)
class SchemeVerdict:
    basic_ok: bool
    strengthened_ok: object  # bool, or None when not requested
    failures: tuple

    @property
    def ok(self):
        if not self.basic_ok:
            return False
        return self.strengthened_ok is not False


def scheme_validate(spec, strengthened=False):
    """Check the recurrence conditions of a scheme.

    Basic: every label occurs in every image.  Strengthened: every ordered
    label pair occurs adjacently in every image (exhaustive enumeration).
    """
    failures = []
    labels = tuple(spec.labels)
    for lab in labels:
        image = spec.rules[lab]
        for w in labels:
            if w not in image:
                failures.append(f"label {w!r} missing from image of {lab!r}")
    basic_ok = not failures
    strengthened_ok = None
    if strengthened:
        strengthened_ok = True
        for lab in labels:
            image = tuple(spec.rules[lab])
            pairs = set(zip(image, image[1:]))
            for w1 in labels:
                for w2 in labels:
                    if (w1, w2) not in pairs:
                        failures.append(
                            f"pair {w1!r}{w2!r} not adjacent in image of {lab!r}"
                        )
                        strengthened_ok = False
    return SchemeVerdict(basic_ok, strengthened_ok, tuple(failures))


def scheme_generate(spec):
    """The decoded fixed point of iterating the rules from the start label.

    Index i is resolved by descending the base-k digit tree, so a single
    read costs O(log i).
    """
    verdict = scheme_validate(spec)
    if not verdict.basic_ok:
        raise SchemeError("scheme rejected: " + "; ".join(verdict.failures))
    k = spec.block_length
    rules = {lab: tuple(img) for lab, img in spec.rules.items()}
    decode = spec.decode
    start = spec.start

    def at(i):
        digits = []
        while i:
            digits.append(i % k)
            i //= k
        lab = start
        for d in reversed(digits):
            lab = rules[lab][d]
        return decode[lab]

    return FuncSequence(spec.base_alphabet(), at, description="scheme")


def parse_scheme_file(path):
    """Parse th line-based scheme format.

    Stanzas: ``labels A B``, ``start A``, ``rule A A B``, ``decode A 0``.
    Blank lines and ``#`` comments are ignored.
    """
    labels = None
    start = None
    rules = {}
    decode = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0]
            if kind == "labels":
                labels = Alphabet(parts[1:])
            elif kind == "start":
                if len(parts) != 2:
                    raise SchemeError(f"{path}:{lineno}: start takes one label")
                start = parts[1]
            elif kind == "rule":
                if len(parts) < 3:
                    raise SchemeError(f"{path}:{lineno}: rule needs an image")
                rules[parts[1]] = tuple(parts[2:])
            elif kind == "decode":
                if len(parts) != 3:
                    raise SchemeError(f"{path}:{lineno}: decode takes label and symbol")
                decode[parts[1]] = parts[2]
            else:
                raise SchemeError(f"{path}:{lineno}: unknown stanza {kind!r}")
    if labels is None:
        raise SchemeError(f"{path}: missing labels stanza")
    return SchemeSpec(labels=labels, rules=rules, decode=decode, start=start)


# ---------------------------------------------------------------------------
# Sequence-spec mini-language


@dataclass(frozen=True)
class SpecNode:
    """Parsed node of the sequence-spec mini-language."""

    kind: str
    args: tuple = ()
    children: tuple = ()


def _take_token(text, pos, stop=":,"):
    end = pos
    while end < len(text) and text[end] not in stop:
        end += 1
    if end == pos:
        raise SpecParseError("expected a token", pos)
    return text[pos:end], end


def _expect(text, pos, ch):
    if pos >= len(text) or text[pos] != ch:
        raise SpecParseError(f"expected {ch!r}", pos)
    return pos + 1


def _parse_int(text, pos):
    token, end = _take_token(text, pos)
    if not token.isdigit():
        raise SpecParseError(f"expected a number, got {token!r}", pos)
    return int(token), end


def _parse_node(text, pos):
    name, end = _take_token(text, pos)
    if name == "tm":
        return SpecNode("tm"), end
    if name == "thm21":
        return SpecNode("thm21"), end
    if name == "periodic":
        end = _expect(text, end, ":")
        w, end = _take_token(text, end)
        return SpecNode("periodic", (w,)), end
    if name == "thm21tau":
        end = _expect(text, end, ":")
        digits, end = _take_token(text, end)
        if any(c not in "45" for c in digits):
            raise SpecParseError("tau digits must be 4 or 5", end - len(digits))
        return SpecNode("thm21tau", (digits,)), end
    if name == "prepend":
        end = _expect(text, end, ":")
        w, end = _take_token(text, end)
        end = _expect(text, end, ":")
        child, end = _parse_node(text, end)
        return SpecNode("prepend", (w,), (child,)), end
    if name == "suffix":
        end = _expect(text, end, ":")
        n, end = _parse_int(text, end)
        end = _expect(text, end, ":")
        child, end = _parse_node(text, end)
        return SpecNode("suffix", (n,), (child,)), end
    if name == "product":
        end = _expect(text, end, ":")
        left, end = _parse_node(text, end)
        end = _expect(text, end, ",")
        right, end = _parse_node(text, end)
        return SpecNode("product", (), (left, right)), end
    if name == "scheme":
        end = _expect(text, end, ":")
        path, end = _take_token(text, end, stop=",")
        return SpecNode("scheme", (path,)), end
    if name == "fixture":
        end = _expect(text, end, ":")
        family, end = _take_token(text, end)
        if family != "tm-triple":
            raise SpecParseError(f"unknown fixture family {family!r}", end - len(family))
        end = _expect(text, end, ":")
        n, end = _parse_int(text, end)
        return SpecNode("fixture", (n,)), end
    raise SpecParseError(f"unknown construction {name!r}", pos)


def parse_spec(text):
    """Parse a sequence-spec string into its construction tree."""
    node, pos = _parse_node(text, 0)
    if pos != len(text):
        raise SpecParseError("trailing input", pos)
    return node


def build_sequence(node):
    """Materialize a SequenceHandle from a parsed construction tree."""
    if node.kind == "tm":
        return thue_morse()
    if node.kind == "thm21":
        return thm21()
    if node.kind == "periodic":
        return periodic(node.args[0])
    if node.kind == "thm21tau":
        return thm21_tau(tuple(int(c) for c in node.args[0]))
    if node.kind == "prepend":
        return prepend(node.args[0], build_sequence(node.children[0]))
    if node.kind == "suffix":
        return build_sequence(node.children[0]).suffix(node.args[0])
    if node.kind == "product":
        return product(*(build_sequence(c) for c in node.children))
    if node.kind == "scheme":
        return scheme_generate(parse_scheme_file(node.args[0]))
    if node.kind == "fixture":
        return tm_triple_fixture(node.args[0])
    raise ValueError(f"unknown node kind {node.kind!r}")


def make_sequence(spec):
    """Parse a spec string and build the corresponding handle."""
    seq = build_sequence(parse_spec(spec))
    seq.description = spec
    return seq
