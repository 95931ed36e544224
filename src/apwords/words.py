"""Finite words, lazily evaluable infinite words, and their constructions.

Symbols are opaque hashable tokens (single-character strings for the base
alphabets, tuples for product alphabets, generated tokens for block
alphabets).  An Alphabet fixes a total, stable order on its symbols; every
"choose a letter" step elsewhere in the package breaks ties by this order.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import threading
from operator import itemgetter

from .errors import (
    AlphabetError,
    FiniteOutputError,
    ResourceLimitError,
    SchemeError,
    SpecParseError,
    content_lines,
)
from .regulators import DEFAULT_CEILING

# Finite blocks larger than this are refused rather than materialized.
MAX_BLOCK_SYMBOLS = 2 ** 25


class _Record:
    """Base of the package's records.  A subclass names its fields in
    ``__slots__`` (the order of its constructor, repr and comparison) and
    sets them with ``_set``.  Records compare equal to records of the same
    class whose fields in ``_compare`` (default: all) are equal.  They are
    frozen and hashable unless declared with ``frozen=False``."""

    __slots__ = ()

    def __init_subclass__(cls, frozen=True):
        super().__init_subclass__()
        cls._compare = cls.__dict__.get("_compare", cls.__slots__)
        if not frozen:
            cls.__hash__ = None
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self):
        return tuple(getattr(self, name) for name in self._compare)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class _Strict(dict):
    """A dict keyed by an alphabet's symbols: other keys raise AlphabetError."""

    def __missing__(self, symbol):
        raise AlphabetError(f"symbol {symbol!r} not in alphabet")


class Alphabet:
    """An ordered finite set of distinct symbols, each with one letter code:
    the character that stands for it wherever a word is scanned as text.
    The code is the symbol itself when every symbol is a one-character
    string below U+0100, else chr(i) for the i-th symbol, so an alphabet of
    at most 256 symbols codes into latin-1 characters."""

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
        self._own = _Strict(zip(syms, syms))  # each symbol to itself
        if all(isinstance(s, str) and len(s) == 1 and s < "\u0100" for s in syms):
            self._codes = self._letters = None  # each symbol is its own code
        else:
            codes = tuple(map(chr, range(len(syms))))
            self._codes = dict(zip(syms, codes))
            self._letters = dict(zip(codes, syms))

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

    def encode(self, symbols):
        """The letter codes of symbols of the alphabet, as one string."""
        if self._codes is None:
            return "".join(symbols)
        return "".join(map(self._codes.__getitem__, symbols))

    def decode(self, text):
        """The symbols whose letter codes make up text, as a tuple."""
        if self._letters is None:
            return tuple(text)
        return tuple(map(self._letters.__getitem__, text))

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
        self.alphabet = alphabet
        self.symbols = tuple(map(alphabet._own.__getitem__, symbols))

    @classmethod
    def _of(cls, alphabet, symbols):  # a tuple of the alphabet's symbols
        w = object.__new__(cls)
        w.alphabet, w.symbols = alphabet, symbols
        return w

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __eq__(self, other):
        if isinstance(other, Word):
            return self.symbols == other.symbols
        return NotImplemented

    def __hash__(self):
        return hash(self.symbols)

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

    A handle supplies one deterministic range read, ``_read_symbols(i, j)``,
    which returns letters i..j in one call as a tuple.  Its letters must be
    in the alphabet.  This module's handles keep that unchecked:
    FuncSequence and the StreamSequence constructor check the letters of
    user code, and every other handle takes its letters from a child, a
    machine, a word or a substitution.  ``read(i, j)`` is the one caller of
    the range read: it rejects a negative index and wraps the letters in a
    Word, checked for a handle class defined elsewhere.  Composite handles
    read their children through ``read``, so that check holds on every
    path, and ``at(i)`` is ``read(i, i)[0]``.  A handle may fill ahead of
    a read (memoize a chunk, drive a machine further) only where that
    cannot raise: a failure or the end of a finite word surfaces only when
    a read reaches its position.  Handles are immutable after construction
    and safe for concurrent reads.
    """

    def __init__(self, alphabet, description=""):
        self.alphabet = alphabet
        self.description = description

    def at(self, i):
        return self.read(i, i)[0]

    def read(self, i, j):
        if i < 0 or i > j:
            raise ValueError(f"bad read range [{i}, {j}]")
        if type(self).__module__ != __name__:  # a handle of user code
            return Word(self.alphabet, self._read_symbols(i, j))
        return Word._of(self.alphabet, self._read_symbols(i, j))

    def suffix(self, n):
        """The handle for index -> self(n + index)."""
        if n < 0:
            raise ValueError("suffix shift must be >= 0")
        if n == 0:
            return self
        return _View((), self, n, f"suffix:{n}:{self.description}")

    def __repr__(self):
        return f"<{type(self).__name__} {self.description!r}>"


class _View(SequenceHandle):
    """The letters of head, then those of seq from letter n on, kept as a
    head word, then a base handle read from letter shift on.  A view of a
    view folds into one view of its base, so views never stack, and reads
    past the head share the base's memo."""

    def __init__(self, head, seq, n, description):
        super().__init__(seq.alphabet, description)
        if isinstance(seq, _View):
            head += seq._head[n:]
            seq, n = seq._base, seq._shift + max(0, n - len(seq._head))
        self._head, self._base, self._shift = head, seq, n

    def _read_symbols(self, i, j):
        head, shift = self._head, self._shift - len(self._head)
        if j < len(head):
            return head[i:j + 1]
        return head[i:] + self._base.read(max(i, len(head)) + shift, j + shift).symbols


class FuncSequence(SequenceHandle):
    """Index-function sequence memoized in chunks of CHUNK letters.  Chunk
    c is a list of fn's letters at the indices c * CHUNK onwards, filled in
    place, under the handle's lock, from its length to the last index a
    read reaches; so fn runs once per index however reads interleave, and
    a fill that fn interrupts resumes where it stopped.  A read raises what
    fn raises at an index inside it, or AlphabetError where fn returns a
    letter outside the alphabet, with the letters before that index still
    readable.  A read that starts past such an index, or that meets fn's
    StopIteration (which ends map), calls fn index by index instead."""

    CHUNK = 4096

    def __init__(self, alphabet, fn, description=""):
        super().__init__(alphabet, description)
        self._fn = fn
        self._chunks = {}
        self._lock = threading.Lock()

    def _read_symbols(self, i, j):
        own, out = self.alphabet._own, []
        for c in range(i // self.CHUNK, j // self.CHUNK + 1):
            base = c * self.CHUNK
            stop = min(j + 1 - base, self.CHUNK)
            chunk = self._chunks.get(c)
            if chunk is None or len(chunk) < stop:
                with self._lock:
                    chunk = self._chunks.setdefault(c, [])
                    try:
                        chunk.extend(map(own.__getitem__, map(
                            self._fn, range(base + len(chunk), base + stop))))
                    except Exception:
                        if base + len(chunk) >= i:
                            raise
                if len(chunk) < stop:
                    # fn raised before i, or raised StopIteration, which map
                    # takes for its end: call fn itself
                    return tuple([own[self._fn(k)] for k in range(i, j + 1)])
            out += chunk[max(i - base, 0):stop]
        return tuple(out)


class StreamSequence(SequenceHandle):
    """Sequence fed by a fill function, buffered as it is consumed.

    ``fill(need)`` gets the number of letters the read still needs and
    returns a list of the next letters, as many as it has, or None at the
    end of a finite word, past which reads raise FiniteOutputError.  The
    constructor's fill reads its iterator a letter a call, and raises
    AlphabetError at a letter outside the alphabet.  What a fill
    raises, a KeyboardInterrupt or StopIteration too, is kept with the
    letters before it and raised unchanged by every read that reaches its
    position.  Fills are serialized so concurrent reads are safe.
    """

    def __init__(self, alphabet, iterator, description=""):
        super().__init__(alphabet, description)
        # a letter a fill, so the letters before the iterator's error are kept
        letters = map(list, zip(map(alphabet._own.__getitem__, iterator)))
        self._fill = lambda need: next(letters, None)
        self._buf = []
        self._error = self._trace = None
        self._lock = threading.Lock()

    @classmethod
    def _of_fill(cls, alphabet, fill, description=""):
        stream = cls(alphabet, (), description)
        stream._fill = fill
        return stream

    def _ensure(self, n):
        """Fill the buffer past position n, or as far as the fill goes."""
        buf = self._buf
        with self._lock:
            while len(buf) <= n and self._fill is not None:
                try:
                    letters = self._fill(n + 1 - len(buf))
                except BaseException as exc:
                    # raised again from this traceback, so it does not grow
                    letters, self._error, self._trace = None, exc, exc.__traceback__
                if letters is None:  # the fill ended or failed: drop it
                    self._fill = None
                else:
                    buf += letters

    def _read_symbols(self, i, j):
        buf = self._buf
        if len(buf) <= j:
            self._ensure(j)
            if len(buf) <= j:
                if self._error is not None:
                    raise self._error.with_traceback(self._trace)
                raise FiniteOutputError(len(buf))
        if i or len(buf) > j + 1:
            return tuple(buf[i:j + 1])
        letters = tuple(buf)  # the whole buffer, with no slice of it
        return letters if len(letters) == j + 1 else letters[:j + 1]


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

    def _read_symbols(self, i, j):
        return tuple(zip(self._a.read(i, j).symbols, self._b.read(i, j).symbols))


def product(seq_a, seq_b):
    """Componentwise pairing: index -> (a(i), b(i)) over the product alphabet."""
    return _Product(seq_a, seq_b)


class _Projection(SequenceHandle):
    def __init__(self, alphabet, seq, k):
        super().__init__(alphabet)
        self._seq = seq
        self._k = k

    def _read_symbols(self, i, j):
        return tuple(map(itemgetter(self._k), self._seq.read(i, j).symbols))


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


def prepend(w, seq):
    """The sequence w(0) ... w(k-1) seq(0) seq(1) ..."""
    if isinstance(w, str):
        w = word(w, seq.alphabet)
    for s in w.symbols:
        if s not in seq.alphabet:
            raise AlphabetError(f"prepended symbol {s!r} not in sequence alphabet")
    return _View(w.symbols, seq, 0, f"prepend:{w.text()}:{seq.description}")


# ---------------------------------------------------------------------------
# Substitutions


class SchemeSpec(_Record):
    """Substitution with a start label, served by its fixed point.

    Structural requirements (checked here): every image has at least 2
    labels, all from the label alphabet, decode is total, and following the
    first labels of the images from the start label leads back to it (a
    start label whose image begins with itself is the one-step case).
    Images may have different lengths.  The recurrence conditions (every
    label in every image; adjacent pairs) are checked by scheme_validate.
    """

    __slots__ = ("labels", "rules", "decode", "start")
    _compare = ("labels", "start")

    def __init__(self, labels, rules, decode, start=None):
        self._set(labels, rules, decode, start)
        fault = _scheme_fault(labels, rules, decode, start)
        if fault:
            raise SchemeError(fault[1])

    def base_alphabet(self):
        return Alphabet(dict.fromkeys(self.decode[lab] for lab in self.labels))


def _scheme_fault(labels, rules, decode, start):
    """The first structural fault of a scheme, as (the stanza of a scheme
    file at fault, message), or None."""
    for lab in labels:
        if lab not in rules:
            return "labels", f"no rule for label {lab!r}"
        for s in rules[lab]:
            if s not in labels:
                return f"rule {lab}", f"rule image symbol {s!r} is not a label"
        if lab not in decode:
            return "labels", f"no decode entry for label {lab!r}"
    for lab in labels:
        if len(rules[lab]) < 2:
            return f"rule {lab}", "rule images must have length >= 2"
    if start not in labels:
        return "start", "start label missing from label alphabet"
    lab = start
    for _ in labels:
        lab = rules[lab][0]
        if lab == start:
            return None
    return "start", "first labels of images from the start label must lead back to it"


# Range reads of a fixed point are cut from the decoded level-b images of
# the labels, b the last level before one with an image longer than this.
_STRETCH = 4096


class _FixedPoint(SequenceHandle):
    """The decoded fixed point x of a substitution sigma.

    Let f map a label to the first label of its image, which leads from the
    start back to it in P steps.  With s_n = f^(-n mod P)(start), sigma^n(s_n)
    is a prefix of x for every n.  Letter i lies in the first such prefix at
    a level n >= b that is longer than i; descending from s_n through the
    image lengths of each level below finds the label whose decoded level-b
    image holds it, and range reads are cut from those images.  Lengths,
    prefixes and images are built once, here, up to the first prefix longer
    than DEFAULT_CEILING, so reads share no growing state; a read at or past
    that prefix raises ResourceLimitError.
    """

    def __init__(self, spec, description):
        super().__init__(spec.base_alphabet(), description)
        self._rules = rules = {lab: tuple(spec.rules[lab]) for lab in spec.labels}
        cycle = [spec.start]
        while rules[cycle[-1]][0] != spec.start:
            cycle.append(rules[cycle[-1]][0])
        # level n: |sigma^n(a)| for every label a, then s_n and |sigma^n(s_n)|
        self._lengths = lengths = [dict.fromkeys(rules, 1)]
        self._starts, self._prefixes = [spec.start], [1]
        while self._prefixes[-1] <= DEFAULT_CEILING:
            below = lengths[-1]
            lengths.append({lab: sum(map(below.__getitem__, image))
                            for lab, image in rules.items()})
            self._starts.append(cycle[-len(self._starts) % len(cycle)])
            self._prefixes.append(lengths[-1][self._starts[-1]])
        # images are the letter codes of the decoded images; reads decode them
        images = {lab: self.alphabet.encode((spec.decode[lab],)) for lab in rules}
        self._b = 0
        while max(lengths[self._b + 1].values()) <= _STRETCH:
            images = {lab: "".join(map(images.__getitem__, image))
                      for lab, image in rules.items()}
            self._b += 1
        self._images = images

    def _locate(self, i):
        """The label whose level-b image holds letter i of the undecoded
        fixed point, and the offset of i in that image."""
        b = self._b
        n = bisect.bisect_right(self._prefixes, i, b)
        lab = self._starts[n]
        for lengths in reversed(self._lengths[b:n]):
            for lab in self._rules[lab]:
                if i < lengths[lab]:
                    break
                i -= lengths[lab]
        return lab, i

    def _read_symbols(self, i, j):
        end = self._prefixes[-1]
        if j >= end:
            raise ResourceLimitError(
                f"index {i if i >= end else j} exceeds ceiling {DEFAULT_CEILING}")
        pieces = []
        while i <= j:
            lab, r = self._locate(i)
            image = self._images[lab]
            pieces.append(image[r:r + j + 1 - i])
            i += len(image) - r
        return self.alphabet.decode("".join(pieces))


def _prefix_block(seq, k, n):
    """The first k^n letters of the fixed point of a length-k uniform
    substitution, refused past MAX_BLOCK_SYMBOLS."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if k ** n > MAX_BLOCK_SYMBOLS:
        raise ResourceLimitError(
            f"block of length {k}^{n} exceeds limit {MAX_BLOCK_SYMBOLS}")
    return seq.read(0, k ** n - 1)


# ---------------------------------------------------------------------------
# Thue-Morse, the quintuple blocks a_n and the pasted words c_0 c_1 c_2 ...:
# fixed points over their own letters (and markers, for the pasted words)

_IDENTITY = {"0": "0", "1": "1"}
_TM_SCHEME = SchemeSpec(BINARY, {"0": "01", "1": "10"}, _IDENTITY, "0")
# a_0 = 1 and a_{n+1} = a_n ~a_n ~a_n a_n a_n, so a_n = sigma^n(1)
_QUINTUPLE_SCHEME = SchemeSpec(BINARY, {"0": "01100", "1": "10011"}, _IDENTITY, "1")


def _pasted(pattern, description):
    """c_0 c_1 c_2 ..., c_n the level-n quintuple block repeated
    pattern[n mod P] times (P the period), as the fixed point of the
    quintuple rules and m_j -> m_(j+1 mod P) 1^pattern[-1-j mod P] over
    markers m_0 ... m_(P-1), viewed from letter 1.  From the start m_0,
    s_n = m_(-n mod P) and sigma^n(s_n) = m_0 c_0 ... c_(n-1)."""
    period = len(pattern)
    markers = tuple(f"m{j}" for j in range(period))
    rules = dict(_QUINTUPLE_SCHEME.rules)
    for j, m in enumerate(markers):
        rules[m] = (markers[(j + 1) % period],) + ("1",) * pattern[(-1 - j) % period]
    decode = dict(_IDENTITY, **dict.fromkeys(markers, "1"))
    spec = SchemeSpec(Alphabet(("0", "1") + markers), rules, decode, markers[0])
    return _View((), _FixedPoint(spec, ""), 1, description)


# Built once: the constructors below hand out copies, which share the level
# lengths and images and differ only in their description.
_TM = _FixedPoint(_TM_SCHEME, "tm")
_QUINTUPLE = _FixedPoint(_QUINTUPLE_SCHEME, "")
_THM21 = _pasted((4,), "thm21")
_PASTED = {}  # thm21tau handles by cut pattern, emptied when 32 are kept


def thue_morse():
    """The Thue-Morse sequence 0110100110010110... over {0,1}."""
    return copy.copy(_TM)


def tm_block(n):
    """Doubling block: block(0) = 0, block(n+1) = block(n) + its complement."""
    return _prefix_block(_TM, 2, n)


def thm21_block(n):
    """Quintuple block: a_0 = 1, a_{n+1} = a ~a ~a a a; length 5^n."""
    return _prefix_block(_QUINTUPLE, 5, n)


def quintuple_limit():
    """The fixed point lim a_n of the quintuple blocks (a uniformly
    recurrent sequence; also reachable as a scheme fixed point)."""
    return copy.copy(_QUINTUPLE)


class TauSpec(_Record):
    """Periodic repetition counts in {4,5}: c_n repeats pattern[n mod period] times."""

    __slots__ = ("pattern",)

    def __init__(self, pattern):
        self._set(pattern)
        if not pattern:
            raise ValueError("tau pattern must be non-empty")
        if any(v not in (4, 5) for v in pattern):
            raise ValueError("tau values must be in {4, 5}")


def thm21():
    """The pasted sequence c_0 c_1 c_2 ... with c_n = a_n a_n a_n a_n."""
    return copy.copy(_THM21)


def thm21_tau(tau):
    """Variant with c_n repeated tau(n) times, tau periodic."""
    if not isinstance(tau, TauSpec):
        tau = TauSpec(tuple(tau))
    # c_0 ... c_(n-1) hold at least 5^n letters, so no read below the ceiling
    # reaches a count past the quintuple limit's levels: cut the pattern there
    pattern = tau.pattern[:len(_QUINTUPLE._prefixes)]
    if len(_PASTED) >= 32:
        _PASTED.clear()
    built = _PASTED[pattern] = _PASTED.get(pattern) or _pasted(pattern, "")
    seq = copy.copy(built)
    seq.description = "thm21tau:" + "".join(map(str, tau.pattern))
    return seq


def tm_triple_fixture(n):
    """block block block + Thue-Morse, the moving-prefix counterexample family."""
    b = tm_block(n)
    w = Word(BINARY, b.symbols * 3)
    seq = prepend(w, thue_morse())
    seq.description = f"fixture:tm-triple:{n}"
    return seq


# ---------------------------------------------------------------------------
# Scheme recurrence conditions and scheme files


class SchemeVerdict(_Record):
    """strengthened_ok: bool, or None when not requested."""

    __slots__ = ("basic_ok", "strengthened_ok", "failures")

    def __init__(self, basic_ok, strengthened_ok, failures):
        self._set(basic_ok, strengthened_ok, failures)

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
    """The decoded fixed point of iterating the rules from the start label
    (of their P-th power when first labels lead back to the start in P
    steps), served by _FixedPoint once every label occurs in every image."""
    verdict = scheme_validate(spec)
    if not verdict.basic_ok:
        raise SchemeError("scheme rejected: " + "; ".join(verdict.failures))
    return _FixedPoint(spec, "scheme")


def parse_scheme_file(path):
    """Parse the line-based scheme format.

    Stanzas: ``labels A B``, ``start A``, ``rule A A B``, ``decode A 0``.
    Blank lines and ``#`` comments are ignored.  Each stanza may appear
    once (once per label for ``rule`` and ``decode``), and ``rule`` and
    ``decode`` may name only declared labels.
    """
    labels = None
    start = None
    rules = {}
    decode = {}
    seen = {}  # stanza -> line number
    for lineno, line in content_lines(path):
        parts = line.split()
        kind = parts[0]
        stanza = " ".join(parts[:2] if kind in ("rule", "decode") else parts[:1])
        if stanza in seen:
            raise SchemeError(f"{path}:{lineno}: repeated {stanza!r} stanza")
        seen[stanza] = lineno
        if kind == "labels":
            try:
                labels = Alphabet(parts[1:])
            except AlphabetError as exc:
                raise AlphabetError(f"{path}:{lineno}: {exc}") from None
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
    for stanza, lineno in seen.items():
        kind, _, lab = stanza.partition(" ")
        if lab and lab not in labels:
            raise SchemeError(f"{path}:{lineno}: {kind} for undeclared label {lab!r}")
    fault = _scheme_fault(labels, rules, decode, start)
    if fault:
        stanza, message = fault
        where = f"{path}:{seen[stanza]}" if stanza in seen else path
        raise SchemeError(f"{where}: {message}")
    return SchemeSpec(labels=labels, rules=rules, decode=decode, start=start)


# ---------------------------------------------------------------------------
# Sequence-spec mini-language


class SpecNode(_Record):
    """Parsed node of the sequence-spec mini-language."""

    __slots__ = ("kind", "args", "children")

    def __init__(self, kind, args=(), children=()):
        self._set(kind, args, children)


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
    if not (token.isascii() and token.isdigit()):
        raise SpecParseError(f"expected a number, got {token!r}", pos)
    return int(token), end


def _parse_tau(text, pos):
    digits, end = _take_token(text, pos)
    if any(c not in "45" for c in digits):
        raise SpecParseError("tau digits must be 4 or 5", pos)
    return digits, end


def _parse_node(text, pos):
    """One construction: its name, then the arguments its _GRAMMAR entry
    lists, each after ":" (after "," when it follows a sequence).  A string
    in the list is a keyword that must appear as is and is not kept."""
    name, end = _take_token(text, pos)
    if name not in _GRAMMAR:
        raise SpecParseError(f"unknown construction {name!r}", pos)
    args, children, sep = [], [], ":"
    for parse in _GRAMMAR[name][0]:
        end = _expect(text, end, sep)
        if isinstance(parse, str):
            token, end = _take_token(text, end)
            if token != parse:
                raise SpecParseError(f"unknown {name} family {token!r}", end - len(token))
            continue
        value, end = parse(text, end)
        (children if parse is _parse_node else args).append(value)
        sep = "," if parse is _parse_node else ":"
    return SpecNode(name, tuple(args), tuple(children)), end


# name -> (argument parsers in order, builder); _parse_node parses a
# sequence, and the builder takes the other arguments, then the sequences.
_GRAMMAR = {
    "tm": ((), thue_morse),
    "thm21": ((), thm21),
    "thm21tau": ((_parse_tau,), lambda digits: thm21_tau(tuple(map(int, digits)))),
    "periodic": ((_take_token,), periodic),
    "prepend": ((_take_token, _parse_node), prepend),
    "suffix": ((_parse_int, _parse_node), lambda n, seq: seq.suffix(n)),
    "product": ((_parse_node, _parse_node), product),
    "scheme": ((lambda text, pos: _take_token(text, pos, stop=","),),
               lambda path: scheme_generate(parse_scheme_file(path))),
    "fixture": (("tm-triple", _parse_int), tm_triple_fixture),
}


def parse_spec(text):
    """Parse a sequence-spec string into its construction tree."""
    node, pos = _parse_node(text, 0)
    if pos != len(text):
        raise SpecParseError("trailing input", pos)
    return node


def build_sequence(node):
    """Materialize a SequenceHandle from a parsed construction tree."""
    if node.kind not in _GRAMMAR:
        raise ValueError(f"unknown node kind {node.kind!r}")
    build = _GRAMMAR[node.kind][1]
    return build(*node.args, *map(build_sequence, node.children))


def make_sequence(spec):
    """Parse a spec string and build the corresponding handle."""
    seq = build_sequence(parse_spec(spec))
    seq.description = spec
    return seq
