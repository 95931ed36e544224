"""Finite automata, transducers, homomorphisms, marker splits, and the
reduction of an automaton image to a reversible one with a certified
deleted-prefix bound."""

from __future__ import annotations

import itertools

from .errors import (
    AlphabetError,
    InvariantViolation,
    ResourceLimitError,
    content_lines,
)
from .regulators import reg_iterated_bound, reg_split
from .words import Alphabet, StreamSequence, Word, _Record, word

# Inputs consumed without any output before a lazily-finite image is declared
# exhausted.
DEFAULT_STALL_LIMIT = 2 ** 17

# Cap on a split's closure scan, counted as its blocks times r(1), the most
# letters a block may span.
DEFAULT_SCAN_CAP = 2 ** 24

# Input letters a machine stream pulls from upstream in one range read: as
# many as the read it serves still needs, but at least _FLOOR and at most
# _CHUNK.
_CHUNK = 4096
_FLOOR = 64


class Transducer:
    """Machine emitting a (possibly empty) word per input letter:
    ``delta[(state, input)] == (next state, output word)``.

    The constructor is the one validator of machines (distinct states, one
    transition for every (state, input) pair and no other) and links the
    machine into rows, ``row[letter] == (next row, output word)``, so that
    a drive costs one dict lookup per letter from the initial row.  Its
    width is the length of its longest output word.
    """

    def __init__(self, input_alphabet, output_alphabet, states, initial, delta):
        states = tuple(states)
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not among states")
        rows = {q: {} for q in states}
        if len(rows) != len(states):
            raise ValueError("states must be distinct")
        kept = {}
        width = 0
        for q in states:
            for s in input_alphabet:
                if (q, s) not in delta:
                    raise ValueError(f"transition missing for ({q!r}, {s!r})")
                nxt, out = delta[(q, s)]
                if nxt not in rows:
                    raise ValueError(f"transition target {nxt!r} not a state")
                out, emitted = self._output(out)
                for o in emitted:
                    if o not in output_alphabet:
                        raise AlphabetError(f"output {o!r} not in output alphabet")
                kept[(q, s)] = (nxt, out)
                rows[q][s] = (rows[nxt], emitted)
                width = max(width, len(emitted))
        if len(kept) != len(delta):
            q, s = next(k for k in delta if k not in kept)
            raise ValueError(f"transition from ({q!r}, {s!r}) outside the "
                             "states and input alphabet")
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.states = states
        self.initial = initial
        self.delta = {k: kept[k] for k in delta}
        self._row = rows[initial]
        self._width = width

    @staticmethod
    def _output(out):
        """A transition's output as delta keeps it, and the word it emits."""
        out = tuple(out)
        return out, out


class Automaton(Transducer):
    """Letter-to-letter machine: ``delta[(state, input)] == (next state,
    output letter)``, driven as a transducer whose outputs are the
    one-letter words."""

    @staticmethod
    def _output(out):
        return out, (out,)

    def restricted(self, letters):
        """Copy with the input alphabet cut down to the given letters."""
        keep = tuple(s for s in self.input_alphabet if s in letters)
        if not keep:
            raise ValueError("restriction would empty the input alphabet")
        delta = {(q, s): v for (q, s), v in self.delta.items() if s in keep}
        return Automaton(
            Alphabet(keep), self.output_alphabet, self.states, self.initial, delta
        )

    def __repr__(self):
        return (
            f"Automaton(states={len(self.states)}, "
            f"input={list(self.input_alphabet)!r})"
        )


class Homomorphism(Transducer):
    """Alphabet morphism extended letter-wise; images may be empty.  It is
    a one-state transducer, whose one row is linked to itself."""

    def __init__(self, input_alphabet, output_alphabet, images):
        super().__init__(input_alphabet, output_alphabet, (None,), None,
                         {(None, s): (None, image) for s, image in images.items()})
        self.images = {s: self.delta[(None, s)][1] for s in input_alphabet}

    def apply_word(self, w):
        return Word._of(self.output_alphabet, tuple(itertools.chain.from_iterable(
            map(self.images.__getitem__, w))))


def _tracer(machine):
    """The state-tracing automaton of a machine: it moves as the machine
    does and writes the (input, current state) pair."""
    pairs = Alphabet(tuple(itertools.product(machine.input_alphabet.symbols,
                                             machine.states)))
    delta = {(q, s): (nxt, (s, q)) for (q, s), (nxt, _) in machine.delta.items()}
    return Automaton(machine.input_alphabet, pairs, machine.states,
                     machine.initial, delta)


def _upstream(seq, i=0):
    """A fill function need -> the next letters of seq from index i on: one
    range read a call, of need letters (a lower bound on what the caller
    still needs), but at least _FLOOR and at most _CHUNK.  Reads go through
    seq.read, so the letters of a handle class defined elsewhere are checked.

    Once a range read fails (seq ends or fails inside it), that range is
    read letter by letter, so the error surfaces where a per-letter reader
    meets it: the letters before it come out, and the next call raises it
    unchanged.  If no letter fails, the range read's error is raised at once.
    """
    error = None

    def pull(need):
        nonlocal i, error
        if error is not None:
            raise error
        n = min(max(need, _FLOOR), _CHUNK)
        try:
            letters = seq.read(i, i + n - 1).symbols
        except Exception as exc:
            error = exc
        else:
            i += n
            return letters
        # outside the handler, so a letter's error gets no __context__
        letters = []
        for k in range(i, i + n):
            try:
                letters.append(seq.read(k, k)[0])
            except Exception as exc:
                error = exc
                return letters
        raise error

    return pull


def _check_input(machine, seq):
    """Raise AlphabetError for sequence symbols the machine does not read,
    naming the machine by its class."""
    if seq.alphabet.symbols != machine.input_alphabet.symbols:
        missing = [s for s in seq.alphabet if s not in machine.input_alphabet]
        if missing:
            raise AlphabetError(f"sequence symbols {missing!r} unknown to "
                                f"{type(machine).__name__.lower()}")


def is_reversible(auto):
    """True iff every input letter permutes the state set."""
    return all(len(image) == len(auto.states)
               for image in letter_images(auto).values())


def letter_images(auto):
    """letter -> ordered tuple of distinct successor states."""
    images = {}
    for s in auto.input_alphabet:
        succ = {auto.delta[(q, s)][0] for q in auto.states}
        images[s] = tuple(q for q in auto.states if q in succ)
    return images


def _windows(seq, reg):
    """r(1) and the letters [0, 2r(1) - 1], the regulator's two windows:
    the first holds the first occurrence of every recurrent letter, the
    second exactly the recurrent letters.  2r(1) letters, half the least
    closure scan, are refused unread when they exceed the cap."""
    r1 = reg(1)
    if 2 * r1 > DEFAULT_SCAN_CAP:
        raise ResourceLimitError(f"regulator windows of {2 * r1} letters exceed "
                                 f"the closure-scan cap {DEFAULT_SCAN_CAP}")
    return r1, seq.read(0, 2 * r1 - 1).symbols


def infinite_letters(seq, reg):
    """The letters occurring infinitely often: those of the second window
    [r(1), 2r(1)-1] of the one read _windows makes of [0, 2r(1)-1].  By the
    regulator's two conditions it holds every recurrent letter and no
    finitely-occurring one.  An oversized r(1) is refused before any read."""
    r1, head = _windows(seq, reg)
    return set(head[r1:])


def cyclic_automaton(w, input_alphabet):
    """|w|-state cycle advancing on every input, pairing the input with the
    period letter at the current position; reversible by construction."""
    if isinstance(w, str):
        w = word(w)
    if len(w) == 0:
        raise ValueError("period word must be non-empty")
    states = tuple(range(len(w)))
    out_alphabet = Alphabet(
        tuple(itertools.product(input_alphabet.symbols, w.alphabet.symbols))
    )
    delta = {
        (q, s): ((q + 1) % len(w), (s, w[q]))
        for q in states
        for s in input_alphabet
    }
    return Automaton(input_alphabet, out_alphabet, states, 0, delta)


# ---------------------------------------------------------------------------
# Marker splits


class SplitResult(_Record, frozen=False):
    """decode: block symbol -> Word over the original alphabet; offset: the
    first position after the first marker occurrence; split_sequence: the
    SequenceHandle over block_alphabet; original: the handle that was split."""

    __slots__ = ("marker", "block_alphabet", "decode", "offset",
                 "split_sequence", "max_block_len", "original")

    def __init__(self, marker, block_alphabet, decode, offset, split_sequence,
                 max_block_len, original):
        self._set(marker, block_alphabet, decode, offset, split_sequence,
                  max_block_len, original)


def split(seq, marker, reg):
    """Cut a sequence into blocks ending at each occurrence of the marker,
    drop the first (partial) block, and recode blocks over a fresh alphabet.

    One cutter reads seq from the offset once; the probe, the closure scan
    and the split sequence's fills take its blocks in order.  The marker
    recurs, so it lies in every window of r(1) letters: a longer block, or
    an unfinished one of r(1) letters, is an invariant violation where it
    is met.  The block alphabet is closed after a scan long enough to
    witness every recurrent block (two split-regulator windows); a block
    first seen after closure is an invariant violation at that block.
    """
    # condition (1) places the first marker within the first window, and
    # the second window holds exactly the infinitely-occurring letters
    r1, head = _windows(seq, reg)
    if marker not in head[r1:]:
        raise ValueError(f"marker {marker!r} does not recur (not in the "
                         "infinitely-occurring letters)")
    if marker not in head[:r1]:
        raise InvariantViolation("marker absent from the first regulator window")
    offset = head.index(marker) + 1
    # blocks are cut as letter codes, each without its closing marker
    alphabet = seq.alphabet
    code = alphabet.encode((marker,))

    pull = _upstream(seq, offset)
    tail = ""

    def cut(need):
        # a block spans at least one letter: a call asks for the blocks
        # still needed, and gets the blocks its letters complete; an
        # unfinished block of r(1) letters is raised by the next call
        nonlocal tail
        if len(tail) >= r1:
            raise InvariantViolation(f"block of length over {len(tail)} "
                                     f"exceeds the regulator window {r1}")
        parts = (tail + alphabet.encode(pull(need))).split(code)
        tail = parts.pop()
        return parts

    blocks = []

    def first(n):
        # the stream meets a long complete block as one first seen after
        # the closure scan, so only the scan looks for one
        while len(blocks) < n:
            new = cut(n - len(blocks))
            blocks.extend(new)
            for b in new:
                if len(b) >= r1:
                    raise InvariantViolation(f"block of length {len(b) + 1} "
                                             f"exceeds the regulator window {r1}")
        return itertools.islice(blocks, n)

    # phase 1: observe block lengths over one window to size the closure scan
    k_probe = max(map(len, first(2 * r1))) + 1
    closure_blocks = 2 * reg_split(reg, k_probe)(1)
    if closure_blocks * r1 > DEFAULT_SCAN_CAP:
        raise ResourceLimitError(
            f"block-alphabet closure scan ({closure_blocks} blocks of up to "
            f"{r1} letters) exceeds cap {DEFAULT_SCAN_CAP}"
        )
    seen = {b: f"b{i}" for i, b in enumerate(dict.fromkeys(first(closure_blocks)))}
    max_block_len = max(map(len, seen)) + 1
    block_alphabet = Alphabet(tuple(seen.values()))
    decode = {name: Word(alphabet, alphabet.decode(b + code))
              for b, name in seen.items()}

    def fill(need):
        # names the scan's blocks, then those the cutter completes; a block
        # first seen after the scan is kept unnamed, with the blocks after
        # it, and the next fill, which it leads, raises at it
        nonlocal blocks
        codes, blocks = blocks or cut(need), []
        out = list(map(seen.get, codes))
        if None in out:
            k = out.index(None)
            if k == 0:
                block = Word(alphabet, alphabet.decode(codes[0] + code)).text()
                raise InvariantViolation(f"block {block!r} first seen after the closure scan")
            out, blocks = out[:k], codes[k:]
        return out

    split_sequence = StreamSequence._of_fill(
        block_alphabet, fill, description=f"split:{marker}:{seq.description}"
    )
    return SplitResult(
        marker=marker,
        block_alphabet=block_alphabet,
        decode=decode,
        offset=offset,
        split_sequence=split_sequence,
        max_block_len=max_block_len,
        original=seq,
    )


def _walk(auto, q, letters):
    """The (input, state) pairs the automaton passes reading the letters
    from state q, and the state it ends in."""
    pairs = []
    for s in letters:
        pairs.append((s, q))
        q = auto.delta[(q, s)][0]
    return tuple(pairs), q


def block_automaton(auto, sr):
    """Recode an automaton to act on split blocks.

    States are the successors of the marker letter; the transition on a
    block runs the original machine over the decoded block, and the output
    letter is the full tuple of (input, state) pairs traversed.  The initial
    state is where the original machine lands after the dropped prefix.
    """
    if sr.marker not in auto.input_alphabet:
        raise AlphabetError(f"marker {sr.marker!r} unknown to the automaton")
    states = letter_images(auto)[sr.marker]

    delta = {}
    outputs = {}
    for q in states:
        for b in sr.block_alphabet:
            out, end = _walk(auto, q, sr.decode[b].symbols)
            delta[(q, b)] = (end, out)
            outputs[out] = None

    # state after the deleted prefix (ends with the marker, so it lies in Q1)
    dropped = sr.original.read(0, sr.offset - 1).symbols
    initial = _walk(auto, auto.initial, dropped)[1]
    if initial not in states:
        raise InvariantViolation("post-prefix state escaped the marker image")
    return Automaton(
        sr.block_alphabet, Alphabet(tuple(outputs)), states, initial, delta
    )


class ReductionStep(_Record, frozen=False):
    """image: the successor states of the chosen letter; deleted_letters: in
    original-alphabet letters."""

    __slots__ = ("letter", "image", "split_result", "automaton", "deleted_letters")

    def __init__(self, letter, image, split_result, automaton, deleted_letters):
        self._set(letter, image, split_result, automaton, deleted_letters)


class ReductionReport(_Record, frozen=False):
    __slots__ = ("steps", "final_automaton", "deleted_prefix_len", "theorem_bound")

    def __init__(self, steps, final_automaton, deleted_prefix_len, theorem_bound):
        self._set(steps, final_automaton, deleted_prefix_len, theorem_bound)

    @property
    def state_counts(self):
        return [len(s.automaton.states) for s in self.steps]


def reduce_to_reversible(auto, seq, reg):
    """Iteratively split on a non-injective letter until the block automaton
    is reversible, certifying the deleted prefix length against the
    iterated-composition bound.

    Each step reads the regulator's two windows once (_windows): the
    letters of the second are the ones recurring in the current sequence,
    and the dropped prefix is read off the first.  Among the recurring
    letters that the machine does not read injectively, the one with the
    smallest state image is chosen (ties by alphabet order).  A split block
    holding a letter outside the window is an invariant violation; the
    dropped prefix may hold any letter, and the block machine reads it with
    the whole machine.  Two invariants need no check.
    The next machine's states are the chosen letter's image, which is
    smaller than the state set, so the state count falls at every step.
    And the loop ends only when every recurring letter permutes the
    states.  Only then is the machine restricted, once, to those letters:
    the final machine, which is_reversible accepts.
    """
    _check_input(auto, seq)
    bound = reg_iterated_bound(reg, len(auto.states))

    # current-level letter -> how many original letters it spans
    span = {s: 1 for s in seq.alphabet}
    deleted = 0
    steps = []
    while True:
        r1, head = _windows(seq, reg)
        letters = set(head[r1:])
        images = letter_images(auto)
        candidates = [s for s in auto.input_alphabet
                      if s in letters and len(images[s]) < len(auto.states)]
        if not candidates:  # every recurring letter permutes the states
            break
        letter = min(candidates, key=lambda s: (len(images[s]), auto.input_alphabet.index(s)))
        sr = split(seq, letter, reg)
        for block in sr.decode.values():
            missing = [s for s in block if s not in letters]
            if missing:
                raise InvariantViolation(
                    f"letter {missing[0]!r} of block {block.text()!r} is missing "
                    f"from the regulator window [{r1}, {2 * r1 - 1}]")
        step_deleted = sum(span[s] for s in head[:sr.offset])
        deleted += step_deleted
        auto = block_automaton(auto, sr)
        steps.append(ReductionStep(letter=letter, image=images[letter], split_result=sr,
                                   automaton=auto, deleted_letters=step_deleted))
        span = {b: sum(span[s] for s in sr.decode[b].symbols) for b in sr.block_alphabet}
        seq = sr.split_sequence
        reg = reg_split(reg, sr.max_block_len)

    if deleted > bound:
        raise InvariantViolation(
            f"deleted prefix {deleted} exceeds the theorem bound {bound}"
        )
    return ReductionReport(
        steps=steps,
        final_automaton=auto.restricted(letters),
        deleted_prefix_len=deleted,
        theorem_bound=bound,
    )


# ---------------------------------------------------------------------------
# Driving machines: one loop over the linked rows


def _composed(first, grow, then):
    """The letter-to-letter rows first (grow builds their missing steps)
    feeding the rows then, as one machine built as letters reach it: its
    initial row, and step(row, s), which builds ``row[s] == (next, out)``."""
    rows, pairs = {}, {}

    def row_of(a, b):
        row = rows.setdefault((id(a), id(b)), {})
        pairs[id(row)] = a, b
        return row

    def step(row, s):
        a, b = pairs[id(row)]
        a2, (o,) = a.get(s) or grow(a, s)
        b2, out = b[o]
        row[s] = found = row_of(a2, b2), out
        return found

    return row_of(first, then), step


def _image(machine, seq, stall_limit, name):
    """The stream of a machine run over seq, described as name:seq.  It
    ends after stall_limit consecutive inputs without output (with None,
    never), and an input's error reaches the reader unchanged.  An input
    emits at most the machine's width letters, so a read that needs n more
    letters needs at least ceil(n / width) more inputs.  An automaton's
    image with no stall limit keeps its rows and input, and a machine run
    over it drives that input through one composed machine (_composed)."""
    row, grow, source = machine._row, dict.__getitem__, seq
    if hasattr(seq, "_run"):
        *first, source = seq._run
        row, grow = _composed(*first, row)
    pull = _upstream(source)
    width, stalled = machine._width, 0

    def fill(need):
        nonlocal row, stalled
        if row is None:
            return None
        out, r, k = [], row, stalled  # locals, not cells: the loop runs per input
        for s in pull(-(-need // width) if width else _CHUNK):
            try:
                r, o = r[s]
            except KeyError:  # a composed row's step not built yet
                r, o = grow(r, s)
            if o:
                k = 0
                out += o
            else:
                k += 1
                if stall_limit is not None and k >= stall_limit:
                    r = None
                    break
        row, stalled = r, k
        return out

    image = StreamSequence._of_fill(machine.output_alphabet, fill,
                                    description=f"{name}:{seq.description}")
    if stall_limit is None and isinstance(machine, Automaton):
        image._run = row, grow, source  # row is still the initial one
    return image


def run(auto, seq, with_states=False):
    """The automaton image of a sequence.

    With ``with_states`` the output at step n is the (input, current state)
    pair; the declared output letter is then a projection of that pair.
    """
    _check_input(auto, seq)
    if with_states:
        return _image(_tracer(auto), seq, None, "run[pairs]")
    return _image(auto, seq, None, "run[output]")


def hom_apply(h, seq, reg=None, stall_limit=DEFAULT_STALL_LIMIT):
    """Concatenated image h(seq(0)) h(seq(1)) ...

    The image ends after a stall limit of inputs in a row with no output,
    and a read past its end raises FiniteOutputError.  The limit is
    ``stall_limit``, or r(1) with a regulator: every window of r(1) letters
    holds every recurrent letter, so r(1) erased inputs in a row mean that
    h erases them all, and the image is h(seq[0 : r(1) - 1]).
    """
    _check_input(h, seq)
    return _image(h, seq, stall_limit if reg is None else reg(1), "hom")


def transducer_run(trans, seq, stall_limit=DEFAULT_STALL_LIMIT):
    """The concatenated transducer output; possibly finite, in which case
    reads past the produced length raise lazily."""
    _check_input(trans, seq)
    return _image(trans, seq, stall_limit, "transduce")


def transducer_decompose(trans):
    """Split a transducer into a state-tracing automaton plus a homomorphism.

    The automaton writes (input, state) pairs; the homomorphism maps each
    pair to the transducer's output word for it.  Composing the two
    reproduces the transducer's mapping wherever either side is defined.
    """
    auto = _tracer(trans)
    images = {(s, q): out for (q, s), (_, out) in trans.delta.items()}
    return auto, Homomorphism(auto.output_alphabet, trans.output_alphabet, images)


# ---------------------------------------------------------------------------
# Text formats


_HEADERS = ("input", "output", "states", "initial")


def _parse_header(path, required):
    """The header lines of a machine file, each key at most once, and the
    other lines as (line number, line)."""
    header = {}
    body = []
    for lineno, line in content_lines(path):
        key = line.split()[0].rstrip(":")
        if key not in _HEADERS:
            body.append((lineno, line))
        elif key in header:
            raise ValueError(f"{path}:{lineno}: repeated {key!r} header line")
        else:
            header[key] = line.split()[1:]
    for key in required:
        if key not in header:
            raise ValueError(f"{path}: missing {key!r} header line")
    if "initial" in header and len(header["initial"]) != 1:
        raise ValueError(f"{path}: initial takes exactly one state")
    return header, body


def _parse_arrows(body, path, arity, noun):
    """``lhs -> rhs`` lines as {lhs tokens: rhs tokens}, each lhs at most
    once.  The lhs has arity tokens: a letter, after the state if there is
    one, and then the rhs starts with the next state."""
    lines = {}
    for lineno, line in body:
        parts = line.split("->")
        lhs = tuple(parts[0].split())
        rhs = parts[-1].split()
        if len(parts) != 2 or len(lhs) != arity or len(rhs) < arity - 1:
            raise ValueError(f"{path}:{lineno}: bad {noun} line {line!r}")
        if lhs in lines:
            raise ValueError(
                f"{path}:{lineno}: repeated {noun} for {' '.join(lhs)!r}")
        lines[lhs] = rhs
    return lines


def _built(path, cls, *args):
    """cls(*args), a fault the constructor finds named by the file's path."""
    try:
        return cls(*args)
    except (ValueError, AlphabetError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_machine(path, cls, output):
    """The machine of a machine file; output turns the tokens after a
    transition's next state into its delta entry."""
    header, body = _parse_header(path, _HEADERS)
    delta = {
        key: (rhs[0], output(rhs[1:]))
        for key, rhs in _parse_arrows(body, path, 2, "transition").items()
    }
    return _built(path, cls, _built(path, Alphabet, header["input"]),
                  _built(path, Alphabet, header["output"]),
                  header["states"], header["initial"][0], delta)


def load_automaton(path):
    """Text format: header lines ``input:``, ``output:``, ``states:``,
    ``initial:``, then ``state symbol -> state output`` lines."""

    def letter(out):
        if len(out) != 1:
            raise ValueError(f"{path}: automaton transitions emit exactly one symbol")
        return out[0]

    return _load_machine(path, Automaton, letter)


def load_transducer(path):
    """Same format as automata, but the output field is a word or ``-``."""
    return _load_machine(path, Transducer, lambda out: () if out == ["-"] else out)


def load_homomorphism(path):
    """Lines ``symbol -> word|-`` with ``input:``/``output:`` headers."""
    header, body = _parse_header(path, ("input",))
    source = _built(path, Alphabet, header["input"])
    target = _built(path, Alphabet, header["output"]) if "output" in header else source
    images = {
        s: () if rhs == ["-"] else rhs
        for (s,), rhs in _parse_arrows(body, path, 1, "image").items()
    }
    for s in source:
        if s not in images:
            raise ValueError(f"{path}: no image for letter {s!r}")
    for s in images:
        if s not in source:
            raise ValueError(f"{path}: image for undeclared letter {s!r}")
    return _built(path, Homomorphism, source, target, images)


def automaton_text(auto):
    lines = [
        "input: " + " ".join(str(s) for s in auto.input_alphabet),
        "output: " + " ".join(str(s) for s in auto.output_alphabet),
        "states: " + " ".join(str(q) for q in auto.states),
        f"initial: {auto.initial}",
    ]
    for q in auto.states:
        for s in auto.input_alphabet:
            nxt, out = auto.delta[(q, s)]
            lines.append(f"{q} {s} -> {nxt} {out}")
    return "\n".join(lines) + "\n"


def homomorphism_text(hom):
    lines = [
        "input: " + " ".join(str(s) for s in hom.input_alphabet),
        "output: " + " ".join(str(s) for s in hom.output_alphabet),
    ]
    for s in hom.input_alphabet:
        image = hom.images[s]
        rhs = " ".join(str(o) for o in image) if image else "-"
        lines.append(f"{s} -> {rhs}")
    return "\n".join(lines) + "\n"
