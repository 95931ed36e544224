"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of each ``apwords`` module at
runtime, plus the two helpers the acceptance gate imports (``_seq_text`` and
``_factor_stats``), and ``uninstall()`` puts the originals back.  Each wrapped
call records a span (name, start, end, parent, job id) in memory; counts are
kept at the same boundaries.  ``summary()`` turns the spans into self times:
a span's duration minus the time covered by its child spans.

Two boundaries are counted but not spanned, because they are hit once per
letter: ``at`` on every sequence class (``words.at_calls``), and a machine
stream refilling its buffer from inside a fill of the same kind (the outer
fill's span already covers it).  Nothing here is imported by ``apwords``; with
the tracer not installed the program runs unchanged.
"""

import functools
import time
from collections import defaultdict

_perf = time.perf_counter

SPAN_NAMES = (
    "words.read", "words.make_sequence",
    "analysis.seq_text", "analysis.factor_stats", "analysis.check_regulator",
    "analysis.check_sap", "analysis.empirical", "analysis.pr_estimate",
    "analysis.cube",
    "automata.drive", "automata.split", "automata.block_automaton",
    "automata.reduce", "automata.decompose",
    "regulators.eval",
)

COUNT_NAMES = (
    "words.letters_read", "words.at_calls",
    "analysis.letters_encoded", "analysis.factor_stats_passes",
    "analysis.factors_distinct",
    "automata.stream_letters", "automata.reduce_steps",
    "regulators.calls",
)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    def __init__(self):
        self.job_id = -1
        self.counts = defaultdict(int)
        self._names, self._start, self._end, self._parent, self._job = [], [], [], [], []
        self._stack = []
        self._encoded = []  # (job id, root id, first index, last index)
        self._next_root = 0
        self._at_calls = [0]
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        idx = len(self._names)
        stack = self._stack
        self._names.append(name)
        self._parent.append(stack[-1] if stack else -1)
        self._job.append(self.job_id)
        self._end.append(0.0)
        stack.append(idx)
        self._start.append(_perf())
        return idx

    def _close(self, idx):
        self._end[idx] = _perf()
        self._stack.pop()

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = owner.__dict__[attr]
        new = make(orig)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))
        # the package re-exports module functions under the same names
        if not isinstance(owner, type) and getattr(self._package, attr, None) is orig:
            setattr(self._package, attr, new)
            self._undo.append((self._package, attr, orig))

    def _origin(self, seq):
        """(root id, offset) of a handle, following suffix handles to their root."""
        origin = seq.__dict__.get("_bench_origin")
        if origin is None:
            origin = (self._next_root, 0)
            self._next_root += 1
            seq._bench_origin = origin
        return origin

    def install(self):
        import apwords
        from apwords import analysis, automata, regulators, words

        self._package = apwords
        counts = self.counts
        span = self._spanned

        # words: reads, per-letter at() calls, spec construction, suffix origins
        def read_wrap(orig):
            def read(seq, i, j):
                counts["words.letters_read"] += j - i + 1
                idx = self._open("words.read")
                try:
                    return orig(seq, i, j)
                finally:
                    self._close(idx)
            return read

        self._patch(words.SequenceHandle, "read", read_wrap)
        at_calls = self._at_calls
        for cls in _subclasses(words.SequenceHandle)[1:]:
            if "at" in cls.__dict__:
                def at_wrap(orig):
                    def at(seq, i):
                        at_calls[0] += 1
                        return orig(seq, i)
                    return at
                self._patch(cls, "at", at_wrap)

        def suffix_wrap(orig):
            def suffix(seq, n):
                out = orig(seq, n)
                if out is not seq:
                    root, off = self._origin(seq)
                    out._bench_origin = (root, off + n)
                return out
            return suffix

        self._patch(words.SequenceHandle, "suffix", suffix_wrap)
        self._patch(words, "make_sequence",
                    lambda f: span("words.make_sequence", f))

        # analysis: encoding, factor statistics, the oracles
        def seq_text_wrap(orig):
            def _seq_text(seq, lo, hi):
                counts["analysis.letters_encoded"] += hi - lo + 1
                root, off = self._origin(seq)
                self._encoded.append((self.job_id, root, lo + off, hi + off))
                idx = self._open("analysis.seq_text")
                try:
                    return orig(seq, lo, hi)
                finally:
                    self._close(idx)
            return _seq_text

        def after_stats(args, result):
            counts["analysis.factor_stats_passes"] += 1
            counts["analysis.factors_distinct"] += len(result)

        self._patch(analysis, "_seq_text", seq_text_wrap)
        self._patch(analysis, "_factor_stats",
                    lambda f: span("analysis.factor_stats", f, after_stats))
        for attr, name in (("check_regulator", "analysis.check_regulator"),
                           ("check_sap", "analysis.check_sap"),
                           ("empirical_regulator", "analysis.empirical"),
                           ("pr_upper_estimate", "analysis.pr_estimate"),
                           ("is_cube_free", "analysis.cube")):
            self._patch(analysis, attr, lambda f, name=name: span(name, f))
        self._patch(analysis.EmpiricalRegulator, "value",
                    lambda f: span("analysis.empirical", f))

        # automata: machine streams are tagged and timed when they fill
        def tag_stream(kind):
            def make(orig):
                @functools.wraps(orig)
                def wrapper(*args, **kwargs):
                    out = orig(*args, **kwargs)
                    out._bench_kind = kind
                    return out
                return wrapper
            return make

        for attr in ("run", "transducer_run", "hom_apply"):
            self._patch(automata, attr, tag_stream("automata.drive"))

        def after_split(args, result):
            result.split_sequence._bench_kind = "automata.split"

        def after_reduce(args, result):
            counts["automata.reduce_steps"] += len(result.steps)

        self._patch(automata, "split",
                    lambda f: span("automata.split", f, after_split))
        self._patch(automata, "block_automaton",
                    lambda f: span("automata.block_automaton", f))
        self._patch(automata, "reduce_to_reversible",
                    lambda f: span("automata.reduce", f, after_reduce))
        self._patch(automata, "transducer_decompose",
                    lambda f: span("automata.decompose", f))

        def ensure_wrap(orig):
            def _ensure(seq, n):
                kind = seq.__dict__.get("_bench_kind")
                if kind is None or len(seq._buf) > n:
                    return orig(seq, n)
                before = len(seq._buf)
                stack = self._stack
                idx = None
                if not stack or self._names[stack[-1]] != kind:
                    idx = self._open(kind)
                try:
                    return orig(seq, n)
                finally:
                    if idx is not None:
                        self._close(idx)
                    if kind == "automata.drive":
                        counts["automata.stream_letters"] += len(seq._buf) - before
            return _ensure

        self._patch(words.StreamSequence, "_ensure", ensure_wrap)

        # regulators: every evaluation of a regulator value
        def call_wrap(orig):
            def __call__(reg, n):
                counts["regulators.calls"] += 1
                idx = self._open("regulators.eval")
                try:
                    return orig(reg, n)
                finally:
                    self._close(idx)
            return __call__

        self._patch(regulators.Regulator, "__call__", call_wrap)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def summary(self):
        """Self seconds per span name, counts, and distinct letters encoded."""
        n = len(self._names)
        start, end, parent = self._start, self._end, self._parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(n):
            self_s[self._names[i]] += end[i] - start[i] - child[i]
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts.update(self.counts)
        counts["words.at_calls"] = self._at_calls[0]
        return {"self_s": self_s, "counts": counts,
                "letters_useful": _distinct_letters(self._encoded), "spans": n}


def _distinct_letters(encoded):
    """Sum over jobs of the distinct prefix positions encoded, per root handle."""
    by_key = defaultdict(list)
    for job, root, lo, hi in encoded:
        by_key[(job, root)].append((lo, hi))
    total = 0
    for intervals in by_key.values():
        intervals.sort()
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > cur_hi + 1:
                total += cur_hi - cur_lo + 1
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        total += cur_hi - cur_lo + 1
    return total
