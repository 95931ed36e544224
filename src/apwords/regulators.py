"""Recurrence regulators as first-class values and the derived-bound calculus.

A regulator maps a factor length n to a window length r(n) such that every
length-n factor that recurs infinitely occurs on every window of length r(n),
and factors occurring finitely never start past r(n).  Any pointwise-larger
function is again a regulator, so the calculus below only ever grows values.
"""

from __future__ import annotations

from .errors import ResourceLimitError, ascii_int, content_lines

# Arguments or values past this ceiling raise instead of silently wrapping.
DEFAULT_CEILING = 2 ** 48

PROVENANCES = ("explicit-formula", "derived", "empirical-lower-bound")


class Regulator:
    """A total monotone map length -> window length with provenance."""

    def __init__(self, fn, provenance, description):
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        self._fn = fn
        self.provenance = provenance
        self.description = description

    def __call__(self, n):
        if n < 1:
            raise ValueError("factor length must be >= 1")
        if n > DEFAULT_CEILING:
            raise ResourceLimitError(f"regulator argument {n} exceeds ceiling")
        v = self._fn(n)
        if v > DEFAULT_CEILING:
            raise ResourceLimitError(f"regulator value {v} exceeds ceiling")
        if v < n:
            raise ValueError(f"{self.description}: r({n}) = {v} < {n}")
        return v

    def __repr__(self):
        return f"Regulator({self.description!r}, {self.provenance})"


def identity_plus(c):
    """r(n) = n + c."""
    if c < 0:
        raise ValueError("offset must be >= 0 for r(n) >= n")
    return Regulator(lambda n: n + c, "explicit-formula", f"id+c:{c}")


def linear(a, b):
    """r(n) = a*n + b; r(n) >= n for every n >= 1 needs a >= 1 and a + b >= 1."""
    if a < 1:
        raise ValueError("slope must be >= 1 for r(n) >= n")
    if a + b < 1:
        raise ValueError(f"lin:{a}:{b} gives r(1) = {a + b} < 1")
    return Regulator(lambda n: a * n + b, "explicit-formula", f"lin:{a}:{b}")


def periodic_regulator(period):
    """r(n) = n + period - 1, valid for any sequence of the given period."""
    if period < 1:
        raise ValueError("period must be >= 1")
    return Regulator(
        lambda n: n + period - 1, "explicit-formula", f"periodic:{period}"
    )


def reg_thm21():
    """Explicit regulator for the pasted quadruple sequence.

    For factor length k, take the minimal level n with k < 5^n; the window
    (5^{n+1} - 1) + 2*5^{n+1} covers every recurring factor of that length.
    """

    def fn(k):
        n = 1
        while 5 ** n <= k:
            n += 1
        return 3 * 5 ** (n + 1) - 1

    return Regulator(fn, "explicit-formula", "thm21")


def reg_split(r, k):
    """Regulator for a marker-split sequence whose blocks span at most k
    letters: r'(m) = r(k*m + 1).

    The split-sequence factor length m is measured in block symbols; every
    block spans at least one original letter, so an original-letter window of
    r(k*m + 1) covers at least the required block window.
    """
    if k < 1:
        raise ValueError("max block length must be >= 1")
    return Regulator(lambda m: r(k * m + 1), "derived",
                     f"split(k={k}) of {r.description}")


def pointwise_max(r1, r2):
    """r(n) = max(r1(n), r2(n)); lets fixture families share one regulator."""
    return Regulator(lambda n: max(r1(n), r2(n)), "derived",
                     f"max({r1.description}, {r2.description})")


def scaled(r, factor):
    """r'(n) = factor * r(n) (a larger function is again a regulator)."""
    if factor < 1:
        raise ValueError("scale factor must be >= 1")
    return Regulator(lambda n: factor * r(n), "derived",
                     f"{factor}*{r.description}")


def reg_iterated_bound(r, n):
    """Sum of the i-fold compositions r^i(1) for i = 1..n.

    This is the certified prefix bound for an n-state automaton image.
    """
    if n < 1:
        raise ValueError("state count must be >= 1")
    total = 0
    v = 1
    for _ in range(n):
        v = r(v)
        total += v
    return total


def reg_reversible_distance(r, x_len, m):
    """f^m(x_len) with f(t) = r(t) + 1: bounds the recurrence distance of
    (factor, state) events under a reversible automaton with m states."""
    if x_len < 1 or m < 1:
        raise ValueError("x_len and state count must be >= 1")
    t = x_len
    for _ in range(m):
        t = r(t) + 1
    return t


def table_regulator(table, description="table"):
    """Regulator backed by an explicit table; arguments beyond it error.

    The table must satisfy r(n) >= n and be non-decreasing in n.
    """
    table = dict(table)
    prev = 0
    for n, v in sorted(table.items()):
        if v < max(n, prev):
            raise ValueError(
                f"{description}: r({n}) = {v} is below n or an earlier value"
            )
        prev = v

    def fn(n):
        if n not in table:
            raise ResourceLimitError(f"no table entry for n={n}")
        return table[n]

    return Regulator(fn, "empirical-lower-bound", description)


def load_table_regulator(path):
    """Table file: one ``n value`` pair per line; '#' comments allowed.  A
    line that is not two integers, or a repeated n, names its path:line."""
    table = {}
    for lineno, line in content_lines(path):
        try:
            n, v = map(ascii_int, line.split())
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: expected two integers 'n value', got {line!r}"
            ) from None
        if n in table:
            raise ValueError(f"{path}:{lineno}: repeated n = {n}")
        table[n] = v
    return table_regulator(table, description=f"empirical:{path}")


# descriptor kind -> (constructor, form); the form's values are integers
_FORMULAS = {"id+c": (identity_plus, "id+c:<c>"), "lin": (linear, "lin:<a>:<b>")}


def parse_regulator(text):
    """Textual regulator descriptors for the CLI."""
    if text == "thm21":
        return reg_thm21()
    if text.startswith("empirical:"):
        return load_table_regulator(text.split(":", 1)[1])
    kind, _, values = text.partition(":")
    if kind in _FORMULAS:
        make, form = _FORMULAS[kind]
        try:
            numbers = [ascii_int(v) for v in values.split(":")]
        except ValueError:
            numbers = []
        if len(numbers) != form.count(":"):
            raise ValueError(
                f"bad regulator descriptor {text!r}: expected {form} with integer values")
        return make(*numbers)
    raise ValueError(f"unknown regulator descriptor {text!r}")
