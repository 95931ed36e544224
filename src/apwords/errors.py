"""Exception types shared across the package, and its text readers."""


class ApwordsError(Exception):
    """Base class for all package-specific errors."""


class AlphabetError(ApwordsError):
    """A symbol does not belong to the expected alphabet, or alphabets clash."""


class SpecParseError(ApwordsError):
    """A sequence-spec string failed to parse.

    Carries the byte offset of the failure in ``position``.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SchemeError(ApwordsError):
    """A scheme description violates a structural requirement."""


class ResourceLimitError(ApwordsError):
    """A computation would exceed its declared resource ceiling."""


class FiniteOutputError(ApwordsError):
    """A derived sequence turned out to be finite; the read is past its end.

    ``produced`` counts the letters of the stream that ran out.  A machine
    stream re-raises its input's error unchanged, so over a finite input it
    is the input's length, not the number of output letters.
    """

    def __init__(self, produced):
        super().__init__(f"output exhausted after {produced} symbols")
        self.produced = produced


class InvariantViolation(ApwordsError):
    """A machine-checked invariant failed during a construction."""


def ascii_int(text):
    """int(text) for an optional ``-`` and ASCII digits, else ValueError (int()
    alone also takes blanks, ``_``, ``+`` and other scripts' digits)."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def content_lines(path):
    """(line number, line) for each line of a text file that holds more
    than a ``#`` comment, with the comment and outer blanks stripped."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line
