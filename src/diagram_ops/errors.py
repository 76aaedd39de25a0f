"""Exception types shared across the package.

Exit-code mapping used by the CLI: ValueError (ParseError included) -> 2,
BoundError -> 3, ConsistencyError -> 4.  Every ValueError the library
raises is an argument check on its input.
"""


class ParseError(ValueError):
    """Malformed input text; carries the offending position."""

    def __init__(self, msg, pos=None):
        if pos is not None:
            msg = "%s (at position %d)" % (msg, pos)
        super().__init__(msg)
        self.pos = pos


class BoundError(RuntimeError):
    """A configured resource bound (degree, enumeration size) was exceeded."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (e.g. a character sum that should be
    an integer is not).  Indicates corrupted data or a bug, never bad input."""
