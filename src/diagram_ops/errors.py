"""Exception types shared across the package, and quote, through which
every message that shows an input token, or a number made from one,
shows it: no message grows with its input, and none gives a position.

Exit-code mapping used by the CLI: ValueError (ParseError included) -> 2,
BoundError -> 3, ConsistencyError -> 4.  Every ValueError the library
raises is an argument check on its input.
"""

#: The most characters of a %r text, and digits of an int, that quote shows.
QUOTE_LIMIT = 60


def quote(value):
    """The %r text of value, or past QUOTE_LIMIT characters its first
    QUOTE_LIMIT, '...' and its length.  An int of more digits is not
    converted, so none over the interpreter's int-to-string limit is."""
    if isinstance(value, int) and abs(value) >= 10 ** QUOTE_LIMIT:
        return "<an integer of more than %d digits>" % QUOTE_LIMIT
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else "%s... (%d characters)" % (
        text[:QUOTE_LIMIT], len(text))


class ParseError(ValueError):
    """Malformed input text."""


class BoundError(RuntimeError):
    """A configured resource bound (degree, enumeration size) was exceeded."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (e.g. a character sum that should be
    an integer is not).  Indicates corrupted data or a bug, never bad input."""
