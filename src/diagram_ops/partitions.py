"""Partitions (Young diagrams): enumeration, parsing and printing.

A partition is represented canonically as a tuple of weakly decreasing
positive integers; the empty tuple is the empty diagram of degree 0.
Tuples are hashable and immutable, so they are used directly as dict keys
throughout the package.  Every op loads this module; DiagramSum, the
linear combinations of diagrams that only mult reads, lives in
class_algebra.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import BoundError, ParseError

Partition = tuple

#: Largest n accepted by partitions_of (p(30) = 5604 diagrams).
MAX_ENUM_DEGREE = 30


def as_partition(parts) -> Partition:
    """Validate an iterable of parts and return the canonical tuple.

    Raises ValueError unless the parts are positive and weakly decreasing.
    """
    t = tuple(parts)
    for i, p in enumerate(t):
        if not isinstance(p, int) or p < 1:
            raise ValueError("partition parts must be positive integers: %r" % (t,))
        if i > 0 and t[i - 1] < p:
            raise ValueError("partition parts must be weakly decreasing: %r" % (t,))
    return t


def degree(delta: Partition) -> int:
    """Number of boxes |delta|."""
    return sum(delta)


def multiplicity(delta: Partition, k: int) -> int:
    """Number of rows of length exactly k."""
    return sum(1 for p in delta if p == k)


def aut_order(delta: Partition) -> int:
    """Centralizer order z_delta = prod_k m_k! * k^m_k.

    This is the order of the centralizer of a permutation of cycle type
    delta, and the |Aut| weight used in the Hurwitz chain formulas.
    """
    z = 1
    run = 1
    for i, p in enumerate(delta):
        if i + 1 < len(delta) and delta[i + 1] == p:
            run += 1
            continue
        z *= math.factorial(run) * p ** run
        run = 1
    return z


def class_size(delta: Partition) -> int:
    """Number of permutations in S_n of cycle type delta, n = degree(delta)."""
    return math.factorial(degree(delta)) // aut_order(delta)


def pad(delta: Partition, k: int) -> Partition:
    """Append k unit rows: delta^k in the bracket notation."""
    if k < 0:
        raise ValueError("pad count must be nonnegative")
    return delta + (1,) * k


def partitions_of(n: int) -> list:
    """All partitions of n, each exactly once, in reverse-lexicographic
    order ([n] first, [1,...,1] last)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_ENUM_DEGREE:
        raise BoundError("partitions_of(%d) exceeds bound %d" % (n, MAX_ENUM_DEGREE))
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, largest), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def conjugate(delta: Partition) -> Partition:
    """Transposed diagram."""
    if not delta:
        return ()
    return tuple(sum(1 for p in delta if p > i) for i in range(delta[0]))


def partition_sort_key(delta: Partition):
    """Canonical global order: by degree, then reverse-lexicographic."""
    return (degree(delta), tuple(-p for p in delta))


_PARTITION_RE = re.compile(r"\[([0-9]+(,[0-9]+)*)?\]")


def parse_partition(text: str) -> Partition:
    """Parse '[3,1,1]' (no internal whitespace) into a canonical partition."""
    s = text.strip()
    m = _PARTITION_RE.fullmatch(s)
    if m is None:
        # locate the first offending character for the error message
        for i, ch in enumerate(s):
            if ch not in "[],0123456789":
                raise ParseError("unexpected character %r in partition" % ch, i)
        raise ParseError("malformed partition %r" % s, 0)
    if m.group(1) is None:
        return ()
    parts = tuple(int(x) for x in m.group(1).split(","))
    try:
        return as_partition(parts)
    except ValueError as e:
        raise ParseError(str(e), 1) from None


def format_partition(delta: Partition) -> str:
    return "[" + ",".join(str(p) for p in delta) + "]"


def format_fraction(q: Fraction) -> str:
    """'n' or 'n/d'; a numerator or denominator longer than the
    interpreter's int-to-string limit raises BoundError."""
    try:
        return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
    except ValueError:
        raise BoundError("result has more digits than the limit of %d, "
                         "sys.get_int_max_str_digits()" % sys.get_int_max_str_digits()) from None


_FRACTION_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(text: str) -> Fraction:
    """Parse an optional sign, ASCII digits and an optional '/digits'.
    Anything else, an exponent or a decimal point included, is refused
    before any arithmetic."""
    if _FRACTION_RE.fullmatch(text) is None:
        raise ParseError("malformed rational %r" % text, 0)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed rational %r" % text, 0) from None
