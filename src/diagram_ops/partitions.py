"""Partitions (Young diagrams): enumeration, parsing and printing.

A partition is represented canonically as a tuple of weakly decreasing
positive integers; the empty tuple is the empty diagram of degree 0.
Tuples are hashable and immutable, so they are used directly as dict keys
throughout the package.  Every op loads this module.

Rationals are integer numerators over one positive denominator, in
lowest terms: ratio_sum alone sums terms into that form, parse_ratio
reads one rational into (numerator, denominator), and format_ratio
prints one.  Ratios is the one class that holds a finite rational
combination of keys in that form and prints it; PPoly, a polynomial in
the power sums p_k, is one here, because the Hurwitz series' coefficients
are PPolys too, and class_algebra.DiagramSum is the other.  parse_terms
reads the text of either.  No module of the package but
diagram_ops.oracles imports fractions.  A parser's ParseError shows the
offending text through errors.quote.
"""

import math
import sys
import types

from .errors import BoundError, ParseError, quote

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
            raise ValueError("partition parts must be positive integers: %s" % quote(t))
        if i > 0 and t[i - 1] < p:
            raise ValueError("partition parts must be weakly decreasing: %s" % quote(t))
    return t


def degree(delta: Partition) -> int:
    """Number of boxes |delta|."""
    return sum(delta)


def multiplicity(delta: Partition, k: int) -> int:
    """Number of rows of length exactly k."""
    return delta.count(k)


def aut_order(delta: Partition) -> int:
    """Centralizer order z_delta = prod_k m_k! * k^m_k.

    This is the order of the centralizer of a permutation of cycle type
    delta, and the |Aut| weight used in the Hurwitz chain formulas.
    """
    z = 1
    for k in set(delta):
        m = delta.count(k)
        z *= math.factorial(m) * k ** m
    return z


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


def partition_sort_key(delta: Partition):
    """Canonical global order: by degree, then reverse-lexicographic."""
    return (degree(delta), tuple(-p for p in delta))


def parse_digits(text: str):
    """The int of one or more ASCII digits 0-9, or None for any other text
    and for more digits than the interpreter's int-to-string limit."""
    if text.isascii() and text.isdecimal():
        try:
            return int(text)
        except ValueError:  # more digits than the int-to-string limit
            return None


def parse_partition(text: str) -> Partition:
    """Parse '[3,1,1]' (no internal whitespace) into a canonical partition."""
    s = text.strip()
    body = s[1:-1]
    parts = tuple(map(parse_digits, body.split(","))) if body else ()
    if not (s[:1] == "[" and s[-1:] == "]") or None in parts:
        bad = [ch for ch in s if ch not in "[],0123456789"]
        raise ParseError("unexpected character %s in partition" % quote(bad[0]) if bad
                         else "malformed partition %s" % quote(s))
    try:
        return as_partition(parts)
    except ValueError as e:
        raise ParseError(str(e)) from None


def format_partition(delta: Partition) -> str:
    return "[" + ",".join(str(p) for p in delta) + "]"


def format_ratio(numerator: int, denominator: int) -> str:
    """numerator/denominator, denominator > 0, in lowest terms: 'n' or
    'n/d'.  A numerator or denominator longer than the interpreter's
    int-to-string limit raises BoundError."""
    g = math.gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    try:
        return str(numerator) if denominator == 1 else "%d/%d" % (numerator, denominator)
    except ValueError:
        raise BoundError("result has more digits than the limit of %d, "
                         "sys.get_int_max_str_digits()" % sys.get_int_max_str_digits()) from None


def ratio_sum(ratios: list) -> tuple:
    """The sum of the terms (key, numerator, denominator), each denominator
    positive, as ({key: numerator}, q) with a read-only mapping: q > 0, no
    numerator zero, and no common factor; ({}, 1) for no terms."""
    q = math.lcm(*(den for _, _, den in ratios))
    numerators = {}
    for key, num, den in ratios:
        numerators[key] = numerators.get(key, 0) + num * (q // den)
    g = math.gcd(q, *numerators.values())
    return types.MappingProxyType({key: c // g for key, c in numerators.items() if c}), q // g


def parse_ratio(text: str) -> tuple:
    """Parse an optional sign, ASCII digits and an optional '/digits' into
    (numerator, denominator), the denominator positive and 1 without the
    '/'.  Anything else, an exponent or a decimal point included, is
    refused before any arithmetic, and so is a zero denominator."""
    unsigned = text[1:] if text[:1] in ("+", "-") else text
    numerator, slash, denominator = unsigned.partition("/")
    num, den = parse_digits(numerator), parse_digits(denominator) if slash else 1
    if num is not None and den:
        return (-num if text[:1] == "-" else num), den
    raise ParseError("malformed rational %s" % quote(text))


class Ratios:
    """A finite rational combination of keys: the coefficient of k is
    numerators[k] / denominator, as ratio_sum makes them, and numerators
    is read-only, so a value is passed and kept without copying.
    cls(numerators, denominator) takes ints, {key: numerator} or pairs,
    over one denominator; cls.of(ratios) sums ratio_sum's terms, keys
    canonical.  A subclass declares _key, the canonical key, _order, the
    printing order, _factors, the texts of a key, and to_json_obj."""

    __slots__ = ("numerators", "denominator")

    def __new__(cls, numerators=None, denominator=1):
        return cls.of([(cls._key(k), c, denominator)
                       for k, c in cls.int_pairs(numerators, denominator)])

    @staticmethod
    def int_pairs(numerators, denominator):
        """The pairs (key, numerator) of a mapping or pairs: TypeError for
        a value that is not an int, ValueError for a denominator <= 0."""
        pairs = list(numerators.items() if hasattr(numerators, "items") else numerators or ())
        for c in [denominator] + [c for _, c in pairs]:
            if not isinstance(c, int):
                raise TypeError("numerator or denominator %r is not an int" % (c,))
        if denominator <= 0:
            raise ValueError("denominator %d is not positive" % denominator)
        return pairs

    @classmethod
    def of(cls, ratios):
        value = object.__new__(cls)
        value.numerators, value.denominator = ratio_sum(ratios)
        return value

    def degrees(self):
        return sorted(set(map(degree, self.numerators)))

    def __eq__(self, other):
        return (type(other) is type(self) and self.numerators == other.numerators
                and self.denominator == other.denominator)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.to_text())

    def coefficients(self):
        """(key, coefficient text) in printing order."""
        return [(k, format_ratio(self.numerators[k], self.denominator))
                for k in sorted(self.numerators, key=self._order)]

    def to_text(self):
        return " + ".join("*".join([c] + self._factors(k))
                          for k, c in self.coefficients()) or "0"


class PPoly(Ratios):
    """Sparse exact polynomial in p_1, p_2, ...: p_{l1} p_{l2} ... is keyed
    by its exponent partition (l1, l2, ...) and printed by graded degree
    l1 + l2 + ..., then ascending (so p1^3 precedes p3)."""

    __slots__ = ()

    @staticmethod
    def _key(m):
        return tuple(sorted(m, reverse=True))

    @staticmethod
    def _order(m):
        return degree(m), m

    @staticmethod
    def _factors(m):
        return ["p%d^%d" % (k, m.count(k)) if m.count(k) > 1 else "p%d" % k
                for k in sorted(set(m))]

    def to_json_obj(self):
        return {"terms": [{"mono": list(m), "coef": c} for m, c in self.coefficients()]}


def parse_terms(cls, text, what, read_term):
    """The cls of 'term + term + ...', read_term turning each term into
    (key, numerator, denominator); '0' is zero, and empty text a
    ParseError that names what."""
    s = text.strip()
    if not s:
        raise ParseError("empty %s" % what)
    return cls() if s == "0" else cls.of([read_term(chunk.strip()) for chunk in s.split(" + ")])
