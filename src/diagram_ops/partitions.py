"""Partitions (Young diagrams) and formal rational sums of them.

A partition is represented canonically as a tuple of weakly decreasing
positive integers; the empty tuple is the empty diagram of degree 0.
Tuples are hashable and immutable, so they are used directly as dict keys
throughout the package.

DiagramSum is a finitely supported map partition -> Fraction, covering
linear combinations of diagrams of possibly mixed degrees.
"""

from __future__ import annotations

import math
import re
import types
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


def kappa(delta: Partition) -> Fraction:
    """1 / z_delta, the normalization attached to the monomial p(delta)."""
    return Fraction(1, aut_order(delta))


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


_PARTITION_RE = re.compile(r"\[(\d+(,\d+)*)?\]")


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
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed rational %r" % text, 0) from None


class DiagramSum:
    """Finitely supported Fraction-linear combination of partitions.

    Immutable, with read-only terms, so a sum can be passed and kept
    without copying; arithmetic returns new sums and never stores zero terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for part, coef in (terms.items() if hasattr(terms, "items") else terms):
                c = Fraction(coef)
                if c:
                    key = as_partition(part)
                    d[key] = d.get(key, Fraction(0)) + c
        self._terms = types.MappingProxyType({p: c for p, c in d.items() if c})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def single(cls, delta: Partition, coef=1):
        return cls({as_partition(delta): Fraction(coef)})

    def items(self):
        """Terms in canonical order (degree, then reverse-lex)."""
        return sorted(self._terms.items(), key=lambda kv: partition_sort_key(kv[0]))

    def coefficient(self, delta: Partition) -> Fraction:
        return self._terms.get(tuple(delta), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def graded_piece(self, n: int) -> "DiagramSum":
        return DiagramSum({p: c for p, c in self._terms.items() if degree(p) == n})

    def degrees(self):
        return sorted({degree(p) for p in self._terms})

    def __add__(self, other):
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return DiagramSum(out)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        c = Fraction(scalar)
        return DiagramSum({p: c * v for p, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, DiagramSum) and self._terms == other._terms

    def __repr__(self):
        return "DiagramSum(%s)" % self.to_text()

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(
            "%s*%s" % (format_fraction(c), format_partition(p)) for p, c in self.items()
        )

    def to_json_obj(self):
        return [
            {"coef": format_fraction(c), "partition": list(p)} for p, c in self.items()
        ]


def rho(delta: Partition, k: int) -> DiagramSum:
    """Embedding adding k unit rows with binomial multiplicity.

    rho_k(delta) = C(r+k, k) * delta^k where r is the number of unit rows
    already present.
    """
    return DiagramSum.single(*rho_term(delta, k))


def rho_term(delta: Partition, k: int):
    """rho_k(delta) as the pair (delta^k, C(r+k, k)) of its single term."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return pad(delta, k), math.comb(multiplicity(delta, 1) + k, k)


def parse_diagram_sum(text: str) -> DiagramSum:
    """Parse 'coef*partition + coef*partition + ...'.

    A bare partition is accepted as shorthand for coefficient 1.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty diagram sum", 0)
    if s == "0":
        return DiagramSum.zero()
    terms = []
    for chunk in s.split(" + "):
        chunk = chunk.strip()
        if "*" in chunk:
            coef_text, _, part_text = chunk.partition("*")
            coef = parse_fraction(coef_text)
        else:
            coef, part_text = Fraction(1), chunk
        terms.append((parse_partition(part_text), coef))
    return DiagramSum(terms)
