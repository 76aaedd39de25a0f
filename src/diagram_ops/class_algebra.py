"""Center of the group algebra of S_n and the graded product of diagrams.

DiagramSum is a finitely supported map partition -> Fraction, covering
linear combinations of diagrams of possibly mixed degrees; it lives here
because only mult reads and prints one.

_structure_column reads every structure constant of a product of two class
sums as one spectral sum (characters.spectral_sum) over the character
table; mult_same_degree wraps it and structure_constant reads one
coefficient.
The literal pair-counting definition lives in diagram_ops.oracles
(oracle_structure_constant), which only the tests and selftest import.

mult_infinity implements the graded product on diagrams of arbitrary
degree (Ivanov-Kerov, The algebra of conjugacy classes in symmetric
groups, and partial permutations, 1999): pad both factors to a common
degree n with the unit-row embedding, multiply inside the degree-n class
algebra, and subtract the embeddings of the lower graded pieces.  Every
coefficient on the way is an integer, so the recursion runs on
{partition: int} dicts and only the public functions build a DiagramSum.
"""

from __future__ import annotations

import collections
import math
import types
from fractions import Fraction

from .errors import BoundError, ConsistencyError, ParseError
from .partitions import (
    Partition,
    as_partition,
    degree,
    format_fraction,
    format_partition,
    multiplicity,
    pad,
    parse_fraction,
    parse_partition,
    partition_sort_key,
)
from .characters import MAX_TABLE_DEGREE, char_table, spectral_sum


class DiagramSum:
    """Finitely supported Fraction-linear combination of partitions.

    Immutable, with read-only terms, so a sum can be passed and kept
    without copying; zero terms are never stored.
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

    def degrees(self):
        return sorted({degree(p) for p in self._terms})

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


def rho_term(delta: Partition, k: int):
    """The embedding rho_k adding k unit rows with binomial multiplicity,
    rho_k(delta) = C(r+k, k) delta^k where r is the number of unit rows
    already present, as the pair (delta^k, C(r+k, k)) of its single term."""
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


def structure_constant(d1: Partition, d2: Partition, d: Partition) -> int:
    """C^d_{d1,d2}: multiplicity of the class sum of d in the product of the
    class sums of d1 and d2 inside the center of the group algebra."""
    d1, d2, d = as_partition(d1), as_partition(d2), as_partition(d)
    if not degree(d1) == degree(d2) == degree(d):
        raise ValueError("structure_constant requires equal degrees")
    return _structure_column(d1, d2)[char_table(degree(d)).column(d)]


def mult_same_degree(d1: Partition, d2: Partition) -> DiagramSum:
    """Product of two same-degree diagrams inside the degree-n class algebra."""
    d1, d2 = as_partition(d1), as_partition(d2)
    if degree(d2) != degree(d1):
        raise ValueError("mult_same_degree requires equal degrees")
    return DiagramSum(zip(char_table(degree(d1)).order, _structure_column(d1, d2)))


def _structure_column(d1: Partition, d2: Partition) -> tuple:
    """Every structure constant C^d_{d1,d2}, d in table order, as the
    spectral sum S_{d1,d2}(d): by the Frobenius formula

        C^d_{d1,d2} = sum_R d_R phi_R(d1) phi_R(d2) chi_R(d),

    an integer, which is checked.
    """
    n = degree(d1)
    column, q = spectral_sum(n, collections.Counter((d1, d2)))
    out = []
    for d, total in zip(char_table(n).order, column):
        value, remainder = divmod(total, q)
        if remainder or value < 0:
            raise ConsistencyError(
                "non-integral structure constant %s for (%s, %s, %s)"
                % (Fraction(total, q), d1, d2, d)
            )
        out.append(value)
    return tuple(out)


def _graded_pieces(d1: Partition, d2: Partition) -> dict:
    """All graded pieces {d1 d2}_n as {n: {partition: int}}, per the
    defining recursion."""
    lo = max(degree(d1), degree(d2))
    hi = degree(d1) + degree(d2)
    if hi > MAX_TABLE_DEGREE:
        raise BoundError("mult_infinity total degree %d exceeds bound %d"
                         % (hi, MAX_TABLE_DEGREE))
    pieces = {}
    for n in range(lo, hi + 1):
        p1, w1 = rho_term(d1, n - degree(d1))
        p2, w2 = rho_term(d2, n - degree(d2))
        weight = w1 * w2
        prod = {d: weight * c
                for d, c in zip(char_table(n).order, _structure_column(p1, p2)) if c}
        for k in range(lo, n):
            for d, c in pieces[k].items():
                padded, w = rho_term(d, n - k)
                prod[padded] = prod.get(padded, 0) - w * c
        pieces[n] = {d: c for d, c in prod.items() if c}
    return pieces


def mult_infinity(d1: Partition, d2: Partition) -> DiagramSum:
    """Full product d1 * d2 in the algebra of diagrams of arbitrary degree."""
    pieces = _graded_pieces(as_partition(d1), as_partition(d2))
    # the pieces have distinct degrees, so their terms never collide
    return DiagramSum({d: c for piece in pieces.values() for d, c in piece.items()})


def graded_piece(d1: Partition, d2: Partition, n: int) -> DiagramSum:
    """Single graded piece {d1 d2}_n of the product."""
    pieces = _graded_pieces(as_partition(d1), as_partition(d2))
    return DiagramSum(pieces.get(n))


def mult_sum(a: DiagramSum, b: DiagramSum) -> DiagramSum:
    """Bilinear extension of mult_infinity to diagram sums."""
    out = {}
    for p, cp in a.items():
        for q, cq in b.items():
            weight = cp * cq
            for piece in _graded_pieces(p, q).values():
                for d, c in piece.items():
                    out[d] = out.get(d, 0) + weight * c
    return DiagramSum(out)
