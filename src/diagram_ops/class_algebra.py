"""Center of the group algebra of S_n and the graded product of diagrams.

mult_same_degree reads every structure constant of a product of two class
sums from the character table in one pass over its rows, and is memoized;
structure_constant picks one coefficient from it.  The literal
pair-counting definition lives in diagram_ops.oracles
(oracle_structure_constant), which only the tests and selftest import.

mult_infinity implements the graded product on diagrams of arbitrary
degree: pad both factors to a common degree n with the unit-row embedding,
multiply inside the degree-n class algebra, and subtract the embeddings of
the lower graded pieces.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import BoundError, ConsistencyError
from .partitions import (
    DiagramSum,
    Partition,
    as_partition,
    class_size,
    degree,
    rho_sum,
)
from .characters import char_table, MAX_TABLE_DEGREE


def structure_constant(d1: Partition, d2: Partition, d: Partition) -> int:
    """C^d_{d1,d2}: multiplicity of the class sum of d in the product of the
    class sums of d1 and d2 inside the center of the group algebra."""
    d = as_partition(d)
    if degree(d) != degree(d1):
        raise ValueError("structure_constant requires equal degrees")
    return int(mult_same_degree(d1, d2).coefficient(d))


def mult_same_degree(d1: Partition, d2: Partition) -> DiagramSum:
    """Product of two same-degree diagrams inside the degree-n class algebra."""
    d1, d2 = as_partition(d1), as_partition(d2)
    if degree(d2) != degree(d1):
        raise ValueError("mult_same_degree requires equal degrees")
    return _mult_same_degree(d1, d2)


@functools.lru_cache(maxsize=None)
def _mult_same_degree(d1: Partition, d2: Partition) -> DiagramSum:
    """Every structure constant of d1 * d2 at once, by the Frobenius formula

        C^d_{d1,d2} = |C_d1| |C_d2| / n! * sum_R chi_R(d1) chi_R(d2) chi_R(d) / dim_R,

    in one pass over the character-table rows.  n!/dim_R is an integer, so
    the sum is taken in integers over n!^2 and divided once at the end.
    """
    n = degree(d1)
    table = char_table(n)
    n_fact = math.factorial(n)
    i1, i2, i_dim = (table.column(d) for d in (d1, d2, (1,) * n))
    column = [0] * len(table.order)
    for row in table.rows.values():
        weight = row[i1] * row[i2] * (n_fact // row[i_dim])
        if weight:
            for j, chi in enumerate(row):
                column[j] += weight * chi
    scale = class_size(d1) * class_size(d2)
    out = {}
    for d, total in zip(table.order, column):
        value = Fraction(scale * total, n_fact * n_fact)
        if value.denominator != 1 or value < 0:
            raise ConsistencyError(
                "non-integral structure constant %s for (%s, %s, %s)" % (value, d1, d2, d)
            )
        out[d] = value
    return DiagramSum(out)


def _mult_same_degree_sum(a: DiagramSum, b: DiagramSum) -> DiagramSum:
    out = DiagramSum.zero()
    for p, cp in a.items():
        for q, cq in b.items():
            out = out + mult_same_degree(p, q) * (cp * cq)
    return out


@functools.lru_cache(maxsize=None)
def _graded_pieces(d1: Partition, d2: Partition):
    """All graded pieces {d1 d2}_n, keyed by n, per the defining recursion."""
    lo = max(degree(d1), degree(d2))
    hi = degree(d1) + degree(d2)
    pieces = {}
    for n in range(lo, hi + 1):
        prod = _mult_same_degree_sum(
            rho_sum(DiagramSum.single(d1), n - degree(d1)),
            rho_sum(DiagramSum.single(d2), n - degree(d2)),
        )
        for k in range(lo, n):
            prod = prod - rho_sum(pieces[k], n - k)
        pieces[n] = prod
    return pieces


def mult_infinity(d1: Partition, d2: Partition) -> DiagramSum:
    """Full product d1 * d2 in the algebra of diagrams of arbitrary degree."""
    d1, d2 = as_partition(d1), as_partition(d2)
    if degree(d1) + degree(d2) > MAX_TABLE_DEGREE:
        raise BoundError(
            "mult_infinity total degree %d exceeds bound %d"
            % (degree(d1) + degree(d2), MAX_TABLE_DEGREE)
        )
    total = DiagramSum.zero()
    for piece in _graded_pieces(d1, d2).values():
        total = total + piece
    return total


def graded_piece(d1: Partition, d2: Partition, n: int) -> DiagramSum:
    """Single graded piece {d1 d2}_n of the product."""
    pieces = _graded_pieces(as_partition(d1), as_partition(d2))
    return pieces.get(n, DiagramSum.zero())


def mult_sum(a: DiagramSum, b: DiagramSum) -> DiagramSum:
    """Bilinear extension of mult_infinity to diagram sums."""
    out = DiagramSum.zero()
    for p, cp in a.items():
        for q, cq in b.items():
            out = out + mult_infinity(p, q) * (cp * cq)
    return out
