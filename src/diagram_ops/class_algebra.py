"""Center of the group algebra of S_n and the graded product of diagrams.

DiagramSum, a linear combination of diagrams of possibly mixed degrees,
is a partitions.Ratios, as PPoly is, and declares only its key, its
printing order and its text.  It lives here because only mult reads and
prints one.

The graded product of diagrams of arbitrary degree (Ivanov-Kerov, The
algebra of conjugacy classes in symmetric groups, and partial
permutations, 1999) is read from the eigenvalues: Delta -> W(Delta) is an
algebra map with W(Delta) s_R = phi_R(Delta) s_R (arXiv:1012.0433), so
phi_R(A B) = phi_R(A) phi_R(B).  At each degree n, _class_product turns
these values into the image of A B in the center of the group algebra of
S_n by one spectral sum (characters.spectral_sum), where a piece of A B
of degree k < n shows padded with n - k unit rows (rho_term); mult_sum
subtracts the pieces below n and keeps the rest as the piece of degree
n.  structure_constant reads _class_product at its own degree.  The
table-free checks live in diagram_ops.oracles, which only the tests and
selftest import.

cmd_mult is the body of the mult command.
"""

import math

from .errors import BoundError, ConsistencyError
from .partitions import (
    Partition,
    Ratios,
    as_partition,
    degree,
    format_partition,
    format_ratio,
    multiplicity,
    pad,
    parse_partition,
    parse_ratio,
    parse_terms,
    partition_sort_key,
)
from .characters import MAX_TABLE_DEGREE, char_table, phi_column, spectral_sum


class DiagramSum(Ratios):
    """Finitely supported rational linear combination of partitions, a
    partitions.Ratios keyed by partitions and printed in canonical order
    (degree, then reverse-lex) as 'coef*[partition] + ...'."""

    __slots__ = ()
    _key = staticmethod(as_partition)
    _order = staticmethod(partition_sort_key)
    _factors = staticmethod(lambda p: [format_partition(p)])

    def to_json_obj(self):
        return [{"coef": c, "partition": list(p)} for p, c in self.coefficients()]


def rho_term(delta: Partition, k: int):
    """The embedding rho_k adding k unit rows with binomial multiplicity,
    rho_k(delta) = C(r+k, k) delta^k where r is the number of unit rows
    already present, as the pair (delta^k, C(r+k, k)) of its single term."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return pad(delta, k), math.comb(multiplicity(delta, 1) + k, k)


def _read_diagram(chunk: str) -> tuple:
    """(partition, numerator, denominator) of 'coef*partition' or 'partition'."""
    if "*" not in chunk:
        return parse_partition(chunk), 1, 1
    coef_text, _, part_text = chunk.partition("*")
    num, den = parse_ratio(coef_text)
    return parse_partition(part_text), num, den


def parse_diagram_sum(text: str) -> DiagramSum:
    """Parse 'coef*partition + coef*partition + ...'.

    A bare partition is accepted as shorthand for coefficient 1.
    """
    return parse_terms(DiagramSum, text, "diagram sum", _read_diagram)


def structure_constant(d1: Partition, d2: Partition, d: Partition) -> int:
    """C^d_{d1,d2}: multiplicity of the class sum of d in the product of the
    class sums of d1 and d2 inside the center of the group algebra."""
    d1, d2, d = as_partition(d1), as_partition(d2), as_partition(d)
    if not degree(d1) == degree(d2) == degree(d):
        raise ValueError("structure_constant requires equal degrees")
    return _class_product({d1: 1}, {d2: 1}, degree(d))[d]


def _phi_sum(terms: dict, n: int) -> list:
    """phi_R(sum_p c_p p) = sum_p c_p phi_R(p) for every R of degree n, in
    table order, for the terms {p: c_p}."""
    out = [0] * len(char_table(n).order)
    for p, c in terms.items():
        out = [x + c * y for x, y in zip(out, phi_column(n, p))]
    return out


def _class_product(a: dict, b: dict, n: int) -> dict:
    """The image at degree n of the product of the sums {p: c_p} a and b,
    as {class: int} over every class e of degree n: the spectral sum
    (1/n!) sum_R dim_R phi_R(a) phi_R(b) chi_R(e), an integer, which is
    checked."""
    table = char_table(n)
    i_dim = table.column((1,) * n)
    weights = [row[i_dim] * x * y
               for row, x, y in zip(table.rows.values(), _phi_sum(a, n), _phi_sum(b, n))]
    column, _ = spectral_sum(n, {}, weights)
    q = math.factorial(n)
    out = {}
    for e, total in zip(table.order, column):
        out[e], remainder = divmod(total, q)
        if remainder:
            raise ConsistencyError("non-integral structure constant %s for (%s, %s, %s)" % (
                format_ratio(total, q), " + ".join(map(str, a)), " + ".join(map(str, b)), e))
    return out


def mult_infinity(d1: Partition, d2: Partition) -> DiagramSum:
    """Full product d1 * d2 in the algebra of diagrams of arbitrary degree,
    as mult_sum of two one-term sums."""
    return mult_sum(DiagramSum({d1: 1}), DiagramSum({d2: 1}))


def mult_sum(a: DiagramSum, b: DiagramSum) -> DiagramSum:
    """The graded product of two diagram sums, over the product of their
    denominators.  Its piece of degree n is the image at degree n, less the
    unit-row embeddings of the pieces below n."""
    out = {}
    if a.numerators and b.numerators:
        lo = max(min(map(degree, a.numerators)), min(map(degree, b.numerators)))
        hi = max(map(degree, a.numerators)) + max(map(degree, b.numerators))
        if hi > MAX_TABLE_DEGREE:
            raise BoundError("mult_infinity total degree %d exceeds bound %d"
                             % (hi, MAX_TABLE_DEGREE))
        for n in range(lo, hi + 1):
            piece = _class_product(a.numerators, b.numerators, n)
            # out holds the pieces of degree below n
            for d, c in out.items():
                padded, w = rho_term(d, n - degree(d))
                piece[padded] -= w * c
            out.update((d, c) for d, c in piece.items() if c)
    den = a.denominator * b.denominator
    return DiagramSum.of([(d, c, den) for d, c in out.items()])


def cmd_mult(args, check_degrees):
    """The mult command: the product of two diagram sums."""
    a = parse_diagram_sum(args.left)
    b = parse_diagram_sum(args.right)
    check_degrees(a.degrees() + b.degrees())
    result = mult_sum(a, b)
    return result.to_text(), {"result": result.to_json_obj()}
