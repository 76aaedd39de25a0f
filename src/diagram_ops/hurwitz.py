"""Genus-0 disconnected Hurwitz numbers and their generating function.

Brackets <D1,...,Dk> are read from the character table of S_n by the
Frobenius-Mednykh formula (Lando-Zvonkin, Graphs on Surfaces, App. A):

    <C_1,...,C_k> = (n!)^-2 prod_i |C_i| sum_R prod_i chi_R(C_i) dim_R^(2-k),

one sum over the irreducibles for every k >= 1.  Every value is
cross-checked, in the tests and selftest, against the literal
permutation-tuple count diagram_ops.oracles.oracle_tuple_count; nothing
here imports that module.

The generating function Z collects the padded brackets against the plain
power-sum monomials p_delta; its Taylor coefficient at a beta multi-index
(n_1, ..., n_k) carries the usual 1/(n_1! ... n_k!) factor.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BoundError
from .partitions import (
    Partition,
    as_partition,
    aut_order,
    class_size,
    degree,
    format_partition,
    multiplicity,
    pad,
    partition_sort_key,
    partitions_of,
)
from .characters import MAX_TABLE_DEGREE, char_table, phi

#: Most (beta multi-index, R) pairs, C(order+k, k) times the number of R
#: with |R| <= p_bound, that generating_function expands.
MAX_SERIES_PAIRS = 100_000

#: Largest total beta-order that generating_function expands.  The pair
#: bound caps the time, but the coefficients' denominators grow like
#: order!, so one direction at a high order printed tens of megabytes.  At
#: order 100 and p_bound 12 one direction prints at most about 4 MB of
#: JSON in under 1 s, no more than the pair bound already admits for two
#: directions (order 25: 5.6 MB in 1.7 s).
MAX_SERIES_ORDER = 100


def hurwitz3(d1: Partition, d2: Partition, d3: Partition) -> Fraction:
    """Three-point bracket, C^{d3}_{d1,d2} / z_{d3}."""
    return hurwitz_chain((d1, d2, d3))


def hurwitz_chain(deltas) -> Fraction:
    """Bracket <D1,...,Dk> of equal-degree diagrams: (1/n!) times the number
    of k-tuples of permutations of these cycle types whose product is the
    identity, by the Frobenius-Mednykh character sum."""
    deltas = [as_partition(d) for d in deltas]
    if not deltas:
        raise ValueError("hurwitz_chain requires at least one diagram")
    n = degree(deltas[0])
    if any(degree(d) != n for d in deltas):
        raise ValueError("hurwitz_chain requires equal degrees")
    table = char_table(n)
    cols = [table.column(d) for d in deltas]
    i_dim = table.column((1,) * n)
    total = Fraction(0)
    for row in table.rows.values():
        chi = math.prod(row[c] for c in cols)
        if chi:
            total += chi * Fraction(row[i_dim]) ** (2 - len(deltas))
    sizes = math.prod(class_size(d) for d in deltas)
    return total * sizes / math.factorial(n) ** 2


def hurwitz_padded(branches, delta) -> Fraction:
    """Padded bracket <(D1,n1),...,(Dk,nk)|D> for branches ((Di, ni), ...),
    ni >= 1: each marked diagram Di is raised to the degree of D by the
    unit-row embedding, whose binomial coefficient enters once per
    repetition; zero when some marked diagram is too large."""
    delta = as_partition(delta)
    branches = [(as_partition(p), int(m)) for p, m in branches]
    if any(m < 1 for _, m in branches):
        raise ValueError("branch multiplicities must be >= 1")
    n = degree(delta)
    factor = Fraction(1)
    chain = []
    for part, mult in branches:
        k = n - degree(part)
        if k < 0:
            return Fraction(0)
        r = multiplicity(part, 1)
        factor *= Fraction(math.comb(r + k, k)) ** mult
        chain.extend([pad(part, k)] * mult)
    chain.append(delta)
    return factor * hurwitz_chain(chain)


def _beta_key(counts: dict) -> tuple:
    """Canonical key for a beta multi-index: sorted (partition, power)."""
    return tuple(sorted(
        ((p, k) for p, k in counts.items() if k),
        key=lambda pk: partition_sort_key(pk[0]),
    ))


class HurwitzSeries:
    """Truncated expansion of the generating function Z in the directions
    active (canonical order), to graded degree p_bound and beta-order order.

    terms maps (beta_key, monomial partition) -> Fraction, where the
    coefficient is the raw Taylor coefficient against the plain monomial
    p_delta (the 1/k! factors of the beta powers are included).
    """

    def __init__(self, active, p_bound: int, order: int):
        self.active = tuple(active)
        self.p_bound = p_bound
        self.order = order
        self.terms = {}

    def coefficient(self, counts: dict, mono) -> Fraction:
        key = _beta_key({as_partition(p): k for p, k in counts.items()})
        return self.terms.get((key, tuple(sorted(mono, reverse=True))), Fraction(0))

    def bracket(self, counts: dict, mono) -> Fraction:
        """Taylor coefficient times prod n_i!: the padded Hurwitz bracket."""
        fact = 1
        for k in counts.values():
            fact *= math.factorial(k)
        return self.coefficient(counts, mono) * fact

    def ppoly_at(self, key):
        """Coefficient of the beta monomial indexed by key, as a PPoly."""
        from .psym import PPoly

        return PPoly(
            {mono: c for (k, mono), c in self.terms.items() if k == key},
            bound=self.p_bound,
        )

    def to_json_obj(self):
        items = sorted(
            self.terms.items(),
            key=lambda kv: (sum(k for _, k in kv[0][0]), kv[0][0],
                            degree(kv[0][1]), kv[0][1]),
        )
        return {
            "p_bound": self.p_bound,
            "order": self.order,
            "terms": [
                {
                    "beta": {format_partition(p): k for p, k in key},
                    "mono": list(mono),
                    "coef": "%s" % c,
                }
                for (key, mono), c in items
            ],
        }


def _multi_indices(k: int, total: int) -> list:
    """The k-tuples of nonnegative integers with sum <= total, in lexicographic order."""
    out = [()] if total >= 0 else []
    for _ in range(k):
        out = [c + (i,) for c in out for i in range(total - sum(c) + 1)]
    return out


def generating_function(active, p_bound: int, order: int) -> HurwitzSeries:
    """Z = sum_{|R| <= p_bound} d_R exp(sum_Y beta_Y phi_R(Y)) schur(R),
    expanded to total beta-order <= order; above MAX_SERIES_ORDER, with
    p_bound above MAX_TABLE_DEGREE, or above MAX_SERIES_PAIRS (beta
    multi-index, R) pairs, it raises BoundError before building anything.

    The beta-degree-0 term is the truncation of e^{p_1}, i.e. the
    unbranched covers, including the empty one for the empty diagram.
    With phi_R(Y) = P_R(Y) / q_Y over a common denominator q_Y for |R| = n,
    the coefficient of beta^k p_mu is one integer sum over a table's rows:

        sum_R dim_R prod_Y P_R(Y)^k_Y chi_R(mu) / (n! z_mu prod_Y q_Y^k_Y k_Y!).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_SERIES_ORDER:
        raise BoundError("series order %d exceeds bound %d" % (order, MAX_SERIES_ORDER))
    if p_bound < 0:
        raise ValueError("p_bound must be nonnegative")
    if p_bound > MAX_TABLE_DEGREE:
        raise BoundError("p_bound %d exceeds bound %d" % (p_bound, MAX_TABLE_DEGREE))
    active = sorted({as_partition(p) for p in active}, key=partition_sort_key)
    pairs = math.comb(order + len(active), len(active)) * sum(
        len(partitions_of(n)) for n in range(p_bound + 1))
    if pairs > MAX_SERIES_PAIRS:
        raise BoundError("series of %d (beta, R) pairs exceeds bound %d" % (pairs, MAX_SERIES_PAIRS))
    series = HurwitzSeries(active, p_bound, order)
    multi_indices = _multi_indices(len(active), order)
    keys = [_beta_key(dict(zip(active, counts))) for counts in multi_indices]
    for n in range(p_bound + 1):
        table = char_table(n)
        i_dim = table.column((1,) * n)
        eigs = [[phi(r, y) for y in active] for r in table.rows]
        q = [math.lcm(*(e.denominator for e in col)) for col in zip(*eigs)]
        num = [[e.numerator * (qy // e.denominator) for e, qy in zip(row, q)] for row in eigs]
        for key, counts in zip(keys, multi_indices):
            column = table.weighted_sum({r: chis[i_dim] * math.prod(map(pow, nums, counts))
                                         for (r, chis), nums in zip(table.rows.items(), num)})
            scale = math.factorial(n) * math.prod(
                qy ** k * math.factorial(k) for qy, k in zip(q, counts))
            for mu, total in zip(table.order, column):
                if total:
                    series.terms[(key, mu)] = Fraction(total, scale * aut_order(mu))
    return series


def simple_hurwitz(n: int, m: int) -> dict:
    """Disconnected m-transposition Hurwitz numbers of degree n: for each
    diagram of degree n, the bracket <([2], m) | delta>."""
    series = generating_function([(2,)], p_bound=n, order=m)
    counts = {(2,): m} if m else {}
    fact = math.factorial(m)
    return {
        delta: series.coefficient(counts, delta) * fact
        for delta in partitions_of(n)
    }
