"""Genus-0 disconnected Hurwitz numbers and their generating function.

Brackets are values of characters.spectral_sum, the Frobenius-Mednykh
character sum (Lando-Zvonkin, Graphs on Surfaces, App. A) written with the
eigenvalues phi:

    <C_1,...,C_k> = S_{C_1...C_k-1}(C_k) / z_{C_k},

one sum over the irreducibles for every k >= 1.  A padded bracket is the
same sum with phi read at the degree of the last class.  Every value is
cross-checked, in the tests and selftest, against the literal
permutation-tuple count diagram_ops.oracles.oracle_tuple_count; nothing
here imports that module.

The generating function Z collects the padded brackets against the plain
power-sum monomials p_delta; its Taylor coefficient at a beta multi-index
(n_1, ..., n_k) carries the usual 1/(n_1! ... n_k!) factor.
"""

from __future__ import annotations

import collections
import math
from fractions import Fraction

from .errors import BoundError
from .partitions import (
    as_partition,
    aut_order,
    degree,
    format_fraction,
    format_partition,
    partition_sort_key,
    partitions_of,
)
from .characters import MAX_TABLE_DEGREE, char_table, spectral_sum

#: Most (beta multi-index, R) pairs, C(order+k, k) times the number of R
#: with |R| <= p_bound, that generating_function expands.
MAX_SERIES_PAIRS = 100_000

#: Largest total beta-order that generating_function expands, and the
#: most transpositions simple_hurwitz takes.  The pair bound caps the
#: time, but the coefficients' denominators grow like order!, so one
#: direction at a high order printed tens of megabytes.  At
#: order 100 and p_bound 12 one direction prints at most about 4 MB of
#: JSON in under 1 s, no more than the pair bound already admits for two
#: directions (order 25: 5.6 MB in 1.7 s).
MAX_SERIES_ORDER = 100


def hurwitz_chain(deltas) -> Fraction:
    """Bracket <D1,...,Dk> of equal-degree diagrams: (1/n!) times the number
    of k-tuples of permutations of these cycle types whose product is the
    identity, the padded bracket <(D1,1),...,(Dk-1,1)|Dk>."""
    deltas = [as_partition(d) for d in deltas]
    if not deltas:
        raise ValueError("hurwitz_chain requires at least one diagram")
    n = degree(deltas[0])
    if any(degree(d) != n for d in deltas):
        raise ValueError("hurwitz_chain requires equal degrees")
    return hurwitz_padded([(d, 1) for d in deltas[:-1]], deltas[-1])


def hurwitz_padded(branches, delta) -> Fraction:
    """Padded bracket <(D1,n1),...,(Dk,nk)|D> for branches ((Di, ni), ...),
    ni >= 1: the spectral sum S_{D1^n1...Dk^nk}(D) / z_D.  phi_R(Di) at
    degree |D| carries the unit-row embedding of Di, so the bracket is zero
    when some marked diagram is too large."""
    delta = as_partition(delta)
    branches = [(as_partition(p), int(m)) for p, m in branches]
    if any(m < 1 for _, m in branches):
        raise ValueError("branch multiplicities must be >= 1")
    powers = collections.Counter()
    for part, mult in branches:
        powers[part] += mult
    n = degree(delta)
    column, q = spectral_sum(n, powers)
    return Fraction(column[char_table(n).column(delta)], q * aut_order(delta))


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

    def ppoly_at(self, key):
        """Coefficient of the beta monomial indexed by key, as a PPoly."""
        from .psym import PPoly

        return PPoly({mono: c for (k, mono), c in self.terms.items() if k == key})

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
                    "coef": format_fraction(c),
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
    The coefficient of beta^k p_mu is the spectral sum S_k(mu) / (z_mu prod_Y k_Y!).
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
        classes = char_table(n).order
        for key, counts in zip(keys, multi_indices):
            column, q = spectral_sum(n, dict(zip(active, counts)))
            scale = q * math.prod(map(math.factorial, counts))
            for mu, total in zip(classes, column):
                if total:
                    series.terms[(key, mu)] = Fraction(total, scale * aut_order(mu))
    return series


def simple_hurwitz(n: int, m: int) -> dict:
    """Disconnected m-transposition Hurwitz numbers of degree n: for each
    diagram delta of degree n, the bracket <([2], m) | delta>, read from
    the one spectral sum S_{[2]^m}(delta) / z_delta."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if m > MAX_SERIES_ORDER:
        raise BoundError("%d transpositions exceed bound %d" % (m, MAX_SERIES_ORDER))
    column, q = spectral_sum(n, {(2,): m})
    return {delta: Fraction(total, q * aut_order(delta))
            for delta, total in zip(char_table(n).order, column)}
