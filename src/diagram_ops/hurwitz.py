"""Genus-0 disconnected Hurwitz numbers and their generating function.

Brackets are values of characters.spectral_sum, the Frobenius-Mednykh
character sum (Lando-Zvonkin, Graphs on Surfaces, App. A) written with the
eigenvalues phi:

    <C_1,...,C_k> = S_{C_1...C_k-1}(C_k) / z_{C_k},

one sum over the irreducibles for every k >= 1.  A padded bracket is the
same sum with phi read at the degree of the last class, returned as
(numerator, denominator) in lowest terms.  Every value is
cross-checked, in the tests and selftest, against the literal
permutation-tuple count diagram_ops.oracles.oracle_tuple_count; nothing
here imports that module.

The generating function Z collects the padded brackets against the plain
power-sum monomials p_delta; its Taylor coefficient at a beta multi-index
(n_1, ..., n_k) carries the usual 1/(n_1! ... n_k!) factor, and is a
polynomial in the p_k, a partitions.PPoly, which prints it.  The checks
read it as Fractions through diagram_ops.oracles.terms.

cmd_hurwitz and cmd_evolve are the bodies of the hurwitz and evolve
commands.
"""

import collections
import math

from .errors import BoundError, ParseError
from .partitions import (
    PPoly,
    as_partition,
    aut_order,
    degree,
    format_partition,
    format_ratio,
    parse_partition,
    partition_sort_key,
    partitions_of,
    ratio_sum,
)
from .characters import MAX_TABLE_DEGREE, char_table, spectral_sum

#: Most (beta multi-index, R) pairs, C(order+k, k) times the number of R
#: with |R| <= p_bound, that generating_function expands.
MAX_SERIES_PAIRS = 100_000

#: Largest total beta-order that generating_function expands, and the
#: most transpositions oracles.simple_hurwitz takes.  The pair bound caps the
#: time, but the coefficients' denominators grow like order!, so one
#: direction at a high order printed tens of megabytes.  At
#: order 100 and p_bound 12 one direction prints at most about 4 MB of
#: JSON in under 1 s, no more than the pair bound already admits for two
#: directions (order 25: 5.6 MB in 1.7 s).
MAX_SERIES_ORDER = 100


def hurwitz_chain(deltas) -> tuple:
    """Bracket <D1,...,Dk> of equal-degree diagrams: (1/n!) times the number
    of k-tuples of permutations of these cycle types whose product is the
    identity, the padded bracket <(D1,1),...,(Dk-1,1)|Dk>, as
    (numerator, denominator) in lowest terms."""
    deltas = [as_partition(d) for d in deltas]
    if not deltas:
        raise ValueError("hurwitz_chain requires at least one diagram")
    n = degree(deltas[0])
    if any(degree(d) != n for d in deltas):
        raise ValueError("hurwitz_chain requires equal degrees")
    return hurwitz_padded([(d, 1) for d in deltas[:-1]], deltas[-1])


def hurwitz_padded(branches, delta) -> tuple:
    """Padded bracket <(D1,n1),...,(Dk,nk)|D> for branches ((Di, ni), ...),
    ints ni >= 1: the spectral sum S_{D1^n1...Dk^nk}(D) / z_D, as (numerator,
    denominator) in lowest terms.  phi_R(Di) at degree |D| carries the
    unit-row embedding of Di, so the bracket is zero when some marked
    diagram is too large."""
    delta = as_partition(delta)
    powers = collections.Counter()
    for part, mult in branches:
        if not isinstance(mult, int) or mult < 1:
            raise ValueError("branch multiplicities must be ints >= 1")
        powers[as_partition(part)] += mult
    n = degree(delta)
    column, q = spectral_sum(n, powers)
    total = column[char_table(n).column(delta)]
    numerators, den = ratio_sum([(delta, total, q * aut_order(delta))])
    return numerators.get(delta, 0), den


def _beta_key(counts: dict) -> tuple:
    """Canonical key for a beta multi-index: sorted (partition, power)."""
    return tuple(sorted(
        ((p, k) for p, k in counts.items() if k),
        key=lambda pk: partition_sort_key(pk[0]),
    ))


class HurwitzSeries:
    """Truncated expansion of the generating function Z in the directions
    active (canonical order), to graded degree p_bound and beta-order order.

    coefficients maps each beta key to a PPoly: the raw Taylor
    coefficients against the plain monomials p_delta, the 1/k! factors
    included, printed by total beta-order and then as PPoly prints.
    """

    def __init__(self, active, p_bound: int, order: int):
        self.active = tuple(active)
        self.p_bound = p_bound
        self.order = order
        self.coefficients = {}

    def to_json_obj(self):
        terms = []
        for key in sorted(self.coefficients, key=lambda beta: (sum(k for _, k in beta), beta)):
            beta = {format_partition(p): k for p, k in key}
            terms += [{"beta": beta, "mono": list(mono), "coef": c}
                      for mono, c in self.coefficients[key].coefficients()]
        return {"p_bound": self.p_bound, "order": self.order, "terms": terms}


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
    for counts in _multi_indices(len(active), order):
        powers = dict(zip(active, counts))
        ratios = []
        for n in range(p_bound + 1):
            column, q = spectral_sum(n, powers)
            scale = q * math.prod(map(math.factorial, counts))
            ratios += [(mu, total, scale * aut_order(mu))
                       for mu, total in zip(char_table(n).order, column) if total]
        series.coefficients[_beta_key(powers)] = PPoly.of(ratios)
    return series


def cmd_hurwitz(args, check_degrees):
    """The hurwitz command: the bracket of equal-degree classes."""
    classes = [parse_partition(t) for t in args.classes]
    n = args.n if args.n is not None else degree(classes[0])
    check_degrees([n] + [degree(d) for d in classes])
    for d in classes:
        if degree(d) != n:
            raise ParseError("class %s does not have degree %d" % (format_partition(d), n))
    value = format_ratio(*hurwitz_chain(classes))
    return value, {"n": n, "branches": [list(d) for d in classes], "value": value}


def cmd_evolve(args, check_degrees):
    """The evolve command: the generating function's terms, one a line."""
    directions = [parse_partition(t) for t in args.directions]
    check_degrees([args.p_bound] + [degree(d) for d in directions])
    obj = generating_function(directions, p_bound=args.p_bound, order=args.order).to_json_obj()
    lines = []
    for term in obj["terms"]:
        beta = " ".join("b%s^%d" % (p, k) for p, k in term["beta"].items()) or "1"
        mono = format_partition(tuple(term["mono"]))
        lines.append("%s | p_%s : %s" % (beta, mono, term["coef"]))
    return "\n".join(lines), obj
