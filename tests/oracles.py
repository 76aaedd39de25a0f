"""Slow, independent routes to quantities the package reads from the
character table, kept here to cross-check it in tests.

* complete_homogeneous / jacobi_trudi: Schur functions as the determinant
  det[h_{r_i + j - i}] of complete homogeneous functions, summed over all
  l! permutations of the rows.
* mn_character: one character by the Murnaghan-Nakayama recursion,
  removing border strips as beta-number moves b -> b - t, memoized per
  (shape, class).
* d_r_product: the Plancherel weight dim(r)/|r|! by a determinant-free
  product formula instead of hook lengths.
* series_by_schur: the generating function's coefficients summed term by
  term in Fractions, d_R prod_Y phi_R(Y)^k_Y / k_Y! times schur(R), over
  every beta multi-index the itertools filter keeps.
"""

import functools
import itertools
import math
from fractions import Fraction

from diagram_ops.characters import d_r, phi
from diagram_ops.hurwitz import _beta_key
from diagram_ops.partitions import Partition, degree, partitions_of
from diagram_ops.psym import PPoly, schur


def _beta_numbers(shape: Partition):
    l = len(shape)
    return tuple(shape[i] + (l - 1 - i) for i in range(l))


def _shape_from_betas(betas):
    """Inverse of _beta_numbers; betas sorted decreasing, zero rows dropped."""
    l = len(betas)
    parts = tuple(b - (l - 1 - i) for i, b in enumerate(betas))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _strip_removals(shape: Partition, t: int):
    """Yield (smaller shape, sign) for each border strip of size t."""
    betas = _beta_numbers(shape)
    beta_set = set(betas)
    for b in betas:
        c = b - t
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in betas if c < x < b)
        new = tuple(sorted((beta_set - {b}) | {c}, reverse=True))
        yield _shape_from_betas(new), -1 if height % 2 else 1


@functools.lru_cache(maxsize=None)
def mn_character(shape: Partition, cls: Partition) -> int:
    """chi_shape on the class cls, removing a strip of size cls[0] first."""
    if not cls:
        return 1 if not shape else 0
    t, rest = cls[0], cls[1:]
    total = 0
    for smaller, sign in _strip_removals(shape, t):
        total += sign * mn_character(smaller, rest)
    return total


@functools.lru_cache(maxsize=None)
def complete_homogeneous(i: int) -> PPoly:
    """h_i with exp(sum_k p_k x^k / k) = sum_i h_i x^i; h_0 = 1, h_{<0} = 0."""
    if i < 0:
        return PPoly.zero()
    if i == 0:
        return PPoly.one()
    # Newton recurrence: i*h_i = sum_{k=1..i} p_k h_{i-k}
    acc = PPoly.zero()
    for k in range(1, i + 1):
        acc = acc + PPoly.variable(k) * complete_homogeneous(i - k)
    return acc * Fraction(1, i)


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def jacobi_trudi(r: Partition) -> PPoly:
    """Schur function of r by the Jacobi-Trudi determinant."""
    l = len(r)
    entries = [[complete_homogeneous(r[i] + j - i) for j in range(l)] for i in range(l)]
    total = PPoly.zero()
    for perm in itertools.permutations(range(l)):
        prod = PPoly.one()
        for i in range(l):
            prod = prod * entries[i][perm[i]]
            if prod.is_zero():
                break
        total = total + prod * _perm_sign(perm)
    return total


def d_r_product(r: Partition) -> Fraction:
    """dim(r)/|r|! by the product formula
    prod_{i<j<=n} (mu_i - mu_j - i + j) / prod_{i<=n} (mu_i + n - i)!
    with the part list padded by zeros to length n = |r|."""
    n = degree(r)
    if n == 0:
        return Fraction(1)
    mu = list(r) + [0] * (n - len(r))
    num = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= mu[i] - mu[j] - (i + 1) + (j + 1)
    den = 1
    for i in range(n):
        den *= math.factorial(mu[i] + n - (i + 1))
    return Fraction(num, den)


def series_by_schur(active, p_bound: int, order: int) -> dict:
    """{(beta key, monomial): coefficient} of the truncated generating
    function, active in the canonical order of HurwitzSeries.active."""
    terms = {}
    for counts in itertools.product(range(order + 1), repeat=len(active)):
        if sum(counts) > order:
            continue
        key = _beta_key(dict(zip(active, counts)))
        for n in range(p_bound + 1):
            for r in partitions_of(n):
                c = d_r(r)
                for y, k in zip(active, counts):
                    c *= phi(r, y) ** k / math.factorial(k)
                for mono, mc in schur(r).terms.items():
                    terms[(key, mono)] = terms.get((key, mono), 0) + c * mc
    return {slot: v for slot, v in terms.items() if v}
