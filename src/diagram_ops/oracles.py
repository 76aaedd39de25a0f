"""Slow, independent routes to what the package reads from the character
table.  Only the tests, `selftest` and `wapply --explicit` import this
module; nothing on the production path does.

Names that no command reads, kept for the checks and the tests:

* class_size and conjugate on partitions; character and table_entry,
  one entry of the character table; mult_same_degree, the product of
  two diagrams of one degree n in the class algebra of S_n, and
  graded_piece, the piece of one degree of mult_infinity, both read from
  class_algebra's one product route; simple_hurwitz, the m-transposition
  brackets as one spectral sum; series_coefficient, one beta-coefficient
  of the generating function as a term dict.
* terms, the one Fraction view of a partitions.Ratios, a PPoly or a
  DiagramSum, or of a HurwitzSeries, whose coefficients are PPolys;
  ppoly and diagram_sum build the first two from Fractions.
* poly_add, poly_neg, poly_sub, poly_mul, poly_diff and poly_max_degree:
  the arithmetic of polynomials in the power sums, on term dicts
  {monomial: coefficient} such as terms(f); ppoly reads one back.

Permutations, as tuples of images:

* permutations_of_type: the permutations of one cycle type, each built
  once from its cycles and memoized; every enumeration below reads it.
* oracle_tuple_count: (1/n!) times the number of tuples of permutations
  of the given types whose product is the identity, carrying the number
  of ways to reach each partial product, for n up to MAX_ORACLE_DEGREE.

Partial permutations (Ivanov-Kerov), up to MAX_ORACLE_ACTIONS of them:

* oracle_coefficient: one coefficient of the graded product, for one
  fixed target of type d on range(|d|), by running over the partial
  permutations of the factor that has fewer of them and counting the
  supports that complete each to a pair.  At equal degrees it is the
  class-algebra structure constant.  It reads no character table and
  reaches total degree 12, so it is the one reference for structure
  constants and for mult_sum that does not go through phi.
* oracle_mult_infinity: the whole graded product, oracle_coefficient at
  every target degree.

Symmetric functions and characters:

* bialternant_eval: a Schur polynomial at points, as the ratio of the
  bialternant to the Vandermonde determinant; eval_at_power_sums
  evaluates a PPoly at the same points.
* complete_homogeneous / jacobi_trudi: Schur functions as the determinant
  det[h_{r_i + j - i}], summed over all l! permutations of the rows.
* mn_character: one character by the Murnaghan-Nakayama recursion,
  removing border strips as beta-number moves b -> b - t, memoized per
  (shape, class).
* check_orthogonality: the row orthogonality of a whole character table;
  a failure ends selftest with ConsistencyError.
* dimension / d_r: dim(r) by hook lengths and the Plancherel weight
  dim(r)/|r|!, independent checks of the table's [1^n] column, which phi
  reads.
* connected_series: log Z in the one direction [2] by the degree
  recurrence, the connected Hurwitz numbers; hurwitz_genus0 (Hurwitz's
  formula) and one_part_hurwitz (one-part numbers of every genus) are
  closed forms for them that read no character table, so they check the
  table, phi and spectral_sum up to the table ceiling, past the reach of
  permutation enumeration.

Operators:

* apply_explicit: W(delta) for every diagram with |delta| <=
  MAX_ORACLE_DEGREE, as the action of the partial permutations of type
  delta on one permutation of type mu for each monomial p_mu.
* cut_and_join: W([2]) as the literal differential operator in the p_k.
* compose_check: both sides of W(d1) W(d2) = W(d1 d2), the left by
  apply_explicit, the right by apply_spectral on each term of the graded
  product.
* pde_residual: how far the generating function is from solving
  dZ/dbeta_Y = W(Y) Z, with W(Y) by apply_explicit.  Zero in every active
  direction, with the beta^0 coefficient e^p1, it fixes every coefficient
  up to the order.

selftest_suites runs the oracle-equivalence suites of `selftest`, and
cmd_selftest is the body of that command; --level full adds the two
table-free suites that reach degree 12, closed_form_genus0 and
coefficient_oracle_above_8.
"""

import collections
import functools
import itertools
import math
import random
from fractions import Fraction

from .errors import BoundError, ConsistencyError
from .partitions import (
    Partition,
    as_partition,
    aut_order,
    degree,
    multiplicity,
    partition_sort_key,
    partitions_of,
)
from .characters import char_table, spectral_sum
from .class_algebra import (
    DiagramSum,
    _class_product,
    mult_infinity,
    structure_constant,
)
from .hurwitz import (
    MAX_SERIES_ORDER,
    HurwitzSeries,
    _beta_key,
    _multi_indices,
    generating_function,
    hurwitz_chain,
)
from .psym import PPoly, apply_spectral

#: Largest n for which brute-force S_n enumeration is allowed.
MAX_ORACLE_DEGREE = 6

#: Most partial permutations, class_size(delta) times the sum of
#: C(|mu|, |delta|) over the monomials p_mu of f, that apply_explicit
#: enumerates.  Each costs about 6 us at |mu| = 12 (2-core VM, Python
#: 3.11), so an op stays under about 1.5 s; the diagrams with |delta| <= 3
#: on all 272 monomials of degree <= 12 need at most 107,430.
MAX_ORACLE_ACTIONS = 200_000


# ---------------------------------------------------------------------------
# Partitions, characters and products that only the checks read

def terms(x) -> dict:
    """{key: Fraction} of a PPoly or DiagramSum, keys in canonical order,
    or {(beta key, monomial): Fraction} of a HurwitzSeries."""
    if isinstance(x, HurwitzSeries):
        return {(key, m): c for key, f in x.coefficients.items() for m, c in terms(f).items()}
    return {k: Fraction(x.numerators[k], x.denominator)
            for k in sorted(x.numerators, key=partition_sort_key)}


def _from_fractions(cls, coefficients):
    """cls of int or Fraction coefficients, a mapping or pairs, over their lcm."""
    pairs = list(coefficients.items() if hasattr(coefficients, "items") else coefficients)
    q = math.lcm(*(c.denominator for _, c in pairs))
    return cls([(k, c.numerator * (q // c.denominator)) for k, c in pairs], q)


def ppoly(coefficients) -> PPoly:
    """The PPoly of {monomial: int or Fraction}, or of such pairs."""
    return _from_fractions(PPoly, coefficients)


def diagram_sum(coefficients) -> DiagramSum:
    """The DiagramSum of {partition: int or Fraction}, or of such pairs."""
    return _from_fractions(DiagramSum, coefficients)


def class_size(delta: Partition) -> int:
    """Number of permutations in S_n of cycle type delta, n = degree(delta)."""
    return math.factorial(degree(delta)) // aut_order(delta)


def conjugate(delta: Partition) -> Partition:
    """Transposed diagram."""
    if not delta:
        return ()
    return tuple(sum(1 for p in delta if p > i) for i in range(delta[0]))


def table_entry(table, r: Partition, delta: Partition) -> int:
    """chi_r(delta) read from a CharacterTable; r and delta must be
    partitions of its n, parts decreasing."""
    if tuple(r) not in table.rows:
        raise table._unknown("shape", r)
    return table.rows[tuple(r)][table.column(delta)]


def character(r: Partition, delta: Partition) -> int:
    """chi_R on the class of cycle type delta, read from the table of
    S_|R|.  The parts of delta may come in any order; degrees must match,
    and |R| above MAX_TABLE_DEGREE raises BoundError."""
    r = as_partition(r)
    delta = as_partition(sorted(delta, reverse=True))
    if degree(r) != degree(delta):
        raise ValueError(
            "degree mismatch: |R|=%d, |Delta|=%d" % (degree(r), degree(delta))
        )
    return table_entry(char_table(degree(r)), r, delta)


def mult_same_degree(d1: Partition, d2: Partition) -> DiagramSum:
    """Product of two same-degree diagrams inside the degree-n class algebra."""
    d1, d2 = as_partition(d1), as_partition(d2)
    if degree(d2) != degree(d1):
        raise ValueError("mult_same_degree requires equal degrees")
    return DiagramSum(_class_product({d1: 1}, {d2: 1}, degree(d1)))


def graded_piece(d1: Partition, d2: Partition, n: int) -> DiagramSum:
    """Single graded piece {d1 d2}_n of the product."""
    return diagram_sum((d, c) for d, c in terms(mult_infinity(d1, d2)).items() if degree(d) == n)


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


def series_coefficient(series: HurwitzSeries, key) -> dict:
    """The coefficient of the beta monomial indexed by key, as a term dict."""
    return terms(series.coefficients.get(key, PPoly()))


# ---------------------------------------------------------------------------
# Polynomials in the power sums as term dicts {monomial: coefficient}: the
# arithmetic of PPoly, which only the checks use.  Each function returns a
# new dict without zero terms, and ppoly reads one.  The constant 1
# is {(): 1} and p_k is {(k,): 1}.

def poly_add(f, g) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def poly_neg(f) -> dict:
    return {m: -c for m, c in f.items()}


def poly_sub(f, g) -> dict:
    return poly_add(f, poly_neg(g))


def poly_mul(f, g) -> dict:
    """f * g, for a term dict or a number g."""
    if not hasattr(g, "items"):
        return {m: c * g for m, c in f.items() if c * g}
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            key = tuple(sorted(m1 + m2, reverse=True))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def poly_diff(f, k: int) -> dict:
    """Partial derivative with respect to p_k."""
    out = {}
    for mono, coef in f.items():
        m = multiplicity(mono, k)
        if m:
            reduced = list(mono)
            reduced.remove(k)
            key = tuple(reduced)
            out[key] = out.get(key, 0) + m * coef
    return out


def poly_max_degree(f) -> int:
    """Graded degree of the highest monomial (0 for the zero polynomial)."""
    return max(map(degree, f), default=0)


# ---------------------------------------------------------------------------
# Permutations, as tuples of the images of 0..n-1

def cycle_type(perm) -> Partition:
    """Cycle type of a permutation given as a tuple of images of 0..n-1."""
    n = len(perm)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def compose(p, q):
    """(p after q): i -> p[q[i]]."""
    return tuple([p[i] for i in q])


@functools.lru_cache(maxsize=32)
def permutations_of_type(delta: Partition) -> tuple:
    """Every permutation of range(|delta|) of cycle type delta, each built
    once, as a tuple of images: the smallest free point opens a cycle of
    each length still to place, and the cycle takes any ordered choice of
    the other free points.  Memoized, so the checks share the enumeration."""
    images = [0] * degree(delta)
    out = []

    def build(free, lengths):
        if not free:
            out.append(tuple(images))
            return
        for k in sorted(set(lengths)):
            rest = list(lengths)
            rest.remove(k)
            for others in itertools.permutations(free[1:], k - 1):
                cycle = (free[0],) + others
                for i, point in enumerate(cycle):
                    images[point] = cycle[(i + 1) % k]
                build([p for p in free[1:] if p not in others], rest)

    build(list(range(degree(delta))), list(delta))
    return tuple(out)


def oracle_tuple_count(classes, n: int) -> Fraction:
    """(1/n!) * number of tuples (g_1, ..., g_k) with g_i of type classes_i
    and g_1 ... g_k = identity, by direct enumeration over S_n, carrying
    the number of ways to reach each product g_1 ... g_i from i to i + 1."""
    classes = [as_partition(d) for d in classes]
    if n > MAX_ORACLE_DEGREE:
        raise BoundError("tuple oracle beyond S_%d" % MAX_ORACLE_DEGREE)
    if any(degree(d) != n for d in classes):
        raise ValueError("oracle classes must all have degree %d" % n)
    if not classes:
        return Fraction(1, math.factorial(n))
    ways = {tuple(range(n)): 1}
    for d in classes[:-1]:
        step = {}
        for g, count in ways.items():
            for x in permutations_of_type(d):
                h = compose(g, x)
                step[h] = step.get(h, 0) + count
        ways = step
    # g_k = g^{-1}, whose type equals type(g)
    count = sum(c for g, c in ways.items() if cycle_type(g) == classes[-1])
    return Fraction(count, math.factorial(n))


def _partial_permutations(delta: Partition, n: int):
    """Yield every partial permutation of cycle type delta with support in
    range(n), as the images of 0..n-1, fixing each point off the support."""
    for support in itertools.combinations(range(n), degree(delta)):
        for perm in permutations_of_type(delta):
            images = list(range(n))
            for i, j in zip(support, perm):
                images[i] = support[j]
            yield tuple(images)


def _actions(delta: Partition, n: int) -> int:
    """The number of partial permutations of type delta with support in
    range(n), C(n, |delta|) |C_delta|."""
    return math.comb(n, degree(delta)) * class_size(delta)


def _check_actions(actions: int):
    if actions > MAX_ORACLE_ACTIONS:
        raise BoundError("%d partial permutations exceed bound %d" % (actions, MAX_ORACLE_ACTIONS))


def _permutation_of_type(mu: Partition):
    """One permutation of cycle type mu, its cycles on consecutive points."""
    images = []
    for part in mu:
        start = len(images)
        images += range(start + 1, start + part)
        images.append(start)
    return tuple(images)


def oracle_coefficient(d1: Partition, d2: Partition, d: Partition) -> int:
    """The coefficient of d in d1 * d2, reading no character table: the
    number of pairs of partial permutations x = (A, sigma) of type d1 and
    y = (B, tau) of type d2 with xy = (S, t), for one t of type d on
    S = range(|d|) (Ivanov-Kerov).  For each x, tau = sigma^-1 t, and B
    must hold base = moved(tau) | (S - A) and |d2| points of S, so x adds
    C(|S| - |base|, |d2| - |base|) when the nontrivial cycles of tau are
    those of d2.  At |d1| = |d2| = |d| this is the structure constant of
    the class algebra of S_|d|.  The product commutes, so x runs over the
    factor with fewer partial permutations; above MAX_ORACLE_ACTIONS of
    them it raises BoundError before any work."""
    d1, d2, d = as_partition(d1), as_partition(d2), as_partition(d)
    size = degree(d)
    if _actions(d2, size) < _actions(d1, size):
        d1, d2 = d2, d1
    if not _actions(d1, size):  # a factor of degree above |d|
        return 0
    _check_actions(_actions(d1, size))
    t = _permutation_of_type(d)
    cycles = [c for c in d2 if c > 1]
    total = 0
    for support in itertools.combinations(range(size), degree(d1)):
        outside = set(range(size)).difference(support)
        for sigma in permutations_of_type(d1):
            inverse = list(range(size))
            for point, j in zip(support, sigma):
                inverse[support[j]] = point
            tau = [inverse[x] for x in t]
            if [c for c in cycle_type(tau) if c > 1] == cycles:
                base = len(outside.union(i for i in range(size) if tau[i] != i))
                if base <= degree(d2):
                    total += math.comb(size - base, degree(d2) - base)
    return total


def oracle_mult_infinity(d1: Partition, d2: Partition) -> DiagramSum:
    """d1 * d2 as oracle_coefficient at every target of degree
    max(|d1|, |d2|) ... |d1| + |d2|, the sizes that the union of the two
    supports can take.  Above MAX_ORACLE_ACTIONS partial permutations in
    all, the fewer of the two factors' at each target, it raises
    BoundError before any coefficient is counted."""
    d1, d2 = as_partition(d1), as_partition(d2)
    targets = [d for n in range(max(degree(d1), degree(d2)), degree(d1) + degree(d2) + 1)
               for d in partitions_of(n)]
    _check_actions(sum(min(_actions(d1, degree(d)), _actions(d2, degree(d))) for d in targets))
    return DiagramSum({d: oracle_coefficient(d1, d2, d) for d in targets})


# ---------------------------------------------------------------------------
# Symmetric functions and characters

def _det(matrix):
    """Exact determinant by fraction-free forward elimination on Fractions."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def bialternant_eval(r: Partition, xs) -> Fraction:
    """Schur polynomial of r at the points xs, as the ratio of the
    bialternant determinant to the Vandermonde determinant."""
    xs = [Fraction(x) for x in xs]
    n = len(xs)
    if len(set(xs)) != n:
        raise ValueError("bialternant evaluation requires distinct points")
    if n < len(r):
        raise ValueError("need at least %d points for %s" % (len(r), r))
    rr = list(r) + [0] * (n - len(r))
    num = _det([[x ** (rr[j] + n - (j + 1)) for j in range(n)] for x in xs])
    den = _det([[x ** (n - (j + 1)) for j in range(n)] for x in xs])
    return num / den


def eval_at_power_sums(f: PPoly, xs) -> Fraction:
    """Evaluate f after substituting p_k <- sum_j xs_j^k."""
    xs = [Fraction(x) for x in xs]
    psum = {k: sum(x ** k for x in xs) for mono in f.numerators for k in mono}
    return sum((c * math.prod(psum[k] for k in mono) for mono, c in terms(f).items()),
               Fraction(0))


@functools.lru_cache(maxsize=None)
def complete_homogeneous(i: int) -> PPoly:
    """h_i with exp(sum_k p_k x^k / k) = sum_i h_i x^i; h_0 = 1, h_{<0} = 0."""
    if i < 0:
        return PPoly.zero()
    if i == 0:
        return PPoly({(): 1})
    # Newton recurrence: i*h_i = sum_{k=1..i} p_k h_{i-k}
    acc = {}
    for k in range(1, i + 1):
        acc = poly_add(acc, poly_mul({(k,): 1}, terms(complete_homogeneous(i - k))))
    return ppoly(poly_mul(acc, Fraction(1, i)))


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
    entries = [[terms(complete_homogeneous(r[i] + j - i)) for j in range(l)] for i in range(l)]
    total = {}
    for perm in itertools.permutations(range(l)):
        prod = {(): 1}
        for i in range(l):
            prod = poly_mul(prod, entries[i][perm[i]])
            if not prod:
                break
        total = poly_add(total, poly_mul(prod, _perm_sign(perm)))
    return ppoly(total)


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


def dimension(r: Partition) -> int:
    """Dimension of the irreducible labelled by r, via hook lengths."""
    n = degree(r)
    t = conjugate(r)
    dim = math.factorial(n)
    for i, row in enumerate(r):
        for j in range(row):
            dim //= row - j + t[j] - i - 1
    return dim


def d_r(r: Partition) -> Fraction:
    """dim(r) / |r|!, the Plancherel weight of the irreducible r."""
    return Fraction(dimension(r), math.factorial(degree(r)))


def pde_residual(upsilon: Partition, series: HurwitzSeries) -> Fraction:
    """Largest absolute coefficient of dZ/dbeta_Y - W(Y) Z, compared on the
    beta orders where both truncations are complete (total order < order).
    W(Y) is apply_explicit, which reads no character table, so a table
    error in Z shows as a nonzero residual."""
    upsilon = as_partition(upsilon)
    if upsilon not in series.active:
        raise ValueError("%s is not an active direction" % (upsilon,))
    worst = Fraction(0)
    for indices in _multi_indices(len(series.active), series.order - 1):
        counts = dict(zip(series.active, indices))
        key = _beta_key(counts)
        # d/dbeta_Y picks the coefficient one order up, times its power
        up = {p: k for p, k in counts.items()}
        up[upsilon] = up.get(upsilon, 0) + 1
        deriv = poly_mul(series_coefficient(series, _beta_key(up)), up[upsilon])
        applied = apply_explicit(upsilon, ppoly(series_coefficient(series, key)))
        for c in poly_sub(deriv, terms(applied)).values():
            worst = max(worst, abs(c))
    return worst


def connected_series(p_bound: int, order: int) -> dict:
    """{(m, mu): m! [beta^m p_mu] log Z} for Z the generating function in
    the one direction [2], so the connected m-transposition numbers.  With
    Z_n and L_n the parts of Z and log Z of graded degree n, and Z_0 = 1,
    log Z follows from the degree recurrence
    n L_n = n Z_n - sum_{0<k<n} k L_k Z_{n-k}, truncated at beta-order order."""
    z = [{} for _ in range(p_bound + 1)]
    for (key, mu), c in terms(generating_function([(2,)], p_bound, order)).items():
        z[degree(mu)][(dict(key).get((2,), 0), mu)] = c
    logs = [{}]
    for n in range(1, p_bound + 1):
        acc = {t: n * c for t, c in z[n].items()}
        for k in range(1, n):
            for (m1, mu1), c1 in logs[k].items():
                for (m2, mu2), c2 in z[n - k].items():
                    if m1 + m2 <= order:
                        t = (m1 + m2, tuple(sorted(mu1 + mu2, reverse=True)))
                        acc[t] = acc.get(t, 0) - k * c1 * c2
        logs.append({t: c / n for t, c in acc.items() if c})
    return {(m, mu): c * math.factorial(m) for piece in logs for (m, mu), c in piece.items()}


def hurwitz_genus0(mu: Partition) -> Fraction:
    """Hurwitz's formula for the connected genus-0 number of mu, with
    n = |mu|, l = l(mu) and m = n + l - 2 transpositions (Hurwitz 1891;
    Goulden-Jackson 1997):
    m! n^(l-3) prod_i mu_i^mu_i / mu_i! / prod_k m_k(mu)!."""
    mu = as_partition(mu)
    n, length = degree(mu), len(mu)
    value = math.factorial(n + length - 2) * Fraction(n) ** (length - 3)
    for part in mu:
        value *= Fraction(part ** part, math.factorial(part))
    for k in set(mu):
        value /= math.factorial(multiplicity(mu, k))
    return value


def one_part_hurwitz(d: int, g: int) -> Fraction:
    """The genus-g number of the one-part class (d), with m = d + 2g - 1
    transpositions (Shapiro-Shapiro-Vainshtein 1997):
    m!/d! d^(d+2g-2) [t^2g] (sinh(t/2)/(t/2))^(d-1).  A d-cycle is
    transitive, so it is also the disconnected number."""
    # sinh(t/2)/(t/2) = sum_k t^2k / (4^k (2k+1)!), a series in t^2
    factor = [Fraction(1, 4 ** k * math.factorial(2 * k + 1)) for k in range(g + 1)]
    power = [Fraction(1)] + [Fraction(0)] * g
    for _ in range(d - 1):
        power = [sum(power[i] * factor[k - i] for i in range(k + 1)) for k in range(g + 1)]
    return (Fraction(math.factorial(d + 2 * g - 1), math.factorial(d))
            * Fraction(d) ** (d + 2 * g - 2) * power[g])


# ---------------------------------------------------------------------------
# Operators

def apply_explicit(delta: Partition, f: PPoly) -> PPoly:
    """W(delta) f by the partial-permutation action (Ivanov-Kerov), reading
    no character table: with pi of type mu on n = |mu| points, W(delta) p_mu
    is the sum of p_type(alpha pi) over the partial permutations alpha of
    type delta with support in range(n).  Above MAX_ORACLE_DEGREE, or above
    MAX_ORACLE_ACTIONS partial permutations, it raises BoundError before
    any work."""
    delta = as_partition(delta)
    if degree(delta) > MAX_ORACLE_DEGREE:
        raise BoundError("explicit operator beyond |delta| = %d" % MAX_ORACLE_DEGREE)
    _check_actions(sum(_actions(delta, degree(mu)) for mu in f.numerators))
    out = {}
    for mu, coef in f.numerators.items():
        pi = _permutation_of_type(mu)
        counts = collections.Counter(
            cycle_type(compose(alpha, pi)) for alpha in _partial_permutations(delta, len(pi)))
        for nu, c in counts.items():
            out[nu] = out.get(nu, 0) + coef * c
    return PPoly(out, f.denominator)


def cut_and_join(f: PPoly) -> PPoly:
    """W([2]) f as the literal cut-and-join differential operator
    (1/2) sum_{a,b} ((a+b) p_a p_b d/dp_{a+b} + a b p_{a+b} d2/dp_a dp_b),
    every index clipped at the graded degree of f: a derivative by a
    higher p_k annihilates f, and the operator preserves graded degree."""
    f = terms(f)
    d = poly_max_degree(f)
    acc = {}
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            if a + b <= d:
                acc = poly_add(acc, poly_mul({(a, b): Fraction(a + b, 2)}, poly_diff(f, a + b)))
            acc = poly_add(acc, poly_mul({(a + b,): Fraction(a * b, 2)},
                                         poly_diff(poly_diff(f, a), b)))
    return ppoly(acc)


def compose_check(d1: Partition, d2: Partition, f: PPoly):
    """Return (W(d1) W(d2) f, W(d1*d2) f), the first by the partial-permutation
    action and the second by the eigenvalues of the graded product, as
    sum_d c_d W(d) f over its terms c_d d; the two must agree exactly."""
    sequential = apply_explicit(d1, apply_explicit(d2, f))
    combined = {}
    for d, c in terms(mult_infinity(d1, d2)).items():
        combined = poly_add(combined, poly_mul(terms(apply_spectral(d, f)), c))
    return sequential, ppoly(combined)


# ---------------------------------------------------------------------------
# selftest

def _suite(name: str, agreements) -> dict:
    """One report entry; agreements yields True for each case that checks out."""
    agreements = list(agreements)
    return {"name": name, "cases": len(agreements), "failures": agreements.count(False)}


def check_orthogonality(table) -> bool:
    """True when the rows of a character table are orthogonal exactly,
    sum_mu |C_mu| chi_a(mu) chi_b(mu) = n! [a = b]; otherwise raise
    ConsistencyError naming the first pair of rows that fails."""
    sizes = [class_size(p) for p in table.order]
    n_fact = math.factorial(table.n)
    for a in table.order:
        for b in table.order:
            s = sum(sz * x * y for sz, x, y in zip(sizes, table.rows[a], table.rows[b]))
            if s != (n_fact if a == b else 0):
                raise ConsistencyError("orthogonality failure for rows %s, %s" % (a, b))
    return True


def closed_form_genus0(n_max: int) -> dict:
    """{mu: agrees} for 0 < |mu| <= n_max: whether m! [beta^m p_mu] log Z is
    0 below m = |mu| + l(mu) - 2 and Hurwitz's genus-0 formula at it."""
    logs = connected_series(n_max, 2 * n_max - 2)
    return {mu: [logs.get((m, mu), 0) for m in range(n + len(mu) - 1)]
            == [0] * (n + len(mu) - 2) + [hurwitz_genus0(mu)]
            for n in range(1, n_max + 1) for mu in partitions_of(n)}


def coefficient_oracle_above_8() -> dict:
    """{(d1, d2): agrees} for three pairs of total degree 10 and 12: whether
    mult_infinity matches oracle_coefficient at every target of degree >= 9."""
    products = {pair: mult_infinity(*pair).numerators
                for pair in [((2,), (7, 1)), ((2, 1), (5, 1, 1, 1)), ((2,), (6, 2, 1, 1))]}
    return {(d1, d2): all(p.get(d, 0) == oracle_coefficient(d1, d2, d)
                          for n in range(9, degree(d1 + d2) + 1) for d in partitions_of(n))
            for (d1, d2), p in products.items()}


def selftest_suites(level: str, seed: int):
    """Oracle-equivalence suites; returns a deterministic report object."""
    rng = random.Random(seed)
    n_max = 4 if level == "quick" else 5
    triples = [t for n in range(1, n_max + 1) for t in itertools.product(partitions_of(n), repeat=3)]
    if level == "full":
        parts6 = partitions_of(6)
        triples += [tuple(rng.choice(parts6) for _ in range(3)) for _ in range(25)]
    chains = []
    for n in range(1, min(n_max, 4) + 1):
        cube = list(itertools.product(partitions_of(n), repeat=3))
        chains += [(t, n) for t in (rng.sample(cube, 60) if len(cube) > 60 else cube)]
    if level == "full":
        chains += [(tuple(rng.choice(parts6) for _ in range(k)), 6)
                   for k in (4, 5) for _ in range(5)]
    deltas = [d for n in range(1, n_max) for d in partitions_of(n)]
    polys = [PPoly({mono: 1}) for n in range(n_max + 1) for mono in partitions_of(n)]
    suites = [
        _suite("structure_constants_vs_oracle",
               (structure_constant(*t) == oracle_coefficient(*t) for t in triples)),
        _suite("hurwitz_chain_vs_tuple_oracle",
               (Fraction(*hurwitz_chain(t)) == oracle_tuple_count(t, n) for t, n in chains)),
        _suite("explicit_vs_spectral_operators",
               (apply_explicit(delta, f) == apply_spectral(delta, f)
                for delta in deltas for f in polys)),
        _suite("character_table_orthogonality",
               (check_orthogonality(char_table(n)) for n in range(1, n_max + 1))),
        _suite("class_sizes_sum_to_factorial",
               (sum(map(class_size, partitions_of(n))) == math.factorial(n)
                for n in range(1, n_max + 3))),
    ]
    if level == "full":
        suites += [_suite("closed_form_genus0", closed_form_genus0(10).values()),
                   _suite("coefficient_oracle_above_8", coefficient_oracle_above_8().values())]
    ok = all(s["failures"] == 0 for s in suites)
    return {"level": level, "seed": seed, "suites": suites, "ok": ok}


def cmd_selftest(args, check_degrees):
    """The selftest command: the report, and a ConsistencyError to raise
    after it when a suite failed."""
    report = selftest_suites(args.level, args.seed)
    lines = ["%s: %d cases, %d failures" % (s["name"], s["cases"], s["failures"])
             for s in report["suites"]]
    lines.append("selftest %s: %s" % (report["level"], "PASS" if report["ok"] else "FAIL"))
    if report["ok"]:
        return "\n".join(lines), report
    return "\n".join(lines), report, ConsistencyError("selftest failures: see report")
