"""Slow, independent routes to what the package reads from the character
table.  Only the tests, `selftest` and `wapply --explicit` import this
module; nothing on the production path does.

Permutations of S_n, enumerated literally up to MAX_ORACLE_DEGREE:

* oracle_structure_constant: count the pairs (g1, g2) of types (d1, d2)
  with g1 g2 = g for one fixed g of type d.
* oracle_tuple_count: (1/n!) times the number of tuples of permutations
  of the given types whose product is the identity, carrying the number
  of ways to reach each partial product.
* oracle_mult_infinity: the graded product as a product of sums of
  partial permutations (Ivanov-Kerov) with supports in range(|d1|+|d2|).

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
  reads; d_r_product: the same weight by a product formula.
* series_by_schur: the generating function's coefficients summed term by
  term in Fractions, d_R prod_Y phi_R(Y)^k_Y / k_Y! times schur(R).

Operators:

* apply_explicit: W(delta) for every diagram with |delta| <=
  MAX_ORACLE_DEGREE, as the action of the partial permutations of type
  delta on one permutation of type mu for each monomial p_mu.
* cut_and_join: W([2]) as the literal differential operator in the p_k.
* compose_check: both sides of W(d1) W(d2) = W(d1 d2), the left by
  apply_explicit, the right by apply_spectral on the graded product.
* pde_residual: how far the generating function is from solving
  dZ/dbeta_Y = W(Y) Z, with W(Y) by apply_explicit.

selftest_suites runs the oracle-equivalence suites of `selftest`.
"""

from __future__ import annotations

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
    class_size,
    conjugate,
    degree,
    partitions_of,
)
from .characters import char_table, phi
from .class_algebra import DiagramSum, mult_infinity, structure_constant
from .hurwitz import HurwitzSeries, _beta_key, _multi_indices, hurwitz_chain
from .psym import PPoly, apply_spectral, schur

#: Largest n for which brute-force S_n enumeration is allowed.
MAX_ORACLE_DEGREE = 6

#: Most partial permutations, class_size(delta) times the sum of
#: C(|mu|, |delta|) over the monomials p_mu of f, that apply_explicit
#: enumerates.  Each costs about 6 us at |mu| = 12 (2-core VM, Python
#: 3.11), so an op stays under about 1.5 s; the diagrams with |delta| <= 3
#: on all 272 monomials of degree <= 12 need at most 107,430.
MAX_ORACLE_ACTIONS = 200_000


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


def invert(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


@functools.lru_cache(maxsize=32)
def permutations_of_type(delta: Partition):
    """All permutations of S_n with cycle type delta, n = degree(delta)."""
    n = degree(delta)
    if n > MAX_ORACLE_DEGREE:
        raise BoundError("oracle enumeration beyond S_%d" % MAX_ORACLE_DEGREE)
    return tuple(
        p for p in itertools.permutations(range(n)) if cycle_type(p) == delta
    )


def oracle_structure_constant(d1: Partition, d2: Partition, d: Partition) -> int:
    """Literal count: fix one permutation g of type d, count pairs (g1, g2)
    of types (d1, d2) with g1 g2 = g."""
    d1, d2, d = as_partition(d1), as_partition(d2), as_partition(d)
    n = degree(d1)
    if degree(d2) != n or degree(d) != n:
        raise ValueError("oracle requires equal degrees")
    g = permutations_of_type(d)[0]
    count = 0
    for g1 in permutations_of_type(d1):
        g2 = compose(invert(g1), g)
        if cycle_type(g2) == d2:
            count += 1
    return count


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
    range(n), as (support, images of 0..n-1), fixing each point off the
    support."""
    for support in itertools.combinations(range(n), degree(delta)):
        for perm in permutations_of_type(delta):
            images = list(range(n))
            for i, j in zip(support, perm):
                images[i] = support[j]
            yield frozenset(support), tuple(images)


def _permutation_of_type(mu: Partition):
    """One permutation of cycle type mu, its cycles on consecutive points."""
    images = []
    for part in mu:
        start = len(images)
        images += range(start + 1, start + part)
        images.append(start)
    return tuple(images)


def oracle_mult_infinity(d1: Partition, d2: Partition) -> DiagramSum:
    """d1 * d2 as a product of class sums of partial permutations: the sum
    over all (support, sigma) of type d1 times the one for d2, where
    (s1, g1)(s2, g2) = (s1 | s2, g1 g2).  Every support of the product lies
    in range(|d1|+|d2|), so counting there and dividing by the number of
    partial permutations of each type, C(n, |d|) |C_d|, gives the
    coefficients."""
    d1, d2 = as_partition(d1), as_partition(d2)
    n = degree(d1) + degree(d2)
    if n > MAX_ORACLE_DEGREE:
        raise BoundError("partial-permutation oracle beyond S_%d" % MAX_ORACLE_DEGREE)
    right = list(_partial_permutations(d2, n))
    counts = {}
    for s1, g1 in _partial_permutations(d1, n):
        for s2, g2 in right:
            # each point off the support is a trailing 1-cycle of the type
            cycles = cycle_type(compose(g1, g2))
            d = cycles[:len(cycles) - (n - len(s1 | s2))]
            counts[d] = counts.get(d, 0) + 1
    return DiagramSum({
        d: Fraction(c, math.comb(n, degree(d)) * class_size(d)) for d, c in counts.items()
    })


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
    power_sums = {}

    def psum(k):
        if k not in power_sums:
            power_sums[k] = sum((x ** k for x in xs), Fraction(0))
        return power_sums[k]

    total = Fraction(0)
    for mono, coef in f.terms.items():
        val = coef
        for k in mono:
            val *= psum(k)
        total += val
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
        deriv = series.ppoly_at(_beta_key(up)) * up[upsilon]
        applied = apply_explicit(upsilon, series.ppoly_at(key))
        diff = deriv - applied
        for c in diff.terms.values():
            worst = max(worst, abs(c))
    return worst


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
    k = degree(delta)
    if k > MAX_ORACLE_DEGREE:
        raise BoundError("explicit operator beyond |delta| = %d" % MAX_ORACLE_DEGREE)
    actions = class_size(delta) * sum(math.comb(degree(mu), k) for mu in f.terms)
    if actions > MAX_ORACLE_ACTIONS:
        raise BoundError("%d partial permutations exceed bound %d" % (actions, MAX_ORACLE_ACTIONS))
    out = {}
    for mu, coef in f.terms.items():
        pi = _permutation_of_type(mu)
        counts = collections.Counter(
            cycle_type(compose(alpha, pi)) for _, alpha in _partial_permutations(delta, len(pi)))
        for nu, c in counts.items():
            out[nu] = out.get(nu, 0) + coef * c
    return PPoly(out)


def cut_and_join(f: PPoly) -> PPoly:
    """W([2]) f as the literal cut-and-join differential operator
    (1/2) sum_{a,b} ((a+b) p_a p_b d/dp_{a+b} + a b p_{a+b} d2/dp_a dp_b),
    every index clipped at the graded degree of f: a derivative by a
    higher p_k annihilates f, and the operator preserves graded degree."""
    d = f.max_degree()
    acc = PPoly.zero()
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            if a + b <= d:
                acc = acc + PPoly({(a, b): Fraction(a + b, 2)}) * f.diff(a + b)
            acc = acc + PPoly({(a + b,): Fraction(a * b, 2)}) * f.diff(a).diff(b)
    return acc


def compose_check(d1: Partition, d2: Partition, f: PPoly):
    """Return (W(d1) W(d2) f, W(d1*d2) f), the first by the partial-permutation
    action and the second by the eigenvalues of the graded product; the two
    must agree exactly."""
    sequential = apply_explicit(d1, apply_explicit(d2, f))
    combined = apply_spectral(mult_infinity(as_partition(d1), as_partition(d2)), f)
    return sequential, combined


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
               (structure_constant(*t) == oracle_structure_constant(*t) for t in triples)),
        _suite("hurwitz_chain_vs_tuple_oracle",
               (hurwitz_chain(t) == oracle_tuple_count(t, n) for t, n in chains)),
        _suite("explicit_vs_spectral_operators",
               (apply_explicit(delta, f) == apply_spectral(delta, f)
                for delta in deltas for f in polys)),
        _suite("character_table_orthogonality",
               (check_orthogonality(char_table(n)) for n in range(1, n_max + 1))),
        _suite("class_sizes_sum_to_factorial",
               (sum(map(class_size, partitions_of(n))) == math.factorial(n)
                for n in range(1, n_max + 3))),
    ]
    ok = all(s["failures"] == 0 for s in suites)
    return {"level": level, "seed": seed, "suites": suites, "ok": ok}
