"""Independent checks of diagram-ops outputs.

Nothing here imports diagram_ops.  Characters come from the small
Murnaghan-Nakayama routine `chi` below (the "own MN"), and every checker
compares a CLI output against an identity that it evaluates with them:

* mult:      phi_R(d1 * d2) = phi_R(d1) * phi_R(d2) for every R of every
             degree the product can reach, with the closed forms at [n]
             and [1^n]; a product of two diagrams has non-negative
             integer coefficients.
* wapply:    W(delta) p_mu = sum_nu [sum_R chi_R(mu) phi_R(delta) chi_R(nu) / z_nu] p_nu.
* schur:     the Frobenius formula s_R = sum_nu chi_R(nu) p_nu / z_nu.
* hurwitz:   <C_1 ... C_k> = (n!)^-2 prod |C_i| sum_R dim_R^(2-k) prod chi_R(C_i).
* evolve:    the beta-degree-0 term is e^{p_1} truncated, and for every
             beta multi-index and degree n the brackets summed over the
             final class equal prod_Y (C(r_Y+k_Y, k_Y) |C_pad(Y)|)^m_Y / n!.
* chartable: row orthogonality over exactly the partitions of n.

Each checker returns None for a correct output and a one-line reason
otherwise.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# Partitions and the own MN

@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """All partitions of n as weakly decreasing tuples."""
    out = []

    def grow(rest, cap, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, cap), 0, -1):
            grow(rest - part, part, prefix + [part])

    grow(n, n, [])
    return tuple(out)


def z(mu) -> int:
    """Centralizer order prod_k k^m_k m_k! of the cycle type mu."""
    out = 1
    for k in set(mu):
        m = mu.count(k)
        out *= k ** m * math.factorial(m)
    return out


def class_size(mu) -> int:
    return math.factorial(sum(mu)) // z(mu)


def pad(delta, n: int) -> tuple:
    """delta with unit rows appended up to degree n."""
    return tuple(delta) + (1,) * (n - sum(delta))


@functools.lru_cache(maxsize=None)
def chi(shape: tuple, mu: tuple) -> int:
    """Irreducible character chi_shape on cycle type mu (any part order).

    Removes a rim hook of length mu[0]: on the first-column hook lengths
    ("beads") this moves one bead b down to the free position b - t, with
    sign (-1)^(beads jumped over).
    """
    if not mu:
        return 1 if not shape else 0
    t, rest = mu[0], mu[1:]
    length = len(shape)
    beads = [part + length - 1 - i for i, part in enumerate(shape)]
    taken = set(beads)
    total = 0
    for b in beads:
        c = b - t
        if c < 0 or c in taken:
            continue
        jumped = sum(1 for x in beads if c < x < b)
        moved = sorted(taken - {b} | {c}, reverse=True)
        smaller = tuple(p for p in (x - (length - 1 - i) for i, x in enumerate(moved)) if p)
        total += (-1) ** jumped * chi(smaller, rest)
    return total


def dim(shape) -> int:
    return chi(tuple(shape), (1,) * sum(shape))


def phi(shape, delta) -> Fraction:
    """Eigenvalue of the operator of delta on s_shape:
    n! chi_shape(delta padded to n) / (z_delta dim_shape (n - |delta|)!)."""
    n, d = sum(shape), sum(delta)
    if d > n:
        return Fraction(0)
    if len(shape) <= 1 or shape[0] == 1:
        # closed forms at [n] and [1^n], where chi is 1 or the sign
        sign = (-1) ** (d - len(delta)) if len(shape) > 1 else 1
        return Fraction(sign * math.factorial(n), z(delta) * math.factorial(n - d))
    return Fraction(math.factorial(n) * chi(tuple(shape), pad(delta, n)),
                    z(delta) * dim(shape) * math.factorial(n - d))


# ---------------------------------------------------------------------------
# Reading CLI output

def _diagram_sum(result) -> dict:
    out = {}
    for term in result:
        key = tuple(term["partition"])
        if key in out:
            raise ValueError("repeated diagram %s" % (key,))
        out[key] = Fraction(term["coef"])
    return out


def _poly(obj) -> dict:
    out = {}
    for term in obj["terms"]:
        key = tuple(sorted(term["mono"], reverse=True))
        if key in out:
            raise ValueError("repeated monomial %s" % (key,))
        out[key] = Fraction(term["coef"])
    return out


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v}


# ---------------------------------------------------------------------------
# Checkers; inputs are the structured op data the workloads generate

def check_mult(left, right, out: dict):
    """left, right: (partition, Fraction) pairs; out: the CLI's JSON object."""
    left, right = dict(left), dict(right)
    product = _diagram_sum(out["result"])
    lo = min(max(sum(p), sum(q)) for p in left for q in right)
    hi = max(sum(p) + sum(q) for p in left for q in right)
    stray = [d for d, c in product.items() if not c or not lo <= sum(d) <= hi]
    if stray:
        return "term %s is zero or outside degrees %d..%d" % (stray[0], lo, hi)
    singles = len(left) == len(right) == 1 and set(left.values()) == set(right.values()) == {1}
    if singles and any(c.denominator != 1 or c < 0 for c in product.values()):
        return "product of two diagrams has a coefficient that is not a non-negative integer"

    def value(shape, s):
        return sum((c * phi(shape, d) for d, c in s.items()), Fraction(0))

    for n in range(lo, hi + 1):
        for shape in partitions(n):
            if value(shape, product) != value(shape, left) * value(shape, right):
                return "phi_%s is not multiplicative" % (shape,)
    return None


def check_wapply(delta, poly, out: dict):
    """poly: (monomial partition, Fraction) pairs."""
    expected = {}
    for mu, coef in poly:
        n = sum(mu)
        for shape in partitions(n):
            weight = coef * chi(shape, mu) * phi(shape, delta)
            if not weight:
                continue
            for nu in partitions(n):
                expected[nu] = expected.get(nu, Fraction(0)) + weight * Fraction(chi(shape, nu), z(nu))
    if _poly(out) != _nonzero(expected):
        return "W(%s) applied to the polynomial differs from the spectral sum" % (delta,)
    return None


def check_schur(shape, out: dict):
    expected = {nu: Fraction(chi(shape, nu), z(nu)) for nu in partitions(sum(shape))}
    if _poly(out) != _nonzero(expected):
        return "s_%s differs from the Frobenius formula" % (shape,)
    return None


def check_hurwitz(classes, out: dict):
    if [tuple(b) for b in out["branches"]] != list(classes):
        return "branches do not echo the input classes"
    n, k = sum(classes[0]), len(classes)
    total = Fraction(0)
    for shape in partitions(n):
        term = Fraction(dim(shape)) ** (2 - k)
        for c in classes:
            term *= chi(shape, c)
        total += term
    for c in classes:
        total *= class_size(c)
    if Fraction(out["value"]) != total / math.factorial(n) ** 2:
        return "bracket differs from the Frobenius formula"
    return None


def _partition(text: str) -> tuple:
    """'[3,1]' -> (3, 1), as the CLI formats partitions."""
    body = text.strip()[1:-1]
    return tuple(int(x) for x in body.split(",")) if body else ()


def _multi_indices(directions, order):
    if not directions:
        yield ()
        return
    for m in range(order + 1):
        for rest in _multi_indices(directions[1:], order - m):
            yield ((directions[0], m),) + rest


def check_evolve(directions, p_bound: int, order: int, out: dict):
    directions = sorted(set(directions))
    terms = {}
    for term in out["terms"]:
        beta = tuple(sorted((_partition(y), m) for y, m in term["beta"].items() if m))
        mono = tuple(term["mono"])
        if any(y not in directions for y, _ in beta) or sum(m for _, m in beta) > order:
            return "beta index %s outside the requested expansion" % (beta,)
        if sum(mono) > p_bound:
            return "monomial %s above the p-bound" % (mono,)
        terms[(beta, mono)] = terms.get((beta, mono), Fraction(0)) + Fraction(term["coef"])
    base = {mono: c for (beta, mono), c in terms.items() if not beta and c}
    if base != {(1,) * k: Fraction(1, math.factorial(k)) for k in range(p_bound + 1)}:
        return "beta-degree-0 term is not the truncation of e^{p_1}"
    sums = {}
    for (beta, mono), c in terms.items():
        sums[(beta, sum(mono))] = sums.get((beta, sum(mono)), Fraction(0)) + c
    for index in _multi_indices(directions, order):
        beta = tuple((y, m) for y, m in index if m)
        fact = math.prod(math.factorial(m) for _, m in beta)
        for n in range(p_bound + 1):
            expected = Fraction(1, math.factorial(n))
            for y, m in beta:
                k = n - sum(y)
                if k < 0:
                    expected = Fraction(0)
                    break
                expected *= (math.comb(y.count(1) + k, k) * class_size(pad(y, n))) ** m
            if sums.get((beta, n), Fraction(0)) * fact != expected:
                return "brackets at %s, degree %d do not sum to the tuple count" % (beta, n)
    return None


def check_chartable(n: int, out: dict):
    labels = partitions(n)
    order = [tuple(p) for p in out["order"]]
    rows = {_partition(text): [int(x) for x in row] for text, row in out["rows"].items()}
    if sorted(order) != sorted(labels) or sorted(rows) != sorted(labels):
        return "table of S_%d is not labelled by the partitions of %d" % (n, n)
    sizes = [class_size(mu) for mu in order]
    for a in labels:
        for b in labels:
            s = sum(w * x * y for w, x, y in zip(sizes, rows[a], rows[b]))
            if s != (math.factorial(n) if a == b else 0):
                return "rows %s and %s are not orthogonal" % (a, b)
    return None
