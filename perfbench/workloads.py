"""Seeded op mixes for the three workloads.

A workload turns a seed into one round: a fixed list of CLI calls that a
run repeats whole.  Each workload has a fixed list of slots; the seed only
picks the diagrams and polynomials that fill them.  The cost of an op is
set mostly by its slot (degrees, number of classes), so rounds made from
different seeds cost nearly the same, and a change in the program, not
the seed, is what moves a run's figures.

An Op carries its argv (after `--json`), the structured inputs its
checker needs, and the degrees of the character tables it reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import checks


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    data: tuple
    tables: frozenset


def fmt_partition(p) -> str:
    return "[%s]" % ",".join(map(str, p))


def fmt_sum(terms) -> str:
    return " + ".join("%s*%s" % (c, fmt_partition(p)) for p, c in terms)


def fmt_poly(terms) -> str:
    chunks = []
    for mono, c in terms:
        factors = ["p%d" % k if mono.count(k) == 1 else "p%d^%d" % (k, mono.count(k))
                   for k in sorted(set(mono), reverse=True)]
        chunks.append("*".join([str(c)] + factors))
    return " + ".join(chunks)


def _pick(rng, n, exclude=()):
    return rng.choice([p for p in checks.partitions(n) if p not in exclude])


def mult_op(left, right) -> Op:
    """left, right: lists of (partition, Fraction)."""
    tables = set()
    for p, _ in left:
        for q, _ in right:
            tables.update(range(max(sum(p), sum(q)), sum(p) + sum(q) + 1))
    return Op("mult", ("mult", fmt_sum(left), fmt_sum(right)),
              (tuple(left), tuple(right)), frozenset(tables))


def wapply_op(delta, poly) -> Op:
    return Op("wapply", ("wapply", fmt_partition(delta), fmt_poly(poly)),
              (delta, tuple(poly)), frozenset(sum(m) for m, _ in poly))


def schur_op(shape) -> Op:
    return Op("schur", ("schur", fmt_partition(shape)), (shape,), frozenset())


def hurwitz_op(classes) -> Op:
    n = sum(classes[0])
    return Op("hurwitz", ("hurwitz", "--n", str(n)) + tuple(map(fmt_partition, classes)),
              (tuple(classes),), frozenset([n]))


def evolve_op(directions, p_bound, order) -> Op:
    return Op("evolve",
              ("evolve", "--p-bound", str(p_bound), "--order", str(order))
              + tuple(map(fmt_partition, directions)),
              (tuple(directions), p_bound, order), frozenset())


# ---------------------------------------------------------------------------
# products: class_algebra and characters.  A product of diagrams of
# degrees (a, b) loads one degree-n table per structure constant, for
# every n from max(a, b) to a + b, so its cost is set mostly by (a, b).

# Five (7, 4) slots of similar cost sit in the middle of the round's cost
# order, so the median op time does not jump between cost classes.
PRODUCT_SLOTS = [(4, 4), (5, 3), (6, 3), (7, 3), (6, 4), (5, 5)] + [(7, 4)] * 5 + [
    (6, 5), (6, 5), (8, 4), (7, 5), (7, 5), (6, 6), (6, 6)]
# diagram sums: degrees of the left terms, degree of the right diagram
PRODUCT_SUM_SLOTS = [((2, 5), 4), ((3, 4), 5), ((4, 5), 6)]
SMOKE_PRODUCT_SLOTS = [(2, 2), (3, 2)]
SMOKE_PRODUCT_SUM_SLOTS = [((1, 2), 2)]


def products(rng, smoke=False):
    ops = []
    for a, b in SMOKE_PRODUCT_SLOTS if smoke else PRODUCT_SLOTS:
        ops.append(mult_op([(_pick(rng, a), Fraction(1))], [(_pick(rng, b), Fraction(1))]))
    for degrees, b in SMOKE_PRODUCT_SUM_SLOTS if smoke else PRODUCT_SUM_SLOTS:
        left = [(_pick(rng, a), Fraction(rng.randint(1, 3), rng.randint(1, 2))) for a in degrees]
        ops.append(mult_op(left, [(_pick(rng, b), Fraction(1))]))
    return ops


# ---------------------------------------------------------------------------
# operators: psym and w_ops.  Jacobi-Trudi schur of a shape with l rows
# sums l! products, so long columns dominate: every degree-6 wapply meets
# [1^6] (0.5 s).  A degree-7 wapply meets [1^7], which alone takes 6.4 s,
# so wapply stays at degree 6 and schur at length 5.

OPERATOR_DELTAS = [(2,), (3,), (2, 1), (4,), (3, 1), (2, 2)]
# degrees of the monomials of each wapply polynomial
OPERATOR_POLYS = [(6,)] * 5 + [(6, 6)] * 3 + [(6, 4), (6, 3, 2)]
# (degree, number of rows) of each schur
OPERATOR_SCHURS = [(7, 5), (7, 5), (6, 5), (6, 4)]
SMOKE_OPERATOR_POLYS = [(3, 2)]
SMOKE_OPERATOR_SCHURS = [(3, 2)]


def operators(rng, smoke=False):
    ops = []
    for degrees in SMOKE_OPERATOR_POLYS if smoke else OPERATOR_POLYS:
        poly = {}
        for n in degrees:
            mono = _pick(rng, n)
            poly[mono] = poly.get(mono, 0) + Fraction(rng.randint(1, 3), rng.randint(1, 2))
        ops.append(wapply_op(rng.choice(OPERATOR_DELTAS), sorted(poly.items(), reverse=True)))
    for n, rows in SMOKE_OPERATOR_SCHURS if smoke else OPERATOR_SCHURS:
        ops.append(schur_op(rng.choice([p for p in checks.partitions(n) if len(p) == rows])))
    return ops


# ---------------------------------------------------------------------------
# hurwitz: the chain recursion over intermediate classes (p(n)^(k-3)
# branches, each a 3-point bracket with its table loads) and the beta
# expansion of the generating function.

# (n, number of classes) of each bracket; as in products, five (8, 6)
# brackets sit in the middle of the round's cost order.
HURWITZ_SLOTS = [(9, 4), (7, 6), (7, 6)] + [(8, 6)] * 5 + [(9, 5)] * 5 + [(9, 6)] * 2
# (number of directions, p-bound, order) of each evolve
EVOLVE_SLOTS = [(1, 5, 4), (2, 5, 3), (3, 5, 2), (2, 4, 4)]
EVOLVE_DIRECTIONS = [(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (4,)]
SMOKE_HURWITZ_SLOTS = [(3, 4)]
SMOKE_EVOLVE_SLOTS = [(2, 3, 2)]


def hurwitz(rng, smoke=False):
    ops = []
    for n, k in SMOKE_HURWITZ_SLOTS if smoke else HURWITZ_SLOTS:
        identity = (1,) * n
        ops.append(hurwitz_op([_pick(rng, n, exclude=[identity]) for _ in range(k)]))
    for count, p_bound, order in SMOKE_EVOLVE_SLOTS if smoke else EVOLVE_SLOTS:
        directions = sorted(rng.sample(EVOLVE_DIRECTIONS, count), reverse=True)
        ops.append(evolve_op(directions, p_bound, order))
    return ops


WORKLOADS = {"products": products, "operators": operators, "hurwitz": hurwitz}


def make_round(workload: str, seed: int, smoke=False):
    """The seed's round of ops, in a seeded order."""
    rng = random.Random("%s-%d" % (workload, seed))
    ops = WORKLOADS[workload](rng, smoke)
    rng.shuffle(ops)
    return ops
