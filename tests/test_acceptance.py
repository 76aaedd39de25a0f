"""Acceptance suite: one test per criterion, printing a PASS line each.

All checks are exact (Fraction/int equality); run with `pytest -s` to see
the per-criterion report lines.
"""

import itertools
import json
import math
import random

from fractions import Fraction

from diagram_ops.class_algebra import (
    DiagramSum,
    mult_infinity,
    structure_constant,
)
from diagram_ops.cli import main
from diagram_ops.characters import phi
from diagram_ops.hurwitz import (
    generating_function,
    hurwitz_chain,
)
from diagram_ops.oracles import (
    apply_explicit,
    bialternant_eval,
    eval_at_power_sums,
    graded_piece,
    mult_same_degree,
    oracle_coefficient,
    oracle_tuple_count,
    pde_residual,
    poly_mul,
    ppoly,
    series_coefficient,
    simple_hurwitz,
    terms,
)
from diagram_ops.partitions import partitions_of
from diagram_ops.psym import apply_spectral, schur

SEED = 20101146


def exp_p1(n):
    """e^{p_1} truncated to graded degree n."""
    return ppoly({(1,) * k: Fraction(1, math.factorial(k)) for k in range(n + 1)})


def report(number, ok, label):
    print("ACCEPTANCE %2d: %s - %s" % (number, "PASS" if ok else "FAIL", label))
    assert ok, "acceptance criterion %d failed: %s" % (number, label)


def test_criterion_1_example_1():
    ok = (
        graded_piece((1,), (2,), 2) == DiagramSum({(2,): 2})
        and graded_piece((1,), (2,), 3) == DiagramSum({(2, 1): 1})
        and mult_infinity((1,), (2,)) == DiagramSum([((2,), 2), ((2, 1), 1)])
    )
    report(1, ok, "product [1]*[2] with graded pieces")


def test_criterion_2_example_2():
    product = mult_infinity((2,), (2,))
    inner3 = mult_same_degree((2, 1), (2, 1))
    inner4 = mult_same_degree((2, 1, 1), (2, 1, 1))
    ok = (
        product == DiagramSum([((1, 1), 1), ((3,), 3), ((2, 2), 2)])
        and inner3 == DiagramSum([((1, 1, 1), 3), ((3,), 3)])
        and terms(inner4) == {(3, 1): 3, (1, 1, 1, 1): 6, (2, 2): 2}
    )
    report(2, ok, "product [2]*[2] with intermediates")


def test_criterion_3_frobenius_vs_enumeration():
    rng = random.Random(SEED)
    triples = [t for n in range(1, 6) for t in itertools.product(partitions_of(n), repeat=3)]
    triples += [tuple(rng.choice(partitions_of(6)) for _ in range(3)) for _ in range(50)]
    ok = all(structure_constant(*t) == oracle_coefficient(*t) for t in triples)
    report(3, ok, "structure constants vs S_n enumeration (n<=5 full, n=6 sampled)")


def test_criterion_4_eigenfunctions():
    ok = True
    for nr in range(7):
        for r in partitions_of(nr):
            sr = schur(r)
            for nd in range(1, 5):
                for delta in partitions_of(nd):
                    eigen = ppoly(poly_mul(terms(sr), phi(r, delta)))
                    if apply_spectral(delta, sr) != eigen:
                        ok = False
                    if apply_explicit(delta, sr) != eigen:
                        ok = False
    report(4, ok, "Schur functions are eigenfunctions (spectral and explicit)")


def test_criterion_5_homomorphism():
    ok = True
    diagrams = [p for n in range(1, 5) for p in partitions_of(n)]
    for nr in range(7):
        for r in partitions_of(nr):
            for d1 in diagrams:
                for d2 in diagrams:
                    product = mult_infinity(d1, d2)
                    total = sum(
                        (c * phi(r, d) for d, c in terms(product).items()), Fraction(0)
                    )
                    if total != phi(r, d1) * phi(r, d2):
                        ok = False
    report(5, ok, "eigenvalue multiplicativity over the graded product")


def test_criterion_6_schur_consistency():
    rng = random.Random(SEED)
    ok = True
    for nr in range(6):
        for r in partitions_of(nr):
            for _ in range(20):
                size = max(len(r), 1) + rng.randint(0, 2)
                pts = []
                while len(pts) < size:
                    x = Fraction(rng.randint(-25, 25), rng.randint(1, 8))
                    if x not in pts:
                        pts.append(x)
                if eval_at_power_sums(schur(r), pts) != bialternant_eval(r, pts):
                    ok = False
                if 0 not in pts and bialternant_eval(r, pts + [0]) != bialternant_eval(r, pts):
                    ok = False
    report(6, ok, "Frobenius Schur functions vs bialternant with stability")


def test_criterion_7_hurwitz_oracle():
    rng = random.Random(SEED)
    ok = (
        Fraction(*hurwitz_chain([(2,), (2,), (1, 1)])) == Fraction(1, 2)
        and Fraction(*hurwitz_chain([(2,)] * 4)) == Fraction(1, 2)
    )
    for n in range(1, 6):
        parts = partitions_of(n)
        for k in range(1, 5):
            tuples = list(itertools.product(parts, repeat=k))
            if len(tuples) > 200:
                tuples = rng.sample(tuples, 200)
            for tup in tuples:
                value = Fraction(*hurwitz_chain(tup))
                if value < 0 or value != oracle_tuple_count(tup, n):
                    ok = False
    report(7, ok, "chain brackets vs permutation-tuple counts (k<=4, n<=5)")


def test_criterion_8_evolution_equation():
    directions = [p for n in range(1, 5) for p in partitions_of(n)]
    series = generating_function(directions, p_bound=5, order=3)
    ok = ppoly(series_coefficient(series, ())) == exp_p1(5)
    for upsilon in directions:
        if pde_residual(upsilon, series) != 0:
            ok = False
    report(8, ok, "dZ/dbeta = W(Y) Z for all |Y| <= 4 at p-bound 5, order 3")


def test_criterion_9_cut_and_join_table():
    ok = True
    for n in range(1, 5):
        marked = [(2,) + (1,) * (n - 2)] if n >= 2 else None
        for m in range(5):
            row = simple_hurwitz(n, m)
            for delta, value in row.items():
                if n >= 2:
                    expected = oracle_tuple_count(marked * m + [delta], n)
                else:
                    expected = oracle_tuple_count([delta], n) if m == 0 else 0
                if value != expected:
                    ok = False
    report(9, ok, "m-transposition Hurwitz table vs tuple oracle (n<=4, m<=4)")


def test_criterion_10_deterministic_selftest(capsys):
    code1 = main(["--json", "selftest", "--level", "full"])
    out1 = capsys.readouterr().out
    code2 = main(["--json", "selftest", "--level", "full"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    ok = ok and json.loads(out1)["ok"] is True
    report(10, ok, "selftest full is green and byte-identical across runs")
