import itertools
import math
import random

import pytest
from fractions import Fraction

from diagram_ops import hurwitz
from diagram_ops.errors import BoundError
from diagram_ops.hurwitz import (
    MAX_SERIES_ORDER,
    MAX_SERIES_PAIRS,
    _multi_indices,
    generating_function,
    hurwitz_chain,
    hurwitz_padded,
    simple_hurwitz,
)
from diagram_ops.partitions import aut_order, multiplicity, pad, partitions_of
from diagram_ops.psym import exp_p1
from diagram_ops.oracles import oracle_tuple_count, pde_residual, series_by_schur


def chain_split(deltas, r):
    """Associativity-relation contraction split after position r."""
    n = sum(deltas[0])
    total = Fraction(0)
    for y in partitions_of(n):
        left = hurwitz_chain(list(deltas[:r]) + [y])
        if left:
            total += left * aut_order(y) * hurwitz_chain([y] + list(deltas[r:]))
    return total


def test_hurwitz3_examples():
    assert hurwitz_chain([(2,), (2,), (1, 1)]) == Fraction(1, 2)
    assert hurwitz_chain([(2, 1), (2, 1), (3,)]) == 1
    for n in range(1, 5):
        identity = (1,) * n
        assert hurwitz_chain([identity, identity, identity]) == Fraction(1, math.factorial(n))


def test_chain_base_cases():
    assert hurwitz_chain([(1, 1)]) == Fraction(1, 2)
    assert hurwitz_chain([(2,)]) == 0
    assert hurwitz_chain([(2, 1), (2, 1)]) == Fraction(1, 2)
    assert hurwitz_chain([(3,), (2, 1)]) == 0
    assert hurwitz_chain([(2,), (1, 1), (2,)]) == Fraction(1, 2)


def test_chain_four_transpositions():
    assert hurwitz_chain([(2,)] * 4) == Fraction(1, 2)


def test_chain_degree_mismatch():
    with pytest.raises(ValueError):
        hurwitz_chain([(2,), (2, 1)])


def test_oracle_examples():
    assert oracle_tuple_count([(2,), (2,)], 2) == Fraction(1, 2)
    assert oracle_tuple_count([(2,)], 2) == 0
    v = oracle_tuple_count([(3,), (3,), (3,)], 3)
    assert v == hurwitz_chain([(3,), (3,), (3,)])


def test_oracle_bound():
    with pytest.raises(BoundError):
        oracle_tuple_count([(7,)], 7)


def test_chain_vs_oracle_small():
    rng = random.Random(23)
    for n in range(1, 5):
        parts = partitions_of(n)
        for k in (1, 2, 3):
            import itertools

            for tup in itertools.product(parts, repeat=k):
                assert hurwitz_chain(tup) == oracle_tuple_count(tup, n), tup
        quads = [tuple(rng.choice(parts) for _ in range(4)) for _ in range(20)]
        for tup in quads:
            assert hurwitz_chain(tup) == oracle_tuple_count(tup, n), tup


def test_chain_vs_oracle_five_and_six_classes_at_n6():
    rng = random.Random(37)
    parts = partitions_of(6)
    for k in (5, 6):
        for _ in range(5):
            tup = tuple(rng.choice(parts) for _ in range(k))
            assert hurwitz_chain(tup) == oracle_tuple_count(tup, 6), tup


def test_split_independence():
    rng = random.Random(29)
    for n in range(1, 5):
        parts = partitions_of(n)
        for _ in range(10):
            tup = tuple(rng.choice(parts) for _ in range(4))
            reference = hurwitz_chain(tup)
            for r in (1, 2, 3):
                assert chain_split(tup, r) == reference, (tup, r)


def test_nonnegativity():
    rng = random.Random(31)
    for n in range(1, 5):
        parts = partitions_of(n)
        for _ in range(25):
            tup = tuple(rng.choice(parts) for _ in range(rng.randint(1, 4)))
            assert hurwitz_chain(tup) >= 0


def test_hurwitz_padded_examples():
    assert hurwitz_padded((((2,), 1),), (2, 1)) == Fraction(1, 2)
    assert hurwitz_padded((((3,), 1),), (2,)) == 0
    assert hurwitz_padded((((2,), 2),), (1, 1)) == Fraction(1, 2)


def test_hurwitz_padded_rejects_multiplicity_below_one():
    with pytest.raises(ValueError, match="multiplicities"):
        hurwitz_padded((((2,), 0),), (2, 1))


def test_hurwitz_padded_vs_tuple_oracle():
    # a branch (Y, m) is m copies of Y padded to degree n, each weighted by
    # the unit-row binomial C(r + k, k), r = the unit rows of Y, k = n - |Y|
    rng = random.Random(41)
    for n in range(1, 6):
        marks = [(y, m) for d in range(n + 1) for y in partitions_of(d) for m in (1, 2)]
        cases = [(b,) for b in marks] + [tuple(rng.sample(marks, 2)) for _ in range(12)]
        for branches in cases:
            chain, weight = [], 1
            for y, m in branches:
                k = n - sum(y)
                chain += [pad(y, k)] * m
                weight *= math.comb(multiplicity(y, 1) + k, k) ** m
            for delta in partitions_of(n):
                expected = weight * oracle_tuple_count(chain + [delta], n)
                assert hurwitz_padded(branches, delta) == expected, (branches, delta)


def test_generating_function_beta_zero():
    series = generating_function([(2,)], p_bound=4, order=2)
    assert series.ppoly_at(()) == exp_p1(4)


def test_generating_function_single_transposition_coefficients():
    series = generating_function([(2,)], p_bound=5, order=2)
    for k in range(4):
        delta = (2,) + (1,) * k
        got = series.coefficient({(2,): 1}, delta)
        assert got == Fraction(1, 2 * math.factorial(k))
        assert series.coefficient({(2,): 1}, delta) == hurwitz_padded((((2,), 1),), delta)


def test_generating_function_second_order_vs_oracle():
    series = generating_function([(2,)], p_bound=2, order=2)
    assert series.coefficient({(2,): 2}, (1, 1)) == Fraction(1, 2) * Fraction(1, 2)
    bracket = series.coefficient({(2,): 2}, (1, 1)) * math.factorial(2)
    assert bracket == oracle_tuple_count([(2,), (2,)], 2)


def test_series_matches_padded_brackets():
    directions = [(2,), (1, 1), (3,)]
    series = generating_function(directions, p_bound=4, order=3)
    import itertools

    for counts in itertools.product(range(4), repeat=3):
        if not 0 < sum(counts) <= 3:
            continue
        beta = dict(zip(directions, counts))
        for n in range(5):
            for delta in partitions_of(n):
                branches = tuple((p, k) for p, k in beta.items() if k)
                expected = hurwitz_padded(branches, delta)
                bracket = series.coefficient(beta, delta) * math.prod(map(math.factorial, counts))
                assert bracket == expected, (beta, delta)


def test_multi_indices_match_product_filter():
    for k in range(4):
        for total in range(-1, 4):
            expected = [c for c in itertools.product(range(total + 1), repeat=k)
                        if sum(c) <= total]
            assert _multi_indices(k, total) == expected, (k, total)


def test_generating_function_matches_schur_sum():
    for active, p_bound, order in [([(2,)], 4, 3), ([(1,), (2,)], 5, 2),
                                   ([(2,), (1, 1), (3,), (2, 1)], 4, 2), ([], 3, 1),
                                   ([(4,), (2, 2)], 6, 3), ([(1,), (3, 1)], 2, 0)]:
        series = generating_function(active, p_bound, order)
        assert series.terms == series_by_schur(series.active, p_bound, order)


def test_generating_function_size_bound(monkeypatch):
    # 368 multi-indices times the 272 diagrams of degree <= 12
    assert 368 * 272 > MAX_SERIES_PAIRS
    with pytest.raises(BoundError):
        generating_function([(2,)], p_bound=12, order=367)
    # within the order bound: C(12, 4) = 495 multi-indices times 272 diagrams
    assert 495 * 272 > MAX_SERIES_PAIRS
    with pytest.raises(BoundError):
        generating_function([(1,), (2,), (3,), (4,)], p_bound=12, order=8)
    with pytest.raises(BoundError):
        generating_function([(2,)], p_bound=1, order=MAX_SERIES_ORDER + 1)
    assert generating_function([(2,)], p_bound=1, order=MAX_SERIES_ORDER).order == MAX_SERIES_ORDER
    with pytest.raises(ValueError):
        generating_function([(2,)], p_bound=2, order=-1)
    with pytest.raises(ValueError):
        generating_function([(2,)], p_bound=-3, order=2)

    def fail(n):
        raise AssertionError("built a table past the bound")

    monkeypatch.setattr(hurwitz, "char_table", fail)
    with pytest.raises(BoundError):
        generating_function([(2,), (3, 1)], p_bound=13, order=20)


def test_pde_residual_zero():
    series = generating_function([(1,), (2,), (3,)], p_bound=4, order=3)
    for upsilon in [(1,), (2,), (3,)]:
        assert pde_residual(upsilon, series) == 0


def test_pde_residual_requires_active_direction():
    series = generating_function([(2,)], p_bound=3, order=2)
    with pytest.raises(ValueError):
        pde_residual((3,), series)


def test_simple_hurwitz_rows(monkeypatch):
    assert simple_hurwitz(2, 2) == {(2,): 0, (1, 1): Fraction(1, 2)}
    row = simple_hurwitz(3, 2)
    assert row == {(3,): 1, (2, 1): 0, (1, 1, 1): Fraction(1, 2)}
    for n in range(1, 5):
        row = simple_hurwitz(n, 0)
        for delta, value in row.items():
            expected = Fraction(1, math.factorial(n)) if delta == (1,) * n else 0
            assert value == expected
    with pytest.raises(BoundError):
        simple_hurwitz(13, 1)

    def fail(*args):
        raise AssertionError("summed before checking the input")

    monkeypatch.setattr(hurwitz, "spectral_sum", fail)
    for n, m in [(-1, 2), (2, -1), (-3, -3)]:
        with pytest.raises(ValueError):
            simple_hurwitz(n, m)
    with pytest.raises(BoundError):
        simple_hurwitz(3, MAX_SERIES_ORDER + 1)


def test_simple_hurwitz_vs_oracle():
    for n in range(2, 5):
        marked = (2,) + (1,) * (n - 2)
        for m in range(4):
            row = simple_hurwitz(n, m)
            for delta, value in row.items():
                assert value == oracle_tuple_count([marked] * m + [delta], n), (n, m, delta)


def test_series_json_shape():
    series = generating_function([(2,)], p_bound=2, order=1)
    obj = series.to_json_obj()
    assert obj["p_bound"] == 2 and obj["order"] == 1
    assert {"beta": {"[2]": 1}, "mono": [2], "coef": "1/2"} in obj["terms"]
