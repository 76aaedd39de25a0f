import itertools
import math
import random

import pytest
from fractions import Fraction

from diagram_ops import hurwitz, oracles
from diagram_ops.errors import BoundError
from diagram_ops.hurwitz import (
    MAX_SERIES_ORDER,
    MAX_SERIES_PAIRS,
    _multi_indices,
    generating_function,
    hurwitz_chain,
    hurwitz_padded,
)
from diagram_ops.partitions import aut_order, multiplicity, pad, partitions_of
from diagram_ops.oracles import (
    _beta_key,
    connected_series,
    hurwitz_genus0,
    one_part_hurwitz,
    oracle_tuple_count,
    pde_residual,
    ppoly,
    series_coefficient,
    simple_hurwitz,
    terms,
)


def exp_p1(n):
    """e^{p_1} truncated to graded degree n."""
    return ppoly({(1,) * k: Fraction(1, math.factorial(k)) for k in range(n + 1)})


def coefficient(series, counts, mono):
    """Coefficient of the beta monomial counts times p_mono in series."""
    return terms(series).get((_beta_key(counts), mono), 0)


def chain_split(deltas, r):
    """Associativity-relation contraction split after position r."""
    n = sum(deltas[0])
    total = Fraction(0)
    for y in partitions_of(n):
        left = Fraction(*hurwitz_chain(list(deltas[:r]) + [y]))
        if left:
            total += left * aut_order(y) * Fraction(*hurwitz_chain([y] + list(deltas[r:])))
    return total


def test_hurwitz3_examples():
    assert Fraction(*hurwitz_chain([(2,), (2,), (1, 1)])) == Fraction(1, 2)
    assert Fraction(*hurwitz_chain([(2, 1), (2, 1), (3,)])) == 1
    for n in range(1, 5):
        identity = (1,) * n
        value = Fraction(*hurwitz_chain([identity, identity, identity]))
        assert value == Fraction(1, math.factorial(n))


def test_chain_base_cases():
    assert Fraction(*hurwitz_chain([(1, 1)])) == Fraction(1, 2)
    assert Fraction(*hurwitz_chain([(2,)])) == 0
    assert Fraction(*hurwitz_chain([(2, 1), (2, 1)])) == Fraction(1, 2)
    assert Fraction(*hurwitz_chain([(3,), (2, 1)])) == 0
    assert Fraction(*hurwitz_chain([(2,), (1, 1), (2,)])) == Fraction(1, 2)


def test_chain_four_transpositions():
    assert Fraction(*hurwitz_chain([(2,)] * 4)) == Fraction(1, 2)


def test_chain_degree_mismatch():
    with pytest.raises(ValueError):
        hurwitz_chain([(2,), (2, 1)])


def test_oracle_examples():
    assert oracle_tuple_count([(2,), (2,)], 2) == Fraction(1, 2)
    assert oracle_tuple_count([(2,)], 2) == 0
    v = oracle_tuple_count([(3,), (3,), (3,)], 3)
    assert v == Fraction(*hurwitz_chain([(3,), (3,), (3,)]))


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
                assert Fraction(*hurwitz_chain(tup)) == oracle_tuple_count(tup, n), tup
        quads = [tuple(rng.choice(parts) for _ in range(4)) for _ in range(20)]
        for tup in quads:
            assert Fraction(*hurwitz_chain(tup)) == oracle_tuple_count(tup, n), tup


def test_chain_vs_oracle_five_and_six_classes_at_n6():
    rng = random.Random(37)
    parts = partitions_of(6)
    for k in (5, 6):
        for _ in range(5):
            tup = tuple(rng.choice(parts) for _ in range(k))
            assert Fraction(*hurwitz_chain(tup)) == oracle_tuple_count(tup, 6), tup


def test_split_independence():
    rng = random.Random(29)
    for n in range(1, 5):
        parts = partitions_of(n)
        for _ in range(10):
            tup = tuple(rng.choice(parts) for _ in range(4))
            reference = Fraction(*hurwitz_chain(tup))
            for r in (1, 2, 3):
                assert chain_split(tup, r) == reference, (tup, r)


def test_nonnegativity():
    rng = random.Random(31)
    for n in range(1, 5):
        parts = partitions_of(n)
        for _ in range(25):
            tup = tuple(rng.choice(parts) for _ in range(rng.randint(1, 4)))
            assert Fraction(*hurwitz_chain(tup)) >= 0


def test_hurwitz_padded_examples():
    # (numerator, denominator) in lowest terms, 0 as (0, 1)
    assert hurwitz_padded((((2,), 1),), (2, 1)) == (1, 2)
    assert hurwitz_chain([(2,)]) == (0, 1)
    assert hurwitz_chain([(2, 1), (2, 1), (3,)]) == (1, 1)
    assert Fraction(*hurwitz_padded((((2,), 1),), (2, 1))) == Fraction(1, 2)
    assert Fraction(*hurwitz_padded((((3,), 1),), (2,))) == 0
    assert Fraction(*hurwitz_padded((((2,), 2),), (1, 1))) == Fraction(1, 2)


def test_hurwitz_padded_rejects_multiplicity_below_one():
    with pytest.raises(ValueError, match="multiplicities"):
        hurwitz_padded((((2,), 0),), (2, 1))


def test_hurwitz_padded_rejects_fractional_multiplicity():
    with pytest.raises(ValueError, match="multiplicities"):
        hurwitz_padded([((2,), 1.7)], (2,))


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
                assert Fraction(*hurwitz_padded(branches, delta)) == expected, (branches, delta)


def test_generating_function_beta_zero():
    series = generating_function([(2,)], p_bound=4, order=2)
    assert ppoly(series_coefficient(series, ())) == exp_p1(4)


def test_generating_function_single_transposition_coefficients():
    series = generating_function([(2,)], p_bound=5, order=2)
    for k in range(4):
        delta = (2,) + (1,) * k
        got = coefficient(series, {(2,): 1}, delta)
        assert got == Fraction(1, 2 * math.factorial(k))
        assert got == Fraction(*hurwitz_padded((((2,), 1),), delta))


def test_generating_function_second_order_vs_oracle():
    series = generating_function([(2,)], p_bound=2, order=2)
    assert coefficient(series, {(2,): 2}, (1, 1)) == Fraction(1, 2) * Fraction(1, 2)
    bracket = coefficient(series, {(2,): 2}, (1, 1)) * math.factorial(2)
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
                expected = Fraction(*hurwitz_padded(branches, delta))
                bracket = coefficient(series, beta, delta) * math.prod(map(math.factorial, counts))
                assert bracket == expected, (beta, delta)


def test_multi_indices_match_product_filter():
    for k in range(4):
        for total in range(-1, 4):
            expected = [c for c in itertools.product(range(total + 1), repeat=k)
                        if sum(c) <= total]
            assert _multi_indices(k, total) == expected, (k, total)


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
    # Z at beta = 0 and dZ/dbeta_Y = W(Y) Z fix every coefficient to the order
    for active, p_bound, order in [([(1,), (2,), (3,)], 4, 3), ([(2,)], 4, 3),
                                   ([(1,), (2,)], 5, 2), ([(2,), (1, 1), (3,), (2, 1)], 4, 2),
                                   ([], 3, 1), ([(4,), (2, 2)], 6, 3), ([(1,), (3, 1)], 2, 0)]:
        series = generating_function(active, p_bound, order)
        assert ppoly(series_coefficient(series, ())) == exp_p1(p_bound), active
        for upsilon in active:
            assert pde_residual(upsilon, series) == 0, (active, upsilon)


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

    monkeypatch.setattr(oracles, "spectral_sum", fail)
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


def test_connected_numbers_match_closed_forms():
    # up to the table ceiling, where permutation enumeration cannot reach:
    # m! [beta^m p_mu] log Z is Hurwitz's genus-0 number at m = n + l - 2
    # and 0 below it, and the one-part numbers of genus g <= 3 match
    logs = connected_series(12, 22)
    genus0 = [mu for n in range(1, 13) for mu in partitions_of(n)]
    assert len(genus0) == 271
    for mu in genus0:
        top = sum(mu) + len(mu) - 2
        expected = [0] * top + [hurwitz_genus0(mu)]
        assert [logs.get((m, mu), 0) for m in range(top + 1)] == expected, mu
    one_part = [(d, g) for d in range(1, 13) for g in range(4)]
    assert len(one_part) == 48
    for d, g in one_part:
        assert simple_hurwitz(d, d + 2 * g - 1)[(d,)] == one_part_hurwitz(d, g), (d, g)
