import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from diagram_ops import class_algebra, oracles
from diagram_ops.errors import BoundError
from diagram_ops.class_algebra import (
    DiagramSum,
    mult_infinity,
    mult_sum,
    structure_constant,
)
from diagram_ops.oracles import (
    diagram_sum,
    graded_piece,
    mult_same_degree,
    oracle_coefficient,
    oracle_mult_infinity,
    terms,
)
from diagram_ops.partitions import degree, partitions_of
from diagram_ops.characters import phi


def test_structure_constant_examples():
    assert structure_constant((2,), (2,), (1, 1)) == 1
    assert structure_constant((2, 1), (2, 1), (3,)) == 3
    assert structure_constant((2, 1), (2, 1), (1, 1, 1)) == 3
    assert structure_constant((2, 1, 1), (2, 1, 1), (2, 2)) == 2
    assert structure_constant((2, 1, 1), (2, 1, 1), (3, 1)) == 3
    assert structure_constant((2, 1, 1), (2, 1, 1), (1, 1, 1, 1)) == 6


def test_structure_constant_at_degree_12():
    t = (2,) + (1,) * 10
    assert structure_constant(t, t, (1,) * 12) == 66
    assert structure_constant(t, t, (3,) + (1,) * 9) == 3
    assert structure_constant(t, t, (2, 2) + (1,) * 8) == 2
    assert structure_constant((12,), (12,), (1,) * 12) == 39_916_800


def test_structure_constant_degree_mismatch():
    with pytest.raises(ValueError):
        structure_constant((2,), (2, 1), (2,))


def test_oracle_examples():
    assert oracle_coefficient((2,), (2,), (1, 1)) == 1
    assert oracle_coefficient((2, 1), (2, 1), (3,)) == 3
    assert oracle_coefficient((3,), (3,), (1, 1, 1)) == 2


def test_mult_same_degree():
    assert mult_same_degree((1, 1), (2,)) == DiagramSum({(2,): 1})
    assert mult_same_degree((2,), (2,)) == DiagramSum({(1, 1): 1})
    for n in range(1, 6):
        identity = (1,) * n
        for d in partitions_of(n):
            assert mult_same_degree(identity, d) == DiagramSum({d: 1})


def test_mult_infinity_paper_example_1():
    result = mult_infinity((1,), (2,))
    assert result == DiagramSum([((2,), 2), ((2, 1), 1)])
    assert graded_piece((1,), (2,), 2) == DiagramSum({(2,): 2})
    assert graded_piece((1,), (2,), 3) == DiagramSum({(2, 1): 1})


def test_mult_infinity_paper_example_2():
    result = mult_infinity((2,), (2,))
    assert result == DiagramSum([((1, 1), 1), ((3,), 3), ((2, 2), 2)])


def test_mult_infinity_unit_row_square():
    # hand recursion: {.}_1 = [1], {.}_2 = 4[1,1] - 2[1,1] = 2[1,1]
    assert mult_infinity((1,), (1,)) == DiagramSum([((1,), 1), ((1, 1), 2)])


def test_memoized_product_is_read_only():
    with pytest.raises(TypeError):
        mult_same_degree((2,), (2,)).numerators[(1, 1)] = 5
    assert terms(mult_same_degree((2,), (2,))) == {(1, 1): 1}


def _pairs_of_total(total):
    return [(d1, d2) for a in range(total + 1)
            for d1 in partitions_of(a) for d2 in partitions_of(total - a)]


def _targets(d1, d2):
    return [d for n in range(max(degree(d1), degree(d2)), degree(d1) + degree(d2) + 1)
            for d in partitions_of(n)]


def test_mult_infinity_vs_coefficient_oracle():
    # every target up to total degree 6, two sampled targets of every pair
    # at totals 7 and 8, and six of four seeded pairs at each total 9-12
    rng = random.Random(12)
    cases = [(p, _targets(*p)) for total in range(7) for p in _pairs_of_total(total)]
    cases += [(p, rng.sample(_targets(*p), 2)) for total in (7, 8) for p in _pairs_of_total(total)]
    cases += [(p, rng.sample(_targets(*p), 6))
              for total in range(9, 13) for p in rng.sample(_pairs_of_total(total), 4)]
    for (d1, d2), targets in cases:
        product = mult_infinity(d1, d2).numerators
        for d in targets:
            assert oracle_coefficient(d1, d2, d) == product.get(d, 0), (d1, d2, d)


def test_coefficient_oracle_bound():
    # 792 supports times 630 permutations of type [4,2,1], on either side
    with pytest.raises(BoundError, match="498960 partial permutations exceed bound"):
        oracle_coefficient((4, 2, 1), (4, 2, 1), (1,) * 12)


def test_mult_sum_makes_one_spectral_sum_per_degree(monkeypatch):
    calls = []
    real = class_algebra.spectral_sum
    monkeypatch.setattr(class_algebra, "spectral_sum", lambda *args: calls.append(args) or real(*args))
    every = DiagramSum({d: 1 for n in range(1, 7) for d in partitions_of(n)})
    assert len(every.numerators) == 29
    mult_sum(every, every)
    assert len(calls) <= 12


def test_partial_permutation_oracle_bound(monkeypatch):
    assert mult_infinity((4,), (3,)) == oracle_mult_infinity((4,), (3,))
    # 319,680 partial permutations over the targets of degree 5 to 10
    monkeypatch.setattr(oracles, "oracle_coefficient", lambda *args: pytest.fail("counted"))
    with pytest.raises(BoundError, match="319680 partial permutations exceed bound"):
        oracle_mult_infinity((3, 2), (3, 2))


def test_mult_infinity_bound():
    with pytest.raises(BoundError):
        mult_infinity((7,), (6,))


def test_commutativity():
    diagrams = [p for n in range(1, 5) for p in partitions_of(n)]
    for d1 in diagrams:
        for d2 in diagrams:
            assert mult_infinity(d1, d2) == mult_infinity(d2, d1)


def test_associativity():
    diagrams = [p for n in range(1, 4) for p in partitions_of(n)]
    for d1 in diagrams:
        for d2 in diagrams:
            for d3 in diagrams:
                left = mult_sum(mult_infinity(d1, d2), DiagramSum({d3: 1}))
                right = mult_sum(DiagramSum({d1: 1}), mult_infinity(d2, d3))
                assert left == right


def test_grading_bounds():
    diagrams = [p for n in range(1, 5) for p in partitions_of(n)]
    for d1 in diagrams:
        for d2 in diagrams:
            lo = max(degree(d1), degree(d2))
            hi = degree(d1) + degree(d2)
            for d in mult_infinity(d1, d2).numerators:
                assert lo <= degree(d) <= hi


def test_mult_sum_linearity():
    zero = DiagramSum()
    b = DiagramSum({(2,): 1})
    assert mult_sum(zero, b) == DiagramSum()
    scaled = mult_sum(DiagramSum({(2,): 2}), DiagramSum({(1,): 1}))
    assert scaled == diagram_sum((d, 2 * c) for d, c in terms(mult_infinity((2,), (1,))).items())
    split = mult_sum(
        DiagramSum({(1,): 1, (2,): 1}),
        DiagramSum({(2,): 1}),
    )
    assert split == diagram_sum(list(terms(mult_infinity((1,), (2,))).items())
                                + list(terms(mult_infinity((2,), (2,))).items()))


def test_spectral_consistency():
    rng = random.Random(7)
    diagrams = [p for n in range(1, 4) for p in partitions_of(n)]
    pairs = [(a, b) for a in diagrams for b in diagrams]
    for d1, d2 in rng.sample(pairs, 20):
        product = mult_infinity(d1, d2)
        for nr in range(1, 7):
            for r in partitions_of(nr):
                total = sum(
                    (c * phi(r, d) for d, c in terms(product).items()), Fraction(0)
                )
                assert total == phi(r, d1) * phi(r, d2)


def diagrams(max_degree):
    return st.integers(0, max_degree).flatmap(lambda n: st.sampled_from(partitions_of(n)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.data())
def test_phi_multiplicative_property(data):
    d1 = data.draw(diagrams(8))
    d2 = data.draw(diagrams(8 - degree(d1)))
    r = data.draw(diagrams(8))
    total = sum((c * phi(r, d) for d, c in terms(mult_infinity(d1, d2)).items()), Fraction(0))
    assert total == phi(r, d1) * phi(r, d2)
