import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from diagram_ops.errors import BoundError
from diagram_ops.class_algebra import (
    DiagramSum,
    graded_piece,
    mult_infinity,
    mult_same_degree,
    mult_sum,
    structure_constant,
)
from diagram_ops.oracles import oracle_mult_infinity, oracle_structure_constant
from diagram_ops.partitions import degree, partitions_of
from diagram_ops.characters import phi


def test_structure_constant_examples():
    assert structure_constant((2,), (2,), (1, 1)) == 1
    assert structure_constant((2, 1), (2, 1), (3,)) == 3
    assert structure_constant((2, 1), (2, 1), (1, 1, 1)) == 3
    assert structure_constant((2, 1, 1), (2, 1, 1), (2, 2)) == 2
    assert structure_constant((2, 1, 1), (2, 1, 1), (3, 1)) == 3
    assert structure_constant((2, 1, 1), (2, 1, 1), (1, 1, 1, 1)) == 6


def test_structure_constant_degree_mismatch():
    with pytest.raises(ValueError):
        structure_constant((2,), (2, 1), (2,))


def test_structure_constant_vs_oracle_exhaustive():
    for n in range(1, 5):
        for d1 in partitions_of(n):
            for d2 in partitions_of(n):
                for d in partitions_of(n):
                    assert structure_constant(d1, d2, d) == oracle_structure_constant(d1, d2, d)


def test_oracle_examples():
    assert oracle_structure_constant((2,), (2,), (1, 1)) == 1
    assert oracle_structure_constant((2, 1), (2, 1), (3,)) == 3
    assert oracle_structure_constant((3,), (3,), (1, 1, 1)) == 2


def test_mult_same_degree():
    assert mult_same_degree((1, 1), (2,)) == DiagramSum.single((2,))
    assert mult_same_degree((2,), (2,)) == DiagramSum.single((1, 1))
    for n in range(1, 6):
        identity = (1,) * n
        for d in partitions_of(n):
            assert mult_same_degree(identity, d) == DiagramSum.single(d)


def test_mult_infinity_paper_example_1():
    result = mult_infinity((1,), (2,))
    assert result == DiagramSum([((2,), 2), ((2, 1), 1)])
    assert graded_piece((1,), (2,), 2) == DiagramSum.single((2,), 2)
    assert graded_piece((1,), (2,), 3) == DiagramSum.single((2, 1), 1)


def test_mult_infinity_paper_example_2():
    result = mult_infinity((2,), (2,))
    assert result == DiagramSum([((1, 1), 1), ((3,), 3), ((2, 2), 2)])


def test_mult_infinity_unit_row_square():
    # hand recursion: {.}_1 = [1], {.}_2 = 4[1,1] - 2[1,1] = 2[1,1]
    assert mult_infinity((1,), (1,)) == DiagramSum([((1,), 1), ((1, 1), 2)])


def test_memoized_product_is_read_only():
    with pytest.raises(TypeError):
        mult_same_degree((2,), (2,))._terms[(1, 1)] = 5
    assert mult_same_degree((2,), (2,)).coefficient((1, 1)) == 1


def test_mult_infinity_vs_partial_permutation_oracle():
    pairs = [(d1, d2) for total in range(7) for a in range(total + 1)
             for d1 in partitions_of(a) for d2 in partitions_of(total - a)]
    assert len(pairs) == 139
    for d1, d2 in pairs:
        assert mult_infinity(d1, d2) == oracle_mult_infinity(d1, d2), (d1, d2)


def test_partial_permutation_oracle_bound():
    with pytest.raises(BoundError):
        oracle_mult_infinity((4,), (3,))


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
                left = mult_sum(mult_infinity(d1, d2), DiagramSum.single(d3))
                right = mult_sum(DiagramSum.single(d1), mult_infinity(d2, d3))
                assert left == right


def test_grading_bounds():
    diagrams = [p for n in range(1, 5) for p in partitions_of(n)]
    for d1 in diagrams:
        for d2 in diagrams:
            lo = max(degree(d1), degree(d2))
            hi = degree(d1) + degree(d2)
            for d, _ in mult_infinity(d1, d2).items():
                assert lo <= degree(d) <= hi


def test_mult_sum_linearity():
    zero = DiagramSum.zero()
    b = DiagramSum.single((2,))
    assert mult_sum(zero, b) == DiagramSum.zero()
    scaled = mult_sum(DiagramSum.single((2,), 2), DiagramSum.single((1,)))
    assert scaled == DiagramSum((d, 2 * c) for d, c in mult_infinity((2,), (1,)).items())
    split = mult_sum(
        DiagramSum(DiagramSum.single((1,)).items() + DiagramSum.single((2,)).items()),
        DiagramSum.single((2,)),
    )
    assert split == DiagramSum(mult_infinity((1,), (2,)).items() + mult_infinity((2,), (2,)).items())


def test_spectral_consistency():
    rng = random.Random(7)
    diagrams = [p for n in range(1, 4) for p in partitions_of(n)]
    pairs = [(a, b) for a in diagrams for b in diagrams]
    for d1, d2 in rng.sample(pairs, 20):
        product = mult_infinity(d1, d2)
        for nr in range(1, 7):
            for r in partitions_of(nr):
                total = sum(
                    (c * phi(r, d) for d, c in product.items()), Fraction(0)
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
    total = sum((c * phi(r, d) for d, c in mult_infinity(d1, d2).items()), Fraction(0))
    assert total == phi(r, d1) * phi(r, d2)
