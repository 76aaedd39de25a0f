"""The diagram operators W(delta): psym.apply_spectral against the
partial-permutation action and the literal cut-and-join operator of
diagram_ops.oracles."""

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from diagram_ops import oracles
from diagram_ops.errors import BoundError
from diagram_ops.characters import phi
from diagram_ops.psym import PPoly, apply_spectral, exp_p1, p_monomial, parse_ppoly, schur
from diagram_ops.class_algebra import DiagramSum, parse_diagram_sum
from diagram_ops.partitions import class_size, degree, partitions_of
from diagram_ops.oracles import MAX_ORACLE_ACTIONS, apply_explicit, compose_check, cut_and_join

SIX = [d for n in range(1, 4) for d in partitions_of(n)]
UP_TO_4 = [d for n in range(1, 5) for d in partitions_of(n)]


def test_eigenvalue_examples():
    assert phi((3,), (2,)) == 3
    assert phi((1, 1, 1), (2,)) == -3
    assert phi((2, 1), (2,)) == 0
    for n in range(1, 6):
        for r in partitions_of(n):
            assert phi(r, (1,)) == n


def test_eigenvalue_cutoff():
    for nd in range(3, 6):
        for delta in partitions_of(nd):
            for r in partitions_of(2):
                assert phi(r, delta) == 0


def test_spectral_on_schur():
    assert apply_spectral((2,), schur((2,))) == schur((2,))
    f = PPoly({(1, 1, 1): 1})
    assert apply_spectral((1,), f) == f * 3


def test_spectral_on_truncated_exponential():
    # W([2]) e^{p1} = p([2]) e^{p1} within the truncation window
    n = 4
    lhs = apply_spectral((2,), exp_p1(n))
    product = p_monomial((2,)) * exp_p1(n)
    rhs = PPoly({m: c for m, c in product.terms.items() if degree(m) <= n})
    assert lhs == rhs


def test_explicit_hand_values():
    assert apply_explicit((2,), PPoly.variable(2)) == PPoly({(1, 1): 1})
    assert apply_explicit((1, 1), PPoly.variable(2)) == PPoly.variable(2)


def test_explicit_bounds(monkeypatch):
    with pytest.raises(BoundError):
        apply_explicit((7,), PPoly.variable(7))
    # 4 * C(12, 6) * 120 partial permutations, refused before any is built
    f = parse_ppoly("p12 + p11*p1 + p10*p2 + p9*p3")
    assert 4 * 924 * class_size((3, 2, 1)) > MAX_ORACLE_ACTIONS

    def fail(*args):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr(oracles, "_partial_permutations", fail)
    with pytest.raises(BoundError):
        apply_explicit((3, 2, 1), f)


def test_explicit_matches_spectral_on_monomials():
    for delta in UP_TO_4:
        for n in range(7):
            for mono in partitions_of(n):
                f = PPoly({mono: 1})
                assert apply_explicit(delta, f) == apply_spectral(delta, f), (delta, mono)


def test_cut_and_join_matches_both_routes():
    for n in range(9):
        for mono in partitions_of(n):
            f = PPoly({mono: 1})
            expected = cut_and_join(f)
            assert apply_explicit((2,), f) == expected, mono
            assert apply_spectral((2,), f) == expected, mono


def test_explicit_eigenvector_property():
    for delta in SIX:
        for n in range(7):
            for r in partitions_of(n):
                sr = schur(r)
                assert apply_explicit(delta, sr) == sr * phi(r, delta), (delta, r)


def test_compose_check_examples():
    a, b = compose_check((2,), (2,), exp_p1(4))
    assert a == b
    s3 = schur((3,))
    a, b = compose_check((1,), (2,), s3)
    assert a == b == s3 * 9
    s2 = schur((2,))
    a, b = compose_check((1,), (1,), s2)
    assert a == b == s2 * 4


def test_homomorphism_property():
    diagrams = [p for n in range(1, 4) for p in partitions_of(n)]
    basis = [PPoly({mono: 1}) for n in range(7) for mono in partitions_of(n)]
    for d1 in diagrams:
        for d2 in diagrams:
            for f in basis:
                a, b = compose_check(d1, d2, f)
                assert a == b, (d1, d2, f)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.sampled_from(UP_TO_4), st.sampled_from(UP_TO_4),
       st.integers(0, 6).flatmap(lambda n: st.sampled_from(partitions_of(n))))
def test_compose_check_property(d1, d2, mono):
    a, b = compose_check(d1, d2, PPoly({mono: 1}))
    assert a == b


def test_spectral_preserves_degree():
    for delta in SIX:
        for n in range(6):
            for mono in partitions_of(n):
                out = apply_spectral(delta, PPoly({mono: 1}))
                assert out.homogeneous_degrees() in ([], [n])


def test_spectral_linear_over_diagram_sums():
    f = PPoly({(2, 1): 1, (1, 1, 1): Fraction(1, 3)})
    s = DiagramSum([((2,), Fraction(1, 2)), ((1,), 3)])
    combined = apply_spectral(s, f)
    split = apply_spectral((2,), f) * Fraction(1, 2) + apply_spectral((1,), f) * 3
    assert combined == split
    for s in [DiagramSum.zero(), parse_diagram_sum("1/2*[2] + 3*[1] + -1*[2,1]")]:
        explicit = sum((apply_explicit(d, f) * c for d, c in s.items()), PPoly.zero())
        assert apply_spectral(s, f) == explicit, s
