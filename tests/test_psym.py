import collections
import math
import random
import re

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from diagram_ops import oracles
from diagram_ops.errors import BoundError, ParseError
from diagram_ops.psym import (
    PPoly,
    apply_spectral,
    from_schur,
    parse_ppoly,
    schur,
    schur_expand,
)
from diagram_ops.class_algebra import mult_infinity
from diagram_ops.partitions import aut_order, degree, partitions_of
from diagram_ops.characters import char_table, phi
from diagram_ops.oracles import (
    MAX_ORACLE_ACTIONS,
    apply_explicit,
    bialternant_eval,
    class_size,
    complete_homogeneous,
    compose_check,
    cut_and_join,
    d_r,
    eval_at_power_sums,
    jacobi_trudi,
    poly_add,
    poly_diff,
    poly_max_degree,
    poly_mul,
    poly_neg,
    poly_sub,
    ppoly,
    table_entry,
    terms,
)


def exp_p1(n):
    """e^{p_1} truncated to graded degree n."""
    return ppoly({(1,) * k: Fraction(1, math.factorial(k)) for k in range(n + 1)})


def random_poly(rng, max_deg=6, n_terms=5):
    pairs = []
    monos = [p for n in range(max_deg + 1) for p in partitions_of(n)]
    for _ in range(n_terms):
        mono = rng.choice(monos)
        coef = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        pairs.append((mono, coef))
    return ppoly(pairs)


def scaled(f, c):
    """f times the number c."""
    return ppoly(poly_mul(terms(f), c))


def test_complete_homogeneous():
    assert complete_homogeneous(0) == PPoly({(): 1})
    assert complete_homogeneous(2) == ppoly(
        {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    )
    assert complete_homogeneous(3) == ppoly(
        {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 2), (3,): Fraction(1, 3)}
    )


def test_schur_small():
    assert schur((2,)) == ppoly({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert schur((1, 1)) == ppoly({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    assert schur((2, 1)) == ppoly({(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)})
    assert schur((2, 1)) == PPoly({(1, 1, 1): 1, (3,): -1}, 3)
    assert schur(()) == PPoly({(): 1})


def test_schur_matches_jacobi_trudi():
    for n in range(7):
        for r in partitions_of(n):
            assert schur(r) == jacobi_trudi(r), r


def test_schur_row_and_column_closed_forms():
    # s_[n] = h_n = sum_mu p_mu / z_mu and s_[1^n] = e_n carries the sign
    # (-1)^(n - l(mu)) on each term
    for n in range(11):
        row = ppoly({mu: Fraction(1, aut_order(mu)) for mu in partitions_of(n)})
        column = ppoly({mu: Fraction((-1) ** (n - len(mu)), aut_order(mu))
                        for mu in partitions_of(n)})
        assert schur((n,) if n else ()) == row
        assert schur((1,) * n) == column


def test_schur_bound():
    with pytest.raises(BoundError):
        schur((13,))


def test_schur_value_is_read_only():
    before = schur((2,)).to_text()
    with pytest.raises(TypeError):
        schur((2,)).numerators[(2,)] = 5
    assert schur((2,)).to_text() == before == "1/2*p1^2 + 1/2*p2"


def test_schur_homogeneous():
    for n in range(7):
        for r in partitions_of(n):
            assert schur(r).degrees() in ([], [n])


def test_schur_expand():
    assert schur_expand(PPoly({(2,): 1})) == ({(2,): 1, (1, 1): -1}, 1)
    assert schur_expand(schur((2, 1))) == ({(2, 1): 3}, 3)
    assert schur_expand(PPoly({(1, 1): 1})) == ({(2,): 1, (1, 1): 1}, 1)
    # one denominator for every degree: 1/2 p1 + 1/3 p2 over 6
    assert schur_expand(ppoly({(1,): Fraction(1, 2), (2,): Fraction(1, 3)})) == (
        {(1,): 3, (2,): 2, (1, 1): -2}, 6)


def test_schur_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        f = random_poly(rng)
        assert from_schur(*schur_expand(f)) == f


def test_from_schur_fractional_and_bounded():
    # fractional coefficients as integer numerators over a common
    # denominator, against the same sum of Schur functions in Fractions
    rng = random.Random(17)
    shapes = [r for n in range(7) for r in partitions_of(n)]
    for _ in range(25):
        coeffs = {r: Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                  for r in rng.sample(shapes, 8)}
        expected = {}
        for r, c in coeffs.items():
            expected = poly_add(expected, poly_mul(terms(schur(r)), c))
        q = math.lcm(*(c.denominator for c in coeffs.values()))
        numerators = {r: int(c * q) for r, c in coeffs.items()}
        assert from_schur(numerators, q) == ppoly(expected)
        # over a multiple of the common denominator
        assert from_schur({r: 5 * c for r, c in numerators.items()}, 5 * q) == ppoly(expected)
    for coeffs in [{(3,): 1, (1, 2): 0}, {(2, 1): 1, (2,): 1, (1, 2): 1}]:
        with pytest.raises(ValueError, match=r"\[1,2\] is not a shape of S_3"):
            from_schur(coeffs, powers={(2,): 1})


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5])
def test_from_schur_checks_its_ints(value):
    # c_R and q are checked as the constructors check their ints
    message = re.escape("%r is not an int" % (value,))
    with pytest.raises(TypeError, match=message):
        from_schur({(2,): value})
    with pytest.raises(TypeError, match=message):
        from_schur({(2,): 1}, value)
    with pytest.raises(ValueError, match="denominator 0 is not positive"):
        from_schur({(2,): 1}, 0)


def test_p_delta_expansion_gives_characters():
    for n in range(1, 7):
        table = char_table(n)
        for delta in partitions_of(n):
            coeffs, q = schur_expand(PPoly({delta: 1}))
            assert q == 1
            for r in partitions_of(n):
                assert coeffs.get(r, 0) == table_entry(table, r, delta)


def test_exp_p1():
    # e^{p_1} = sum_R d_R schur(R)
    coeffs, q = schur_expand(exp_p1(4))
    for n in range(5):
        for r in partitions_of(n):
            assert Fraction(coeffs[r], q) == d_r(r)


def test_bialternant_eval():
    assert bialternant_eval((2,), [1, 2]) == 7
    assert bialternant_eval((1, 1), [1, 2]) == 2
    for k in range(1, 5):
        x = Fraction(3, 2)
        assert bialternant_eval((k,), [x]) == x ** k
    with pytest.raises(ValueError):
        bialternant_eval((2,), [1, 1])


def test_bialternant_stability():
    rng = random.Random(3)
    for nr in range(5):
        for r in partitions_of(nr):
            pts = []
            while len(pts) < max(len(r), 2):
                x = Fraction(rng.randint(1, 30), rng.randint(1, 7))
                if x not in pts and x != 0:
                    pts.append(x)
            assert bialternant_eval(r, pts + [0]) == bialternant_eval(r, pts)


def test_bialternant_vs_power_sums():
    rng = random.Random(5)
    for nr in range(6):
        for r in partitions_of(nr):
            for _ in range(5):
                size = max(len(r), 1) + rng.randint(0, 2)
                pts = []
                while len(pts) < size:
                    x = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                    if x not in pts:
                        pts.append(x)
                assert eval_at_power_sums(schur(r), pts) == bialternant_eval(r, pts)


def test_eval_at_power_sums_basics():
    assert eval_at_power_sums(PPoly({(2,): 1}, 2), [1, 1]) == 1
    assert eval_at_power_sums(schur((2,)), [1, 2]) == 7


def test_multiplication_properties():
    rng = random.Random(13)
    for _ in range(6):
        a, b, c = (terms(random_poly(rng, max_deg=4, n_terms=3)) for _ in range(3))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))
        assert poly_sub(a, b) == poly_add(a, poly_neg(b)) == poly_neg(poly_sub(b, a))
        assert poly_sub(a, a) == {}


def test_degree_additive_under_truncation():
    a = {(2, 1): Fraction(1, 2)}
    b = {(3,): 2}
    assert poly_mul(a, b) == {(3, 2, 1): 1}
    assert poly_max_degree(poly_mul(a, b)) == 6
    assert poly_max_degree({}) == 0


def test_diff():
    f = {(2, 1, 1): 3}
    assert poly_diff(f, 1) == {(2, 1): 6}
    assert poly_diff(f, 2) == {(1, 1): 3}
    assert not poly_diff(f, 5)


def test_parse_ppoly():
    f = parse_ppoly("1/3*p1^3 + -1/3*p3")
    assert f == schur((2, 1))
    assert parse_ppoly("2") == PPoly({(): 2})
    assert parse_ppoly("p2*p1^2") == PPoly({(2, 1, 1): 1})
    assert parse_ppoly(schur((2, 2)).to_text()) == schur((2, 2))
    with pytest.raises(ParseError):
        parse_ppoly("1/3*q2")
    for text in ("p0", "2*p0^2", "p1 + p00", "p1^", "2*p2*p1^", "p\u00b2", "p1^\u00b2"):
        with pytest.raises(ParseError):
            parse_ppoly(text)


def test_text_format():
    assert schur((2, 1)).to_text() == "1/3*p1^3 + -1/3*p3"
    assert PPoly.zero().to_text() == "0"
    # each coefficient in lowest terms, not over the common denominator 12
    f = ppoly({(1,): Fraction(1, 2), (2,): Fraction(-2, 3), (3,): Fraction(5, 4), (4,): 2})
    assert (f.numerators, f.denominator) == ({(1,): 6, (2,): -8, (3,): 15, (4,): 24}, 12)
    assert f.to_text() == "1/2*p1 + -2/3*p2 + 5/4*p3 + 2*p4"
    assert f.to_json_obj()["terms"][1] == {"mono": [2], "coef": "-2/3"}
    obj = schur((2,)).to_json_obj()
    assert obj["terms"] == [
        {"mono": [1, 1], "coef": "1/2"},
        {"mono": [2], "coef": "1/2"},
    ]


# each factor p_k^m stays within the parser's degree bound
MONOMIALS = st.lists(st.integers(1, 6), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(st.dictionaries(MONOMIALS, st.fractions(min_value=-20, max_value=20, max_denominator=12),
                       max_size=6))
def test_text_round_trip_property(coefficients):
    f = ppoly(coefficients)
    assert parse_ppoly(f.to_text()) == f


RATIONAL_POLYS = st.dictionaries(
    st.integers(0, 8).flatmap(lambda n: st.sampled_from(partitions_of(n))),
    st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=6).map(ppoly)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(RATIONAL_POLYS, st.integers(1, 4).flatmap(lambda n: st.sampled_from(partitions_of(n))))
def test_integer_route_property(f, delta):
    # printing, the Schur expansion and W(delta) on integer numerators,
    # against parsing, its inverse and the partial-permutation action
    assert parse_ppoly(f.to_text()) == f
    assert from_schur(*schur_expand(f)) == f
    assert apply_spectral(delta, f) == apply_explicit(delta, f)


# The diagram operators W(delta): apply_spectral against the
# partial-permutation action and the literal cut-and-join operator of
# diagram_ops.oracles.

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
    assert apply_spectral((1,), f) == scaled(f, 3)


def test_spectral_on_truncated_exponential():
    # W([2]) e^{p1} = p([2]) e^{p1} within the truncation window
    n = 4
    lhs = apply_spectral((2,), exp_p1(n))
    product = poly_mul({(2,): Fraction(1, 2)}, terms(exp_p1(n)))
    rhs = ppoly({m: c for m, c in product.items() if degree(m) <= n})
    assert lhs == rhs


def test_explicit_hand_values():
    assert apply_explicit((2,), PPoly({(2,): 1})) == PPoly({(1, 1): 1})
    assert apply_explicit((1, 1), PPoly({(2,): 1})) == PPoly({(2,): 1})


def test_explicit_bounds(monkeypatch):
    with pytest.raises(BoundError):
        apply_explicit((7,), PPoly({(7,): 1}))
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
                assert apply_explicit(delta, sr) == scaled(sr, phi(r, delta)), (delta, r)


def test_compose_check_examples():
    a, b = compose_check((2,), (2,), exp_p1(4))
    assert a == b
    s3 = schur((3,))
    a, b = compose_check((1,), (2,), s3)
    assert a == b == scaled(s3, 9)
    s2 = schur((2,))
    a, b = compose_check((1,), (1,), s2)
    assert a == b == scaled(s2, 4)


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
                assert out.degrees() in ([], [n])


def test_spectral_linear_over_diagram_sums():
    # compose_check's right side is W(d1 d2) f summed over the terms of the
    # graded product; it equals the same sum of per-diagram explicit
    # actions and the spectral action of phi(d1) phi(d2)
    f = ppoly({(2, 1): 1, (1, 1, 1): Fraction(1, 3), (3, 1): -2})
    for d1, d2 in [((1,), (1,)), ((2,), (1,)), ((2,), (2,)), ((2, 1), (2,)), ((3,), (1, 1))]:
        product = mult_infinity(d1, d2)
        assert len(product.numerators) > 1, (d1, d2)
        _, combined = compose_check(d1, d2, f)
        explicit = {}
        for d, c in terms(product).items():
            explicit = poly_add(explicit, poly_mul(terms(apply_explicit(d, f)), c))
        assert combined == ppoly(explicit), (d1, d2)
        assert combined == from_schur(*schur_expand(f), collections.Counter((d1, d2))), (d1, d2)
