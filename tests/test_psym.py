import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from diagram_ops.errors import BoundError, ParseError
from diagram_ops.psym import (
    PPoly,
    exp_p1,
    from_schur,
    p_monomial,
    parse_ppoly,
    schur,
    schur_expand,
)
from diagram_ops.partitions import aut_order, kappa, partitions_of
from diagram_ops.characters import char_table
from diagram_ops.oracles import (
    bialternant_eval,
    complete_homogeneous,
    d_r,
    eval_at_power_sums,
    jacobi_trudi,
)


def random_poly(rng, max_deg=6, n_terms=5):
    terms = []
    monos = [p for n in range(max_deg + 1) for p in partitions_of(n)]
    for _ in range(n_terms):
        mono = rng.choice(monos)
        coef = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms.append((mono, coef))
    return PPoly(terms)


def test_p_monomial():
    assert p_monomial((2,)) == PPoly({(2,): Fraction(1, 2)})
    assert p_monomial((1, 1)) == PPoly({(1, 1): Fraction(1, 2)})
    assert p_monomial(()) == PPoly.one()


def test_complete_homogeneous():
    assert complete_homogeneous(0) == PPoly.one()
    assert complete_homogeneous(2) == PPoly(
        {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    )
    assert complete_homogeneous(3) == PPoly(
        {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 2), (3,): Fraction(1, 3)}
    )


def test_schur_small():
    assert schur((2,)) == PPoly({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert schur((1, 1)) == PPoly({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    assert schur((2, 1)) == PPoly({(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)})
    assert schur(()) == PPoly.one()


def test_schur_matches_jacobi_trudi():
    for n in range(7):
        for r in partitions_of(n):
            assert schur(r) == jacobi_trudi(r), r


def test_schur_row_and_column_closed_forms():
    # s_[n] = h_n = sum_mu p_mu / z_mu and s_[1^n] = e_n carries the sign
    # (-1)^(n - l(mu)) on each term
    for n in range(11):
        row = PPoly({mu: kappa(mu) for mu in partitions_of(n)})
        column = PPoly({mu: (-1) ** (n - len(mu)) * kappa(mu) for mu in partitions_of(n)})
        assert schur((n,) if n else ()) == row
        assert schur((1,) * n) == column


def test_schur_bound():
    with pytest.raises(BoundError):
        schur((13,))


def test_schur_value_is_read_only():
    before = schur((2,)).to_text()
    with pytest.raises(TypeError):
        schur((2,)).terms[(2,)] = 5
    assert schur((2,)).to_text() == before == "1/2*p1^2 + 1/2*p2"


def test_schur_homogeneous():
    for n in range(7):
        for r in partitions_of(n):
            assert schur(r).homogeneous_degrees() in ([], [n])


def test_schur_expand():
    assert schur_expand(PPoly.variable(2)) == {(2,): Fraction(1), (1, 1): Fraction(-1)}
    assert schur_expand(schur((2, 1))) == {(2, 1): Fraction(1)}
    assert schur_expand(PPoly({(1, 1): 1})) == {(2,): Fraction(1), (1, 1): Fraction(1)}


def test_schur_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        f = random_poly(rng)
        assert from_schur(schur_expand(f)) == f


def test_from_schur_fractional_and_bounded():
    rng = random.Random(17)
    shapes = [r for n in range(7) for r in partitions_of(n)]
    for _ in range(25):
        coeffs = {r: Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                  for r in rng.sample(shapes, 8)}
        expected = PPoly.zero()
        for r, c in coeffs.items():
            expected = expected + schur(r) * c
        assert from_schur(coeffs) == expected
    for coeffs in [{(3,): 1, (1, 2): 0}, {(2, 1): 1, (2,): 1, (1, 2): 1}]:
        with pytest.raises(ValueError, match=r"\[1,2\] is not a shape of S_3"):
            from_schur(coeffs, {(2,): 1})


def test_p_delta_expansion_gives_characters():
    for n in range(1, 7):
        table = char_table(n)
        for delta in partitions_of(n):
            coeffs = schur_expand(p_monomial(delta) * aut_order(delta))
            for r in partitions_of(n):
                assert coeffs.get(r, 0) == table.entry(r, delta)


def test_exp_p1():
    assert exp_p1(0) == PPoly.one()
    assert exp_p1(2) == PPoly({(): 1, (1,): 1, (1, 1): Fraction(1, 2)})
    coeffs = schur_expand(exp_p1(4))
    for n in range(5):
        for r in partitions_of(n):
            assert coeffs[r] == d_r(r)


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
    assert eval_at_power_sums(p_monomial((2,)), [1, 1]) == 1
    assert eval_at_power_sums(schur((2,)), [1, 2]) == 7


def test_multiplication_properties():
    rng = random.Random(13)
    for _ in range(6):
        a = random_poly(rng, max_deg=4, n_terms=3)
        b = random_poly(rng, max_deg=4, n_terms=3)
        c = random_poly(rng, max_deg=4, n_terms=3)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_degree_additive_under_truncation():
    a = PPoly({(2, 1): Fraction(1, 2)})
    b = PPoly({(3,): 2})
    assert (a * b).coefficient((3, 2, 1)) == 1
    assert (a * b).max_degree() == 6


def test_diff():
    f = PPoly({(2, 1, 1): 3})
    assert f.diff(1) == PPoly({(2, 1): 6})
    assert f.diff(2) == PPoly({(1, 1): 3})
    assert f.diff(5).is_zero()


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
    obj = schur((2,)).to_json_obj()
    assert obj["terms"] == [
        {"mono": [1, 1], "coef": "1/2"},
        {"mono": [2], "coef": "1/2"},
    ]


def test_kappa_normalization():
    for n in range(1, 6):
        for delta in partitions_of(n):
            assert p_monomial(delta).coefficient(delta) == kappa(delta)


# each factor p_k^m stays within the parser's degree bound
MONOMIALS = st.lists(st.integers(1, 6), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(st.dictionaries(MONOMIALS, st.fractions(min_value=-20, max_value=20, max_denominator=12),
                       max_size=6))
def test_text_round_trip_property(terms):
    f = PPoly(terms)
    assert parse_ppoly(f.to_text()) == f
