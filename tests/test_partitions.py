import itertools
import math
import re

import pytest
from decimal import Decimal
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from diagram_ops.errors import BoundError, ParseError
from diagram_ops.class_algebra import DiagramSum, parse_diagram_sum, rho_term
from diagram_ops.partitions import (
    as_partition,
    aut_order,
    degree,
    format_partition,
    multiplicity,
    pad,
    parse_digits,
    parse_partition,
    parse_ratio,
    partitions_of,
    ratio_sum,
)
from diagram_ops.hurwitz import generating_function
from diagram_ops.oracles import class_size, conjugate, cycle_type, diagram_sum, ppoly, terms
from diagram_ops.psym import PPoly, parse_ppoly


def partition_count(n):
    # independent count via the classical two-variable recurrence
    table = {}

    def p(remaining, largest):
        if remaining == 0:
            return 1
        key = (remaining, largest)
        if key not in table:
            table[key] = sum(p(remaining - k, k) for k in range(min(remaining, largest), 0, -1))
        return table[key]

    return p(n, n)


def test_degree():
    assert degree(()) == 0
    assert degree((2, 1)) == 3
    assert degree((3, 1, 1)) == 5


def test_multiplicity():
    assert multiplicity((2, 1, 1), 1) == 2
    assert multiplicity((2, 1, 1), 2) == 1
    assert multiplicity((2, 1, 1), 3) == 0


def test_aut_order():
    assert aut_order((1, 1)) == 2
    assert aut_order((3,)) == 3
    assert aut_order((2, 2)) == 8
    assert aut_order((2,)) == aut_order((2, 1)) == 2
    assert aut_order(()) == 1


def test_class_size():
    assert class_size((2,)) == 1
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2


def test_class_size_vs_enumeration():
    for n in range(1, 7):
        counts = {}
        for perm in itertools.permutations(range(n)):
            t = cycle_type(perm)
            counts[t] = counts.get(t, 0) + 1
        for p in partitions_of(n):
            assert class_size(p) == counts[p]


def test_class_sizes_tile_group():
    for n in range(9):
        assert sum(class_size(p) for p in partitions_of(n)) == math.factorial(n)
        for p in partitions_of(n):
            assert class_size(p) * aut_order(p) == math.factorial(n)


def test_pad():
    assert pad((2,), 2) == (2, 1, 1)
    assert pad((), 3) == (1, 1, 1)
    assert pad((3, 2), 0) == (3, 2)


def test_pad_composes():
    for p in [(), (1,), (3, 1), (2, 2)]:
        for a in range(3):
            for b in range(3):
                assert pad(pad(p, a), b) == pad(p, a + b)


def test_rho_examples():
    assert rho_term((1,), 1) == ((1, 1), 2)
    assert rho_term((2,), 1) == ((2, 1), 1)
    assert rho_term((1, 1), 2) == ((1, 1, 1, 1), 6)


def test_rho_degree_shift():
    for p in [(), (2,), (2, 1), (3, 1, 1)]:
        assert rho_term(p, 0) == (p, 1)
        for k in range(4):
            q, _ = rho_term(p, k)
            assert degree(q) == degree(p) + k


def test_partitions_of():
    assert partitions_of(0) == [()]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(5)) == 7
    for n in range(11):
        assert len(partitions_of(n)) == partition_count(n)


def test_partitions_of_bound():
    with pytest.raises(BoundError):
        partitions_of(31)


def test_conjugate():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    for n in range(8):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_parse_partition():
    assert parse_partition("[3,1,1]") == (3, 1, 1)
    assert parse_partition("[]") == ()
    with pytest.raises(ParseError):
        parse_partition("[1,3]")
    with pytest.raises(ParseError):
        parse_partition("[1,]")
    with pytest.raises(ParseError):
        parse_partition("[0]")


def test_parse_digits_reads_ascii_digits_within_the_limit():
    # 4,300 digits is the default of sys.get_int_max_str_digits()
    assert parse_digits("007") == 7 and parse_digits("9" * 4300) == 10 ** 4300 - 1
    for bad in ["", "+3", "-3", " 3", "3\n", "1_0", "\u0663", "\uff13", "\u00b2", "1" * 4301]:
        assert parse_digits(bad) is None, bad
    with pytest.raises(ParseError, match="malformed partition"):
        parse_partition("[1%s]" % ("0" * 4300))


def test_parse_ratio():
    assert parse_ratio("-3/4") == (-3, 4)
    assert parse_ratio("+12") == (12, 1)
    for bad in ["1e3", "0.5", " 1", "1 ", "1_000", "1/0", "3/-4", "/2", "", "\u0663"]:
        with pytest.raises(ParseError):
            parse_ratio(bad)


# The regular expressions parse_partition and parse_ratio were written
# with, kept as the oracle for their str-method checks.
PARTITION_RE = re.compile(r"\[([0-9]+(,[0-9]+)*)?\]")
FRACTION_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def regex_parse_partition(text):
    s = text.strip()
    m = PARTITION_RE.fullmatch(s)
    if m is None:
        for ch in s:
            if ch not in "[],0123456789":
                raise ParseError("unexpected character %r in partition" % ch)
        raise ParseError("malformed partition %r" % s)
    if m.group(1) is None:
        return ()
    try:
        return as_partition(tuple(int(x) for x in m.group(1).split(",")))
    except ValueError as e:
        raise ParseError(str(e)) from None


def regex_parse_fraction(text):
    if FRACTION_RE.fullmatch(text) is None:
        raise ParseError("malformed rational %r" % text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("malformed rational %r" % text) from None


def outcome(parse, text):
    try:
        return "value", parse(text)
    except ParseError as e:
        return "error", str(e)


# ASCII digits, digits of other scripts (Arabic-Indic, Devanagari,
# fullwidth) and a superscript two, which isdigit() accepts and
# isdecimal() does not.
DIGIT_TEXT = st.text(st.sampled_from("0123456789\u0663\u0966\uff11\u00b2"), max_size=3)
SPACE = st.sampled_from(["", " ", "\t", "\u3000"])
PARTITION_TEXT = st.one_of(
    st.text(st.sampled_from("[],0123456789 +-/a\u0663"), max_size=10),
    st.builds(lambda a, parts, b: a + "[" + ",".join(parts) + "]" + b,
              SPACE, st.lists(DIGIT_TEXT, max_size=4), SPACE))
FRACTION_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789+-/ .e_\u0663"), max_size=8),
    st.builds(lambda sign, num, slash, den: sign + num + slash + den,
              st.sampled_from(["", "+", "-", "+-"]), DIGIT_TEXT,
              st.sampled_from(["", "/", "//"]), DIGIT_TEXT))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(PARTITION_TEXT, FRACTION_TEXT)
def test_parsers_match_their_regular_expressions(partition_text, fraction_text):
    assert outcome(parse_partition, partition_text) == outcome(regex_parse_partition,
                                                               partition_text)
    got = outcome(lambda text: Fraction(*parse_ratio(text)), fraction_text)
    assert got == outcome(regex_parse_fraction, fraction_text)
    if got[0] == "value" and "/" not in fraction_text:
        assert parse_ratio(fraction_text)[1] == 1


def test_diagram_sum_coefficients():
    sums = [diagram_sum({(2,): c}) for c in (1, Fraction(1))] + [DiagramSum({(2,): 1})]
    assert all(s == sums[0] for s in sums)
    assert [type(c) for s in sums for c in terms(s).values()] == [Fraction] * 3
    half = diagram_sum({(2,): Fraction(2, 4), (1,): 3})
    assert (dict(half.numerators), half.denominator) == ({(2,): 1, (1,): 6}, 2)
    assert DiagramSum({(2,): 2, (1,): 12}, 4) == half


@pytest.mark.parametrize("coefficient", [0.5, "1", Decimal("0.5"), Fraction(1, 2)])
@pytest.mark.parametrize("make", [DiagramSum, PPoly])
def test_constructors_refuse_other_coefficients(make, coefficient):
    with pytest.raises(TypeError, match="is not an int"):
        make({(2,): coefficient})
    with pytest.raises(TypeError, match="is not an int"):
        make({(2,): 1}, coefficient)
    for denominator in (0, -1):
        with pytest.raises(ValueError, match="denominator %d is not positive" % denominator):
            make({(2,): 1}, denominator)
    if make is DiagramSum:  # a partition is checked, not sorted
        with pytest.raises(ValueError, match="weakly decreasing"):
            make({(1, 2): 1})


def test_constructors_reduce_to_lowest_terms():
    assert PPoly({(2,): 3}, 6) == parse_ppoly("1/2*p2")
    assert DiagramSum({(2,): 3}, 6) == parse_diagram_sum("1/2*[2]")
    assert PPoly({(1, 2): 1}) == PPoly({(2, 1): 1})  # a monomial is sorted
    # one exact-value class: equal only within one type, and repr names it
    assert PPoly({(2,): 1}) != DiagramSum({(2,): 1})
    assert DiagramSum({(2,): 1}) != PPoly({(2,): 1})
    assert [repr(PPoly({(2,): 3}, 6)), repr(DiagramSum({(2,): 3}, 6))] == [
        "PPoly(1/2*p2)", "DiagramSum(1/2*[2])"]
    # a Hurwitz series coefficient is a PPoly, printed as terms reads it
    f = generating_function([(2,)], 3, 2).coefficients[(((2,), 2),)]
    assert type(f) is PPoly
    assert terms(f) == {(1, 1): Fraction(1, 4), (3,): Fraction(1, 2), (1, 1, 1): Fraction(1, 4)}
    assert f.to_text() == "1/4*p1^2 + 1/4*p1^3 + 1/2*p3"
    assert parse_ppoly(f.to_text()) == ppoly(terms(f))


def test_as_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((0,))


def test_diagram_sum_arithmetic():
    a = DiagramSum({(2,): 2})
    b = DiagramSum({(2,): -2})
    assert diagram_sum(list(terms(a).items()) + list(terms(b).items())) == DiagramSum()
    s = diagram_sum([((2, 1), 1), ((1,), Fraction(1, 2))])
    assert list(terms(s).items()) == [((1,), Fraction(1, 2)), ((2, 1), 1)]
    assert diagram_sum((p, c) for p, c in terms(s).items() if degree(p) == 3) == DiagramSum(
        {(2, 1): 1})
    assert list(terms(diagram_sum((p, 3 * c) for p, c in terms(s).items())).items())[0] == (
        (1,), Fraction(3, 2))


def test_diagram_sum_text_round_trip():
    s = parse_diagram_sum("2*[2] + 1/2*[2,1]")
    assert s.to_text() == "2*[2] + 1/2*[2,1]"
    assert parse_diagram_sum(s.to_text()) == s
    assert parse_diagram_sum("[3]") == DiagramSum({(3,): 1})
    with pytest.raises(ParseError):
        parse_diagram_sum("2*[2] + ")


def test_diagram_sum_canonical_order():
    s = DiagramSum([((1, 1, 1), 1), ((3,), 1), ((2,), 1)])
    assert list(terms(s)) == [(2,), (3,), (1, 1, 1)]


PARTITIONS = st.lists(st.integers(1, 40), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
COEFFICIENTS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(PARTITIONS, st.dictionaries(PARTITIONS, COEFFICIENTS, max_size=5))
def test_text_round_trip_property(delta, coefficients):
    assert parse_partition(format_partition(delta)) == delta
    s = diagram_sum(coefficients)
    assert parse_diagram_sum(s.to_text()) == s


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-30, 30), st.integers(1, 24)),
                max_size=8))
def test_ratio_sum_property(ratios):
    numerators, q = ratio_sum(ratios)
    expected = {}
    for key, num, den in ratios:
        expected[key] = expected.get(key, 0) + Fraction(num, den)
    assert {key: Fraction(c, q) for key, c in numerators.items()} == {
        key: c for key, c in expected.items() if c}
    assert q > 0 and 0 not in numerators.values()
    assert math.gcd(q, *numerators.values()) == 1
    assert ratio_sum([]) == ({}, 1)
