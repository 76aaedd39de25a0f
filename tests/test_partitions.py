import itertools
import math

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from diagram_ops.errors import BoundError, ParseError
from diagram_ops.class_algebra import DiagramSum, parse_diagram_sum, rho_term
from diagram_ops.partitions import (
    as_partition,
    aut_order,
    class_size,
    conjugate,
    degree,
    format_partition,
    kappa,
    multiplicity,
    pad,
    parse_fraction,
    parse_partition,
    partitions_of,
)
from diagram_ops.oracles import cycle_type


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


def test_kappa():
    assert kappa((2,)) == Fraction(1, 2)
    assert kappa((2, 1)) == Fraction(1, 2)
    assert kappa((2, 2)) == Fraction(1, 8)
    assert kappa(()) == 1


def test_aut_order():
    assert aut_order((1, 1)) == 2
    assert aut_order((3,)) == 3
    assert aut_order((2, 2)) == 8


def test_kappa_inverts_aut_order():
    for n in range(13):
        for p in partitions_of(n):
            assert kappa(p) * aut_order(p) == 1


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


def test_parse_fraction():
    assert parse_fraction("-3/4") == Fraction(-3, 4)
    assert parse_fraction("+12") == 12
    for bad in ["1e3", "0.5", " 1", "1 ", "1_000", "1/0", "3/-4", "/2", "", "\u0663"]:
        with pytest.raises(ParseError):
            parse_fraction(bad)


def test_as_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((0,))


def test_diagram_sum_arithmetic():
    a = DiagramSum.single((2,), 2)
    b = DiagramSum.single((2,), -2)
    assert DiagramSum(a.items() + b.items()) == DiagramSum.zero()
    s = DiagramSum(DiagramSum.single((1,), Fraction(1, 2)).items() + DiagramSum.single((2, 1)).items())
    assert s.coefficient((1,)) == Fraction(1, 2)
    assert DiagramSum((p, c) for p, c in s.items() if degree(p) == 3) == DiagramSum.single((2, 1))
    assert DiagramSum((p, 3 * c) for p, c in s.items()).coefficient((1,)) == Fraction(3, 2)


def test_diagram_sum_text_round_trip():
    s = parse_diagram_sum("2*[2] + 1/2*[2,1]")
    assert s.to_text() == "2*[2] + 1/2*[2,1]"
    assert parse_diagram_sum(s.to_text()) == s
    assert parse_diagram_sum("[3]") == DiagramSum.single((3,))
    with pytest.raises(ParseError):
        parse_diagram_sum("2*[2] + ")


def test_diagram_sum_canonical_order():
    s = DiagramSum([((1, 1, 1), 1), ((3,), 1), ((2,), 1)])
    assert [p for p, _ in s.items()] == [(2,), (3,), (1, 1, 1)]


PARTITIONS = st.lists(st.integers(1, 40), max_size=12).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
COEFFICIENTS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(PARTITIONS, st.dictionaries(PARTITIONS, COEFFICIENTS, max_size=5))
def test_text_round_trip_property(delta, terms):
    assert parse_partition(format_partition(delta)) == delta
    s = DiagramSum(terms)
    assert parse_diagram_sum(s.to_text()) == s
