import itertools
import math
import random
import re

import pytest
from fractions import Fraction

from diagram_ops import characters
from diagram_ops.errors import BoundError, ConsistencyError
from diagram_ops.characters import (
    MAX_TABLE_DEGREE,
    CharacterTable,
    char_table,
    phi,
    phi_column,
    spectral_sum,
)
from diagram_ops.partitions import (
    aut_order,
    degree,
    multiplicity,
    pad,
    partitions_of,
)
from diagram_ops.oracles import (
    character,
    check_orthogonality,
    class_size,
    conjugate,
    d_r,
    dimension,
    mn_character,
    table_entry,
    terms,
)
from diagram_ops.psym import from_schur

# Explicit matrix models of the irreducible representations of S_3,
# indexed by class representatives, used as a from-scratch oracle.
# Standard 2-dim rep acts on {x : x1+x2+x3 = 0} in the basis
# (e1-e2, e2-e3); traces are computed by hand from the matrices:
#   id -> [[1,0],[0,1]]              trace 2
#   (12) -> [[-1,1],[0,1]]           trace 0
#   (123) -> [[0,-1],[1,-1]]         trace -1
S3_ORACLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}


def test_s2_characters():
    assert character((2,), (2,)) == 1
    assert character((1, 1), (2,)) == -1
    assert character((2,), (1, 1)) == 1
    assert character((1, 1), (1, 1)) == 1


def test_s3_characters_match_matrix_oracle():
    for r, row in S3_ORACLE.items():
        for delta, value in row.items():
            assert character(r, delta) == value


def test_trivial_representation():
    for n in range(1, 7):
        for delta in partitions_of(n):
            assert character((n,), delta) == 1


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        character((2,), (2, 1))


def test_character_above_table_bound():
    with pytest.raises(BoundError):
        character((13,), (13,))
    with pytest.raises(BoundError):
        phi((1,) * 1200, (2,))


def test_character_validates_shape():
    for bad in [(1, 2), (2, 0, 1), (0,), (-1, 4)]:
        with pytest.raises(ValueError):
            character(bad, (3,))


def test_character_accepts_any_cycle_order():
    assert character((2, 1), (1, 2)) == character((2, 1), (2, 1)) == 0
    assert character((3, 1, 1), (1, 3, 1)) == character((3, 1, 1), (3, 1, 1)) == 0
    assert character((4, 1), (1, 2, 2)) == character((4, 1), (2, 2, 1)) == 0
    assert character((3, 2), (1, 2, 2)) == 1
    for cls in [(2, 0, 1), (3, -1, 1)]:
        with pytest.raises(ValueError):
            character((3,), cls)


def test_dimension():
    assert dimension((2, 1)) == 2
    assert dimension((2, 2)) == 2
    for n in range(1, 7):
        assert dimension((n,)) == 1
    for n in range(1, 9):
        for r in partitions_of(n):
            assert dimension(r) == character(r, (1,) * n)


def test_d_r():
    assert d_r((1,)) == 1
    assert d_r((2,)) == Fraction(1, 2)
    assert d_r((1, 1)) == Fraction(1, 2)
    assert d_r((2, 1)) == Fraction(1, 3)


def test_row_and_column_orthogonality():
    for n in range(1, 9):
        table = char_table(n)
        check_orthogonality(table)
        # column form: sum_R chi_R(a) chi_R(b) = z_a [a = b]
        parts = table.order
        for a in parts:
            for b in parts:
                s = sum(table_entry(table, r, a) * table_entry(table, r, b) for r in parts)
                expected = math.factorial(n) // class_size(a) if a == b else 0
                assert s == expected
    t3 = char_table(3)
    broken = CharacterTable(3, t3.order, {**t3.rows, (3,): (1, 1, -1)})
    with pytest.raises(ConsistencyError, match=re.escape("orthogonality failure for rows (3,), (2, 1)")):
        check_orthogonality(broken)


def test_conjugate_sign_relation():
    for n in range(1, 7):
        for r in partitions_of(n):
            for delta in partitions_of(n):
                sign = (-1) ** (n - len(delta))
                assert character(r, delta) == sign * character(conjugate(r), delta)


def test_phi_examples():
    assert phi((2,), (2,)) == 1
    assert phi((1, 1), (2,)) == -1
    assert phi((1,), (1, 1)) == 0
    assert phi((2,), (1, 1)) == 1
    for n in range(1, 7):
        for r in partitions_of(n):
            assert phi(r, (1,)) == n


def test_phi_padding_relation():
    for nr in range(8):
        for r in partitions_of(nr):
            for nd in range(nr + 1):
                for delta in partitions_of(nd):
                    k = nr - nd
                    m1 = multiplicity(delta, 1)
                    lhs = phi(r, pad(delta, k))
                    rhs = Fraction(
                        math.factorial(m1) * math.factorial(k),
                        math.factorial(m1 + k),
                    ) * phi(r, delta)
                    assert lhs == rhs


def test_char_table_small():
    t1 = char_table(1)
    assert t1.rows == {(1,): (1,)}
    t3 = char_table(3)
    assert t3.order == ((3,), (2, 1), (1, 1, 1))
    for r, row in S3_ORACLE.items():
        assert table_entry(t3, r, (1, 1, 1)) == row[(1, 1, 1)]
        assert table_entry(t3, r, (2, 1)) == row[(2, 1)]
        assert table_entry(t3, r, (3,)) == row[(3,)]


def test_char_table_matches_mn_recursion():
    for n in range(13):
        table = char_table(n)
        for r in table.order:
            for j, delta in enumerate(table.order):
                assert table.rows[r][j] == mn_character(r, delta), (r, delta)
                assert table.column(delta) == j
        check_orthogonality(table)


def test_tables_do_not_depend_on_build_order():
    """The strip columns are shared across degrees, so building 12 down to 7
    must give what building 7 up to 12 gives, and both must agree with the
    Murnaghan-Nakayama recursion."""
    built = []
    for degrees in (range(12, 6, -1), range(7, 13)):
        characters.char_table.cache_clear()
        characters._strip_column.cache_clear()
        built.append({n: dict(char_table(n).rows) for n in degrees})
    assert built[0] == built[1]
    rng = random.Random(20101146)
    for n, rows in built[0].items():
        order = partitions_of(n)
        for _ in range(40):
            r, j = rng.choice(order), rng.randrange(len(order))
            assert rows[r][j] == mn_character(r, order[j]), (r, order[j])


def test_char_table_bound():
    with pytest.raises(BoundError):
        char_table(13)


def test_no_table_above_the_bead_count():
    # shapes sit on MAX_TABLE_DEGREE beads, so a table of S_13 would be
    # wrong (the shape [1^13] has no mask); the bound is checked inside the
    # memo, so neither the memo nor the function under it builds one, and
    # no other builder is left to call
    for build in (char_table, char_table.__wrapped__):
        with pytest.raises(BoundError, match="char_table\\(13\\) exceeds bound 12"):
            build(MAX_TABLE_DEGREE + 1)
    assert not hasattr(characters, "_build_table")
    with pytest.raises(BoundError):
        spectral_sum(13, {})
    with pytest.raises(BoundError):
        phi_column(13, (2,))


def test_char_table_is_shared_and_read_only():
    t = char_table(4)
    assert char_table(4) is t
    with pytest.raises(TypeError):
        t.rows[(4,)] = (0,) * 5
    with pytest.raises(TypeError):
        t.rows[(4,)][0] = 7
    with pytest.raises(TypeError):
        t.order[0] = (1, 1, 1, 1)
    assert table_entry(t, (4,), (4,)) == 1
    assert list(t.rows[(4,)]) == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("lookup, message", [
    (lambda t: table_entry(t, (2, 1), (1, 2)), "[1,2] is not a class of S_3"),
    (lambda t: table_entry(t, (2, 1), (2,)), "[2] is not a class of S_3"),
    (lambda t: table_entry(t, (1, 2), (2, 1)), "[1,2] is not a shape of S_3"),
    (lambda t: t.column((1, 2)), "[1,2] is not a class of S_3"),
    (lambda t: from_schur({(3,): 1, (1, 2): 0}), "[1,2] is not a shape of S_3"),
    (lambda t: from_schur({(2,): 1, (2, 1, 0): 1}), "[2,1,0] is not a shape of S_3"),
], ids=["entry-unsorted-class", "entry-wrong-degree", "entry-unsorted-shape", "column",
        "from-schur-unsorted-shape", "from-schur-zero-part"])
def test_table_lookup_names_unknown_label(lookup, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        lookup(char_table(3))


def test_phi_zero_above_degree():
    for r in partitions_of(2):
        for delta in partitions_of(4):
            assert phi(r, delta) == 0


def test_phi_accepts_any_cycle_order():
    assert phi((3, 1, 1, 1), (1, 2, 1)) == phi((3, 1, 1, 1), (2, 1, 1)) == -18
    for nr in range(7):
        for r in partitions_of(nr):
            for nd in range(6):
                for delta in partitions_of(nd):
                    value = phi(r, delta)
                    for order in set(itertools.permutations(delta)):
                        assert phi(r, order) == value, (r, order)


def test_phi_column_is_integral():
    # phi_R(delta) = chi_R(delta 1^j) n! / (dim_R z_delta j!), from the oracles
    for n in range(9):
        for nd in range(n + 2):
            for delta in partitions_of(nd):
                column = phi_column(n, delta)
                assert all(type(x) is int for x in column), (n, delta)
                j = n - nd
                expected = [
                    0 if j < 0 else Fraction(
                        mn_character(r, pad(delta, j)) * math.factorial(n),
                        dimension(r) * aut_order(delta) * math.factorial(j))
                    for r in partitions_of(n)]
                assert column == expected, (n, delta)


def test_spectral_sum_matches_fraction_sum():
    # the Plancherel default, and integer, Fraction (as integer numerators
    # over their lcm) and mostly-zero or +-10^6 weights in table order,
    # against the same sum term by term in Fractions
    rng = random.Random(11)
    for n in range(9):
        order = char_table(n).order
        half = (len(order) + 1) // 2
        diagrams = [p for m in range(n + 2) for p in partitions_of(m)]
        for _ in range(4):
            powers = {y: rng.randint(0, 3) for y in rng.sample(diagrams, min(3, len(diagrams)))}
            for weights in [
                None,
                {r: rng.randint(-5, 5) for r in rng.sample(order, half)},
                {r: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                 for r in rng.sample(order, half)},
                {r: rng.choice([0, 0, 1, -1, rng.randint(-10**6, 10**6)]) for r in order},
            ]:
                ws = {r: d_r(r) for r in order} if weights is None else weights
                if weights is None:
                    column, q = spectral_sum(n, powers)
                    assert q == math.factorial(n)
                else:
                    scale = math.lcm(*(Fraction(w).denominator for w in weights.values()))
                    column, q = spectral_sum(n, powers,
                                             [int(weights.get(r, 0) * scale) for r in order])
                    assert q == 1
                    q = scale
                expected = [
                    sum((ws.get(r, 0) * math.prod(phi(r, y) ** k for y, k in powers.items())
                         * character(r, mu) for r in order), Fraction(0))
                    for mu in order]
                assert [Fraction(x, q) for x in column] == expected, (n, powers, weights)
    # given weights, 1/4, -5/6 and 1 over their lcm 12, come back over q = 1
    column, q = spectral_sum(3, {}, [3, -10, 12])
    assert q == 1
    assert column == [3 * x - 10 * y + 12 * z for x, y, z in zip(*char_table(3).rows.values())]


def test_spectral_sum_checks_its_weight_count():
    # S_3 has three classes; too few or too many weights are refused, not cut
    for weights in ([1], [1, 0, 0, 5]):
        with pytest.raises(ValueError, match="n = 3 takes 3 weights, not %d" % len(weights)):
            spectral_sum(3, {}, weights)


def test_spectral_sum_refuses_non_int_weights():
    # the kernel sums exactly: a float or Fraction weight is refused, not summed
    for weights in ([1.5, 0, 0], [Fraction(1, 2), 0, 0]):
        with pytest.raises(ValueError, match="n = 3 takes int weights"):
            spectral_sum(3, {(2,): 1}, weights)


@pytest.mark.parametrize("n, y, k", [(3, (3,), -1), (4, (2,), -1), (3, (2,), 1.5)],
                         ids=["negative", "zero_to_negative", "float"])
def test_spectral_sum_refuses_inexact_powers(n, y, k):
    with pytest.raises(ValueError, match=re.escape("power %r of %s is not an int >= 0" % (k, y))):
        spectral_sum(n, {y: k})


def test_phi_multiplicativity_small():
    # phi is a homomorphism from the diagram algebra; checked via the
    # graded product for small degrees
    from diagram_ops.class_algebra import mult_infinity

    diagrams = [p for n in (1, 2, 3) for p in partitions_of(n)]
    for nr in range(7):
        for r in partitions_of(nr):
            for d1 in diagrams:
                for d2 in diagrams:
                    product = mult_infinity(d1, d2)
                    total = sum(
                        (c * phi(r, d) for d, c in terms(product).items()),
                        Fraction(0),
                    )
                    assert total == phi(r, d1) * phi(r, d2)
