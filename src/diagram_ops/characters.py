"""Irreducible characters of symmetric groups, read from full tables.

char_table(n) builds the table of S_n once per process, and no n above
MAX_TABLE_DEGREE gets past its bound check.  Characters, Schur functions,
structure constants and Hurwitz brackets all read it, so it is shared
read-only: rows are tuples behind a mapping proxy.

phi_column writes the normalized character phi, an integer, as one
column per diagram, and spectral_sum, the one sum
S_P(mu) = sum_R w_R prod_Y phi_R(Y)^k_Y chi_R(mu), reads it, all in
ints: Hurwitz brackets and the generating function's coefficients are
its values at the Plancherel weights w_R = d_R = dim_R/n!, which it
keeps as dim_R over n!, the graded product A B its values at the integer
weights dim_R phi_R(A) phi_R(B), and Schur functions and every W(delta) f
its values at the integer numerators of their Schur coefficients.

Tables are built by the Murnaghan-Nakayama rule read as addition: column
mu expands p_mu in Schur functions by adding border strips of sizes mu_i
to the empty shape (Macdonald, Symmetric Functions, I.3 ex. 11 and I.7).
A shape is a bead abacus (James-Kerber, ch. 2): an int with N set bits at
lambda_i + N - 1 - i, i < N, for N = MAX_TABLE_DEGREE beads, enough for
every shape of every table.  Adding a strip of size t moves a bead from b
to an empty b + t, with sign (-1)^(number of beads strictly between them).
A mask does not depend on the degree, so the column of each part prefix
is built once per process and shared by the tables of every degree.
"""

import functools
import math
import types

from .errors import BoundError, ConsistencyError
from .partitions import (
    Partition,
    as_partition,
    aut_order,
    degree,
    format_partition,
    pad,
    partitions_of,
)

#: Largest degree for which full tables are built (p(12) = 77 rows).
MAX_TABLE_DEGREE = 12


def phi(r: Partition, delta: Partition) -> int:
    """Normalized character: the eigenvalue of the diagram operator of
    delta on the Schur function of r, read from phi_column.  The parts of
    delta may come in any order."""
    r = as_partition(r)
    # rows and classes share the table's one order
    return phi_column(degree(r), delta)[char_table(degree(r)).column(r)]


def phi_column(n: int, delta: Partition) -> list:
    """phi_R(delta) for every R of degree n, in table order:

        phi_R(delta) = chi_R(delta 1^j) (n!/dim_R) / (z_delta j!),  j = n - |delta|,

    the central character of the class of delta 1^j times C(m_1 + j, j),
    m_1 the unit rows of delta, so an integer, which is checked; a zero
    column when |delta| > n.  The parts of delta may come in any order,
    as in character."""
    delta = as_partition(sorted(delta, reverse=True))
    table = char_table(n)
    j = n - degree(delta)
    if j < 0:
        return [0] * len(table.order)
    i_delta, i_dim = table.column(pad(delta, j)), table.column((1,) * n)
    n_fact = math.factorial(n)
    nums = [row[i_delta] * (n_fact // row[i_dim]) for row in table.rows.values()]
    q = aut_order(delta) * math.factorial(j)
    if math.gcd(q, *nums) != q:
        raise ConsistencyError("non-integral phi for %s at degree %d" % (delta, n))
    return [x // q for x in nums]


def spectral_sum(n: int, powers, weights=None):
    """S_P(mu) = sum_R w_R prod_Y phi_R(Y)^k_Y chi_R(mu) for every class mu
    of degree n, powers P = {Y: k_Y} with ints k_Y >= 0 (ValueError
    otherwise) and int weights w_R, a list in the table's row order, by
    default the Plancherel weights d_R = dim_R/n!, as (column, q): the
    value at the i-th class of the table's order is column[i] / q, with
    q = n! under the Plancherel weights and 1 under given ones, one per
    row (ValueError otherwise).  It is one integer sum of the rows of the
    table of S_n, rows of weight 0 skipped."""
    table = char_table(n)
    q, out = 1, [0] * len(table.order)
    if weights is None:
        i_dim = table.column((1,) * n)
        weights, q = [row[i_dim] for row in table.rows.values()], math.factorial(n)
    elif len(weights) != len(out):
        raise ValueError("n = %d takes %d weights, not %d" % (n, len(out), len(weights)))
    for y, k in powers.items():
        if not isinstance(k, int) or k < 0:
            raise ValueError("power %r of %s is not an int >= 0" % (k, y))
        weights = [w * x ** k for w, x in zip(weights, phi_column(n, y))]
    for w, row in zip(weights, table.rows.values()):
        if w:
            out = [a + w * x for a, x in zip(out, row)]
    return out, q


class CharacterTable:
    """Complete character table of S_n.

    Rows are irreducible labels, columns are classes, both in canonical
    (reverse-lexicographic) order; entries are exact integers.  The order
    and each row are tuples and rows is a read-only mapping, because one
    table is shared by every caller in the process.
    """

    def __init__(self, n: int, order, rows):
        self.n = n
        self.order = tuple(order)
        self.rows = types.MappingProxyType({tuple(r): tuple(row) for r, row in rows.items()})
        self._col = {p: i for i, p in enumerate(self.order)}

    def column(self, delta: Partition) -> int:
        """Index of the class delta in order, and so in every row."""
        try:
            return self._col[tuple(delta)]
        except KeyError:
            raise self._unknown("class", delta) from None

    def _unknown(self, kind: str, label) -> ValueError:
        return ValueError("%s is not a %s of S_%d (parts must be decreasing and sum to %d)"
                          % (format_partition(label), kind, self.n, self.n))


def _add_strips(column: dict, t: int) -> dict:
    """{mask: chi} after adding a border strip of size t to every shape."""
    between = (1 << (t - 1)) - 1
    out = {}
    for mask, chi in column.items():
        movable = mask & ~(mask >> t)
        while movable:
            bead = movable & -movable
            movable ^= bead
            moved = mask ^ bead ^ (bead << t)
            sign = ((mask >> bead.bit_length()) & between).bit_count() & 1
            out[moved] = out.get(moved, 0) + (-chi if sign else chi)
    return out


@functools.lru_cache(maxsize=None)
def _strip_column(parts: tuple) -> dict:
    """{mask: chi} for p_parts, parts ascending: strips of sizes parts added
    to the empty shape in order.  Each prefix is built once per process,
    for every degree, and the dicts are shared read-only."""
    if not parts:
        return {(1 << MAX_TABLE_DEGREE) - 1: 1}
    return _add_strips(_strip_column(parts[:-1]), parts[-1])


@functools.lru_cache(maxsize=None)
def char_table(n: int) -> CharacterTable:
    """Character table of S_n, built once per process and shared; this memo
    and _strip_column's are the module's two.  Column mu adds mu's parts
    in ascending order.  n must not exceed MAX_TABLE_DEGREE, the number of
    beads, and the check sits inside the memo, so nothing builds a larger
    table."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_TABLE_DEGREE:
        raise BoundError("char_table(%d) exceeds bound %d" % (n, MAX_TABLE_DEGREE))
    order = partitions_of(n)
    columns = [_strip_column(mu[::-1]) for mu in order]
    rows = {}
    for r in order:
        mask = sum(1 << (p + MAX_TABLE_DEGREE - 1 - i)
                   for i, p in enumerate(r + (0,) * (MAX_TABLE_DEGREE - len(r))))
        rows[r] = [column.get(mask, 0) for column in columns]
    return CharacterTable(n, order, rows)
