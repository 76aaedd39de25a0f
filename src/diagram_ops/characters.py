"""Irreducible characters of symmetric groups, read from full tables.

char_table(n) builds the table of S_n once per process.  Characters,
Schur functions, structure constants and Hurwitz brackets all read it, so
it is shared read-only: rows are tuples behind a mapping proxy.

phi_column writes the normalized character phi once, and spectral_sum,
the one sum S_P(mu) = sum_R w_R prod_Y phi_R(Y)^k_Y chi_R(mu), reads it:
structure constants, Hurwitz brackets, simple Hurwitz numbers and the
generating function's coefficients are its values at w_R = d_R, and
Schur functions and every W(delta) f its values at other weights.

Tables are built by the Murnaghan-Nakayama rule read as addition: column
mu expands p_mu in Schur functions by adding border strips of sizes mu_i
to the empty shape (Macdonald, Symmetric Functions, I.3 ex. 11 and I.7).
A shape is a bead abacus (James-Kerber, ch. 2): an int with n set bits at
the first-column hook lengths lambda_i + n - 1 - i.  Adding a strip of
size t moves a bead from b to an empty b + t, with sign (-1)^(number of
beads strictly between them).
"""

from __future__ import annotations

import functools
import math
import types
from fractions import Fraction

from .errors import BoundError
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


def character(r: Partition, delta: Partition) -> int:
    """chi_R on the class of cycle type delta, read from the table of
    S_|R|.  The parts of delta may come in any order; degrees must match,
    and |R| above MAX_TABLE_DEGREE raises BoundError."""
    r = as_partition(r)
    delta = as_partition(sorted(delta, reverse=True))
    if degree(r) != degree(delta):
        raise ValueError(
            "degree mismatch: |R|=%d, |Delta|=%d" % (degree(r), degree(delta))
        )
    return char_table(degree(r)).entry(r, delta)


def phi(r: Partition, delta: Partition) -> Fraction:
    """Normalized character: the eigenvalue of the diagram operator of
    delta on the Schur function of r, read from phi_column.  The parts of
    delta may come in any order."""
    r = as_partition(r)
    nums, q = phi_column(degree(r), delta)
    # rows and classes share the table's one order
    return Fraction(nums[char_table(degree(r)).column(r)], q)


def phi_column(n: int, delta: Partition):
    """phi_R(delta) for every R of degree n, in table order, as integer
    numerators over one denominator q, divided by their gcd:

        phi_R(delta) = chi_R(delta 1^j) (n!/dim_R) / (z_delta j!),  j = n - |delta|,

    and a zero column when |delta| > n.  The parts of delta may come in
    any order, as in character."""
    delta = as_partition(sorted(delta, reverse=True))
    table = char_table(n)
    j = n - degree(delta)
    if j < 0:
        return [0] * len(table.order), 1
    i_delta, i_dim = table.column(pad(delta, j)), table.column((1,) * n)
    n_fact = math.factorial(n)
    nums = [row[i_delta] * (n_fact // row[i_dim]) for row in table.rows.values()]
    q = aut_order(delta) * math.factorial(j)
    g = math.gcd(q, *nums)
    return [x // g for x in nums], q // g


def spectral_sum(n: int, powers, weights=None):
    """S_P(mu) = sum_R w_R prod_Y phi_R(Y)^k_Y chi_R(mu) for every class mu
    of degree n, powers P = {Y: k_Y} and integer weights {R: w_R}, by
    default the Plancherel weights d_R = dim_R/n!, as (column, q): the
    value at the i-th class of the table's order is column[i] / q.  It is
    one integer weighted sum of the rows of the table of S_n; an unknown
    shape raises ValueError."""
    table = char_table(n)
    if weights is None:
        i_dim = table.column((1,) * n)
        ws, q = [row[i_dim] for row in table.rows.values()], math.factorial(n)
    else:
        for r in weights:
            if r not in table.rows:
                raise table._unknown("shape", r)
        ws, q = [weights.get(r, 0) for r in table.rows], 1
    for y, k in powers.items():
        nums, q_y = phi_column(n, y)
        ws = [w * x ** k for w, x in zip(ws, nums)]
        q *= q_y ** k
    return table.weighted_sum({r: w for r, w in zip(table.rows, ws) if w}), q


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

    def entry(self, r: Partition, delta: Partition) -> int:
        """chi_r(delta); r and delta must be partitions of n, parts decreasing."""
        try:
            return self.rows[tuple(r)][self._col[tuple(delta)]]
        except KeyError:
            kind, label = ("class", delta) if tuple(r) in self.rows else ("shape", r)
            raise self._unknown(kind, label) from None

    def weighted_sum(self, weights) -> list:
        """sum_R w_R chi_R(mu) for every class mu, in column order, for
        integer weights {R: w_R}; rows of weight 0, common in products of
        characters, are skipped.  An unknown shape raises ValueError."""
        out = [0] * len(self.order)
        for r, w in weights.items():
            row = self.rows.get(tuple(r))
            if row is None:
                raise self._unknown("shape", r)
            if w:
                out = [a + w * x for a, x in zip(out, row)]
        return out

    def _unknown(self, kind: str, label) -> ValueError:
        return ValueError("%s is not a %s of S_%d (parts must be decreasing and sum to %d)"
                          % (format_partition(label), kind, self.n, self.n))

    def to_json_obj(self):
        return {
            "n": self.n,
            "order": [list(p) for p in self.order],
            "rows": {
                format_partition(r): [str(x) for x in self.rows[r]] for r in self.order
            },
        }


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
def _build_table(n: int) -> CharacterTable:
    """Column mu adds mu's parts in ascending order; the column of each part
    prefix is built once and shared until the build ends."""
    order = partitions_of(n)
    by_prefix = {(): {(1 << n) - 1: 1}}
    for mu in order:
        parts = mu[::-1]
        for k in range(1, len(parts) + 1):
            if parts[:k] not in by_prefix:
                by_prefix[parts[:k]] = _add_strips(by_prefix[parts[:k - 1]], parts[k - 1])
    columns = [by_prefix[mu[::-1]] for mu in order]
    rows = {}
    for r in order:
        mask = sum(1 << (p + n - 1 - i) for i, p in enumerate(r + (0,) * (n - len(r))))
        rows[r] = [column.get(mask, 0) for column in columns]
    return CharacterTable(n, order, rows)


def char_table(n: int) -> CharacterTable:
    """Character table of S_n, built once per process and shared: the only memo."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_TABLE_DEGREE:
        raise BoundError("char_table(%d) exceeds bound %d" % (n, MAX_TABLE_DEGREE))
    return _build_table(n)
