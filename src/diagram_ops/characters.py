"""Irreducible characters of symmetric groups.

Characters are computed by the Murnaghan-Nakayama border-strip recursion,
implemented on first-column hook lengths (beta-numbers): removing a border
strip of size t from the shape corresponds to replacing a beta-number b by
b - t, with sign (-1)^(number of beta-numbers strictly between them).

The full table of each degree is built once per process and memoized in
memory (char_table).  It is the one kernel that Schur functions, structure
constants and Hurwitz brackets are read from, so it is read-only: rows are
tuples behind a mapping proxy.
"""

from __future__ import annotations

import functools
import math
import types
from fractions import Fraction

from .errors import BoundError, ConsistencyError
from .partitions import (
    Partition,
    class_size,
    degree,
    format_partition,
    kappa,
    pad,
    partitions_of,
)

#: Largest degree for which full tables are built (p(12) = 77 rows).
MAX_TABLE_DEGREE = 12


def _beta_numbers(shape: Partition):
    l = len(shape)
    return tuple(shape[i] + (l - 1 - i) for i in range(l))


def _shape_from_betas(betas):
    """Inverse of _beta_numbers; betas sorted decreasing, zero rows dropped."""
    l = len(betas)
    parts = tuple(b - (l - 1 - i) for i, b in enumerate(betas))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _strip_removals(shape: Partition, t: int):
    """Yield (smaller shape, sign) for each border strip of size t."""
    betas = _beta_numbers(shape)
    beta_set = set(betas)
    for b in betas:
        c = b - t
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in betas if c < x < b)
        new = tuple(sorted((beta_set - {b}) | {c}, reverse=True))
        yield _shape_from_betas(new), -1 if height % 2 else 1


@functools.lru_cache(maxsize=None)
def _mn(shape: Partition, cls: Partition) -> int:
    if not cls:
        return 1 if not shape else 0
    t, rest = cls[0], cls[1:]
    total = 0
    for smaller, sign in _strip_removals(shape, t):
        total += sign * _mn(smaller, rest)
    return total


def character(r: Partition, delta: Partition) -> int:
    """chi_R on the class of cycle type delta; degrees must match."""
    if degree(r) != degree(delta):
        raise ValueError(
            "degree mismatch: |R|=%d, |Delta|=%d" % (degree(r), degree(delta))
        )
    return _mn(tuple(r), tuple(delta))


def dimension(r: Partition) -> int:
    """Dimension of the irreducible labelled by r, via hook lengths."""
    n = degree(r)
    if n == 0:
        return 1
    from .partitions import conjugate

    t = conjugate(r)
    dim = math.factorial(n)
    for i, row in enumerate(r):
        for j in range(row):
            dim //= row - j + t[j] - i - 1
    return dim


@functools.lru_cache(maxsize=None)
def d_r(r: Partition) -> Fraction:
    """dim(r) / |r|!, the Plancherel weight of the irreducible r."""
    n = degree(r)
    return Fraction(dimension(r), math.factorial(n))


@functools.lru_cache(maxsize=None)
def phi(r: Partition, delta: Partition) -> Fraction:
    """Normalized character: the eigenvalue of the diagram operator of
    delta on the Schur function of r.

    phi_R(delta) = kappa(delta) * chi_R(delta padded to degree |R|)
                   / (d_R * (|R|-|delta|)!)
    and 0 when |R| < |delta|.
    """
    k = degree(r) - degree(delta)
    if k < 0:
        return Fraction(0)
    chi = character(r, pad(delta, k))
    return kappa(delta) * chi / (d_r(r) * math.factorial(k))


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

    def entry(self, r: Partition, delta: Partition) -> int:
        return self.rows[tuple(r)][self._col[tuple(delta)]]

    def row(self, r: Partition):
        return list(self.rows[tuple(r)])

    def check_orthogonality(self):
        """Raise ConsistencyError unless row orthogonality holds exactly."""
        sizes = [class_size(p) for p in self.order]
        n_fact = math.factorial(self.n)
        labels = self.order
        for a in labels:
            for b in labels:
                s = sum(
                    sz * x * y
                    for sz, x, y in zip(sizes, self.rows[a], self.rows[b])
                )
                if s != (n_fact if a == b else 0):
                    raise ConsistencyError(
                        "orthogonality failure for rows %s, %s" % (a, b)
                    )

    def to_json_obj(self):
        return {
            "n": self.n,
            "order": [list(p) for p in self.order],
            "rows": {
                format_partition(r): [str(x) for x in self.rows[r]] for r in self.order
            },
        }


@functools.lru_cache(maxsize=None)
def _build_table(n: int) -> CharacterTable:
    order = partitions_of(n)
    return CharacterTable(n, order, {r: [character(r, d) for d in order] for r in order})


def char_table(n: int) -> CharacterTable:
    """Character table of S_n, built once per process and shared."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_TABLE_DEGREE:
        raise BoundError("char_table(%d) exceeds bound %d" % (n, MAX_TABLE_DEGREE))
    return _build_table(n)
