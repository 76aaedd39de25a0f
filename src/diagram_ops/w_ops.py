"""Differential operators attached to Young diagrams, acting on PPoly.

apply_spectral works for every diagram: expand the argument in Schur
functions, scale the coefficient of R by the eigenvalue phi_R(delta), and
reassemble.  diagram_ops.oracles, which only the tests, selftest and
`wapply --explicit` import, checks this route against apply_explicit, the
partial-permutation action that reads no character table, and checks
W(d1) W(d2) = W(d1 d2) across the two routes (compose_check).
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import DiagramSum, Partition, as_partition
from .characters import phi
from .psym import PPoly, from_schur, schur_expand


def eigenvalue(delta: Partition, r: Partition) -> Fraction:
    """Eigenvalue of the operator of delta on the Schur function of r."""
    return phi(as_partition(r), as_partition(delta))


def apply_spectral(x, f: PPoly) -> PPoly:
    """Apply the operator of a diagram (or, linearly, of a diagram sum)."""
    if isinstance(x, DiagramSum):
        directions = list(x.items())
    else:
        directions = [(as_partition(x), Fraction(1))]
    coeffs = schur_expand(f)
    out = {}
    for delta, weight in directions:
        for r, c in coeffs.items():
            v = weight * c * phi(r, delta)
            if v:
                out[r] = out.get(r, Fraction(0)) + v
    out = {r: c for r, c in out.items() if c}
    return from_schur(out, bound=f.bound)
