"""Exact-arithmetic algebra of Young diagrams, symmetric-group characters,
cut-and-join-type differential operators, and genus-0 Hurwitz numbers."""

from .partitions import (
    DiagramSum,
    as_partition,
    aut_order,
    class_size,
    conjugate,
    degree,
    kappa,
    multiplicity,
    pad,
    parse_diagram_sum,
    parse_partition,
    partitions_of,
    rho,
)
from .characters import char_table, character, d_r, dimension, phi
from .class_algebra import (
    graded_piece,
    mult_infinity,
    mult_same_degree,
    mult_sum,
    structure_constant,
)
from .psym import (
    PPoly,
    exp_p1,
    from_schur,
    p_monomial,
    schur,
    schur_expand,
)
from .w_ops import apply_spectral, compose_check, eigenvalue
from .hurwitz import (
    HurwitzSeries,
    generating_function,
    hurwitz3,
    hurwitz_chain,
    hurwitz_padded,
    pde_residual,
    simple_hurwitz,
)

__version__ = "0.1.0"
