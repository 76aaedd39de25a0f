"""Exact-arithmetic algebra of Young diagrams, symmetric-group characters,
cut-and-join-type differential operators, and genus-0 Hurwitz numbers.

The public names below are resolved on first access (PEP 562), so
`import diagram_ops` loads no layer and each name loads only its own
module and what that module imports.
"""

import importlib

_EXPORTS = {
    "partitions": (
        "as_partition",
        "aut_order",
        "class_size",
        "conjugate",
        "degree",
        "kappa",
        "multiplicity",
        "pad",
        "parse_partition",
        "partitions_of",
    ),
    "characters": ("char_table", "character", "phi"),
    "class_algebra": (
        "DiagramSum",
        "graded_piece",
        "mult_infinity",
        "mult_same_degree",
        "mult_sum",
        "parse_diagram_sum",
        "structure_constant",
    ),
    "psym": ("PPoly", "apply_spectral", "exp_p1", "from_schur", "p_monomial", "schur",
             "schur_expand"),
    "hurwitz": (
        "HurwitzSeries",
        "generating_function",
        "hurwitz_chain",
        "hurwitz_padded",
        "simple_hurwitz",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value

