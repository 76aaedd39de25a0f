"""Mutation checks: each mutant is a small change to the kernel, made in
process, and the check it names must fail while it is in place.

A source mutant recompiles one function with one piece of its source
replaced, and the piece must occur exactly once, so a mutant that no
longer matches the code fails loudly instead of testing nothing.  The
mutant is bound wherever the package imported the original, and the
character tables are rebuilt before and after it.

A check is either the quick selftest, which names its failing suites or
the ConsistencyError that stopped it, or an oracle comparison.
"""

import __future__
import contextlib
import inspect
import re
import sys
import textwrap
from fractions import Fraction

import pytest

from diagram_ops import characters, psym
from diagram_ops.errors import ConsistencyError
from diagram_ops.oracles import jacobi_trudi, selftest_suites

SEED = 20101146
_BUILD_TABLE = characters._build_table


def quick_selftest() -> str:
    """The names of the failing quick selftest suites, or the message of
    the ConsistencyError that stopped the run; empty when all pass."""
    try:
        report = selftest_suites("quick", SEED)
    except ConsistencyError as exc:
        return str(exc)
    return " ".join(s["name"] for s in report["suites"] if s["failures"])


def from_schur_vs_jacobi_trudi() -> str:
    """from_schur of coefficients with unequal denominators against the
    same sum of Jacobi-Trudi determinants."""
    coeffs = {(3,): Fraction(1, 2), (2, 1): Fraction(-2, 3), (1, 1, 1): 1}
    expected = sum((jacobi_trudi(r) * c for r, c in coeffs.items()), psym.PPoly.zero())
    return "" if psym.from_schur(coeffs) == expected else "from_schur_vs_jacobi_trudi"


def source_mutant(module, name, old, new):
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return module, name, namespace[name]


def s4_entry_mutant(r, cls):
    table = _BUILD_TABLE(4)
    rows = {s: list(row) for s, row in table.rows.items()}
    rows[r][table.column(cls)] *= -1
    broken = characters.CharacterTable(4, table.order, rows)
    return characters, "_build_table", lambda n: broken if n == 4 else _BUILD_TABLE(n)


@contextlib.contextmanager
def installed(module, name, mutant):
    real = getattr(module, name)
    holders = [m for key, m in list(sys.modules.items())
               if key.startswith("diagram_ops") and getattr(m, name, None) is real]
    _BUILD_TABLE.cache_clear()
    for m in holders:
        setattr(m, name, mutant)
    try:
        yield
    finally:
        for m in holders:
            setattr(m, name, real)
        _BUILD_TABLE.cache_clear()


#: (mutant, how to make it, the check, a pattern its failure report matches)
MUTANTS = [
    ("phi_column without j!",
     lambda: source_mutant(characters, "phi_column", "q = aut_order(delta) * math.factorial(j)",
                           "q = aut_order(delta)"),
     quick_selftest, "explicit_vs_spectral_operators"),
    ("phi_column without z_Y",
     lambda: source_mutant(characters, "phi_column", "q = aut_order(delta) * math.factorial(j)",
                           "q = math.factorial(j)"),
     quick_selftest, "structure_constants_vs_oracle"),
    ("spectral_sum with twice the Plancherel q",
     lambda: source_mutant(characters, "spectral_sum", "math.factorial(n)",
                           "2 * math.factorial(n)"),
     quick_selftest, "non-integral structure constant"),
    ("from_schur with the largest denominator for the common one",
     lambda: source_mutant(psym, "from_schur", "math.lcm(", "max("),
     from_schur_vs_jacobi_trudi, "from_schur_vs_jacobi_trudi"),
    ("_add_strips without the strip sign",
     lambda: source_mutant(characters, "_add_strips", "(-chi if sign else chi)", "chi"),
     quick_selftest, "non-integral"),
    ("S_4 table with chi_[3,1]([2,2]) negated",
     lambda: s4_entry_mutant((3, 1), (2, 2)),
     quick_selftest, "non-integral structure constant"),
]


def test_checks_pass_without_mutants():
    assert quick_selftest() == ""
    assert from_schur_vs_jacobi_trudi() == ""


@pytest.mark.parametrize("make, check, caught_by", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(make, check, caught_by):
    with installed(*make()):
        report = check()
    assert re.search(caught_by, report), report
