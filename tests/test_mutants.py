"""Mutation checks: each mutant is a small change to the kernel, made in
process, and the check it names must fail while it is in place.

A source mutant recompiles one function with one piece of its source
replaced, and the piece must occur exactly once, so a mutant that no
longer matches the code fails loudly instead of testing nothing.  A table
mutant is a char_table whose table of one degree has one entry negated.
The corpus's make_corpus.char_table_with builds it and make_corpus.installed
binds every mutant wherever the package imported the original, with the
character tables and their strip columns rebuilt before and after it.

A check is either the quick selftest, which names its failing suites or
the ConsistencyError that stopped it, an oracle comparison, or one of the
suites that only the full selftest runs, which names its failing cases.  A mutant
that cannot change any result, such as negating a character table entry
that is 0, is not listed.
"""

import inspect
import operator
import re
import textwrap
from fractions import Fraction

import pytest

from diagram_ops import characters, class_algebra, hurwitz, oracles, partitions, psym
from diagram_ops.errors import ConsistencyError
from diagram_ops.oracles import (
    character,
    diagram_sum,
    jacobi_trudi,
    oracle_mult_infinity,
    poly_add,
    poly_mul,
    ppoly,
    selftest_suites,
    terms,
)
from diagram_ops.partitions import partitions_of

from test_golden import make_corpus

SEED = 20101146


def quick_selftest() -> str:
    """The names of the failing quick selftest suites, or the message of
    the ConsistencyError that stopped the run; empty when all pass."""
    try:
        report = selftest_suites("quick", SEED)
    except ConsistencyError as exc:
        return str(exc)
    return " ".join(s["name"] for s in report["suites"] if s["failures"])


def from_schur_vs_jacobi_trudi() -> str:
    """from_schur of 1/2, -2/3 and 1 as integer numerators over their lcm 6
    against the same sum of Jacobi-Trudi determinants."""
    coeffs = {(3,): Fraction(1, 2), (2, 1): Fraction(-2, 3), (1, 1, 1): 1}
    expected = {}
    for r, c in coeffs.items():
        expected = poly_add(expected, poly_mul(terms(jacobi_trudi(r)), c))
    got = psym.from_schur({r: int(c * 6) for r, c in coeffs.items()}, 6)
    return "" if got == ppoly(expected) else "from_schur_vs_jacobi_trudi"


def schur_expand_vs_characters() -> str:
    """schur_expand of a polynomial parsed with unequal denominators in
    several degrees, which ratio_sum brings over their lcm, against
    c_R = sum_mu f_mu chi_R(mu), summed in Fractions from the coefficients
    as given."""
    coefficients = {(2,): Fraction(1, 2), (1, 1): Fraction(-2, 3), (3,): Fraction(3, 4),
                    (2, 1): Fraction(5, 6), (1, 1, 1): 1}
    text = " + ".join("%s*%s" % (c, "*".join("p%d" % k for k in mu))
                      for mu, c in coefficients.items())
    numerators, q = psym.schur_expand(psym.parse_ppoly(text))
    got = {r: Fraction(c, q) for r, c in numerators.items()}
    expected = {r: sum(c * character(r, mu) for mu, c in coefficients.items() if sum(mu) == sum(r))
                for n in (2, 3) for r in partitions_of(n)}
    return "" if got == {r: c for r, c in expected.items() if c} else "schur_expand_vs_characters"


def printer_vs_fractions() -> str:
    """The printed coefficients, as coefficients() lists them, of a few
    polynomials, a mult_sum result and a Hurwitz series coefficient
    against str(Fraction), which reduces without the package's printer.
    The report names each use that prints a wrong coefficient."""
    values = [("polynomial", psym.parse_ppoly("2/3*p2 + -4/9*p1^2 + 6*p1")),
              ("polynomial", psym.schur((3, 1))),
              ("polynomial", psym.apply_spectral((2,), psym.parse_ppoly("2/3*p3 + 5/6*p2*p1"))),
              ("mult_sum", class_algebra.mult_sum(diagram_sum({(2,): Fraction(2, 3)}),
                                                  diagram_sum({(2,): 1}))),
              ("series", hurwitz.generating_function([(2,), (3,)], 4, 3).coefficients[
                  (((2,), 1), ((3,), 2))])]
    bad = [(use, k, text) for use, f in values for k, text in f.coefficients()
           if text != str(terms(f)[k])]
    return "printer_vs_fractions at %s" % bad if bad else ""


def mult_sum_vs_oracle() -> str:
    """mult of 1/2*[2] by 2/3*[2] + 1/3*[1], a/b on both sides, against
    partial-permutation counts summed in Fractions."""
    left, right = [((2,), Fraction(1, 2))], [((2,), Fraction(2, 3)), ((1,), Fraction(1, 3))]
    expected = {}
    for p, a in left:
        for q, b in right:
            for d, c in terms(oracle_mult_infinity(p, q)).items():
                expected[d] = expected.get(d, 0) + a * b * c
    got = class_algebra.mult_sum(diagram_sum(left), diagram_sum(right))
    return "" if got == diagram_sum(expected) else "mult_sum_vs_oracle"


def mult_infinity_vs_oracle() -> str:
    """The graded product against partial-permutation counting on every
    pair of diagrams of total degree <= 4, the pieces the quick selftest
    never multiplies."""
    pairs = [(d1, d2) for a in range(1, 4) for b in range(1, 5 - a)
             for d1 in partitions_of(a) for d2 in partitions_of(b)]
    bad = [p for p in pairs if class_algebra.mult_infinity(*p) != oracle_mult_infinity(*p)]
    return "mult_infinity_vs_oracle at %s" % bad if bad else ""


def _failing(name, agreements) -> str:
    """name and the cases of {case: agrees} that fail, or empty."""
    bad = [case for case, ok in agreements.items() if not ok]
    return "%s at %s" % (name, bad) if bad else ""


def coefficient_oracle_above_8() -> str:
    """The full selftest suite of the same name: the graded product against
    the table-free coefficient oracle at total degrees 10 and 12."""
    return _failing("coefficient_oracle_above_8", oracles.coefficient_oracle_above_8())


def closed_form_genus0(n_max=10) -> str:
    """The full selftest suite of the same name, at |mu| <= n_max: the
    connected numbers against Hurwitz's genus-0 formula."""
    return _failing("closed_form_genus0", oracles.closed_form_genus0(n_max))


def source_mutant(module, name, old, new):
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec", dont_inherit=True),
         namespace)
    return module, name, namespace[name]


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
     quick_selftest, "hurwitz_chain_vs_tuple_oracle"),
    ("spectral_sum with weight 1 for d_R",
     lambda: source_mutant(characters, "spectral_sum", "[row[i_dim] for row", "[1 for row"),
     quick_selftest, "hurwitz_chain_vs_tuple_oracle"),
    ("spectral_sum without the last column",
     lambda: source_mutant(characters, "spectral_sum", "zip(out, row)",
                           "zip(out, row[:-1] + (0,))"),
     quick_selftest, "structure_constants_vs_oracle"),
    ("mult_sum adding the lower pieces",
     lambda: source_mutant(class_algebra, "mult_sum", "-= w * c", "+= w * c"),
     mult_infinity_vs_oracle, "mult_infinity_vs_oracle"),
    ("mult_sum without the padding weight of the lower pieces at degree >= 9",
     lambda: source_mutant(class_algebra, "mult_sum", "w * c", "(w if n < 9 else 1) * c"),
     coefficient_oracle_above_8, r"coefficient_oracle_above_8 at .*\(2,\)"),
    ("from_schur with its weights in reversed table order",
     lambda: source_mutant(psym, "from_schur", "for r in table.order]",
                           "for r in reversed(table.order)]"),
     from_schur_vs_jacobi_trudi, "from_schur_vs_jacobi_trudi"),
    ("_class_product with b's phi in place of a's",
     lambda: source_mutant(class_algebra, "_class_product", "_phi_sum(a, n)", "_phi_sum(b, n)"),
     mult_sum_vs_oracle, "mult_sum_vs_oracle"),
    ("_add_strips without the strip sign",
     lambda: source_mutant(characters, "_add_strips", "(-chi if sign else chi)", "chi"),
     quick_selftest, "non-integral"),
    ("_add_strips with the strip sign flipped for strips of size >= 7",
     lambda: source_mutant(characters, "_add_strips", "(-chi if sign else chi)",
                           "(-chi if sign ^ (t >= 7) else chi)"),
     closed_form_genus0, r"closed_form_genus0 at .*\(7,\)"),
    ("phi_column with phi_[11] + 1 at n = 11",
     lambda: source_mutant(characters, "phi_column", "return [x // q for x in nums]",
                           "return [x // q + (n == 11 and i == 0) for i, x in enumerate(nums)]"),
     lambda: closed_form_genus0(11), r"closed_form_genus0 at \[\(11,\)"),
    ("PPoly's common denominator the largest, not the lcm",
     lambda: source_mutant(partitions, "ratio_sum", "math.lcm(", "max("),
     schur_expand_vs_characters, "schur_expand_vs_characters"),
    ("mult_sum over the left denominator alone",
     lambda: source_mutant(class_algebra, "mult_sum", "a.denominator * b.denominator",
                           "a.denominator"),
     mult_sum_vs_oracle, "mult_sum_vs_oracle"),
    ("format_ratio reducing by a wrong gcd",
     lambda: source_mutant(partitions, "format_ratio", "math.gcd(numerator, denominator)",
                           "math.gcd(numerator, 2 * denominator)"),
     printer_vs_fractions,
     r"printer_vs_fractions at .*'polynomial', \(2,\).*'mult_sum'.*'series'"),
    ("S_4 table with chi_[3,1]([2,2]) negated",
     lambda: (characters, "char_table",
              make_corpus.char_table_with(4, (3, 1), (2, 2), operator.neg)),
     quick_selftest, "non-integral structure constant"),
    ("S_10 table with chi_[6,2,2]([4,3,2,1]) negated",
     lambda: (characters, "char_table",
              make_corpus.char_table_with(10, (6, 2, 2), (4, 3, 2, 1), operator.neg)),
     closed_form_genus0, "closed_form_genus0"),
]


def test_checks_pass_without_mutants():
    assert quick_selftest() == ""
    assert from_schur_vs_jacobi_trudi() == ""
    assert schur_expand_vs_characters() == ""
    assert printer_vs_fractions() == ""
    assert mult_sum_vs_oracle() == ""
    assert mult_infinity_vs_oracle() == ""
    assert coefficient_oracle_above_8() == ""
    assert closed_form_genus0(11) == ""


def test_installed_empties_both_table_memos():
    # a table built before or under a mutant is never read after it
    memos = [characters.char_table, characters._strip_column]
    characters.char_table(4)
    with make_corpus.installed(psym, "from_schur", psym.from_schur):
        assert [m.cache_info().currsize for m in memos] == [0, 0]
        characters.char_table(4)
    assert [m.cache_info().currsize for m in memos] == [0, 0]


@pytest.mark.parametrize("make, check, caught_by", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(make, check, caught_by):
    with make_corpus.installed(*make()):
        report = check()
    assert re.search(caught_by, report), report
