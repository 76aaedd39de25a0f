"""Symmetric functions as exact sparse polynomials in the power sums p_k.

A PPoly, a polynomial in the p_k, is a partitions.Ratios keyed by
exponent partitions.  It is defined in partitions, because the Hurwitz
series' coefficients are PPolys too, and exported here; parse_ppoly
reads its text and shows a bad factor through errors.quote.  Its
arithmetic, and the Fraction view of its coefficients, live in
diagram_ops.oracles, because only the oracles and the tests use them.

Schur functions are read from the character table; the bialternant and
Jacobi-Trudi routes that check them live in diagram_ops.oracles, which
only the tests and selftest import.

The operator W(delta) of a diagram has eigenvalue phi_R(delta) on schur(R),
so apply_spectral is a Schur expansion read back through the one spectral
sum (characters.spectral_sum); oracles checks it against apply_explicit,
the partial-permutation action, which reads no character table.

cmd_schur and cmd_wapply are the bodies of the schur and wapply commands.
"""

from .errors import BoundError, ParseError, quote
from .partitions import (
    MAX_ENUM_DEGREE,
    PPoly,
    Partition,
    Ratios,
    as_partition,
    aut_order,
    degree,
    parse_digits,
    parse_partition,
    parse_ratio,
    parse_terms,
)
from .characters import char_table, spectral_sum


def _read_monomial(chunk: str) -> tuple:
    """(monomial, numerator, denominator) of a term; only its first factor
    may be a coefficient, and every later one is a power sum."""
    factors = chunk.split("*")
    num, den = (1, 1) if factors[0].startswith("p") else parse_ratio(factors.pop(0))
    mono = []
    for factor in factors:
        body, caret, exp = factor[1:].partition("^")
        k, m = parse_digits(body), parse_digits(exp) if caret else 1
        if not factor.startswith("p") or None in (k, m):
            raise ParseError("malformed power-sum factor %s" % quote(factor))
        if k < 1:
            raise ParseError("power-sum index must be >= 1 in %s" % quote(factor))
        if k * m > MAX_ENUM_DEGREE:
            raise BoundError("factor %s has degree %s above bound %d"
                             % (quote(factor), quote(k * m), MAX_ENUM_DEGREE))
        mono.extend([k] * m)
    return tuple(sorted(mono, reverse=True)), num, den


def parse_ppoly(text: str) -> PPoly:
    """Parse the textual form produced by PPoly.to_text, e.g.
    '1/3*p1^3 + -1/3*p3' or '2' or 'p2*p1^2'."""
    return parse_terms(PPoly, text, "polynomial", _read_monomial)


def schur(r: Partition) -> PPoly:
    """Schur function of r in power sums by the Frobenius formula
    s_R = sum_mu chi_R(mu) p_mu / z_mu, read from the character table."""
    return from_schur({tuple(r): 1})


def schur_expand(f: PPoly) -> tuple:
    """(numerators, q) with f = sum_R (numerators[R] / q) schur(R), from
    p_delta = sum_R chi_R(delta) schur(R): per degree, one integer
    combination of the table's columns, over the one denominator q of f."""
    out = {}
    for n in f.degrees():
        table = char_table(n)
        piece = [(table.column(m), c) for m, c in f.numerators.items() if degree(m) == n]
        for r, row in table.rows.items():
            c = sum(num * row[j] for j, num in piece)
            if c:
                out[r] = c
    return out, f.denominator


def from_schur(coeffs: dict, q: int = 1, powers=()) -> PPoly:
    """sum_R (c_R / q) prod_Y phi_R(Y)^k_Y schur(R) for int c_R and powers
    {Y: k_Y}; with no powers, from_schur(*schur_expand(f)) is f.  Per
    degree the p_mu coefficients are one spectral sum with weights c_R,
    divided by q z_mu.  c_R and q are checked as Ratios checks its ints,
    and an unknown shape raises ValueError."""
    by_degree = {}
    for r, c in Ratios.int_pairs(coeffs, q):
        by_degree.setdefault(degree(r), {})[tuple(r)] = c
    ratios = []
    for n, cs in by_degree.items():
        table = char_table(n)
        for r in cs:
            if r not in table.rows:
                raise table._unknown("shape", r)
        column, _ = spectral_sum(n, dict(powers), [cs.get(r, 0) for r in table.order])
        ratios += [(mu, total, q * aut_order(mu))
                   for mu, total in zip(table.order, column) if total]
    return PPoly.of(ratios)


def apply_spectral(delta: Partition, f: PPoly) -> PPoly:
    """Apply the operator W(delta) of a diagram, from_schur of
    schur_expand(f) with powers {delta: 1}."""
    return from_schur(*schur_expand(f), {as_partition(delta): 1})


def cmd_schur(args, check_degrees):
    """The schur command: schur(R) in power sums."""
    r = parse_partition(args.r)
    check_degrees([degree(r)])
    f = schur(r)
    return f.to_text(), f.to_json_obj()


def cmd_wapply(args, check_degrees):
    """The wapply command: W(delta) f, spectrally or, with --explicit, by
    the partial-permutation action of diagram_ops.oracles."""
    delta = parse_partition(args.delta)
    f = parse_ppoly(args.poly)
    check_degrees([degree(delta)] + f.degrees())
    if args.explicit:
        from .oracles import apply_explicit as apply_operator
    else:
        apply_operator = apply_spectral
    result = apply_operator(delta, f)
    return result.to_text(), result.to_json_obj()
