"""Symmetric functions as exact sparse polynomials in the power sums p_k.

A monomial p_{l1} p_{l2} ... (l1 >= l2 >= ...) is keyed by its exponent
partition (l1, l2, ...); its graded degree is l1 + l2 + ... (deg p_k = k).
Coefficients are Fractions; zero terms are never stored.

Schur functions are read from the character table; the bialternant and
Jacobi-Trudi routes that check them live in diagram_ops.oracles, which
only the tests and selftest import.

The operator W(delta) of a diagram has eigenvalue phi_R(delta) on schur(R),
so apply_spectral is a Schur expansion read back through the one spectral
sum (characters.spectral_sum); oracles checks it against apply_explicit,
the partial-permutation action, which reads no character table.
"""

from __future__ import annotations

import math
import types
from fractions import Fraction

from .errors import BoundError, ParseError
from .partitions import (
    MAX_ENUM_DEGREE,
    Partition,
    as_partition,
    aut_order,
    degree,
    format_fraction,
    kappa,
    multiplicity,
    parse_fraction,
)
from .characters import char_table, spectral_sum


def _monomial_sort_key(mono: Partition):
    """Canonical monomial order: by graded degree, then lexicographically
    ascending on the exponent partition (so p1^3 precedes p3)."""
    return (degree(mono), mono)


class PPoly:
    """Sparse exact polynomial in the variables p_1, p_2, ...; terms is
    read-only, so a PPoly is a value that can be passed and kept without
    copying."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for mono, coef in (terms.items() if hasattr(terms, "items") else terms):
                key = tuple(sorted(mono, reverse=True))
                d[key] = d.get(key, Fraction(0)) + Fraction(coef)
        self.terms = types.MappingProxyType({m: c for m, c in d.items() if c})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): Fraction(1)})

    @classmethod
    def variable(cls, k: int):
        """The single power sum p_k."""
        if k < 1:
            raise ValueError("power-sum index must be >= 1")
        return cls({(k,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        """Graded degree of the highest stored monomial (0 for the zero poly)."""
        return max((degree(m) for m in self.terms), default=0)

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(tuple(sorted(mono, reverse=True)), Fraction(0))

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: _monomial_sort_key(kv[0]))

    def homogeneous_degrees(self):
        return sorted({degree(m) for m in self.terms})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PPoly({(): Fraction(other)})
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return PPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return PPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PPoly({(): Fraction(other)})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return PPoly({m: c * v for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(sorted(m1 + m2, reverse=True))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return PPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PPoly) and self.terms == other.terms

    def __repr__(self):
        return "PPoly(%s)" % self.to_text()

    def diff(self, k: int) -> "PPoly":
        """Partial derivative with respect to p_k."""
        out = {}
        for mono, coef in self.terms.items():
            m = multiplicity(mono, k)
            if not m:
                continue
            reduced = list(mono)
            reduced.remove(k)
            key = tuple(reduced)
            out[key] = out.get(key, Fraction(0)) + m * coef
        return PPoly(out)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mono, coef in self.items():
            factors = []
            for k in sorted(set(mono)):
                m = multiplicity(mono, k)
                factors.append("p%d" % k if m == 1 else "p%d^%d" % (k, m))
            body = "*".join(factors)
            chunks.append(format_fraction(coef) + ("*" + body if body else ""))
        return " + ".join(chunks)

    def to_json_obj(self):
        return {
            "terms": [
                {"mono": list(m), "coef": format_fraction(c)} for m, c in self.items()
            ],
        }


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdecimal()


def parse_ppoly(text: str) -> PPoly:
    """Parse the textual form produced by PPoly.to_text, e.g.
    '1/3*p1^3 + -1/3*p3' or '2' or 'p2*p1^2'."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", 0)
    if s == "0":
        return PPoly.zero()
    terms = []
    for chunk in s.split(" + "):
        factors = chunk.strip().split("*")
        coef = Fraction(1)
        mono = []
        for i, factor in enumerate(factors):
            if factor.startswith("p"):
                body, caret, exp = factor[1:].partition("^")
                if not _is_digits(body) or (caret and not _is_digits(exp)):
                    raise ParseError("malformed power-sum factor %r" % factor, 0)
                k, m = int(body), int(exp) if caret else 1
                if k < 1:
                    raise ParseError("power-sum index must be >= 1 in %r" % factor, 0)
                if k * m > MAX_ENUM_DEGREE:
                    raise BoundError("factor %r has degree %d above bound %d"
                                     % (factor, k * m, MAX_ENUM_DEGREE))
                mono.extend([k] * m)
            elif i == 0:
                coef = parse_fraction(factor)
            else:
                raise ParseError("coefficient %r must come first" % factor, 0)
        terms.append((tuple(mono), coef))
    return PPoly(terms)


def p_monomial(delta: Partition) -> PPoly:
    """kappa(delta) * p_delta, the class monomial attached to a diagram."""
    return PPoly({tuple(delta): kappa(delta)})


def schur(r: Partition) -> PPoly:
    """Schur function of r in power sums by the Frobenius formula
    s_R = sum_mu chi_R(mu) p_mu / z_mu, read from the character table."""
    return from_schur({tuple(r): 1})


def schur_expand(f: PPoly) -> dict:
    """Coefficients c_R with f = sum_R c_R * schur(R), computed gradewise
    from p_delta = sum_R chi_R(delta) schur(R)."""
    out = {}
    for n in f.homogeneous_degrees():
        table = char_table(n)
        piece = [(table.column(m), c) for m, c in f.terms.items() if degree(m) == n]
        for r, row in table.rows.items():
            c = sum(coef * row[j] for j, coef in piece)
            if c:
                out[r] = c
    return out


def from_schur(coeffs: dict, powers=()) -> PPoly:
    """sum_R c_R prod_Y phi_R(Y)^k_Y schur(R) for powers {Y: k_Y}; with
    no powers, the inverse of schur_expand.  Per degree the c_R share a
    denominator q, so the p_mu coefficients are one spectral sum with
    integer weights, divided by q z_mu."""
    by_degree = {}
    for r, c in coeffs.items():
        by_degree.setdefault(degree(r), {})[tuple(r)] = Fraction(c)
    terms = {}
    for n, cs in by_degree.items():
        q = math.lcm(*(c.denominator for c in cs.values()))
        weights = {r: c.numerator * (q // c.denominator) for r, c in cs.items()}
        column, q_p = spectral_sum(n, dict(powers), weights)
        for mu, total in zip(char_table(n).order, column):
            if total:
                terms[mu] = Fraction(total, q * q_p * aut_order(mu))
    return PPoly(terms)


def apply_spectral(x, f: PPoly) -> PPoly:
    """Apply the operator W(delta) of a diagram, from_schur(schur_expand(f),
    {delta: 1}), or linearly that of a diagram sum, told by its items so
    that this module need not load class_algebra."""
    coeffs = schur_expand(f)
    if not hasattr(x, "items"):
        return from_schur(coeffs, {as_partition(x): 1})
    return sum((from_schur(coeffs, {delta: 1}) * w for delta, w in x.items()), PPoly.zero())


def exp_p1(n: int) -> PPoly:
    """Truncation of e^{p_1} to graded degree n."""
    if n < 0:
        raise ValueError("truncation bound must be nonnegative")
    terms = {(1,) * k: Fraction(1, math.factorial(k)) for k in range(n + 1)}
    return PPoly(terms)
