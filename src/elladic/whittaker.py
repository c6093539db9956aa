"""Diagonal Whittaker values for unramified data.

The value at the diagonal matrix with exponent vector a (an int tuple)
splits into a half-integer power of q, kept symbolic as an integer
exponent m meaning q^(m/2), and a coefficient given by a rational Schur
value in the Satake entries, computed by the division-free Jacobi-Trudi
determinant in complete homogeneous sums.

Values vanish off dominant exponent vectors, and the normalization at
a = 0 is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import BadSquareRoot, ConfigMismatch, NotCongruent, NotIntegral, TooLarge
from .function_field import DEFAULT_ENUMERATION_CAP
from .padic import LocalNumber, certified_sum
from .satake import (SatakeParam, char_poly, complete_homogeneous_table,
                     congruent, elementary_symmetric_all, is_integral)


def _weight(a) -> tuple:
    """The exponent vector a as an int tuple of length >= 1; a float or a
    bool entry is refused, not truncated."""
    a = tuple(a)
    if not a:
        raise ValueError("weight must have length >= 1")
    if any(not isinstance(x, int) or isinstance(x, bool) for x in a):
        raise ValueError(f"weight entries must be integers, not {a!r}")
    return a


def is_dominant(a) -> bool:
    return all(a[i] >= a[i + 1] for i in range(len(a) - 1))


@dataclass(frozen=True)
class WhittakerValue:
    """coef times q^(q_half_exp / 2); the zero value is canonical (m = 0)."""

    coef: LocalNumber
    q_half_exp: int

    @classmethod
    def make(cls, coef: LocalNumber, m: int) -> "WhittakerValue":
        return cls(coef, 0 if coef.is_zero else m)

    @property
    def is_zero(self) -> bool:
        return self.coef.is_zero


def half_exponent(a) -> int:
    """m with q^(m/2) the modulus factor: m = sum a_j (2j - n - 1)."""
    n = len(a)
    return sum(a[j] * (2 * (j + 1) - n - 1) for j in range(n))


def schur_value(S: SatakeParam, a) -> LocalNumber:
    """The rational Schur value s_a(mu) for dominant a, division-free.

    The weight is shifted by its last entry so the remaining partition has
    last part zero; the shift contributes a power of e_n = prod mu_i
    (negative shifts use the inverse, which exists since all entries are
    nonzero) and the partition part is the Jacobi-Trudi determinant
    det(h_{lambda_i - i + j}).
    """
    a = _weight(a)
    n = S.n
    if len(a) != n:
        raise ValueError("weight length must equal the parameter rank")
    if not is_dominant(a):
        raise ValueError("schur_value requires a dominant weight")
    return _schur_evaluator(S, a[0] - a[n - 1] + n - 1)(a)


def _schur_evaluator(S: SatakeParam, kmax: int):
    """schur_value of S as a function of dominant a with a_1 - a_n + n - 1
    <= kmax.  The h table and its negation, e_n, each power of e_n and
    each minor (see _minor) are computed once, shared by its weights; a
    kmax above DEFAULT_ENUMERATION_CAP raises TooLarge before the table."""
    if kmax > DEFAULT_ENUMERATION_CAP:
        raise TooLarge(f"an h table to degree {kmax} exceeds the cap {DEFAULT_ENUMERATION_CAP}")
    n = S.n
    h = complete_homogeneous_table(S, kmax)
    neg = [-x for x in h]
    e_n = elementary_symmetric_all(S)[n]
    minors, powers = {}, {}

    def value(a):
        c = a[n - 1]
        d = _minor(h, neg, minors, tuple([a[i] - c - i for i in range(n)]))
        if c == 0:
            return d
        if c not in powers:
            powers[c] = e_n ** c
        return d * powers[c]

    return value


def _minor(h, neg, minors, starts):
    """det(h_{s_i + j}) for row starts s_i, zero below h_0: the cofactor
    expansion along the first column memoised in minors, each alternating
    sum a certified_sum (so the plain expansion's digits wherever it
    returns).  An odd row's term takes its entry from neg = -h: the digits
    of the negated product.  A module function, not a closure, so a
    finished sweep leaves no reference cycle."""
    if len(starts) == 1:
        return h[starts[0]] if starts[0] >= 0 else h[0].config.zero()
    d = minors.get(starts)
    if d is None:
        shifted = tuple([t + 1 for t in starts])
        terms = []
        for i, s in enumerate(starts):
            if s >= 0 and h[s].coeffs:
                sub = _minor(h, neg, minors, shifted[:i] + shifted[i + 1:])
                terms.append((neg if i % 2 else h)[s] * sub)
        minors[starts] = d = certified_sum(h[0].config, terms)
    return d


def whittaker_value(S: SatakeParam, a) -> WhittakerValue:
    """Value at the diagonal point with exponents a: zero off dominant
    weights, otherwise (s_a(mu), sum a_j (2j - n - 1))."""
    return _whittaker_value(S, _weight(a))


@lru_cache(maxsize=256)
def _whittaker_value(S: SatakeParam, a: tuple) -> WhittakerValue:
    """whittaker_value on a normalized weight, memoised: the global
    verifier asks for the same few (parameter, weight) pairs many times."""
    if len(a) != S.n:
        raise ValueError("weight length must equal the parameter rank")
    if not is_dominant(a):
        return WhittakerValue.make(S.config.zero(), 0)
    return WhittakerValue.make(schur_value(S, a), half_exponent(a))


@lru_cache(maxsize=16)
def check_sqrt_q(sqrt_q: LocalNumber, q: int):
    """Raise BadSquareRoot unless sqrt_q squares to q to full precision;
    memoised, so a right root is checked once."""
    check = sqrt_q * sqrt_q - sqrt_q.config.integer(q)
    if not check.is_zero and check.valuation() < sqrt_q.config.precision:
        raise BadSquareRoot(f"supplied root does not square to {q}")


def collapse(W: WhittakerValue, sqrt_q: LocalNumber, q: int) -> LocalNumber:
    """coef * sqrt_q^m as a plain field element; sqrt_q must square to q."""
    check_sqrt_q(sqrt_q, q)
    return W.coef * sqrt_q ** W.q_half_exp


# ---------------------------------------------------------------------------
# the congruence checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    weight: tuple
    kind: str
    detail: str


@dataclass(frozen=True)
class CongruenceReport:
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": [
                {"weight": list(v.weight), "kind": v.kind, "detail": v.detail}
                for v in self.violations
            ],
        }


def dominant_weights(n: int, bound: int):
    """All non-increasing integer vectors of length n with entries in
    [-bound, bound], in lexicographic order."""
    return sorted(c[::-1] for c in combinations_with_replacement(range(-bound, bound + 1), n))


def check_congruence(S1: SatakeParam, S2: SatakeParam, bound: int) -> CongruenceReport:
    """Compare the two value families over every dominant weight in the
    box [-bound, bound]^n.

    Preconditions: equal rank and q, both characteristic polynomials
    integral with equal reductions, bound >= 0, and at most
    DEFAULT_ENUMERATION_CAP weights (TooLarge before any table is built).
    For each weight the checker demands integral coefficients on both
    sides, equal q-half-exponents and equal residues; any failure is
    recorded as a violation.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if S1.config != S2.config:
        raise ConfigMismatch("parameters use different configurations")
    if S1.n != S2.n or S1.q != S2.q:
        raise ConfigMismatch("parameters have different rank or residual cardinality")
    if (count := math.comb(2 * bound + S1.n, S1.n)) > DEFAULT_ENUMERATION_CAP:
        raise TooLarge(f"{count} dominant weights exceed the cap {DEFAULT_ENUMERATION_CAP}")
    P1, P2 = char_poly(S1), char_poly(S2)
    if not (is_integral(P1) and is_integral(P2)):
        raise NotIntegral("both parameter sets must have integral characteristic polynomials")
    if not congruent(P1, P2):
        raise NotCongruent("characteristic polynomials have different reductions")

    n = S1.n
    kmax = 2 * bound + n - 1
    schur1, schur2 = _schur_evaluator(S1, kmax), _schur_evaluator(S2, kmax)

    # the verdict is read from the digits: a nonzero value is integral
    # for v >= 0, and for d = 1 its residue is its unit digit mod l at
    # v = 0, else 0; reduce() serves d >= 2
    ell, d = S1.config.ell, S1.config.d
    weights = dominant_weights(n, bound)
    violations = []
    for a in weights:
        c1, c2 = schur1(a), schur2(a)
        if c1.coeffs and c1.v < 0 or c2.coeffs and c2.v < 0:
            violations.append(Violation(a, "non-integral",
                                        f"valuations {c1.valuation()}, {c2.valuation()}"))
        elif (c1.reduce() != c2.reduce() if d > 1 else
              (c1.coeffs[0] % ell if c1.coeffs and not c1.v else 0)
              != (c2.coeffs[0] % ell if c2.coeffs and not c2.v else 0)):
            violations.append(Violation(a, "residue-mismatch",
                                        f"{_residue_text(c1)} vs {_residue_text(c2)}"
                                        f" at m={half_exponent(a)}"))
    return CongruenceReport(len(weights), tuple(violations))


def _residue_text(x: LocalNumber) -> str:
    """The residue of integral x as a violation detail shows it."""
    cfg, r = x.config, x.reduce()
    if cfg.d == 1:
        return f"Residue({r[0]} mod {cfg.ell})"
    return f"Residue{r} mod ({cfg.ell}, M)"
