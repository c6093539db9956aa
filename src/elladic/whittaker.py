"""Diagonal Whittaker values for unramified data.

The value at the diagonal matrix with exponent vector a splits into a
half-integer power of q, kept symbolic as an integer exponent m meaning
q^(m/2), and a coefficient given by a rational Schur value in the Satake
entries.  The production path is the division-free Jacobi-Trudi
determinant in complete homogeneous sums; the classical bialternant
quotient and a semistandard-tableau enumeration are provided as
independent cross-checks.

Values vanish off dominant exponent vectors, and the normalization at
a = 0 is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import (BadSquareRoot, ConfigMismatch, NotCongruent, NotIntegral,
                     TooLarge)
from .padic import LocalNumber, certified_sum
from .satake import (SatakeParam, char_poly, complete_homogeneous_table,
                     congruent, elementary_symmetric_all, is_integral)

ORACLE_MAX_RANK = 4
ORACLE_MAX_WEIGHT = 8


@dataclass(frozen=True)
class Weight:
    """An integer exponent vector for the diagonal torus."""

    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        if not self.a:
            raise ValueError("weight must have length >= 1")

    def __len__(self):
        return len(self.a)

    def __getitem__(self, i):
        return self.a[i]


def is_dominant(a: Weight) -> bool:
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


def _as_weight(a) -> Weight:
    return a if isinstance(a, Weight) else Weight(tuple(a))


def half_exponent(a: Weight) -> int:
    """m with q^(m/2) the modulus factor: m = sum a_j (2j - n - 1)."""
    n = len(a)
    return sum(a[j] * (2 * (j + 1) - n - 1) for j in range(n))


def _det(config, rows) -> LocalNumber:
    """Cofactor determinant; fine for the small matrices that arise here."""
    n = len(rows)
    if n == 0:
        return config.one()
    if n == 1:
        return rows[0][0]
    acc = config.zero()
    for i in range(n):
        c = rows[i][0]
        if c.is_zero:
            continue
        minor = [row[1:] for j, row in enumerate(rows) if j != i]
        term = c * _det(config, minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def schur_value(S: SatakeParam, a) -> LocalNumber:
    """The rational Schur value s_a(mu) for dominant a, division-free.

    The weight is shifted by its last entry so the remaining partition has
    last part zero; the shift contributes a power of e_n = prod mu_i
    (negative shifts use the inverse, which exists since all entries are
    nonzero) and the partition part is the Jacobi-Trudi determinant
    det(h_{lambda_i - i + j}).
    """
    a = _as_weight(a)
    n = S.n
    if len(a) != n:
        raise ValueError("weight length must equal the parameter rank")
    if not is_dominant(a):
        raise ValueError("schur_value requires a dominant weight")
    return _schur_evaluator(S, a[0] - a[n - 1] + n - 1)(a.a)


def _schur_evaluator(S: SatakeParam, kmax: int):
    """schur_value of S as a function of dominant a with a_1 - a_n + n - 1
    <= kmax.  The h table, e_n, each power of e_n and each minor (see
    _minor) are computed once, shared by the weights it is called on."""
    n = S.n
    h = complete_homogeneous_table(S, kmax)
    e_n = elementary_symmetric_all(S)[n]
    minors, powers = {}, {}

    def value(a):
        c = a[n - 1]
        d = _minor(h, minors, tuple(a[i] - c - i for i in range(n)))
        if c == 0:
            return d
        if c not in powers:
            powers[c] = e_n ** c
        return d * powers[c]

    return value


def _minor(h, minors, starts):
    """det(h_{s_i + j}) for row starts s_i, zero below h_0: _det's
    first-column expansion memoised in minors, each alternating sum a
    certified_sum (so _det's digits wherever _det returns).  A module
    function, not a closure, so a finished sweep leaves no reference cycle."""
    if len(starts) == 1:
        return h[starts[0]] if starts[0] >= 0 else h[0].config.zero()
    if starts not in minors:
        terms = []
        for i, s in enumerate(starts):
            if s >= 0 and not h[s].is_zero:
                term = h[s] * _minor(h, minors, tuple(t + 1 for t in starts[:i] + starts[i + 1:]))
                terms.append(term if i % 2 == 0 else -term)
        minors[starts] = certified_sum(h[0].config, terms)
    return minors[starts]


def whittaker_value(S: SatakeParam, a) -> WhittakerValue:
    """Value at the diagonal point with exponents a: zero off dominant
    weights, otherwise (s_a(mu), sum a_j (2j - n - 1))."""
    return _whittaker_value(S, _as_weight(a))


@lru_cache(maxsize=256)
def _whittaker_value(S: SatakeParam, a: Weight) -> WhittakerValue:
    """whittaker_value on a normalized weight, memoised: the global
    verifier asks for the same few (parameter, weight) pairs many times."""
    if len(a) != S.n:
        raise ValueError("weight length must equal the parameter rank")
    if not is_dominant(a):
        return WhittakerValue.make(S.config.zero(), 0)
    return WhittakerValue.make(schur_value(S, a), half_exponent(a))


def check_sqrt_q(sqrt_q: LocalNumber, q: int):
    """Raise BadSquareRoot unless sqrt_q squares to q to full precision."""
    check = sqrt_q * sqrt_q - sqrt_q.config.integer(q)
    if not check.is_zero and check.valuation() < sqrt_q.config.precision:
        raise BadSquareRoot(f"supplied root does not square to {q}")


def collapse(W: WhittakerValue, sqrt_q: LocalNumber, q: int) -> LocalNumber:
    """coef * sqrt_q^m as a plain field element; sqrt_q must square to q."""
    check_sqrt_q(sqrt_q, q)
    if W.is_zero:
        return W.coef
    return W.coef * sqrt_q ** W.q_half_exp


# ---------------------------------------------------------------------------
# independent cross-checks
# ---------------------------------------------------------------------------

def schur_bialternant(S: SatakeParam, a) -> LocalNumber:
    """det(mu_j^(a_l + n - l)) / det(mu_j^(n - l)).

    Meaningful when the parameter residues are pairwise distinct, in which
    case the denominator is a unit and no precision is lost.  With
    coinciding entries the denominator is an exact zero and division
    fails, which is exactly why the production path avoids this formula.
    """
    a = _as_weight(a)
    n = S.n
    cfg = S.config
    num_rows = [[S.mu[j] ** (a[l] + n - 1 - l) for l in range(n)] for j in range(n)]
    den_rows = [[S.mu[j] ** (n - 1 - l) for l in range(n)] for j in range(n)]
    return _det(cfg, num_rows) / _det(cfg, den_rows)


def schur_oracle(S: SatakeParam, a) -> LocalNumber:
    """Monomial sum over semistandard tableaux, for small shapes only.

    The weight is reduced by its last entry exactly as in schur_value; the
    reduced shape must satisfy n <= 4 and |lambda| <= 8 or TooLarge is
    raised.  This enumeration shares nothing with the Jacobi-Trudi path.
    """
    a = _as_weight(a)
    n = S.n
    if not is_dominant(a):
        raise ValueError("oracle requires a dominant weight")
    if n > ORACLE_MAX_RANK:
        raise TooLarge(f"oracle limited to rank <= {ORACLE_MAX_RANK}")
    c = a[n - 1]
    lam = [a[i] - c for i in range(n)]
    if sum(lam) > ORACLE_MAX_WEIGHT:
        raise TooLarge(f"oracle limited to |shape| <= {ORACLE_MAX_WEIGHT}")
    cfg = S.config
    total = cfg.zero()
    for filling in _ssyt_fillings([r for r in lam if r > 0], n):
        term = cfg.one()
        for entry in filling:
            term = term * S.mu[entry - 1]
        total = total + term
    if c == 0:
        return total
    e_n = elementary_symmetric_all(S)[n]
    return total * e_n ** c


def _ssyt_fillings(shape, n):
    """Yield entry sequences (row-major) of semistandard tableaux of the
    given shape with entries in 1..n: rows weakly increase, columns
    strictly increase."""
    cells = []
    for r, length in enumerate(shape):
        for col in range(length):
            cells.append((r, col))
    grid = {}

    def fill(k):
        if k == len(cells):
            yield tuple(grid[c] for c in cells)
            return
        r, col = cells[k]
        lo = 1
        if col > 0:
            lo = max(lo, grid[(r, col - 1)])
        if r > 0 and (r - 1, col) in grid:
            lo = max(lo, grid[(r - 1, col)] + 1)
        for val in range(lo, n + 1):
            grid[(r, col)] = val
            yield from fill(k + 1)
        grid.pop((r, col), None)

    yield from fill(0)


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
    integral with equal reductions, and bound >= 0.  For each weight the
    checker demands integral coefficients on both sides, equal
    q-half-exponents and equal residues; any failure is recorded as a
    violation.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if S1.config != S2.config:
        raise ConfigMismatch("parameters use different configurations")
    if S1.n != S2.n or S1.q != S2.q:
        raise ConfigMismatch("parameters have different rank or residual cardinality")
    P1, P2 = char_poly(S1), char_poly(S2)
    if not (is_integral(P1) and is_integral(P2)):
        raise NotIntegral("both parameter sets must have integral characteristic polynomials")
    if not congruent(P1, P2):
        raise NotCongruent("characteristic polynomials have different reductions")

    n = S1.n
    kmax = 2 * bound + n - 1
    schur1, schur2 = _schur_evaluator(S1, kmax), _schur_evaluator(S2, kmax)

    weights = dominant_weights(n, bound)
    violations = []
    for a in weights:
        m = half_exponent(Weight(a))
        c1, c2 = schur1(a), schur2(a)
        v1, v2 = c1.valuation(), c2.valuation()
        if v1 < 0 or v2 < 0:
            violations.append(Violation(a, "non-integral",
                                        f"valuations {v1}, {v2}"))
        elif c1.reduce() != c2.reduce():
            violations.append(Violation(a, "residue-mismatch",
                                        f"{c1.reduce()} vs {c2.reduce()} at m={m}"))
    return CongruenceReport(len(weights), tuple(violations))
