"""Satake parameter multisets and their characteristic polynomials.

A parameter is stored as a list of roots (a chosen representative of the
underlying conjugacy class) together with the residual cardinality q of
the place it came from.  The monic characteristic polynomial, integrality
test, reduction and congruence comparison all live here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigMismatch, NoMatching, NotIntegral
from .gf import prime_power_decomposition
from .padic import FieldConfig, LocalNumber, certified_sum


@dataclass(frozen=True)
class SatakeParam:
    """A multiset of n nonzero field elements with residual cardinality q."""

    n: int
    q: int
    mu: tuple

    def __post_init__(self):
        if self.n < 1 or len(self.mu) != self.n:
            raise ValueError("need exactly n parameter entries")
        object.__setattr__(self, "mu", tuple(self.mu))
        decomp = prime_power_decomposition(self.q)
        if decomp is None:
            raise ValueError(f"q = {self.q} is not a prime power >= 2")
        cfg = self.mu[0].config
        for m in self.mu:
            if m.config != cfg:
                raise ConfigMismatch("parameter entries use different configurations")
            if m.is_zero:
                raise ValueError("parameter entries must be nonzero")
        if self.q % cfg.ell == 0:
            raise ValueError("q must be coprime to l")

    @property
    def config(self) -> FieldConfig:
        return self.mu[0].config

    def is_integral(self) -> bool:
        return all(m.v >= 0 for m in self.mu)


@dataclass(frozen=True)
class CharPoly:
    """Coefficients c_1..c_n of the monic polynomial X^n + c_1 X^{n-1} + ... + c_n."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("characteristic polynomial must have degree >= 1")
        cfg = self.coeffs[0].config
        if any(c.config != cfg for c in self.coeffs):
            raise ConfigMismatch("coefficients use different configurations")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def config(self) -> FieldConfig:
        return self.coeffs[0].config

    def __call__(self, x: LocalNumber) -> LocalNumber:
        acc = x.config.one()
        for c in self.coeffs:
            acc = acc * x + c
        return acc


def elementary_symmetric_all(S: SatakeParam) -> list:
    """[e_0, e_1, ..., e_n] computed by expanding prod (1 + mu_i X)."""
    cfg = S.config
    e = [cfg.one()]
    for m in S.mu:
        e.append(cfg.zero())
        for r in range(len(e) - 1, 0, -1):
            e[r] = e[r] + m * e[r - 1]
    return e


def char_poly(S: SatakeParam) -> CharPoly:
    """Monic polynomial with the parameter entries as roots: c_r = (-1)^r e_r."""
    e = elementary_symmetric_all(S)
    coeffs = []
    for r in range(1, S.n + 1):
        coeffs.append(-e[r] if r % 2 else e[r])
    return CharPoly(tuple(coeffs))


def is_integral(P: CharPoly) -> bool:
    return all(c.is_zero or c.v >= 0 for c in P.coeffs)


def reduce_char_poly(P: CharPoly) -> tuple:
    """Coefficientwise residues (r_1, ..., r_n); requires integrality."""
    if not is_integral(P):
        raise NotIntegral("characteristic polynomial has a non-integral coefficient")
    return tuple(c.reduce() for c in P.coeffs)


def congruent(P1: CharPoly, P2: CharPoly) -> bool:
    """Equality of the two reductions in the residue field."""
    if P1.config != P2.config:
        raise ConfigMismatch("polynomials use different configurations")
    if P1.n != P2.n:
        return False
    return reduce_char_poly(P1) == reduce_char_poly(P2)


def match_residues(S1: SatakeParam, S2: SatakeParam):
    """A permutation sigma with reduce(mu1[i]) = reduce(mu2[sigma[i]]).

    Requires both parameter sets integral.  Entries pair up in sorted
    residue order (ties by index), so the output is deterministic.  Raises
    NoMatching when the residue multisets differ.
    """
    if S1.config != S2.config:
        raise ConfigMismatch("parameters use different configurations")
    if S1.n != S2.n:
        raise NoMatching("parameter ranks differ")
    for S in (S1, S2):
        if not S.is_integral():
            raise NotIntegral("residue matching requires integral parameters")
    r1 = sorted(range(S1.n), key=lambda i: S1.mu[i].reduce())
    r2 = sorted(range(S2.n), key=lambda i: S2.mu[i].reduce())
    sigma = [0] * S1.n
    for i1, i2 in zip(r1, r2):
        if S1.mu[i1].reduce() != S2.mu[i2].reduce():
            raise NoMatching("residue multisets differ")
        sigma[i1] = i2
    return tuple(sigma)


def complete_homogeneous_table(S: SatakeParam, kmax: int) -> list:
    """[h_0, ..., h_kmax]; h_k = sum_{i=1..min(k,n)} (-1)^{i-1} e_i h_{k-i},
    each a certified_sum, since its partial sums can cancel exactly."""
    cfg = S.config
    e = elementary_symmetric_all(S)
    h = [cfg.one()]
    for k in range(1, kmax + 1):
        h.append(certified_sum(cfg, [e[i] * h[k - i] if i % 2 else -(e[i] * h[k - i])
                                     for i in range(1, min(k, S.n) + 1)]))
    return h
