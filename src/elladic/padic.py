"""Capped-relative-precision arithmetic in unramified extensions of Q_l.

A coefficient field is described by a FieldConfig (l, d, modulus, N): the
unramified extension of Q_l of degree d, with elements tracked to N
significant l-adic digits.  A LocalNumber is either an exact zero or a
pair (valuation, unit) with the unit a degree-<d polynomial over Z/l^prec,
nonzero mod l.  Valuations are always exact; only unit digits are capped.

Precision policy:

* every value carries the relative precision actually certified
  (prec <= N); constructors from integers and rationals certify N digits;
* addition returns an exact zero only for structural cancellation, when
  the two operands are identical representations of opposite sign at the
  same certified precision (x + (-x), x - x, or two independently built
  copies of the same digits);
* any other cancellation of all certified digits raises PrecisionLoss;
  nothing is ever silently flushed to zero.  certified_sum applies this
  to the total of a sum, not to its partial sums.

All values are immutable; every operation is a pure function, so values
can be shared freely across threads or tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import (BadSquareRoot, ConfigMismatch, NoSimpleRoot, NotIntegral,
                     PrecisionLoss, UnsupportedDegree)
from .gf import GF, fp_deriv, fp_eval, gf_field, is_prime, smallest_irreducible

INFINITY = math.inf

DEFAULT_PRECISION = 32


@dataclass(frozen=True)
class FieldConfig:
    """Parameters of the coefficient field Q_{l^d} at precision N.

    The modulus is a monic irreducible of degree d over Z/l, stored as an
    ascending coefficient tuple; if omitted, the first irreducible in a
    fixed deterministic enumeration is used so that independent runs agree.
    """

    ell: int
    d: int = 1
    modulus: tuple = None
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError(f"{self.ell} is not prime")
        if self.d < 1:
            raise ValueError("residue degree must be >= 1")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.modulus is None:
            object.__setattr__(self, "modulus", smallest_irreducible(self.ell, self.d))
        else:
            object.__setattr__(self, "modulus", tuple(c % self.ell for c in self.modulus))
        # GF validates monicness and irreducibility
        gf_field(self.ell, self.d, self.modulus)

    def residue_field(self) -> GF:
        return gf_field(self.ell, self.d, self.modulus)

    # -- constructors -------------------------------------------------------

    def zero(self) -> "LocalNumber":
        return LocalNumber(self, 0, (), self.precision)

    def one(self) -> "LocalNumber":
        return self.integer(1)

    def integer(self, n: int) -> "LocalNumber":
        if n == 0:
            return self.zero()
        v = 0
        while n % self.ell == 0:
            n //= self.ell
            v += 1
        unit = (n % self.ell ** self.precision,) + (0,) * (self.d - 1)
        return LocalNumber(self, v, unit, self.precision)

    def rational(self, num: int, den: int) -> "LocalNumber":
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if num == 0:
            return self.zero()
        v = 0
        while num % self.ell == 0:
            num //= self.ell
            v += 1
        while den % self.ell == 0:
            den //= self.ell
            v -= 1
        mod = self.ell ** self.precision
        unit = ((num * pow(den, -1, mod)) % mod,) + (0,) * (self.d - 1)
        return LocalNumber(self, v, unit, self.precision)

    def unit(self, valuation: int, coeffs: Sequence[int], prec: int | None = None) -> "LocalNumber":
        """l^valuation times the unit with the given polynomial coefficients."""
        prec = self.precision if prec is None else prec
        if not 1 <= prec <= self.precision:
            raise ValueError("prec out of range")
        mod = self.ell ** prec
        cs = tuple(c % mod for c in coeffs)
        if len(cs) != self.d:
            raise ValueError(f"expected {self.d} unit coefficients")
        if all(c % self.ell == 0 for c in cs):
            raise ValueError("unit part must be nonzero mod l")
        return LocalNumber(self, valuation, cs, prec)

    def ell_power(self, v: int) -> "LocalNumber":
        return LocalNumber(self, v, (1,) + (0,) * (self.d - 1), self.precision)

    def residue(self, coeffs) -> "Residue":
        if isinstance(coeffs, int):
            coeffs = self.residue_field().from_int(coeffs)
        cs = tuple(c % self.ell for c in coeffs)
        if len(cs) != self.d:
            raise ValueError(f"expected {self.d} residue coefficients")
        return Residue(self, cs)


@dataclass(frozen=True, order=True)
class Residue:
    """An element of the residue field F_{l^d}.

    Residues of a common configuration sort lexicographically by
    coefficient vector, which is the canonical order used everywhere
    a deterministic tie-break is needed.
    """

    config: FieldConfig
    coeffs: tuple

    def __post_init__(self):
        if any(not 0 <= c < self.config.ell for c in self.coeffs):
            raise ValueError("residue coefficients not reduced")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _gf(self):
        return self.config.residue_field()

    def _check(self, other: "Residue"):
        if self.config != other.config:
            raise ConfigMismatch("residues from different field configurations")

    def __add__(self, other):
        self._check(other)
        return Residue(self.config, self._gf().add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return Residue(self.config, self._gf().sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return Residue(self.config, self._gf().neg(self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return Residue(self.config, self._gf().mul(self.coeffs, other.coeffs))

    def inv(self) -> "Residue":
        return Residue(self.config, self._gf().inv(self.coeffs))

    def __pow__(self, e: int):
        return Residue(self.config, self._gf().pow(self.coeffs, e))

    def __repr__(self):
        if self.config.d == 1:
            return f"Residue({self.coeffs[0]} mod {self.config.ell})"
        return f"Residue{self.coeffs} mod ({self.config.ell}, M)"


def canonical_compare(a: Residue, b: Residue) -> int:
    """Total order on residues: -1, 0 or 1 by coefficient vector."""
    if a.config != b.config:
        raise ConfigMismatch("cannot compare residues across configurations")
    if a.coeffs == b.coeffs:
        return 0
    return -1 if a.coeffs < b.coeffs else 1


# ---------------------------------------------------------------------------
# unit-polynomial arithmetic mod (l^k, modulus)
# ---------------------------------------------------------------------------

def _umul(cfg: FieldConfig, a, b, k: int) -> tuple:
    mod = cfg.ell ** k
    d = cfg.d
    if d == 1:
        return ((a[0] * b[0]) % mod,)
    prod = [0] * (2 * d - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
    M = cfg.modulus
    for i in range(2 * d - 2, d - 1, -1):
        c = prod[i] % mod
        prod[i] = 0
        if c:
            for j in range(d):
                prod[i - d + j] -= c * M[j]
    return tuple(prod[i] % mod for i in range(d))


def _uinv(cfg: FieldConfig, a, k: int) -> tuple:
    """Inverse of a unit mod (l^k, modulus), by lifting the residue inverse."""
    F = cfg.residue_field()
    z = F.inv(tuple(c % cfg.ell for c in a))
    known = 1
    while known < k:
        known = min(2 * known, k)
        az = _umul(cfg, a, z, known)
        two_minus = tuple((-c) % cfg.ell ** known for c in az)
        two_minus = (two_minus[0] + 2,) + two_minus[1:]
        two_minus = tuple(c % cfg.ell ** known for c in two_minus)
        z = _umul(cfg, z, two_minus, known)
    return z


class LocalNumber:
    """An element of Q_{l^d} known to ``prec`` significant digits.

    Use the FieldConfig constructors rather than calling this directly;
    the raw constructor trusts its arguments.
    """

    __slots__ = ("config", "v", "coeffs", "prec")

    def __init__(self, config: FieldConfig, v: int, coeffs: tuple, prec: int):
        self.config = config
        self.v = v
        self.coeffs = coeffs
        self.prec = prec

    # -- predicates and accessors -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self):
        """Exact l-adic valuation; +infinity for the exact zero."""
        return INFINITY if self.is_zero else self.v

    def is_integral(self) -> bool:
        return self.is_zero or self.v >= 0

    def reduce(self) -> Residue:
        """Image in the residue field; requires valuation >= 0."""
        if not self.is_zero and self.v < 0:
            raise NotIntegral(f"valuation {self.v} < 0 has no residue")
        if self.is_zero or self.v > 0:
            return Residue(self.config, (0,) * self.config.d)
        return Residue(self.config, tuple(c % self.config.ell for c in self.coeffs))

    def digit_vectors(self) -> list:
        """Base-l digit vectors of the unit, one length-d vector per digit
        position, least significant first.  Empty for the exact zero."""
        ell = self.config.ell
        out = []
        cs = list(self.coeffs)
        for _ in range(self.prec):
            out.append([c % ell for c in cs])
            cs = [c // ell for c in cs]
        return out if self.coeffs else []

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LocalNumber):
            if other.config != self.config:
                raise ConfigMismatch("operands use different field configurations")
            return other
        if isinstance(other, int):
            return self.config.integer(other)
        return None

    def __neg__(self):
        if self.is_zero:
            return self
        mod = self.config.ell ** self.prec
        return LocalNumber(self.config, self.v,
                           tuple((-c) % mod for c in self.coeffs), self.prec)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        cfg = self.config
        # structural cancellation: identical representations of opposite sign
        if (self.v == other.v and self.prec == other.prec
                and other.coeffs == (-self).coeffs):
            return cfg.zero()
        abs_prec = min(self.v + self.prec, other.v + other.prec)
        base = min(self.v, other.v)
        rel = abs_prec - base
        mod = cfg.ell ** rel
        sa = cfg.ell ** (self.v - base)
        sb = cfg.ell ** (other.v - base)
        summed = tuple((ca * sa + cb * sb) % mod
                       for ca, cb in zip(self.coeffs, other.coeffs))
        if not any(summed):
            raise PrecisionLoss(
                f"cancellation below l^{abs_prec}: result not certifiably nonzero")
        s = min(_int_val(c, cfg.ell, rel) for c in summed)
        shift = cfg.ell ** s
        new_prec = rel - s
        new_mod = cfg.ell ** new_prec
        coeffs = tuple((c // shift) % new_mod for c in summed)
        return LocalNumber(cfg, base + s, coeffs, new_prec)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.config.zero()
        prec = min(self.prec, other.prec)
        coeffs = _umul(self.config, self.coeffs, other.coeffs, prec)
        return LocalNumber(self.config, self.v + other.v, coeffs, prec)

    __rmul__ = __mul__

    def inv(self) -> "LocalNumber":
        if self.is_zero:
            raise ZeroDivisionError("inverse of exact zero")
        coeffs = _uinv(self.config, self.coeffs, self.prec)
        return LocalNumber(self.config, -self.v, coeffs, self.prec)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if self.is_zero:
            if e == 0:
                return self.config.one()
            if e < 0:
                raise ZeroDivisionError("negative power of exact zero")
            return self
        base = self.inv() if e < 0 else self
        e = abs(e)
        result = self.config.one()
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.config.integer(other)
        if not isinstance(other, LocalNumber):
            return NotImplemented
        return (self.config == other.config and self.is_zero == other.is_zero
                and (self.is_zero
                     or (self.v, self.coeffs, self.prec) == (other.v, other.coeffs, other.prec)))

    def __hash__(self):
        # every exact zero is equal to every other, whatever its v and prec
        if self.is_zero:
            return hash((self.config, None))
        return hash((self.config, self.v, self.coeffs, self.prec))

    def __repr__(self):
        if self.is_zero:
            return f"LocalNumber(0; l={self.config.ell})"
        if self.config.d == 1:
            return (f"LocalNumber({self.config.ell}^{self.v} * {self.coeffs[0]}"
                    f" + O({self.config.ell}^{self.v + self.prec}))")
        return (f"LocalNumber({self.config.ell}^{self.v} * {self.coeffs}"
                f" + O({self.config.ell}^{self.v + self.prec}))")


def certified_sum(config: FieldConfig, terms: list) -> LocalNumber:
    """terms[0] + terms[1] + ..., certified once at the end.

    The chained + comes first, so the total is digit for digit that of the
    chain whenever the chain returns.  When a partial sum cancels all its
    certified digits, the total is computed again in one step from every
    term, to the least absolute precision among them, and PrecisionLoss is
    raised only when that total cancels as well.
    """
    try:
        return sum(terms, config.zero())
    except PrecisionLoss:
        pass
    terms = [t for t in terms if not t.is_zero]
    ell = config.ell
    top = min(t.v + t.prec for t in terms)
    base = min(t.v for t in terms)
    rel = top - base
    summed = [0] * config.d
    for t in terms:
        scale = ell ** (t.v - base)
        for j, c in enumerate(t.coeffs):
            summed[j] += c * scale
    summed = [c % ell ** rel for c in summed]
    if not any(summed):
        raise PrecisionLoss(f"cancellation below l^{top}: sum not certifiably nonzero")
    s = min(_int_val(c, ell, rel) for c in summed)
    return LocalNumber(config, base + s, tuple((c // ell ** s) % ell ** (rel - s) for c in summed),
                       rel - s)


def _int_val(n: int, ell: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % ell == 0 and v < cap:
        n //= ell
        v += 1
    return v


def congruent_mod_m(x: LocalNumber, y: LocalNumber) -> bool:
    """True when x and y are both integral with equal residues, i.e. the
    difference lies in the maximal ideal."""
    return x.reduce() == y.reduce()


# ---------------------------------------------------------------------------
# Hensel lifting and roots of unity
# ---------------------------------------------------------------------------

def _poly_eval_unit(cfg: FieldConfig, coeffs_int, x, k: int):
    """Evaluate a polynomial with R-coefficients at an R-element, where
    R = (Z/l^k)[Y]/(modulus); coeffs_int is a list of int tuples."""
    acc = (0,) * cfg.d
    mod = cfg.ell ** k
    for c in reversed(coeffs_int):
        acc = _umul(cfg, acc, x, k)
        acc = tuple((a + b) % mod for a, b in zip(acc, c))
    return acc


def hensel_root(f: Sequence[LocalNumber], r0: Residue) -> LocalNumber:
    """Lift the simple residue root r0 of f to a root to full precision.

    f is a coefficient sequence, ascending degree, with integral
    coefficients.  Raises NoSimpleRoot unless f(r0) = 0 and f'(r0) != 0 in
    the residue field.
    """
    if not f:
        raise ValueError("empty polynomial")
    cfg = f[0].config
    if any(c.config != cfg for c in f):
        raise ConfigMismatch("polynomial coefficients use different configurations")
    if any(not c.is_integral() for c in f):
        raise NotIntegral("Hensel lifting requires integral coefficients")

    F = cfg.residue_field()
    fbar = tuple(c.reduce().coeffs for c in f)
    if not F.is_zero(fp_eval(F, fbar, r0.coeffs)):
        raise NoSimpleRoot("residue is not a root")
    if F.is_zero(fp_eval(F, fp_deriv(F, fbar), r0.coeffs)):
        raise NoSimpleRoot("residue root is not simple")

    N = cfg.precision
    mod_full = cfg.ell ** N

    def lift_coeff(c: LocalNumber):
        if c.is_zero or c.v >= N:
            return (0,) * cfg.d
        scale = cfg.ell ** c.v
        return tuple((ci * scale) % mod_full for ci in c.coeffs)

    coeffs_int = [lift_coeff(c) for c in f]
    dcoeffs_int = []
    for i in range(1, len(coeffs_int)):
        dcoeffs_int.append(tuple((i * c) % mod_full for c in coeffs_int[i]))

    x = r0.coeffs  # initial lift, correct mod l
    k = 1
    while k < N:
        k = min(2 * k, N)
        mod = cfg.ell ** k
        xk = tuple(c % mod for c in x)
        fx = _poly_eval_unit(cfg, [tuple(c % mod for c in cc) for cc in coeffs_int], xk, k)
        dfx = _poly_eval_unit(cfg, [tuple(c % mod for c in cc) for cc in dcoeffs_int], xk, k)
        corr = _umul(cfg, fx, _uinv(cfg, dfx, k), k)
        x = tuple((a - b) % mod for a, b in zip(xk, corr))

    s = min(_int_val(c, cfg.ell, N) for c in x)
    if s >= N:
        if f[0].is_zero and not any(r0.coeffs):
            return cfg.zero()
        raise PrecisionLoss("Hensel root vanished to working precision")
    shift = cfg.ell ** s
    prec = N - s
    mod = cfg.ell ** prec
    return LocalNumber(cfg, s, tuple((c // shift) % mod for c in x), prec)


@lru_cache(maxsize=64)
def _pth_roots_cached(config: FieldConfig, p: int) -> tuple:
    F = config.residue_field()
    if (F.order - 1) % p != 0:
        raise UnsupportedDegree(
            f"{p} does not divide l^d - 1 = {F.order - 1}; "
            f"choose d a multiple of the order of {config.ell} mod {p}")
    g = F.generator()
    zeta_bar = F.pow(g, (F.order - 1) // p)
    residues = sorted({F.pow(zeta_bar, j) for j in range(p)})
    poly = [config.integer(-1)] + [config.zero()] * (p - 1) + [config.one()]
    roots = tuple(hensel_root(poly, Residue(config, r)) for r in residues)
    return roots


def pth_roots_of_unity(config: FieldConfig, p: int) -> tuple:
    """All p-th roots of unity in the configured field, in a canonical
    order (sorted by residue).  Requires p prime with p | l^d - 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _pth_roots_cached(config, p)


def sqrt_unit(config: FieldConfig, n: int) -> LocalNumber:
    """A square root of the l-unit integer n, via Hensel lifting.

    Only odd l is supported: at l = 2 the derivative of X^2 - n is never a
    unit, so simple-root lifting does not apply.  The root whose residue
    is smallest in canonical order is returned.
    """
    if config.ell == 2:
        raise UnsupportedDegree("square roots in unramified 2-adic fields are unsupported")
    if n % config.ell == 0:
        raise BadSquareRoot(f"{n} is not an l-unit")
    F = config.residue_field()
    target = F.from_int(n % config.ell)
    for cand in F.elements():
        if F.mul(cand, cand) == target:
            poly = [config.integer(-n), config.zero(), config.one()]
            return hensel_root(poly, Residue(config, cand))
    raise UnsupportedDegree(
        f"{n} is not a square in F_{F.order}; use an even residue degree d")
