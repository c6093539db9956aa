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
* a + b adds the two units itself, to the least absolute precision of the
  two, and defers to the one-step digit sum (_digit_sum) only when no
  digit of that sum is a unit, that is when it must renormalise or cancel;
* any other cancellation of all certified digits raises PrecisionLoss;
  nothing is ever silently flushed to zero.  certified_sum applies this
  to the total of a sum, not to its partial sums;
* == compares representations; difference_valuation compares values by
  their certified digits, and is what a check that two values agree uses.

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
from .gf import (fp_deriv, fp_eval, from_digits, gf_field, is_prime,
                 smallest_irreducible, to_digits)

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
        # gf_field validates monicness and irreducibility; attributes, not fields
        object.__setattr__(self, "_residue_field", gf_field(self.ell, self.d, self.modulus))
        object.__setattr__(self, "_powers", _Powers(self.ell))

    def residue_field(self):
        """F_{l^d}, whose integer codes are the residue digit tuples read
        in base l (from_digits)."""
        return self._residue_field

    # -- constructors -------------------------------------------------------

    def zero(self) -> "LocalNumber":
        return LocalNumber(self, 0, (), self.precision)

    def one(self) -> "LocalNumber":
        return self.ell_power(0)

    def integer(self, n: int) -> "LocalNumber":
        return self.rational(n, 1)

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


# ---------------------------------------------------------------------------
# unit-polynomial arithmetic mod (l^k, modulus)
# ---------------------------------------------------------------------------

class _Powers(dict):
    """l^k by k, each computed when it is first read: nothing is sized by
    the precision, which is unbounded."""

    def __init__(self, ell: int):
        self.ell = ell

    def __missing__(self, k: int) -> int:
        self[k] = power = self.ell ** k
        return power


def _umul(cfg: FieldConfig, a, b, k: int) -> tuple:
    mod = cfg._powers[k]
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
    ell = cfg.ell
    z = to_digits(cfg.residue_field().inv(from_digits([c % ell for c in a], ell)), ell, cfg.d)
    known = 1
    while known < k:
        known = min(2 * known, k)
        az = _umul(cfg, a, z, known)
        mod = cfg._powers[known]
        two_minus = tuple((-c) % mod for c in az)
        two_minus = ((two_minus[0] + 2) % mod,) + two_minus[1:]
        z = _umul(cfg, z, two_minus, known)
    return z


class LocalNumber:
    """An element of Q_{l^d} known to ``prec`` significant digits.

    Use the FieldConfig constructors rather than calling this directly;
    the raw constructor trusts its arguments.  Arithmetic takes only
    LocalNumber operands of the same FieldConfig (ConfigMismatch
    otherwise): an integer n enters as config.integer(n).
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

    def reduce(self) -> tuple:
        """Image in the residue field as its coefficient tuple over Z/l
        (from_digits gives its code in config.residue_field()); requires
        valuation >= 0."""
        if not self.is_zero and self.v < 0:
            raise NotIntegral(f"valuation {self.v} < 0 has no residue")
        if self.is_zero or self.v > 0:
            return (0,) * self.config.d
        return tuple(c % self.config.ell for c in self.coeffs)

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

    def __neg__(self):
        if not self.coeffs:
            return self
        mod = self.config._powers[self.prec]
        return LocalNumber(self.config, self.v, tuple([(-c) % mod for c in self.coeffs]), self.prec)

    def __add__(self, other):
        cfg = self.config
        if other.config is not cfg and other.config != cfg:
            raise ConfigMismatch("operands use different field configurations")
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        a, b = (self, other) if self.v <= other.v else (other, self)
        gap = b.v - a.v
        k = a.prec if a.prec <= gap + b.prec else gap + b.prec
        if gap >= k:
            return a   # b lies wholly below a's certified digits
        powers, ell = cfg._powers, cfg.ell
        mod, scale = powers[k], powers[gap] if gap else 1
        if cfg.d == 1:
            c = (a.coeffs[0] + b.coeffs[0] * scale) % mod
            if c % ell:
                return LocalNumber(cfg, a.v, (c,), k)
            summed = (c,)
        else:
            summed = tuple([(x + y * scale) % mod for x, y in zip(a.coeffs, b.coeffs)])
            for c in summed:
                if c % ell:
                    return LocalNumber(cfg, a.v, summed, k)
        # structural cancellation: identical representations of opposite sign
        if not gap and a.prec == b.prec and not any(summed):
            return cfg.zero()
        return _digit_sum(cfg, (self, other))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        cfg = self.config
        if other.config is not cfg and other.config != cfg:
            raise ConfigMismatch("operands use different field configurations")
        if not self.coeffs or not other.coeffs:
            return cfg.zero()
        k = self.prec if self.prec <= other.prec else other.prec
        if cfg.d == 1:
            mod = cfg._powers[k]
            return LocalNumber(cfg, self.v + other.v, (self.coeffs[0] * other.coeffs[0] % mod,), k)
        return LocalNumber(cfg, self.v + other.v, _umul(cfg, self.coeffs, other.coeffs, k), k)

    def inv(self) -> "LocalNumber":
        if self.is_zero:
            raise ZeroDivisionError("inverse of exact zero")
        coeffs = _uinv(self.config, self.coeffs, self.prec)
        return LocalNumber(self.config, -self.v, coeffs, self.prec)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e: int):
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
        return _digit_sum(config, [t for t in terms if not t.is_zero])


def _digit_sum(cfg: FieldConfig, terms) -> LocalNumber:
    """The sum of nonzero terms in one step, to the least absolute
    precision among them, renormalised to a unit times a power of l;
    PrecisionLoss when every certified digit cancels."""
    ell = cfg.ell
    base = min([t.v for t in terms])
    top = min([t.v + t.prec for t in terms])
    mod = ell ** (top - base)
    summed = [0] * cfg.d
    for t in terms:
        scale = ell ** (t.v - base)
        summed = [s + c * scale for s, c in zip(summed, t.coeffs)]
    shift = math.gcd(mod, *summed)   # l^s, s the least valuation of a sum
    if shift == mod:
        raise PrecisionLoss(f"cancellation below l^{top}: result not certifiably nonzero")
    s = 0
    while ell ** s < shift:
        s += 1
    new_mod = mod // shift
    return LocalNumber(cfg, base + s, tuple([(c // shift) % new_mod for c in summed]),
                       top - base - s)


def difference_valuation(x: LocalNumber, y: LocalNumber) -> tuple:
    """(v(x - y), True), v = inf for the exact zero, or, when every
    certified digit of x - y cancels, (min(x.v + x.prec, y.v + y.prec),
    False): the valuation is at least that bound, and x and y agree on
    every digit either side certifies."""
    try:
        return (x - y).valuation(), True
    except PrecisionLoss:
        return min(x.v + x.prec, y.v + y.prec), False


def congruent_mod_m(x: LocalNumber, y: LocalNumber) -> bool:
    """True when x and y are both integral with equal residues, i.e. the
    difference lies in the maximal ideal."""
    if x.config != y.config:
        raise ConfigMismatch("residues from different field configurations")
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


def hensel_root(f: Sequence[LocalNumber], r0: tuple) -> LocalNumber:
    """Lift the simple residue root r0, a residue coefficient tuple as
    reduce() returns, of f to a root to full precision.

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

    F, ell = cfg.residue_field(), cfg.ell
    fbar = tuple(from_digits(c.reduce(), ell) for c in f)
    r0_code = from_digits(r0, ell)
    if fp_eval(F, fbar, r0_code):
        raise NoSimpleRoot("residue is not a root")
    if not fp_eval(F, fp_deriv(F, fbar), r0_code):
        raise NoSimpleRoot("residue root is not simple")
    if f[0].is_zero and not any(r0):
        return cfg.zero()   # the simple root over 0 is 0 itself

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

    x = r0  # initial lift, correct mod l
    k = 1
    while k < N:
        k = min(2 * k, N)
        mod = cfg.ell ** k
        xk = tuple(c % mod for c in x)
        fx = _poly_eval_unit(cfg, [tuple(c % mod for c in cc) for cc in coeffs_int], xk, k)
        dfx = _poly_eval_unit(cfg, [tuple(c % mod for c in cc) for cc in dcoeffs_int], xk, k)
        corr = _umul(cfg, fx, _uinv(cfg, dfx, k), k)
        x = tuple((a - b) % mod for a, b in zip(xk, corr))
    # x is known mod l^N: the one-term digit sum makes it a unit times l^s
    return _digit_sum(cfg, [LocalNumber(cfg, 0, x, N)])


@lru_cache(maxsize=64)
def pth_roots_of_unity(config: FieldConfig, p: int) -> tuple:
    """All p-th roots of unity in the configured field, sorted by residue
    coefficient tuple.  Requires p prime with p | l^d - 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    F = config.residue_field()
    if (F.order - 1) % p != 0:
        raise UnsupportedDegree(
            f"{p} does not divide l^d - 1 = {F.order - 1}; "
            f"choose d a multiple of the order of {config.ell} mod {p}")
    g = F.generator()
    zeta_bar = F.pow(g, (F.order - 1) // p)
    residues = sorted({to_digits(F.pow(zeta_bar, j), config.ell, config.d) for j in range(p)})
    poly = [config.integer(-1)] + [config.zero()] * (p - 1) + [config.one()]
    return tuple(hensel_root(poly, r) for r in residues)


def sqrt_unit(config: FieldConfig, n: int) -> LocalNumber:
    """A square root of the l-unit integer n, via Hensel lifting.

    Only odd l is supported: at l = 2 the derivative of X^2 - n is never a
    unit, so simple-root lifting does not apply.  The root whose residue
    comes first in the residue field's to_int order is returned.
    """
    if config.ell == 2:
        raise UnsupportedDegree("square roots in unramified 2-adic fields are unsupported")
    if n % config.ell == 0:
        raise BadSquareRoot(f"{n} is not an l-unit")
    F = config.residue_field()
    target = n % config.ell
    for cand in F.elements():
        if F.mul(cand, cand) == target:
            poly = [config.integer(-n), config.zero(), config.one()]
            return hensel_root(poly, to_digits(cand, config.ell, config.d))
    raise UnsupportedDegree(
        f"{n} is not a square in F_{F.order}; use an even residue degree d")
