"""Desk-scale model of the rational function field F_q(t) and its adeles.

Places are the monic irreducibles of F_q[t] plus the place at infinity.
The completion at a finite place P is modelled as kappa(P)((u)) with
kappa(P) = F_q[s]/(P) and local coordinate u = t - theta, where theta is
the class of s; Laurent coefficients therefore live in the residue field
and multiply with no carries.  At infinity the coordinate is 1/t and the
residue field is F_q.

A rational function keeps its orders at places, RationalFunction.orders,
built once per object from one factorization of the numerator and one of
the denominator, plus the degree difference at infinity; divisor, ord_at
and every caller that needs the orders of one function read that map.

The additive character is the residue character of the differential dt:
psi_v(x) = psi_0(Tr(res_v(x dt))) where psi_0 is a fixed nontrivial
character of F_p realized inside a configured l-adic coefficient field.
dt is regular at finite places and has a double pole at infinity, so
psi_v is trivial on O_v at finite v and trivial exactly on p_inf^2 at
infinity.  psi is one character of A/k: psi_global reads psi_0 once, of
the sum of the residue traces of an adele's components, and scaled_trace
gives that sum for an adele times a rational function without forming
the product.  The product of the local characters is trivial on the
diagonal copy of the field (residue theorem), which the test-suite
verifies.

All data here is immutable and every operation is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ConfigMismatch, InsufficientPrecision, TooLarge
from .gf import (ext_field, fp_add, fp_crt, fp_divmod, fp_factor, fp_gcd,
                 fp_is_irreducible, fp_mod, fp_monic, fp_mul, fp_neg, fp_scale,
                 fp_sub, fp_trim, gf_field, is_prime, smallest_irreducible,
                 to_digits)
from .padic import FieldConfig, LocalNumber, pth_roots_of_unity

INF = float("inf")

DEFAULT_SERIES_PRECISION = 16
DEFAULT_ENUMERATION_CAP = 10 ** 6


@dataclass(frozen=True)
class GroundField:
    """The constant field F_q, q = p^f, with a fixed modulus over Z/p."""

    p: int
    f: int = 1
    modulus: tuple = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.f < 1:
            raise ValueError("f must be >= 1")
        if self.modulus is None:
            object.__setattr__(self, "modulus", smallest_irreducible(self.p, self.f))
        else:
            object.__setattr__(self, "modulus", tuple(c % self.p for c in self.modulus))
        # built once: attributes, not fields, so __eq__ and repr are
        # unchanged, and the hash is the one of the fields
        object.__setattr__(self, "_field", gf_field(self.p, self.f, self.modulus))
        object.__setattr__(self, "_hash", hash((self.p, self.f, self.modulus)))
        object.__setattr__(self, "_infinity", Place(self, None))

    def __hash__(self):
        return self._hash

    @property
    def q(self) -> int:
        return self.p ** self.f

    def field(self):
        return self._field

    # -- element and polynomial builders -------------------------------------

    def rational(self, num_ints, den_ints=(1,)) -> "RationalFunction":
        return RationalFunction.make(self, num_ints, den_ints)

    def t(self) -> "RationalFunction":
        return self.rational((0, 1))

    def constant(self, n: int) -> "RationalFunction":
        return self.rational((n,))

    def infinity(self) -> "Place":
        return self._infinity

    def place(self, ints) -> "Place":
        return Place(self, tuple(ints))


def element_codes(codes, K) -> tuple:
    """The codes as a tuple, each checked to name an element of K."""
    codes = tuple(codes)
    for c in codes:
        if not 0 <= c < K.order:
            raise ValueError(f"{c} is not an element code of F_{K.order}: "
                             f"codes lie in [0, {K.order})")
    return codes


@dataclass(frozen=True)
class Place:
    """A closed point of the projective line: a monic irreducible of
    F_q[t], or None for the place at infinity.

    Each place carries its residue field, F_q itself at infinity and at
    degree 1, and the class theta of t in it, so that u = t - theta."""

    ground: GroundField
    poly: tuple | None

    def __post_init__(self):
        F = self.ground.field()
        K, theta = F, 0
        if self.poly is not None:
            object.__setattr__(self, "poly", fp_trim(element_codes(self.poly, F)))
            if len(self.poly) < 2:
                raise ValueError("a finite place needs a polynomial of degree >= 1")
            if self.poly[-1] != 1:
                raise ValueError("place polynomial must be monic")
            if not fp_is_irreducible(F, self.poly):
                raise ValueError("place polynomial must be irreducible")
            if len(self.poly) == 2:
                theta = F.neg(self.poly[0])
            else:
                K, theta = ext_field(F, self.poly), F.order   # the code of s
        object.__setattr__(self, "_residue", K)
        object.__setattr__(self, "theta", theta)
        # the hash of the fields, stored once: places key most lookups
        object.__setattr__(self, "_hash", hash((self.ground, self.poly)))

    def __hash__(self):
        return self._hash

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.is_infinity else len(self.poly) - 1

    def residue(self):
        return self._residue

    def sort_key(self):
        if self.is_infinity:
            return (0,)
        return (1, self.degree, self.poly)

    def __repr__(self):
        if self.is_infinity:
            return "Place(infinity)"
        return f"Place{self.poly}"


def enumerate_places(ground: GroundField, max_degree: int):
    """Infinity first, then finite places by (degree, coefficient code)."""
    yield ground.infinity()
    F = ground.field()
    for deg in range(1, max_degree + 1):
        for code in itertools.product(range(ground.q), repeat=deg):
            poly = tuple(reversed(code)) + (1,)
            if fp_is_irreducible(F, poly):
                yield Place(ground, poly)


def by_place(items, what: str) -> tuple:
    """The records, each led by its place, as a tuple sorted by
    Place.sort_key; a place listed twice raises ValueError naming what."""
    items = tuple(sorted(items, key=lambda rec: rec[0].sort_key()))
    if len({rec[0] for rec in items}) != len(items):
        raise ValueError(f"duplicate place in {what}")
    return items


@dataclass(frozen=True)
class RationalFunction:
    """num/den in lowest terms with monic denominator; () is the zero
    numerator."""

    ground: GroundField
    num: tuple
    den: tuple

    @classmethod
    def make(cls, ground: GroundField, num, den) -> "RationalFunction":
        F = ground.field()
        num, den = fp_trim(element_codes(num, F)), fp_trim(element_codes(den, F))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls(ground, (), (1,))
        g = fp_gcd(F, num, den)
        if len(g) > 1:
            num = fp_divmod(F, num, g)[0]
            den = fp_divmod(F, den, g)[0]
        lead_inv = F.inv(den[-1])
        num = tuple(F.mul(c, lead_inv) for c in num)
        den = tuple(F.mul(c, lead_inv) for c in den)
        return cls(ground, num, den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _check(self, other):
        if self.ground != other.ground:
            raise ConfigMismatch("rational functions over different ground fields")

    def __add__(self, other):
        self._check(other)
        F = self.ground.field()
        num = fp_add(F, fp_mul(F, self.num, other.den), fp_mul(F, other.num, self.den))
        return RationalFunction.make(self.ground, num, fp_mul(F, self.den, other.den))

    def __neg__(self):
        F = self.ground.field()
        return RationalFunction(self.ground, fp_neg(F, self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        F = self.ground.field()
        return RationalFunction.make(self.ground, fp_mul(F, self.num, other.num),
                                     fp_mul(F, self.den, other.den))

    @cached_property
    def orders(self) -> dict:
        """{place: order} at every zero and pole of r: one factorization of
        the numerator and one of the denominator, which share no factor,
        and deg den - deg num at infinity.  Built once per object and not a
        field, so __eq__, hash and repr ignore it; callers only read it."""
        if self.is_zero:
            raise ValueError("the zero function has no divisor")
        F, ground = self.ground.field(), self.ground
        orders = {Place(ground, f): m for f, m in fp_factor(F, fp_monic(F, self.num))}
        orders.update((Place(ground, f), -m) for f, m in fp_factor(F, self.den))
        if len(self.den) != len(self.num):
            orders[ground.infinity()] = len(self.den) - len(self.num)
        return orders

    def divisor(self) -> "Divisor":
        return Divisor.make(self.ground, self.orders.items())

    def ord_at(self, place: Place):
        """Exact valuation at a place; +inf for the zero function."""
        return INF if self.is_zero else self.orders.get(place, 0)

    def __repr__(self):
        return f"RationalFunction({list(self.num)}/{list(self.den)} over F_{self.ground.q})"


# ---------------------------------------------------------------------------
# local elements
# ---------------------------------------------------------------------------

class LocalElement:
    """A truncated Laurent series at a place.

    Nonzero: v is the exact valuation and coeffs are residue-field
    coefficients with coeffs[0] != 0; the value is known modulo u^(v+len)
    unless exact_tail is set, in which case every further coefficient is
    exactly zero.  Empty coeffs encode zero: exact zero when exact_tail,
    otherwise only "0 modulo u^v".
    """

    __slots__ = ("place", "v", "coeffs", "exact_tail")

    def __init__(self, place: Place, v: int, coeffs: tuple, exact_tail: bool):
        self.place = place
        self.v = v
        self.coeffs = coeffs
        self.exact_tail = exact_tail

    @classmethod
    def exact_zero(cls, place: Place) -> "LocalElement":
        return cls(place, 0, (), True)

    @classmethod
    def from_coeffs(cls, place: Place, v: int, coeffs, exact: bool = True) -> "LocalElement":
        return make_local(place, v, element_codes(coeffs, place.residue()), exact)

    @classmethod
    def uniformizer_power(cls, place: Place, j: int) -> "LocalElement":
        return cls(place, j, (1,), True)

    @property
    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.exact_tail

    @property
    def is_zero_like(self) -> bool:
        return not self.coeffs

    def abs_prec(self):
        return INF if self.exact_tail else self.v + len(self.coeffs)

    def valuation(self):
        if self.is_exact_zero:
            return INF
        if not self.coeffs:
            raise InsufficientPrecision(
                f"value is 0 mod u^{self.v} but not certifiably zero")
        return self.v

    def coefficient(self, i: int):
        """Laurent coefficient at u^i; raises when i is past the certified
        range."""
        if not self.coeffs:
            if self.exact_tail or i < self.v:
                return 0
            raise InsufficientPrecision(f"coefficient {i} beyond certified 0 mod u^{self.v}")
        if i < self.v:
            return 0
        if i < self.v + len(self.coeffs):
            return self.coeffs[i - self.v]
        if self.exact_tail:
            return 0
        raise InsufficientPrecision(
            f"coefficient {i} beyond precision O(u^{self.v + len(self.coeffs)})")

    def shift(self, j: int) -> "LocalElement":
        """Multiplication by u^j."""
        if self.is_exact_zero:
            return self
        return LocalElement(self.place, self.v + j, self.coeffs, self.exact_tail)

    def __neg__(self):
        K = self.place.residue()
        return LocalElement(self.place, self.v,
                            tuple(K.neg(c) for c in self.coeffs), self.exact_tail)

    def _check(self, other):
        if self.place != other.place:
            raise ConfigMismatch("local elements at different places")

    def __add__(self, other):
        self._check(other)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        K = self.place.residue()
        bound = min(self.abs_prec(), other.abs_prec())
        lo = min(self.v, other.v)
        if bound is INF:
            hi = max(self.v + len(self.coeffs), other.v + len(other.coeffs))
        else:
            hi = bound
        if hi <= lo:
            return make_local(self.place, lo, (), False)
        coeffs = tuple(K.add(self.coefficient(i), other.coefficient(i))
                       for i in range(lo, int(hi)))
        return make_local(self.place, lo, coeffs, bound is INF)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.is_exact_zero or other.is_exact_zero:
            return LocalElement.exact_zero(self.place)
        if self.is_zero_like or other.is_zero_like:
            # O(u^a) * (u^b unit) is 0 mod u^(a+b)
            a = self.v if self.is_zero_like else self.valuation()
            b = other.v if other.is_zero_like else other.valuation()
            return make_local(self.place, a + b, (), False)
        K = self.place.residue()
        if self.exact_tail and other.exact_tail:
            n = len(self.coeffs) + len(other.coeffs) - 1
            exact = True
        else:
            n = int(min(self.abs_prec() + other.v, other.abs_prec() + self.v)
                    - (self.v + other.v))
            exact = False
        out = [0] * n
        add, mul = K.add, K.mul
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                if i + j >= n:
                    break
                out[i + j] = add(out[i + j], mul(ci, cj))
        return make_local(self.place, self.v + other.v, tuple(out), exact)

    def inverse(self, length: int | None = None) -> "LocalElement":
        """Series inverse; length bounds the output when the input has an
        exact tail (the inverse is usually an infinite series)."""
        if self.is_zero_like:
            raise ZeroDivisionError("inverse of a (possibly) zero local element")
        K = self.place.residue()
        if self.exact_tail and len(self.coeffs) == 1:
            return LocalElement(self.place, -self.v, (K.inv(self.coeffs[0]),), True)
        if self.exact_tail:
            if length is None:
                length = DEFAULT_SERIES_PRECISION
            n = length
        else:
            n = len(self.coeffs)
        return LocalElement(self.place, -self.v,
                            _series_quotient(K, (1,), self.coeffs, n), False)

    def prefix(self, n: int) -> tuple:
        """First n unit coefficients (index v..v+n-1), padded exactly."""
        return tuple(self.coefficient(self.v + i) for i in range(n))

    def __eq__(self, other):
        if not isinstance(other, LocalElement):
            return NotImplemented
        return (self.place == other.place and self.v == other.v
                and self.coeffs == other.coeffs and self.exact_tail == other.exact_tail)

    def __hash__(self):
        return hash((self.place, self.v, self.coeffs, self.exact_tail))

    def __repr__(self):
        if self.is_exact_zero:
            return f"LocalElement(0 at {self.place!r})"
        if not self.coeffs:
            return f"LocalElement(O(u^{self.v}) at {self.place!r})"
        tail = "" if self.exact_tail else f" + O(u^{self.v + len(self.coeffs)})"
        return f"LocalElement(u^{self.v} * {len(self.coeffs)} coeffs{tail} at {self.place!r})"


def make_local(place: Place, v: int, coeffs: tuple, exact_tail: bool) -> LocalElement:
    i = 0
    while i < len(coeffs) and not coeffs[i]:
        i += 1
    if i == len(coeffs):
        if exact_tail:
            return LocalElement.exact_zero(place)
        return LocalElement(place, v + len(coeffs), (), False)
    coeffs = coeffs[i:]
    if exact_tail:
        j = len(coeffs)
        while j and not coeffs[j - 1]:
            j -= 1
        coeffs = coeffs[:j]
    return LocalElement(place, v + i, coeffs, exact_tail)


def product_coefficient(a: LocalElement, b: LocalElement, i: int):
    """(a * b).coefficient(i) in O(len), without forming a * b: it raises
    InsufficientPrecision exactly where the product's coefficient would."""
    a._check(b)
    if a.is_exact_zero or b.is_exact_zero:
        return 0
    v = a.v + b.v
    if i < v:
        return 0
    if not a.coeffs or not b.coeffs:
        raise InsufficientPrecision(f"coefficient {i} beyond certified 0 mod u^{v}")
    k = i - v
    na, nb = len(a.coeffs), len(b.coeffs)
    if not (a.exact_tail and b.exact_tail):
        n = min(na if not a.exact_tail else INF, nb if not b.exact_tail else INF)
        if k >= n:
            raise InsufficientPrecision(f"coefficient {i} beyond precision O(u^{v + n})")
    K = a.place.residue()
    add, mul = K.add, K.mul
    acc = 0
    for j in range(max(0, k - nb + 1), min(k, na - 1) + 1):
        acc = add(acc, mul(a.coeffs[j], b.coeffs[k - j]))
    return acc


# ---------------------------------------------------------------------------
# expansion of rational functions
# ---------------------------------------------------------------------------

def _shifted_poly(poly, place: Place):
    """Coefficients of A(theta + u) over the residue field, exact: Horner
    steps acc <- acc * (theta + u) + c, whose top coefficient stays the
    nonzero lead of A."""
    K, theta = place.residue(), place.theta
    add, mul = K.add, K.mul
    acc: list = []
    for c in reversed(poly):
        acc = [add(mul(theta, a), b) for a, b in zip(acc + [0], [c] + acc)]
    return acc


def _series_quotient(K, num, den, n: int):
    """First n coefficients of num/den as power series over K; den[0] != 0."""
    d0_inv = K.inv(den[0])
    sub, mul = K.sub, K.mul
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc = sub(acc, mul(den[i], out[k - i]))
        out.append(mul(acc, d0_inv))
    return tuple(out)


@lru_cache(maxsize=1024)
def expand_at(r: RationalFunction, place: Place, M: int = DEFAULT_SERIES_PRECISION) -> LocalElement:
    """Laurent expansion of r at the place, with exact valuation and M
    coefficients (or an exact tail when the expansion terminates);
    memoised per (r, place, M), since every gamma is expanded again at
    each point and coset it meets."""
    if r.ground != place.ground:
        raise ConfigMismatch("rational function and place over different ground fields")
    if r.is_zero:
        return LocalElement.exact_zero(place)
    if M < 1:
        raise ValueError("M must be >= 1")
    K = place.residue()
    if place.is_infinity:
        num, den = r.num[::-1], r.den[::-1]
        v = (len(r.den) - 1) - (len(r.num) - 1)
        ord_n = ord_d = 0
    else:
        num = _shifted_poly(r.num, place)
        den = _shifted_poly(r.den, place)
        ord_n = next(i for i, c in enumerate(num) if c)
        ord_d = next(i for i, c in enumerate(den) if c)
        num, den = num[ord_n:], den[ord_d:]
        v = ord_n - ord_d
    if len(den) == 1:
        inv0 = K.inv(den[0])
        coeffs = tuple(K.mul(c, inv0) for c in num)
        if len(coeffs) <= M:
            return make_local(place, v, coeffs, True)
        return make_local(place, v, coeffs[:M], False)
    return make_local(place, v, _series_quotient(K, num, den, M), False)


# ---------------------------------------------------------------------------
# the residue character
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiTarget:
    """Where character values live: a p-th root of unity zeta inside the
    configured l-adic field, plus its power table."""

    ground: GroundField
    config: FieldConfig
    zeta: LocalNumber
    powers: tuple

    @classmethod
    def create(cls, ground: GroundField, config: FieldConfig) -> "PsiTarget":
        p = ground.p
        roots = pth_roots_of_unity(config, p)
        zeta = next(r for r in roots if r != config.one())
        powers = [config.one()]
        for _ in range(p - 1):
            powers.append(powers[-1] * zeta)
        return cls(ground, config, zeta, tuple(powers))

    def __post_init__(self):
        # the hash of the fields, stored once: a target keys the term tables
        object.__setattr__(self, "_hash", hash((self.ground, self.config, self.zeta, self.powers)))

    def __hash__(self):
        return self._hash

    def psi0(self, a: int) -> LocalNumber:
        return self.powers[a % self.ground.p]


def psi_conductor(place: Place) -> int:
    """The least m with psi_v trivial on p_v^m: 2 at infinity, where dt
    has its double pole, and 0 elsewhere."""
    return 2 if place.is_infinity else 0


def trace_digits(place: Place, x: LocalElement | None, r: RationalFunction, level=0) -> int:
    """The one rule for how far the nonzero r is expanded at the place,
    read from the element x the expansion will meet (None for a table or
    character read) and r's order there, from r.orders: for the residue
    trace of x * r, absolute precision psi_conductor plus a margin of
    three digits, x's valuation read as 0 when positive or x is
    zero-like, so that all such x share one expansion; for a table or
    character that reads level >= 1 digits of r's unit part, one digit
    past the level and never fewer than level digits."""
    xv = 0 if x is None or x.is_zero_like else min(x.v, 0)
    need = max(psi_conductor(place), level + 1) if level else psi_conductor(place)
    return max(1, level, need - xv - r.orders.get(place, 0) + 3)


def residue_trace(place: Place, x: LocalElement, y: LocalElement | None = None):
    """Tr_{kappa(v)/F_p}(res_v(x y dt)) as an int mod p; y = None means 1,
    and x y is not formed.

    dt = du at finite places, dt = -u^{-2} du at infinity, so the residue
    reads off the coefficient at index -1 (finite) or minus the one at
    index +1 (infinity).
    """
    K = place.residue()
    i = 1 if place.is_infinity else -1
    c = x.coefficient(i) if y is None else product_coefficient(x, y, i)
    return K.trace(K.neg(c) if place.is_infinity else c)


def psi_local(place: Place, x: LocalElement, target: PsiTarget) -> LocalNumber:
    """The local additive character: psi_0 of the residue trace."""
    _check_psi(place, x, target)
    return target.psi0(residue_trace(place, x))


def _check_psi(place: Place, x: LocalElement, target: PsiTarget):
    if x.place != place:
        raise ConfigMismatch("local element does not live at the given place")
    if place.ground != target.ground:
        raise ConfigMismatch("psi target built for a different ground field")


def psi_global(a: "Adele", target: PsiTarget) -> LocalNumber:
    """The character of A/k at the adele: psi_0 of the sum of the residue
    traces of its components, one value for the whole support."""
    trace = 0
    for place, x in a.items:
        _check_psi(place, x, target)
        trace += residue_trace(place, x)
    return target.psi0(trace)


# ---------------------------------------------------------------------------
# adeles and divisors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Adele:
    """A finitely supported adele; unlisted components are exactly zero."""

    ground: GroundField
    items: tuple  # sorted ((place, LocalElement)), no zero components

    @classmethod
    def make(cls, ground: GroundField, components) -> "Adele":
        items = by_place(components, "adele support")
        if any(x.place != place for place, x in items):
            raise ConfigMismatch("component attached to the wrong place")
        return cls(ground, tuple((pl, x) for pl, x in items if not x.is_exact_zero))

    @classmethod
    def zero(cls, ground: GroundField) -> "Adele":
        return cls(ground, ())

    def __neg__(self):
        return Adele(self.ground, tuple((pl, -x) for pl, x in self.items))


def principal_adele(r: RationalFunction) -> Adele:
    """The diagonal image of r, carried on its poles and infinity, with
    enough precision to evaluate the residue character (trace_digits)."""
    ground = r.ground
    if r.is_zero:
        return Adele.zero(ground)
    places = {pl for pl, m in r.orders.items() if m < 0} | {ground.infinity()}
    return Adele.make(ground, [
        (pl, expand_at(r, pl, trace_digits(pl, None, r))) for pl in places])


def scale_adele(a: Adele, r: RationalFunction) -> Adele:
    """Componentwise product of an adele with (the expansions of) r, each
    to the digits trace_digits gives."""
    if r.is_zero:
        return Adele.zero(a.ground)
    return Adele.make(a.ground, [
        (pl, x * expand_at(r, pl, trace_digits(pl, x, r)))
        for pl, x in a.items])


def scaled_trace(a: Adele, r: RationalFunction, memo: dict) -> int:
    """The residue-trace sum of scale_adele(a, r), psi_global of which is
    psi_0 of it, with no product formed: product_coefficient raises
    exactly where the product's coefficient would.  r is nonzero.  memo
    maps a component (place, x) to its trace against this r, so adeles
    that share a component trace it once; only a trace that raised
    nothing is stored."""
    trace = 0
    for item in a.items:
        t = memo.get(item)
        if t is None:
            pl, x = item
            gexp = expand_at(r, pl, trace_digits(pl, x, r))
            t = memo[item] = residue_trace(pl, x, gexp)
        trace += t
    return trace


@dataclass(frozen=True)
class Divisor:
    """A finitely supported integer-valued map on places."""

    ground: GroundField
    items: tuple  # sorted ((place, mult)), mult != 0

    @classmethod
    def make(cls, ground: GroundField, pairs) -> "Divisor":
        acc: dict = {}
        for place, m in pairs:
            if place.ground != ground:
                raise ConfigMismatch("place over a different ground field")
            acc[place] = acc.get(place, 0) + int(m)
        return cls(ground, by_place(((pl, m) for pl, m in acc.items() if m), "divisor"))

    @classmethod
    def zero(cls, ground: GroundField) -> "Divisor":
        return cls(ground, ())

    def get(self, place: Place) -> int:
        for pl, m in self.items:
            if pl == place:
                return m
        return 0

    def support(self):
        return tuple(pl for pl, _ in self.items)

    @property
    def degree(self) -> int:
        return sum(m * pl.degree for pl, m in self.items)


# ---------------------------------------------------------------------------
# Riemann-Roch, kernel sets, cosets
# ---------------------------------------------------------------------------

def _poly_power(F, poly, e: int):
    out = (1,)
    for _ in range(e):
        out = fp_mul(F, out, poly)
    return out


def rr_space(D: Divisor) -> tuple:
    """A basis of L(D) = {f : div(f) >= -D}, dimension max(deg D + 1, 0).

    On the projective line the basis is explicit: with B the product of
    the positive finite part and C the product of the negative finite
    part, the functions C t^i / B for 0 <= i <= deg D work.
    """
    ground = D.ground
    F = ground.field()
    bplus: tuple = (1,)
    c: tuple = (1,)
    n_inf = 0
    for pl, m in D.items:
        if pl.is_infinity:
            n_inf = m
        elif m > 0:
            bplus = fp_mul(F, bplus, _poly_power(F, pl.poly, m))
        else:
            c = fp_mul(F, c, _poly_power(F, pl.poly, -m))
    deg_d = D.degree
    if deg_d != (len(bplus) - 1) + n_inf - (len(c) - 1):
        raise RuntimeError("divisor degree disagrees with its polynomial parts")
    if deg_d < 0:
        return ()
    basis = []
    for i in range(deg_d + 1):
        num = fp_mul(F, c, (0,) * i + (1,))
        basis.append(RationalFunction.make(ground, num, bplus))
    return tuple(basis)


def span_nonzero(ground: GroundField, basis, cap: int = DEFAULT_ENUMERATION_CAP):
    """All nonzero F_q-linear combinations of the basis, in coefficient
    order, each one numerator sum(c_i N_i) over the common denominator of
    the basis, reduced once; TooLarge when q^dim exceeds the cap."""
    q = ground.q
    dim = len(basis)
    if q ** dim > cap:
        raise TooLarge(f"{q}^{dim} combinations exceed the cap {cap}")
    F = ground.field()
    den: tuple = (1,)
    for b in basis:
        den = fp_mul(F, den, fp_divmod(F, b.den, fp_gcd(F, den, b.den))[0])
    nums = [fp_mul(F, b.num, fp_divmod(F, den, b.den)[0]) for b in basis]
    out = []
    for code in itertools.product(range(q), repeat=dim):
        if not any(code):
            continue
        num: tuple = ()
        for ci, n in zip(code, nums):
            if ci:
                num = fp_add(F, num, fp_scale(F, n, ci))
        out.append(RationalFunction.make(ground, num, den))
    return tuple(out)


def psi_conductor_divisor(U: Divisor) -> Divisor:
    """The divisor whose Riemann-Roch space is exactly
    {gamma : gamma * p_v^{m_v} inside Ker psi_v for all v}: the finite
    exponents carry over and infinity is shifted by the double pole of dt."""
    ground = U.ground
    inf = ground.infinity()
    pairs = [(pl, m) for pl, m in U.items if not pl.is_infinity]
    pairs.append((inf, U.get(inf) - psi_conductor(inf)))
    return Divisor.make(ground, pairs)


@lru_cache(maxsize=64)
def rr_nonzero(D: Divisor, cap: int) -> tuple:
    """The nonzero elements of L(D), span_nonzero of the rr_space basis,
    memoised per (D, cap): the gamma supports of many points share a
    divisor."""
    return span_nonzero(D.ground, rr_space(D), cap)


def psi_kernel_set(U: Divisor, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple:
    """The finite set {gamma in k^x : gamma * U_v in Ker psi_v for all v},
    where U encodes the open subgroup prod p_v^{m_v}."""
    return rr_nonzero(psi_conductor_divisor(U), cap)


def quotient_index(U: Divisor) -> int:
    """Index of the image of prod p_v^{m_v} inside adeles mod k.

    Exact for genus zero: the full integral adele ring surjects with
    kernel the constants, so the index is q^(sum m_v deg v - 1) when the
    exponent sum is positive and 1 otherwise: p^quotient_exponent(U).
    """
    return U.ground.p ** quotient_exponent(U)


def quotient_exponent(U: Divisor) -> int:
    """The e with quotient_index(U) = p^e, read from U without forming
    the power: f * (sum m_v deg v - 1), or 0 when the sum is 0."""
    total = 0
    for pl, m in U.items:
        if m < 0:
            raise ValueError("quotient_index requires all exponents >= 0")
        total += m * pl.degree
    return U.ground.f * (total - 1) if total else 0


def coset_reps(U: Divisor, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple:
    """Exactly quotient_index(U) adeles representing (A/k) / image(U).

    Representatives are integral adeles supported on the places with
    positive exponent, their digits 0..m_v - 1 at each place running in
    lexicographic order over the places in sort order, the last digit
    fastest; the diagonal constant field is normalized away by pinning
    the base coordinate of the first digit at the first place.  That
    order fixes the order in which a Fourier coefficient sums its cosets.
    Each place's components are built once, one LocalElement per digit
    combination there, and the representatives combine them.
    """
    index = quotient_index(U)
    if index > cap:
        raise TooLarge(f"coset count {index} exceeds the cap {cap}")
    ground = U.ground
    supp = [(pl, m) for pl, m in U.items if m > 0]
    if not supp:
        return (Adele.zero(ground),)

    components = []
    for pi, (pl, m) in enumerate(supp):
        K = pl.residue()
        digits = [K.elements()] * m
        if pi == 0:
            # the residues whose base coordinate (lowest base-q digit) is 0
            digits[0] = range(0, K.order, ground.q)
        components.append([(pl, LocalElement.from_coeffs(pl, 0, coeffs, exact=True))
                           for coeffs in itertools.product(*digits)])
    # supp is sorted by place, so every representative's items are too
    reps = tuple(Adele(ground, tuple(c for c in combo if not c[1].is_exact_zero))
                 for combo in itertools.product(*components))
    if len(reps) != index:
        raise RuntimeError("coset representatives do not match the quotient index")
    return reps


# ---------------------------------------------------------------------------
# weak approximation
# ---------------------------------------------------------------------------

def series_to_poly_mod(x: LocalElement, c: int) -> tuple:
    """The polynomial of degree < c*deg(v) congruent to the integral local
    element x modulo p_v^c (digit extraction in powers of the place)."""
    place = x.place
    if place.is_infinity:
        raise ValueError("digit extraction is defined at finite places only")
    if not x.is_exact_zero and x.abs_prec() < c:
        raise InsufficientPrecision(f"need absolute precision {c}")
    if not x.is_zero_like and x.v < 0:
        raise ValueError("digit extraction requires an integral element")
    ground = place.ground
    F = ground.field()
    deg = place.degree
    p_rf = RationalFunction.make(ground, place.poly, (1,))
    p_inv = expand_at(p_rf, place, c + 2).inverse(c + 2)
    cur = x
    result: tuple = ()
    p_power: tuple = (1,)
    for _ in range(c):
        if cur.is_exact_zero:
            break
        # the digit is the image of cur in the residue field
        digit = 0 if (cur.is_zero_like or cur.v >= 1) else cur.coefficient(0)
        if digit:
            # the class of s becomes a polynomial in t
            lift = fp_trim(to_digits(digit, ground.q, deg))
            result = fp_add(F, result, fp_mul(F, lift, p_power))
            cur = cur - expand_at(RationalFunction.make(ground, lift, (1,)),
                                  place, deg + 1)
        cur = cur * p_inv
        p_power = fp_mul(F, p_power, place.poly)
    return result


def _smallest_unused_place(ground: GroundField, used) -> Place:
    used = set(used)
    for pl in enumerate_places(ground, 7):
        if not pl.is_infinity and pl not in used:
            return pl
    raise RuntimeError("no auxiliary place found (ground field too small?)")


def weak_approx(constraints) -> RationalFunction:
    """A global function matching finitely many local targets.

    Each constraint is (place, target LocalElement, h) and the output y
    satisfies ord_v(y - target) >= h.  Solved by polynomial CRT at the
    finite places with explicit coefficient prescriptions at infinity; an
    auxiliary unconstrained place absorbs extra poles when the infinity
    constraint and the finite congruences would otherwise conflict.
    """
    if not constraints:
        raise ValueError("weak_approx needs the ground field; pass at least one constraint")
    ground = constraints[0][0].ground
    inf_constraint = None
    finite = []
    for place, target, h in by_place(constraints, "constraints"):
        if place.ground != ground:
            raise ConfigMismatch("constraints over different ground fields")
        if target.place != place:
            raise ConfigMismatch("target attached to the wrong place")
        if place.is_infinity:
            inf_constraint = (target, int(h))
        else:
            finite.append((place, target, int(h)))

    F = ground.field()
    one: tuple = (1,)

    # pole allowance and congruence data at the finite places
    b_exp: dict = {}
    for place, target, h in finite:
        vt = 0 if target.is_zero_like else target.valuation()
        b_exp[place] = max(0, -int(min(vt, 0)))

    def build(B_poly):
        congruences = []
        for place, target, h in finite:
            c_v = h + b_exp[place]
            if c_v <= 0:
                continue
            if not target.is_exact_zero and target.abs_prec() < h:
                raise InsufficientPrecision(
                    f"target at {place!r} certified below requested precision {h}")
            v_t = target.v if target.coeffs else h
            Mv = max(1, h - v_t + 2)
            z = target * expand_at(RationalFunction.make(ground, B_poly, one), place, Mv)
            Z = series_to_poly_mod(z, c_v)
            congruences.append((Z, _poly_power(F, place.poly, c_v)))
        return fp_crt(F, congruences)

    B0 = one
    for place, _, _ in finite:
        B0 = fp_mul(F, B0, _poly_power(F, place.poly, b_exp[place]))
    if inf_constraint is None:
        return RationalFunction.make(ground, build(B0)[0], B0)

    x_inf, h_inf = inf_constraint
    if not x_inf.is_exact_zero and x_inf.abs_prec() < h_inf:
        raise InsufficientPrecision("infinity target certified below requested precision")

    deg_pi_bound = sum((h + b_exp[pl]) * pl.degree for pl, _, h in finite)
    aux = _smallest_unused_place(ground, [pl for pl, _, _ in finite])

    # choose the auxiliary pole order so the top coefficients prescribed by
    # the infinity condition sit above everything the CRT determines
    target_deg = max(len(B0) - 1, deg_pi_bound + max(h_inf, 0) + 1)
    j = 0
    while (len(B0) - 1) + j * aux.degree < target_deg:
        j += 1
    B = fp_mul(F, B0, _poly_power(F, aux.poly, j))
    deg_bw = len(B) - 1

    A_crt, Pi = build(B)
    deg_pi = len(Pi) - 1
    j0 = max(0, deg_bw - h_inf + 1)
    if j0 < deg_pi:
        raise RuntimeError("auxiliary pole order too small")

    # prescribed high coefficients, from j0 up, of w = x_inf * expansion(B)
    # at infinity, whose residue field is F_q
    Mw = max(1, deg_bw - j0 - x_inf.v + 3)
    w = x_inf * expand_at(RationalFunction.make(ground, B, one), ground.infinity(), Mw)
    k_max = -1 if w.is_zero_like else -w.valuation()
    A_high = fp_trim(tuple(w.coefficient(-k) if k >= j0 else 0 for k in range(k_max + 1)))

    rem = fp_mod(F, fp_sub(F, A_crt, A_high), Pi)
    A = fp_add(F, A_high, rem)
    return RationalFunction.make(ground, A, B)
