"""Small finite fields and polynomial arithmetic over them.

One field protocol and one polynomial layer:

* field objects form a tower rooted at PrimeField(p) (Z/p, int
  elements); ExtField(base, modulus) is base[s]/(modulus) with elements
  fixed-length tuples of base elements, and GF(p, deg) is the ExtField
  F_{p^deg} over PrimeField(p) with integer fast paths for its hot
  element operations;
* generic polynomial helpers (fp_*) parameterised by any field object.

Everything here is exact and deterministic.  Fields are desk-scale: the
code assumes orders small enough that trial division and exhaustive
searches finish instantly.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InputError

IntPoly = tuple  # ints mod p, ascending degree


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_power_decomposition(q: int):
    """Return (p, f) with q = p^f, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1) if q > 1 else None
        if q % p:
            continue
        f = 0
        m = q
        while m % p == 0:
            m //= p
            f += 1
        return (p, f) if m == 1 else None
    return None


def factorize_int(n: int) -> dict:
    """Prime factorization by trial division; {prime: multiplicity}."""
    out: dict = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


# ---------------------------------------------------------------------------
# polynomials over an arbitrary field object
# ---------------------------------------------------------------------------
# A "field object" F provides: zero, one, order, char(), deg_over_prime(),
# is_zero, add, sub, neg, mul, inv, pow, and from_int and to_int (integer
# codes below the order).  PrimeField, ExtField and GF below are the field
# objects; ExtField and GF also list their elements() in code order.
# Polynomials are tuples of F-elements, ascending degree, trailing zeros
# stripped, () = 0.

def fp_trim(F, c) -> tuple:
    c = tuple(c)
    n = len(c)
    while n and F.is_zero(c[n - 1]):
        n -= 1
    return c[:n]


def fp_add(F, a, b) -> tuple:
    n = max(len(a), len(b))
    za = a + (F.zero,) * (n - len(a))
    zb = b + (F.zero,) * (n - len(b))
    return fp_trim(F, tuple(F.add(x, y) for x, y in zip(za, zb)))


def fp_neg(F, a) -> tuple:
    return tuple(F.neg(x) for x in a)


def fp_sub(F, a, b) -> tuple:
    return fp_add(F, a, fp_neg(F, b))


def fp_mul(F, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not F.is_zero(ca):
            for j, cb in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(ca, cb))
    return fp_trim(F, out)


def fp_scale(F, a, c) -> tuple:
    return fp_trim(F, tuple(F.mul(x, c) for x in a))


def fp_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, inv_lead = len(b) - 1, F.inv(b[-1])
    q = [F.zero] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        c = F.mul(a[i + db], inv_lead)
        if not F.is_zero(c):
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = F.sub(a[i + j], F.mul(c, cb))
    return fp_trim(F, q), fp_trim(F, a)


def fp_mod(F, a, b) -> tuple:
    return fp_divmod(F, a, b)[1]


def fp_monic(F, a) -> tuple:
    if not a:
        return a
    return fp_scale(F, a, F.inv(a[-1]))


def fp_gcd(F, a, b) -> tuple:
    while b:
        a, b = b, fp_mod(F, a, b)
    return fp_monic(F, a)


def fp_powmod(F, a, e: int, mod) -> tuple:
    result = (F.one,)
    base = fp_mod(F, a, mod)
    while e:
        if e & 1:
            result = fp_mod(F, fp_mul(F, result, base), mod)
        base = fp_mod(F, fp_mul(F, base, base), mod)
        e >>= 1
    return result


def fp_eval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def fp_deriv(F, a) -> tuple:
    p = F.char()
    out = []
    for i in range(1, len(a)):
        c = a[i]
        s = F.zero
        for _ in range(i % p):
            s = F.add(s, c)
        out.append(s)
    return fp_trim(F, out)


@lru_cache(maxsize=4096)
def fp_is_irreducible(F, f) -> bool:
    """Monic tuple f over F (order q); gcd test against X^{q^i} - X."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    q = F.order
    x = (F.zero, F.one)
    xq = x
    for _ in range(d):
        xq = fp_powmod(F, xq, q, f)
    if xq != fp_mod(F, x, f):
        return False
    for r in factorize_int(d):
        xe = x
        for _ in range(d // r):
            xe = fp_powmod(F, xe, q, f)
        if fp_gcd(F, fp_sub(F, xe, x), f) != (F.one,):
            return False
    return True


def _fp_pth_root(F, c):
    # x -> x^p is bijective on F_q; the inverse is x -> x^(q/p)
    return F.pow(c, F.order // F.char())


def fp_squarefree_parts(F, f):
    """[(squarefree factor, multiplicity)] for monic f, char-p aware."""
    p = F.char()
    out = []

    def rec(g, mult):
        if len(g) <= 1:
            return
        dg = fp_deriv(F, g)
        if not dg:
            # g = h(x^p); take p-th roots of coefficients
            h = tuple(_fp_pth_root(F, g[i]) for i in range(0, len(g), p))
            rec(h, mult * p)
            return
        w = fp_gcd(F, g, dg)
        sqfree = fp_divmod(F, g, w)[0]
        i = 1
        while len(sqfree) > 1:
            y = fp_gcd(F, sqfree, w)
            factor = fp_divmod(F, sqfree, y)[0]
            if len(factor) > 1:
                out.append((factor, mult * i))
            sqfree = y
            if len(w) > 1:
                w = fp_divmod(F, w, y)[0]
            i += 1
        if len(w) > 1:
            rec(w, mult)

    rec(fp_monic(F, f), 1)
    return out


@lru_cache(maxsize=256)
def fp_factor(F, f) -> tuple:
    """Full factorization of the monic tuple f into ((monic irreducible,
    mult), ...), memoised per (field, polynomial).

    Distinct-degree splitting plus Cantor-Zassenhaus with a deterministic
    trial sequence, so repeated runs agree.  Result sorted for stability.
    """
    result = []
    for g, mult in fp_squarefree_parts(F, f):
        for irr in _fp_factor_squarefree(F, g):
            result.append((irr, mult))
    return tuple(sorted(result))


def _fp_factor_squarefree(F, f):
    q = F.order
    out = []
    x = (F.zero, F.one)
    xq = x
    d = 0
    rest = fp_monic(F, f)
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        xq = fp_powmod(F, xq, q, rest)
        g = fp_gcd(F, fp_sub(F, xq, x), rest)
        if len(g) > 1:
            out.extend(_fp_split_equal_degree(F, g, d))
            rest = fp_divmod(F, rest, g)[0]
            xq = fp_mod(F, xq, rest)
    if len(rest) > 1:
        out.append(rest)
    return out


def _fp_split_equal_degree(F, f, d):
    n = len(f) - 1
    if n == d:
        return [fp_monic(F, f)]
    q = F.order
    # deterministic "random" elements: successive polynomials with
    # coefficients read off a counter in base q
    counter = 1
    while True:
        counter += 1
        c = counter
        coeffs = []
        for _ in range(n):
            c, r = divmod(c, q)
            coeffs.append(F.from_int(r))
        a = fp_trim(F, coeffs)
        if len(a) < 1:
            continue
        if q % 2 == 1:
            b = fp_sub(F, fp_powmod(F, a, (q ** d - 1) // 2, f), (F.one,))
        else:
            # char 2: trace map sum a^(2^i)
            b = a
            acc = a
            for _ in range(d * F.deg_over_prime() - 1):
                acc = fp_powmod(F, acc, 2, f)
                b = fp_add(F, b, acc)
        g = fp_gcd(F, b, f)
        if 0 < len(g) - 1 < n:
            left = _fp_split_equal_degree(F, g, d)
            right = _fp_split_equal_degree(F, fp_divmod(F, f, g)[0], d)
            return left + right


def fp_crt(F, congruences):
    """Solve x = r_i mod m_i for pairwise coprime moduli; returns x."""
    x: tuple = ()
    m: tuple = (F.one,)
    for r, mod in congruences:
        g, u, _ = fp_xgcd(F, m, mod)
        if g != (F.one,):
            raise InputError("CRT moduli are not coprime")
        # x' = x + m * u * (r - x) mod m*mod
        delta = fp_mod(F, fp_sub(F, r, x), mod)
        x = fp_add(F, x, fp_mul(F, fp_mul(F, m, u), delta))
        m = fp_mul(F, m, mod)
        x = fp_mod(F, x, m)
    return x, m


def fp_xgcd(F, a, b):
    """g, u, v with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = (F.one,), ()
    t0, t1 = (), (F.one,)
    while r1:
        qt, rem = fp_divmod(F, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, fp_sub(F, s0, fp_mul(F, qt, s1))
        t0, t1 = t1, fp_sub(F, t0, fp_mul(F, qt, t1))
    if r0:
        c = F.inv(r0[-1])
        r0, s0, t0 = fp_scale(F, r0, c), fp_scale(F, s0, c), fp_scale(F, t0, c)
    return r0, s0, t0


# ---------------------------------------------------------------------------
# the field tower: Z/p, F_{p^f}, residue fields
# ---------------------------------------------------------------------------

class PrimeField:
    """Z/p with int elements: the root of every field tower here."""

    __slots__ = ("p", "order", "zero", "one")

    def __init__(self, p: int):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.zero = 0
        self.one = 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"

    def char(self):
        return self.p

    def deg_over_prime(self):
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def to_int(self, x: int) -> int:
        return x

    def is_zero(self, x) -> bool:
        return not x

    def add(self, x, y) -> int:
        return (x + y) % self.p

    def sub(self, x, y) -> int:
        return (x - y) % self.p

    def neg(self, x) -> int:
        return (-x) % self.p

    def mul(self, x, y) -> int:
        return (x * y) % self.p

    def inv(self, x) -> int:
        if not x:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(x, -1, self.p)

    def pow(self, x, e: int) -> int:
        if e < 0:
            x, e = self.inv(x), -e
        return pow(x, e, self.p)


class ExtField:
    """F[s]/(modulus) for a field object F and irreducible monic modulus.

    Used for residue fields of places, where the base is F_q and the
    modulus is the place's defining polynomial, and (as GF) for F_{p^f}
    itself over Z/p.  Elements are tuples of base elements of fixed length
    deg(modulus).
    """

    __slots__ = ("base", "modulus", "deg", "order", "zero", "one", "_gen")

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise InputError("extension modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = modulus
        self.deg = len(modulus) - 1
        self.order = base.order ** self.deg
        self.zero = (base.zero,) * self.deg
        self.one = (base.one,) + (base.zero,) * (self.deg - 1)
        self._gen = None

    def __eq__(self, other):
        return (isinstance(other, ExtField)
                and self.base == other.base and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.base, self.modulus))

    def __repr__(self):
        return f"ExtField({self.base!r}, deg={self.deg})"

    def char(self):
        return self.base.char()

    def deg_over_prime(self):
        return self.deg * self.base.deg_over_prime()

    def _pad(self, c):
        return tuple(c) + (self.base.zero,) * (self.deg - len(c))

    def from_base(self, b):
        return (b,) + (self.base.zero,) * (self.deg - 1)

    def from_int(self, n: int):
        n %= self.order
        digits = []
        for _ in range(self.deg):
            n, r = divmod(n, self.base.order)
            digits.append(self.base.from_int(r))
        return tuple(digits)

    def to_int(self, x) -> int:
        n = 0
        for c in reversed(x):
            n = n * self.base.order + self.base.to_int(c)
        return n

    def gen(self):
        """The class of s (a root of the modulus)."""
        if self.deg == 1:
            return (self.base.neg(self.modulus[0]),)
        return self._pad((self.base.zero, self.base.one))

    def is_zero(self, x) -> bool:
        return all(self.base.is_zero(c) for c in x)

    def add(self, x, y):
        return tuple(self.base.add(a, b) for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(self.base.sub(a, b) for a, b in zip(x, y))

    def neg(self, x):
        return tuple(self.base.neg(a) for a in x)

    def mul(self, x, y):
        if self.deg == 1:
            return (self.base.mul(x[0], y[0]),)
        prod = fp_mul(self.base, fp_trim(self.base, x), fp_trim(self.base, y))
        return self._pad(fp_mod(self.base, prod, self.modulus))

    def inv(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero field element")
        if self.deg == 1:
            return (self.base.inv(x[0]),)
        g, u, _ = fp_xgcd(self.base, fp_trim(self.base, x), self.modulus)
        if g != (self.base.one,):
            raise ZeroDivisionError("element is not invertible (modulus reducible?)")
        return self._pad(u)

    def pow(self, x, e: int):
        if e < 0:
            x, e = self.inv(x), -e
        result = self.one
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def trace_to_base(self, x):
        """Tr to the base field: sum of x^(q^i), returned as a base element."""
        acc = self.zero
        y = x
        for _ in range(self.deg):
            acc = self.add(acc, y)
            y = self.pow(y, self.base.order)
        if not all(self.base.is_zero(c) for c in acc[1:]):
            raise RuntimeError("trace landed outside the base field")
        return acc[0]

    def elements(self):
        """All elements in to_int order (deterministic)."""
        for n in range(self.order):
            yield self.from_int(n)

    def generator(self):
        """Smallest multiplicative generator in to_int order."""
        if self._gen is not None:
            return self._gen
        n = self.order - 1
        primes = list(factorize_int(n))
        for m in range(1, self.order):
            x = self.from_int(m)
            if all(self.pow(x, n // r) != self.one for r in primes):
                self._gen = x
                return x
        raise RuntimeError("no generator found (impossible for a field)")


class GF(ExtField):
    """The field F_{p^deg} as ExtField(PrimeField(p), modulus).

    Elements are tuples of ints mod p of fixed length ``deg``.  The hot
    element operations (is_zero, add, sub, neg, and mul and inv at degree
    1) work on the ints directly; everything else is the generic ExtField
    code.  Instances are immutable after construction and may be shared
    freely.
    """

    __slots__ = ("p",)

    def __init__(self, p: int, deg: int = 1, modulus: IntPoly | None = None):
        base = PrimeField(p)
        if deg < 1:
            raise InputError("degree must be >= 1")
        if modulus is None:
            modulus = smallest_irreducible(p, deg)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != deg + 1 or modulus[-1] != 1:
            raise InputError("modulus must be monic of the stated degree")
        if not fp_is_irreducible(base, modulus):
            raise InputError("modulus is reducible")
        super().__init__(base, modulus)
        self.p = p

    def __repr__(self):
        return f"GF({self.p}^{self.deg})" if self.deg > 1 else f"GF({self.p})"

    def is_zero(self, x) -> bool:
        return not any(x)

    def add(self, x, y) -> tuple:
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def sub(self, x, y) -> tuple:
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def neg(self, x) -> tuple:
        p = self.p
        return tuple((-a) % p for a in x)

    def mul(self, x, y) -> tuple:
        if self.deg == 1:
            return ((x[0] * y[0]) % self.p,)
        return super().mul(x, y)

    def inv(self, x) -> tuple:
        if self.deg > 1:
            return super().inv(x)
        if not x[0]:
            raise ZeroDivisionError("inverse of zero field element")
        return (pow(x[0], -1, self.p),)


@lru_cache(maxsize=64)
def gf_field(p: int, deg: int = 1, modulus: IntPoly | None = None) -> GF:
    return GF(p, deg, modulus)


@lru_cache(maxsize=64)
def smallest_irreducible(p: int, d: int) -> IntPoly:
    """First monic irreducible of degree d over Z/p in the fixed
    enumeration order (low coefficients vary fastest)."""
    F = PrimeField(p)
    for tail in itertools.product(range(p), repeat=d):
        f = tuple(reversed(tail)) + (1,)
        if fp_is_irreducible(F, f):
            return f
    raise InputError(f"no irreducible polynomial of degree {d} over F_{p}")
