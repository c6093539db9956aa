"""Small finite fields and polynomial arithmetic over them.

Every element of every field here is its integer code, the code that
jsonio reads and writes:

* GF(p) is Z/p, with int elements in [0, p) and plain % p arithmetic;
* ExtField(base, modulus) is base[s]/(modulus); the element
  c_0 + c_1 s + ... + c_(d-1) s^(d-1) is the code sum c_i q^i over the
  base codes c_i, q the base order.  A base element keeps its code, and 0
  and 1 are the codes 0 and 1 in every field;
* gf_field(p, f) is F_{p^f}: GF(p) for f = 1, else the ExtField over GF(p)
  of the smallest irreducible modulus (or of a given one);
* generic polynomial helpers (fp_*) over any of these field objects.

An ExtField builds its tables lazily, on its first multiplication: the
log and antilog tables of the smallest multiplicative generator in code
order, a Zech-log table for addition (for p = 2 addition is xor of the
codes and needs none) and the table of the trace to F_p.  They are built
once per field object, with the polynomial product over the base.
Fields of order above MAX_TABLE_ORDER raise TooLarge there instead.

The residues of padic stay digit tuples over Z/l; to_digits and
from_digits convert at the few places where they meet a residue field.
Everything here is exact and deterministic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InputError, TooLarge

MAX_TABLE_ORDER = 2 ** 16


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


def factorize_int(n: int) -> dict:
    """Prime factorization by trial division; {prime: multiplicity}, and
    {} for n < 2."""
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


def prime_power_decomposition(q: int):
    """Return (p, f) with q = p^f, or None if q is not a prime power."""
    factors = factorize_int(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


def to_digits(n: int, base: int, length: int) -> tuple:
    """The length least significant base-`base` digits of n, lowest first."""
    out = []
    for _ in range(length):
        n, r = divmod(n, base)
        out.append(r)
    return tuple(out)


def from_digits(digits, base: int) -> int:
    n = 0
    for c in reversed(digits):
        n = n * base + c
    return n


# ---------------------------------------------------------------------------
# polynomials over an arbitrary field object
# ---------------------------------------------------------------------------
# A "field object" F provides: zero, one, order, char(), deg_over_prime(),
# add, sub, neg, mul, inv, pow, trace (to F_p), generator(), elements() and
# from_int and to_int (integer codes below the order).  GF and ExtField are
# the field objects.  Polynomials are tuples of codes, ascending degree,
# trailing zeros stripped, () = 0.

def fp_trim(c) -> tuple:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def fp_add(F, a, b) -> tuple:
    n = max(len(a), len(b))
    za = a + (0,) * (n - len(a))
    zb = b + (0,) * (n - len(b))
    return fp_trim(tuple(F.add(x, y) for x, y in zip(za, zb)))


def fp_neg(F, a) -> tuple:
    return tuple(F.neg(x) for x in a)


def fp_sub(F, a, b) -> tuple:
    return fp_add(F, a, fp_neg(F, b))


def fp_mul(F, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    add, mul = F.add, F.mul
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = add(out[i + j], mul(ca, cb))
    return fp_trim(out)


def fp_scale(F, a, c) -> tuple:
    return fp_trim(tuple(F.mul(x, c) for x in a))


def fp_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, inv_lead = len(b) - 1, F.inv(b[-1])
    q = [0] * max(len(a) - db, 0)
    sub, mul = F.sub, F.mul
    for i in range(len(a) - 1 - db, -1, -1):
        c = mul(a[i + db], inv_lead)
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = sub(a[i + j], mul(c, cb))
    return fp_trim(q), fp_trim(a)


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
    result = (1,)
    base = fp_mod(F, a, mod)
    while e:
        if e & 1:
            result = fp_mod(F, fp_mul(F, result, base), mod)
        base = fp_mod(F, fp_mul(F, base, base), mod)
        e >>= 1
    return result


def fp_eval(F, a, x):
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def fp_deriv(F, a) -> tuple:
    # i mod p is the code of the integer i in any field of characteristic p
    p = F.char()
    return fp_trim(tuple(F.mul(a[i], i % p) for i in range(1, len(a))))


@lru_cache(maxsize=4096)
def fp_is_irreducible(F, f) -> bool:
    """Monic tuple f over F (order q); gcd test against X^{q^i} - X."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    q = F.order
    x = (0, 1)
    xq = x
    for _ in range(d):
        xq = fp_powmod(F, xq, q, f)
    if xq != fp_mod(F, x, f):
        return False
    for r in factorize_int(d):
        xe = x
        for _ in range(d // r):
            xe = fp_powmod(F, xe, q, f)
        if fp_gcd(F, fp_sub(F, xe, x), f) != (1,):
            return False
    return True


def fp_squarefree_parts(F, f):
    """[(squarefree factor, multiplicity)] for monic f, char-p aware."""
    p = F.char()
    out = []

    def rec(g, mult):
        if len(g) <= 1:
            return
        dg = fp_deriv(F, g)
        if not dg:
            # g = h(x^p); take p-th roots of coefficients: x -> x^p is
            # bijective on F_q, with inverse x -> x^(q/p)
            h = tuple(F.pow(g[i], F.order // p) for i in range(0, len(g), p))
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
    trial sequence, so repeated runs agree.  The factors are sorted by
    their coefficients' digit tuples over Z/p, lexicographically: the
    order of the coefficient vectors, which is not the order of the codes
    once F_q is an extension.
    """
    result = []
    for g, mult in fp_squarefree_parts(F, f):
        for irr in _fp_factor_squarefree(F, g):
            result.append((irr, mult))
    p, d = F.char(), F.deg_over_prime()
    return tuple(sorted(result, key=lambda fm: (
        tuple(to_digits(c, p, d) for c in fm[0]), fm[1])))


def _fp_factor_squarefree(F, f):
    q = F.order
    out = []
    x = (0, 1)
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
        a = fp_trim(to_digits(counter, q, n))
        if len(a) < 1:
            continue
        if q % 2 == 1:
            b = fp_sub(F, fp_powmod(F, a, (q ** d - 1) // 2, f), (1,))
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
    m: tuple = (1,)
    for r, mod in congruences:
        g, u, _ = fp_xgcd(F, m, mod)
        if g != (1,):
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
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
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

class _CodedField:
    """What every field here shares: its elements are the codes
    0 .. order - 1, with 0 and 1 the codes of zero and one."""

    __slots__ = ()
    zero = 0
    one = 1

    def char(self):
        return self.p

    def from_int(self, n: int) -> int:
        return n % self.order

    def to_int(self, x: int) -> int:
        return x

    def elements(self):
        return range(self.order)


class GF(_CodedField):
    """Z/p with int elements: the root of every field tower here."""

    __slots__ = ("p", "order")

    def __init__(self, p: int):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.order = p

    def __eq__(self, other):
        return isinstance(other, GF) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def deg_over_prime(self):
        return 1

    def add(self, x, y) -> int:
        return (x + y) % self.p

    def sub(self, x, y) -> int:
        return (x - y) % self.p

    def neg(self, x) -> int:
        return -x % self.p

    def mul(self, x, y) -> int:
        return x * y % self.p

    def inv(self, x) -> int:
        if not x:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(x, -1, self.p)

    def pow(self, x, e: int) -> int:
        if e < 0:
            x, e = self.inv(x), -e
        return pow(x, e, self.p)

    def trace(self, x) -> int:
        return x

    def generator(self) -> int:
        """Smallest multiplicative generator (primitive root)."""
        n = self.p - 1
        return next(m for m in range(1, self.p)
                    if all(pow(m, n // r, self.p) != 1 for r in factorize_int(n)))


class ExtField(_CodedField):
    """base[s]/(modulus) for a field object base and a monic irreducible
    modulus over it, with int-coded elements and lazy tables.

    Used for F_{p^f} over GF(p) and for the residue fields of places,
    where the base is F_q and the modulus is the place's polynomial.
    Instances are shared (see ext_field), so each table is built once.
    """

    __slots__ = ("base", "modulus", "deg", "order", "p", "_gen",
                 "_log", "_exp", "_zech", "_trace")

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise InputError("extension modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = modulus
        self.deg = len(modulus) - 1
        self.order = base.order ** self.deg
        self.p = base.char()
        self._gen = None

    def __eq__(self, other):
        return (isinstance(other, ExtField)
                and self.base == other.base and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.base, self.modulus))

    def __repr__(self):
        return f"ExtField({self.base!r}, deg={self.deg})"

    def __getattr__(self, name):
        # called only for a slot not yet set: the tables are built on
        # their first read
        if name not in ("_log", "_exp", "_zech", "_trace"):
            raise AttributeError(name)
        self._build()
        return getattr(self, name)

    def deg_over_prime(self):
        return self.deg * self.base.deg_over_prime()

    def _poly(self, x) -> tuple:
        """x as a polynomial in s over the base."""
        return fp_trim(to_digits(x, self.base.order, self.deg))

    def generator(self) -> int:
        """Smallest multiplicative generator in code order, found with the
        polynomial product over the base."""
        if self._gen is None:
            n = self.order - 1
            exps = [n // r for r in factorize_int(n)]
            self._gen = next(
                m for m in range(1, self.order)
                if all(fp_powmod(self.base, self._poly(m), e, self.modulus) != (1,)
                       for e in exps))
        return self._gen

    def _build(self):
        """Build the log, antilog, Zech-log (None for p = 2) and trace tables."""
        if self.order > MAX_TABLE_ORDER:
            raise TooLarge(f"F_{self.order} is above the field order limit {MAX_TABLE_ORDER}")
        base, q, p, n = self.base, self.base.order, self.p, self.order - 1
        g = self._poly(self.generator())
        exp, log = [0] * (2 * n), [0] * self.order
        x = (1,)
        for k in range(n):
            c = from_digits(x, q)
            exp[k] = exp[k + n] = c
            log[c] = k
            x = fp_mod(base, fp_mul(base, x, g), self.modulus)
        # zech[k] = log(1 + g^k), -1 where 1 + g^k = 0; adding 1 to a code
        # adds 1 to its lowest base-p digit
        self._zech = None if p == 2 else [
            log[c1] if c1 else -1 for c1 in (c - c % p + (c + 1) % p for c in exp[:n])]
        self._exp, self._log = exp, log
        # the trace is F_p-linear in the base-p digits of the code: fill
        # the codes [e p^k, (e + 1) p^k) from [0, p^k) and Tr(p^k)
        D = self.deg_over_prime()
        trace = [0]
        for k in range(D):
            y, tk = p ** k, 0
            for _ in range(D):
                tk, y = self.add(tk, y), self.pow(y, p)
            trace += [(t + e * tk) % p for e in range(1, p) for t in trace]
        self._trace = trace

    def add(self, x, y) -> int:
        if self.p == 2:
            return x ^ y
        if not x:
            return y
        if not y:
            return x
        log = self._log
        lx = log[x]
        z = self._zech[log[y] - lx]
        return self._exp[lx + z] if z >= 0 else 0

    def neg(self, x) -> int:
        if self.p == 2 or not x:
            return x
        # -1 = g^(n/2) for odd p
        return self._exp[self._log[x] + (self.order - 1) // 2]

    def sub(self, x, y) -> int:
        if self.p == 2:
            return x ^ y
        return self.add(x, self.neg(y))

    def mul(self, x, y) -> int:
        if not x or not y:
            return 0
        log = self._log
        return self._exp[log[x] + log[y]]

    def inv(self, x) -> int:
        if not x:
            raise ZeroDivisionError("inverse of zero field element")
        return self._exp[self.order - 1 - self._log[x]]

    def pow(self, x, e: int) -> int:
        if not x:
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return 0 if e else 1
        return self._exp[self._log[x] * e % (self.order - 1)]

    def trace(self, x) -> int:
        """Tr to F_p, as an int mod p."""
        return self._trace[x]


@lru_cache(maxsize=256)
def ext_field(base, modulus) -> ExtField:
    """The shared ExtField of (base, modulus), so that equal fields share
    one set of tables."""
    return ExtField(base, modulus)


def gf_field(p: int, deg: int = 1, modulus: tuple | None = None):
    """F_{p^deg}: GF(p) for deg 1, else ExtField(GF(p), modulus) for a
    monic irreducible modulus of degree deg (the smallest by default)."""
    base = GF(p)
    if deg < 1:
        raise InputError("degree must be >= 1")
    if modulus is None:
        modulus = smallest_irreducible(p, deg)
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != deg + 1 or modulus[-1] != 1:
        raise InputError("modulus must be monic of the stated degree")
    if not fp_is_irreducible(base, modulus):
        raise InputError("modulus is reducible")
    return base if deg == 1 else ext_field(base, modulus)


@lru_cache(maxsize=64)
def smallest_irreducible(p: int, d: int) -> tuple:
    """First monic irreducible of degree d over Z/p in the fixed
    enumeration order (low coefficients vary fastest)."""
    F = GF(p)
    for tail in itertools.product(range(p), repeat=d):
        f = tuple(reversed(tail)) + (1,)
        if fp_is_irreducible(F, f):
            return f
    raise InputError(f"no irreducible polynomial of degree {d} over F_{p}")
