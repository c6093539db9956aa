"""Independent reference implementations the production code is checked
against.

* Schur evaluators, the cross-checks of whittaker.schur_value: the
  classical bialternant quotient and a semistandard-tableau enumeration
  share nothing with the production Jacobi-Trudi table; det is the plain
  cofactor determinant both the bialternant and the per-weight reference
  sweep of test_whittaker expand.
* residue_by_dual_jacobi_trudi, the residue of a Schur value mod l from
  the dual Jacobi-Trudi determinant in the elementary symmetric
  functions of the entries' residues, with no l-adic arithmetic, which
  the residues of whittaker.schur_value and of the sweep behind
  whittaker.check_congruence are checked against.
* TupleField, the polynomial-arithmetic finite field that the int-coded
  tables of elladic.gf.ExtField are checked against.
* gamma_term_per_place, the gamma term of one spec as a product over
  places of psi_v times the local factor, which the one-trace kernel
  elladic.pipeline._gamma_term, and the pair sum elladic.pipeline._sums,
  are checked against.
* ord_by_division, the order of a rational function at a place by
  repeated division, which RationalFunction.divisor is checked against.
* coset_reps_by_digit, the coset representatives of (A/k) / image(U)
  enumerated one digit position at a time, which the per-place
  function_field.coset_reps is checked against, order included.
* add_by_digit_sum and mul_by_umul, a + b as the structural-cancellation
  check then the one-step digit sum, and a * b through the general
  unit-polynomial product, which the two-term operators of
  padic.LocalNumber are checked against, PrecisionLoss messages included.
"""

import itertools

from elladic.errors import ConfigMismatch, TooLarge, UnsupportedPoint
from elladic.function_field import (INF, Adele, LocalElement, Place,
                                    expand_at, psi_conductor, psi_local)
from elladic.gf import factorize_int, fp_divmod, fp_factor, fp_monic, from_digits
from elladic.padic import LocalNumber, _digit_sum, _umul
from elladic.pipeline import TabulatedDatum
from elladic.satake import SatakeParam, elementary_symmetric_all
from elladic.whittaker import is_dominant, whittaker_value

ORACLE_MAX_RANK = 4
ORACLE_MAX_WEIGHT = 8


def det(config, rows):
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
        term = c * det(config, minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def add_by_digit_sum(a: LocalNumber, b: LocalNumber) -> LocalNumber:
    """a + b: the exact zero for identical representations of opposite
    sign at one precision, else the one-step digit sum of the two."""
    cfg = a.config
    if b.config != cfg:
        raise ConfigMismatch("operands use different field configurations")
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.v == b.v and a.prec == b.prec:
        mod = cfg.ell ** a.prec
        if all(y == (-x) % mod for x, y in zip(a.coeffs, b.coeffs)):
            return cfg.zero()
    return _digit_sum(cfg, (a, b))


def mul_by_umul(a: LocalNumber, b: LocalNumber) -> LocalNumber:
    """a * b through _umul, to the lesser of the two precisions."""
    cfg = a.config
    if b.config != cfg:
        raise ConfigMismatch("operands use different field configurations")
    if a.is_zero or b.is_zero:
        return cfg.zero()
    prec = min(a.prec, b.prec)
    return LocalNumber(cfg, a.v + b.v, _umul(cfg, a.coeffs, b.coeffs, prec), prec)


def schur_bialternant(S: SatakeParam, a):
    """det(mu_j^(a_l + n - l)) / det(mu_j^(n - l)).

    Meaningful when the parameter residues are pairwise distinct, in which
    case the denominator is a unit and no precision is lost.  With
    coinciding entries the denominator is an exact zero and division
    fails, which is exactly why the production path avoids this formula.
    """
    n = S.n
    cfg = S.config
    num_rows = [[S.mu[j] ** (a[l] + n - 1 - l) for l in range(n)] for j in range(n)]
    den_rows = [[S.mu[j] ** (n - 1 - l) for l in range(n)] for j in range(n)]
    return det(cfg, num_rows) / det(cfg, den_rows)


def schur_oracle(S: SatakeParam, a):
    """Monomial sum over semistandard tableaux, for small shapes only.

    The weight is reduced by its last entry exactly as in schur_value; the
    reduced shape must satisfy n <= 4 and |lambda| <= 8 or TooLarge is
    raised.  This enumeration shares nothing with the Jacobi-Trudi path.
    """
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


def residue_by_dual_jacobi_trudi(S: SatakeParam, a):
    """The residue of s_a(mu), as a code of config.residue_field(), read
    from the residues of the entries alone: det(e_(l'_i - i + j)) for l'
    the conjugate of the partition a - a_n, times e_n^(a_n), where e_k is
    the k-th elementary symmetric function of the residues.  The entries
    must be integral; None when a_n < 0 and e_n reduces to zero, where
    s_a need not be integral."""
    cfg = S.config
    F = cfg.residue_field()
    e = [1]
    for m in S.mu:
        r = from_digits(m.reduce(), cfg.ell)
        e = [F.add(hi, F.mul(r, lo)) for hi, lo in zip(e + [0], [0] + e)]
    n, lam = S.n, [ai - a[-1] for ai in a]
    if a[-1] < 0 and not e[n]:
        return None
    conj = [sum(1 for part in lam if part >= i) for i in range(1, lam[0] + 1)]
    rows = [[e[k] if 0 <= (k := conj[i] - i + j) <= n else 0 for j in range(len(conj))]
            for i in range(len(conj))]
    value = 1
    for col in range(len(rows)):      # Gaussian elimination over F
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            value = F.neg(value)
        value = F.mul(value, rows[col][col])
        inv = F.inv(rows[col][col])
        for r in range(col + 1, len(rows)):
            factor = F.mul(rows[r][col], inv)
            rows[r] = [F.sub(x, F.mul(factor, y)) for x, y in zip(rows[r], rows[col])]
    return F.mul(value, F.pow(e[n] if a[-1] >= 0 else F.inv(e[n]), abs(a[-1])))


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


class TupleField:
    """base[s]/(modulus) with elements the coefficient tuples over the
    base, multiplied as polynomials and reduced by the monic modulus.

    The base is elladic.gf.GF(p) or another TupleField, and the modulus a
    tuple of base elements.  Codes are those of elladic.gf: sum c_i q^i
    over the base codes.  The inverse is x^(order - 2), so no table, log
    or Euclid is shared with the code under test.
    """

    def __init__(self, base, modulus):
        self.base, self.modulus = base, tuple(modulus)
        self.deg = len(self.modulus) - 1
        self.order = base.order ** self.deg
        self.zero = (base.zero,) * self.deg
        self.one = (base.one,) + (base.zero,) * (self.deg - 1)

    def char(self):
        return self.base.char()

    def deg_over_prime(self):
        return self.deg * self.base.deg_over_prime()

    def from_int(self, n):
        digits = []
        for _ in range(self.deg):
            n, r = divmod(n, self.base.order)
            digits.append(self.base.from_int(r))
        return tuple(digits)

    def to_int(self, x):
        n = 0
        for c in reversed(x):
            n = n * self.base.order + self.base.to_int(c)
        return n

    def add(self, x, y):
        return tuple(map(self.base.add, x, y))

    def sub(self, x, y):
        return tuple(map(self.base.sub, x, y))

    def neg(self, x):
        return tuple(map(self.base.neg, x))

    def mul(self, x, y):
        B, d = self.base, self.deg
        prod = [B.zero] * (2 * d - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] = B.add(prod[i + j], B.mul(a, b))
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            for j in range(d + 1):
                prod[i - d + j] = B.sub(prod[i - d + j], B.mul(c, self.modulus[j]))
        return tuple(prod[:d])

    def pow(self, x, e):
        if e < 0:
            x, e = self.inv(x), -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

    def inv(self, x):
        if x == self.zero:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(x, self.order - 2)

    def generator(self):
        """Smallest multiplicative generator in code order."""
        n = self.order - 1
        return next(m for m in range(1, self.order)
                    if all(self.pow(self.from_int(m), n // r) != self.one
                           for r in factorize_int(n)))


def gamma_term_per_place(spec, point, gamma, target):
    """The term of one spec at diag(gamma,1) * point, as (coefficient,
    total half exponent); gamma = None means 1.

    A product over places in place order, stopping at the first zero
    factor: at each place x u^(-a2) gamma is formed in full, gamma
    expanded to a margin sized from the shifted x, psi_v is read from
    it, and the local factor is psi_v times the Whittaker value, or psi_v
    times the table value at gamma's unit part times u^a1 times the
    central twist, an empty table being the zero function.  Nothing is
    shared between places or between specs, and the point is read only
    through its entries, central exponents and support.
    """
    ground, config = spec.ground, spec.config
    places = set(point.support()) | set(spec.S) | {ground.infinity()}
    orders = {}
    if gamma is not None:
        F = ground.field()
        places |= {Place(ground, f) for poly in (fp_monic(F, gamma.num), gamma.den)
                   for f, _ in fp_factor(F, poly)}
        orders = {pl: ord_by_division(gamma, pl) for pl in places}
    at = {pl: (x, a1, a2) for pl, x, a1, a2 in point.entries}
    centrals = dict(point.central)
    coef, total = config.one(), 0
    for pl in sorted(places, key=lambda p: p.sort_key()):
        x, a1, a2 = at.get(pl, (LocalElement.exact_zero(pl), 0, 0))
        c = centrals.get(pl, 0)
        datum = spec.datum_at(pl)
        tabulated = isinstance(datum, TabulatedDatum)
        torus_unit = None
        x = x.shift(-a2)
        if gamma is not None:
            ordg = orders.get(pl, 0)
            need = psi_conductor(pl)
            if tabulated:
                need = max(need, datum.table.max_level() + 1)
            xv = 0 if x.is_zero_like else x.v
            gexp = expand_at(gamma, pl, max(1, need - min(xv, 0) - ordg + 3))
            x = gexp * x
            torus_unit = gexp.shift(-ordg)
            a1 += ordg
        if tabulated and a2 != 0:
            raise UnsupportedPoint("tabulated data queried with a2 != 0")
        psi_val = psi_local(pl, x, target)
        half = 0
        if tabulated:
            y = LocalElement.uniformizer_power(pl, a1)
            if torus_unit is not None:
                y = torus_unit * y
            val = config.zero() if datum.table.is_empty else datum.table.lookup(y)
            if not val.is_zero:
                val = psi_val * val
                if c:
                    val = val * datum.central.value_at_uniformizer ** c
        else:
            wv = whittaker_value(datum.satake, (a1 + c, a2 + c))
            val = wv.coef
            if not val.is_zero:
                val, half = psi_val * val, wv.q_half_exp * pl.degree
        if val.is_zero:
            return config.zero(), 0
        coef, total = coef * val, total + half
    return coef, total


def ord_by_division(r, place):
    """The order of r at the place: deg den - deg num at infinity, else the
    number of times the place polynomial divides the numerator less the
    number of times it divides the denominator; +inf for zero."""
    if r.is_zero:
        return INF
    if place.is_infinity:
        return len(r.den) - len(r.num)
    F = r.ground.field()

    def mult(poly):
        m = 0
        while True:
            quot, rem = fp_divmod(F, poly, place.poly)
            if rem:
                return m
            poly, m = quot, m + 1

    return mult(r.num) - mult(r.den)


def coset_reps_by_digit(U):
    """The representatives of (A/k) / image(U) as one itertools.product
    over every digit position of every place with positive exponent,
    places in sort order and digits in order, the last position fastest;
    each combination becomes per-place digit tuples and one Adele.make.
    The base coordinate of the first digit at the first place is pinned
    to 0, which normalizes the diagonal constants away."""
    ground = U.ground
    supp = sorted(((pl, m) for pl, m in U.items if m > 0),
                  key=lambda kv: kv[0].sort_key())
    if not supp:
        return (Adele.zero(ground),)
    positions = []
    for pi, (pl, m) in enumerate(supp):
        K = pl.residue()
        for digit in range(m):
            if pi == 0 and digit == 0:
                choices = range(0, K.order, ground.q)
            else:
                choices = K.elements()
            positions.append((pl, digit, choices))
    reps = []
    for combo in itertools.product(*(c for _, _, c in positions)):
        per_place = {}
        for (pl, digit, _), value in zip(positions, combo):
            per_place.setdefault(pl, {})[digit] = value
        reps.append(Adele.make(ground, [
            (pl, LocalElement.from_coeffs(pl, 0, tuple(per_place[pl].get(i, 0)
                                                     for i in range(m)), exact=True))
            for pl, m in supp]))
    return tuple(reps)
