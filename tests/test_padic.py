import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elladic.errors import (ConfigMismatch, NoSimpleRoot, NotIntegral,
                            PrecisionLoss, UnsupportedDegree)
from elladic.padic import (FieldConfig, LocalNumber, certified_sum,
                           congruent_mod_m, difference_valuation, hensel_root,
                           pth_roots_of_unity, sqrt_unit)
from oracles import add_by_digit_sum, mul_by_umul

CFG5 = FieldConfig(5, precision=4)
CFG7 = FieldConfig(7, precision=8)


def test_add_carries_into_valuation():
    s = CFG5.integer(7) + CFG5.integer(3)
    assert s.v == 1 and s.coeffs == (2,)


def test_mul_adds_valuations():
    x = CFG5.unit(2, (2,))
    y = CFG5.unit(-1, (3,))
    assert (x * y).v == 1 and (x * y).coeffs == (6,)


def test_sub_self_is_exact_zero():
    x = CFG5.unit(0, (7,))
    assert (x - x).is_zero
    assert (x + (-x)).is_zero


def test_valuation_cases():
    assert CFG5.unit(3, (2,)).valuation() == 3
    assert CFG5.zero().valuation() == math.inf
    assert CFG5.integer(5).inv().valuation() == -1


def test_reduce_examples():
    assert CFG5.integer(10).reduce() == (0,)
    assert CFG5.integer(7).reduce() == (2,)
    with pytest.raises(NotIntegral):
        CFG5.ell_power(-1).reduce()


def test_reduce_is_ring_homomorphism(rng):
    F = CFG7.residue_field()
    for _ in range(100):
        x = CFG7.integer(rng.randrange(1, 7 ** 6))
        y = CFG7.integer(rng.randrange(1, 7 ** 6))
        (a,), (b,) = x.reduce(), y.reduce()
        assert (x + y).reduce() == (F.add(a, b),)
        assert (x * y).reduce() == (F.mul(a, b),)


def test_unit_times_inverse_reduces_to_one(rng):
    for _ in range(50):
        x = CFG7.unit(0, (rng.randrange(1, 7),))
        assert (x * x.inv()).reduce() == CFG7.one().reduce()


def test_identical_reduced_precision_copies_cancel_structurally():
    a = CFG5.unit(0, (1,), prec=2)
    b = CFG5.unit(0, (1,), prec=2)
    assert (a - b).is_zero


def test_full_cancellation_across_precisions_raises():
    # same certified digits but different precision records: the values
    # agree modulo 5^2 yet nothing certifies the difference nonzero
    a = CFG5.unit(0, (1,), prec=2)
    b = CFG5.unit(0, (1 + 25,), prec=4)
    with pytest.raises(PrecisionLoss):
        a - b


def test_config_mismatch_rejected():
    """Every operand is a LocalNumber of the same FieldConfig: another
    config raises ConfigMismatch, and an int is neither coerced nor equal."""
    x = CFG5.one()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ConfigMismatch):
            op(x, CFG7.one())
        with pytest.raises((TypeError, AttributeError)):
            op(x, 1)
        with pytest.raises(TypeError):
            op(1, x)
    assert x != 1 and x == CFG5.integer(1)


def test_cross_precision_add_keeps_certified_digits():
    # valuation-5 value known to 8 digits plus a unit known to 8 digits:
    # the sum keeps 8 digits of absolute precision at valuation 0
    x = CFG7.unit(0, (3,))
    y = CFG7.unit(5, (2,))
    s = x + y
    assert s.v == 0
    assert s.prec == 8


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5 ** 4 // 3), st.integers(1, 5 ** 4 // 3), st.integers(1, 5 ** 4 // 3))
def test_ring_axioms_on_exact_integers(a, b, c):
    # bounded so every intermediate sum stays below ell^N and is therefore
    # exactly representable; all identities are then exact
    A, B, C = CFG5.integer(a), CFG5.integer(b), CFG5.integer(c)
    assert (A + B) + C == A + (B + C)
    assert A * B == B * A
    assert A * (B + C) == A * B + A * C
    assert A * (B * C) == (A * B) * C


def test_sum_hitting_the_cap_raises_cleanly():
    # 1 + 234 + 390 = 5^4: the true value needs five absolute digits but
    # the inputs certify only four, so no digit of the result is provable
    with pytest.raises(PrecisionLoss):
        (CFG5.integer(1) + CFG5.integer(234)) + CFG5.integer(390)


def test_certified_sum_carries_an_exact_cancellation():
    # 1 + (-1 known mod 5^2) cancels all certified digits; the next term
    # is then known mod 5^2 only, and the total is certified
    terms = [CFG5.integer(1), CFG5.unit(0, (24,), prec=2), CFG5.integer(6)]
    with pytest.raises(PrecisionLoss):
        terms[0] + terms[1]
    total = certified_sum(CFG5, terms)
    assert (total.v, total.coeffs, total.prec) == (0, (6,), 2)
    with pytest.raises(PrecisionLoss):
        certified_sum(CFG5, terms[:2] + [CFG5.integer(25)])


# units of both signs at every precision, so that partial sums cancel,
# exactly and across precisions
SUMMANDS = st.lists(st.builds(lambda v, c, prec: CFG5.unit(v, (c,), prec),
                              st.integers(0, 2), st.sampled_from((1, 6, 24, 26, 599, 601, 624)),
                              st.integers(1, CFG5.precision)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(SUMMANDS)
def test_certified_sum_is_the_chained_sum_or_certifies_it(terms):
    """Where chained + returns, certified_sum gives it digit for digit;
    where a partial sum cancels, it raises PrecisionLoss or returns a value
    that the exact sum of the terms' digits agrees with."""
    try:
        chained = sum(terms, CFG5.zero())
    except PrecisionLoss:
        chained = None
    try:
        total = certified_sum(CFG5, terms)
    except PrecisionLoss:
        assert chained is None
        return
    if chained is not None:
        assert total.coeffs == chained.coeffs
        assert total.is_zero or (total.v, total.prec) == (chained.v, chained.prec)
    elif not total.is_zero:
        exact = sum(5 ** t.v * t.coeffs[0] for t in terms)
        assert (exact - 5 ** total.v * total.coeffs[0]) % 5 ** (total.v + total.prec) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 9, 10 ** 9))
def test_integer_embedding_is_multiplicative(a, b):
    if a and b:
        assert CFG7.integer(a) * CFG7.integer(b) == CFG7.integer(a * b)


def test_valuation_additivity(rng):
    for _ in range(100):
        x = CFG7.unit(rng.randrange(-5, 6), (rng.randrange(1, 7),))
        y = CFG7.unit(rng.randrange(-5, 6), (rng.randrange(1, 7),))
        assert (x * y).valuation() == x.valuation() + y.valuation()


def test_rational_constructor():
    x = CFG7.rational(1, 3)
    assert (x * CFG7.integer(3) - CFG7.one()).is_zero
    assert CFG7.rational(7, 3).v == 1
    assert CFG7.rational(3, 49).v == -2


# -- Hensel lifting ----------------------------------------------------------

def test_hensel_sqrt2_mod7():
    f = [CFG7.integer(-2), CFG7.zero(), CFG7.one()]
    root = hensel_root(f, (3,))
    assert root.coeffs[0] % 49 == 10
    # independent check on integer lifts: root^2 = 2 mod 7^N
    assert (root.coeffs[0] ** 2 - 2) % 7 ** 8 == 0


def test_hensel_linear_returns_constant():
    c = CFG7.integer(23)
    f = [-c, CFG7.one()]
    root = hensel_root(f, c.reduce())
    assert root == c


def test_hensel_rejects_non_simple_root():
    f = [CFG7.zero(), CFG7.zero(), CFG7.one()]  # X^2
    with pytest.raises(NoSimpleRoot):
        hensel_root(f, (0,))
    with pytest.raises(NoSimpleRoot):
        hensel_root([CFG7.integer(-2), CFG7.zero(), CFG7.one()], (1,))


def test_hensel_root_kills_polynomial_to_precision(rng):
    for _ in range(10):
        c = CFG7.unit(0, (rng.randrange(1, 7),))
        # f = (X - c)(X - c - 1) has simple roots
        one = CFG7.one()
        f = [c * (c + one), -(c + c + one), one]
        root = hensel_root(f, c.reduce())
        value = (root - c) * (root - c - one)
        assert value.is_zero or value.valuation() >= CFG7.precision


def test_hensel_root_of_a_zero_constant_over_residue_zero_is_the_exact_zero():
    """f = X + X^2 (coefficients zero, one, one) has the simple root 0
    over the residue (0,): the lift is the exact zero itself."""
    root = hensel_root((CFG7.zero(), CFG7.one(), CFG7.one()), (0,))
    assert root.is_zero and root == CFG7.zero()


def test_pth_roots_of_unity():
    roots = pth_roots_of_unity(CFG7, 2)
    assert sorted(r.coeffs[0] % 7 for r in roots) == [1, 6]
    cubics = pth_roots_of_unity(CFG7, 3)
    assert sorted(r.reduce()[0] for r in cubics) == [1, 2, 4]
    for r in cubics:
        assert (r ** 3 - CFG7.one()).is_zero
    # closure under multiplication
    residues = {r.reduce() for r in cubics}
    for a in cubics:
        for b in cubics:
            assert (a * b).reduce() in residues


def test_pth_roots_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        pth_roots_of_unity(CFG7, 7)
    with pytest.raises(UnsupportedDegree):
        pth_roots_of_unity(FieldConfig(3, precision=6), 7)  # 7 does not divide 3^1 - 1


def test_pth_roots_in_extension():
    cfg = FieldConfig(3, d=2, precision=6)  # 7 does not divide 8... use p=2: 2 | 9-1
    roots = pth_roots_of_unity(cfg, 2)
    assert len(roots) == 2
    cfg5 = FieldConfig(5, d=2, precision=6)  # 3 | 24
    roots3 = pth_roots_of_unity(cfg5, 3)
    assert len(roots3) == 3
    for r in roots3:
        assert (r ** 3 - cfg5.one()).is_zero


def test_congruent_mod_m_helper():
    assert congruent_mod_m(CFG7.integer(3), CFG7.integer(10))
    assert not congruent_mod_m(CFG7.integer(3), CFG7.integer(4))
    # residues are bare coefficient tuples, so the configurations are
    # compared explicitly: (3,) mod 5 and (3,) mod 7 are not comparable
    with pytest.raises(ConfigMismatch):
        congruent_mod_m(CFG5.integer(3), CFG7.integer(3))
    with pytest.raises(NotIntegral):
        congruent_mod_m(CFG7.ell_power(-1), CFG7.one())


def test_sqrt_unit():
    cfg = FieldConfig(11, precision=6)
    r = sqrt_unit(cfg, 3)
    assert (r * r - cfg.integer(3)).is_zero
    with pytest.raises(UnsupportedDegree):
        sqrt_unit(FieldConfig(2, precision=6), 17)
    with pytest.raises(UnsupportedDegree):
        sqrt_unit(FieldConfig(7, precision=6), 3)  # 3 is not a square mod 7
    r2 = sqrt_unit(FieldConfig(7, d=2, precision=6), 3)
    assert (r2 * r2 - FieldConfig(7, d=2, precision=6).integer(3)).is_zero


def test_serialization_digit_vectors_roundtrip():
    cfg = FieldConfig(3, d=2, precision=5)
    x = cfg.unit(-2, (7, 5))
    vecs = x.digit_vectors()
    assert len(vecs) == 5 and all(len(v) == 2 for v in vecs)
    rebuilt = [0, 0]
    scale = 1
    for vec in vecs:
        for j, digit in enumerate(vec):
            rebuilt[j] += digit * scale
        scale *= 3
    assert tuple(rebuilt) == x.coeffs


# exact zeros of every recorded v and prec, and units at every precision over
# a small range, so that equal pairs with different histories are frequent
MIXED_PRECISION = st.one_of(
    st.builds(lambda v, prec: LocalNumber(CFG5, v, (), prec),
              st.integers(-3, 3), st.integers(1, CFG5.precision)),
    st.builds(lambda v, c, prec: CFG5.unit(v, (c,), prec),
              st.integers(0, 1), st.sampled_from((1, 2, 6, 26, 126)),
              st.integers(1, CFG5.precision)))


@settings(max_examples=300, deadline=None)
@given(MIXED_PRECISION, MIXED_PRECISION)
def test_equal_numbers_hash_equal(a, b):
    """LocalNumbers are cache keys, so a == b must give hash(a) == hash(b)."""
    if a == b:
        assert hash(a) == hash(b)


def test_every_exact_zero_hashes_alike():
    a, b = LocalNumber(CFG5, 0, (), 4), LocalNumber(CFG5, 3, (), 2)
    assert a == b and hash(a) == hash(b) == hash(CFG5.zero())


CFG9 = FieldConfig(3, d=2, precision=4)


def mixed_precision(cfg):
    """Exact zeros and units of valuation -2..2 at every precision, with
    unit coefficients that agree with each other to 1, 2 or 3 digits."""
    near = (1, 2, 1 + cfg.ell, 1 + cfg.ell ** 2, 1 + cfg.ell ** 3, cfg.ell ** 4 - 1)
    return st.one_of(
        st.builds(lambda v, prec: LocalNumber(cfg, v, (), prec),
                  st.integers(-2, 2), st.integers(1, cfg.precision)),
        st.builds(lambda v, cs, prec: cfg.unit(v, cs, prec), st.integers(-2, 2),
                  st.tuples(*[st.sampled_from(near)] * cfg.d), st.integers(1, cfg.precision)))


def true_difference_valuation(x, y):
    """v(x - y) of the representatives, as exact rationals: the least
    valuation of a coefficient in the basis 1, Y, ..., Y^(d-1)."""
    ell = x.config.ell

    def coefficients(z):
        return [Fraction(ell) ** z.v * c for c in z.coeffs] if z.coeffs else [0] * z.config.d

    best = math.inf
    for c in (a - b for a, b in zip(coefficients(x), coefficients(y))):
        if c:
            num, den, v = c.numerator, c.denominator, 0
            while num % ell == 0:
                num, v = num // ell, v + 1
            while den % ell == 0:
                den, v = den // ell, v - 1
            best = min(best, v)
    return best


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((CFG5, CFG9)).flatmap(
    lambda cfg: st.tuples(mixed_precision(cfg), mixed_precision(cfg))))
def test_difference_valuation_is_exact_or_a_certified_bound(pair):
    """An exact v is the valuation of the representatives' difference,
    inf for the exact zero; a bound A is the least absolute precision of
    the two, and the true valuation is at least A."""
    x, y = pair
    v, exact = difference_valuation(x, y)
    true = true_difference_valuation(x, y)
    if exact:
        assert v == true
    else:
        assert v == min(x.v + x.prec, y.v + y.prec) <= true


def test_difference_valuation_examples():
    one = CFG5.one()
    assert difference_valuation(one, one) == (math.inf, True)
    assert difference_valuation(CFG5.unit(0, (1,), prec=2), one) == (2, False)
    assert difference_valuation(CFG5.unit(0, (6,), prec=2), one) == (1, True)
    assert difference_valuation(CFG5.zero(), CFG5.unit(0, (1,), prec=1)) == (0, True)
    # the values differ by 25, which two certified digits cannot see
    assert difference_valuation(CFG5.unit(0, (1,), prec=2), CFG5.integer(26)) == (2, False)


# ---------------------------------------------------------------------------
# the two-term operators against the digit-sum and _umul reference
# ---------------------------------------------------------------------------

KERNEL_CONFIGS = tuple(FieldConfig(ell, d=d, precision=6) for ell in (2, 3, 5) for d in (1, 2, 3))


def unit_or_bumped(cfg, v, coeffs, prec):
    """cfg.unit(v, coeffs, prec), the first coefficient raised by 1 when no
    coefficient is a unit mod l."""
    mod = cfg.ell ** prec
    coeffs = [c % mod for c in coeffs]
    if not any(c % cfg.ell for c in coeffs):
        coeffs[0] += 1
    return cfg.unit(v, coeffs, prec)


def opposite(x):
    """-x built from its digits, not by LocalNumber.__neg__."""
    mod = x.config.ell ** x.prec
    return LocalNumber(x.config, x.v, tuple((-c) % mod for c in x.coeffs), x.prec)


@st.composite
def operand_pairs(draw):
    """(a, b) over Q_{l^d}, d in 1, 2, 3, with v in [-40, 40] (so that
    valuation gaps exceed the precision) and every prec from 1 to N: b is
    an independent unit, an exact zero, the structural opposite of a, or a
    near cancellation of a that agrees with -a to j digits."""
    cfg = draw(st.sampled_from(KERNEL_CONFIGS))
    N, ell = cfg.precision, cfg.ell
    coeffs = st.lists(st.integers(0, ell ** N - 1), min_size=cfg.d, max_size=cfg.d)
    precs = st.integers(1, N)
    a = unit_or_bumped(cfg, draw(st.integers(-40, 40)), draw(coeffs), draw(precs))
    kind = draw(st.sampled_from(("independent", "zero", "opposite", "near")))
    if kind == "independent":
        b = unit_or_bumped(cfg, draw(st.integers(-40, 40)), draw(coeffs), draw(precs))
    elif kind == "zero":
        b = draw(st.sampled_from((cfg.zero(), LocalNumber(cfg, a.v, (), a.prec))))
    elif kind == "opposite":
        b = opposite(a)
    else:
        j = draw(st.integers(0, N))
        b = unit_or_bumped(cfg, a.v + draw(st.sampled_from((0, 0, -1, 1))),
                           [-c + ell ** j * x for c, x in zip(a.coeffs, draw(coeffs))],
                           draw(precs))
    return (a, b) if draw(st.booleans()) else (b, a)


def outcome(f, *args):
    """(v, coeffs, prec) of f(*args), or the PrecisionLoss message."""
    try:
        x = f(*args)
    except PrecisionLoss as exc:
        return str(exc)
    return x.v, x.coeffs, x.prec


@settings(max_examples=600, deadline=None)
@given(operand_pairs())
def test_two_term_operators_match_the_digit_sum_reference(pair):
    """a + b, a - b and a * b give the reference's (v, coeffs, prec), or
    its PrecisionLoss message."""
    a, b = pair
    assert outcome(operator.add, a, b) == outcome(add_by_digit_sum, a, b)
    assert outcome(operator.sub, a, b) == outcome(add_by_digit_sum, a, opposite(b))
    assert outcome(operator.mul, a, b) == outcome(mul_by_umul, a, b)


def test_powers_of_ell_are_read_on_demand():
    """N = 10^5 sizes nothing: a sum and a product of two 2-digit units
    read l^1 and l^2 and no other power."""
    cfg = FieldConfig(3, precision=10 ** 5)
    x, y = cfg.unit(0, (4,), prec=2), cfg.unit(1, (5,), prec=2)
    assert outcome(operator.add, x, y) == (0, (1,), 2)
    assert outcome(operator.mul, x, y) == (1, (2,), 2)
    assert sorted(cfg._powers) == [1, 2]
