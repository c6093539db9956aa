import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elladic.errors import ConfigMismatch, InsufficientPrecision, TooLarge
from elladic.function_field import (Adele, Divisor, GroundField, LocalElement,
                                    Place, PsiTarget, RationalFunction,
                                    coset_reps, enumerate_places, expand_at,
                                    principal_adele, product_coefficient,
                                    psi_conductor_divisor, psi_global,
                                    psi_kernel_set, psi_local, quotient_index,
                                    residue_trace, rr_space,
                                    series_to_poly_mod, span_nonzero,
                                    weak_approx)
from elladic.padic import FieldConfig
from oracles import coset_reps_by_digit, ord_by_division

G2 = GroundField(2)
G3 = GroundField(3)
G4 = GroundField(2, 2)
CFG3 = FieldConfig(3, precision=10)   # p = 2 divides 3 - 1
CFG7 = FieldConfig(7, precision=10)   # p = 3 divides 7 - 1


def target_for(ground):
    return PsiTarget.create(ground, CFG3 if ground.p == 2 else CFG7)


def random_rational(ground, rng, max_deg=5):
    while True:
        num = [rng.randrange(ground.q) for _ in range(rng.randrange(1, max_deg + 1))] + [1]
        den = [rng.randrange(ground.q) for _ in range(rng.randrange(1, max_deg + 1))] + [1]
        r = ground.rational(num, den)
        if not r.is_zero:
            return r


# -- places and expansions ---------------------------------------------------

def test_place_validation():
    with pytest.raises(ValueError):
        G2.place([1, 0, 1])  # t^2 + 1 = (t+1)^2 over F_2
    pl = G2.place([1, 1, 1])
    assert pl.degree == 2
    assert G2.infinity().degree == 1


def test_enumerate_places_is_deterministic():
    first = list(enumerate_places(G2, 2))
    assert first[0].is_infinity
    assert [pl.degree for pl in first] == [1, 1, 1, 2]
    assert list(enumerate_places(G2, 2)) == first


def test_expand_simple_cases():
    t_pl = G2.place([0, 1])
    one_over_t = G2.rational([1], [0, 1])
    le = expand_at(one_over_t, t_pl, 5)
    assert le.v == -1 and le.exact_tail
    at_inf = expand_at(G2.t(), G2.infinity(), 5)
    assert at_inf.v == -1 and at_inf.exact_tail
    shifted = expand_at(G2.rational([1, 1]), G2.place([1, 1]), 5)
    assert shifted.v == 1


def test_expansion_respects_multiplication(rng):
    t_pl = G3.place([0, 1])
    for _ in range(20):
        a = random_rational(G3, rng, 3)
        b = random_rational(G3, rng, 3)
        ea, eb = expand_at(a, t_pl, 8), expand_at(b, t_pl, 8)
        eab = expand_at(a * b, t_pl, 8)
        prod = ea * eb
        hi = min(prod.abs_prec(), eab.abs_prec(), prod.v + 6)
        lo = eab.v if not eab.is_zero_like else 0
        for i in range(lo, int(hi)):
            assert prod.coefficient(i) == eab.coefficient(i)


def test_expansion_at_higher_degree_place():
    pl = G2.place([1, 1, 1])
    le = expand_at(G2.t(), pl, 4)
    # t = theta + u: constant coefficient is the residue class of t
    assert le.v == 0
    assert le.coeffs[0] == pl.theta == 2    # the class of s, coded q^1
    assert le.coeffs[1] == 1


def test_local_element_arithmetic():
    pl = G3.place([0, 1])
    K = pl.residue()
    x = LocalElement.from_coeffs(pl, 0, (K.from_int(1), K.from_int(2)), exact=True)
    y = x.inverse(6)
    prod = x * y
    assert prod.v == 0 and prod.coefficient(0) == K.one
    for i in range(1, 4):
        assert prod.coefficient(i) == 0
    assert (x - x).is_exact_zero
    with pytest.raises(ConfigMismatch):
        x + LocalElement.exact_zero(G3.infinity()) + x  # mixed places


def test_insufficient_precision_read():
    pl = G3.place([0, 1])
    K = pl.residue()
    x = LocalElement.from_coeffs(pl, 0, (K.one,), exact=False)
    with pytest.raises(InsufficientPrecision):
        x.coefficient(5)
    assert x.coefficient(-3) == K.zero


def test_out_of_range_element_codes_raise():
    with pytest.raises(ValueError):
        G2.rational([2])
    with pytest.raises(ValueError):
        G2.rational([1], [-1, 1])
    with pytest.raises(ValueError):
        G2.place([3, 1])
    with pytest.raises(ValueError):
        Place(GroundField(2), (3, 1))
    with pytest.raises(ValueError, match="not an element code"):
        RationalFunction.make(GroundField(2), (2,), (1,))
    pl = G4.place([2, 1, 1])
    assert pl.residue().order == 16
    with pytest.raises(ValueError):
        LocalElement.from_coeffs(pl, 0, (17,))
    assert LocalElement.from_coeffs(pl, 0, (15, 0)).coeffs == (15,)


def test_infinity_is_built_once():
    ground = GroundField(3)
    inf = ground.infinity()
    assert ground.infinity() is inf
    assert inf == Place(ground, None) and hash(inf) == hash(Place(ground, None))
    assert repr(inf) == "Place(infinity)"
    assert ground == GroundField(3) and hash(ground) == hash(GroundField(3))
    assert repr(ground) == f"GroundField(p=3, f=1, modulus={ground.modulus!r})"


# every place of degree <= 3, infinity first, per ground field
PLACES_TO_3 = {g: tuple(enumerate_places(g, 3)) for g in (G2, G3, G4)}


@st.composite
def nonzero_rationals(draw):
    ground = draw(st.sampled_from((G2, G3, G4)))
    poly = st.lists(st.integers(0, ground.q - 1), max_size=7)
    num, den = draw(poly), draw(poly) + [1]
    if not any(num):
        num = [draw(st.integers(1, ground.q - 1))]
    return ground.rational(num, den)


@settings(max_examples=150, deadline=None)
@given(nonzero_rationals())
def test_divisor_agrees_with_repeated_division(r):
    div = r.divisor()
    support = dict(div.items)
    assert len(support) == len(div.items) and 0 not in support.values()
    assert list(div.items) == sorted(div.items, key=lambda kv: kv[0].sort_key())
    assert r.orders == support
    for pl in PLACES_TO_3[r.ground]:
        assert support.get(pl, 0) == ord_by_division(r, pl) == r.ord_at(pl), pl
        assert r.orders.get(pl, 0) == ord_by_division(r, pl), pl
    for pl, m in div.items:
        assert m == ord_by_division(r, pl)
    assert div.degree == 0
    if len(r.num) == 1 and len(r.den) == 1:
        assert div == Divisor.zero(r.ground)


@settings(max_examples=60, deadline=None)
@given(nonzero_rationals())
def test_reading_the_orders_leaves_equality_hash_and_repr_alone(r):
    """orders is kept on the object but is no field: a copy that never
    read it is equal, hashes alike, prints alike and finds r in a dict."""
    fresh = RationalFunction(r.ground, r.num, r.den)
    before = (hash(r), repr(r))
    assert r.orders is r.orders
    assert "orders" not in vars(fresh)
    assert r == fresh and fresh == r
    assert (hash(r), repr(r)) == (hash(fresh), repr(fresh)) == before
    assert {fresh: 1}[r] == 1


def test_divisor_of_constants_and_zero():
    for ground in (G2, G3, G4):
        for c in range(1, ground.q):
            assert ground.constant(c).divisor() == Divisor.zero(ground)
        zero = ground.constant(0)
        with pytest.raises(ValueError):
            zero.divisor()
        with pytest.raises(ValueError):
            zero.orders
        assert zero.ord_at(ground.infinity()) == float("inf")
        assert principal_adele(zero) == Adele.zero(ground)
    t_pl = G2.place([0, 1])
    assert G2.rational([0, 1], [1, 1, 1]).divisor() == Divisor.make(
        G2, [(t_pl, 1), (G2.place([1, 1, 1]), -1), (G2.infinity(), 1)])


# a degree-1 place over F_4, a degree-2 place over F_2 and infinity over F_3
PRODUCT_PLACES = (G4.place([1, 1]), G2.place([1, 1, 1]), G3.infinity())


@st.composite
def local_pairs(draw):
    """Two elements at one place, each exact, truncated, zero-like or the
    exact zero, and an index around their valuations."""
    pl = draw(st.sampled_from(PRODUCT_PLACES))
    codes = st.lists(st.integers(0, pl.residue().order - 1), max_size=4)

    def element():
        return LocalElement.from_coeffs(pl, draw(st.integers(-3, 3)), draw(codes),
                                        exact=draw(st.booleans()))

    return pl, element(), element(), draw(st.integers(-8, 8))


def read(fn, *args):
    try:
        return fn(*args)
    except (ConfigMismatch, InsufficientPrecision) as exc:
        return type(exc)


@settings(max_examples=600, deadline=None)
@given(local_pairs())
def test_product_coefficient_reads_the_product(case):
    pl, a, b, i = case
    assert read(product_coefficient, a, b, i) == read(lambda: (a * b).coefficient(i))
    assert read(residue_trace, pl, a, b) == read(lambda: residue_trace(pl, a * b))


# -- the residue character ---------------------------------------------------

def test_psi_conductor_at_finite_places():
    t_pl = G2.place([0, 1])
    target = target_for(G2)
    assert psi_local(t_pl, expand_at(G2.rational([1, 1, 1]), t_pl, 5), target) == CFG3.one()
    val = psi_local(t_pl, expand_at(G2.rational([1], [0, 1]), t_pl, 5), target)
    assert val != CFG3.one()


def test_psi_conductor_at_infinity():
    target = target_for(G2)
    inf = G2.infinity()
    assert psi_local(inf, expand_at(G2.rational([1], [0, 0, 1]), inf, 5), target) == CFG3.one()
    assert psi_local(inf, expand_at(G2.rational([1], [0, 1]), inf, 5), target) != CFG3.one()


def test_psi_values_are_pth_roots():
    target = target_for(G3)
    t_pl = G3.place([0, 1])
    val = psi_local(t_pl, expand_at(G3.rational([2], [0, 1]), t_pl, 5), target)
    assert (val ** 3 - CFG7.one()).is_zero


def test_psi_trivial_on_diagonal(rng):
    for ground in (G2, G3, G4):
        target = target_for(ground)
        cfg = target.config
        for _ in range(20):
            r = random_rational(ground, rng)
            assert psi_global(principal_adele(r), target) == cfg.one()


PSI_PLACES = {g: tuple(enumerate_places(g, 2)) for g in (G2, G3, G4)}


@st.composite
def adeles(draw):
    """An adele over places of degree <= 2 and infinity, its components
    exact or truncated, drawn on a ground field that may not be the psi
    target's."""
    ground = draw(st.sampled_from((G2, G3, G4)))
    places = draw(st.lists(st.sampled_from(PSI_PLACES[ground]), max_size=4,
                           unique=True))
    comps = []
    for pl in places:
        codes = st.lists(st.integers(0, pl.residue().order - 1), max_size=4)
        comps.append((pl, LocalElement.from_coeffs(
            pl, draw(st.integers(-3, 2)), draw(codes), exact=draw(st.booleans()))))
    return Adele.make(ground, comps), draw(st.sampled_from((G2, G3, G4)))


def product_of_locals(a, target):
    out = target.config.one()
    for pl, x in a.items:
        out = out * psi_local(pl, x, target)
    return out


@settings(max_examples=300, deadline=None)
@given(adeles())
def test_psi_global_is_the_product_of_the_local_values(case):
    a, target_ground = case
    target = target_for(target_ground)
    expected = read(product_of_locals, a, target)
    assert read(psi_global, a, target) == expected
    if not a.items:
        assert expected == target.config.one()


def test_psi_single_place_adele():
    target = target_for(G2)
    t_pl = G2.place([0, 1])
    x = expand_at(G2.rational([1], [0, 1]), t_pl, 5)
    a = Adele.make(G2, [(t_pl, x)])
    assert psi_global(a, target) == psi_local(t_pl, x, target)
    assert psi_global(Adele.zero(G2), target) == CFG3.one()


# -- Riemann-Roch ------------------------------------------------------------

def test_rr_space_examples():
    t_pl = G2.place([0, 1])
    assert len(rr_space(Divisor.zero(G2))) == 1
    basis = rr_space(Divisor.make(G2, [(t_pl, 2)]))
    dens = sorted(len(b.den) - 1 for b in basis)
    assert dens == [0, 1, 2]
    assert rr_space(Divisor.make(G2, [(G2.infinity(), -1)])) == ()


def test_rr_dimension_and_membership(rng):
    places = list(enumerate_places(G3, 2))
    for _ in range(40):
        D = Divisor.make(G3, [(pl, rng.randrange(-3, 4))
                              for pl in rng.sample(places, rng.randrange(1, 4))])
        basis = rr_space(D)
        assert len(basis) == max(D.degree + 1, 0)
        for f in basis:
            check_places = set(D.support()) | {pl for pl, m in f.divisor().items if m < 0}
            check_places.add(G3.infinity())
            for pl in check_places:
                assert f.ord_at(pl) >= -D.get(pl)


def test_kernel_set_trivial_group_is_empty():
    assert psi_kernel_set(Divisor.zero(G2)) == ()


def test_kernel_set_count_and_soundness(rng):
    target = target_for(G2)
    cfg = target.config
    inf = G2.infinity()
    t_pl = G2.place([0, 1])
    U = Divisor.make(G2, [(inf, 3), (t_pl, 1)])
    members = psi_kernel_set(U)
    dim = max(psi_conductor_divisor(U).degree + 1, 0)
    assert len(members) == 2 ** dim - 1
    # soundness: each member pairs trivially with generators of U
    for gamma in members:
        for pl, m in U.items:
            K = pl.residue()
            for depth in range(m, m + 3):
                for c in range(1, K.order):
                    gen = LocalElement.from_coeffs(pl, depth, (K.from_int(c),), exact=True)
                    prod = gen * expand_at(gamma, pl, 8 + abs(int(gamma.ord_at(pl))))
                    assert psi_local(pl, prod, target) == cfg.one()


# -- quotient indices and cosets ---------------------------------------------

def brute_force_index(U: Divisor) -> int:
    """Count cosets of U + F_q inside the integral adeles truncated at U."""
    ground = U.ground
    Fq = ground.field()
    positions = []
    for pl, m in U.items:
        K = pl.residue()
        for _ in range(m):
            positions.append(K)
    if not positions:
        return 1
    constants = list(Fq.elements())
    seen = set()
    count = 0
    for combo in itertools.product(*(list(K.elements()) for K in positions)):
        if combo in seen:
            continue
        count += 1
        # orbit under the diagonal constants: shift digit 0 of each place
        orbit = set()
        for c in constants:
            shifted = []
            idx = 0
            for pl, m in U.items:
                K = pl.residue()
                for digit in range(m):
                    val = combo[idx]
                    if digit == 0:
                        val = K.add(val, c)
                    shifted.append(val)
                    idx += 1
            orbit.add(tuple(shifted))
        seen |= orbit
    return count


def test_quotient_index_examples():
    t_pl = G3.place([0, 1])
    assert quotient_index(Divisor.zero(G3)) == 1
    U = Divisor.make(G3, [(t_pl, 2)])
    assert quotient_index(U) == 3
    with pytest.raises(ValueError):
        quotient_index(Divisor.make(G3, [(t_pl, -1)]))


def test_quotient_index_matches_brute_force(rng):
    places = list(enumerate_places(G3, 2))
    for _ in range(12):
        U = Divisor.make(G3, [(pl, rng.randrange(0, 3))
                              for pl in rng.sample(places, 2)])
        if quotient_index(U) > 3 ** 5:
            continue
        assert quotient_index(U) == brute_force_index(U)


def test_coset_reps_distinct_modulo_constants():
    t_pl = G2.place([0, 1])
    inf = G2.infinity()
    U = Divisor.make(G2, [(t_pl, 2), (inf, 1)])
    reps = coset_reps(U)
    assert len(reps) == quotient_index(U) == 2 ** 2
    # no two representatives differ by a constant inside U
    Fq = G2.field()

    def component(a, pl):
        return dict(a.items).get(pl, LocalElement.exact_zero(pl))

    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1:]:
            for c in range(Fq.order):
                diff_ok = True
                for pl, m in U.items:
                    K = pl.residue()
                    d = component(r1, pl) - component(r2, pl)
                    d = d - LocalElement.from_coeffs(pl, 0, (c,), exact=True)
                    for digit in range(m):
                        if d.coefficient(digit):
                            diff_ok = False
                assert not diff_ok


@pytest.mark.parametrize("ground", [G2, G3, G4], ids=["F_2", "F_3", "F_4"])
def test_coset_reps_match_the_digit_by_digit_enumeration(ground):
    """The per-place enumeration gives the oracle's tuple, order included,
    for every U on 1-3 places of degree 1-2 with multiplicities 0-3 whose
    index is at most 256."""
    finite = [pl for pl in enumerate_places(ground, 2) if not pl.is_infinity]
    places = ([ground.infinity()] + [pl for pl in finite if pl.degree == 1][:2]
              + [pl for pl in finite if pl.degree == 2][:1])
    checked = 0
    for k in (1, 2, 3):
        for chosen in itertools.combinations(places, k):
            for mults in itertools.product(range(4), repeat=k):
                U = Divisor.make(ground, zip(chosen, mults))
                if quotient_index(U) > 256:
                    continue
                assert coset_reps(U) == coset_reps_by_digit(U), U
                checked += 1
    assert checked > 100


def test_coset_reps_cap():
    t_pl = G3.place([0, 1])
    with pytest.raises(TooLarge):
        coset_reps(Divisor.make(G3, [(t_pl, 9)]), cap=100)


def test_trivial_coset_reps():
    reps = coset_reps(Divisor.zero(G2))
    assert len(reps) == 1 and reps[0].items == ()


# -- weak approximation ------------------------------------------------------

def test_series_to_poly_roundtrip(rng):
    for pl in (G3.place([0, 1]), G3.place([2, 1]), G2.place([1, 1, 1])):
        ground = pl.ground
        F = ground.field()
        for _ in range(10):
            poly = tuple(F.from_int(rng.randrange(ground.q))
                         for _ in range(rng.randrange(1, 6)))
            r = RationalFunction.make(ground, poly, (F.one,))
            c = rng.randrange(1, 4)
            z = expand_at(r, pl, c * pl.degree + 4)
            back = series_to_poly_mod(z, c)
            got = RationalFunction.make(ground, back, (F.one,))
            assert (r - got).ord_at(pl) >= c or (r - got).is_zero


def test_weak_approx_single_constraint():
    t_pl = G2.place([0, 1])
    tgt = expand_at(G2.rational([1], [0, 1]), t_pl, 5)
    y = weak_approx([(t_pl, tgt, 1)])
    assert (y - G2.rational([1], [0, 1])).ord_at(t_pl) >= 1


def test_weak_approx_random_instances(rng):
    for ground in (G2, G3):
        places = list(enumerate_places(ground, 2))
        for _ in range(12):
            chosen = rng.sample(places, rng.randrange(1, 4))
            constraints = []
            targets = {}
            for pl in chosen:
                r = random_rational(ground, rng, 3)
                h = rng.randrange(1, 4)
                constraints.append((pl, expand_at(r, pl, h + 6 + abs(int(r.ord_at(pl)))), h))
                targets[pl] = (r, h)
            y = weak_approx(constraints)
            for pl, (r, h) in targets.items():
                d = y - r
                assert d.is_zero or d.ord_at(pl) >= h, (pl, y, r, h)


def test_weak_approx_with_zero_targets():
    t_pl = G2.place([0, 1])
    inf = G2.infinity()
    y = weak_approx([
        (t_pl, LocalElement.exact_zero(t_pl), 2),
        (inf, LocalElement.uniformizer_power(inf, 0), 2),
    ])
    assert y.ord_at(t_pl) >= 2
    assert (y - G2.constant(1)).ord_at(inf) >= 2


def span_by_fold(ground, basis):
    """The span as a fold of RationalFunction arithmetic, one basis
    element at a time: the reference for span_nonzero."""
    out = []
    for code in itertools.product(range(ground.q), repeat=len(basis)):
        if not any(code):
            continue
        acc = RationalFunction.make(ground, (), (1,))
        for ci, b in zip(code, basis):
            if ci:
                acc = acc + ground.constant(ci) * b
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("ground, max_dim", [(G2, 6), (G3, 4), (G4, 3)],
                         ids=["F2", "F3", "F4"])
def test_span_nonzero_matches_the_fold(rng, ground, max_dim):
    """Same functions in the same order as the fold, for Riemann-Roch
    bases (one denominator) and for bases with unrelated denominators."""
    places = list(enumerate_places(ground, 2))
    checked = 0
    while checked < 12:
        D = Divisor.make(ground, [(pl, rng.randrange(-2, 4))
                                  for pl in rng.sample(places, rng.randrange(1, 4))])
        basis = rr_space(D)
        if len(basis) <= max_dim:
            assert span_nonzero(ground, basis) == span_by_fold(ground, basis), D
            checked += 1
    for _ in range(12):
        basis = tuple(random_rational(ground, rng, 3)
                      for _ in range(rng.randrange(1, min(max_dim, 3) + 1)))
        assert span_nonzero(ground, basis) == span_by_fold(ground, basis), basis


def test_span_nonzero_cap():
    basis = rr_space(Divisor.make(G3, [(G3.infinity(), 6)]))
    with pytest.raises(TooLarge):
        span_nonzero(G3, basis, cap=100)
    assert len(span_nonzero(G3, basis[:4], cap=81)) == 80
    with pytest.raises(TooLarge):
        span_nonzero(G3, basis[:4], cap=80)
    assert span_nonzero(G3, (), cap=1) == ()
