import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elladic import pipeline
from elladic.errors import (BadSquareRoot, ConfigMismatch, ElladicError,
                            IncompleteData, InsufficientPrecision,
                            NotCongruent, PrecisionLoss, SpecMismatch,
                            UnsupportedPoint)
from elladic.function_field import (Divisor, GroundField, LocalElement,
                                    Place, PsiTarget, coset_reps,
                                    enumerate_places, psi_global,
                                    quotient_index, rr_space, scale_adele,
                                    span_nonzero)
from elladic.padic import FieldConfig, sqrt_unit
from elladic.pipeline import (CharacterFamily, GlobalWhittakerSpec,
                              KirillovEntry, KirillovTable, LocalCharacter,
                              MirabolicPoint, TabulatedDatum, UnramifiedDatum,
                              central_char_propagate, character_product,
                              congruence_pipeline, default_sample_points,
                              fourier_coefficient, gamma_support,
                              invariance_divisor, mirabolic_expand, validate_spec_pair,
                              whittaker_at)
from elladic.pipeline import _gamma_term, _gamma_terms
from elladic.satake import SatakeParam
from conftest import clear_elladic_caches, random_unit
from oracles import coset_reps_by_digit, gamma_term_per_place

G2 = GroundField(2)
CFG = FieldConfig(7, precision=12)
ONE = G2.constant(1)     # gamma = 1, the term that gives W itself


@pytest.fixture(scope="module")
def target():
    return PsiTarget.create(G2, CFG)


@pytest.fixture(scope="module")
def sqrt2():
    return sqrt_unit(CFG, 2)


def unramified_spec(rule_value=1):
    rule = tuple((d, (CFG.integer(rule_value), CFG.one())) for d in range(1, 13))
    return GlobalWhittakerSpec(G2, CFG, (), rule)


def basic_table(place, cfg=CFG):
    one_le = LocalElement.uniformizer_power(place, 0)
    return KirillovTable(place, (
        KirillovEntry(0, 1, one_le, cfg.one()),
        KirillovEntry(1, 0, one_le, cfg.integer(3)),
        KirillovEntry(-1, 1, one_le, cfg.integer(2)),
    ))


# -- tables and characters ----------------------------------------------------

def test_table_lookup_and_disjointness():
    pl = G2.place([0, 1])
    table = basic_table(pl)
    assert table.lookup(LocalElement.uniformizer_power(pl, 0)) == CFG.one()
    assert table.lookup(LocalElement.uniformizer_power(pl, 1)) == CFG.integer(3)
    assert table.lookup(LocalElement.uniformizer_power(pl, 5)).is_zero
    with pytest.raises(ValueError):
        KirillovTable(pl, (
            KirillovEntry(0, 0, LocalElement.uniformizer_power(pl, 0), CFG.one()),
            KirillovEntry(0, 1, LocalElement.uniformizer_power(pl, 0), CFG.one()),
        ))


def test_table_needs_enough_digits():
    pl = G2.place([0, 1])
    K = pl.residue()
    one_le = LocalElement.uniformizer_power(pl, 0)
    table = KirillovTable(pl, (KirillovEntry(0, 3, one_le, CFG.one()),))
    shallow = LocalElement.from_coeffs(pl, 0, (K.one,), exact=False)
    from elladic.errors import InsufficientPrecision
    with pytest.raises(InsufficientPrecision):
        table.lookup(shallow)


def test_local_character_evaluation():
    pl = G2.place([0, 1])
    chi = LocalCharacter(CFG.integer(3))
    x = LocalElement.uniformizer_power(pl, 2)
    assert chi.evaluate(x) == CFG.integer(9)
    quad = G2.place([1, 1, 1])
    K = quad.residue()
    ram = LocalCharacter(CFG.integer(3), 1, (((K.one,), CFG.one()),))
    assert ram.evaluate(LocalElement.uniformizer_power(quad, 1)) == CFG.integer(3)
    theta_unit = LocalElement.from_coeffs(quad, 0, (quad.theta,), exact=True)
    with pytest.raises(IncompleteData):
        ram.evaluate(theta_unit)


# -- local values -------------------------------------------------------------

def one_entry_point(pl, a1=0, a2=0, central=0):
    """The point z * [[u^a1, 0], [0, u^a2]] at pl and the identity elsewhere,
    z the uniformizer to the central exponent."""
    return MirabolicPoint(G2, ((pl, LocalElement.exact_zero(pl), a1, a2),),
                          ((pl, central),))


def test_gamma_term_at_one_unramified_place(target):
    pl = G2.place([0, 1])
    datum = UnramifiedDatum(SatakeParam(2, 2, (CFG.one(), CFG.one())))
    spec = GlobalWhittakerSpec(G2, CFG, ((pl, datum),), unramified_spec().default_rule)
    val, half = _gamma_term(spec, one_entry_point(pl), ONE, target)
    assert val == CFG.one() and half == 0
    val, _ = _gamma_term(spec, one_entry_point(pl, a2=1), ONE, target)
    assert val.is_zero


def test_gamma_term_at_one_tabulated_place(target):
    pl = G2.place([0, 1])
    datum = TabulatedDatum(basic_table(pl), LocalCharacter(CFG.integer(3)))
    spec = GlobalWhittakerSpec(G2, CFG, ((pl, datum),), unramified_spec().default_rule)
    val, half = _gamma_term(spec, one_entry_point(pl), ONE, target)
    assert val == CFG.one() and half == 0
    val, _ = _gamma_term(spec, one_entry_point(pl, a1=1), ONE, target)
    assert val == CFG.integer(3)
    val, _ = _gamma_term(spec, one_entry_point(pl, central=2), ONE, target)
    assert val == CFG.integer(9)
    with pytest.raises(UnsupportedPoint):
        _gamma_term(spec, one_entry_point(pl, a2=1), ONE, target)


# -- gamma support and the expansion -------------------------------------------

def test_gamma_support_identity(target):
    spec = unramified_spec()
    support = gamma_support(spec, MirabolicPoint(G2))
    assert len(support) == G2.q - 1


def test_gamma_support_grows_with_positive_exponent(target):
    spec = unramified_spec()
    pl = G2.place([0, 1])
    pt = MirabolicPoint(G2, ((pl, LocalElement.exact_zero(pl), 1, 0),))
    assert len(gamma_support(spec, pt)) == 2 ** 2 - 1


def test_gamma_support_empty_table(target):
    pl = G2.place([0, 1])
    datum = TabulatedDatum(KirillovTable(pl, ()), LocalCharacter(CFG.one()))
    spec = GlobalWhittakerSpec(
        G2, CFG, ((pl, datum),), tuple((d, (CFG.one(), CFG.one())) for d in range(1, 9)),
        w=pl)
    assert gamma_support(spec, MirabolicPoint(G2)) == ()


def test_mirabolic_identity_value(target, sqrt2):
    spec = unramified_spec()
    val = mirabolic_expand(spec, MirabolicPoint(G2), sqrt2, target)
    assert val == CFG.integer(G2.q - 1)


def test_mirabolic_identity_value_q3():
    g3 = GroundField(3)
    cfg = FieldConfig(7, d=2, precision=10)
    tgt = PsiTarget.create(g3, cfg)
    sq3 = sqrt_unit(cfg, 3)
    rule = tuple((d, (cfg.one(), cfg.one())) for d in range(1, 9))
    spec = GlobalWhittakerSpec(g3, cfg, (), rule)
    val = mirabolic_expand(spec, MirabolicPoint(g3), sq3, tgt)
    assert val == cfg.integer(2)


def test_zero_table_gives_zero_expansion(target, sqrt2):
    pl = G2.place([0, 1])
    datum = TabulatedDatum(KirillovTable(pl, ()), LocalCharacter(CFG.one()))
    spec = GlobalWhittakerSpec(
        G2, CFG, ((pl, datum),), tuple((d, (CFG.one(), CFG.one())) for d in range(1, 9)),
        w=pl)
    assert mirabolic_expand(spec, MirabolicPoint(G2), sqrt2, target).is_zero


def test_gamma_support_soundness(target):
    # every gamma outside the support yields a zero term
    spec = unramified_spec()
    pl = G2.place([0, 1])
    pt = MirabolicPoint(G2, ((pl, LocalElement.exact_zero(pl), 1, 0),))
    support = set(gamma_support(spec, pt))
    larger = Divisor.make(G2, [(pl, 2), (G2.infinity(), 1)])
    for gamma in span_nonzero(G2, rr_space(larger)):
        if gamma in support:
            continue
        coef, _ = _gamma_term(spec, pt, gamma, target)
        assert coef.is_zero


# -- Fourier duality -----------------------------------------------------------

def duality_case(spec, pt, target, sqrt_q, extra=None):
    cfg = spec.config
    U = invariance_divisor(spec, pt, extra=extra)
    support = gamma_support(spec, pt)

    def phi(p):
        return mirabolic_expand(spec, p, sqrt_q, target)

    for gamma in support:
        coef, half = _gamma_term(spec, pt, gamma, target)
        expected = coef * sqrt_q ** half if not coef.is_zero else coef
        got = fourier_coefficient(phi, gamma, pt, U, target, cfg)
        diff = got - expected
        assert diff.is_zero or diff.valuation() >= cfg.precision - 2
    return U


def test_fourier_duality_identity_point(target, sqrt2):
    spec = unramified_spec()
    duality_case(spec, MirabolicPoint(G2), target, sqrt2)


def test_fourier_duality_nontrivial_point(target, sqrt2):
    spec = unramified_spec()
    pl = G2.place([0, 1])
    K = pl.residue()
    x = LocalElement.from_coeffs(pl, -1, (K.one,), exact=True)
    pt = MirabolicPoint(G2, ((pl, x, 1, 0),))
    duality_case(spec, pt, target, sqrt2)


def test_fourier_of_gamma_outside_support_vanishes(target, sqrt2):
    spec = unramified_spec()
    pt = MirabolicPoint(G2)
    support = set(gamma_support(spec, pt))
    pl = G2.place([0, 1])
    larger = Divisor.make(G2, [(pl, 1), (G2.infinity(), 1)])
    U = invariance_divisor(spec, pt, extra=larger)

    def phi(p):
        return mirabolic_expand(spec, p, sqrt2, target)

    outside = [g for g in span_nonzero(G2, rr_space(larger)) if g not in support]
    assert outside
    for gamma in outside[:4]:
        assert fourier_coefficient(phi, gamma, pt, U, target, CFG).is_zero


@pytest.mark.parametrize("ground, cfg", [
    (G2, CFG), (GroundField(3), FieldConfig(7, d=2, precision=10))], ids=["F_2", "F_3"])
def test_fourier_twist_is_psi_of_minus_u_gamma(ground, cfg):
    """With phi = 1 a Fourier coefficient is the average of its twists
    alone: index^-1 times the sum over the oracle's representatives of
    psi_global(-scale_adele(u, gamma)), on the criterion-9 divisors U and
    for gamma in the support and outside it.  u and -u run over the same
    cosets, so a phi that tells them apart, 2^i at the i-th shifted
    point, pins the sign of the twist; distinct powers of 2 keep its sums
    from cancelling.  A target over another ground field is refused."""
    target = PsiTarget.create(ground, cfg)
    rule = tuple((d, (cfg.one(), cfg.one())) for d in range(1, 13))
    spec = GlobalWhittakerSpec(ground, cfg, (), rule)
    pl = list(enumerate_places(ground, 1))[1]
    x = LocalElement.from_coeffs(pl, -1, (pl.residue().one,))
    extra = Divisor.make(ground, [(pl, 1), (ground.infinity(), 1)])
    for pt in (MirabolicPoint(ground), MirabolicPoint(ground, ((pl, x, 1, 0),))):
        U = invariance_divisor(spec, pt, extra=extra)
        reps = coset_reps_by_digit(U)
        support = gamma_support(spec, pt)
        outside = tuple(g for g in span_nonzero(ground, rr_space(extra))
                        if g not in set(support))
        assert len(reps) > 1 and support and outside
        position = {pt.shifted_by(u).entries: i for i, u in enumerate(reps)}

        def shift_phi(p):
            return cfg.integer(2) ** position[p.entries]

        for gamma, phi in itertools.product(support + outside,
                                            (lambda p: cfg.one(), shift_phi)):
            want = cfg.zero()
            for u in reps:
                want = want + psi_global(-scale_adele(u, gamma), target) \
                    * phi(pt.shifted_by(u))
            want = want * cfg.integer(quotient_index(U)).inv()
            assert fourier_coefficient(phi, gamma, pt, U, target, cfg) == want
    other = G2 if ground != G2 else GroundField(3)
    with pytest.raises(ConfigMismatch):
        fourier_coefficient(lambda p: cfg.one(), support[0], pt, U,
                            PsiTarget.create(other, CFG), cfg)


def test_averaging_denominator_is_p_power():
    pl = G2.place([0, 1])
    U = Divisor.make(G2, [(pl, 3), (G2.infinity(), 2)])
    idx = quotient_index(U)
    while idx % G2.p == 0:
        idx //= G2.p
    assert idx == 1


# -- the end-to-end pipeline ---------------------------------------------------

def build_spec_pair(rng, n_perturbed=2):
    s1_pl, s2_pl = G2.place([1, 1]), G2.place([1, 1, 1])
    tab1 = TabulatedDatum(basic_table(s1_pl), LocalCharacter(CFG.integer(3)))
    tab2 = TabulatedDatum(basic_table(s2_pl), LocalCharacter(CFG.integer(5)))
    places1 = [(s1_pl, tab1), (s2_pl, tab2)]
    places2 = [(s1_pl, tab1), (s2_pl, tab2)]
    perturb_at = [G2.place([0, 1]), G2.infinity(), G2.place([1, 1, 0, 1])][:n_perturbed]
    ell = CFG.integer(7)
    for pl in perturb_at:
        mu = (random_unit(CFG, rng), random_unit(CFG, rng))
        pert = tuple(m * (CFG.one() + ell * random_unit(CFG, rng)) for m in mu)
        places1.append((pl, UnramifiedDatum(SatakeParam(2, 2 ** pl.degree, mu))))
        places2.append((pl, UnramifiedDatum(SatakeParam(2, 2 ** pl.degree, (pert[1], pert[0])))))
    rule1 = tuple((d, (random_unit(CFG, rng), random_unit(CFG, rng))) for d in range(1, 13))
    rule2 = tuple((d, (m1 * (CFG.one() + ell * random_unit(CFG, rng)),
                       m2 * (CFG.one() + ell * random_unit(CFG, rng))))
                  for (d, (m1, m2)) in rule1)
    spec1 = GlobalWhittakerSpec(G2, CFG, tuple(places1), rule1, w=s1_pl)
    spec2 = GlobalWhittakerSpec(G2, CFG, tuple(places2), rule2, w=s1_pl)
    return spec1, spec2


def collapsed_per_place(spec, point, gammas, sqrt_q, target):
    """The sum over gammas of the per-place oracle's terms, collapsed
    through sqrt_q: nothing is shared with the production sum."""
    want = spec.config.zero()
    for gamma in gammas:
        coef, half = gamma_term_per_place(spec, point, gamma, target)
        if not coef.is_zero:
            want = want + coef * sqrt_q ** half
    return want


def test_pipeline_congruence(rng, target, sqrt2):
    spec1, spec2 = build_spec_pair(rng)
    samples = default_sample_points(G2, seed=3, count=8)
    rep = congruence_pipeline(spec1, spec2, samples, sqrt2, target)
    assert rep.ok
    d = rep.to_dict()
    assert d["ok"] and len(d["points"]) == 8
    # the one pass over the pair gives each spec's own values, digits and
    # precision included
    for report, point in zip(rep.points, samples):
        assert report.w_values == tuple(whittaker_at(s, point, sqrt2, target)
                                        for s in (spec1, spec2))
        assert report.phi_values == tuple(mirabolic_expand(s, point, sqrt2, target)
                                          for s in (spec1, spec2))
        # and, digit for digit, the per-place oracle's sums over gamma = 1
        # and over the support
        for values, gammas in ((report.w_values, (ONE,)),
                               (report.phi_values, gamma_support(spec1, point))):
            assert [digits((v, 0)) for v in values] == [
                digits((collapsed_per_place(s, point, gammas, sqrt2, target), 0))
                for s in (spec1, spec2)]


def test_pipeline_pair_shares_geometry(rng, target, sqrt2, monkeypatch):
    """The pair costs one gamma support per point and the expansions of
    one spec, not two, with cold caches and with warm ones alike."""
    spec1, spec2 = build_spec_pair(rng)
    samples = default_sample_points(G2, seed=3, count=4)
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def counts():
        """Calls made by the pair, then by spec1 alone."""
        calls.clear()
        congruence_pipeline(spec1, spec2, samples, sqrt2, target)
        pair = dict(calls)
        calls.clear()
        for point in samples:
            whittaker_at(spec1, point, sqrt2, target)
            mirabolic_expand(spec1, point, sqrt2, target)
        return pair, dict(calls)

    for name in ("gamma_support", "expand_at"):
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    clear_elladic_caches()
    cold = counts()
    assert counts() == cold
    pair, single = cold
    assert pair["gamma_support"] == len(samples)
    assert pair["expand_at"] == single["expand_at"] > 0


def digits(term):
    coef, half = term
    return coef.v, coef.coeffs, coef.prec, half


def outcome(fn, *args):
    """The terms' digits, or the type of the error raised."""
    try:
        out = fn(*args)
    except ElladicError as exc:
        return type(exc)
    return [digits(t) for t in out] if isinstance(out, list) else digits(out)


def assert_kernel_matches(specs, point, gamma, target) -> list:
    """_gamma_terms on the pair, and _gamma_term on each spec, against the
    per-place product of each spec; returns the oracle's outcomes."""
    want = [outcome(gamma_term_per_place, s, point, gamma, target) for s in specs]
    assert [outcome(_gamma_term, s, point, gamma, target) for s in specs] == want
    pair = outcome(_gamma_terms, specs, point, gamma, target)
    errors = {w for w in want if isinstance(w, type)}
    if errors:
        assert pair in errors
    else:
        assert pair == want
    return want


def test_gamma_terms_match_the_per_place_product(rng, target):
    spec1, spec2 = build_spec_pair(rng, n_perturbed=3)
    specs = (spec1, spec2)
    s1_pl, t_pl = G2.place([1, 1]), G2.place([0, 1])
    points = [p for p in default_sample_points(G2, seed=110, count=50)
              if len(gamma_support(spec1, p)) <= 63][:12]
    assert len(points) == 12
    # the table has no coset of valuation 2; the Whittaker value at (-1, 0)
    # is zero
    tab_zero = MirabolicPoint(G2, ((s1_pl, LocalElement.exact_zero(s1_pl), 2, 0),))
    unr_zero = MirabolicPoint(G2, ((t_pl, LocalElement.exact_zero(t_pl), -1, 0),))
    zero_terms = 0
    for point in points + [tab_zero, unr_zero]:
        for gamma in (ONE,) + gamma_support(spec1, point):
            want = assert_kernel_matches(specs, point, gamma, target)
            zero_terms += sum(not w[1] for w in want)
    for point in (tab_zero, unr_zero):
        assert all(not w[1] for w in assert_kernel_matches(specs, point, ONE, target))
    assert zero_terms


def test_gamma_terms_raise_where_the_per_place_product_does(rng, target):
    spec1, spec2 = build_spec_pair(rng)
    s1_pl, cubic = G2.place([1, 1]), G2.place([1, 0, 1, 1])
    gammas = (ONE, G2.t(), G2.rational([1], [1, 1]), G2.rational([1, 1], [0, 0, 1]))
    off_mirabolic = MirabolicPoint(G2, ((s1_pl, LocalElement.exact_zero(s1_pl), 0, 1),))
    # default rules for degrees 1 and 2 only, and a point at a cubic place
    short = tuple(replace(s, default_rule=s.default_rule[:2]) for s in (spec1, spec2))
    at_cubic = MirabolicPoint(G2, ((cubic, LocalElement.exact_zero(cubic), 1, 0),))
    for specs, point, error in (((spec1, spec2), off_mirabolic, UnsupportedPoint),
                                (short, at_cubic, IncompleteData)):
        seen = [assert_kernel_matches(specs, point, g, target) for g in gammas]
        assert seen[0] == [error, error]
    other = PsiTarget.create(GroundField(3), CFG)
    with pytest.raises(ConfigMismatch):
        _gamma_terms((spec1, spec2), MirabolicPoint(G2), ONE, other)


def local(place, v, *coeffs, exact=True):
    return LocalElement.from_coeffs(place, v, coeffs, exact=exact)


def test_gamma_terms_match_the_per_place_product_at_shifted_points(rng, target):
    """The kernel where x is not zero: at a place with a1 = a2 = 0, with
    valuation -1 at the tabulated place w, beside central exponents, and
    at the points a Fourier coefficient shifts these to."""
    spec1, spec2 = build_spec_pair(rng, n_perturbed=3)
    specs = (spec1, spec2)
    s1_pl, t_pl, cubic = G2.place([1, 1]), G2.place([0, 1]), G2.place([1, 0, 1, 1])
    bare_x = MirabolicPoint(G2, ((cubic, local(cubic, -1, 1), 0, 0),
                                 (t_pl, local(t_pl, -2, 1, 1), 0, 0)))
    at_w = MirabolicPoint(G2, ((s1_pl, local(s1_pl, -1, 1), 0, 0),))
    central = MirabolicPoint(G2, ((t_pl, local(t_pl, -1, 1), 1, 0),),
                             ((s1_pl, -1), (cubic, 1)))
    U = Divisor.make(G2, [(t_pl, 1), (s1_pl, 1), (G2.infinity(), 1)])
    points = []
    for point in (bare_x, at_w, central):
        points += [point] + [point.shifted_by(u) for u in coset_reps(U)]
    terms = 0
    for point in points:
        support = gamma_support(spec1, point)
        assert len(support) <= 63
        for gamma in (ONE,) + support:
            want = assert_kernel_matches(specs, point, gamma, target)
            terms += sum(bool(w[1]) for w in want)
    assert terms
    # an empty table at w is the zero function
    empty = TabulatedDatum(KirillovTable(s1_pl, ()), LocalCharacter(CFG.integer(3)))
    hollow = tuple(replace(s, explicit=tuple((pl, empty if pl == s1_pl else d)
                                             for pl, d in s.explicit)) for s in specs)
    for point in (bare_x, at_w, central):
        for gamma in (ONE, G2.t()):
            assert assert_kernel_matches(hollow, point, gamma, target) == [
                digits((CFG.zero(), 0))] * 2
    # default rules for degrees 1 and 2 only: x at the cubic place, where
    # a1 = a2 = 0, raises unless a zero factor at an earlier place stops
    # the product first; an x with too few digits for its trace raises
    # even where its own place's factor is zero
    short = tuple(replace(s, default_rule=s.default_rule[:2]) for s in specs)
    zero_first = ((t_pl, LocalElement.exact_zero(t_pl), -1, 0),)
    short_digits = ((t_pl, local(t_pl, -3, 1, exact=False), -1, 0),)
    for entries, error in (((), IncompleteData), (zero_first, None),
                           (short_digits, InsufficientPrecision)):
        point = MirabolicPoint(G2, entries + ((cubic, local(cubic, -1, 1), 0, 0),))
        assert assert_kernel_matches(short, point, ONE, target)[0] == (
            error or digits((CFG.zero(), 0)))
    # two faults in one term, the later one at a place of the torus: the
    # term reports the one at the lower place, x's missing degree-3 rule
    # or its short digits, not the quartic place's missing rule
    quartic = G2.place([1, 1, 1, 1, 1])
    at_quartic = ((quartic, LocalElement.exact_zero(quartic), 1, 0),)
    for entries, error, match in (
            (((cubic, local(cubic, -1, 1), 0, 0),), IncompleteData, "degree 3"),
            (((t_pl, local(t_pl, -3, 1, exact=False), 0, 0),), InsufficientPrecision,
             "beyond precision")):
        point = MirabolicPoint(G2, entries + at_quartic)
        assert assert_kernel_matches(short, point, ONE, target) == [error] * 2
        for fn, arg in ((gamma_term_per_place, short[0]), (_gamma_term, short[0]),
                        (_gamma_terms, short)):
            with pytest.raises(error, match=match):
                fn(arg, point, ONE, target)


def test_a_table_reads_gamma_to_its_max_level(target):
    """A coset of level 2 reads two digits of gamma's unit part, however
    high gamma's order there: t^5 / (1 + t + t^2) at t, where the trace's
    precision rule alone (max level + 4 - ord digits) leaves one."""
    pl, quad, inf = G2.place([0, 1]), G2.place([1, 1, 1]), G2.infinity()
    table = KirillovTable(pl, (KirillovEntry(0, 2, local(pl, 0, 1, 1), CFG.integer(3)),))
    spec = GlobalWhittakerSpec(G2, CFG, ((pl, TabulatedDatum(table, LocalCharacter(CFG.one()))),),
                               tuple((d, (CFG.one(), CFG.one())) for d in range(1, 9)), w=pl)
    point = MirabolicPoint(G2, tuple((p, LocalElement.exact_zero(p), a1, 0)
                                     for p, a1 in ((pl, -5), (quad, 1), (inf, 3))))
    gamma = G2.rational([0, 0, 0, 0, 0, 1], [1, 1, 1])
    assert gamma in gamma_support(spec, point)
    assert _gamma_term(spec, point, gamma, target) == (CFG.integer(3), 0)


# a spec with tabulated places, for the hypothesis properties below
PROPERTY_SPEC = build_spec_pair(random.Random(20260808))[0]
SMALL_PLACES = tuple(enumerate_places(G2, 2))


@st.composite
def shifted_cases(draw):
    """A point with nonzero x components and central exponents, and a
    divisor U on two places of degree 1, whose 2 to 8 cosets shift it."""
    entries = []
    for pl in draw(st.lists(st.sampled_from(SMALL_PLACES), min_size=1, max_size=2,
                            unique=True)):
        K = pl.residue()
        coeffs = draw(st.lists(st.integers(0, K.order - 1), min_size=1, max_size=3))
        x = local(pl, draw(st.integers(-1, 1)), *coeffs)
        entries.append((pl, x, draw(st.integers(-1, 1)), 0))
    central = draw(st.lists(st.tuples(st.sampled_from(SMALL_PLACES), st.integers(-1, 1)),
                            max_size=1))
    pairs = draw(st.lists(st.tuples(st.sampled_from(SMALL_PLACES[:3]), st.integers(1, 2)),
                          min_size=2, max_size=2, unique_by=lambda pm: pm[0]))
    return MirabolicPoint(G2, tuple(entries), tuple(central)), Divisor.make(G2, pairs)


@settings(max_examples=25, deadline=None)
@given(shifted_cases())
def test_coset_scope_gives_the_per_place_digits(case):
    """mirabolic_expand at each point a Fourier coefficient visits gives,
    inside the coefficient's scope and outside it, the digits of the sum
    over the support of the per-place product."""
    point, U = case
    spec, cfg = PROPERTY_SPEC, PROPERTY_SPEC.config
    target, sqrt_q = PsiTarget.create(G2, cfg), sqrt_unit(cfg, 2)
    inside = []

    def phi(p):
        inside.append((p, mirabolic_expand(spec, p, sqrt_q, target)))
        return inside[-1][1]

    fourier_coefficient(phi, G2.t(), point, U, target, cfg)
    assert len(inside) == quotient_index(U)
    for p, got in inside:
        want = collapsed_per_place(spec, p, gamma_support(spec, p), sqrt_q, target)
        outside = mirabolic_expand(spec, p, sqrt_q, target)
        assert digits((got, 0)) == digits((outside, 0)) == digits((want, 0))


def test_coset_scope_lasts_one_fourier_coefficient(target, sqrt2):
    """The psi-free terms are shared for the length of one call: every
    coset sees one scope, and none is left after the call returns or
    after phi raises."""
    spec, pt = unramified_spec(), MirabolicPoint(G2)
    U = invariance_divisor(spec, pt)
    scopes = []

    def phi(p):
        scopes.append(pipeline._COSET_TERMS.get())
        return mirabolic_expand(spec, p, sqrt2, target)

    fourier_coefficient(phi, gamma_support(spec, pt)[0], pt, U, target, CFG)
    assert len(scopes) == quotient_index(U) > 1
    assert scopes[0] and all(s is scopes[0] for s in scopes)
    assert pipeline._COSET_TERMS.get() is None

    def failing(p):
        raise UnsupportedPoint("phi refuses the point")

    with pytest.raises(UnsupportedPoint):
        fourier_coefficient(failing, G2.t(), pt, U, target, CFG)
    assert pipeline._COSET_TERMS.get() is None


def test_coset_scope_checks_sqrt_q_once_per_entry(monkeypatch, target, sqrt2):
    """A wrong sqrt_q is refused at the first coset, leaving no scope;
    inside a scope sqrt_q is checked once per shared entry, not once per
    coset, and outside one at every call."""
    spec, pt = unramified_spec(), MirabolicPoint(G2)
    U = invariance_divisor(spec, pt)
    gamma = gamma_support(spec, pt)[0]
    visited = []

    def wrong_root(p):
        visited.append(p)
        return mirabolic_expand(spec, p, CFG.integer(2), target)

    with pytest.raises(BadSquareRoot):
        fourier_coefficient(wrong_root, gamma, pt, U, target, CFG)
    assert len(visited) == 1
    assert pipeline._COSET_TERMS.get() is None

    checks = []
    real = pipeline.check_sqrt_q

    def counting(sqrt_q, q):
        checks.append(sqrt_q)
        return real(sqrt_q, q)

    monkeypatch.setattr(pipeline, "check_sqrt_q", counting)
    scopes = []

    def phi(p):
        scopes.append(pipeline._COSET_TERMS.get())
        return mirabolic_expand(spec, p, sqrt2, target)

    fourier_coefficient(phi, gamma, pt, U, target, CFG)
    assert len(scopes) == quotient_index(U) > 1
    assert len(checks) == len(scopes[0]) == 1
    checks.clear()
    for _ in range(2):
        mirabolic_expand(spec, pt, sqrt2, target)
    assert len(checks) == 2


def test_coset_scope_refuses_a_support_that_moves_with_x(monkeypatch, target, sqrt2):
    """The shared terms are matched to gammas by position, so a support
    that differed between two points of one torus is refused."""
    spec, pl = unramified_spec(), G2.place([0, 1])
    pt = MirabolicPoint(G2, ((pl, LocalElement.exact_zero(pl), 1, 0),))
    U = invariance_divisor(spec, pt)
    support = gamma_support(spec, pt)
    assert len(support) == 3
    calls = []

    def moving_support(spec, point, cap):
        calls.append(point)
        return support if len(calls) == 1 else support[::-1]

    monkeypatch.setattr(pipeline, "gamma_support", moving_support)
    with pytest.raises(RuntimeError):
        fourier_coefficient(lambda p: mirabolic_expand(spec, p, sqrt2, target),
                            support[0], pt, U, target, CFG)
    assert len(calls) == 2


def test_spec_pair_validation_builds_each_char_poly_once(rng, target, sqrt2,
                                                         monkeypatch):
    spec1, spec2 = build_spec_pair(rng)
    calls = Counter()
    real = pipeline.char_poly

    def counted(S):
        calls[id(S)] += 1
        return real(S)

    monkeypatch.setattr(pipeline, "char_poly", counted)
    point = default_sample_points(G2, seed=3, count=1)[0]
    whittaker_at(spec1, point, sqrt2, target)
    mirabolic_expand(spec1, point, sqrt2, target)
    assert not calls
    validate_spec_pair(spec1, spec2)
    # two explicit unramified places and twelve default degrees per spec
    assert len(calls) == 28 and set(calls.values()) == {1}
    validate_spec_pair(spec1, spec2)
    assert len(calls) == 28 and set(calls.values()) == {1}


def test_cancelling_satake_data_raises_at_every_validation():
    # e_1 = mu_1 + mu_2 cancels every certified digit
    mu = (CFG.unit(0, (1,), prec=2), CFG.unit(0, (-1 - 49,), prec=4))
    t_pl = G2.place([0, 1])
    spec = GlobalWhittakerSpec(G2, CFG, ((t_pl, UnramifiedDatum(SatakeParam(2, 2, mu))),),
                               ((1, (CFG.one(), CFG.one())),))
    for _ in range(2):
        with pytest.raises(PrecisionLoss):
            validate_spec_pair(spec, spec)


def test_pipeline_identical_specs(rng, target, sqrt2):
    spec1, _ = build_spec_pair(rng)
    samples = default_sample_points(G2, seed=5, count=4)
    rep = congruence_pipeline(spec1, spec1, samples, sqrt2, target)
    assert rep.ok
    for point in samples:
        w1 = whittaker_at(spec1, point, sqrt2, target)
        w2 = whittaker_at(spec1, point, sqrt2, target)
        assert (w1 - w2).is_zero


def test_pipeline_rejects_table_mismatch(rng, target, sqrt2):
    spec1, spec2 = build_spec_pair(rng)
    s1_pl = G2.place([1, 1])
    other = TabulatedDatum(basic_table(s1_pl), LocalCharacter(CFG.integer(6)))
    tampered = GlobalWhittakerSpec(
        G2, CFG,
        tuple((pl, other if pl == s1_pl else d) for pl, d in spec2.explicit),
        spec2.default_rule, w=spec2.w)
    with pytest.raises(SpecMismatch):
        validate_spec_pair(spec1, tampered)


def test_pipeline_rejects_noncongruent_data(rng, target, sqrt2):
    spec1, spec2 = build_spec_pair(rng)
    t_pl = G2.place([0, 1])
    bad_datum = UnramifiedDatum(SatakeParam(2, 2, (CFG.integer(1), CFG.integer(2))))
    tampered = GlobalWhittakerSpec(
        G2, CFG,
        tuple((pl, bad_datum if pl == t_pl else d) for pl, d in spec2.explicit),
        spec2.default_rule, w=spec2.w)
    with pytest.raises(NotCongruent):
        validate_spec_pair(spec1, tampered)


def test_spec_requires_normalized_tables():
    pl = G2.place([1, 1])
    one_le = LocalElement.uniformizer_power(pl, 0)
    bad_table = KirillovTable(pl, (KirillovEntry(0, 1, one_le, CFG.integer(2)),))
    with pytest.raises(ValueError):
        GlobalWhittakerSpec(
            G2, CFG, ((pl, TabulatedDatum(bad_table, LocalCharacter(CFG.one()))),),
            ((1, (CFG.one(), CFG.one())),))


def test_spec_default_rule_missing_degree():
    spec = GlobalWhittakerSpec(G2, CFG, (), ((1, (CFG.one(), CFG.one())),))
    with pytest.raises(IncompleteData):
        spec.datum_at(G2.place([1, 1, 1]))


def test_lookups_read_the_maps_built_once(rng):
    """datum_at, get, central_at and support: explicit data, the default
    rule and IncompleteData, at equal but distinct Place objects; equal
    specs and points still compare, hash and print alike."""
    spec, _ = build_spec_pair(rng)
    twin = replace(spec)
    assert twin is not spec and twin == spec
    assert hash(twin) == hash(spec) and repr(twin) == repr(spec)
    assert repr(spec) == (f"GlobalWhittakerSpec(ground={G2!r}, config={CFG!r}, "
                          f"explicit={spec.explicit!r}, "
                          f"default_rule={spec.default_rule!r}, w={spec.w!r})")
    for pl, d in spec.explicit:
        same = Place(pl.ground, pl.poly)
        assert same is not pl and spec.datum_at(same) is d
    assert spec.S == tuple(pl for pl, d in spec.explicit
                           if isinstance(d, TabulatedDatum))
    listed = {pl for pl, _ in spec.explicit}
    for pl in enumerate_places(G2, 3):
        if pl not in listed:
            d = spec.datum_at(pl)
            assert d is spec.datum_at(Place(G2, pl.poly)) is spec._defaults[pl.degree]
    far = G2.place([1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    assert far.degree == 13 and far.degree not in spec._defaults
    with pytest.raises(IncompleteData):
        spec.datum_at(far)

    t_pl, inf = G2.place([0, 1]), G2.infinity()
    x = LocalElement.from_coeffs(t_pl, -1, (1, 1))
    point = MirabolicPoint(G2, ((t_pl, x, 2, 0),), ((inf, -1), (t_pl, 1)))
    twin = MirabolicPoint(G2, ((Place(G2, (0, 1)), x, 2, 0),),
                          ((Place(G2, None), -1), (Place(G2, (0, 1)), 1)))
    assert twin == point and hash(twin) == hash(point) and repr(twin) == repr(point)
    assert repr(point) == (f"MirabolicPoint(ground={G2!r}, entries=((Place(0, 1), "
                           f"{x!r}, 2, 0),), central=((Place(infinity), -1), "
                           f"(Place(0, 1), 1)))")
    assert point.get(Place(G2, (0, 1))) == (x, 2, 0)
    assert point.get(inf) == (LocalElement.exact_zero(inf), 0, 0)
    assert point.central_at(Place(G2, None)) == -1
    assert point.central_at(Place(G2, (0, 1))) == 1
    assert point.central_at(G2.place([1, 1])) == 0
    assert point.support() == (inf, t_pl)
    with pytest.raises(ValueError, match="duplicate place"):
        MirabolicPoint(G2, (), ((t_pl, 1), (Place(G2, (0, 1)), 2)))


# -- central characters ---------------------------------------------------------

def norm_family(c_num, c_den, S_places):
    value = lambda d: CFG.rational(c_num ** d, c_den ** d)
    return CharacterFamily(
        S_places[0].ground, CFG, S_places,
        tuple((d, value(d)) for d in range(1, 9)),
        tuple((pl, LocalCharacter(value(pl.degree))) for pl in S_places))


def test_character_product_formula(rng):
    s_places = (G2.place([1, 1]),)
    fam = norm_family(1, 2, s_places)
    for _ in range(10):
        num = [rng.randrange(2) for _ in range(rng.randrange(1, 5))] + [1]
        den = [rng.randrange(2) for _ in range(rng.randrange(1, 5))] + [1]
        y = G2.rational(num, den)
        if y.is_zero:
            continue
        assert character_product(fam, y) == CFG.one()


def test_central_char_propagation(rng):
    s_places = (G2.place([1, 1]),)
    fam1 = norm_family(1, 2, s_places)
    fam2 = norm_family(8, 16, s_places)  # 8/16 = 1/2 scaled: same character
    ys = []
    while len(ys) < 10:
        num = [rng.randrange(2) for _ in range(rng.randrange(1, 5))] + [1]
        den = [rng.randrange(2) for _ in range(rng.randrange(1, 5))] + [1]
        y = G2.rational(num, den)
        if not y.is_zero:
            ys.append(y)
    rep = central_char_propagate(fam1, fam2, ys)
    assert rep.ok


def test_central_char_congruent_distinct_families(rng):
    s_places = (G2.place([1, 1]), G2.place([0, 1]))
    fam1 = norm_family(3, 1, s_places)
    fam2 = norm_family(10, 1, s_places)  # 10 = 3 + 7: congruent mod 7
    ys = [G2.t(), G2.rational([1, 1]), G2.rational([1], [0, 1])]
    rep = central_char_propagate(fam1, fam2, ys)
    assert rep.ok


def test_central_char_flags_noncongruent(rng):
    s_places = (G2.place([1, 1]),)
    fam1 = norm_family(1, 2, s_places)
    fam2 = norm_family(1, 1, s_places)
    rep = central_char_propagate(fam1, fam2, [G2.t()])
    assert not rep.ok


@pytest.mark.parametrize("ground, poly", [(GroundField(3), [0, 1]), (GroundField(5), [2, 1]),
                                         (G2, [1, 1, 1])], ids=["F3", "F5", "F2-degree-2"])
def test_central_char_ratio_at_a_residue_field_above_two(ground, poly):
    """Where kappa(w) has more than two elements, the ratio at w is also
    derived at the unit of code 2, beside the uniformizer."""
    s_places = (ground.place(poly),)
    ys = [ground.t(), ground.rational([1, 1]), ground.rational([1], [0, 1])]
    rep = central_char_propagate(norm_family(3, 1, s_places), norm_family(10, 1, s_places), ys)
    assert rep.ok and len(rep.ratio_records) == 2
    rep = central_char_propagate(norm_family(1, 2, s_places), norm_family(1, 1, s_places), ys)
    assert [r.ok for r in rep.ratio_records] == [False, True]


def test_character_family_reads_the_maps_built_once():
    """character_at reads the explicit map, then S, then one shared
    character per degree; by_degree is sorted by degree alone.  The
    refusals of repeats are test_cli's malformed-request cases."""
    pl = G2.place([1, 1])
    chi = (pl, LocalCharacter(CFG.one()))
    by_degree = ((2, CFG.integer(5)), (1, CFG.integer(3)))
    fam = CharacterFamily(G2, CFG, (pl,), by_degree, (chi,))
    assert fam.by_degree == by_degree[::-1]
    assert fam.character_at(Place(G2, (1, 1))) is chi[1]
    assert fam.character_at(G2.place([1, 1, 1])) is fam.character_at(Place(G2, (1, 1, 1)))
    assert fam.character_at(G2.infinity()) == LocalCharacter(CFG.integer(3))
    with pytest.raises(IncompleteData):
        CharacterFamily(G2, CFG, (pl,), by_degree).character_at(pl)


def test_central_char_incomplete_data():
    s_places = (G2.place([1, 1]),)
    fam = CharacterFamily(G2, CFG, s_places, ((1, CFG.one()),),
                          ((s_places[0], LocalCharacter(CFG.one())),))
    with pytest.raises(IncompleteData):
        character_product(fam, G2.rational([1, 1, 1]))  # needs degree 2 data


def test_default_sample_points_deterministic():
    a = default_sample_points(G2, seed=9, count=10)
    b = default_sample_points(G2, seed=9, count=10)
    assert a == b
    assert len(a) == 10
    for pt in a:
        for _, x, _, a2 in pt.entries:
            assert a2 == 0
