import itertools
import random
import traceback
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elladic import function_field, pipeline
from elladic.errors import (BadSquareRoot, ConfigMismatch, ElladicError,
                            IncompleteData, InsufficientPrecision,
                            NotCongruent, PrecisionLoss, SpecMismatch,
                            UnsupportedPoint)
from elladic.function_field import (Divisor, GroundField, LocalElement,
                                    Place, PsiTarget, coset_reps,
                                    enumerate_places, expand_at, psi_global,
                                    psi_local, quotient_index, rr_space,
                                    scale_adele, span_nonzero)
from elladic.padic import FieldConfig, sqrt_unit
from elladic.pipeline import (CharacterFamily, GlobalWhittakerSpec,
                              KirillovEntry, KirillovTable, LocalCharacter,
                              MirabolicPoint, PipelineReport, PointReport,
                              TabulatedDatum, UnramifiedDatum,
                              central_char_propagate, character_product,
                              congruence_pipeline, default_sample_points,
                              fourier_coefficient, gamma_support,
                              invariance_divisor, mirabolic_expand, validate_spec_pair,
                              whittaker_at)
from elladic.pipeline import _gamma_term, _sums
from elladic.satake import SatakeParam
from elladic.whittaker import check_sqrt_q
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


def test_a_character_level_below_zero_is_refused():
    """Level -1 would read no unit table, so the character would be 1 on
    every unit: it is refused, with or without a table, as a Kirillov
    coset level below 0 is."""
    for units in ((), (((1,), CFG.integer(5)),)):
        with pytest.raises(ValueError, match="character level must be >= 0"):
            LocalCharacter(CFG.integer(3), -1, units)


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
    one spec, not two, each run from cold caches."""
    spec1, spec2 = build_spec_pair(rng)
    samples = default_sample_points(G2, seed=3, count=4)
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def counts():
        """Calls made by the pair, then by spec1 alone, from cold caches."""
        clear_elladic_caches()
        calls.clear()
        congruence_pipeline(spec1, spec2, samples, sqrt2, target)
        pair = dict(calls)
        clear_elladic_caches()
        calls.clear()
        for point in samples:
            whittaker_at(spec1, point, sqrt2, target)
            mirabolic_expand(spec1, point, sqrt2, target)
        return pair, dict(calls)

    for name in ("gamma_support", "expand_at"):
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
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


def pair_sums(specs, point, gamma, target, sqrt_q) -> list:
    """The one-gamma _sums pass over the specs, the path congruence_pipeline
    runs for a pair, as (value, 0) per spec."""
    return [(v, 0) for v in _sums(specs, point, (gamma,), sqrt_q, target)]


def assert_kernel_matches(specs, point, gamma, target, sqrt_q) -> list:
    """_gamma_term on each spec against the per-place product of each
    spec, and the pair's _sums against each spec's collapsed per-place
    term or the oracle's error class; returns the oracle's outcomes."""
    want = [outcome(gamma_term_per_place, s, point, gamma, target) for s in specs]
    assert [outcome(_gamma_term, s, point, gamma, target) for s in specs] == want
    pair = outcome(pair_sums, specs, point, gamma, target, sqrt_q)
    errors = {w for w in want if isinstance(w, type)}
    if errors:
        assert pair in errors
    else:
        assert pair == [digits((collapsed_per_place(s, point, (gamma,), sqrt_q, target), 0))
                        for s in specs]
    return want


def test_gamma_terms_match_the_per_place_product(rng, target, sqrt2):
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
            want = assert_kernel_matches(specs, point, gamma, target, sqrt2)
            zero_terms += sum(not w[1] for w in want)
    for point in (tab_zero, unr_zero):
        assert all(not w[1] for w in assert_kernel_matches(specs, point, ONE, target, sqrt2))
    assert zero_terms


def test_gamma_terms_raise_where_the_per_place_product_does(rng, target, sqrt2):
    spec1, spec2 = build_spec_pair(rng)
    s1_pl, cubic = G2.place([1, 1]), G2.place([1, 0, 1, 1])
    gammas = (ONE, G2.t(), G2.rational([1], [1, 1]), G2.rational([1, 1], [0, 0, 1]))
    off_mirabolic = MirabolicPoint(G2, ((s1_pl, LocalElement.exact_zero(s1_pl), 0, 1),))
    # default rules for degrees 1 and 2 only, and a point at a cubic place
    short = tuple(replace(s, default_rule=s.default_rule[:2]) for s in (spec1, spec2))
    at_cubic = MirabolicPoint(G2, ((cubic, LocalElement.exact_zero(cubic), 1, 0),))
    for specs, point, error in (((spec1, spec2), off_mirabolic, UnsupportedPoint),
                                (short, at_cubic, IncompleteData)):
        seen = [assert_kernel_matches(specs, point, g, target, sqrt2) for g in gammas]
        assert seen[0] == [error, error]
    other = PsiTarget.create(GroundField(3), CFG)
    with pytest.raises(ConfigMismatch):
        _sums((spec1, spec2), MirabolicPoint(G2), (ONE,), sqrt2, other)


def local(place, v, *coeffs, exact=True):
    return LocalElement.from_coeffs(place, v, coeffs, exact=exact)


def test_gamma_terms_match_the_per_place_product_at_shifted_points(rng, target, sqrt2):
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
            want = assert_kernel_matches(specs, point, gamma, target, sqrt2)
            terms += sum(bool(w[1]) for w in want)
    assert terms
    # an empty table at w is the zero function
    empty = TabulatedDatum(KirillovTable(s1_pl, ()), LocalCharacter(CFG.integer(3)))
    hollow = tuple(replace(s, explicit=tuple((pl, empty if pl == s1_pl else d)
                                             for pl, d in s.explicit)) for s in specs)
    for point in (bare_x, at_w, central):
        for gamma in (ONE, G2.t()):
            assert assert_kernel_matches(hollow, point, gamma, target, sqrt2) == [
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
        assert assert_kernel_matches(short, point, ONE, target, sqrt2)[0] == (
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
        assert assert_kernel_matches(short, point, ONE, target, sqrt2) == [error] * 2
        for call in (lambda: gamma_term_per_place(short[0], point, ONE, target),
                     lambda: _gamma_term(short[0], point, ONE, target),
                     lambda: pair_sums(short, point, ONE, target, sqrt2)):
            with pytest.raises(error, match=match):
                call()


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


@pytest.mark.parametrize("a2", range(4, 10))
def test_a_trace_sizes_gamma_from_the_shifted_x(target, a2):
    """The trace at t is of gamma x u^(-a2), whose valuation is a2 below
    x's: gamma is expanded as far as that element needs, so the term is
    its psi-free part times psi_t of gamma x u^(-a2) read from a 60-digit
    expansion of gamma, as in the per-place product.  Sized from x alone,
    the expansion runs short from a2 = 4 on."""
    spec, gamma = unramified_spec(), G2.rational([1], [1, 1])
    t_pl, t1 = G2.place([0, 1]), G2.place([1, 1])
    x = local(t_pl, -1, 1, 1)
    point = MirabolicPoint(G2, ((t_pl, x, a2, a2), (t1, LocalElement.exact_zero(t1), 1, 0)))
    assert gamma in gamma_support(spec, point)
    ((coef, half),), _, fault = pipeline._psi_free((spec,), point.torus, gamma, target)
    assert fault is None and not coef.is_zero
    psi = psi_local(t_pl, expand_at(gamma, t_pl, 60) * x.shift(-a2), target)
    assert _gamma_term(spec, point, gamma, target) == (coef * psi, half)
    assert digits(gamma_term_per_place(spec, point, gamma, target)) == digits((coef * psi, half))


# a spec with tabulated places, for the hypothesis properties below, and
# two unramified ones: with the same default rule, and with the rule for
# degrees 1 and 2 only, so that a gamma with a zero or pole of higher
# degree meets IncompleteData
PROPERTY_SPEC = build_spec_pair(random.Random(20260808))[0]
UNRAMIFIED_SPECS = tuple(GlobalWhittakerSpec(G2, CFG, (), rule) for rule in (
    PROPERTY_SPEC.default_rule, PROPERTY_SPEC.default_rule[:2]))
SMALL_PLACES = tuple(enumerate_places(G2, 2))


@st.composite
def shifted_cases(draw, inexact=False):
    """A spec, a point with nonzero x components and central exponents,
    and a divisor U on two places of degree 1, whose 2 to 8 cosets shift
    the point.  The spec is PROPERTY_SPEC and every x exact, unless
    inexact: then x may be known only to its listed digits, none
    included, and on an unramified spec a2 may reach 5."""
    spec = draw(st.sampled_from((PROPERTY_SPEC,) + UNRAMIFIED_SPECS)) if inexact \
        else PROPERTY_SPEC
    a2s = st.integers(0, 5) if spec in UNRAMIFIED_SPECS else st.just(0)
    entries = []
    for pl in draw(st.lists(st.sampled_from(SMALL_PLACES), min_size=1, max_size=2,
                            unique=True)):
        K = pl.residue()
        coeffs = draw(st.lists(st.integers(0, K.order - 1), min_size=int(not inexact),
                               max_size=3))
        exact = draw(st.booleans()) if inexact else True
        x = local(pl, draw(st.integers(-1, 1)), *coeffs, exact=exact)
        entries.append((pl, x, draw(st.integers(-1, 1)), draw(a2s)))
    central = draw(st.lists(st.tuples(st.sampled_from(SMALL_PLACES), st.integers(-1, 1)),
                            max_size=1))
    pairs = draw(st.lists(st.tuples(st.sampled_from(SMALL_PLACES[:3]), st.integers(1, 2)),
                          min_size=2, max_size=2, unique_by=lambda pm: pm[0]))
    return spec, MirabolicPoint(G2, tuple(entries), tuple(central)), Divisor.make(G2, pairs)


@settings(max_examples=25, deadline=None)
@given(shifted_cases())
def test_term_tables_give_the_per_place_digits(case):
    """mirabolic_expand at each point a Fourier coefficient visits gives,
    read from the gamma-term table that the coefficient's cosets share and
    again after the coefficient, the digits of the sum over the support
    of the per-place product."""
    spec, point, U = case
    cfg = spec.config
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


def expand_outcome(spec, point, sqrt_q, target):
    """mirabolic_expand's digits, or the class and message of its error."""
    try:
        return digits((mirabolic_expand(spec, point, sqrt_q, target), 0))
    except ElladicError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(shifted_cases(inexact=True))
def test_term_tables_give_each_coset_the_value_or_error_of_a_lone_call(case):
    """With x known to few digits, a2 up to 5 and missing default rules,
    each coset gives, inside the coefficient, where the cosets share one
    gamma-term table and its traces, the digits or the error (class and
    message) that the same call gives alone after the coefficient."""
    spec, point, U = case
    cfg = spec.config
    target, sqrt_q = PsiTarget.create(G2, cfg), sqrt_unit(cfg, 2)
    inside = []

    def phi(p):
        inside.append((p, expand_outcome(spec, p, sqrt_q, target)))
        return cfg.zero()

    fourier_coefficient(phi, G2.t(), point, U, target, cfg)
    assert len(inside) == quotient_index(U)
    for p, got in inside:
        assert got == expand_outcome(spec, p, sqrt_q, target)


def split_pair(base):
    """Two specs on base's places, with Satake data (1, -1) and (1, 6) at
    each listed unramified place and for degrees 1 and 2 only: congruent
    mod 7, but s_a(1, -1) is the exact zero wherever a1 - a2 is odd, so
    at such a factor one spec's product stops and the other's does not."""
    return tuple(replace(base, default_rule=((1, mu), (2, mu)), explicit=tuple(
        (pl, d if isinstance(d, TabulatedDatum)
         else UnramifiedDatum(SatakeParam(2, 2 ** pl.degree, mu)))
        for pl, d in base.explicit)) for mu in ((CFG.one(), -CFG.one()),
                                               (CFG.one(), CFG.integer(6))))


SPLIT_PAIRS = (split_pair(PROPERTY_SPEC), split_pair(UNRAMIFIED_SPECS[0]))
CUBIC = G2.place([1, 0, 1, 1])
# gammas with a pole or zero at t, t + 1, a quadratic and a cubic place
SPLIT_GAMMAS = (ONE, G2.t(), G2.rational([1], [1, 1]), G2.rational([1, 1], [0, 0, 1]),
                G2.rational([1], [1, 1, 1]), G2.rational([1, 1, 0, 1], [1]))


def test_a_split_pair_stops_one_spec_only(target):
    """At a1 - a2 = 1 on an unramified place the first spec of each split
    pair has a zero factor and the second a nonzero one."""
    pl = G2.place([0, 1])
    for specs in SPLIT_PAIRS:
        validate_spec_pair(*specs)
        point = MirabolicPoint(G2, ((pl, local(pl, -1, 1, exact=False), 1, 0),))
        coefs = [_gamma_term(s, point, ONE, target)[0] for s in specs]
        assert coefs[0].is_zero and not coefs[1].is_zero


@st.composite
def split_cases(draw):
    """A split pair and a point with x possibly known to its listed digits
    only, at places of degree at most 2 or the cubic place, where no
    default rule applies."""
    specs = draw(st.sampled_from(SPLIT_PAIRS))
    entries = []
    for pl in draw(st.lists(st.sampled_from(SMALL_PLACES + (CUBIC,)), min_size=1,
                            max_size=2, unique=True)):
        coeffs = draw(st.lists(st.integers(0, pl.residue().order - 1), max_size=3))
        x = local(pl, draw(st.integers(-2, 1)), *coeffs, exact=draw(st.booleans()))
        entries.append((pl, x, draw(st.integers(-2, 2)), draw(st.sampled_from((0, 0, 1)))))
    central = draw(st.lists(st.tuples(st.sampled_from(SMALL_PLACES), st.integers(-1, 1)),
                            max_size=1))
    return specs, MirabolicPoint(G2, tuple(entries), tuple(central))


def sums_outcome(specs, point, gammas, sqrt_q, target):
    """_sums' digits per spec, or the class and message of its error."""
    try:
        return [digits((v, 0)) for v in _sums(specs, point, gammas, sqrt_q, target)]
    except ElladicError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(split_cases())
def test_a_validated_pair_gives_what_its_two_singles_give(case):
    """_sums over a validated pair, whose products stop at different
    places, gives each spec's digits wherever it returns, and returns
    wherever both specs alone return; where it raises, one spec alone
    raises the same class and message.  Each gamma is summed alone, and
    then all of them."""
    specs, point = case
    target, sqrt_q = PsiTarget.create(G2, CFG), sqrt_unit(CFG, 2)
    try:
        support = gamma_support(specs[0], point)[:31]
    except ElladicError:
        support = ()
    gammas = SPLIT_GAMMAS + tuple(g for g in support if g not in SPLIT_GAMMAS)
    for some in [(g,) for g in gammas] + [gammas]:
        pair = sums_outcome(specs, point, some, sqrt_q, target)
        singles = [sums_outcome((s,), point, some, sqrt_q, target) for s in specs]
        if isinstance(pair, list):
            assert singles == [[d] for d in pair]
        else:
            assert pair in singles


def test_a_stored_gamma_keeps_the_values_its_sums_add(target, sqrt2):
    """Each gamma a split pair's table stores is one record (rows, last,
    fault, traces): last as _psi_free gives it, no fault, and per live
    spec exactly the p values (coef * zeta^t) * sqrt_q^half of its
    psi-free part, None for a zero product, and rows None when both
    products are zero.  A gamma whose part met a fault is not stored.
    The tables hold all three kinds of row."""
    pl = G2.place([0, 1])
    kinds = Counter()
    for specs in SPLIT_PAIRS:
        for a1 in (0, 1, 2):
            point = MirabolicPoint(G2, ((pl, local(pl, -1, 1), a1, 0),))
            gammas = SPLIT_GAMMAS + gamma_support(specs[0], point)[:15]
            clear_elladic_caches()
            for gamma in gammas:
                sums_outcome(specs, point, (gamma,), sqrt2, target)
            table = pipeline._terms(specs, point.torus, target, sqrt2)
            assert set(table) == {g for g in gammas if pipeline._psi_free(
                specs, point.torus, g, target)[2] is None}
            for gamma, (rows, last, fault, traces) in table.items():
                terms, want_last, _ = pipeline._psi_free(specs, point.torus, gamma, target)
                assert (last, fault, type(traces)) == (want_last, None, dict)
                want = [None if coef.is_zero else
                        tuple((coef * zeta) * sqrt2 ** half for zeta in target.powers)
                        for coef, half in terms]
                if rows is None:
                    assert want == [None, None]
                else:
                    assert [row and [digits((v, 0)) for v in row] for row in rows] == \
                        [row and [digits((v, 0)) for v in row] for row in want]
                    assert all(row is None or len(row) == G2.p for row in rows)
                kinds[rows is None, rows is not None and None in rows] += 1
    assert len(kinds) == 3


def test_term_tables_check_sqrt_q_once_per_root(monkeypatch, target, sqrt2):
    """A wrong sqrt_q is refused at the first coset, before any gamma
    support is read, and again at every call; a right one is checked
    once per root, however many cosets and calls read it."""
    spec, pt = unramified_spec(), MirabolicPoint(G2)
    U = invariance_divisor(spec, pt)
    gamma = gamma_support(spec, pt)[0]
    clear_elladic_caches()
    visited, supports = [], []
    real = pipeline.gamma_support
    monkeypatch.setattr(pipeline, "gamma_support",
                        lambda *args: supports.append(args) or real(*args))

    def wrong_root(p):
        visited.append(p)
        return mirabolic_expand(spec, p, CFG.integer(2), target)

    for _ in range(2):
        with pytest.raises(BadSquareRoot):
            fourier_coefficient(wrong_root, gamma, pt, U, target, CFG)
    assert len(visited) == 2 and not supports
    fourier_coefficient(lambda p: mirabolic_expand(spec, p, sqrt2, target),
                        gamma, pt, U, target, CFG)
    mirabolic_expand(spec, pt, sqrt2, target)
    assert len(supports) == quotient_index(U) + 1 > 2
    checks = check_sqrt_q.cache_info()
    assert (checks.misses, checks.hits) == (3, quotient_index(U))


def test_term_tables_trace_once_per_gamma_and_point_entry(monkeypatch, target, sqrt2):
    """Within one coefficient from cold caches, each gamma and point entry
    (place, x, a1, a2) is traced once, each component of the twist once and each distinct
    point support's divisor built once, though every coset sums over
    every gamma of the support and twists by every component of its
    representative."""
    spec, pl = PROPERTY_SPEC, G2.place([0, 1])
    pt = MirabolicPoint(G2, ((pl, local(pl, -1, 1), 1, 0),))
    U = invariance_divisor(spec, pt, Divisor.make(G2, [(pl, 1), (G2.infinity(), 1)]))
    support = gamma_support(spec, pt)
    clear_elladic_caches()
    traced, twisted, built, gammas = Counter(), Counter(), [], []
    real_trace, real_residue, real_rr = (pipeline._trace, pipeline.residue_trace,
                                         pipeline.rr_nonzero)
    real_twist = function_field.residue_trace

    def tracing(specs, point, gamma, *rest):
        gammas.append(gamma)
        return real_trace(specs, point, gamma, *rest)

    def residue(place, x, y):
        # at one torus a2 is fixed per place, so x shifted by -a2 stands
        # for the pair (x, a2)
        traced[gammas[-1], place, x] += 1
        return real_residue(place, x, y)

    def twist(place, x, y):
        twisted[place, x] += 1
        return real_twist(place, x, y)

    def building(D, cap):
        built.append(D)
        return real_rr(D, cap)

    for name, fn in (("_trace", tracing), ("residue_trace", residue),
                     ("rr_nonzero", building)):
        monkeypatch.setattr(pipeline, name, fn)
    monkeypatch.setattr(function_field, "residue_trace", twist)
    visited = []

    def phi(p):
        visited.append(p)
        return mirabolic_expand(spec, p, sqrt2, target)

    fourier_coefficient(phi, support[0], pt, U, target, CFG)
    assert len(visited) == quotient_index(U) > 1
    assert len(gammas) == len(visited) * len(support)
    assert traced and max(traced.values()) == 1
    assert sum(traced.values()) < len(support) * sum(
        not x.is_exact_zero for p in visited for _, x, _, _ in p.entries)
    assert twisted and max(twisted.values()) == 1
    assert sum(twisted.values()) < sum(len(u.items) for u in coset_reps(U))
    assert len(built) == len({p.support() for p in visited}) < len(visited)


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
    """datum_at and support: explicit data, the default rule and
    IncompleteData, at equal but distinct Place objects; equal
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
    assert point.support() == (inf, t_pl)
    with pytest.raises(ValueError, match="duplicate place"):
        MirabolicPoint(G2, (), ((t_pl, 1), (Place(G2, (0, 1)), 2)))


# -- place-keyed records --------------------------------------------------------

KEYED_PLACES = tuple(enumerate_places(G2, 2))
KEYED_BUILDERS = {
    "adele": lambda recs: function_field.Adele.make(G2, recs),
    "constraints": function_field.weak_approx,
    "spec": lambda recs: GlobalWhittakerSpec(G2, CFG, tuple(recs), ()),
    "point entries": lambda recs: MirabolicPoint(G2, tuple(recs)),
    "point central": lambda recs: MirabolicPoint(G2, (), tuple(recs)),
    "family": lambda recs: CharacterFamily(G2, CFG, (), (), tuple(recs)),
}


def keyed_record(kind, pl, trivial):
    """A record of the kind at pl.  trivial gives the one an adele or a
    point drops (an exact zero, an identity entry, a zero exponent), and
    another value where the kind has no such record."""
    x = LocalElement.exact_zero(pl) if trivial else LocalElement.uniformizer_power(pl, 1)
    return {
        "adele": (pl, x),
        "constraints": (pl, LocalElement.uniformizer_power(pl, 1 + trivial), 2),
        "spec": (pl, UnramifiedDatum(SatakeParam(2, 2 ** pl.degree,
                                                 (CFG.integer(3 + trivial), CFG.one())))),
        "point entries": (pl, x, 0 if trivial else 1, 0),
        "point central": (pl, 0 if trivial else 1),
        "family": (pl, LocalCharacter(CFG.integer(3 + trivial))),
    }[kind]


@st.composite
def keyed_records(draw):
    """A kind, its records at distinct places, a permutation of them, and
    the records with one place listed again, trivially or not."""
    kind = draw(st.sampled_from(sorted(KEYED_BUILDERS)))
    places = draw(st.lists(st.sampled_from(KEYED_PLACES), min_size=1, unique=True))
    recs = [keyed_record(kind, pl, draw(st.booleans())) for pl in places]
    again = keyed_record(kind, draw(st.sampled_from(places)), draw(st.booleans()))
    at = draw(st.integers(0, len(recs)))
    return kind, recs, draw(st.permutations(recs)), recs[:at] + [again] + recs[at:]


@settings(max_examples=300, deadline=None)
@given(keyed_records())
def test_a_place_keyed_record_is_sorted_and_refuses_a_repeated_place(case):
    """An adele, weak-approximation constraints, a spec's local data, a
    point's entries and central exponents and a family's explicit
    characters build the same object from any order of their records,
    and refuse a place listed twice, even where one listing is a record
    the object drops."""
    kind, recs, shuffled, repeated = case
    build = KEYED_BUILDERS[kind]
    assert build(shuffled) == build(recs)
    with pytest.raises(ValueError, match="duplicate place in "):
        build(repeated)


@pytest.mark.parametrize("key", [(1, 0), (), (0,)], ids=["two-digits", "no-digits", "zero"])
def test_a_unit_coset_no_unit_can_meet_is_refused(key):
    """A level-1 character's unit cosets are one digit, and that digit is
    a unit's leading coefficient, so never 0: any other key would never
    match, and evaluating there would fail later."""
    with pytest.raises(ValueError, match="unit cosets have length 1 and a nonzero first digit"):
        LocalCharacter(CFG.integer(3), 1, ((key, CFG.one()),))


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


def test_a_ramified_character_reads_y_to_its_level():
    """A character of level 2 reads two digits of y's unit part, however
    high y's order there: t^3 / (1 + t) at t, whose unit part 1 + t + ...
    lies in the coset of value 6, gives 3^3 * 6 at t and 1 elsewhere."""
    t_pl = G2.place([0, 1])
    chi = LocalCharacter(CFG.integer(3), 2, (((1, 0), CFG.one()), ((1, 1), CFG.integer(6))))
    fam = CharacterFamily(G2, CFG, (t_pl,), tuple((d, CFG.one()) for d in range(1, 9)),
                          ((t_pl, chi),))
    assert character_product(fam, G2.rational([0, 0, 0, 1], [1, 1])) == CFG.integer(162)


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


def test_a_report_with_a_w_of_valuation_minus_one_has_no_residue_and_fails():
    """A W value of valuation -1 has no residue: the report emits null for
    it, keeps the other residue, and is not ok, though both verdicts
    are congruent."""
    point = PointReport(0, (CFG.ell_power(-1), CFG.one()), (CFG.one(), CFG.one()), True, True)
    report = PipelineReport((point,)).to_dict()
    (record,) = report["points"]
    assert record["W_valuations"] == [-1, 0]
    assert record["W_residues"] == [None, [1]]
    assert record["phi_residues"] == [[1], [1]]
    assert (record["congruent"], record["ok"], report["ok"]) == (True, False, False)


def test_a_stream_of_x_at_one_torus_keeps_the_tables_bounded(target, sqrt2):
    """2,000 points of one torus with distinct x leave each gamma's trace
    memo within _TRACES and give the values of cleared caches; more tori
    than _TABLES leave _TABLES tables."""
    spec, pl, inf = unramified_spec(3), G2.place([0, 1]), G2.infinity()

    def point(i, a1=1):
        x = local(pl, -1, 1, *((i >> k) & 1 for k in range(11)))
        return MirabolicPoint(G2, ((pl, x, a1, 0), (inf, local(inf, -1, 1, i & 1), 0, 0)))

    clear_elladic_caches()
    values = [mirabolic_expand(spec, point(i), sqrt2, target) for i in range(2000)]
    table = pipeline._terms((spec,), point(0).torus, target, sqrt2)
    assert len(table) == len(gamma_support(spec, point(0))) > 1
    assert all(0 < len(memo) <= pipeline._TRACES for _, _, _, memo in table.values())
    for i in (0, 777, 1999):
        clear_elladic_caches()
        assert digits((mirabolic_expand(spec, point(i), sqrt2, target), 0)) == \
            digits((values[i], 0))
    for a1 in range(pipeline._TABLES + 4):
        whittaker_at(spec, point(a1, a1), sqrt2, target)
    assert pipeline._terms.cache_info().currsize == pipeline._TABLES


def test_a_psi_free_fault_raised_from_a_warm_table_keeps_its_traceback(target, sqrt2):
    """Default rules for degrees 1 and 2 only: W at a cubic place of the
    torus, and phi at a point whose support holds a gamma with a cubic
    zero after gammas the table keeps, raise IncompleteData three times
    from one table, each time a fresh error with a traceback as long."""
    spec = unramified_spec()
    short = replace(spec, default_rule=spec.default_rule[:2])
    cubic, pl = G2.place([1, 0, 1, 1]), G2.place([0, 1])
    at_cubic = MirabolicPoint(G2, ((cubic, LocalElement.exact_zero(cubic), 1, 0),))
    at_t = MirabolicPoint(G2, ((pl, LocalElement.exact_zero(pl), 3, 0),))
    clear_elladic_caches()
    for call in (lambda: whittaker_at(short, at_cubic, sqrt2, target),
                 lambda: mirabolic_expand(short, at_t, sqrt2, target)):
        errors = []
        for _ in range(3):
            with pytest.raises(IncompleteData, match="degree 3") as info:
                call()
            errors.append(info.value)
        assert len({id(e) for e in errors}) == 3
        assert len({len(traceback.extract_tb(e.__traceback__)) for e in errors}) == 1
    assert pipeline._terms((short,), at_t.torus, target, sqrt2)
    assert pipeline._terms.cache_info().currsize == 2


def test_each_gamma_is_factored_once(monkeypatch, target, sqrt2):
    """A gamma keeps its orders: over the sums at two torus signatures, a
    Fourier twist and a character product, the numerator and the
    denominator of each gamma object are factored once."""
    spec, pl = PROPERTY_SPEC, G2.place([0, 1])
    points = [MirabolicPoint(G2, ((pl, local(pl, -1, 1), a1, 0),)) for a1 in (1, 2)]
    gammas = tuple(G2.rational(g.num, g.den) for g in gamma_support(spec, points[1]))
    assert len(gammas) > 2
    calls = []
    factor = function_field.fp_factor
    monkeypatch.setattr(function_field, "fp_factor", lambda F, f: calls.append(f) or factor(F, f))
    clear_elladic_caches()
    for point in points:
        _sums((spec,), point, gammas, sqrt2, target)
    U = invariance_divisor(spec, points[0])
    fourier_coefficient(lambda p: CFG.one(), gammas[-1], points[0], U, target, CFG)
    character_product(norm_family(1, 2, (G2.place([1, 1]),)), gammas[-1])
    # over F_2 every numerator is monic already
    assert Counter(calls) == Counter([g.num for g in gammas] + [g.den for g in gammas])


def test_a_phi_that_raises_midway_changes_no_later_coefficient(target, sqrt2):
    """A coefficient whose phi raises at its third coset leaves the
    tables as they would be filled anyway: the next coefficient, and
    each coset's expansion, have the bytes of cleared caches."""
    spec, pl = PROPERTY_SPEC, G2.place([0, 1])
    pt = MirabolicPoint(G2, ((pl, local(pl, -1, 1), 1, 0),))
    U = invariance_divisor(spec, pt, Divisor.make(G2, [(pl, 1), (G2.infinity(), 1)]))
    gamma = gamma_support(spec, pt)[0]

    def run():
        coef = fourier_coefficient(lambda p: mirabolic_expand(spec, p, sqrt2, target),
                                   gamma, pt, U, target, CFG)
        return [digits((v, 0)) for v in [coef] + [
            mirabolic_expand(spec, pt.shifted_by(u), sqrt2, target) for u in coset_reps(U)]]

    clear_elladic_caches()
    cold = run()
    clear_elladic_caches()
    visited = []

    def failing(p):
        visited.append(p)
        if len(visited) == 3:
            raise UnsupportedPoint("phi refuses the third coset")
        return mirabolic_expand(spec, p, sqrt2, target)

    with pytest.raises(UnsupportedPoint):
        fourier_coefficient(failing, gamma, pt, U, target, CFG)
    assert len(visited) == 3 < quotient_index(U)
    assert run() == cold
