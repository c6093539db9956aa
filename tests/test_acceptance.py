"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts both the mathematical content and the wall-clock budget.
"""

import itertools
import json
import random
import time
from pathlib import Path

from elladic.function_field import (Divisor, GroundField, LocalElement,
                                    PsiTarget, enumerate_places, expand_at,
                                    principal_adele, psi_conductor_divisor,
                                    psi_global, psi_kernel_set, psi_local,
                                    quotient_index, rr_space, span_nonzero)
from elladic.padic import FieldConfig, sqrt_unit
from elladic.pipeline import (CharacterFamily, GlobalWhittakerSpec,
                              KirillovEntry, KirillovTable, LocalCharacter,
                              MirabolicPoint, TabulatedDatum, UnramifiedDatum,
                              central_char_propagate, congruence_pipeline,
                              default_sample_points, fourier_coefficient,
                              gamma_support, invariance_divisor,
                              mirabolic_expand)
from elladic.pipeline import _gamma_term
from elladic.satake import SatakeParam, char_poly, is_integral
from elladic.whittaker import (check_congruence, is_dominant, schur_value,
                               whittaker_value)

from conftest import same_value
from oracles import schur_bialternant, schur_oracle
from test_function_field import brute_force_index


def report(number, name, started, budget):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s / budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


ELLS = [2, 3, 5, 7, 11]
QS = [2, 3, 4, 5, 8, 9]


def _random_integral_param(rng, cfg, n, q):
    mu = []
    for _ in range(n):
        v = rng.choice((0, 0, 0, 1, 2))
        mu.append(cfg.unit(v, _unit_coeffs(rng, cfg)))
    return SatakeParam(n, q, tuple(mu))


def _unit_coeffs(rng, cfg):
    coeffs = [rng.randrange(cfg.ell ** 3) for _ in range(cfg.d)]
    if all(c % cfg.ell == 0 for c in coeffs):
        coeffs[0] += rng.randrange(1, cfg.ell)
    return coeffs


def _random_unit_param(rng, cfg, n, q):
    return SatakeParam(n, q, tuple(cfg.unit(0, _unit_coeffs(rng, cfg))
                                   for _ in range(n)))


def test_criterion_01_css_normalization_and_vanishing():
    started = time.monotonic()
    rng = random.Random(101)
    configs = {ell: FieldConfig(ell, precision=16) for ell in ELLS}
    params = []
    for _ in range(200):
        ell = rng.choice(ELLS)
        q = rng.choice([q for q in QS if q % ell != 0])
        n = rng.randrange(1, 5)
        S = _random_integral_param(rng, configs[ell], n, q)
        params.append(S)
        w = whittaker_value(S, (0,) * n)
        assert w.coef == configs[ell].one()
        assert w.q_half_exp == 0
    checked = 0
    while checked < 50:
        S = rng.choice(params)
        if S.n < 2:
            continue
        a = tuple(rng.randrange(-4, 5) for _ in range(S.n))
        if is_dominant(a):
            continue
        w = whittaker_value(S, a)
        assert w.is_zero and w.q_half_exp == 0
        checked += 1
    report(1, "css normalization and vanishing", started, 5)


def test_criterion_02_schur_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(102)
    cfg = FieldConfig(7, precision=12)
    partitions = {
        n: [a for a in itertools.product(range(5), repeat=n)
            if all(a[i] >= a[i + 1] for i in range(n - 1))]
        for n in (1, 2, 3)
    }
    for trial in range(50):
        n = (trial % 3) + 1
        S = _random_unit_param(rng, cfg, n, 2)
        distinct = len({m.reduce() for m in S.mu}) == n
        for a in partitions[n]:
            jt = schur_value(S, a)
            assert same_value(jt, schur_oracle(S, a))
            if distinct:
                assert same_value(jt, schur_bialternant(S, a))
    report(2, "schur oracle equivalence", started, 30)


def test_criterion_03_congruence_suite():
    started = time.monotonic()
    rng = random.Random(103)
    configs = {ell: FieldConfig(ell, precision=16) for ell in (3, 5, 7, 11)}
    for trial in range(100):
        ell = rng.choice((3, 5, 7, 11))
        cfg = configs[ell]
        q = rng.choice([q for q in (2, 3, 4, 5) if q % ell != 0])
        n = (trial % 4) + 1
        base = _random_unit_param(rng, cfg, n, q)
        ell_el = cfg.integer(ell)
        scaled = [m * (cfg.one() + ell_el * cfg.unit(0, _unit_coeffs(rng, cfg)))
                  for m in base.mu]
        rng.shuffle(scaled)
        other = SatakeParam(n, q, tuple(scaled))
        rep = check_congruence(base, other, 4)
        assert rep.ok, (ell, q, n, rep.violations[:3])
    report(3, "congruence suite at bound 4", started, 60)


def test_criterion_04_integrality_shadow():
    started = time.monotonic()
    rng = random.Random(104)
    cfg = FieldConfig(5, precision=12)
    for _ in range(500):
        n = rng.randrange(1, 5)
        mu = tuple(cfg.unit(rng.randrange(-3, 4), _unit_coeffs(rng, cfg))
                   for _ in range(n))
        S = SatakeParam(n, 3, mu)
        assert is_integral(char_poly(S)) == (min(m.v for m in mu) >= 0)
    report(4, "integrality criterion shadow", started, 5)


def test_criterion_05_psi_trivial_on_field():
    started = time.monotonic()
    rng = random.Random(105)
    grounds = [GroundField(2), GroundField(3), GroundField(2, 2), GroundField(5)]
    cfgs = {2: FieldConfig(3, precision=10), 3: FieldConfig(7, precision=10),
            5: FieldConfig(11, precision=10)}
    for ground in grounds:
        target = PsiTarget.create(ground, cfgs[ground.p])
        one = cfgs[ground.p].one()
        for _ in range(25):
            num = [rng.randrange(ground.q) for _ in range(rng.randrange(1, 6))] + [1]
            den = [rng.randrange(ground.q) for _ in range(rng.randrange(1, 6))] + [1]
            gamma = ground.rational(num, den)
            if gamma.is_zero:
                continue
            assert psi_global(principal_adele(gamma), target) == one
    report(5, "psi trivial on the diagonal", started, 10)


def test_criterion_06_riemann_roch():
    started = time.monotonic()
    rng = random.Random(106)
    ground = GroundField(2)
    places = list(enumerate_places(ground, 3))
    for _ in range(100):
        while True:
            D = Divisor.make(ground, [(pl, rng.randrange(-4, 5))
                                      for pl in rng.sample(places, rng.randrange(1, 4))])
            if abs(D.degree) <= 10:
                break
        basis = rr_space(D)
        assert len(basis) == max(D.degree + 1, 0)
        for f in basis:
            check = set(D.support()) | {pl for pl, m in f.divisor().items if m < 0}
            check.add(ground.infinity())
            for pl in check:
                assert f.ord_at(pl) >= -D.get(pl)
    report(6, "riemann-roch dimension and membership", started, 10)


def test_criterion_07_kernel_sets():
    started = time.monotonic()
    rng = random.Random(107)
    cfgs = {2: FieldConfig(3, precision=10), 3: FieldConfig(7, precision=10)}
    for p in (2, 3):
        ground = GroundField(p)
        target = PsiTarget.create(ground, cfgs[p])
        one = cfgs[p].one()
        places = list(enumerate_places(ground, 2))
        for _ in range(10):
            while True:
                U = Divisor.make(ground, [(pl, rng.randrange(0, 4))
                                          for pl in rng.sample(places, rng.randrange(1, 4))])
                if 0 <= sum(m * pl.degree for pl, m in U.items) <= 6:
                    break
            members = psi_kernel_set(U)
            dim = max(psi_conductor_divisor(U).degree + 1, 0)
            assert len(members) == ground.q ** dim - 1
            for gamma in members:
                for pl, m in U.items:
                    K = pl.residue()
                    ordg = int(gamma.ord_at(pl))
                    for depth in range(m, m + 2):
                        for c in range(1, K.order):
                            gen = LocalElement.from_coeffs(
                                pl, depth, (K.from_int(c),), exact=True)
                            prod = gen * expand_at(gamma, pl, 8 + abs(ordg))
                            assert psi_local(pl, prod, target) == one
    report(7, "psi kernel sets", started, 30)


def test_criterion_08_index_p_power():
    started = time.monotonic()
    rng = random.Random(108)
    ground = GroundField(3)
    places = list(enumerate_places(ground, 2))
    # exhaustive small family: every index up to 3^6 gets cross-checked
    checked = 0
    for m1 in range(4):
        for m2 in range(3):
            for m3 in range(2):
                U = Divisor.make(ground, [(places[0], m1), (places[1], m2),
                                          (places[4], m3)])
                idx = quotient_index(U)
                if idx <= 3 ** 6:
                    assert idx == brute_force_index(U)
                    checked += 1
    assert checked >= 20
    for _ in range(100):
        U = Divisor.make(ground, [(pl, rng.randrange(0, 5))
                                  for pl in rng.sample(places, rng.randrange(1, 4))])
        idx = quotient_index(U)
        while idx % 3 == 0:
            idx //= 3
        assert idx == 1
    report(8, "quotient index p-power and brute force", started, 30)


def _fourier_case(ground, cfg, sqrt_q, rng):
    target = PsiTarget.create(ground, cfg)
    rule = tuple((d, (cfg.one(), cfg.one())) for d in range(1, 13))
    spec = GlobalWhittakerSpec(ground, cfg, (), rule)
    deg1 = [pl for pl in enumerate_places(ground, 1)]
    pl = deg1[1]
    K = pl.residue()
    points = [
        MirabolicPoint(ground),
        MirabolicPoint(ground, ((pl, LocalElement.from_coeffs(pl, -1, (K.one,)), 1, 0),)),
    ]
    extra = Divisor.make(ground, [(pl, 1), (ground.infinity(), 1)])

    def phi_for(pt):
        return lambda p: mirabolic_expand(spec, p, sqrt_q, target)

    for pt in points:
        support = gamma_support(spec, pt)
        U = invariance_divisor(spec, pt, extra=extra)
        phi = phi_for(pt)
        for gamma in support:
            coef, half = _gamma_term(spec, pt, gamma, target)
            expected = coef * sqrt_q ** half if not coef.is_zero else coef
            got = fourier_coefficient(phi, gamma, pt, U, target, cfg)
            diff = got - expected
            assert diff.is_zero or diff.valuation() >= cfg.precision - 2
        outside = [g for g in span_nonzero(ground, rr_space(extra))
                   if g not in set(support)]
        rng.shuffle(outside)
        count = 0
        for gamma in outside:
            if count >= 5:
                break
            got = fourier_coefficient(phi, gamma, pt, U, target, cfg)
            assert got.is_zero
            count += 1


def test_criterion_09_fourier_whittaker_duality():
    started = time.monotonic()
    rng = random.Random(109)
    _fourier_case(GroundField(2), FieldConfig(7, precision=12),
                  sqrt_unit(FieldConfig(7, precision=12), 2), rng)
    cfg3 = FieldConfig(7, d=2, precision=10)
    _fourier_case(GroundField(3), cfg3, sqrt_unit(cfg3, 3), rng)
    report(9, "fourier-whittaker duality", started, 60)


CRITERION10_GOLDEN = Path(__file__).parent / "golden" / "criterion10.json"


def criterion10_pair(seed: int = 110, degrees=range(1, 13)):
    """The field, coefficient field, psi target, sqrt(2) and spec pair of
    criterion 10, units drawn from Random(seed), the default rules
    covering the given degrees; seed 110 gives the criterion's input."""
    rng = random.Random(seed)
    ground = GroundField(2)
    cfg = FieldConfig(7, precision=12)
    target = PsiTarget.create(ground, cfg)
    sq = sqrt_unit(cfg, 2)

    def unit():
        return cfg.unit(0, _unit_coeffs(rng, cfg))

    s1_pl, s2_pl = ground.place([1, 1]), ground.place([1, 1, 1])

    def table(pl):
        one_le = LocalElement.uniformizer_power(pl, 0)
        return KirillovTable(pl, (
            KirillovEntry(0, 1, one_le, cfg.one()),
            KirillovEntry(1, 0, one_le, cfg.integer(3)),
            KirillovEntry(-1, 1, one_le, cfg.integer(2)),
        ))

    tabs = [(s1_pl, TabulatedDatum(table(s1_pl), LocalCharacter(cfg.integer(3)))),
            (s2_pl, TabulatedDatum(table(s2_pl), LocalCharacter(cfg.integer(5))))]
    places1, places2 = list(tabs), list(tabs)
    ell = cfg.integer(7)
    for pl in (ground.place([0, 1]), ground.infinity(), ground.place([1, 1, 0, 1])):
        mu = (unit(), unit())
        pert = tuple(m * (cfg.one() + ell * unit()) for m in mu)
        places1.append((pl, UnramifiedDatum(SatakeParam(2, 2 ** pl.degree, mu))))
        places2.append((pl, UnramifiedDatum(SatakeParam(2, 2 ** pl.degree,
                                                        (pert[1], pert[0])))))
    rule1 = tuple((d, (unit(), unit())) for d in degrees)
    rule2 = tuple((d, (m1 * (cfg.one() + ell * unit()),
                       m2 * (cfg.one() + ell * unit())))
                  for (d, (m1, m2)) in rule1)
    spec1 = GlobalWhittakerSpec(ground, cfg, tuple(places1), rule1, w=s1_pl)
    spec2 = GlobalWhittakerSpec(ground, cfg, tuple(places2), rule2, w=s1_pl)
    return ground, cfg, target, sq, spec1, spec2


def criterion10_report_json() -> str:
    """The criterion-10 report (seed 110, 50 sample points) as the JSON
    text tests/golden/criterion10.json holds; asserts that the pair passed."""
    ground, _, target, sq, spec1, spec2 = criterion10_pair()
    samples = default_sample_points(ground, seed=110, count=50)
    assert len(samples) == 50
    rep = congruence_pipeline(spec1, spec2, samples, sq, target)
    assert rep.ok, [p for p in rep.points if not p.ok][:3]
    return json.dumps(rep.to_dict(), indent=1) + "\n"


def test_criterion_10_end_to_end_pipeline():
    started = time.monotonic()
    assert criterion10_report_json() == CRITERION10_GOLDEN.read_text()
    report(10, "end-to-end congruence pipeline", started, 120)


def test_criterion_11_central_character_propagation():
    started = time.monotonic()
    rng = random.Random(111)
    ground = GroundField(2)
    cfg = FieldConfig(7, precision=12)
    s_places = (ground.place([1, 1]),)

    def family(c_num, c_den):
        def val(d):
            return cfg.rational(c_num ** d, c_den ** d)
        return CharacterFamily(
            ground, cfg, s_places,
            tuple((d, val(d)) for d in range(1, 9)),
            tuple((pl, LocalCharacter(val(pl.degree))) for pl in s_places))

    pairs = [(family(1, 1), family(8, 1)),
             (family(2, 1), family(16, 1)),
             (family(3, 1), family(24, 1)),
             (family(1, 2), family(1, 16)),
             (family(5, 1), family(40, 1))]
    for fam1, fam2 in pairs:
        ys = []
        while len(ys) < 10:
            num = [rng.randrange(2) for _ in range(rng.randrange(1, 5))] + [1]
            den = [rng.randrange(2) for _ in range(rng.randrange(1, 5))] + [1]
            y = ground.rational(num, den)
            if not y.is_zero:
                ys.append(y)
        rep = central_char_propagate(fam1, fam2, ys)
        assert not rep.product_failures
        assert all(r.ok for r in rep.ratio_records)
    report(11, "central character propagation", started, 10)
