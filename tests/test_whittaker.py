import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elladic import whittaker
from elladic.errors import (BadSquareRoot, ConfigMismatch, ElladicError, NotCongruent,
                            NotIntegral, PrecisionLoss, TooLarge)
from elladic.function_field import DEFAULT_ENUMERATION_CAP
from elladic.gf import from_digits
from elladic.padic import FieldConfig, sqrt_unit
from elladic.satake import SatakeParam, complete_homogeneous_table, elementary_symmetric_all
from elladic.whittaker import (CongruenceReport, Violation, WhittakerValue,
                               _residue_text, _schur_evaluator, check_congruence,
                               collapse, dominant_weights, half_exponent,
                               is_dominant, schur_value, whittaker_value)
from conftest import perturbed_pair, random_unit_satake, same_value
from oracles import det, residue_by_dual_jacobi_trudi, schur_bialternant, schur_oracle

CFG7 = FieldConfig(7, precision=8)
CFG5 = FieldConfig(5, precision=8)
CONFIGS = {(ell, d): FieldConfig(ell, d=d, precision=8)
           for ell in (3, 5, 7, 11) for d in (1, 2)}


def S(cfg, q, *mu_ints):
    return SatakeParam(len(mu_ints), q, tuple(cfg.integer(m) for m in mu_ints))


def test_is_dominant():
    assert is_dominant((0, 0, 0))
    assert not is_dominant((0, 1))
    assert is_dominant((3, 3, -1))


def test_half_exponent():
    assert half_exponent((2, 0)) == -2
    assert half_exponent((0,) * 5) == 0
    # central shifts do not move the exponent
    assert half_exponent((3, 1)) == half_exponent((4, 2))


def test_schur_values_small():
    assert schur_value(S(CFG7, 3, 1, 1), (0, 0)) == CFG7.one()
    assert schur_value(S(CFG7, 3, 1, 1), (2, 0)) == CFG7.integer(3)
    s32 = S(CFG7, 3, 3, 2)
    assert schur_value(s32, (1, 1)) == CFG7.integer(6)
    assert schur_value(s32, (1, 0)) == CFG7.integer(5)


def test_whittaker_normalization_and_vanishing():
    s = S(CFG7, 3, 1, 1)
    w = whittaker_value(s, (0, 0))
    assert w.coef == CFG7.one() and w.q_half_exp == 0
    z = whittaker_value(s, (0, 1))
    assert z.is_zero and z.q_half_exp == 0


def test_whittaker_tableau_example():
    w = whittaker_value(S(CFG7, 3, 1, 1), (2, 0))
    assert w.coef == CFG7.integer(3) and w.q_half_exp == -2


def test_collapse():
    cfg = FieldConfig(11, precision=8)
    s = SatakeParam(2, 3, (cfg.one(), cfg.one()))
    sq = sqrt_unit(cfg, 3)
    assert collapse(whittaker_value(s, (2, 0)), sq, 3) == cfg.one()
    # even exponents do not depend on the chosen root
    w = WhittakerValue.make(cfg.one(), 2)
    assert collapse(w, sq, 3) == collapse(w, -sq, 3) == cfg.integer(3)
    four = SatakeParam(2, 4, (cfg.one(), cfg.one()))
    sq4 = cfg.integer(2)
    assert collapse(WhittakerValue.make(cfg.one(), 2), sq4, 4) == cfg.integer(4)
    with pytest.raises(BadSquareRoot):
        collapse(w, cfg.integer(2), 3)


def test_schur_oracle_shapes():
    s32 = S(CFG7, 3, 3, 2)
    assert schur_oracle(s32, (1, 0)) == elementary_symmetric_all(s32)[1]
    assert schur_oracle(s32, (1, 1)) == elementary_symmetric_all(s32)[2]
    ones3 = S(CFG7, 5, 1, 1, 1)
    assert schur_oracle(ones3, (2, 1, 0)) == CFG7.integer(8)


def test_schur_oracle_limits():
    big = S(CFG7, 3, *([1] * 5))
    with pytest.raises(TooLarge):
        schur_oracle(big, (1, 0, 0, 0, 0))
    with pytest.raises(TooLarge):
        schur_oracle(S(CFG7, 3, 1, 1), (9, 0))


def test_schur_value_matches_oracle(rng):
    for _ in range(25):
        n = rng.randrange(1, 4)
        s = random_unit_satake(CFG7, rng, n, 2)
        a = sorted((rng.randrange(0, 5) for _ in range(n)), reverse=True)
        shift = rng.randrange(-2, 3)
        a = tuple(x + shift for x in a)
        if sum(x - a[-1] for x in a) > 8:
            continue
        assert same_value(schur_value(s, a), schur_oracle(s, a))


def test_bialternant_agreement_when_residues_distinct(rng):
    for _ in range(25):
        n = rng.randrange(2, 4)
        while True:
            s = random_unit_satake(CFG7, rng, n, 2)
            if len({m.reduce() for m in s.mu}) == n:
                break
        a = tuple(sorted((rng.randrange(-3, 4) for _ in range(n)), reverse=True))
        assert same_value(schur_value(s, a), schur_bialternant(s, a))


def test_central_translation(rng):
    for _ in range(20):
        n = rng.randrange(1, 5)
        s = random_unit_satake(CFG5, rng, n, 3)
        a = tuple(sorted((rng.randrange(-3, 4) for _ in range(n)), reverse=True))
        c = rng.randrange(-2, 3)
        shifted = tuple(x + c for x in a)
        w, ws = whittaker_value(s, a), whittaker_value(s, shifted)
        assert ws.q_half_exp == w.q_half_exp
        e_n = elementary_symmetric_all(s)[n]
        assert same_value(ws.coef, w.coef * e_n ** c)


def test_symmetry_under_permutation(rng):
    for _ in range(15):
        n = rng.randrange(2, 5)
        s = random_unit_satake(CFG5, rng, n, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        s2 = SatakeParam(n, 3, tuple(s.mu[i] for i in perm))
        a = tuple(sorted((rng.randrange(-2, 3) for _ in range(n)), reverse=True))
        w1, w2 = whittaker_value(s, a), whittaker_value(s2, a)
        assert w1.q_half_exp == w2.q_half_exp
        assert same_value(w1.coef, w2.coef)


def test_integrality_of_partition_values(rng):
    # partition weights give polynomials in the e_r: integral for any
    # integral parameters, units or not
    for _ in range(20):
        n = rng.randrange(1, 4)
        mu = tuple(CFG5.unit(rng.randrange(0, 3), (rng.randrange(1, 5),))
                   for _ in range(n))
        s = SatakeParam(n, 3, mu)
        a = tuple(sorted((rng.randrange(0, 4) for _ in range(n)), reverse=True))
        w = whittaker_value(s, a)
        assert w.is_zero or w.coef.valuation() >= 0


def test_integrality_of_all_values_for_unit_parameters(rng):
    for _ in range(20):
        n = rng.randrange(1, 5)
        s = random_unit_satake(CFG5, rng, n, 3)
        a = tuple(sorted((rng.randrange(-3, 4) for _ in range(n)), reverse=True))
        w = whittaker_value(s, a)
        assert w.is_zero or w.coef.valuation() >= 0


def brute_dominant(n, bound):
    """The dominant weights of the box, filtered from every vector of it."""
    return [a for a in product(range(-bound, bound + 1), repeat=n)
            if is_dominant(a)]


def test_dominant_weights_enumeration():
    ws = dominant_weights(2, 1)
    assert ws == [(-1, -1), (0, -1), (0, 0), (1, -1), (1, 0), (1, 1)]
    assert len(dominant_weights(4, 4)) == 495
    for n in range(1, 5):
        for bound in range(5):
            assert dominant_weights(n, bound) == brute_dominant(n, bound)


# ---------------------------------------------------------------------------
# the shared Schur table against the per-weight Jacobi-Trudi path
# ---------------------------------------------------------------------------

def reference_schur(S, h, a):
    """s_a(mu) one weight at a time: the explicit Jacobi-Trudi rows
    h_{lambda_i - i + j} (zero below h_0) of lambda = a - c through the
    cofactor determinant det, times e_n ** c with c the last entry."""
    n, c = S.n, a[-1]
    zero = S.config.zero()
    rows = [[h[a[i] - c - i + j] if a[i] - c - i + j >= 0 else zero
             for j in range(n)] for i in range(n)]
    value = det(S.config, rows)
    return value if c == 0 else value * elementary_symmetric_all(S)[n] ** c


def reference_schur_value(S, a):
    return reference_schur(S, complete_homogeneous_table(S, a[0] - a[-1] + S.n - 1), a)


def reference_sweep(S1, S2, bound):
    """check_congruence's report over the per-weight path, as a dict."""
    n = S1.n
    tables = [complete_homogeneous_table(S, 2 * bound + n - 1) for S in (S1, S2)]
    weights = brute_dominant(n, bound)
    violations = []
    for a in weights:
        c1, c2 = (reference_schur(S, h, a) for S, h in zip((S1, S2), tables))
        v1, v2 = c1.valuation(), c2.valuation()
        if v1 < 0 or v2 < 0:
            violations.append(Violation(a, "non-integral", f"valuations {v1}, {v2}"))
        elif c1.reduce() != c2.reduce():
            violations.append(Violation(a, "residue-mismatch",
                                        f"{_residue_text(c1)} vs {_residue_text(c2)}"
                                        f" at m={half_exponent(a)}"))
    return CongruenceReport(len(weights), tuple(violations)).to_dict()


def outcome(f, *args):
    """(v, coeffs, prec) of f(*args), "zero" for an exact zero, or the
    name of the precision error it raised."""
    try:
        x = f(*args)
    except PrecisionLoss as exc:
        return type(exc).__name__
    return "zero" if x.is_zero else (x.v, x.coeffs, x.prec)


def _det_exact(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** i * row[0] * _det_exact([r[1:] for j, r in enumerate(rows) if j != i])
               for i, row in enumerate(rows))


def exact_schur(S, a):
    """s_a of the entries' digits read as rationals (d = 1): Jacobi-Trudi
    over Fraction, where nothing cancels below a precision."""
    ell, n, c = S.config.ell, S.n, a[-1]
    e = [Fraction(1)]
    for m in S.mu:
        x = Fraction(ell) ** m.v * m.coeffs[0]
        e = [(e[r] if r < len(e) else 0) + (x * e[r - 1] if r else 0) for r in range(len(e) + 1)]
    h = [Fraction(1)]
    for k in range(1, a[0] - c + n):
        h.append(sum((-1) ** (i - 1) * e[i] * h[k - i] for i in range(1, min(k, n) + 1)))
    rows = [[h[a[i] - c - i + j] if a[i] - c - i + j >= 0 else 0 for j in range(n)]
            for i in range(n)]
    return _det_exact(rows) * e[n] ** c


def certifies(x, exact, ell):
    """The nonzero x agrees with the rational exact to x's absolute precision."""
    diff = exact - Fraction(ell) ** x.v * x.coeffs[0]
    v = 0
    while diff and diff.numerator % ell == 0:
        diff /= ell
        v += 1
    while diff and diff.denominator % ell == 0:
        diff *= ell
        v -= 1
    return not diff or v >= x.v + x.prec


def matches_reference(f, S, a, want):
    """f(a) has the per-weight outcome want.  Where want is a PrecisionLoss
    from a partial sum that cancels exactly, f may return a value instead
    (see padic.certified_sum), which must agree with exact arithmetic
    (checked for d = 1)."""
    got = outcome(f, a)
    if want != "PrecisionLoss" or got == "PrecisionLoss":
        return got == want
    return S.config.d > 1 or (got != "zero" and certifies(f(a), exact_schur(S, a), S.config.ell))


ENTRY_KINDS = ("unit", "shared-residue", "reduced-prec", "valuation")


@st.composite
def satake_boxes(draw):
    """(S, bound) with rank 1..4 and bound 0..4 over Q_{l^d}, l in
    3, 5, 7, 11 and d in 1, 2.  Each entry is a random unit, a unit with
    the residue that all such entries share, a unit of reduced precision,
    or an element of nonzero valuation."""
    cfg = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    ell, d = cfg.ell, cfg.d
    digits = st.lists(st.integers(0, ell ** cfg.precision - 1), min_size=d, max_size=d)
    residue = draw(st.lists(st.integers(0, ell - 1), min_size=d, max_size=d)
                   .filter(any))

    def entry(kind):
        coeffs = draw(digits)
        if kind == "shared-residue":
            coeffs = [r + ell * x for r, x in zip(residue, coeffs)]
        elif not any(x % ell for x in coeffs):
            coeffs[0] += 1
        prec = draw(st.integers(1, cfg.precision)) if kind == "reduced-prec" else None
        v = draw(st.sampled_from((-2, -1, 1, 2))) if kind == "valuation" else 0
        return cfg.unit(v, coeffs, prec)

    n = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(ENTRY_KINDS), min_size=n, max_size=n))
    q = draw(st.sampled_from([q for q in (2, 3, 4, 5) if q % ell]))
    return SatakeParam(n, q, tuple(entry(k) for k in kinds)), draw(st.integers(0, 4))


@settings(max_examples=40, deadline=None)
@given(satake_boxes())
def test_schur_table_is_the_per_weight_path_digit_for_digit(box):
    """Every weight of the box gets the same (v, coeffs, prec), or the same
    exact zero, from the shared table of the sweep and from schur_value as
    from the per-weight path, wherever that path returns."""
    S, bound = box
    weights = brute_dominant(S.n, bound)
    for a in weights:
        assert matches_reference(lambda a: schur_value(S, a), S, a,
                                 outcome(reference_schur_value, S, a))
    kmax = 2 * bound + S.n - 1
    try:
        h = complete_homogeneous_table(S, kmax)
    except PrecisionLoss:
        with pytest.raises(PrecisionLoss):
            _schur_evaluator(S, kmax)
        return
    table = _schur_evaluator(S, kmax)
    for a in weights:
        assert matches_reference(table, S, a, outcome(reference_schur, S, h, a))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(CONFIGS)), st.integers(1, 4), st.integers(0, 4),
       st.randoms(use_true_random=False))
def test_congruent_pairs_pass_as_in_the_per_weight_sweep(key, n, bound, rng):
    cfg = CONFIGS[key]
    s1, s2 = perturbed_pair(cfg, rng, n, rng.choice([q for q in (2, 3, 4, 5) if q % cfg.ell]))
    rep = check_congruence(s1, s2, bound)
    assert rep.ok
    assert rep.to_dict() == reference_sweep(s1, s2, bound)


SCHUR_DIGITS_SHA256 = "937eeada240a70fe796508d2e74d824e0b2fec2be995e15d0d7b1bdbc1fc6e64"


def test_schur_values_keep_their_digits():
    """Every value of the shared Schur table, on a seeded grid shaped like
    perfbench's congruence_box (l = 3, 5, 7, 11, ranks 1-4, precision 16,
    bound 4, plus Q_9), and on the same grid with one entry of reduced
    precision and one of positive valuation, hashes to the recorded digest:
    a faster kernel must return every (v, coeffs, prec), and every error,
    as before."""
    rng = random.Random(2027)
    digest = hashlib.sha256()
    for ell, d in ((3, 1), (5, 1), (7, 1), (11, 1), (3, 2)):
        cfg = FieldConfig(ell, d=d, precision=16)
        for n in range(1, 5):
            for variant in ("units", "mixed"):
                mu = [cfg.unit(0, [rng.randrange(1, ell) + ell * rng.randrange(ell ** 15)]
                               + [rng.randrange(ell ** 16) for _ in range(d - 1)])
                      for _ in range(n)]
                if variant == "mixed":
                    mu[0] = cfg.unit(0, mu[0].coeffs, rng.randrange(3, 16))
                    mu[-1] = cfg.unit(rng.randrange(1, 3), mu[-1].coeffs)
                try:
                    table = _schur_evaluator(SatakeParam(n, 2, tuple(mu)), 2 * 4 + n - 1)
                    records = []
                    for a in dominant_weights(n, 4):
                        try:
                            x = table(a)
                            records.append((x.v, x.coeffs, x.prec))
                        except ElladicError as exc:
                            records.append(type(exc).__name__)
                except ElladicError as exc:
                    records = type(exc).__name__
                digest.update(repr((ell, d, n, variant, records)).encode())
    assert digest.hexdigest() == SCHUR_DIGITS_SHA256


def test_check_congruence_self():
    s = S(CFG5, 3, 1, 2)
    rep = check_congruence(s, s, 4)
    assert rep.ok and rep.checked == 45


def test_check_congruence_perturbed():
    s1 = S(CFG5, 3, 1, 2)
    s2 = S(CFG5, 3, 6, 27)
    rep = check_congruence(s1, s2, 4)
    assert rep.ok


def test_check_congruence_preconditions():
    s1 = S(CFG5, 3, 1, 2)
    with pytest.raises(NotCongruent):
        check_congruence(s1, S(CFG5, 3, 1, 3), 2)
    with pytest.raises(ConfigMismatch):
        check_congruence(s1, S(CFG5, 9, 1, 2), 2)
    bad = SatakeParam(2, 3, (CFG5.ell_power(-1), CFG5.one()))
    with pytest.raises(NotIntegral):
        check_congruence(bad, bad, 2)
    with pytest.raises(ValueError):
        check_congruence(s1, s1, -1)


def test_a_box_beyond_the_enumeration_cap_is_refused_before_any_table(monkeypatch):
    """C(2 bound + n, n) dominant weights above DEFAULT_ENUMERATION_CAP
    raise TooLarge before the h table is built; a box within the cap gets
    as far as the table."""
    def forming(S, kmax):
        raise RuntimeError("the h table was built")

    monkeypatch.setattr(whittaker, "complete_homogeneous_table", forming)
    s4 = S(CFG5, 3, 1, 2, 3, 4)
    with pytest.raises(TooLarge, match="dominant weights exceed the cap"):
        check_congruence(s4, s4, 10 ** 5)
    s1 = S(CFG5, 3, 1)
    bound = (DEFAULT_ENUMERATION_CAP - 1) // 2      # 2 bound + 1 <= cap
    with pytest.raises(TooLarge):
        check_congruence(s1, s1, bound + 1)
    with pytest.raises(RuntimeError, match="h table"):
        check_congruence(s1, s1, bound)


@pytest.mark.parametrize("a", [(1.9, 0), (2.5, True), (1, False), (1.0, 0)])
def test_a_weight_entry_that_is_no_int_is_refused(a):
    """A float or a bool is refused, not truncated to an int."""
    s = S(CFG5, 3, 1, 2)
    with pytest.raises(ValueError, match="must be integers"):
        whittaker_value(s, a)
    with pytest.raises(ValueError, match="must be integers"):
        schur_value(s, a)


def test_check_congruence_flags_nonunit_boundary():
    # integral parameters whose product is not a unit: the value family
    # leaves the integers at weights with negative last entry, and the
    # checker reports it rather than hiding it
    s = S(CFG5, 3, 5, 5)
    rep = check_congruence(s, s, 1)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert kinds == {"non-integral"}
    assert all(v.weight[-1] < 0 for v in rep.violations)


def test_residue_mismatch_detail_text():
    # e_2 is not a unit, so s_(1,-1) = h_2 / e_2 is integral on both sides
    # with different residues; the detail text is part of the JSON output
    cfg = FieldConfig(7, precision=8)
    rep = check_congruence(S(cfg, 2, 7, 7), S(cfg, 2, 7, 14), 1)
    assert rep.violations[-1] == Violation(
        (1, -1), "residue-mismatch", "Residue(3 mod 7) vs Residue(0 mod 7) at m=-2")
    cfg2 = FieldConfig(7, d=2, precision=8)
    u = cfg2.unit(0, (1, 1))
    s1 = SatakeParam(2, 2, (cfg2.integer(7), cfg2.integer(7) * u))
    s2 = SatakeParam(2, 2, (cfg2.integer(7), cfg2.integer(14) * u))
    assert check_congruence(s1, s2, 1).violations[-1] == Violation(
        (1, -1), "residue-mismatch",
        "Residue(6, 4) mod (7, M) vs Residue(5, 0) mod (7, M) at m=-2")


def test_coinciding_entries_keep_the_sweep_certified():
    # four equal entries: expanding s_(6,6,2,0), two terms are equal in
    # value but recorded at different precisions, so their partial sum
    # cancels exactly and the per-weight path raises; the determinant is
    # 3^3 times a unit, and the shared table certifies it
    cfg = FieldConfig(3, precision=16)
    s1, s2 = S(cfg, 5, 17, 17, 17, 17), S(cfg, 5, 272, 119, 731, 731)
    a = (2, 2, -2, -4)
    with pytest.raises(PrecisionLoss):
        reference_schur_value(s1, a)
    got = schur_value(s1, a)
    assert got.v == 3 and certifies(got, exact_schur(s1, a), 3)
    assert check_congruence(s1, s2, 4).ok


def test_check_congruence_random_pairs(rng):
    for _ in range(10):
        n = rng.randrange(1, 4)
        s1, s2 = perturbed_pair(CFG5, rng, n, 3)
        rep = check_congruence(s1, s2, 3)
        assert rep.ok, rep.violations


def test_report_serialization():
    s = S(CFG5, 3, 1, 2)
    d = check_congruence(s, s, 1).to_dict()
    assert d["checked"] == 6 and d["violations"] == []


@st.composite
def integral_pairs(draw, d):
    """A congruent pair over Q_{l^d}, l in 3, 5, 7, 11, of rank 1..4, and a
    bound 0..3.  Each entry of the first is a unit, a unit with the
    residue all such entries share, or an element of valuation 1; the
    second is the first times 1 + l * unit, in another order."""
    cfg = CONFIGS[draw(st.sampled_from((3, 5, 7, 11))), d]
    ell = cfg.ell
    digits = st.lists(st.integers(0, ell ** cfg.precision - 1), min_size=d, max_size=d)
    residue = draw(st.lists(st.integers(0, ell - 1), min_size=d, max_size=d).filter(any))

    def entry():
        coeffs, kind = draw(digits), draw(st.sampled_from(("unit", "shared", "valuation")))
        if kind == "shared":
            coeffs = [r + ell * x for r, x in zip(residue, coeffs)]
        elif not any(x % ell for x in coeffs):
            coeffs[0] += 1
        return cfg.unit(int(kind == "valuation"), coeffs)

    n = draw(st.integers(1, 4))
    mu = [entry() for _ in range(n)]
    lift = [m * (cfg.one() + cfg.integer(ell) * entry()) for m in mu]
    q = draw(st.sampled_from([q for q in (2, 3, 4, 5) if q % ell]))
    order = draw(st.permutations(range(n)))
    return (SatakeParam(n, q, tuple(mu)), SatakeParam(n, q, tuple(lift[i] for i in order)),
            draw(st.integers(0, 3)))


def residue_code(x) -> int:
    return from_digits(x.reduce(), x.config.ell)


@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_schur_values_reduce_to_the_dual_jacobi_trudi_residue(d, data):
    """Wherever s_a is integral for every entry set with the residues
    drawn, schur_value's residue is the one the dual Jacobi-Trudi oracle
    reads from the entries' residues."""
    S, _, bound = data.draw(integral_pairs(d))
    for a in dominant_weights(S.n, bound):
        want = residue_by_dual_jacobi_trudi(S, a)
        if want is None:
            continue
        try:
            got = schur_value(S, a)
        except PrecisionLoss:
            continue
        assert residue_code(got) == want


@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_check_congruence_values_reduce_to_the_dual_jacobi_trudi_residue(d, data):
    """Every value of check_congruence's sweep where the oracle has a
    residue reduces to it, on both sides; the report flags only weights
    where it has none."""
    s1, s2, bound = data.draw(integral_pairs(d))
    try:
        rep = check_congruence(s1, s2, bound)
    except PrecisionLoss:
        return
    kmax = 2 * bound + s1.n - 1
    sweeps = [_schur_evaluator(S, kmax) for S in (s1, s2)]
    flagged = {v.weight for v in rep.violations}
    for a in dominant_weights(s1.n, bound):
        want = [residue_by_dual_jacobi_trudi(S, a) for S in (s1, s2)]
        assert want[0] == want[1]
        if want[0] is None:
            continue
        assert a not in flagged
        assert [residue_code(sweep(a)) for sweep in sweeps] == want
