import itertools
import math

import pytest

from elladic.errors import ConfigMismatch, NoMatching, NotIntegral
from elladic.padic import FieldConfig
from elladic.satake import (SatakeParam, char_poly, complete_homogeneous_table,
                            congruent, elementary_symmetric_all, is_integral,
                            match_residues, reduce_char_poly)
from conftest import random_unit

CFG5 = FieldConfig(5, precision=8)
CFG7 = FieldConfig(7, precision=8)


def S(cfg, q, *mu_ints):
    return SatakeParam(len(mu_ints), q, tuple(cfg.integer(m) for m in mu_ints))


def test_char_polys_of_different_ranks_are_not_congruent():
    assert congruent(char_poly(S(CFG5, 3, 1)), char_poly(S(CFG5, 3, 1, 1))) is False


def test_elementary_symmetric_examples():
    s = S(CFG7, 3, 3, 2)
    assert elementary_symmetric_all(s)[1] == CFG7.integer(5)
    assert elementary_symmetric_all(s)[2] == CFG7.integer(6)
    ones = S(CFG7, 3, 1, 1, 1)
    assert elementary_symmetric_all(ones)[2] == CFG7.integer(3)
    assert elementary_symmetric_all(ones)[3] == CFG7.one()


def test_char_poly_examples():
    P = char_poly(S(CFG7, 3, 3, 2))
    assert P.coeffs[0] == CFG7.integer(-5)
    assert P.coeffs[1] == CFG7.integer(6)
    Q = char_poly(S(CFG7, 3, 1, 1))
    assert Q.coeffs[0] == CFG7.integer(-2) and Q.coeffs[1] == CFG7.one()


def test_char_poly_with_poles():
    ell, ell_inv = CFG5.ell_power(1), CFG5.ell_power(-1)
    P = char_poly(SatakeParam(2, 3, (ell, ell_inv)))
    assert P.coeffs[0].v == -1
    assert P.coeffs[1] == CFG5.one()
    assert not is_integral(P)


def test_is_integral_examples():
    assert is_integral(char_poly(S(CFG7, 3, 3, 2)))
    assert is_integral(char_poly(S(CFG7, 3, 7, 14)))  # non-unit but integral


def test_reduce_char_poly():
    red = reduce_char_poly(char_poly(S(CFG5, 3, 3, 2)))
    assert [r[0] for r in red] == [0, 1]
    cfg3 = FieldConfig(3, precision=6)
    red3 = reduce_char_poly(char_poly(S(cfg3, 5, 1, 1)))
    assert [r[0] for r in red3] == [1, 1]
    with pytest.raises(NotIntegral):
        reduce_char_poly(char_poly(SatakeParam(2, 3, (CFG5.ell_power(-1), CFG5.one()))))


def test_congruent_examples():
    A = char_poly(S(CFG5, 3, 1, 1))
    B = char_poly(S(CFG5, 3, 1, 6))
    C = char_poly(S(CFG5, 3, 1, 2))
    assert congruent(A, B)
    assert congruent(A, A)
    assert not congruent(A, C)
    with pytest.raises(ConfigMismatch):
        congruent(A, char_poly(S(CFG7, 3, 1, 1)))


def test_match_residues():
    s1 = S(CFG5, 3, 1, 2)
    s2 = S(CFG5, 3, 7, 26)  # residues (2, 1)
    assert match_residues(s1, s2) == (1, 0)
    assert match_residues(s1, s1) == (0, 1)
    with pytest.raises(NoMatching):
        match_residues(S(CFG5, 3, 1, 1), S(CFG5, 3, 1, 2))
    with pytest.raises(NotIntegral):
        match_residues(SatakeParam(2, 3, (CFG5.ell_power(-1), CFG5.one())), s1)


def test_match_respects_residues(rng):
    for _ in range(30):
        n = rng.randrange(1, 5)
        s1 = SatakeParam(n, 2, tuple(random_unit(CFG7, rng) for _ in range(n)))
        perm = list(range(n))
        rng.shuffle(perm)
        ell = CFG7.integer(7)
        mu2 = tuple(s1.mu[perm[i]] * (CFG7.one() + ell * random_unit(CFG7, rng))
                    for i in range(n))
        sigma = match_residues(s1, SatakeParam(n, 2, mu2))
        for i in range(n):
            assert s1.mu[i].reduce() == mu2[sigma[i]].reduce()


def _h_oracle(S_param, k):
    """Monomial-sum definition of the complete homogeneous value."""
    cfg = S_param.config
    total = cfg.zero()
    for combo in itertools.combinations_with_replacement(range(S_param.n), k):
        term = cfg.one()
        for i in combo:
            term = term * S_param.mu[i]
        total = total + term
    return total


def test_complete_homogeneous_examples():
    ones = S(CFG5, 3, 1, 1)
    assert complete_homogeneous_table(ones, 0)[0] == CFG5.one()
    assert complete_homogeneous_table(ones, 2)[2] == CFG5.integer(3)
    s = S(CFG5, 3, 3, 2)
    assert complete_homogeneous_table(s, 1)[1] == elementary_symmetric_all(s)[1]


def test_complete_homogeneous_certifies_a_cancelling_partial_sum():
    # entries 2, 3, 21, 24 at four digits: a partial sum of the recurrence
    # cancels all its digits, yet every h_k agrees with the exact sum of
    # monomials to the precision it claims, valuation included
    cfg = FieldConfig(5, precision=4)
    xs = (2, 3, 21, 24)
    h = complete_homogeneous_table(SatakeParam(4, 2, tuple(cfg.integer(x) for x in xs)), 5)
    for k, x in enumerate(h):
        exact = sum(math.prod(c) for c in itertools.combinations_with_replacement(xs, k))
        assert exact % 5 ** x.v == 0 and exact // 5 ** x.v % 5 != 0
        assert (exact - 5 ** x.v * x.coeffs[0]) % 5 ** (x.v + x.prec) == 0


def test_complete_homogeneous_against_monomial_oracle(rng):
    for _ in range(15):
        n = rng.randrange(1, 4)
        s = SatakeParam(n, 2, tuple(random_unit(CFG7, rng) for _ in range(n)))
        for k in range(7):
            got = complete_homogeneous_table(s, k)[k]
            want = _h_oracle(s, k)
            assert (got - want).is_zero


def test_integrality_equivalence(rng):
    for _ in range(100):
        n = rng.randrange(1, 5)
        mu = tuple(CFG5.unit(rng.randrange(-2, 3), (rng.randrange(1, 5),))
                   for _ in range(n))
        s = SatakeParam(n, 3, mu)
        assert is_integral(char_poly(s)) == (min(m.v for m in mu) >= 0)


def test_congruent_iff_residue_matching(rng):
    for _ in range(40):
        n = rng.randrange(1, 4)
        s1 = SatakeParam(n, 2, tuple(random_unit(CFG5, rng) for _ in range(n)))
        s2 = SatakeParam(n, 2, tuple(random_unit(CFG5, rng) for _ in range(n)))
        cong = congruent(char_poly(s1), char_poly(s2))
        try:
            match_residues(s1, s2)
            matched = True
        except NoMatching:
            matched = False
        assert cong == matched


def test_reduction_equals_product_of_residue_roots(rng):
    F = CFG5.residue_field()
    for _ in range(40):
        n = rng.randrange(1, 5)
        s = SatakeParam(n, 2, tuple(random_unit(CFG5, rng) for _ in range(n)))
        # expand prod (X - reduce(mu_i)) over the residue field
        poly = [F.one]
        for m in s.mu:
            (root,) = m.reduce()
            nxt = [F.zero] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i + 1] = F.add(nxt[i + 1], c)
                nxt[i] = F.sub(nxt[i], F.mul(c, root))
            poly = nxt
        # poly is ascending: constant ... leading 1; spec coefficients are
        # c_1..c_n with c_r attached to X^{n-r}
        red = reduce_char_poly(char_poly(s))
        for r in range(1, n + 1):
            assert red[r - 1] == (poly[n - r],)


def test_char_poly_vanishes_at_roots(rng):
    for _ in range(30):
        n = rng.randrange(1, 5)
        s = SatakeParam(n, 3, tuple(random_unit(CFG7, rng) for _ in range(n)))
        P = char_poly(s)
        for m in s.mu:
            val = P(m)
            assert val.is_zero or val.valuation() >= CFG7.precision


def test_q_must_be_coprime_prime_power():
    with pytest.raises(ValueError):
        S(CFG5, 6, 1, 1)
    with pytest.raises(ValueError):
        S(CFG5, 10, 1, 1)
    with pytest.raises(ValueError):
        S(CFG5, 1, 1)
    S(CFG5, 9, 1, 1)
    S(CFG5, 8, 1, 1)
