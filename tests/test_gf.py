"""The int-coded fields of elladic.gf against the tuple oracle.

Each field is compared with the TupleField of the same base and modulus
(tests/oracles.py), which multiplies coefficient tuples as polynomials.
A degree-1 field GF(p) is compared with the oracle of modulus s over it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elladic.function_field import GroundField, enumerate_places
from elladic.gf import GF, gf_field, smallest_irreducible

from oracles import TupleField

FIELDS = [(p, d) for p in (2, 3, 5, 7) for d in (1, 2, 3)]
# kappa(v) of degree 2 and 3 over F_4 and F_9: the first place of each degree
RESIDUE_FIELDS = [(p, deg) for p in (2, 3) for deg in (2, 3)]


def oracle(F):
    """The TupleField with the base and modulus of F."""
    if isinstance(F, GF):
        return TupleField(F, (0, 1))
    base = F.base if isinstance(F.base, GF) else oracle(F.base)
    return TupleField(base, tuple(base.from_int(c) for c in F.modulus))


def residue_field(p, deg):
    ground = GroundField(p, 2)
    return next(pl for pl in enumerate_places(ground, deg) if pl.degree == deg).residue()


def check_every_pair(F):
    """Every element and every pair, in code order, against the oracle."""
    O, n = oracle(F), F.order
    E = [O.from_int(x) for x in range(n)]
    code = {e: x for x, e in enumerate(E)}
    for x, ex in enumerate(E):
        assert [F.add(x, y) for y in range(n)] == [code[O.add(ex, ey)] for ey in E]
        assert [F.sub(x, y) for y in range(n)] == [code[O.sub(ex, ey)] for ey in E]
    assert [F.neg(x) for x in range(n)] == [code[O.neg(e)] for e in E]
    # the oracle's powers g^k of its smallest generator g list every nonzero
    # element once; so g^i * g^j, 1 / g^i and (g^i)^e are the oracle's own
    # powers g^(i + j), g^(-i) and g^(ie), and the trace of g^i is the
    # oracle's sum of the Frobenius images g^(i p^k)
    g = O.generator()
    assert F.generator() == g
    powers = [1]
    for _ in range(n - 1):
        powers.append(code[O.mul(E[powers[-1]], E[g])])
    m = powers.pop()
    assert m == 1 and sorted(powers) == list(range(1, n))
    p, D = O.char(), O.deg_over_prime()
    for i, x in enumerate(powers):
        assert [F.mul(x, y) for y in powers] == powers[i:] + powers[:i]
        assert F.mul(x, 0) == F.mul(0, x) == 0
        assert F.inv(x) == powers[-i]
        for e in (-(n - 1), -2, -1, 0, 1, 2, n):
            assert F.pow(x, e) == powers[i * e % (n - 1)]
        frobenius = [E[powers[i * p ** k % (n - 1)]] for k in range(D)]
        total = O.zero
        for y in frobenius:
            total = O.add(total, y)
        assert code[total] < p and F.trace(x) == code[total]
    assert F.trace(0) == 0
    assert (F.pow(0, 0), F.pow(0, 3)) == (1, 0)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p,d", FIELDS)
def test_gf_field_agrees_with_the_oracle_on_every_pair(p, d):
    check_every_pair(gf_field(p, d))


@pytest.mark.parametrize("p,deg", RESIDUE_FIELDS)
def test_residue_field_agrees_with_the_oracle_on_every_pair(p, deg):
    K = residue_field(p, deg)
    assert K.order == p ** (2 * deg)
    check_every_pair(K)


@pytest.mark.parametrize("p,d", FIELDS)
def test_int_codes_round_trip(p, d):
    F = gf_field(p, d)
    O = oracle(F)
    for n in range(F.order):
        assert F.to_int(F.from_int(n)) == n == O.to_int(O.from_int(n))
    assert list(F.elements()) == list(range(F.order))
    assert (F.char(), F.deg_over_prime()) == (O.char(), O.deg_over_prime()) == (p, d)
    assert F == gf_field(p, d, smallest_irreducible(p, d)) and hash(F) == hash(gf_field(p, d))


@st.composite
def elements(draw):
    p, d = draw(st.sampled_from(FIELDS))
    F = gf_field(p, d)
    x, y = (draw(st.integers(0, F.order - 1)) for _ in range(2))
    return F, oracle(F), x, y


@settings(max_examples=300, deadline=None)
@given(elements(), st.integers(-10, 10))
def test_gf_agrees_with_generic_extension(case, e):
    F, O, x, y = case
    ox, oy = O.from_int(x), O.from_int(y)
    assert F.add(x, y) == O.to_int(O.add(ox, oy))
    assert F.sub(x, y) == O.to_int(O.sub(ox, oy))
    assert F.neg(x) == O.to_int(O.neg(ox))
    assert F.mul(x, y) == O.to_int(O.mul(ox, oy))
    if not x:
        with pytest.raises(ZeroDivisionError):
            F.inv(x)
        e = abs(e)
    else:
        assert F.inv(x) == O.to_int(O.inv(ox))
    assert F.pow(x, e) == O.to_int(O.pow(ox, e))


# every default modulus, and with it every JSON element code, depends on
# these values, so they are pinned rather than recomputed
SMALLEST_IRREDUCIBLE = {
    2: {1: (0, 1), 2: (1, 1, 1), 3: (1, 1, 0, 1), 4: (1, 1, 0, 0, 1)},
    3: {1: (0, 1), 2: (1, 0, 1), 3: (1, 2, 0, 1), 4: (2, 1, 0, 0, 1)},
    5: {1: (0, 1), 2: (2, 0, 1), 3: (1, 1, 0, 1), 4: (2, 0, 0, 0, 1)},
    7: {1: (0, 1), 2: (1, 0, 1), 3: (2, 0, 0, 1), 4: (1, 1, 0, 0, 1)},
}


@pytest.mark.parametrize("p", sorted(SMALLEST_IRREDUCIBLE))
def test_smallest_irreducible_is_pinned(p):
    for d, f in SMALLEST_IRREDUCIBLE[p].items():
        assert smallest_irreducible(p, d) == f
