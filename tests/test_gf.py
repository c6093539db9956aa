"""The integer fast paths of GF against the generic ExtField over Z/p."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elladic.gf import GF, ExtField, PrimeField, smallest_irreducible

FIELDS = [(p, d) for p in (2, 3, 5, 7) for d in (1, 2, 3)]


def field_pair(p, d):
    F = GF(p, d)
    return F, ExtField(PrimeField(p), F.modulus)


@st.composite
def elements(draw):
    p, d = draw(st.sampled_from(FIELDS))
    F, R = field_pair(p, d)
    x, y = (draw(st.integers(0, F.order - 1)) for _ in range(2))
    return F, R, F.from_int(x), F.from_int(y)


@settings(max_examples=300, deadline=None)
@given(elements(), st.integers(-10, 10))
def test_gf_agrees_with_generic_extension(case, e):
    F, R, x, y = case
    assert F.add(x, y) == R.add(x, y)
    assert F.sub(x, y) == R.sub(x, y)
    assert F.neg(x) == R.neg(x)
    assert F.mul(x, y) == R.mul(x, y)
    assert F.is_zero(x) == R.is_zero(x)
    if R.is_zero(x):
        with pytest.raises(ZeroDivisionError):
            F.inv(x)
        e = abs(e)
    else:
        assert F.inv(x) == R.inv(x)
    assert F.pow(x, e) == R.pow(x, e)


@pytest.mark.parametrize("p,d", FIELDS)
def test_int_codes_round_trip(p, d):
    F, R = field_pair(p, d)
    for n in range(F.order):
        assert F.from_int(n) == R.from_int(n)
        assert F.to_int(F.from_int(n)) == n
    assert list(F.elements()) == list(R.elements())
    assert (F.char(), F.deg_over_prime()) == (p, d)
    assert F == R and hash(F) == hash(R)


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
