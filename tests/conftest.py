"""Shared builders for the test suite; everything is seeded."""

import importlib
import pkgutil
import random

import pytest

import elladic
from elladic.padic import FieldConfig, difference_valuation
from elladic.satake import SatakeParam


def same_value(x, y) -> bool:
    """Equality through every certified digit.

    An exact finite valuation of x - y certifies a genuine difference;
    an exact zero certifies equality; a bound means the two agree on all
    digits either side can vouch for, which is as equal as capped
    arithmetic can state.
    """
    v, exact = difference_valuation(x, y)
    return v == float("inf") or not exact


def elladic_caches() -> list:
    """Every functools cache defined in an elladic module."""
    caches = []
    for info in pkgutil.iter_modules(elladic.__path__):
        module = importlib.import_module(f"elladic.{info.name}")
        caches += [obj for obj in vars(module).values()
                   if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__]
    return caches


def clear_elladic_caches():
    for cache in elladic_caches():
        cache.cache_clear()


def unit_int(rng: random.Random, ell: int, depth: int = 4) -> int:
    """A positive integer that is a unit mod ell."""
    return rng.randrange(1, ell) + ell * rng.randrange(ell ** depth)


def random_unit(cfg: FieldConfig, rng: random.Random, valuation: int = 0):
    coeffs = [rng.randrange(cfg.ell ** 4) for _ in range(cfg.d)]
    coeffs[rng.randrange(cfg.d)] += 1 if all(c % cfg.ell == 0 for c in coeffs) else 0
    if all(c % cfg.ell == 0 for c in coeffs):
        coeffs[0] += 1
    return cfg.unit(valuation, coeffs)


def random_unit_satake(cfg: FieldConfig, rng: random.Random, n: int, q: int) -> SatakeParam:
    """Integral parameters with unit entries (the regime where the
    congruence theorem applies at every dominant weight)."""
    return SatakeParam(n, q, tuple(random_unit(cfg, rng) for _ in range(n)))


def perturbed_pair(cfg: FieldConfig, rng: random.Random, n: int, q: int):
    """A congruent pair: each entry scaled by 1 + ell * unit, then permuted."""
    base = random_unit_satake(cfg, rng, n, q)
    ell = cfg.integer(cfg.ell)
    scaled = [m * (cfg.one() + ell * random_unit(cfg, rng)) for m in base.mu]
    rng.shuffle(scaled)
    return base, SatakeParam(n, q, tuple(scaled))


@pytest.fixture
def rng():
    return random.Random(20260808)
