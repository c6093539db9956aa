"""The value caches change no output: a process whose caches were just
cleared and the same process with warm caches print the golden bytes,
and give the same Fourier coefficients and expansions in either order."""

import json
import random
from functools import partial

from elladic import pipeline, whittaker
from elladic.cli import main
from elladic.function_field import (Divisor, GroundField, LocalElement, PsiTarget,
                                    coset_reps, enumerate_places, rr_space, span_nonzero)
from elladic.jsonio import encode_local_number
from elladic.padic import FieldConfig, sqrt_unit
from elladic.pipeline import (GlobalWhittakerSpec, MirabolicPoint, fourier_coefficient,
                              gamma_support, invariance_divisor, mirabolic_expand)

from conftest import clear_elladic_caches, elladic_caches
from test_acceptance import CRITERION10_GOLDEN, criterion10_report_json
from test_cli import GOLDEN, VALID_NAMES, VALID_REQUESTS


def golden_run(capsys, requests) -> dict:
    """The criterion-10 report and the stdout of each CLI request, by name."""
    out = {"criterion10": criterion10_report_json()}
    for name, (prefix, data) in requests:
        main([*prefix, "--input", json.dumps(data)])
        out[name] = capsys.readouterr().out
    return out


def test_cold_and_warm_caches_give_the_golden_bytes(capsys):
    requests = list(zip(VALID_NAMES, VALID_REQUESTS))
    golden = {"criterion10": CRITERION10_GOLDEN.read_text()}
    golden.update((name, (GOLDEN / f"cli-{name}.json").read_text()) for name in VALID_NAMES)
    clear_elladic_caches()
    cold = golden_run(capsys, requests)
    assert sum(cache.cache_info().currsize for cache in elladic_caches()) > 0
    warm = golden_run(capsys, requests[::-1])
    assert cold == golden
    assert warm == golden


def criterion9_calls() -> list:
    """The Fourier coefficients of criterion 9 over F_2 and F_3 (every
    support gamma and five outside gammas per point, drawn as criterion
    9 draws them) and mirabolic_expand at every point they shift to, as
    calls without arguments."""
    rng, calls = random.Random(109), []
    for ground, cfg in ((GroundField(2), FieldConfig(7, precision=12)),
                        (GroundField(3), FieldConfig(7, d=2, precision=10))):
        target, sqrt_q = PsiTarget.create(ground, cfg), sqrt_unit(cfg, ground.q)
        spec = GlobalWhittakerSpec(ground, cfg, (), tuple(
            (d, (cfg.one(), cfg.one())) for d in range(1, 13)))
        phi = partial(mirabolic_expand, spec, sqrt_q=sqrt_q, target=target)
        pl = list(enumerate_places(ground, 1))[1]
        x = LocalElement.from_coeffs(pl, -1, (pl.residue().one,))
        extra = Divisor.make(ground, [(pl, 1), (ground.infinity(), 1)])
        for pt in (MirabolicPoint(ground), MirabolicPoint(ground, ((pl, x, 1, 0),))):
            support = gamma_support(spec, pt)
            U = invariance_divisor(spec, pt, extra=extra)
            outside = [g for g in span_nonzero(ground, rr_space(extra)) if g not in set(support)]
            rng.shuffle(outside)
            calls += [partial(fourier_coefficient, phi, g, pt, U, target, cfg)
                      for g in support + tuple(outside[:5])]
            calls += [partial(phi, pt.shifted_by(u)) for u in coset_reps(U)]
    return calls


def test_cold_and_warm_caches_give_the_same_fourier_coefficients():
    """The gamma-term tables, gamma supports and root checks are found
    among the caches, and the criterion-9 coefficients and expansions
    encode alike from cleared caches and warm, in reverse order."""
    caches = elladic_caches()
    for cache in (pipeline._terms, pipeline._support, whittaker.check_sqrt_q):
        assert cache in caches
    calls = criterion9_calls()
    clear_elladic_caches()
    cold = [json.dumps(encode_local_number(call())) for call in calls]
    assert pipeline._terms.cache_info().currsize > 0
    warm = [json.dumps(encode_local_number(call())) for call in calls[::-1]][::-1]
    assert cold == warm
