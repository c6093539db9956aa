"""The value caches change no output: a process whose caches were just
cleared and the same process with warm caches print the golden bytes."""

import json

from elladic.cli import main

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
