import contextlib
import copy
import io
import itertools
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elladic import cli, jsonio
from elladic.cli import main
from elladic.errors import InputError
from elladic.function_field import GroundField, LocalElement
from elladic.padic import FieldConfig, sqrt_unit
from elladic.pipeline import LocalCharacter

PIPE_INPUT = {
    "ground": {"p": 2, "f": 1},
    "field": {"ell": 7, "d": 1, "precision": 12},
    "spec1": {
        "places": [
            {"place": {"finite": [0, 1]},
             "datum": {"unramified": {"q": 2, "mu": [3, 5]}}},
            {"place": {"finite": [1, 1]},
             "datum": {"table": [
                 {"j": 0, "level": 1, "rep": [1], "value": 1},
                 {"j": 1, "level": 0, "rep": [1], "value": 3}],
                 "central": {"uniformizer_value": 3}}},
        ],
        "w": {"finite": [1, 1]},
        "default_rule": {str(d): [1, 1] for d in range(1, 9)},
    },
    "spec2": {
        "places": [
            {"place": {"finite": [0, 1]},
             "datum": {"unramified": {"q": 2, "mu": [
                 {"valuation": 0, "unit_digits": [[5], [1]]},
                 {"valuation": 0, "unit_digits": [[3], [3]]}]}}},
            {"place": {"finite": [1, 1]},
             "datum": {"table": [
                 {"j": 0, "level": 1, "rep": [1], "value": 1},
                 {"j": 1, "level": 0, "rep": [1], "value": 3}],
                 "central": {"uniformizer_value": 3}}},
        ],
        "w": {"finite": [1, 1]},
        "default_rule": {str(d): [1, 8] for d in range(1, 9)},
    },
    "samples": {"seed": 5, "count": 4},
}

SATAKE_PAIR = {"field": {"ell": 5, "precision": 8},
               "params": [{"q": 3, "mu": [1, 1]}, {"q": 3, "mu": [1, 6]}]}
SATAKE_INTEGRAL = {"field": {"ell": 5}, "params": [{"q": 3, "mu": [[1, 5], 1]}],
                   "require_integral": True}
WHITTAKER = {"field": {"ell": 7}, "param": {"q": 3, "mu": [1, 1]},
             "weights": [[0, 0], [0, 1], [2, 0]]}
CONGRUENCE = {"field": {"ell": 5},
              "params": [{"q": 3, "mu": [1, 2]}, {"q": 3, "mu": [6, 27]}]}
# e_2 = 49 and 98 are not units: two non-integral weights and, at (1, -1),
# residues 3 and 0 mod 7
CONGRUENCE_VIOLATION = {"field": {"ell": 7},
                        "params": [{"q": 2, "mu": [7, 7]}, {"q": 2, "mu": [7, 14]}]}
# residues in F_9: each reduction is a list of length-2 coefficient vectors
SATAKE_PAIR_D2 = {"field": {"ell": 3, "d": 2, "precision": 4},
                  "params": [{"q": 2, "mu": [{"valuation": 0, "unit_digits": [[1, 2], [0, 1]]}, 2]},
                             {"q": 2, "mu": [{"valuation": 0, "unit_digits": [[1, 2], [2, 2]]},
                                             {"valuation": 0, "unit_digits": [[2, 0], [1, 0]]}]}]}
DIVISOR = {"divisor": [[{"finite": [0, 1]}, 2]]}
PSI = {"items": [{"gamma": {"num": [1, 1, 1], "den": [0, 1]}}]}
EXPAND = {"rational": {"num": [1], "den": [0, 1]}, "place": {"finite": [0, 1]},
          "precision": 4}
# explicit sample points and central characters, in the shape of the
# cli_requests benchmark generator: reaches central_char_propagate and
# weak_approx
PIPE_CENTRAL = {
    **PIPE_INPUT,
    "samples": [
        {"entries": [{"place": {"finite": [1, 1, 1]},
                      "x": {"place": {"finite": [1, 1, 1]}, "v": -1, "coeffs": [3]},
                      "a": [1, 0]}], "central": []},
        {"entries": [{"place": {"finite": [0, 1]},
                      "x": {"place": {"finite": [0, 1]}, "v": 1, "coeffs": [1]},
                      "a": [-1, 0]}], "central": []}],
    "central_chars": {
        "chi1": {"S": [{"finite": [1, 1]}], "by_degree": {str(d): 3 ** d for d in range(1, 9)},
                 "explicit": [{"place": {"finite": [1, 1]},
                               "character": {"uniformizer_value": 3}}]},
        "chi2": {"S": [{"finite": [1, 1]}], "by_degree": {str(d): 24 ** d for d in range(1, 9)},
                 "explicit": [{"place": {"finite": [1, 1]},
                               "character": {"uniformizer_value": 24}}]},
        "samples": [{"num": [1, 1], "den": [1, 0, 1]},
                    {"num": [0, 1, 1], "den": [1, 1, 0, 1]}, [1, 0, 0, 1]]},
}
# a degree-2 place over F_4, where kappa(v) = F_16 and the integer code order
# of an element differs from the order of its digit tuple; the four residues
# give psi values 1, 1, zeta and zeta, which pins the trace to F_2
F4_PLACE = {"finite": [2, 1, 1]}
PSI_F4 = {"items": [{"place": F4_PLACE, "x": {"place": F4_PLACE, "v": -1, "coeffs": [c]}}
                    for c in (1, 5, 9, 14)]}
EXPAND_F4 = {"rational": {"num": [1, 2, 3], "den": [3, 1, 1]}, "place": F4_PLACE,
             "precision": 6}

# every valid request above: the command line before --input, and the input
VALID_REQUESTS = [
    (("satake",), SATAKE_PAIR),
    (("satake",), SATAKE_INTEGRAL),
    (("whittaker",), WHITTAKER),
    (("congruence", "--bound", "3"), CONGRUENCE),
    (("congruence", "--bound", "1"), CONGRUENCE_VIOLATION),
    (("satake",), SATAKE_PAIR_D2),
    (("rr", "--p", "2"), DIVISOR),
    (("psi", "--p", "2", "--ell", "3"), PSI),
    (("index", "--p", "3"), DIVISOR),
    (("expand", "--p", "2"), EXPAND),
    (("pipeline",), PIPE_INPUT),
    (("selftest", "--seed", "3"), {}),
    (("pipeline",), PIPE_CENTRAL),
    (("psi", "--p", "2", "--f", "2", "--ell", "5"), PSI_F4),
    (("expand", "--p", "2", "--f", "2"), EXPAND_F4),
]
# tests/golden/cli-<name>.json holds the recorded stdout of each request
VALID_NAMES = ["satake-pair", "satake-integral", "whittaker", "congruence",
               "congruence-violation", "satake-pair-d2", "rr", "psi", "index", "expand",
               "pipeline", "selftest", "pipeline-central", "psi-f4", "expand-f4"]
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("prefix, data", VALID_REQUESTS, ids=VALID_NAMES)
def test_valid_request_output_is_golden(capsys, request, prefix, data):
    """Every valid request prints exactly its recorded bytes."""
    _, out = run(capsys, *prefix, "--input", json.dumps(data))
    name = request.node.callspec.id
    assert out == (GOLDEN / f"cli-{name}.json").read_text(), name


def test_main_parses_with_the_parser_built_at_import(capsys, monkeypatch):
    """main builds no parser per call: with build_parser refusing to run,
    every valid request, and one after a usage error, still prints its
    recorded bytes."""
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, "nonesuch")[0] == 2
    for (prefix, data), name in zip(VALID_REQUESTS, VALID_NAMES):
        _, out = run(capsys, *prefix, "--input", json.dumps(data))
        assert out == (GOLDEN / f"cli-{name}.json").read_text(), name


def test_satake_congruent_pair_exits_zero(capsys):
    code, out = run(capsys, "satake", "--input", json.dumps(SATAKE_PAIR))
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == "elladic/1"
    assert body["result"]["congruent"] is True


def test_satake_noncongruent_pair_exits_one(capsys):
    code, out = run(capsys, "satake", "--input",
                    json.dumps({"field": {"ell": 5},
                                "params": [{"q": 3, "mu": [1, 1]},
                                           {"q": 3, "mu": [1, 2]}]}))
    assert code == 1
    assert json.loads(out)["result"]["congruent"] is False


def test_satake_pair_with_a_non_integral_second_parameter_is_not_congruent(capsys):
    """Without require_integral, a pair whose second parameter is not
    integral has no reduction to compare: congruent is false and the
    request exits 1."""
    data = {"field": {"ell": 5}, "params": [{"q": 3, "mu": [1, 1]}, {"q": 3, "mu": [[1, 5], 1]}]}
    code, out = run(capsys, "satake", "--input", json.dumps(data))
    result = json.loads(out)["result"]
    assert code == 1
    assert [p["integral"] for p in result["params"]] == [True, False]
    assert result["congruent"] is False


def test_satake_require_integral(capsys):
    code, out = run(capsys, "satake", "--input", json.dumps(SATAKE_INTEGRAL))
    assert code == 1
    assert json.loads(out)["result"]["params"][0]["integral"] is False


def test_malformed_input_exits_two(capsys):
    code = main(["satake", "--input", '{"field": {"ell": 4}, "params": []}'])
    assert code == 2
    code = main(["satake", "--input", "{not json"])
    assert code == 2


def test_whittaker_values(capsys):
    code, out = run(capsys, "whittaker", "--input", json.dumps(WHITTAKER))
    assert code == 0
    vals = json.loads(out)["result"]["values"]
    assert vals[0]["value"]["q_half_exp"] == 0
    assert vals[1]["value"]["coef"] == {"zero": True}
    assert vals[2]["value"]["q_half_exp"] == -2


def test_whittaker_auto_sqrt_q_is_the_hensel_root(capsys):
    """"sqrt_q": "auto" collapses through sqrt_unit's root of q."""
    data = {"field": {"ell": 11}, "param": {"q": 3, "mu": [1, 2]},
            "weights": [[0, 0], [1, 0], [2, -1]]}
    root = jsonio.encode_local_number(sqrt_unit(FieldConfig(11), 3))
    code, auto = run(capsys, "whittaker", "--input", json.dumps({**data, "sqrt_q": "auto"}))
    assert code == 0
    assert auto == run(capsys, "whittaker", "--input", json.dumps({**data, "sqrt_q": root}))[1]
    values = json.loads(auto)["result"]["values"]
    assert values[0]["collapsed"] == jsonio.encode_local_number(FieldConfig(11).one())
    assert all("collapsed" in v for v in values)


def test_congruence_command(capsys):
    code, out = run(capsys, "congruence", "--bound", "3", "--input", json.dumps(CONGRUENCE))
    assert code == 0
    body = json.loads(out)
    assert body["result"]["checked"] == 28
    assert body["result"]["violations"] == []


@pytest.mark.parametrize("command", ["congruence", "whittaker"])
def test_a_congruence_box_beyond_the_cap_exits_three(capsys, command):
    """A bound of 10^5 at rank 4 is refused with a JSON record, before any
    weight is enumerated."""
    data = {"field": {"ell": 5}, "params": [{"q": 3, "mu": [1, 1, 1, 1]}] * 2}
    code, record = run_failing(capsys, command, "--bound", str(10 ** 5),
                               "--input", json.dumps(data))
    assert code == 3 and record["error"] == "TooLarge"
    assert record["message"].endswith("dominant weights exceed the cap 1000000")


def test_rr_command(capsys):
    code, out = run(capsys, "rr", "--p", "2", "--input", json.dumps(DIVISOR))
    assert code == 0
    assert json.loads(out)["result"]["dimension"] == 3


def test_psi_command(capsys):
    code, out = run(capsys, "psi", "--p", "2", "--ell", "3", "--input", json.dumps(PSI))
    assert code == 0
    assert json.loads(out)["result"]["all_one"] is True
    # psi of the zero function is 1
    code, out = run(capsys, "psi", "--p", "2", "--ell", "3", "--input",
                    json.dumps({"items": [{"gamma": []}, {"gamma": {"num": [0], "den": [1, 1]}}]}))
    assert code == 0
    values = json.loads(out)["result"]["values"]
    assert [v["gamma"] for v in values] == [{"num": [], "den": [1]}] * 2
    assert all(v["is_one"] for v in values)


def test_index_command(capsys):
    code, out = run(capsys, "index", "--p", "3", "--input", json.dumps(DIVISOR))
    assert code == 0
    body = json.loads(out)["result"]
    assert body["index"] == 3 and body["p_exponent"] == 1


def test_expand_command(capsys):
    code, out = run(capsys, "expand", "--p", "2", "--input", json.dumps(EXPAND))
    assert code == 0
    assert json.loads(out)["result"]["expansion"]["v"] == -1


def test_pipeline_command_pass(capsys, tmp_path):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(PIPE_INPUT))
    code, out = run(capsys, "pipeline", "--input", str(path))
    assert code == 0
    body = json.loads(out)
    assert body["ok"] is True
    assert body["result"]["sample_count"] == 4


def test_pipeline_command_mismatch_exits_two(capsys, tmp_path):
    tampered = json.loads(json.dumps(PIPE_INPUT))
    tampered["spec2"]["places"][1]["datum"]["central"]["uniformizer_value"] = 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tampered))
    assert main(["pipeline", "--input", str(path)]) == 2


def test_pipeline_enumeration_cap_exits_three(capsys, tmp_path):
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(PIPE_INPUT))
    assert main(["pipeline", "--input", str(path), "--cap", "1"]) == 3


def test_pipeline_trace_at_a_large_a2_exits_zero(capsys):
    """An exact x at t with a = [4, 4] beside a = [1, 0] at t + 1: the
    trace of gamma x u^-4 at t needs four more digits of gamma than one
    of gamma x, and the sample is evaluated with exit 0."""
    point = {"entries": [
        {"place": {"finite": [0, 1]},
         "x": {"place": {"finite": [0, 1]}, "v": -1, "coeffs": [1, 1]}, "a": [4, 4]},
        {"place": {"finite": [1, 1]}, "a": [1, 0]}], "central": []}
    code, out = run(capsys, "pipeline", "--input", json.dumps({**PIPE_INPUT, "samples": [point]}))
    assert code == 0
    assert json.loads(out)["result"]["sample_count"] == 1


def test_selftest(capsys):
    code, out = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    body = json.loads(out)
    assert body["result"]["passed"] == body["result"]["total"]
    assert body["seed"] == 3


def test_output_is_deterministic(capsys):
    argv = ["congruence", "--input",
            json.dumps({"field": {"ell": 5},
                        "params": [{"q": 3, "mu": [1, 2]}, {"q": 3, "mu": [6, 27]}],
                        "bound": 2})]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_text_format(capsys):
    code, out = run(capsys, "index", "--p", "3", "--format", "text", "--input",
                    json.dumps({"divisor": [[{"finite": [0, 1]}, 1]]}))
    assert code == 0
    assert out.strip().endswith("OK")
    code = main(["index", "--p", "3", "--format", "text", "--input", '{"divisor": 5}'])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error [InputError]: ")


def run_failing(capsys, *argv):
    """Exit code and the JSON error record written to stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)


def pipeline_file(tmp_path, spec2_mu):
    data = json.loads(json.dumps(PIPE_INPUT))
    data["spec2"]["places"][0]["datum"]["unramified"]["mu"] = spec2_mu
    path = tmp_path / "pipe.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_wrong_sqrt_q_exits_two(capsys):
    code, record = run_failing(capsys, "whittaker", "--input",
                               json.dumps({"field": {"ell": 7},
                                           "param": {"q": 3, "mu": [1, 1]},
                                           "weights": [[0, 0]], "sqrt_q": 2}))
    assert code == 2
    assert record["error"] == "BadSquareRoot"


def test_missing_input_file_exits_two(capsys, tmp_path):
    code, record = run_failing(capsys, "satake", "--input", str(tmp_path / "absent.json"))
    assert code == 2
    assert record["error"] == "FileNotFoundError"
    assert record["schema"] == "elladic/1"


def test_pipeline_noncongruent_specs_exit_one(capsys, tmp_path):
    code, record = run_failing(capsys, "pipeline", "--input",
                               pipeline_file(tmp_path, [3, 6]))
    assert code == 1
    assert record["error"] == "NotCongruent"


def test_pipeline_nonintegral_specs_exit_one(capsys, tmp_path):
    code, record = run_failing(capsys, "pipeline", "--input",
                               pipeline_file(tmp_path, [[1, 7], 5]))
    assert code == 1
    assert record["error"] == "NotIntegral"


def nodes(obj, path=()):
    """The path to every node of a JSON value, containers included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield from nodes(val, path + (key,))


def replaced(obj, path, value):
    """A copy of obj with the node at path replaced by value."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


CHI1 = ("central_chars", "chi1")
S_PLACE = {"finite": [1, 1]}


@pytest.mark.parametrize("argv, command, error", [
    (["satake", "--input", json.dumps({"field": {"ell": 5},
                                       "params": [{"q": 3, "mu": [[1, 0], 1]}]})],
     "satake", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec1", "places", 1, "datum", "table", 0), 5))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec1", "places", 0), 3))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec1", "default_rule"), [[1, 1]]))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_INPUT, ("samples",), [5]))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec1", "places", 1, "datum", "central", "unit_values"), [5]))],
     "pipeline", "InputError"),
    (["psi", "--p", "2", "--ell", "3", "--input", json.dumps(replaced(PSI, ("items", 0), 5))],
     "psi", "InputError"),
    (["whittaker", "--input", json.dumps(replaced(WHITTAKER, ("weights", 0), 5))],
     "whittaker", "InputError"),
    (["satake", "--input", json.dumps(replaced(SATAKE_PAIR, ("params", 0, "mu"), 5))],
     "satake", "InputError"),
    (["satake", "--input", json.dumps(replaced(SATAKE_PAIR, ("params",), 5))],
     "satake", "InputError"),
    (["rr", "--p", "2", "--input", json.dumps(replaced(DIVISOR, ("divisor", 0, 0, "finite"), 5))],
     "rr", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec2", "places", 0, "datum", "unramified", "mu", 0, "unit_digits"), 5))],
     "pipeline", "InputError"),
    (["satake", "--input", json.dumps({"field": {"ell": None}, "params": []})],
     "satake", "InputError"),
    (["whittaker", "--input", json.dumps(replaced(WHITTAKER, ("weights", 0), [None, 0]))],
     "whittaker", "InputError"),
    (["expand", "--p", "2", "--input", json.dumps(replaced(EXPAND, ("precision",), [4]))],
     "expand", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("samples",), [{"entries": [], "central": 5}]))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("samples",), [{"entries": [], "central": [[{"finite": [0, 1]}]]}]))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("samples",), [{"entries": [], "central": [[{"finite": [0, 1]}, 1],
                                                               [{"finite": [0, 1]}, 2]]}]))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps({**PIPE_INPUT, "samples": [], "central_chars": 5})],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_CENTRAL, CHI1 + ("by_degree", "01"), 5))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_CENTRAL, CHI1 + ("explicit",), [
        {"place": S_PLACE, "character": {"uniformizer_value": v}} for v in (3, 5)]))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_CENTRAL, CHI1 + ("by_degree", "5"), 0))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_CENTRAL, CHI1 + ("S",), [S_PLACE] * 2))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_CENTRAL, CHI1 + ("S",), 5))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_CENTRAL, CHI1 + ("S",), None))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec2", "default_rule", "01"), [3, 6]))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_INPUT, ("spec1", "S"), 5))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec1", "S"), [{"finite": [0, 1]}]))],
     "pipeline", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec1", "places", 0, "datum", "unramified", "mu"), [3]))],
     "pipeline", "InputError"),
    (["psi", "--p", "2", "--ell", "3", "--input", json.dumps(
        {"items": [{"place": {"finite": [0, 1]}}]})], "psi", "InputError"),
    (["whittaker", "--input", json.dumps(replaced(WHITTAKER, ("weights", 0), [0]))],
     "whittaker", "InputError"),
    (["rr", "--p", "4", "--input", json.dumps(DIVISOR)], "rr", "InputError"),
    (["satake", "--precision", "-1", "--input", json.dumps(SATAKE_PAIR)],
     "satake", "InputError"),
    (["index", "--p", "3", "--input", json.dumps(replaced(DIVISOR, ("divisor", 0, 1), -2))],
     "index", "InputError"),
    (["expand", "--p", "2", "--input", json.dumps(replaced(EXPAND, ("precision",), 0))],
     "expand", "InputError"),
    (["congruence", "--bound", "-1", "--input", json.dumps(CONGRUENCE)],
     "congruence", "InputError"),
    (["whittaker", "--input", json.dumps({**CONGRUENCE, "bound": -2})],
     "whittaker", "InputError"),
    (["whittaker", "--input", json.dumps(replaced(
        CONGRUENCE, ("params",), CONGRUENCE["params"] + [{"q": 3, "mu": [4, 4]}]))],
     "whittaker", "InputError"),
    (["whittaker", "--input", json.dumps({**CONGRUENCE, "param": WHITTAKER["param"],
                                          "weights": WHITTAKER["weights"]})],
     "whittaker", "InputError"),
    (["whittaker", "--input", json.dumps(replaced(WHITTAKER, ("weights",), [[True, False]]))],
     "whittaker", "InputError"),
    (["whittaker", "--input", json.dumps(replaced(WHITTAKER, ("weights",), [[1.9, 0.2]]))],
     "whittaker", "InputError"),
    (["whittaker", "--input", json.dumps(replaced(WHITTAKER, ("weights",), [["1", "0"]]))],
     "whittaker", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(
        PIPE_INPUT, ("spec1", "default_rule"), {"01": [1, 1]}))],
     "pipeline", "InputError"),
    (["whittaker", "--input", json.dumps({**WHITTAKER, "sqrt_q": {
        "zero": "no", "valuation": 0, "unit_digits": [[1]]}})], "whittaker", "InputError"),
    (["whittaker", "--input", json.dumps({**WHITTAKER, "sqrt_q": {
        "zero": 1, "valuation": 0, "unit_digits": [[1]]}})], "whittaker", "InputError"),
    (["psi", "--p", "2", "--f", "2", "--ell", "5", "--input", json.dumps(replaced(
        PSI_F4, ("items", 0, "x", "exact"), "no"))], "psi", "InputError"),
    (["rr", "--p", "2", "--input", json.dumps(replaced(
        DIVISOR, ("divisor", 0, 0), {"infinity": "no"}))], "rr", "InputError"),
    *[(["rr", "--p", "2", "--input", json.dumps(replaced(
        DIVISOR, ("divisor", 0, 0), {"infinity": inf, "finite": [0, 1]}))], "rr", "InputError")
      for inf in (True, False)],
    (["satake", "--input", json.dumps({**SATAKE_INTEGRAL, "require_integral": "no"})],
     "satake", "InputError"),
    *[(["pipeline", "--input", json.dumps(replaced(PIPE_INPUT, ("spec1", "w"), w))],
       "pipeline", "InputError") for w in ({}, [], 0, "")],
    (["satake", "--ell", "5", "--d", "0", "--input", json.dumps(
        {"params": SATAKE_PAIR["params"]})], "satake", "InputError"),
    (["satake", "--precision", "0", "--input", json.dumps(SATAKE_PAIR)],
     "satake", "InputError"),
    (["rr", "--p", "2", "--f", "0", "--input", json.dumps(DIVISOR)], "rr", "InputError"),
    (["whittaker", "--input", json.dumps({**WHITTAKER, "params": [WHITTAKER["param"]]})],
     "whittaker", "InputError"),
    (["whittaker", "--input", json.dumps({**WHITTAKER, "param": 0,
                                          "params": [WHITTAKER["param"]]})],
     "whittaker", "InputError"),
    (["psi", "--p", "2", "--ell", "3", "--input", json.dumps(
        {"items": [{**PSI["items"][0], "place": {"finite": [0, 1]},
                    "x": {"place": {"finite": [0, 1]}, "v": -1, "coeffs": [1]}}]})],
     "psi", "InputError"),
    (["pipeline", "--input", json.dumps(replaced(PIPE_INPUT, ("samples", "count"), -3))],
     "pipeline", "InputError"),
    (["rr", "--p", "x"], None, "InputError"),
    (["frobnicate", "--p", "2"], None, "InputError"),
], ids=["zero-denominator", "table-entry-5", "place-record-3", "default-rule-list",
        "sample-point-5", "unit-values-entry-5", "psi-item-5", "weight-5", "mu-5",
        "params-5", "finite-place-5", "unit-digits-5", "ell-null", "weight-entry-null",
        "precision-list", "point-central-5", "point-central-entry-short",
        "point-central-duplicate",
        "central-chars-5", "family-degree-twice", "family-place-twice",
        "family-degree-zero", "family-S-twice", "family-S-5", "family-S-null",
        "default-rule-degree-twice", "spec-S-5", "spec-S-mismatch", "unramified-rank-1",
        "psi-item-without-x", "weight-short", "flag-p-4", "flag-precision-negative",
        "index-negative-multiplicity", "expand-precision-0",
        "congruence-bound-negative", "whittaker-bound-negative", "whittaker-params-3",
        "whittaker-pair-with-weights", "weight-bool", "weight-float", "weight-digit-string",
        "default-rule-degree-01", "zero-string", "zero-int", "exact-string",
        "infinity-string", "infinity-and-finite", "not-infinity-and-finite",
        "require-integral-string", "w-empty-object", "w-empty-list",
        "w-zero", "w-empty-string", "flag-d-0", "flag-precision-0", "flag-f-0",
        "whittaker-param-and-params", "whittaker-falsy-param-and-params",
        "psi-gamma-and-place", "samples-count-negative",
        "bad-flag-value", "unknown-command"])
def test_malformed_request_exits_two(capsys, argv, command, error):
    """Malformed input or command line: exit 2 and a JSON record whose
    command is null when the command line did not parse."""
    code, record = run_failing(capsys, *argv)
    assert code == 2
    assert record["command"] == command
    assert error is None or record["error"] == error


@pytest.mark.parametrize("data", [
    replaced(PIPE_INPUT, ("spec1", "places", 1, "datum", "central", "level"), -1),
    replaced(PIPE_CENTRAL, CHI1 + ("explicit", 0, "character", "level"), -1),
], ids=["table-central", "central-chars"])
def test_a_negative_character_level_exits_two(capsys, data):
    """A character of level -1, in a table's central character or in a
    central_chars family, is refused as malformed input."""
    code, record = run_failing(capsys, "pipeline", "--input", json.dumps(data))
    assert code == 2 and record["error"] == "InputError"
    assert record["message"] == "character level must be >= 0"


# the auto sqrt_q of PIPE_INPUT, given explicitly
SQRT2_F7 = jsonio.encode_local_number(sqrt_unit(FieldConfig(7, precision=12), 2))


@pytest.mark.parametrize("prefix, data, name", [
    (("pipeline",), replaced(PIPE_INPUT, ("spec1", "S"), [S_PLACE]), "pipeline"),
    (("pipeline",), {**PIPE_INPUT, "sqrt_q": SQRT2_F7}, "pipeline"),
    (("satake", "--precision", "8"), replaced(SATAKE_PAIR, ("field", "precision"), 4),
     "satake-pair"),
], ids=["declared-S", "explicit-sqrt-q", "precision-flag-overrides-field"])
def test_equivalent_request_prints_the_golden_bytes(capsys, prefix, data, name):
    """A request that only spells out what a golden request leaves
    implicit prints that golden's bytes."""
    code, out = run(capsys, *prefix, "--input", json.dumps(data))
    assert code == 0 and out == (GOLDEN / f"cli-{name}.json").read_text()


G2, G4, CFG7 = GroundField(2), GroundField(2, 2), FieldConfig(7, precision=4)
T_PLACE = {"finite": [0, 1]}


@pytest.mark.parametrize("decode, obj, field", [
    (jsonio.decode_rational, {"num": [2], "den": [1]}, "F_2"),
    (jsonio.decode_rational, {"num": [1], "den": [0, 1, 2]}, "F_2"),
    (jsonio.decode_rational, [1, -1], "F_2"),
    (jsonio.decode_place, {"finite": [2, 1]}, "F_2"),
    (jsonio.decode_local_element, {"place": T_PLACE, "coeffs": [2]}, "F_2"),
    (jsonio.decode_local_element, {"place": T_PLACE, "coeffs": [1, -1]}, "F_2"),
    (lambda obj, G: jsonio.decode_local_character(obj, CFG7, G.place([0, 1])),
     {"uniformizer_value": 3, "level": 1, "unit_values": [[[3], 1]]}, "F_2"),
    (lambda obj, G: jsonio.decode_kirillov_table(obj, CFG7, G.place([0, 1])),
     [{"j": 0, "level": 1, "rep": [2], "value": 1}], "F_2"),
    (jsonio.decode_rational, {"num": [4]}, "F_4"),
    (jsonio.decode_local_element, {"place": {"finite": [2, 1, 1]}, "coeffs": [16]}, "F_16"),
], ids=["num-2", "den-2", "poly-minus-1", "place-2", "coeffs-2", "coeffs-minus-1",
        "unit-coset-3", "kirillov-rep-2", "f4-num-4", "f16-coeffs-16"])
def test_out_of_range_element_codes_are_input_errors(decode, obj, field):
    """An element code outside [0, order) is refused, naming the field,
    instead of being reduced to another element."""
    ground = G4 if field != "F_2" else G2
    with pytest.raises(InputError, match=f"{field}:"):
        decode(obj, ground)


def test_ramified_character_reads_its_unit_values():
    """A level-2 character: unit_values pairs a coset, as element codes,
    with its value."""
    place = G2.place([1, 1])
    chi = jsonio.decode_local_character(
        {"uniformizer_value": 3, "level": 2, "unit_values": [[[1, 0], 1], [[1, 1], [1, 2]]]},
        CFG7, place)
    assert chi == LocalCharacter(CFG7.integer(3), 2, (((1, 0), CFG7.one()),
                                                      ((1, 1), CFG7.rational(1, 2))))
    y = LocalElement.from_coeffs(place, 1, (1, 1, 1))
    assert chi.evaluate(y) == CFG7.integer(3) * CFG7.rational(1, 2)
    with pytest.raises(InputError, match="duplicate unit cosets"):
        jsonio.decode_local_character(
            {"uniformizer_value": 3, "level": 1, "unit_values": [[[1], 1], [[1], 2]]},
            CFG7, place)


@pytest.mark.parametrize("key", [[1, 0], [0]], ids=["two-digits", "zero"])
def test_a_unit_coset_no_unit_can_meet_is_an_input_error(key):
    """At level 1 a unit coset is the unit's one leading digit, never 0:
    a key no unit can match is refused when the character is read."""
    with pytest.raises(InputError, match="unit cosets have length 1"):
        jsonio.decode_local_character(
            {"uniformizer_value": 3, "level": 1, "unit_values": [[key, 1]]},
            CFG7, G2.place([1, 1]))


@pytest.mark.parametrize("point", [
    {"entries": [{"place": T_PLACE, "x": {"place": T_PLACE, "v": -1, "coeffs": [1]},
                  "a": [1, 0]}, {"place": T_PLACE}], "central": []},
    {"entries": [], "central": [[T_PLACE, 1], [T_PLACE, 0]]},
], ids=["entry-twice-once-trivially", "central-twice-once-zero"])
def test_a_place_listed_twice_in_a_sample_point_exits_two(capsys, point):
    """A sample point that lists a place twice is refused, even where one
    listing is the identity entry or a zero central exponent."""
    code, record = run_failing(capsys, "pipeline", "--input",
                               json.dumps({**PIPE_INPUT, "samples": [point]}))
    assert code == 2 and record["error"] == "InputError"
    assert record["message"].startswith("duplicate place in point")


def test_zero_and_exact_flags_are_read_as_booleans():
    """"zero": false with digits is the number the digits give, and
    "exact": false keeps the tail unknown; no other value stands for a
    boolean."""
    digits = {"valuation": 1, "unit_digits": [[2], [3]]}
    got = jsonio.decode_local_number({"zero": False, **digits}, CFG7)
    assert not got.is_zero and got == jsonio.decode_local_number(digits, CFG7)
    assert jsonio.decode_local_number({"zero": True, **digits}, CFG7).is_zero
    x = {"place": T_PLACE, "v": 0, "coeffs": [1]}
    assert not jsonio.decode_local_element({**x, "exact": False}, G2).exact_tail
    assert jsonio.decode_local_element(x, G2).exact_tail
    for bad in ("no", 0, 1, None):
        with pytest.raises(InputError, match="true or false"):
            jsonio.decode_local_number({"zero": bad, **digits}, CFG7)
        with pytest.raises(InputError, match="true or false"):
            jsonio.decode_local_element({**x, "exact": bad}, G2)


def expand_at_place(poly):
    return ["expand", "--p", "2", "--input",
            json.dumps({"rational": {"num": [1, 1], "den": [0, 1]},
                        "place": {"finite": poly}, "precision": 4})]


def test_residue_field_order_limit(capsys):
    """A degree-17 place over F_2 has a residue field of order 131,072,
    above gf.MAX_TABLE_ORDER: expanding there exits 3 with a TooLarge
    record.  A degree-16 place, at the limit, still expands."""
    deg16 = [1, 0, 1, 1, 0, 1] + [0] * 10 + [1]     # t^16 + t^5 + t^3 + t^2 + 1
    deg17 = [1, 0, 0, 1] + [0] * 13 + [1]           # t^17 + t^3 + 1
    code, record = run_failing(capsys, *expand_at_place(deg17))
    assert code == 3
    assert record["error"] == "TooLarge" and "131072" in record["message"]
    code, out = run(capsys, *expand_at_place(deg16))
    assert code == 0
    expansion = json.loads(out)["result"]["expansion"]
    assert expansion["v"] == 0 and len(expansion["coeffs"]) == 4


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_index_too_long_to_print_exits_three(capsys, fmt):
    """An index of more decimal digits than Python will print, 2^14999
    here, is refused with TooLarge: exit 3 and an error record, never a
    traceback from encoding the report."""
    code = main(["index", "--p", "2", "--format", fmt, "--input",
                 json.dumps({"divisor": [[{"infinity": True}, 15000]]})])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    if fmt == "json":
        record = json.loads(captured.err)
        assert record["command"] == "index" and record["error"] == "TooLarge"
    else:
        assert captured.err.startswith("error [TooLarge]")


def index_at_infinity(multiplicity):
    return ["index", "--p", "2", "--input",
            json.dumps({"divisor": [[{"infinity": True}, multiplicity]]})]


def test_an_index_is_refused_exactly_at_the_print_limit(capsys):
    """Over F_2 the index at infinity with multiplicity m is 2^(m - 1): the
    largest exponent below 10^limit prints, the next is refused."""
    limit = sys.get_int_max_str_digits()
    e = next(e for e in itertools.count(int(limit * 3.3)) if 2 ** e >= 10 ** limit)
    code, out = run(capsys, *index_at_infinity(e))
    body = json.loads(out)["result"]
    assert code == 0 and body["p_exponent"] == e - 1 and body["index"] == 2 ** (e - 1)
    code, record = run_failing(capsys, *index_at_infinity(e + 1))
    assert code == 3 and record["error"] == "TooLarge"
    assert record["message"] == f"the index 2^{e} has more than {limit} digits"


def test_a_huge_index_is_refused_before_the_power_is_formed(capsys, monkeypatch):
    """The exponent is read from the divisor, so a multiplicity of 10^12
    is refused at once, before quotient_index could form the power."""
    def forming(U):
        raise RuntimeError("the index was formed")

    monkeypatch.setattr(cli, "quotient_index", forming)
    code, record = run_failing(capsys, *index_at_infinity(10 ** 12))
    assert code == 3 and record["error"] == "TooLarge"
    assert record["message"].startswith(f"the index 2^{10 ** 12 - 1} has more than")


def test_index_prints_its_golden_where_the_interpreter_has_no_digit_limit(capsys, monkeypatch):
    """Python before 3.10.7 has no sys.get_int_max_str_digits and no limit
    on the digits it prints: there the index request still prints its
    golden bytes."""
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    prefix, data = VALID_REQUESTS[VALID_NAMES.index("index")]
    code, out = run(capsys, *prefix, "--input", json.dumps(data))
    assert code == 0 and out == (GOLDEN / "cli-index.json").read_text()


def test_flags_may_precede_the_command(capsys):
    code, out = run(capsys, "--p", "2", "rr", "--input", json.dumps(DIVISOR))
    assert code == 0
    assert json.loads(out)["result"]["dimension"] == 3


# what a refusal of input must never be named; an OSError subclass stays
# allowed, for an --input path that cannot be read
BUILTIN_ERRORS = {"TypeError", "ValueError", "AttributeError", "KeyError", "IndexError",
                  "ZeroDivisionError"}
SMALL_JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
                       st.text(max_size=3), st.just([1, 0]), st.just({}),
                       st.just(1.5), st.just("1"), st.just([]))


@st.composite
def mutated_requests(draw):
    """A valid request with one node (a leaf or a whole subtree) of its
    input swapped for a small JSON value."""
    prefix, data = draw(st.sampled_from(VALID_REQUESTS))
    path = draw(st.sampled_from(list(nodes(data))))
    return list(prefix) + ["--cap", "16", "--input",
                           json.dumps(replaced(data, path, draw(SMALL_JSON)))]


@settings(max_examples=1500, deadline=None)
@given(mutated_requests())
def test_every_run_exits_with_a_json_record(argv):
    """Any one malformed node still gives an exit code in 0-3 and one JSON
    document: the report on stdout or the error record on stderr, which
    names a typed error, never a builtin one.  The enumeration cap of 16
    keeps every run short."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if out.getvalue():
        assert err.getvalue() == ""
        envelope = json.loads(out.getvalue())
        assert set(envelope) == {"schema", "command", "seed", "ok", "result"}
        assert code == (0 if envelope["ok"] else 1)
    else:
        record = json.loads(err.getvalue())
        assert set(record) == {"schema", "command", "error", "message"}
        assert code != 0
        assert record["error"] not in BUILTIN_ERRORS, record


def integer_leaves(data) -> list:
    """The path to every integer leaf of a JSON value."""
    def leaf(path):
        node = data
        for key in path:
            node = node[key]
        return node
    return [path for path in nodes(data) if type(leaf(path)) is int]


# what a JSON integer field may not accept in place of an integer
NOT_INTEGERS = st.one_of(st.booleans(), st.floats(),
                         st.from_regex(r"-?[0-9]{1,3}", fullmatch=True))


@st.composite
def requests_with_a_non_integer(draw):
    """A valid request with one integer leaf of its input swapped for a
    boolean, a float or a digit string."""
    prefix, data = draw(st.sampled_from([r for r in VALID_REQUESTS if integer_leaves(r[1])]))
    path = draw(st.sampled_from(integer_leaves(data)))
    return list(prefix) + ["--cap", "16", "--input",
                           json.dumps(replaced(data, path, draw(NOT_INTEGERS)))]


@settings(max_examples=300, deadline=None)
@given(requests_with_a_non_integer())
def test_a_non_integer_in_an_integer_field_exits_two(argv):
    """Every integer of a request is a JSON integer: a boolean, a float or
    a digit string in its place is an InputError (exit 2), never read as
    the integer it resembles."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, argv
    assert json.loads(err.getvalue())["error"] == "InputError"


def test_empty_table_at_w_reads_as_the_zero_function(capsys):
    """An empty Kirillov table at the distinguished place w is the zero
    function on every path: each W and phi value is zero, and the run
    exits 0."""
    data = copy.deepcopy(PIPE_CENTRAL)
    for spec in ("spec1", "spec2"):
        data[spec]["places"][1]["datum"]["table"] = []
    code, out = run(capsys, "pipeline", "--input", json.dumps(data))
    assert code == 0
    points = json.loads(out)["result"]["points"]
    assert len(points) == 2
    assert all(p[k] == {"zero": True} for p in points for k in ("W1", "W2", "phi1", "phi2"))


def digits_of(*digits):
    """A unit of valuation 0 written with exactly these l-adic digits."""
    return {"valuation": 0, "unit_digits": [[d] for d in digits]}


def with_a_second_table(value):
    """PIPE_INPUT with a tabulated place besides w, in both specs, whose
    table takes value at the identity."""
    data = copy.deepcopy(PIPE_INPUT)
    for spec in ("spec1", "spec2"):
        data[spec]["places"].append(
            {"place": {"finite": [1, 1, 1]},
             "datum": {"table": [{"j": 0, "level": 0, "rep": [1], "value": value}],
                       "central": {"uniformizer_value": 1}}})
    return data


@pytest.mark.parametrize("value", [1, digits_of(1), digits_of(1, 0, 0)])
def test_a_table_one_to_its_certified_digits_is_one_at_the_identity(capsys, value):
    code, out = run(capsys, "pipeline", "--input", json.dumps(with_a_second_table(value)))
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("value", [2, digits_of(2), digits_of(1, 1)])
def test_a_table_certified_off_one_at_the_identity_exits_two(capsys, value):
    code, record = run_failing(capsys, "pipeline", "--input",
                               json.dumps(with_a_second_table(value)))
    assert code == 2 and record["error"] == "InputError"
    assert "must take the value 1 at the identity" in record["message"]


def trivial_families(chi2_at_w):
    """PIPE_CENTRAL with both character families trivial, every value
    written to three digits, and chi2 taking chi2_at_w at w."""
    data = copy.deepcopy(PIPE_CENTRAL)
    for fam, at_w in (("chi1", digits_of(1, 0, 0)), ("chi2", chi2_at_w)):
        chars = data["central_chars"][fam]
        chars["by_degree"] = {str(d): digits_of(1, 0, 0) for d in range(1, 9)}
        chars["explicit"] = [{"place": S_PLACE, "character": {"uniformizer_value": at_w}}]
    return data


def test_three_digit_trivial_families_pass(capsys):
    """1 to three digits is 1 as far as its digits certify: no product
    failure, and each ratio at w is 1 modulo l."""
    code, out = run(capsys, "pipeline", "--input",
                    json.dumps(trivial_families(digits_of(1, 0, 0))))
    assert code == 0
    assert json.loads(out)["result"]["central"] == {
        "ok": True, "product_failures": [], "ratio_ok": True}


@pytest.mark.parametrize("at_w", [2, digits_of(2, 0, 0), digits_of(1, 1, 0)])
def test_a_certified_product_failure_is_reported(capsys, at_w):
    """chi2 off 1 at w by a certified digit breaks the product formula on
    every sample, whose supports all meet w; the ratios, which read only
    places outside S, stay 1."""
    code, out = run(capsys, "pipeline", "--input", json.dumps(trivial_families(at_w)))
    assert code == 1
    assert json.loads(out)["result"]["central"] == {
        "ok": False, "product_failures": [[i, "chi2"] for i in range(3)], "ratio_ok": True}
