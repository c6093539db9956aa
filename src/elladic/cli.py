"""Batch command line front end.

Usage: elladic COMMAND [flags]; COMMAND is satake, whittaker, congruence,
rr, psi, index, expand, pipeline or selftest, and every flag is declared
once, before or after it.  Input is JSON (a file path or an inline literal
via --input), read once per run; output is a single JSON report (--format
json, the default) or a plain-text rendering of the same report object.

Exit codes: 0 every check passed, 1 a mathematical violation was found,
3 precision or enumeration failure, 2 anything else (malformed input or
command line).  Every failure exits through EXIT_CODES with a JSON error
record on stderr, whose "command" is null if the command line did not parse.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import jsonio
from .errors import (ElladicError, InputError, InsufficientPrecision,
                     NotCongruent, NotIntegral, PrecisionLoss, TooLarge)
from .function_field import (DEFAULT_ENUMERATION_CAP, DEFAULT_SERIES_PRECISION,
                             Divisor, GroundField, PsiTarget, expand_at,
                             principal_adele, psi_global, psi_local,
                             quotient_exponent, quotient_index, rr_space)
from .padic import DEFAULT_PRECISION, FieldConfig, difference_valuation, sqrt_unit
from .pipeline import (central_char_propagate, congruence_pipeline,
                       default_sample_points)
from .satake import char_poly, congruent, is_integral, reduce_char_poly
from .whittaker import check_congruence, collapse, whittaker_value

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_PRECISION = 3

# error class -> exit code; an error takes the code of the nearest class
# in its method resolution order, so every other failure exits 2
EXIT_CODES = {
    NotCongruent: EXIT_VIOLATION, NotIntegral: EXIT_VIOLATION,
    PrecisionLoss: EXIT_PRECISION, InsufficientPrecision: EXIT_PRECISION,
    TooLarge: EXIT_PRECISION,
    Exception: EXIT_INPUT,
}


def main(argv=None) -> int:
    args = None
    try:
        args = _PARSER.parse_args(argv)
        report, ok = COMMANDS[args.command](args, load_input(args))
        envelope = {"schema": jsonio.SCHEMA, "command": args.command, "seed": args.seed,
                    "ok": ok, "result": report}
        text = (json.dumps(envelope, sort_keys=True, indent=2) if args.format == "json"
                else render_text(envelope))
    except Exception as exc:
        _emit_error(args, exc)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
    print(text)
    return EXIT_OK if ok else EXIT_VIOLATION


def _emit_error(args, exc):
    record = {"schema": jsonio.SCHEMA, "command": getattr(args, "command", None),
              "error": type(exc).__name__, "message": str(exc)}
    if getattr(args, "format", "json") == "json":
        print(json.dumps(record, sort_keys=True, indent=2), file=sys.stderr)
    else:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError instead of printing and exiting."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="elladic")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="JSON file path or inline JSON literal")
    parser.add_argument("--ell", type=int)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--p", type=int)
    parser.add_argument("--f", type=int, default=1)
    parser.add_argument("--bound", type=int, default=None)
    parser.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("text", "json"), default="json")
    return parser


def load_input(args) -> dict:
    if not args.input:
        return {}
    text = args.input
    if not text.lstrip().startswith(("{", "[")):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InputError("top-level input must be a JSON object")
    if "schema" in data and data["schema"] != jsonio.SCHEMA:
        raise InputError(f"unsupported schema {data['schema']!r}; expected {jsonio.SCHEMA!r}")
    return data


def resolve_field(args, data) -> FieldConfig:
    if "field" in data:
        cfg = jsonio.decode_field_config(data["field"])
        if args.precision is not None:
            cfg = jsonio._make(FieldConfig, cfg.ell, cfg.d, cfg.modulus, args.precision)
        return cfg
    if args.ell is None:
        raise InputError("no coefficient field: supply 'field' or --ell")
    return jsonio._make(FieldConfig, args.ell, args.d, None,
                        DEFAULT_PRECISION if args.precision is None else args.precision)


def resolve_ground(args, data) -> GroundField:
    if "ground" in data:
        return jsonio.decode_ground(data["ground"])
    if args.p is None:
        raise InputError("no ground field: supply 'ground' or --p")
    return jsonio._make(GroundField, args.p, args.f)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_satake(args, data):
    cfg = resolve_field(args, data)
    params = [jsonio.decode_satake(obj, cfg)
              for obj in jsonio._list(data.get("params", []), "'params'")]
    if not params:
        raise InputError("'params' must list at least one Satake parameter")
    require_integral = jsonio._bool(data.get("require_integral", False), "require_integral")
    records = []
    ok = True
    polys = []
    for S in params:
        P = char_poly(S)
        polys.append(P)
        integral = is_integral(P)
        rec = {"param": jsonio.encode_satake(S),
               "char_poly": jsonio.encode_char_poly(P),
               "integral": integral}
        if integral:
            rec["reduction"] = jsonio.encode_residue_poly(reduce_char_poly(P))
        elif require_integral:
            ok = False
        records.append(rec)
    report = {"params": records}
    if len(params) >= 2:
        if all(r["integral"] for r in records[:2]):
            verdict = congruent(polys[0], polys[1])
        else:
            verdict = False
        report["congruent"] = verdict
        ok = ok and verdict
    return report, ok


def cmd_whittaker(args, data):
    cfg = resolve_field(args, data)
    params = jsonio._list(data.get("params", []), "'params'")
    if len(params) > 2:
        raise InputError("'params' must list one or two Satake parameters")
    if len(params) == 2:
        if "param" in data or "weights" in data:
            raise InputError("'param' and 'weights' apply to one parameter, not to two 'params'")
        return _whittaker_pair(args, data, cfg, params)
    if "param" in data and params:
        raise InputError("supply 'param' or one 'params' entry, not both")
    obj = data.get("param", params[0] if params else None)
    if obj is None:
        raise InputError("supply 'param' (or 'params') for evaluation")
    S = jsonio.decode_satake(obj, cfg)
    weights = jsonio._list(data.get("weights", []), "'weights'")
    if not weights:
        raise InputError("'weights' must list exponent vectors")
    sqrt_obj = data.get("sqrt_q")
    sq = None
    if sqrt_obj == "auto":
        sq = sqrt_unit(cfg, S.q)
    elif sqrt_obj is not None:
        sq = jsonio.decode_local_number(sqrt_obj, cfg)
    values = []
    for a in weights:
        a = jsonio._ints(a, "weight")
        w = jsonio._make(whittaker_value, S, tuple(a))
        rec = {"weight": a,
               "value": jsonio.encode_whittaker_value(w)}
        if sq is not None:
            rec["collapsed"] = jsonio.encode_local_number(collapse(w, sq, S.q))
        values.append(rec)
    return {"values": values}, True


def _whittaker_pair(args, data, cfg, params):
    bound = args.bound if args.bound is not None else jsonio._int(data.get("bound", 2), "'bound'")
    if bound < 0:
        raise InputError("'bound' must be >= 0")
    S1 = jsonio.decode_satake(params[0], cfg)
    S2 = jsonio.decode_satake(params[1], cfg)
    try:
        rep = check_congruence(S1, S2, bound)
    except (NotIntegral, NotCongruent) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}, False
    return rep.to_dict(), rep.ok


def cmd_congruence(args, data):
    cfg = resolve_field(args, data)
    params = jsonio._list(data.get("params", []), "'params'")
    if len(params) != 2:
        raise InputError("'params' must list exactly two Satake parameters")
    return _whittaker_pair(args, data, cfg, params)


def cmd_rr(args, data):
    ground = resolve_ground(args, data)
    D = jsonio.decode_divisor(data.get("divisor", []), ground)
    basis = rr_space(D)
    return {"divisor": jsonio.encode_divisor(D),
            "degree": D.degree,
            "dimension": len(basis),
            "basis": [jsonio.encode_rational(b) for b in basis]}, True


def cmd_psi(args, data):
    ground = resolve_ground(args, data)
    cfg = resolve_field(args, data)
    target = PsiTarget.create(ground, cfg)
    items = jsonio._list(data.get("items", []), "'items'")
    if not items:
        raise InputError("'items' must list evaluation requests")
    out = []
    all_one = True
    for item in items:
        item = jsonio._obj(item, "psi item")
        if "gamma" in item:
            if "place" in item or "x" in item:
                raise InputError("a psi item gives 'gamma' or 'place'+'x', not both")
            gamma = jsonio.decode_rational(item["gamma"], ground)
            val = psi_global(principal_adele(gamma), target)
            rec = {"gamma": jsonio.encode_rational(gamma)}
        elif "place" in item:
            place = jsonio.decode_place(item["place"], ground)
            x = jsonio.decode_local_element(jsonio._need(item, "x", "psi item"), ground)
            val = psi_local(place, x, target)
            rec = {"place": jsonio.encode_place(place)}
        else:
            raise InputError("psi items need 'gamma' or 'place'+'x'")
        rec["value"] = jsonio.encode_local_number(val)
        v, exact = difference_valuation(val, cfg.one())
        rec["is_one"] = v == math.inf or not exact
        all_one = all_one and rec["is_one"]
        out.append(rec)
    return {"values": out, "all_one": all_one}, True


def cmd_index(args, data):
    ground = resolve_ground(args, data)
    U = jsonio.decode_divisor(data.get("divisor", []), ground)
    if any(m < 0 for _, m in U.items):
        raise InputError("'divisor' multiplicities must be >= 0 for an index")
    exponent = quotient_exponent(U)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()    # 0: no limit
    # p^e >= 10^limit, from logarithms, and exactly within one digit of it
    gap = exponent * math.log10(ground.p) - limit
    if limit and (ground.p ** exponent >= 10 ** limit if abs(gap) < 1 else gap > 0):
        raise TooLarge(f"the index {ground.p}^{exponent} has more than {limit} digits")
    return {"divisor": jsonio.encode_divisor(U), "index": quotient_index(U),
            "p": ground.p, "p_exponent": exponent}, True


def cmd_expand(args, data):
    ground = resolve_ground(args, data)
    r = jsonio.decode_rational(data.get("rational", {}), ground)
    place = jsonio.decode_place(data.get("place", {}), ground)
    M = jsonio._int(data.get("precision", DEFAULT_SERIES_PRECISION), "'precision'")
    if M < 1:
        raise InputError("'precision' must be >= 1")
    le = expand_at(r, place, M)
    return {"rational": jsonio.encode_rational(r),
            "place": jsonio.encode_place(place),
            "expansion": jsonio.encode_local_element(le)}, True


def cmd_pipeline(args, data):
    ground = resolve_ground(args, data)
    cfg = resolve_field(args, data)
    target = PsiTarget.create(ground, cfg)
    spec1 = jsonio.decode_spec(data.get("spec1", {}), ground, cfg)
    spec2 = jsonio.decode_spec(data.get("spec2", {}), ground, cfg)
    sq_obj = data.get("sqrt_q", "auto")
    if sq_obj == "auto":
        sq = sqrt_unit(cfg, ground.q)
    else:
        sq = jsonio.decode_local_number(sq_obj, cfg)
    samples_obj = data.get("samples", {})
    if isinstance(samples_obj, dict):
        seed = jsonio._int(samples_obj.get("seed", args.seed), "samples seed")
        count = jsonio._int(samples_obj.get("count", 20), "samples count")
        if count < 0:
            raise InputError("samples count must be >= 0")
        samples = default_sample_points(ground, seed, count)
    else:
        samples = tuple(jsonio.decode_point(p, ground)
                        for p in jsonio._list(samples_obj, "'samples'"))
    rep = congruence_pipeline(spec1, spec2, samples, sq, target, cap=args.cap)
    out = rep.to_dict()
    out["sample_count"] = len(samples)
    if "central_chars" in data:
        chars = jsonio._obj(data["central_chars"], "'central_chars'")
        fam1 = jsonio.decode_character_family(
            jsonio._need(chars, "chi1", "'central_chars'"), ground, cfg)
        fam2 = jsonio.decode_character_family(
            jsonio._need(chars, "chi2", "'central_chars'"), ground, cfg)
        ys = [jsonio.decode_rational(y, ground)
              for y in jsonio._list(chars.get("samples", []), "central_chars samples")]
        if any(y.is_zero for y in ys):
            raise InputError("central_chars samples must be nonzero rational functions")
        crep = central_char_propagate(fam1, fam2, ys)
        out["central"] = {
            "product_failures": list(crep.product_failures),
            "ratio_ok": all(r.ok for r in crep.ratio_records),
            "ok": crep.ok,
        }
        return out, rep.ok and crep.ok
    return out, rep.ok


def cmd_selftest(args, data):
    seed = args.seed
    rng = random.Random(seed)
    checks = []

    def record(name, fn):
        try:
            result = bool(fn())
        except ElladicError as exc:
            checks.append({"name": name, "ok": False, "error": str(exc)})
            return
        checks.append({"name": name, "ok": result})

    record("padic ring axioms", lambda: _selftest_ring(rng))
    record("valuation additivity", lambda: _selftest_valuation(rng))
    record("residue homomorphism", lambda: _selftest_residue(rng))
    record("integrality criterion", lambda: _selftest_integrality(rng))
    record("normalization and vanishing", lambda: _selftest_css(rng))
    record("psi trivial on principal elements", lambda: _selftest_psi(rng))
    record("riemann-roch dimension", lambda: _selftest_rr(rng))
    record("index is a p-power", lambda: _selftest_index(rng))
    passed = sum(1 for c in checks if c["ok"])
    ok = passed == len(checks)
    return {"checks": checks, "passed": passed, "total": len(checks)}, ok


def _selftest_ring(rng):
    cfg = FieldConfig(5, precision=12)
    bound = 5 ** 12 // 3  # keep every intermediate sum exactly representable
    for _ in range(60):
        a, b, c = (cfg.integer(rng.randrange(1, bound)) for _ in range(3))
        if (a + b) + c != a + (b + c):
            return False
        if a * (b + c) != a * b + a * c:
            return False
        if a * b != b * a:
            return False
    return True


def _unit_int(rng, ell: int, k: int) -> int:
    return rng.randrange(1, ell) + ell * rng.randrange(ell ** k)


def _selftest_valuation(rng):
    cfg = FieldConfig(3, precision=16)
    for _ in range(60):
        x = cfg.unit(rng.randrange(-5, 6), (_unit_int(rng, 3, 7),))
        y = cfg.unit(rng.randrange(-5, 6), (_unit_int(rng, 3, 7),))
        if (x * y).valuation() != x.valuation() + y.valuation():
            return False
    return True


def _selftest_residue(rng):
    cfg = FieldConfig(7, precision=10)
    F = cfg.residue_field()
    for _ in range(60):
        x = cfg.integer(rng.randrange(1, 7 ** 6))
        y = cfg.integer(rng.randrange(1, 7 ** 6))
        (a,), (b,) = x.reduce(), y.reduce()
        if (x + y).reduce() != (F.add(a, b),) or (x * y).reduce() != (F.mul(a, b),):
            return False
    return True


def _selftest_integrality(rng):
    from .satake import SatakeParam
    cfg = FieldConfig(5, precision=10)
    for _ in range(40):
        n = rng.randrange(1, 5)
        mu = tuple(cfg.unit(rng.randrange(-2, 3), (_unit_int(rng, 5, 3),))
                   for _ in range(n))
        S = SatakeParam(n, 3, mu)
        lhs = is_integral(char_poly(S))
        rhs = min(m.v for m in mu) >= 0
        if lhs != rhs:
            return False
    return True


def _selftest_css(rng):
    from .satake import SatakeParam
    cfg = FieldConfig(7, precision=10)
    for _ in range(20):
        n = rng.randrange(1, 5)
        mu = tuple(cfg.unit(0, (_unit_int(rng, 7, 2),)) for _ in range(n))
        S = SatakeParam(n, 2, mu)
        w = whittaker_value(S, (0,) * n)
        if w.q_half_exp != 0 or w.coef != cfg.one():
            return False
        if n >= 2:
            a = sorted(rng.randrange(-3, 4) for _ in range(n))
            if a != sorted(a, reverse=True):
                if not whittaker_value(S, tuple(a)).is_zero:
                    return False
    return True


def _selftest_psi(rng):
    ground = GroundField(2)
    cfg = FieldConfig(3, precision=10)
    target = PsiTarget.create(ground, cfg)
    for _ in range(15):
        num = [rng.randrange(2) for _ in range(rng.randrange(1, 5))] + [1]
        den = [rng.randrange(2) for _ in range(rng.randrange(1, 5))] + [1]
        r = ground.rational(num, den)
        if r.is_zero:
            continue
        if psi_global(principal_adele(r), target) != cfg.one():
            return False
    return True


def _selftest_rr(rng):
    ground = GroundField(3)
    places = [ground.infinity(), ground.place([0, 1]), ground.place([1, 1])]
    for _ in range(20):
        D = Divisor.make(ground, [(pl, rng.randrange(-3, 4)) for pl in places])
        if len(rr_space(D)) != max(D.degree + 1, 0):
            return False
    return True


def _selftest_index(rng):
    ground = GroundField(2)
    places = [ground.infinity(), ground.place([0, 1]), ground.place([1, 1, 1])]
    for _ in range(20):
        U = Divisor.make(ground, [(pl, rng.randrange(0, 3)) for pl in places])
        idx = quotient_index(U)
        while idx % ground.p == 0:
            idx //= ground.p
        if idx != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def render_text(envelope: dict) -> str:
    lines = [f"elladic {envelope['command']} (seed {envelope['seed']})"]
    result = envelope["result"]
    lines.extend(_render_obj(result, indent=2))
    lines.append("OK" if envelope["ok"] else "VIOLATION")
    return "\n".join(lines)


def _render_obj(obj, indent=0):
    pad = " " * indent
    out = []
    if isinstance(obj, dict):
        for key, val in sorted(obj.items()):
            if isinstance(val, (dict, list)):
                out.append(f"{pad}{key}:")
                out.extend(_render_obj(val, indent + 2))
            else:
                out.append(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            if isinstance(val, (dict, list)):
                out.append(f"{pad}- [{i}]")
                out.extend(_render_obj(val, indent + 2))
            else:
                out.append(f"{pad}- {val}")
    else:
        out.append(f"{pad}{obj}")
    return out


COMMANDS = {
    "satake": cmd_satake,
    "whittaker": cmd_whittaker,
    "congruence": cmd_congruence,
    "rr": cmd_rr,
    "psi": cmd_psi,
    "index": cmd_index,
    "expand": cmd_expand,
    "pipeline": cmd_pipeline,
    "selftest": cmd_selftest,
}
# the parser main reads, built once per process: parsing leaves it unchanged
_PARSER = build_parser()


if __name__ == "__main__":
    sys.exit(main())
