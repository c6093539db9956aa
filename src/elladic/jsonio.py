"""JSON encoding and decoding for every CLI-facing object.

One schema (version tag "elladic/1"), shared by input files and reports.
Field elements of F_q and of residue fields are coded as integers below
the field order (base-p digit vectors read as an integer); local numbers
accept three input shorthands (integer, [num, den] rational, full digit
record) and are always emitted as the full record.

Each decoder checks the shape of its JSON and builds its object through
_make, which reports a constructor's refusal (ValueError, ZeroDivisionError)
as InputError: the constructors hold the rules.
"""

from __future__ import annotations

from .errors import InputError
from .function_field import (Divisor, GroundField, LocalElement, Place,
                             RationalFunction, element_codes)
from .padic import FieldConfig, LocalNumber
from .pipeline import (CharacterFamily, GlobalWhittakerSpec, KirillovEntry,
                       KirillovTable, LocalCharacter, MirabolicPoint,
                       TabulatedDatum, UnramifiedDatum)
from .satake import CharPoly, SatakeParam
from .whittaker import WhittakerValue

SCHEMA = "elladic/1"


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise InputError(f"missing '{key}' in {where}")
    return obj[key]


def _obj(x, where: str) -> dict:
    if not isinstance(x, dict):
        raise InputError(f"{where} must be an object")
    return x


def _list(x, where: str) -> list:
    if not isinstance(x, list):
        raise InputError(f"{where} must be a list")
    return x


def _int(x, where: str) -> int:
    """x itself when it is a JSON integer, else InputError naming the
    field: a boolean, a float or a digit string is no integer."""
    if type(x) is not int:
        raise InputError(f"{where} must be an integer, not {x!r}")
    return x


def _bool(x, where: str) -> bool:
    """x itself when it is a JSON boolean, else InputError naming the
    field: "no", 0 or 1 is no boolean."""
    if type(x) is not bool:
        raise InputError(f"{where} must be true or false, not {x!r}")
    return x


def _key_int(key: str, where: str) -> int:
    """The integer an object key names, in canonical decimal text only, so
    that "01" or " 1" is refused rather than read as 1."""
    try:
        n = int(key)
    except ValueError:
        n = None
    if n is None or str(n) != key:
        raise InputError(f"{where} must be an integer in decimal, not {key!r}")
    return n


def _ints(x, where: str) -> list:
    return [_int(c, f"{where} entry") for c in _list(x, where)]


def _make(build, *args, **kwargs):
    """build(*args, **kwargs), with InputError for the ValueError or
    ZeroDivisionError by which it refuses its arguments."""
    try:
        return build(*args, **kwargs)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc


def _codes(x, where: str, field) -> tuple:
    """_ints(x), each the code of an element of the field: in [0, order)."""
    return _make(element_codes, _ints(x, where), field)


# -- coefficient field -------------------------------------------------------

def decode_field_config(obj) -> FieldConfig:
    _obj(obj, "field config")
    modulus = obj.get("modulus_coeffs", obj.get("modulus"))
    return _make(
        FieldConfig,
        ell=_int(_need(obj, "ell", "field config"), "ell"),
        d=_int(obj.get("d", 1), "d"),
        modulus=tuple(_ints(modulus, "modulus")) if modulus is not None else None,
        precision=_int(obj.get("precision", 32), "precision"),
    )


def decode_local_number(obj, cfg: FieldConfig) -> LocalNumber:
    if isinstance(obj, bool):
        raise InputError("booleans are not field elements")
    if isinstance(obj, int):
        return cfg.integer(obj)
    if isinstance(obj, list):
        if len(obj) != 2 or not all(type(x) is int for x in obj):
            raise InputError("rational shorthand must be [numerator, denominator]")
        return _make(cfg.rational, obj[0], obj[1])
    if isinstance(obj, dict):
        if _bool(obj.get("zero", False), "zero"):
            return cfg.zero()
        v = _int(_need(obj, "valuation", "local number"), "valuation")
        digits = _list(_need(obj, "unit_digits", "local number"), "unit_digits")
        if not digits:
            raise InputError("nonzero local number needs at least one digit vector")
        coeffs = [0] * cfg.d
        scale = 1
        for vec in digits:
            vec = _ints(vec, "digit vector")
            if len(vec) != cfg.d:
                raise InputError(f"digit vectors must have length d = {cfg.d}")
            for j, digit in enumerate(vec):
                if not 0 <= digit < cfg.ell:
                    raise InputError("digits must lie in [0, ell)")
                coeffs[j] += digit * scale
            scale *= cfg.ell
        return _make(cfg.unit, v, coeffs, prec=min(len(digits), cfg.precision))
    raise InputError(f"cannot read a local number from {obj!r}")


def encode_local_number(x: LocalNumber) -> dict:
    if x.is_zero:
        return {"zero": True}
    return {"valuation": x.v, "unit_digits": x.digit_vectors(),
            "precision": x.prec}


# -- satake ------------------------------------------------------------------

def decode_satake(obj, cfg: FieldConfig) -> SatakeParam:
    _obj(obj, "satake parameter")
    mu = [decode_local_number(m, cfg)
          for m in _list(_need(obj, "mu", "satake parameter"), "satake mu")]
    n = _int(obj.get("n", len(mu)), "satake n")
    return _make(SatakeParam, n, _int(_need(obj, "q", "satake parameter"), "q"), tuple(mu))


def encode_satake(S: SatakeParam) -> dict:
    return {"n": S.n, "q": S.q, "mu": [encode_local_number(m) for m in S.mu]}


def encode_char_poly(P: CharPoly) -> dict:
    return {"coeffs": [encode_local_number(c) for c in P.coeffs]}


def encode_residue_poly(res) -> list:
    return [list(r) for r in res]


def encode_whittaker_value(w: WhittakerValue) -> dict:
    return {"coef": encode_local_number(w.coef), "q_half_exp": w.q_half_exp}


# -- ground field and places -------------------------------------------------

def decode_ground(obj) -> GroundField:
    _obj(obj, "ground field")
    return _make(
        GroundField,
        p=_int(_need(obj, "p", "ground field"), "p"),
        f=_int(obj.get("f", 1), "f"),
        modulus=tuple(_ints(obj["modulus"], "modulus")) if "modulus" in obj else None,
    )


def decode_place(obj, ground: GroundField) -> Place:
    if isinstance(obj, dict):
        if _bool(obj.get("infinity", False), "infinity"):
            return ground.infinity()
        if "finite" in obj:
            return _make(ground.place, _codes(obj["finite"], "finite place", ground.field()))
    raise InputError(f"cannot read a place from {obj!r}")


def encode_place(pl: Place) -> dict:
    if pl.is_infinity:
        return {"infinity": True}
    return {"finite": list(pl.poly)}


def decode_rational(obj, ground: GroundField) -> RationalFunction:
    F = ground.field()
    if isinstance(obj, list):
        return ground.rational(_codes(obj, "polynomial", F))
    if isinstance(obj, dict):
        num = _codes(_need(obj, "num", "rational function"), "numerator", F)
        den = _codes(obj.get("den", [1]), "denominator", F)
        return _make(ground.rational, num, den)
    raise InputError(f"cannot read a rational function from {obj!r}")


def encode_rational(r: RationalFunction) -> dict:
    return {"num": list(r.num), "den": list(r.den)}


def decode_divisor(obj, ground: GroundField) -> Divisor:
    if not isinstance(obj, list):
        raise InputError("divisor must be a list of [place, multiplicity] pairs")
    pairs = []
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise InputError("divisor entries are [place, multiplicity]")
        pairs.append((decode_place(item[0], ground), _int(item[1], "multiplicity")))
    return Divisor.make(ground, pairs)


def encode_divisor(D: Divisor) -> list:
    return [[encode_place(pl), m] for pl, m in D.items]


def decode_local_element(obj, ground: GroundField) -> LocalElement:
    _obj(obj, "local element")
    place = decode_place(_need(obj, "place", "local element"), ground)
    coeffs = _codes(obj.get("coeffs", []), "coeffs", place.residue())
    return LocalElement.from_coeffs(place, _int(obj.get("v", 0), "v"), coeffs,
                                    exact=_bool(obj.get("exact", True), "exact"))


def encode_local_element(x: LocalElement) -> dict:
    return {"place": encode_place(x.place), "v": x.v,
            "coeffs": list(x.coeffs), "exact": x.exact_tail}


# -- global specifications ---------------------------------------------------

def decode_local_character(obj, cfg: FieldConfig, place: Place) -> LocalCharacter:
    _obj(obj, "local character")
    val = decode_local_number(_need(obj, "uniformizer_value", "local character"), cfg)
    level = _int(obj.get("level", 0), "level")
    unit_values = []
    K = place.residue()
    for pair in _list(obj.get("unit_values", []), "unit_values"):
        if len(_list(pair, "unit_values entry")) != 2:
            raise InputError("unit_values entries are [coset, value] pairs")
        key_codes, value = pair
        key = _codes(key_codes, "unit coset", K)
        unit_values.append((key, decode_local_number(value, cfg)))
    return _make(LocalCharacter, val, level, tuple(unit_values))


def decode_kirillov_table(obj, cfg: FieldConfig, place: Place) -> KirillovTable:
    entries = []
    for e in _list(obj, "Kirillov table"):
        rep_codes = _codes(_obj(e, "table entry").get("rep", [1]), "table entry rep",
                           place.residue())
        rep = LocalElement.from_coeffs(place, 0, rep_codes, exact=True)
        entries.append(_make(KirillovEntry, _int(_need(e, "j", "table entry"), "j"),
                             _int(e.get("level", 0), "level"), rep,
                             decode_local_number(_need(e, "value", "table entry"), cfg)))
    return _make(KirillovTable, place, tuple(entries))


def decode_spec(obj, ground: GroundField, cfg: FieldConfig) -> GlobalWhittakerSpec:
    _obj(obj, "specification")
    explicit = []
    for rec in _list(obj.get("places", []), "spec places"):
        rec = _obj(rec, "spec place record")
        place = decode_place(_need(rec, "place", "spec place record"), ground)
        datum = _obj(_need(rec, "datum", "spec place record"), "datum")
        if "unramified" in datum:
            S = decode_satake(datum["unramified"], cfg)
            explicit.append((place, _make(UnramifiedDatum, S)))
        elif "table" in datum:
            table = decode_kirillov_table(datum["table"], cfg, place)
            central = decode_local_character(
                _need(datum, "central", "tabulated datum"), cfg, place)
            explicit.append((place, TabulatedDatum(table, central)))
        else:
            raise InputError("datum must contain 'unramified' or 'table'")
    rule = []
    for deg, pair in _obj(obj.get("default_rule", {}), "default_rule").items():
        if len(_list(pair, "default rule entry")) != 2:
            raise InputError("default rule entries are pairs")
        rule.append((_key_int(deg, "degree"), tuple(decode_local_number(m, cfg) for m in pair)))
    w = obj.get("w")
    w = None if w is None else decode_place(w, ground)
    spec = _make(GlobalWhittakerSpec, ground, cfg, tuple(explicit), tuple(rule), w)
    if "S" in obj:
        declared = {decode_place(pl, ground) for pl in _list(obj["S"], "spec S")}
        if declared != set(spec.S):
            raise InputError("declared exceptional set S does not match the tabulated places")
    return spec


def decode_point(obj, ground: GroundField) -> MirabolicPoint:
    entries = []
    for rec in _list(_obj(obj, "sample point").get("entries", []), "point entries"):
        rec = _obj(rec, "point entry")
        place = decode_place(_need(rec, "place", "point entry"), ground)
        x = (decode_local_element(rec["x"], ground) if "x" in rec
             else LocalElement.exact_zero(place))
        if x.place != place:
            raise InputError("point x-component at the wrong place")
        a = _ints(rec.get("a", [0, 0]), "torus exponents")
        if len(a) != 2:
            raise InputError("torus exponents are a pair")
        entries.append((place, x, a[0], a[1]))
    central = []
    for pair in _list(obj.get("central", []), "point central"):
        if len(_list(pair, "point central entry")) != 2:
            raise InputError("point central entries are [place, exponent] pairs")
        central.append((decode_place(pair[0], ground), _int(pair[1], "central exponent")))
    return _make(MirabolicPoint, ground, tuple(entries), tuple(central))


def decode_character_family(obj, ground: GroundField, cfg: FieldConfig) -> CharacterFamily:
    _obj(obj, "character family")
    S = tuple(decode_place(pl, ground) for pl in _list(obj.get("S", []), "family S"))
    by_degree = tuple((_key_int(d, "by_degree key"), decode_local_number(v, cfg))
                      for d, v in _obj(obj.get("by_degree", {}), "by_degree").items())
    explicit = []
    for rec in _list(obj.get("explicit", []), "character records"):
        rec = _obj(rec, "character record")
        place = decode_place(_need(rec, "place", "character record"), ground)
        explicit.append((place,
                         decode_local_character(_need(rec, "character", "character record"),
                                                cfg, place)))
    return _make(CharacterFamily, ground, cfg, S, by_degree, tuple(explicit))
