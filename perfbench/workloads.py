"""The four seeded workloads of the elladic benchmark.

Each workload is a closed loop over rounds.  A round is a fixed mix of
items drawn from the seed, so that every run of a workload sees the same
proportion of light and heavy items whatever its seed; only the items
themselves change.  Set-up builds what the program needs before its first
item (fields, psi targets, sqrt_q, specs) and is timed on its own.

Every workload has the same four steps:

    state = setup(seed)              fields, targets, specs
    items = make_round(state, r)     the generated inputs of round r
    out   = run(state, item)         the timed call into elladic
    text  = check(state, item, out)  raises CheckFailed unless out is right;
                                     returns the canonical output text

and a TRACE_ROUNDS count: the traced pass runs rounds 0 .. TRACE_ROUNDS-1,
the same work whatever the speed of the host or of the program.

Calls into elladic go through module attributes (``pipeline.X``, not a
name imported here), so that the traced pass sees them too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from elladic import cli, jsonio, pipeline, whittaker
from elladic.function_field import (Divisor, GroundField, LocalElement,
                                    PsiTarget, enumerate_places, rr_space,
                                    span_nonzero)
from elladic.padic import FieldConfig, sqrt_unit
from elladic.satake import SatakeParam


class CheckFailed(Exception):
    """An output that is not the verified answer."""


def derive(*parts) -> int:
    """A 64-bit seed from the parts, the same under every PYTHONHASHSEED."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _unit_coeffs(rng, cfg):
    """Unit coefficients below l^3, as in the acceptance criteria; the unit
    built from them carries the field's full precision."""
    coeffs = [rng.randrange(cfg.ell ** 3) for _ in range(cfg.d)]
    if all(c % cfg.ell == 0 for c in coeffs):
        coeffs[0] += rng.randrange(1, cfg.ell)
    return coeffs


def _unit(rng, cfg):
    return cfg.unit(0, _unit_coeffs(rng, cfg))


def _congruent_partner(rng, cfg, mu):
    """Entries times 1 + l*unit, shuffled: congruent by construction."""
    ell = cfg.integer(cfg.ell)
    out = [m * (cfg.one() + ell * _unit(rng, cfg)) for m in mu]
    rng.shuffle(out)
    return tuple(out)


# ---------------------------------------------------------------------------
# pipeline_pair
# ---------------------------------------------------------------------------

class PipelinePair:
    """congruence_pipeline on a congruent spec pair of the criterion-10
    shape; one item is one sample point.

    Why: geometry-bound and heavy-tailed.  Most self time is in gf and the
    expansions of function_field, and both specs recompute the same
    geometry, so caching geometry and an int-coded finite field show here
    first.  The cost of a point grows with its gamma support, of size
    2^(deg D + 1) - 1 for the pole bound D.  A round takes candidates from
    default_sample_points in order and keeps a fixed number per deg D
    (ROUND_MIX), in proportion to how often each deg D occurs among the
    candidates, so that every round is a stratified sample of the traffic.
    Points with deg D >= 6 (127 gammas and more, 9% of the candidates,
    1 to 20 s each) are left out: a run holds only a few of them, and
    their number and spread would decide every figure of the run.
    """

    name = "pipeline_pair"
    # deg D of the pole bound -> points per round (deg D <= 0 pooled).
    # Measured shares among the deg D <= 5 candidates of seeds 0-10
    # (14,080 candidates, 9.2% with deg D >= 6 left out): <=0 10.1%,
    # 1 19.2%, 2 15.3%, 3 21.5%, 4 14.9%, 5 19.1%.  For the criterion-10
    # input (seed 110, 50 points): 14%, 14%, 16%, 12%, 20%, 22%, and one
    # point of deg D 7.  Rounded to 20 points, the median falls in the
    # deg-3 class and the tail percentile in the deg-5 class.
    ROUND_MIX = {0: 2, 1: 4, 2: 3, 3: 4, 4: 3, 5: 4}
    CANDIDATES = 32
    TRACE_ROUNDS = 2

    def setup(self, seed):
        return build_criterion10(seed)

    def make_round(self, state, r):
        need = dict(self.ROUND_MIX)
        items = []
        batch = 0
        while any(need.values()):
            cands = pipeline.default_sample_points(
                state.ground, seed=derive(self.name, state.seed, r, batch),
                count=self.CANDIDATES)
            for point in cands:
                cls = max(pole_bound_degree(state, point), 0)
                if need.get(cls):
                    need[cls] -= 1
                    items.append(point)
            batch += 1
        return items

    def run(self, state, point):
        return pipeline.congruence_pipeline(state.spec1, state.spec2, (point,),
                                            state.sq, state.target)

    def check(self, state, point, rep):
        if not rep.ok:
            raise CheckFailed("a congruent pair reported a violation")
        return canonical(rep.to_dict())


class Criterion10:
    """The fields, targets and spec pair of acceptance criterion 10."""

    def __init__(self, seed, ground, cfg, target, sq, spec1, spec2):
        self.seed, self.ground, self.cfg = seed, ground, cfg
        self.target, self.sq = target, sq
        self.spec1, self.spec2 = spec1, spec2
        self.table_min_j = {pl: dict(spec1.explicit)[pl].table.min_valuation()
                            for pl in spec1.S}


def build_criterion10(seed) -> Criterion10:
    """The criterion-10 spec pair with units drawn from Random(seed), in the
    order the acceptance test draws them: seed 110 gives its exact input."""
    rng = random.Random(seed)
    ground = GroundField(2)
    cfg = FieldConfig(7, precision=12)
    target = PsiTarget.create(ground, cfg)
    sq = sqrt_unit(cfg, 2)

    def unit():
        return _unit(rng, cfg)

    s1_pl, s2_pl = ground.place([1, 1]), ground.place([1, 1, 1])

    def table(pl):
        one_le = LocalElement.uniformizer_power(pl, 0)
        return pipeline.KirillovTable(pl, (
            pipeline.KirillovEntry(0, 1, one_le, cfg.one()),
            pipeline.KirillovEntry(1, 0, one_le, cfg.integer(3)),
            pipeline.KirillovEntry(-1, 1, one_le, cfg.integer(2)),
        ))

    tabs = [(s1_pl, pipeline.TabulatedDatum(table(s1_pl),
                                            pipeline.LocalCharacter(cfg.integer(3)))),
            (s2_pl, pipeline.TabulatedDatum(table(s2_pl),
                                            pipeline.LocalCharacter(cfg.integer(5))))]
    places1, places2 = list(tabs), list(tabs)
    ell = cfg.integer(7)
    for pl in (ground.place([0, 1]), ground.infinity(), ground.place([1, 1, 0, 1])):
        mu = (unit(), unit())
        pert = tuple(m * (cfg.one() + ell * unit()) for m in mu)
        q = 2 ** pl.degree
        places1.append((pl, pipeline.UnramifiedDatum(SatakeParam(2, q, mu))))
        places2.append((pl, pipeline.UnramifiedDatum(SatakeParam(2, q, (pert[1], pert[0])))))
    rule1 = tuple((d, (unit(), unit())) for d in range(1, 13))
    rule2 = tuple((d, (m1 * (cfg.one() + ell * unit()),
                       m2 * (cfg.one() + ell * unit())))
                  for (d, (m1, m2)) in rule1)
    spec1 = pipeline.GlobalWhittakerSpec(ground, cfg, tuple(places1), rule1, w=s1_pl)
    spec2 = pipeline.GlobalWhittakerSpec(ground, cfg, tuple(places2), rule2, w=s1_pl)
    return Criterion10(seed, ground, cfg, target, sq, spec1, spec2)


def pole_bound_degree(state: Criterion10, point) -> int:
    """deg D for the pole bound D of the gammas that can contribute at the
    point: a1 at each place of the point, a1 - min_j at the tabulated
    places, summed with place degrees.  Read from the input alone, so the
    round mix stays the same when the program changes."""
    bounds = {pl: a1 - a2 for pl, _, a1, a2 in point.entries}
    for pl, min_j in state.table_min_j.items():
        bounds[pl] = bounds.get(pl, 0) - min_j
    return sum(b * pl.degree for pl, b in bounds.items())


# ---------------------------------------------------------------------------
# fourier_cosets
# ---------------------------------------------------------------------------

class FourierCase:
    def __init__(self, ground, cfg, rng):
        self.ground, self.cfg = ground, cfg
        self.target = PsiTarget.create(ground, cfg)
        self.sq = sqrt_unit(cfg, ground.q)
        rule = tuple((d, (_unit(rng, cfg), _unit(rng, cfg))) for d in range(1, 13))
        self.spec = pipeline.GlobalWhittakerSpec(ground, cfg, (), rule)
        self.finite_deg1 = [pl for pl in enumerate_places(ground, 1)
                            if not pl.is_infinity]

    def phi(self, point):
        return pipeline.mirabolic_expand(self.spec, point, self.sq, self.target)


class FourierCosets:
    """Exact Fourier coefficients of the criterion-9 shape, as coset
    averages over F_2 (l = 7, d = 1) and F_3 (l = 7, d = 2); one item is
    one coefficient, checked against its Whittaker term.

    Why: the L3/L5 path of pipeline_pair fed highly repeated inputs
    (every coset representative re-runs the whole mirabolic expansion),
    plus the coset enumeration, psi_global and extension-field l-adic
    arithmetic.  A cache that wins here must not cost pipeline_pair.  A
    round is a criterion-9 run cut to size: both fields, the identity
    point and one shifted point each, and per point two gammas of its
    support (all of it when smaller) and two outside it.  A coefficient at
    the shifted point over F_3 takes about 0.5 s, so a whole support per
    round would leave a run with three rounds.  The seed picks the Satake
    units, the place and residue of the shifted point and the gammas; the
    round mix is fixed.
    """

    name = "fourier_cosets"
    SUPPORT = 2
    OUTSIDE = 2
    TRACE_ROUNDS = 2

    def setup(self, seed):
        rng = random.Random(derive(self.name, seed))
        cfg2 = FieldConfig(7, precision=12)
        cfg3 = FieldConfig(7, d=2, precision=10)
        return (seed, (FourierCase(GroundField(2), cfg2, rng),
                       FourierCase(GroundField(3), cfg3, rng)))

    def make_round(self, state, r):
        seed, cases = state
        rng = random.Random(derive(self.name, seed, r))
        items = []
        for case in cases:
            ground = case.ground
            pl = rng.choice(case.finite_deg1)
            K = pl.residue()
            x = LocalElement.from_coeffs(pl, -1, (K.from_int(rng.randrange(1, K.order)),))
            points = (pipeline.MirabolicPoint(ground),
                      pipeline.MirabolicPoint(ground, ((pl, x, 1, 0),)))
            extra = Divisor.make(ground, [(pl, 1), (ground.infinity(), 1)])
            for point in points:
                support = pipeline.gamma_support(case.spec, point)
                U = pipeline.invariance_divisor(case.spec, point, extra=extra)
                for gamma in rng.sample(support, min(self.SUPPORT, len(support))):
                    items.append((case, point, U, gamma, True))
                inside = set(support)
                outside = [g for g in span_nonzero(ground, rr_space(extra))
                           if g not in inside]
                rng.shuffle(outside)
                for gamma in outside[:self.OUTSIDE]:
                    items.append((case, point, U, gamma, False))
        return items

    def run(self, state, item):
        case, point, U, gamma, _ = item
        return pipeline.fourier_coefficient(case.phi, gamma, point, U,
                                            case.target, case.cfg)

    def check(self, state, item, got):
        case, point, _, gamma, in_support = item
        if in_support:
            coef, half = pipeline._gamma_term(case.spec, point, gamma, case.target)
            expected = coef * case.sq ** half if not coef.is_zero else coef
            diff = got - expected
            if not (diff.is_zero or diff.valuation() >= case.cfg.precision - 2):
                raise CheckFailed("coefficient differs from its Whittaker term")
        elif not got.is_zero:
            raise CheckFailed("nonzero coefficient off the support")
        return canonical(jsonio.encode_local_number(got))


# ---------------------------------------------------------------------------
# congruence_box
# ---------------------------------------------------------------------------

class CongruenceBox:
    """check_congruence at bound 4 on perturbed pairs of the criterion-3
    shape; one item is one parameter pair.

    Why: pure L2/L4 (padic and the Jacobi-Trudi determinants of
    whittaker), with almost no finite-field work and no geometry: the
    workload of a Schur engine, and the one where finite-field and
    geometry changes must show no change.  The cost of a pair is set by
    its rank (about 0.7, 4, 25 and 145 ms for n = 1..4 on the reference
    host) and barely by l or q.  A round holds, for every l, one pair of
    rank 1, one of rank 2, two of rank 3 and three of rank 4, with q drawn
    per pair, so that it covers every (rank, l).  The median item then
    sits three quarters of the way up the rank-3 pairs.  Pairs of one rank
    cost the same work, so their latencies split by the host's fast and
    slow spells; a quantile near the lower edge of a rank flips between
    the two, one near its upper edge reads the slow spells and holds.
    """

    name = "congruence_box"
    ELLS = (3, 5, 7, 11)
    ROUND_RANKS = (1, 2, 3, 3, 4, 4, 4)
    BOUND = 4
    TRACE_ROUNDS = 3

    def setup(self, seed):
        return seed, {ell: FieldConfig(ell, precision=16) for ell in self.ELLS}

    def make_round(self, state, r):
        seed, configs = state
        rng = random.Random(derive(self.name, seed, r))
        items = []
        for ell in self.ELLS:
            cfg = configs[ell]
            for n in self.ROUND_RANKS:
                q = rng.choice([q for q in (2, 3, 4, 5) if q % ell != 0])
                base = SatakeParam(n, q, tuple(_unit(rng, cfg) for _ in range(n)))
                other = SatakeParam(n, q, _congruent_partner(rng, cfg, base.mu))
                items.append((base, other))
        return items

    def run(self, state, item):
        return whittaker.check_congruence(item[0], item[1], self.BOUND)

    def check(self, state, item, rep):
        if not rep.ok:
            raise CheckFailed("a congruent pair reported a violation")
        return canonical(rep.to_dict())


# ---------------------------------------------------------------------------
# cli_requests
# ---------------------------------------------------------------------------

def _digits_json(rng, ell, prec, residue=None):
    """A unit of Q_l as a full-precision digit record: prec digits, the
    first one nonzero (or the given residue)."""
    first = residue or [rng.randrange(1, ell)]
    rest = [[rng.randrange(ell)] for _ in range(prec - 1)]
    return {"valuation": 0, "unit_digits": [first] + rest}


def _satake_pair_json(rng, ell, prec, n, q):
    mu = [_digits_json(rng, ell, prec) for _ in range(n)]
    partner = [_digits_json(rng, ell, prec, m["unit_digits"][0]) for m in mu]
    rng.shuffle(partner)
    return [{"q": q, "mu": mu}, {"q": q, "mu": partner}]


class CliRequests:
    """In-process elladic.cli.main on a seeded stream of small JSON
    requests; one item is one request.

    Why: the CLI/JSON layer dominates (the argument parser is rebuilt on
    every call, and every request is parsed and printed as JSON), and this
    is the only workload that reaches jsonio, central_char_propagate and
    weak_approx.  Per-request latency is what a user of the command line
    feels.  A round holds two requests of each light kind and one small
    pipeline request with central characters; every request is valid and
    congruent by construction, so each must exit 0 with "ok": true.
    """

    name = "cli_requests"
    LIGHT_KINDS = ("satake", "whittaker", "congruence", "rr", "psi", "index", "expand")
    PER_KIND = 2
    ELLS = (3, 5, 7, 11)
    TRACE_ROUNDS = 40

    def setup(self, seed):
        places = {}
        for p in (2, 3):
            ground = GroundField(p)
            places[p] = [jsonio.encode_place(pl) for pl in enumerate_places(ground, 2)]
        return seed, places

    def make_round(self, state, r):
        seed, places = state
        rng = random.Random(derive(self.name, seed, r))
        items = []
        for kind in self.LIGHT_KINDS:
            for _ in range(self.PER_KIND):
                items.append(getattr(self, "_" + kind)(rng, places))
        items.append(self._pipeline(rng, places))
        return items

    def run(self, state, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, state, argv, result):
        code, text = result
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited {code}")
        if json.loads(text).get("ok") is not True:
            raise CheckFailed(f"{argv[0]} reported ok = false")
        return text

    # -- request generators --------------------------------------------------

    def _field(self, rng, prec):
        ell = rng.choice(self.ELLS)
        q = rng.choice([q for q in (2, 3, 4, 5, 7, 8, 9) if q % ell])
        return ell, q, {"ell": ell, "precision": prec}

    def _satake(self, rng, places):
        ell, q, field = self._field(rng, rng.choice((8, 16)))
        n = rng.randint(1, 3)
        data = {"field": field, "params": _satake_pair_json(rng, ell, field["precision"], n, q),
                "require_integral": True}
        return ("satake", "--input", canonical(data))

    def _whittaker(self, rng, places):
        ell, q, field = self._field(rng, 16)
        n = rng.randint(2, 3)
        param = {"q": q, "mu": [_digits_json(rng, ell, 16) for _ in range(n)]}
        weights = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(4)]
        weights.append(sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True))
        data = {"field": field, "param": param, "weights": weights}
        return ("whittaker", "--input", canonical(data))

    def _congruence(self, rng, places):
        ell, q, field = self._field(rng, 16)
        n = rng.randint(2, 3)
        data = {"field": field, "params": _satake_pair_json(rng, ell, 16, n, q)}
        return ("congruence", "--bound", str(rng.randint(2, 3)), "--input", canonical(data))

    def _divisor(self, rng, places, p, low, high):
        chosen = rng.sample(places[p], rng.randint(1, 3))
        return [[pl, rng.randint(low, high)] for pl in chosen]

    def _rr(self, rng, places):
        p = rng.choice((2, 3))
        data = {"divisor": self._divisor(rng, places, p, -3, 4)}
        return ("rr", "--p", str(p), "--input", canonical(data))

    def _rational(self, rng, p):
        num = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [1]
        den = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [1]
        return {"num": num, "den": den}

    def _psi(self, rng, places):
        p, ell = rng.choice(((2, 3), (2, 5), (2, 7), (3, 7)))
        items = [{"gamma": self._rational(rng, p)} for _ in range(3)]
        return ("psi", "--p", str(p), "--ell", str(ell), "--input",
                canonical({"items": items}))

    def _index(self, rng, places):
        p = rng.choice((2, 3))
        data = {"divisor": self._divisor(rng, places, p, 0, 4)}
        return ("index", "--p", str(p), "--input", canonical(data))

    def _expand(self, rng, places):
        p = rng.choice((2, 3))
        data = {"rational": self._rational(rng, p), "place": rng.choice(places[p]),
                "precision": rng.randint(4, 12)}
        return ("expand", "--p", str(p), "--input", canonical(data))

    def _pipeline(self, rng, places):
        """A small congruent pipeline request over F_2(t), l = 7, with
        explicit sample points whose gamma support stays below 8."""
        prec = 12
        s_place = {"finite": [1, 1]}
        unram = {"finite": [0, 1]}
        mu = [_digits_json(rng, 7, prec) for _ in range(2)]
        partner = [_digits_json(rng, 7, prec, m["unit_digits"][0]) for m in mu][::-1]
        table = {"table": [{"j": 0, "level": 1, "rep": [1], "value": 1},
                           {"j": 1, "level": 0, "rep": [1], "value": 3}],
                 "central": {"uniformizer_value": 3}}
        residues = [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(8)]

        def spec(mu_list, lift):
            rule = {str(d + 1): [r1 + 7 * lift * rng.randrange(3), r2 + 7 * lift * rng.randrange(3)]
                    for d, (r1, r2) in enumerate(residues)}
            return {"places": [{"place": unram, "datum": {"unramified": {"q": 2, "mu": mu_list}}},
                               {"place": s_place, "datum": table}],
                    "w": s_place, "default_rule": rule}

        samples = []
        for _ in range(2):
            pl = rng.choice(places[2][1:])
            coeffs = [rng.randrange(1, 2 ** len(pl["finite"][1:]))]
            entry = {"place": pl, "x": {"place": pl, "v": rng.randint(-1, 1), "coeffs": coeffs},
                     "a": [rng.randint(-1, 1), 0]}
            samples.append({"entries": [entry], "central": []})
        c = rng.choice((1, 2, 3, 4, 5, 6))

        def family(c):
            return {"S": [s_place], "by_degree": {str(d): c ** d for d in range(1, 9)},
                    "explicit": [{"place": s_place, "character": {"uniformizer_value": c}}]}

        ys = [self._rational(rng, 2) for _ in range(3)]
        data = {"ground": {"p": 2, "f": 1}, "field": {"ell": 7, "d": 1, "precision": prec},
                "spec1": spec(mu, 0), "spec2": spec(partner, 1), "samples": samples,
                "central_chars": {"chi1": family(c), "chi2": family(8 * c), "samples": ys}}
        return ("pipeline", "--input", canonical(data))


WORKLOADS = {w.name: w for w in (PipelinePair(), FourierCosets(), CongruenceBox(),
                                 CliRequests())}
