"""Global n = 2 verifier over F_q(t): pure-tensor Whittaker data, the
mirabolic expansion, Fourier coefficient extraction and the end-to-end
congruence pipeline.

A global specification assigns to each place either unramified Satake
data or a tabulated Kirillov function (a finitely supported function on
k_v^x described by coset/value pairs, plus its central character).  The
synthetic sum

    phi(g) = sum over gamma in k^x of prod_v W_v(diag(gamma,1) g)

is finite here because the unramified factors vanish off dominant
exponents and tabulated factors have finite support, which bounds the
pole divisor of contributing gamma; the support is enumerated through a
Riemann-Roch space.  No automorphy is claimed for phi: every identity
verified by this module holds termwise for arbitrary pure-tensor data.

Tabulated data is evaluated only at points of the mirabolic subgroup
times the center; queries outside that domain raise UnsupportedPoint.

A spec pair is evaluated in one pass: once validate_spec_pair has made S, w
and the tables identical, each point's gamma support and each place's
expansion of gamma are computed once and serve both specs.

psi is one character of A/k, so in a gamma term the product over places
of psi_v(x_v) is psi_0 of the sum of the residue traces: one trace sum
per term, read as one psi value.  The traces, like the tabulated factors,
serve both specs; only the unramified Whittaker values are per spec.  The
orders of gamma come from its divisor, one factorization per term.

W(g), phi(g) and each coset of a Fourier coefficient are one finite sum
over gamma of a psi-free factor times psi_0 of one trace: W is the term
gamma = 1, the rational function 1, and phi the sum over the support.
_sums is the only loop over gamma terms.  The psi-free part reads only
the point's torus (the same point with every x the exact zero): gamma's
orders and each spec's product of Whittaker values, table values and
central twists; it expands gamma only at tabulated places.  The trace
reads the point's entries whose x is not the exact zero.  A unipotent
shift changes only x, as in W(n(x)g) = psi(x)W(g), so the points of one
torus share the psi-free part: per gamma, _sums keeps it and each value
(coef * psi_0(t)) * sqrt_q^half it forms in a list that its caller
passes.  W, phi and a spec pair pass a fresh list.  For the length of
one fourier_coefficient call, mirabolic_expand passes one list per
(spec, torus, sqrt_q, target, cap) and checks sqrt_q once per such
entry, so each coset adds only its traces and one read per gamma;
outside such a call nothing is kept.  The call itself reads the Fourier
gamma's divisor and builds the representatives once, and each coset's
twist is one trace sum.  An empty Kirillov table is the zero function
wherever it is read.

Per-place data is read from maps built once per object: a spec's explicit
data and its S, a point's entries, central exponents and support, and a
character family's explicit and per-degree characters.
"""

from __future__ import annotations

import random
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (ConfigMismatch, ElladicError, IncompleteData,
                     NotCongruent, NotIntegral, SpecMismatch, UnsupportedPoint)
from .function_field import (Adele, DEFAULT_ENUMERATION_CAP, Divisor,
                             GroundField, LocalElement, Place, PsiTarget,
                             RationalFunction, enumerate_places, expand_at,
                             coset_reps, psi_conductor, quotient_index,
                             residue_trace, rr_nonzero, scaled_trace)
from .padic import FieldConfig, LocalNumber, congruent_mod_m
from .satake import CharPoly, SatakeParam, char_poly, congruent, is_integral
from .whittaker import check_sqrt_q, whittaker_value

INF = float("inf")


# ---------------------------------------------------------------------------
# local data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KirillovEntry:
    """One coset of k_v^x and the value taken there: the set
    uniformizer^j * rep * (1 + p_v^level), with level 0 meaning every unit."""

    j: int
    level: int
    rep: LocalElement
    value: LocalNumber

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("coset level must be >= 0")
        if self.rep.is_zero_like or self.rep.valuation() != 0:
            raise ValueError("coset representative must be a unit")
        if not self.rep.exact_tail and len(self.rep.coeffs) < self.level:
            raise ValueError("representative carries fewer digits than its level")

    def contains(self, y: LocalElement) -> bool:
        if y.valuation() != self.j:
            return False
        if self.level == 0:
            return True
        unit = y.shift(-self.j)
        return unit.prefix(self.level) == self.rep.prefix(self.level)


@dataclass(frozen=True)
class KirillovTable:
    """A smooth compactly supported function on k_v^x, zero off the listed
    cosets.  Cosets must be pairwise disjoint."""

    place: Place
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if e.rep.place != self.place:
                raise ConfigMismatch("entry representative at the wrong place")
        for i, e1 in enumerate(self.entries):
            for e2 in self.entries[i + 1:]:
                if e1.j != e2.j:
                    continue
                m = min(e1.level, e2.level)
                if e1.rep.prefix(m) == e2.rep.prefix(m):
                    raise ValueError("overlapping cosets in Kirillov table")

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def a_valued(self) -> bool:
        return all(e.value.is_zero or e.value.v >= 0 for e in self.entries)

    def min_valuation(self):
        return min((e.j for e in self.entries), default=None)

    def max_level(self) -> int:
        return max((e.level for e in self.entries), default=0)

    def lookup(self, y: LocalElement) -> LocalNumber:
        """The table value at y in k_v^x; zero off the recorded support."""
        if y.is_exact_zero:
            raise ValueError("Kirillov functions are defined on nonzero elements")
        j = y.valuation()
        config = None
        for e in self.entries:
            config = e.value.config
            if e.j == j and e.contains(y):
                return e.value
        if config is None:
            raise ValueError("cannot produce a zero value from an empty table")
        return config.zero()

    def value_at_one(self) -> LocalNumber:
        return self.lookup(LocalElement.uniformizer_power(self.place, 0))


@dataclass(frozen=True)
class LocalCharacter:
    """A character of k_v^x: value at the uniformizer plus, for level >= 1,
    values on unit cosets mod 1 + p_v^level (units map to 1 at level 0)."""

    value_at_uniformizer: LocalNumber
    level: int = 0
    unit_values: tuple = ()

    def __post_init__(self):
        if self.value_at_uniformizer.is_zero:
            raise ValueError("character value at the uniformizer must be nonzero")
        if self.level == 0 and self.unit_values:
            raise ValueError("level 0 characters carry no unit table")
        if self.level >= 1:
            keys = [k for k, _ in self.unit_values]
            if len(set(keys)) != len(keys):
                raise ValueError("duplicate unit cosets")

    def unit_value(self, prefix: tuple) -> LocalNumber:
        for key, val in self.unit_values:
            if key == prefix:
                return val
        raise IncompleteData(f"character has no value on unit coset {prefix}")

    def evaluate(self, y: LocalElement) -> LocalNumber:
        j = y.valuation()
        out = self.value_at_uniformizer ** j
        if self.level >= 1:
            unit = y.shift(-j)
            out = out * self.unit_value(unit.prefix(self.level))
        return out


@dataclass(frozen=True)
class UnramifiedDatum:
    satake: SatakeParam

    def __post_init__(self):
        if self.satake.n != 2:
            raise ValueError("global evaluation supports rank 2 only")

    @cached_property
    def char_poly(self) -> CharPoly:
        """The characteristic polynomial of the Satake data, built on first
        use: validate_spec_pair reads it at every call, and a datum only
        ever expanded never needs it."""
        return char_poly(self.satake)


@dataclass(frozen=True)
class TabulatedDatum:
    table: KirillovTable
    central: LocalCharacter


# ---------------------------------------------------------------------------
# global specification and evaluation points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlobalWhittakerSpec:
    """Per-place local Whittaker data for one pure tensor.

    Explicitly listed places carry either datum kind; every other place is
    unramified with Satake data produced by the degree-keyed default rule.
    Tabulated places form the finite exceptional set S; at each of them
    except the distinguished place w the function must take the value 1 at
    the identity.
    """

    ground: GroundField
    config: FieldConfig
    explicit: tuple          # ((place, datum)) sorted by place
    default_rule: tuple      # ((degree, (mu1, mu2))) sorted by degree
    w: Place | None = None

    def __post_init__(self):
        listed = sorted(self.explicit, key=lambda kv: kv[0].sort_key())
        object.__setattr__(self, "explicit", tuple(listed))
        object.__setattr__(self, "default_rule",
                           tuple(sorted(self.default_rule, key=lambda kv: kv[0])))
        seen = set()
        for place, datum in self.explicit:
            if place in seen:
                raise ValueError("duplicate place in specification")
            seen.add(place)
            if place.ground != self.ground:
                raise ConfigMismatch("place over a different ground field")
            if isinstance(datum, UnramifiedDatum):
                if datum.satake.config != self.config:
                    raise ConfigMismatch("Satake data in a different coefficient field")
                if datum.satake.q != self.ground.q ** place.degree:
                    raise ValueError("Satake q does not match the place degree")
            elif isinstance(datum, TabulatedDatum):
                if datum.table.place != place:
                    raise ConfigMismatch("table attached to the wrong place")
            else:
                raise TypeError("unknown datum kind")
        # place -> datum, degree -> UnramifiedDatum and S, built once so
        # that datum_at reads one map and hands out one shared default
        # datum; attributes, not fields, so __eq__, hash and repr are
        # unchanged
        object.__setattr__(self, "_explicit", dict(self.explicit))
        object.__setattr__(self, "S", tuple(pl for pl, d in self.explicit
                                            if isinstance(d, TabulatedDatum)))
        defaults = {}
        for deg, pair in self.default_rule:
            if len(pair) != 2 or any(m.is_zero for m in pair):
                raise ValueError("default rule entries must be pairs of nonzero values")
            if deg in defaults:
                raise ValueError(f"degree {deg} listed twice in the default rule")
            defaults[deg] = UnramifiedDatum(SatakeParam(2, self.ground.q ** deg, tuple(pair)))
        object.__setattr__(self, "_defaults", defaults)
        if self.w is not None and self.w not in self.S:
            raise ValueError("the distinguished place must be tabulated")
        for place in self.S:
            if self.w is not None and place == self.w:
                continue
            datum = self._explicit[place]
            if datum.table.is_empty or datum.table.value_at_one() != self.config.one():
                raise ValueError(
                    f"tabulated place {place!r} must take the value 1 at the identity")

    def datum_at(self, place: Place):
        datum = self._explicit.get(place)
        if datum is None:
            datum = self._defaults.get(place.degree)
        if datum is not None:
            return datum
        raise IncompleteData(
            f"no default Satake rule for places of degree {place.degree}")


@dataclass(frozen=True)
class MirabolicPoint:
    """A point of Z(A) P(A) in factored form.

    entries lists (place, x, a1, a2) for the finitely many places where the
    component differs from the identity, giving the matrix
    [[u^a1, x], [0, u^a2]]; a2 must be 0 wherever tabulated data will be
    queried.  central lists uniformizer exponents of the central factor.
    A place appears at most once in each; a repeat raises ValueError.
    """

    ground: GroundField
    entries: tuple = ()
    central: tuple = ()

    def __post_init__(self):
        ents = []
        for place, x, a1, a2 in self.entries:
            if x.place != place:
                raise ConfigMismatch("x component at the wrong place")
            if not (x.is_exact_zero and a1 == 0 and a2 == 0):
                ents.append((place, x, int(a1), int(a2)))
        ents.sort(key=lambda e: e[0].sort_key())
        if len({e[0] for e in ents}) != len(ents):
            raise ValueError("duplicate place in point support")
        object.__setattr__(self, "entries", tuple(ents))
        cents = tuple(sorted(((pl, int(c)) for pl, c in self.central if c),
                             key=lambda kv: kv[0].sort_key()))
        if len({pl for pl, _ in cents}) != len(cents):
            raise ValueError("duplicate place in point central")
        object.__setattr__(self, "central", cents)
        # place -> (x, a1, a2), place -> central exponent and the support,
        # built once; attributes, not fields, so __eq__, hash and repr are
        # unchanged
        object.__setattr__(self, "_at", {e[0]: e[1:] for e in ents})
        object.__setattr__(self, "_central_at", dict(cents))
        object.__setattr__(self, "_support", tuple(sorted(
            self._at.keys() | self._central_at.keys(), key=lambda p: p.sort_key())))

    def get(self, place: Place):
        at = self._at.get(place)
        return (LocalElement.exact_zero(place), 0, 0) if at is None else at

    def central_at(self, place: Place) -> int:
        return self._central_at.get(place, 0)

    def support(self) -> tuple:
        return self._support

    @cached_property
    def torus(self) -> "MirabolicPoint":
        """The same point with every x the exact zero, built on first use:
        the psi-free part of a gamma term reads only this."""
        if all(x.is_exact_zero for _, x, _, _ in self.entries):
            return self
        return MirabolicPoint(self.ground, tuple(
            (pl, LocalElement.exact_zero(pl), a1, a2) for pl, _, a1, a2 in self.entries),
            self.central)

    def shifted_by(self, u: Adele) -> "MirabolicPoint":
        """Left translation by the unipotent adele u: x_v += u_v * unif^a2."""
        places = set(self.support()) | set(u.support())
        entries = []
        for pl in places:
            x, a1, a2 = self.get(pl)
            uv = u.get(pl)
            if not uv.is_exact_zero:
                x = x + (uv.shift(a2) if a2 else uv)
            entries.append((pl, x, a1, a2))
        shifted = MirabolicPoint(self.ground, tuple(entries), self.central)
        shifted.__dict__["torus"] = self.torus   # a shift moves only x
        return shifted


# ---------------------------------------------------------------------------
# local evaluation
# ---------------------------------------------------------------------------

def _check_mirabolic(datum, a2: int):
    if a2 != 0 and isinstance(datum, TabulatedDatum):
        raise UnsupportedPoint(
            "tabulated data is defined on the mirabolic subgroup (a2 = 0)")


def _local_factor(datum, config: FieldConfig, place: Place, gamma: RationalFunction,
                  ordg: int, a1: int, a2: int, central: int):
    """The local factor at diag(gamma,1) * torus without its psi value, as
    (coefficient, m), m = 0 once the coefficient is zero: the Whittaker
    value at the shifted exponents for unramified data, else the table
    value at gamma's unit part times u^(a1 + ordg) times the central
    twist, zero for an empty table.

    Only a table needs gamma's expansion: to the trace's precision rule
    with x = 0, and never to fewer digits than the table's max level,
    which is what its cosets read of gamma's unit part."""
    if not isinstance(datum, TabulatedDatum):
        wv = whittaker_value(datum.satake, (a1 + ordg + central, a2 + central))
        return wv.coef, wv.q_half_exp * place.degree
    table = datum.table
    if table.is_empty:
        return config.zero(), 0
    need = max(psi_conductor(place), table.max_level() + 1)
    M = max(1, table.max_level(), need - ordg + 3)
    f_val = table.lookup(expand_at(gamma, place, M).shift(a1))
    if f_val.is_zero or not central:
        return f_val, 0
    return f_val * datum.central.value_at_uniformizer ** central, 0


def _base_places(spec: GlobalWhittakerSpec, point: MirabolicPoint) -> set:
    """The point's support, the exceptional set S and infinity: the places
    every gamma term and every bound on the gamma support looks at."""
    return set(point.support()) | set(spec.S) | {spec.ground.infinity()}


def _pole_bound(spec: GlobalWhittakerSpec, point: MirabolicPoint, pl: Place):
    """The highest pole order at pl of a gamma with nonzero term: a1 - a2
    unramified, a1 - min_j tabulated, None if the table is empty."""
    _, a1, a2 = point.get(pl)
    datum = spec.datum_at(pl)
    if not isinstance(datum, TabulatedDatum):
        return a1 - a2
    if a2 != 0:
        raise UnsupportedPoint("tabulated place queried with a2 != 0")
    min_j = datum.table.min_valuation()
    return None if min_j is None else a1 - min_j


def gamma_support(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> tuple:
    """A finite superset of the gamma with nonzero term, as the nonzero
    part of a Riemann-Roch space built from the local vanishing bounds."""
    pairs = []
    for pl in _base_places(spec, point):
        bound = _pole_bound(spec, point, pl)
        if bound is None:
            return ()
        pairs.append((pl, bound))
    return rr_nonzero(Divisor.make(spec.ground, pairs), cap)


def _psi_free(specs: tuple, torus: MirabolicPoint, gamma: RationalFunction,
              target: PsiTarget) -> tuple:
    """The psi-free part of the gamma term at diag(gamma,1) * torus, a
    point whose x components are all exact zeros.

    Returns (orders, terms, fault): gamma's orders (place -> order on its
    divisor); for each spec, (coefficient, total half exponent, stop), the
    product of its local factors in place order and stop the sort key of
    the place of its first zero factor, where its product stops, None if
    there is none; and the error met at a place where some product was
    still live, None if there is none.  That place is then every live
    spec's stop, and _trace raises the error once it has read the
    point's entries up to it, so a term reports the fault a single pass
    over the places meets first.  The places are the torus support, S,
    infinity and the divisor of gamma; a place outside these has factor
    W(0, 0) = 1.  A tabulated factor is computed once for all specs, so
    they must share S, w and the tables, the only spec data it reads;
    Whittaker values are the one factor computed per spec."""
    if target.ground != specs[0].ground:
        raise ConfigMismatch("psi target built for a different ground field")
    config = specs[0].config
    orders = dict(gamma.divisor().items)
    relevant = _base_places(specs[0], torus) | orders.keys()
    coefs = [config.one()] * len(specs)
    halves = [0] * len(specs)
    stops = [None] * len(specs)
    live = range(len(specs))      # the specs whose factors are all nonzero
    fault = None
    for pl in sorted(relevant, key=Place.sort_key):
        _, a1, a2 = torus.get(pl)
        c = torus.central_at(pl)
        ordg = orders.get(pl, 0)
        try:
            data = [specs[i].datum_at(pl) for i in live]
            _check_mirabolic(data[0], a2)
            if isinstance(data[0], TabulatedDatum):
                factors = [_local_factor(data[0], config, pl, gamma, ordg, a1, a2, c)] * len(live)
            else:
                factors = [_local_factor(d, config, pl, gamma, ordg, a1, a2, c) for d in data]
        except ElladicError as err:
            fault = err
            for i in live:
                stops[i] = pl.sort_key()
            break
        nonzero = []
        for i, (val, half) in zip(live, factors):
            if val.is_zero:
                stops[i] = pl.sort_key()
            else:
                coefs[i] = coefs[i] * val
                halves[i] += half
                nonzero.append(i)
        live = nonzero
        if not live:
            break
    return orders, [(coefs[i], halves[i], None) if stops[i] is None
                    else (config.zero(), 0, stops[i]) for i in range(len(specs))], fault


def _trace(specs: tuple, point: MirabolicPoint, gamma: RationalFunction,
           free: tuple) -> int:
    """The residue-trace sum of the gamma term at diag(gamma,1) * point,
    over the point's entries whose x is not the exact zero: psi is one
    character of A/k, so the psi values of all places multiply to psi_0
    of this one sum.  free is _psi_free's result at the point's torus.

    An entry is read up to the last place where some spec's product is
    still live, with the data of those specs, as a single pass over the
    places would read it: datum_at raises IncompleteData at a place of
    the point that no rule covers, before any zero factor or psi-free
    fault beyond it, and the psi-free part's fault is raised after the
    entries up to its place."""
    orders, terms, fault = free
    stops = [stop for _, _, stop in terms]
    trace = 0
    for pl, x, _, a2 in point.entries:
        if x.is_exact_zero:
            continue
        live = specs
        if any(stops):
            key = pl.sort_key()
            live = [s for s, stop in zip(specs, stops) if stop is None or key <= stop]
            if not live:
                break
        data = [s.datum_at(pl) for s in live]
        need = psi_conductor(pl)
        if isinstance(data[0], TabulatedDatum):
            need = max(need, data[0].table.max_level() + 1)
        xv = 0 if x.is_zero_like else x.v
        gexp = expand_at(gamma, pl, max(1, need - min(xv, 0) - orders.get(pl, 0) + 3))
        _check_mirabolic(data[0], a2)
        trace += residue_trace(pl, x.shift(-a2) if a2 else x, gexp)
    if fault is not None:
        raise fault
    return trace


def _gamma_terms(specs: tuple, point: MirabolicPoint,
                 gamma: RationalFunction, target: PsiTarget) -> list:
    """The product of local values at diag(gamma,1) * point for each spec,
    as (coefficient, total half exponent): the psi-free part at the
    point's torus times psi_0 of the trace."""
    free = _psi_free(specs, point.torus, gamma, target)
    psi = target.psi0(_trace(specs, point, gamma, free))
    return [(coef, 0) if stop is not None else (coef * psi, half)
            for coef, half, stop in free[1]]


def _gamma_term(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                gamma: RationalFunction, target: PsiTarget):
    """The product of local values at diag(gamma,1) * point, as
    (coefficient, total half exponent)."""
    return _gamma_terms((spec,), point, gamma, target)[0]


def _sums(specs: tuple, point: MirabolicPoint, gammas, sqrt_q: LocalNumber,
          target: PsiTarget, terms: list) -> list:
    """For each spec, the sum over gammas of its term at diag(gamma,1) *
    point, collapsed through the supplied sqrt of q: the one loop over
    gamma terms behind W, phi and every coset of a Fourier coefficient.

    terms[i] is the i-th gamma's psi-free part at the point's torus and a
    map (spec index, t) -> (coef * psi_0(t)) * sqrt_q^half, each value
    formed the first time it is met.  A missing entry is filled in gamma
    order, so an error surfaces at the same gamma however many points of
    one torus share the list; each point adds only its traces."""
    p = specs[0].ground.p
    sums = [specs[0].config.zero()] * len(specs)
    for i, gamma in enumerate(gammas):
        if i == len(terms):
            terms.append((_psi_free(specs, point.torus, gamma, target), {}))
        free, values = terms[i]
        t = _trace(specs, point, gamma, free) % p
        for k, (coef, half, stop) in enumerate(free[1]):
            if stop is None:
                value = values.get((k, t))
                if value is None:
                    value = values[k, t] = (coef * target.powers[t]) * _power(sqrt_q, half)
                sums[k] = sums[k] + value
    return sums


@lru_cache(maxsize=64)
def _power(x: LocalNumber, e: int) -> LocalNumber:
    """x ** e, memoised: every sum collapses through the same few powers
    of sqrt(q), and a negative power costs an l-adic inverse."""
    return x ** e


# the psi-free terms shared by the cosets of the one fourier_coefficient
# call under way, keyed on (spec, torus, sqrt_q, target, cap); None outside
# such a call
_COSET_TERMS: ContextVar = ContextVar("elladic_coset_terms", default=None)


def mirabolic_expand(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                     sqrt_q: LocalNumber, target: PsiTarget,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> LocalNumber:
    """The finite sum over gamma of the Whittaker term at diag(gamma,1)g,
    collapsed to a plain field element through the supplied sqrt of q.

    Inside a fourier_coefficient call, the psi-free part of every term is
    computed once per (spec, torus, sqrt_q, target, cap), sqrt_q is
    checked once per such entry, and each point adds only its traces;
    outside one, each call checks sqrt_q and computes its own terms."""
    scope = _COSET_TERMS.get()
    if scope is None:
        scope = {}      # outside a fourier_coefficient call nothing is kept
    # the objects phi closes over are keyed by identity, which hashes in
    # constant time; the entry holds them, so no id is reused in the scope
    key = (id(spec), id(sqrt_q), id(target), cap, point.torus)
    entry = scope.get(key)
    if entry is None:
        check_sqrt_q(sqrt_q, spec.ground.q)
        entry = scope[key] = (spec, sqrt_q, target, gamma_support(spec, point, cap), [])
    elif entry[3] != gamma_support(spec, point, cap):
        # the support reads no x (a place where only x is set has pole
        # bound 0), so every point with this torus has the same one and
        # the i-th term is the i-th gamma's
        raise RuntimeError("gamma support differs between points of one torus")
    return _sums((spec,), point, entry[3], sqrt_q, target, entry[4])[0]


def whittaker_at(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                 sqrt_q: LocalNumber, target: PsiTarget) -> LocalNumber:
    """The pure-tensor Whittaker function itself at the point: the one
    term gamma = 1."""
    check_sqrt_q(sqrt_q, spec.ground.q)
    return _sums((spec,), point, (spec.ground.constant(1),), sqrt_q, target, [])[0]


def fourier_coefficient(phi, gamma: RationalFunction, point: MirabolicPoint,
                        U: Divisor, target: PsiTarget, config: FieldConfig,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> LocalNumber:
    """The gamma-th unipotent Fourier coefficient of phi at the point,
    as the exact average over the finite quotient of adeles mod k by U.

    phi must be invariant under translations from U (caller-asserted);
    the averaging denominator is a power of p, hence a unit in the
    coefficient field.  The cosets are summed in the order of coset_reps.

    What does not depend on the coset is done once per call: gamma's
    divisor, the check that target is over U's ground field, and the
    representatives.  Each coset's twist psi(-u gamma) is psi_0 of minus
    scaled_trace(u, gamma), which forms no product adele.  For the length
    of the call, mirabolic_expand shares the psi-free part of its terms
    across the shifted points and checks sqrt_q once per shared entry.
    """
    reps = coset_reps(U, cap)
    index = quotient_index(U)
    if not gamma.is_zero:
        if target.ground != U.ground:
            raise ConfigMismatch("psi target built for a different ground field")
        orders = dict(gamma.divisor().items)
    acc = config.zero()
    scope = _COSET_TERMS.set({})
    try:
        for u in reps:
            twist = config.one() if gamma.is_zero \
                else target.psi0(-scaled_trace(u, gamma, orders))
            acc = acc + twist * phi(point.shifted_by(u))
    finally:
        _COSET_TERMS.reset(scope)
    return acc * config.integer(index).inv()


def invariance_divisor(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                       extra: Divisor | None = None) -> Divisor:
    """An open subgroup divisor U fine enough that every gamma in the
    expansion support (enlarged by extra) pairs trivially with U under
    psi, making the mirabolic expansion U-invariant in the unipotent
    direction.

    The support is bounded by a pole divisor D; gamma p_v^{m_v} lands in
    Ker psi_v as soon as m_v >= D(v) shifted by the conductor of psi_v
    (two extra digits at infinity, where dt has its double pole).
    """
    if extra is None:
        extra = Divisor.zero(spec.ground)
    pairs = []
    for pl in _base_places(spec, point) | set(extra.support()):
        bound = (_pole_bound(spec, point, pl) or 0) + max(extra.get(pl), 0)
        m_v = bound + psi_conductor(pl)
        if m_v > 0:
            pairs.append((pl, m_v))
    return Divisor.make(spec.ground, pairs)


# ---------------------------------------------------------------------------
# the congruence pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointReport:
    """Everything the pipeline measured at one sample point: both
    Whittaker values, both expansion values, and the verdicts."""

    index: int
    w_values: tuple      # (LocalNumber, LocalNumber)
    phi_values: tuple    # (LocalNumber, LocalNumber)
    w_congruent: bool
    phi_congruent: bool

    @property
    def w_valuations(self) -> tuple:
        return tuple(v.valuation() for v in self.w_values)

    @property
    def phi_valuations(self) -> tuple:
        return tuple(v.valuation() for v in self.phi_values)

    @property
    def ok(self) -> bool:
        return (self.w_congruent and self.phi_congruent
                and all(v >= 0 for v in self.w_valuations)
                and all(v >= 0 for v in self.phi_valuations))


@dataclass(frozen=True)
class PipelineReport:
    points: tuple

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    def to_dict(self) -> dict:
        from .jsonio import encode_local_number
        records = []
        for p in self.points:
            w1, w2 = p.w_values
            f1, f2 = p.phi_values
            records.append({
                "index": p.index,
                "W1": encode_local_number(w1),
                "W2": encode_local_number(w2),
                "phi1": encode_local_number(f1),
                "phi2": encode_local_number(f2),
                "W_valuations": [_val_json(v) for v in p.w_valuations],
                "phi_valuations": [_val_json(v) for v in p.phi_valuations],
                "W_residues": [_residue_json(v) for v in p.w_values],
                "phi_residues": [_residue_json(v) for v in p.phi_values],
                "congruent": p.w_congruent and p.phi_congruent,
                "ok": p.ok,
            })
        return {"points": records, "ok": self.ok}


def _val_json(v):
    return "inf" if v is INF or v == INF else int(v)


def _residue_json(x: LocalNumber):
    if not x.is_zero and x.v < 0:
        return None
    return list(x.reduce())


def validate_spec_pair(spec1: GlobalWhittakerSpec, spec2: GlobalWhittakerSpec):
    """The pipeline preconditions: identical S, w and tabulated data;
    integral, congruent unramified data at every listed place and for
    every shared default degree."""
    if spec1.ground != spec2.ground or spec1.config != spec2.config:
        raise SpecMismatch("specifications over different fields")
    if spec1.S != spec2.S or spec1.w != spec2.w:
        raise SpecMismatch("exceptional sets differ")
    d1, d2 = spec1._explicit, spec2._explicit
    for pl in spec1.S:
        t1, t2 = d1[pl], d2[pl]
        if t1.table != t2.table or t1.central != t2.central:
            raise SpecMismatch(f"tabulated data differs at {pl!r}")
        if not t1.table.a_valued():
            raise NotIntegral(f"table at {pl!r} is not integrally valued")
    for pl in set(d1) | set(d2):
        if pl in spec1.S:
            continue
        _check_satake_pair(spec1.datum_at(pl), spec2.datum_at(pl), pl)
    degrees = {deg for deg, _ in spec1.default_rule} | {deg for deg, _ in spec2.default_rule}
    for deg in degrees:
        try:
            u1, u2 = spec1._defaults[deg], spec2._defaults[deg]
        except KeyError:
            raise SpecMismatch(f"default rules cover different degrees ({deg})")
        _check_satake_pair(u1, u2, f"default rule degree {deg}")


def _check_satake_pair(d1: UnramifiedDatum, d2: UnramifiedDatum, where):
    p1, p2 = d1.char_poly, d2.char_poly
    if not (is_integral(p1) and is_integral(p2)):
        raise NotIntegral(f"non-integral Satake data at {where}")
    if not congruent(p1, p2):
        raise NotCongruent(f"Satake reductions differ at {where}")


def congruence_pipeline(spec1: GlobalWhittakerSpec, spec2: GlobalWhittakerSpec,
                        samples, sqrt_q: LocalNumber, target: PsiTarget,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> PipelineReport:
    """Evaluate both Whittaker products and both expansions at every
    sample point and record integrality and residue agreement.  After
    validate_spec_pair the two specs share one gamma support per point
    and one geometry per place (_gamma_terms): one pass serves both."""
    validate_spec_pair(spec1, spec2)
    check_sqrt_q(sqrt_q, spec1.ground.q)
    specs, one = (spec1, spec2), (spec1.ground.constant(1),)
    reports = []
    for idx, point in enumerate(samples):
        w1, w2 = _sums(specs, point, one, sqrt_q, target, [])
        support = gamma_support(spec1, point, cap)
        f1, f2 = _sums(specs, point, support, sqrt_q, target, [])
        w_cong = (min(w1.valuation(), w2.valuation()) >= 0
                  and congruent_mod_m(w1, w2))
        f_cong = (min(f1.valuation(), f2.valuation()) >= 0
                  and congruent_mod_m(f1, f2))
        reports.append(PointReport(idx, (w1, w2), (f1, f2), w_cong, f_cong))
    return PipelineReport(tuple(reports))


def default_sample_points(ground: GroundField, seed: int, count: int = 50) -> tuple:
    """Deterministic sample points in Z(A)P(A): small supports over places
    of degree <= 2, x components of valuation >= -1, torus exponents in
    [-2, 2] and central exponents in [-1, 1]."""
    rng = random.Random(seed)
    places = list(enumerate_places(ground, 2))
    points = []
    attempts = 0
    while len(points) < count and attempts < 40 * count:
        attempts += 1
        k = rng.choice((1, 1, 2))
        chosen = rng.sample(places, k)
        entries = []
        for pl in chosen:
            K = pl.residue()
            v = rng.randint(-1, 1)
            ncoef = rng.randint(1, 3)
            coeffs = tuple(rng.randrange(K.order) for _ in range(ncoef))
            x = LocalElement.from_coeffs(pl, v, coeffs, exact=True)
            a1 = rng.randint(-2, 2)
            entries.append((pl, x, a1, 0))
        central = []
        if rng.random() < 0.5:
            zp = rng.choice(places)
            c = rng.randint(-1, 1)
            if c:
                central.append((zp, c))
        points.append(MirabolicPoint(ground, tuple(entries), tuple(central)))
    return tuple(points)


# ---------------------------------------------------------------------------
# central character propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterFamily:
    """A family of local characters: unramified values keyed by place
    degree away from S, explicit (possibly ramified) characters on listed
    places."""

    ground: GroundField
    config: FieldConfig
    S: tuple
    by_degree: tuple          # ((degree, LocalNumber))
    explicit: tuple = ()      # ((place, LocalCharacter))

    def __post_init__(self):
        object.__setattr__(self, "S", tuple(sorted(self.S, key=lambda p: p.sort_key())))
        object.__setattr__(self, "by_degree",
                           tuple(sorted(self.by_degree, key=lambda kv: kv[0])))
        object.__setattr__(self, "explicit",
                           tuple(sorted(self.explicit, key=lambda kv: kv[0].sort_key())))
        # place -> character and degree -> unramified character, built
        # once; attributes, not fields, so __eq__, hash and repr are
        # unchanged
        object.__setattr__(self, "_explicit", dict(self.explicit))
        object.__setattr__(self, "_by_degree",
                           {deg: LocalCharacter(val) for deg, val in self.by_degree})
        if len(set(self.S)) != len(self.S):
            raise ValueError("place listed twice in the exceptional set S")
        if len(self._explicit) != len(self.explicit):
            raise ValueError("place listed twice in the explicit characters")
        if len(self._by_degree) != len(self.by_degree):
            raise ValueError("degree listed twice in by_degree")

    def character_at(self, place: Place) -> LocalCharacter:
        chi = self._explicit.get(place)
        if chi is not None:
            return chi
        if place in self.S:
            raise IncompleteData(f"no character supplied at exceptional place {place!r}")
        chi = self._by_degree.get(place.degree)
        if chi is None:
            raise IncompleteData(f"no character value for places of degree {place.degree}")
        return chi

    def ramified_places(self) -> tuple:
        return tuple(pl for pl, chi in self.explicit if chi.level >= 1)


def character_product(fam: CharacterFamily, y: RationalFunction,
                      exclude=()) -> LocalNumber:
    """prod over places of chi_v(y), exact; relevant places are the
    support of div(y) together with every ramified or exceptional place,
    less the places in exclude."""
    if y.is_zero:
        raise ValueError("characters are evaluated on nonzero elements")
    orders = dict(y.divisor().items)
    places = set(orders) | set(fam.ramified_places()) | set(fam.S)
    out = fam.config.one()
    for pl in sorted(places, key=lambda p: p.sort_key()):
        if pl in exclude:
            continue
        chi = fam.character_at(pl)
        M = max(1, chi.level - orders.get(pl, 0) + 2)
        out = out * chi.evaluate(expand_at(y, pl, M))
    return out


@dataclass(frozen=True)
class RatioRecord:
    place: Place
    sample: str
    valuation_of_difference: object

    @property
    def ok(self) -> bool:
        return self.valuation_of_difference == INF or self.valuation_of_difference >= 1


@dataclass(frozen=True)
class CentralCharReport:
    product_failures: tuple
    ratio_records: tuple

    @property
    def ok(self) -> bool:
        return not self.product_failures and all(r.ok for r in self.ratio_records)


def central_char_propagate(fam1: CharacterFamily, fam2: CharacterFamily,
                           y_samples) -> CentralCharReport:
    """Verify the product formula for both families on principal elements,
    then derive each exceptional-place ratio through a weak-approximation
    element and check it is 1 modulo the maximal ideal.

    The derivation: for x in k_w^x pick y in k^x with y = 1 to high order
    at the other exceptional places and y = x^{-1} to high order at w;
    then chi_w(x) equals the product of chi_v(y) over v outside S, which
    uses only the unramified data the two families share congruently.
    """
    if fam1.ground != fam2.ground or fam1.config != fam2.config:
        raise ConfigMismatch("families over different fields")
    if fam1.S != fam2.S:
        raise SpecMismatch("families have different exceptional sets")
    config = fam1.config

    product_failures = []
    for i, y in enumerate(y_samples):
        for tag, fam in (("chi1", fam1), ("chi2", fam2)):
            val = character_product(fam, y)
            if val != config.one():
                product_failures.append((i, tag))

    from .function_field import weak_approx

    ratio_records = []
    for w0 in fam1.S:
        levels = []
        for fam in (fam1, fam2):
            chi = fam.character_at(w0)
            levels.append(chi.level)
        m_w = max(max(levels), 1)
        test_elements = [LocalElement.uniformizer_power(w0, 1)]
        if w0.residue().order > 2:
            # the residue of code 2, the first that is neither 0 nor 1
            test_elements.append(LocalElement.from_coeffs(w0, 0, (2,), exact=True))
        for x in test_elements:
            constraints = []
            for v in fam1.S:
                h_v = max(max(fam1.character_at(v).level,
                              fam2.character_at(v).level), 1)
                if v == w0:
                    xv = int(x.valuation())
                    target = x.inverse(m_w + abs(xv) + 2)
                    constraints.append((v, target, -xv + m_w))
                else:
                    constraints.append((v, LocalElement.uniformizer_power(v, 0), h_v))
            y = weak_approx(constraints)
            r1 = character_product(fam1, y, exclude=fam1.S)
            r2 = character_product(fam2, y, exclude=fam2.S)
            ratio = r1 / r2
            diff = ratio - config.one()
            ratio_records.append(RatioRecord(w0, repr(x), diff.valuation()))
    return CentralCharReport(tuple(product_failures), tuple(ratio_records))
