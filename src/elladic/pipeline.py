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
serve both specs; only the unramified Whittaker values are per spec.
Every term reads gamma's orders from the map gamma keeps (orders), built
once per object.

W(g), phi(g) and each coset of a Fourier coefficient are one finite sum
over gamma of a psi-free factor times psi_0 of one trace: W is the term
gamma = 1, the rational function 1, and phi the sum over the support.
_sums is the only loop over gamma terms.  The psi-free part (each spec's
product of Whittaker values, table values and central twists, the exact
zero once a factor is zero) is passed only gamma and the point's torus
signature, its nonzero a1, a2 and its central exponents; it expands
gamma only at tabulated places, and records the one place, last, where
the last live product stopped or a fault was met.  The trace reads the
entries whose x is not the exact zero, up to last, with the first spec's
data.  A unipotent shift changes only x, as in W(n(x)g) = psi(x)W(g), so
the points of one torus share the psi-free part: _sums reads every term
from one table per (specs, torus signature, target, sqrt_q), gamma -> one
record: per spec None for a zero product, or the p values v * psi_0(t)
its sum adds at a trace t mod p, v = coef * sqrt_q^half and v itself at
t = 0, and the traces per point entry (place, x, a1, a2).  The last _TABLES tables
outlive the calls that fill them, and a gamma's traces start over past
_TRACES; every entry is a function of its key, so W, phi, a pair and
every coset share them in any order.  gamma_support is memoised per
(spec, torus signature, support places, cap) and sqrt_q checked once per
root.  An empty Kirillov table is the zero function wherever it is read.

Per-place data is read from maps built once per object: a spec's explicit
data and its S, and a character family's explicit and per-degree
characters.  Those records, and a point's entries and central exponents,
are sorted by function_field.by_place, which refuses a repeated place
before any entry is checked or dropped.  A point stores its entries,
central exponents, support and torus signature, and keeps no per-place
map.  Every expansion of gamma or of a character's argument is sized by
the one rule trace_digits from the function, the element it meets
(x * u^(-a2) in the trace of gamma * x * u^(-a2), none for a table or
character read) and the level the read needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (ConfigMismatch, ElladicError, IncompleteData,
                     NotCongruent, NotIntegral, SpecMismatch, UnsupportedPoint)
from .function_field import (Adele, DEFAULT_ENUMERATION_CAP, Divisor,
                             GroundField, LocalElement, Place, PsiTarget,
                             RationalFunction, by_place, enumerate_places, expand_at,
                             coset_reps, psi_conductor, quotient_index,
                             residue_trace, rr_nonzero, scaled_trace,
                             trace_digits, weak_approx)
from .padic import FieldConfig, LocalNumber, congruent_mod_m, difference_valuation
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
        if self.level < 0:
            raise ValueError("character level must be >= 0")
        if self.level == 0 and self.unit_values:
            raise ValueError("level 0 characters carry no unit table")
        if self.level >= 1:
            keys = [k for k, _ in self.unit_values]
            if any(len(k) != self.level or not k[0] for k in keys):
                raise ValueError(f"unit cosets have length {self.level} and a nonzero first digit")
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
        object.__setattr__(self, "explicit", by_place(self.explicit, "specification"))
        object.__setattr__(self, "default_rule",
                           tuple(sorted(self.default_rule, key=lambda kv: kv[0])))
        for place, datum in self.explicit:
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
        # datum, and the hash of the fields, which keys the term tables;
        # attributes, not fields, so __eq__ and repr are unchanged
        object.__setattr__(self, "_hash", hash((self.ground, self.config, self.explicit,
                                                self.default_rule, self.w)))
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
            table = self._explicit[place].table
            at_one = self.config.zero() if table.is_empty else table.value_at_one()
            v, exact = difference_valuation(at_one, self.config.one())
            if exact and v != INF:
                raise ValueError(
                    f"tabulated place {place!r} must take the value 1 at the identity")

    def __hash__(self):
        return self._hash

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
    A place appears at most once in each, trivial entries and zero
    exponents included: a repeat raises ValueError (by_place).

    torus, the torus signature, is the ground field, each entry's (place,
    a1, a2) where a1 or a2 is nonzero, and central: what the psi-free part
    of a gamma term reads, the same for every unipotent shift of the point.
    """

    ground: GroundField
    entries: tuple = ()
    central: tuple = ()

    def __post_init__(self):
        ents = []
        for place, x, a1, a2 in by_place(self.entries, "point support"):
            if x.place != place:
                raise ConfigMismatch("x component at the wrong place")
            if not (x.is_exact_zero and a1 == 0 and a2 == 0):
                ents.append((place, x, int(a1), int(a2)))
        object.__setattr__(self, "entries", tuple(ents))
        cents = tuple((pl, int(c)) for pl, c in by_place(self.central, "point central") if c)
        object.__setattr__(self, "central", cents)
        # the support and the torus signature, built once; attributes, not
        # fields, so __eq__, hash and repr are unchanged
        object.__setattr__(self, "_support", tuple(sorted(
            {e[0] for e in ents} | {pl for pl, _ in cents}, key=lambda p: p.sort_key())))
        object.__setattr__(self, "torus", (self.ground, tuple(
            (pl, a1, a2) for pl, _, a1, a2 in ents if a1 or a2), cents))

    def support(self) -> tuple:
        return self._support

    def shifted_by(self, u: Adele) -> "MirabolicPoint":
        """Left translation by the unipotent adele u: x_v += u_v * unif^a2."""
        at = {pl: (x, a1, a2) for pl, x, a1, a2 in self.entries}
        for pl, uv in u.items:
            x, a1, a2 = at.get(pl) or (LocalElement.exact_zero(pl), 0, 0)
            at[pl] = (x + (uv.shift(a2) if a2 else uv), a1, a2)
        return MirabolicPoint(self.ground, tuple((pl, *e) for pl, e in at.items()),
                              self.central)


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

    Only a table needs gamma's expansion, to the digits trace_digits
    gives for a table read at the table's max level."""
    if not isinstance(datum, TabulatedDatum):
        wv = whittaker_value(datum.satake, (a1 + ordg + central, a2 + central))
        return wv.coef, wv.q_half_exp * place.degree
    table = datum.table
    if table.is_empty:
        return config.zero(), 0
    gexp = expand_at(gamma, place, trace_digits(place, None, gamma, table.max_level()))
    f_val = table.lookup(gexp.shift(a1))
    if f_val.is_zero or not central:
        return f_val, 0
    return f_val * datum.central.value_at_uniformizer ** central, 0


def _base_places(spec: GlobalWhittakerSpec, places) -> set:
    """The given places of a point, the exceptional set S and infinity:
    the places every gamma term and every bound on the gamma support
    looks at."""
    return set(places) | set(spec.S) | {spec.ground.infinity()}


def _pole_bound(spec: GlobalWhittakerSpec, pl: Place, a1: int, a2: int):
    """The highest pole order at pl of a gamma with nonzero term: a1 - a2
    unramified, a1 - min_j tabulated, None if the table is empty."""
    datum = spec.datum_at(pl)
    _check_mirabolic(datum, a2)
    if not isinstance(datum, TabulatedDatum):
        return a1 - a2
    min_j = datum.table.min_valuation()
    return None if min_j is None else a1 - min_j


def gamma_support(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> tuple:
    """A finite superset of the gamma with nonzero term, as the nonzero
    part of a Riemann-Roch space built from the local vanishing bounds.
    It reads the point's a1, a2 (its torus signature) and the places of
    its support, never x, so the cosets of a Fourier coefficient share it."""
    return _support(spec, point.torus, point.support(), cap)


@lru_cache(maxsize=64)
def _support(spec: GlobalWhittakerSpec, torus: tuple, places: tuple, cap: int) -> tuple:
    """gamma_support, memoised per (spec, torus signature, support places,
    cap); an error is raised afresh at every call."""
    exps = {pl: (a1, a2) for pl, a1, a2 in torus[1]}
    pairs = []
    for pl in _base_places(spec, places):
        bound = _pole_bound(spec, pl, *exps.get(pl, (0, 0)))
        if bound is None:
            return ()
        pairs.append((pl, bound))
    return rr_nonzero(Divisor.make(spec.ground, pairs), cap)


def _psi_free(specs: tuple, torus: tuple, gamma: RationalFunction,
              target: PsiTarget) -> tuple:
    """The psi-free part of the gamma term at diag(gamma,1) times a point
    of the torus signature torus, its whole input besides gamma, so the
    same for every point of that torus.

    Returns (terms, last, fault): for each spec, (coefficient, total half
    exponent), the product of its local factors in place order, (exact
    zero, 0) once a factor is zero; the sort key of the place where the
    last live product stopped or where fault was met, None if neither;
    and the error met at a place where some product was still live, None
    if there is none.  _trace reads the point's entries up to last and
    then raises fault, so a term reports the fault a single pass over the
    places meets first; terms are read only when fault is None.  The
    places are those of the torus signature, S, infinity and the zeros
    and poles of gamma; a place outside these has factor W(0, 0) = 1.  A datum's kind
    is read from the first spec and a tabulated factor computed once for
    all specs, so they must share S, w, the tables and the degrees their
    rules cover, as validate_spec_pair makes them; Whittaker values are
    the one factor computed per spec."""
    if target.ground != specs[0].ground:
        raise ConfigMismatch("psi target built for a different ground field")
    config, orders = specs[0].config, gamma.orders
    _, axes, central = torus
    exps = {pl: (a1, a2) for pl, a1, a2 in axes}
    central = dict(central)
    relevant = _base_places(specs[0], exps.keys() | central.keys()) | orders.keys()
    terms = [(config.one(), 0)] * len(specs)
    for pl in sorted(relevant, key=Place.sort_key):
        a1, a2 = exps.get(pl, (0, 0))
        args = (config, pl, gamma, orders.get(pl, 0), a1, a2, central.get(pl, 0))
        try:
            datum = specs[0].datum_at(pl)
            _check_mirabolic(datum, a2)
            shared = _local_factor(datum, *args) if isinstance(datum, TabulatedDatum) else None
            for k, (coef, half) in enumerate(terms):
                if not coef.is_zero:
                    val, h = shared or _local_factor(specs[k].datum_at(pl), *args)
                    terms[k] = (config.zero(), 0) if val.is_zero else (coef * val, half + h)
        except ElladicError as err:
            return terms, pl.sort_key(), err
        if all(coef.is_zero for coef, _ in terms):
            return terms, pl.sort_key(), None
    return terms, None, None


def _trace(spec: GlobalWhittakerSpec, point: MirabolicPoint, gamma: RationalFunction,
           entry: tuple) -> int:
    """The residue-trace sum of the gamma term at diag(gamma,1) * point,
    over the point's entries whose x is not the exact zero: psi is one
    character of A/k, so the psi values of all places multiply to psi_0
    of this one sum.  At an entry (place, x, a1, a2) the trace is of
    gamma * x * u^(-a2), gamma expanded as far as trace_digits gives for
    x * u^(-a2).  entry is gamma's record (see _sums); rows is not read.

    Entries are read up to the record's last place, with spec's data, as
    a single pass over the places would read them: datum_at raises
    IncompleteData at a place of the point that no rule covers, before
    any zero factor or fault beyond it, and the record's fault is raised
    after the entries up to its place.  For a spec pair, spec is the
    first: under _psi_free's precondition, each datum kind, table level
    and missing rule is the same for both.

    traces maps a point entry (place, x, a1, a2) to its trace, a function
    of the entry and gamma; a trace that raised nothing is stored, in a
    map emptied first if it already holds _TRACES."""
    _, last, fault, memo = entry
    trace = 0
    for item in point.entries:
        pl, x, _, a2 = item
        if x.is_exact_zero:
            continue
        if last is not None and pl.sort_key() > last:
            break
        known = memo.get(item)
        if known is not None:
            trace += known
            continue
        datum = spec.datum_at(pl)
        _check_mirabolic(datum, a2)
        level = datum.table.max_level() if isinstance(datum, TabulatedDatum) else 0
        x = x.shift(-a2) if a2 else x
        gexp = expand_at(gamma, pl, trace_digits(pl, x, gamma, level))
        if len(memo) >= _TRACES:
            memo.clear()
        t = memo[item] = residue_trace(pl, x, gexp)
        trace += t
    if fault is not None:
        raise fault
    return trace


def _gamma_term(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                gamma: RationalFunction, target: PsiTarget):
    """The product of local values at diag(gamma,1) * point, as
    (coefficient, total half exponent): the psi-free part times psi_0 of
    the trace, (exact zero, 0) once a factor is zero."""
    terms, last, fault = _psi_free((spec,), point.torus, gamma, target)
    psi = target.psi0(_trace(spec, point, gamma, (None, last, fault, {})))
    coef, half = terms[0]
    return coef * psi, half


def _sums(specs: tuple, point: MirabolicPoint, gammas, sqrt_q: LocalNumber,
          target: PsiTarget) -> list:
    """For each spec, the sum over gammas of its term at diag(gamma,1) *
    point, collapsed through the supplied sqrt of q: the one loop over
    gamma terms behind W, phi and every coset of a Fourier coefficient.

    Terms come from the _terms table of the point's torus signature:
    gamma -> (rows, last, fault, traces), made when gamma is first met
    from gamma and the torus signature alone.  rows is None if every
    product is the exact zero, else per spec None for a zero product or
    the p values v * psi_0(t), one per trace t mod p, where v = coef *
    sqrt_q^half is read once and is itself the value at t = 0.
    The trace, memoised in traces, is read up to last for every term, as
    it may raise; a record whose fault is set is not kept, so each call
    raises a fault of its own.  Several specs must share S, w, the tables
    and the degrees their rules cover, as validate_spec_pair makes them:
    the trace reads the first spec's data for all."""
    p = specs[0].ground.p
    table = _terms(specs, point.torus, target, sqrt_q)
    sums = [specs[0].config.zero()] * len(specs)
    for gamma in gammas:
        entry = table.get(gamma)
        if entry is None:
            terms, last, fault = _psi_free(specs, point.torus, gamma, target)
            rows = None if fault is not None or all(c.is_zero for c, _ in terms) else tuple(
                None if coef.is_zero else
                (v := coef * _power(sqrt_q, half), *[v * zeta for zeta in target.powers[1:]])
                for coef, half in terms)
            entry = (rows, last, fault, {})
            if fault is None:
                table[gamma] = entry
        t = _trace(specs[0], point, gamma, entry) % p
        for k, row in enumerate(entry[0] or ()):
            if row is not None:
                sums[k] = sums[k] + row[t]
    return sums


# how many gamma-term tables _terms keeps, and how many traces a gamma's
# traces map holds before it starts over
_TABLES = 16
_TRACES = 64


@lru_cache(maxsize=_TABLES)
def _terms(specs: tuple, torus: tuple, target: PsiTarget, sqrt_q: LocalNumber) -> dict:
    """The gamma-term table _sums fills, empty when made and kept until
    _TABLES newer ones evict it: every entry is a function of the key."""
    return {}


@lru_cache(maxsize=64)
def _power(x: LocalNumber, e: int) -> LocalNumber:
    """x ** e, memoised: every sum collapses through the same few powers
    of sqrt(q), and a negative power costs an l-adic inverse."""
    return x ** e


def mirabolic_expand(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                     sqrt_q: LocalNumber, target: PsiTarget,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> LocalNumber:
    """The finite sum over gamma of the Whittaker term at diag(gamma,1)g,
    collapsed to a plain field element through the supplied sqrt of q.
    sqrt_q is checked, once per root, before the memoised gamma support
    is read; the terms come from the table of the point's torus signature
    (see _sums), which outlives the call, so the points of one torus
    share each gamma's psi-free part and traces."""
    check_sqrt_q(sqrt_q, spec.ground.q)
    return _sums((spec,), point, gamma_support(spec, point, cap), sqrt_q, target)[0]


def whittaker_at(spec: GlobalWhittakerSpec, point: MirabolicPoint,
                 sqrt_q: LocalNumber, target: PsiTarget) -> LocalNumber:
    """The pure-tensor Whittaker function itself at the point: the one
    term gamma = 1."""
    check_sqrt_q(sqrt_q, spec.ground.q)
    return _sums((spec,), point, (spec.ground.constant(1),), sqrt_q, target)[0]


def fourier_coefficient(phi, gamma: RationalFunction, point: MirabolicPoint,
                        U: Divisor, target: PsiTarget, config: FieldConfig,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> LocalNumber:
    """The gamma-th unipotent Fourier coefficient of phi at the point,
    as the exact average over the finite quotient of adeles mod k by U.

    phi must be invariant under translations from U (caller-asserted);
    the averaging denominator is a power of p, hence a unit in the
    coefficient field.  The cosets are summed in the order of coset_reps.
    The target's check and the representatives are made once per call;
    each coset's twist psi(-u gamma) is psi_0 of minus scaled_trace(u,
    gamma), which forms no product adele and traces each component
    (place, u_v) once per call.  The shifted points share a torus
    signature, so a phi built on mirabolic_expand reads one gamma-term
    table for all of them (see _sums).
    """
    reps = coset_reps(U, cap)
    index = quotient_index(U)
    if not gamma.is_zero and target.ground != U.ground:
        raise ConfigMismatch("psi target built for a different ground field")
    acc, traces = config.zero(), {}
    for u in reps:
        twist = config.one() if gamma.is_zero \
            else target.psi0(-scaled_trace(u, gamma, traces))
        acc = acc + twist * phi(point.shifted_by(u))
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
    exps = {pl: (a1, a2) for pl, a1, a2 in point.torus[1]}
    pairs = []
    for pl in _base_places(spec, point.support()) | set(extra.support()):
        bound = (_pole_bound(spec, pl, *exps.get(pl, (0, 0))) or 0) + max(extra.get(pl), 0)
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
    return "inf" if v == INF else int(v)


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
    and one geometry per place (_psi_free and _trace): one _sums pass
    serves both."""
    validate_spec_pair(spec1, spec2)
    check_sqrt_q(sqrt_q, spec1.ground.q)
    specs, one = (spec1, spec2), (spec1.ground.constant(1),)
    reports = []
    for idx, point in enumerate(samples):
        w1, w2 = _sums(specs, point, one, sqrt_q, target)
        support = gamma_support(spec1, point, cap)
        f1, f2 = _sums(specs, point, support, sqrt_q, target)
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
    for _ in range(count):
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
        object.__setattr__(self, "explicit", by_place(self.explicit, "explicit characters"))
        # place -> character and degree -> unramified character, built
        # once; attributes, not fields, so __eq__, hash and repr are
        # unchanged
        object.__setattr__(self, "_explicit", dict(self.explicit))
        object.__setattr__(self, "_by_degree",
                           {deg: LocalCharacter(val) for deg, val in self.by_degree})
        if len(set(self.S)) != len(self.S):
            raise ValueError("place listed twice in the exceptional set S")
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
    places = set(y.orders) | set(fam.ramified_places()) | set(fam.S)
    out = fam.config.one()
    for pl in sorted(places, key=lambda p: p.sort_key()):
        if pl in exclude:
            continue
        chi = fam.character_at(pl)
        M = trace_digits(pl, None, y, chi.level)
        out = out * chi.evaluate(expand_at(y, pl, M))
    return out


@dataclass(frozen=True)
class RatioRecord:
    """valuation_of_difference is v(ratio - 1) or difference_valuation's bound."""

    place: Place
    sample: str
    valuation_of_difference: object

    @property
    def ok(self) -> bool:
        return self.valuation_of_difference >= 1


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
            v, exact = difference_valuation(character_product(fam, y), config.one())
            if exact and v != INF:
                product_failures.append((i, tag))

    # one level per exceptional place, in S order, so the first place
    # without a character raises first
    h = {v: max(fam1.character_at(v).level, fam2.character_at(v).level, 1) for v in fam1.S}
    ratio_records = []
    for w0 in fam1.S:
        m_w = h[w0]
        test_elements = [LocalElement.uniformizer_power(w0, 1)]
        if w0.residue().order > 2:
            # the residue of code 2, the first that is neither 0 nor 1
            test_elements.append(LocalElement.from_coeffs(w0, 0, (2,), exact=True))
        for x in test_elements:
            constraints = []
            for v in fam1.S:
                if v == w0:
                    xv = int(x.valuation())
                    target = x.inverse(m_w + abs(xv) + 2)
                    constraints.append((v, target, -xv + m_w))
                else:
                    constraints.append((v, LocalElement.uniformizer_power(v, 0), h[v]))
            y = weak_approx(constraints)
            r1 = character_product(fam1, y, exclude=fam1.S)
            r2 = character_product(fam2, y, exclude=fam2.S)
            v, _ = difference_valuation(r1 / r2, config.one())
            ratio_records.append(RatioRecord(w0, repr(x), v))
    return CentralCharReport(tuple(product_failures), tuple(ratio_records))
