"""The traced pass: spans at the public boundary functions of L3-L6 and the
stdlib profiler for self time and the L1/L2 call counts.

Spans are recorded by wrappers that this module binds, for the duration of
the pass, in every elladic module namespace that holds the original
function; src/elladic is not changed.  A span is (name, start, end,
parent span, item id).  Spans stay in memory and are written out when the
pass ends.  A per-call span around the millions of GF.mul calls would cost
more than the work, so L1/L2 counts come from the profiler instead.

A layer's self time is the profiler's own time of the functions defined in
that module, plus the share of builtin and stdlib time (json, argparse,
pow, tuple, ...) spent on behalf of it.  That share follows the caller
graph up to the nearest elladic or benchmark function.  Time in benchmark
functions, the wrappers included, belongs to no layer.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import pstats
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import elladic
from elladic import (cli, function_field, gf, jsonio, padic, pipeline, satake,
                     whittaker)

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in
           (gf, padic, function_field, satake, whittaker, pipeline, cli, jsonio)}

# public boundary functions wrapped with spans, by module
BOUNDARY = {
    "function_field": ("expand_at", "rr_space", "span_nonzero", "coset_reps",
                       "quotient_index", "psi_local", "psi_global", "scale_adele",
                       "weak_approx"),
    "satake": ("char_poly", "complete_homogeneous_table"),
    "whittaker": ("whittaker_value", "schur_value", "check_congruence"),
    "pipeline": ("gamma_support", "invariance_divisor", "whittaker_at",
                 "mirabolic_expand", "fourier_coefficient", "congruence_pipeline",
                 "central_char_propagate"),
    "cli": ("main", "build_parser"),
    "jsonio": tuple(n for n in dir(jsonio) if n.startswith(("decode_", "encode_"))),
}
DISTINCT_ARGS = {"function_field.expand_at", "whittaker.whittaker_value"}
DISTINCT_RESULTS = {"pipeline.gamma_support"}
SIZED_RESULTS = {"pipeline.gamma_support", "function_field.span_nonzero",
                 "function_field.coset_reps"}
PARSE_SPANS = ("cli.build_parser", "cli.parse_args")
JSON_SPANS = ("cli.json.loads", "cli.json.dumps")

# L1/L2 functions counted by the profiler
PROFILED_CALLS = {
    "gf.mul.calls": (gf.GF.mul, gf.ExtField.mul),
    "gf.add.calls": (gf.GF.add, gf.ExtField.add),
    "gf.inv.calls": (gf.GF.inv, gf.ExtField.inv),
    "gf.fp_mul.calls": (gf.fp_mul,),
    "padic.mul.calls": (padic.LocalNumber.__mul__,),
    "padic.inv.calls": (padic.LocalNumber.inv,),
}

PACKAGE_DIR = Path(elladic.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent


class Tracer:
    """Installs the wrappers and the profiler; records only while active."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, item]
        self.stack = []
        self.item = None
        self.active = False
        self.calls = Counter()
        self.distinct = defaultdict(set)
        self.sizes = Counter()
        self.profiler = cProfile.Profile()
        self._saved = []         # (namespace, name, original)

    # -- install / remove ----------------------------------------------------

    def install(self):
        for mod_name, names in BOUNDARY.items():
            module = MODULES[mod_name]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(original, f"{mod_name}.{name}")
                for ns in MODULES.values():
                    if ns.__dict__.get(name) is original:
                        self._rebind(ns, name, wrapper)
        proxy = types.SimpleNamespace(
            loads=self._wrap(json.loads, JSON_SPANS[0]),
            dumps=self._wrap(json.dumps, JSON_SPANS[1]),
            JSONDecodeError=json.JSONDecodeError)
        self._rebind(cli, "json", proxy)
        build_parser = cli.build_parser

        def build_parser_with_traced_parse():
            parser = build_parser()
            parser.parse_args = self._wrap(parser.parse_args, PARSE_SPANS[1])
            return parser

        self._rebind(cli, "build_parser", build_parser_with_traced_parse)

    def remove(self):
        for ns, name, original in reversed(self._saved):
            setattr(ns, name, original)
        self._saved.clear()

    def _rebind(self, ns, name, value):
        self._saved.append((ns, name, getattr(ns, name)))
        setattr(ns, name, value)

    def _wrap(self, fn, name):
        tracer = self
        signature = inspect.signature(fn) if name in DISTINCT_ARGS else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.item]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer.calls[name] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.distinct[name].add(tuple(bound.arguments.values()))
            if name in DISTINCT_RESULTS:
                tracer.distinct[name].add(result)
            if name in SIZED_RESULTS:
                tracer.sizes[name] += len(result)
            return result

        return traced

    # -- recording -----------------------------------------------------------

    def begin(self, item):
        self.item = item
        self.active = True
        self.profiler.enable()

    def end(self):
        self.profiler.disable()
        self.active = False
        self.item = None

    # -- results -------------------------------------------------------------

    def span_seconds(self, names) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def counts(self) -> dict:
        """Exact counts of the traced pass, by metric name."""
        stats = pstats.Stats(self.profiler).stats
        out = {}
        for metric, fns in PROFILED_CALLS.items():
            out[metric] = sum(stats.get(_label(f), (0, 0))[1] for f in fns)
        for name in ("function_field.expand_at", "function_field.rr_space",
                     "function_field.psi_local", "whittaker.schur_value",
                     "whittaker.whittaker_value", "satake.complete_homogeneous_table",
                     "pipeline.gamma_support", "pipeline.mirabolic_expand",
                     "pipeline.fourier_coefficient"):
            out[f"{name}.calls"] = self.calls[name]
        for name in sorted(DISTINCT_ARGS | DISTINCT_RESULTS):
            out[f"{name}.distinct"] = len(self.distinct[name])
        out["pipeline.gamma_support.terms"] = self.sizes["pipeline.gamma_support"]
        out["function_field.span_nonzero.elements"] = self.sizes["function_field.span_nonzero"]
        out["function_field.coset_reps.reps"] = self.sizes["function_field.coset_reps"]
        return out

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric of BENCHMARK.json as (value, unit)."""
        own = self_times(pstats.Stats(self.profiler).stats)
        metrics = {f"{layer}.self_s": (own.get(layer, 0.0), "s") for layer in MODULES}
        counts = self.counts()
        for name, value in counts.items():
            if not name.endswith(".distinct"):
                metrics[name] = (value, "count")
        for name in sorted(DISTINCT_ARGS | DISTINCT_RESULTS):
            calls = counts[f"{name}.calls"]
            frac = counts[f"{name}.distinct"] / calls if calls else 1.0
            metrics[f"{name}.distinct_frac"] = (frac, "frac")
        metrics["cli.parse_s"] = (self.span_seconds(PARSE_SPANS), "s")
        metrics["cli.json_s"] = (self.span_seconds(JSON_SPANS), "s")
        metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return metrics

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "item"]) + "\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, item]) + "\n")


def _label(fn):
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _owner(key):
    """The layer a profiler entry belongs to: an elladic module name,
    "bench", or None for builtins and the stdlib."""
    filename = key[0]
    if filename.startswith(("~", "<")):
        return None
    parent = Path(filename).resolve().parent
    if parent == PACKAGE_DIR:
        return Path(filename).stem
    if parent == BENCH_DIR:
        return "bench"
    return None


def self_times(stats) -> dict:
    """Own time per layer, with builtin and stdlib time charged up the
    caller graph in proportion to the cumulative time of each caller edge."""
    shares = {}

    def share(key, visiting):
        if key in shares:
            return shares[key]
        owner = _owner(key)
        if owner is not None:
            return {owner: 1.0}
        if key in visiting:
            return {}
        visiting.add(key)
        callers = stats[key][4] if key in stats else {}
        weights = {ck: edge[3] or edge[1] for ck, edge in callers.items() if ck != key}
        out = defaultdict(float)
        total = 0.0
        for ck, w in weights.items():
            parts = share(ck, visiting)
            if parts and w:
                total += w
                for layer, frac in parts.items():
                    out[layer] += w * frac
        visiting.discard(key)
        result = {k: v / total for k, v in out.items()} if total else {"bench": 1.0}
        shares[key] = result
        return result

    times = defaultdict(float)
    for key, (_, _, tt, _, _) in stats.items():
        for layer, frac in share(key, set()).items():
            times[layer] += tt * frac
    return dict(times)
