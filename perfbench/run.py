#!/usr/bin/env python3
"""Benchmark of the elladic verifier: one client, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload, a table
    python3 perfbench/run.py --crosscheck                 # criterion-10 counts
    python3 perfbench/run.py --record-digests             # refresh digests.json

With --trace 0, round 0 is a warm-up: it is checked but not timed.  Then
rounds are timed for --seconds, and the timings are scaled to the speed of
a reference host (see hostspeed.py).  With --trace 1 the run is the traced
pass: a fixed set of rounds, traced, and the same rounds untraced in a
fresh interpreter for the overhead ratio; --seconds does not apply to it.

Run from the root of a checkout; elladic is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of the traced pass with --trace 1.  The line before it
records the run environment.  Records and span dumps go to .perfbench-out/.
See perfbench/README.md for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 9
TAIL_BEYOND = 10      # items slower than the tail latency
TAIL_CAP = 0.99       # highest tail percentile reported
UNITS = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms"}
CROSSCHECK_SEED = 110
CROSSCHECK_POINTS = 50
# the criterion-10 profile that ROADMAP items 2-4 claim against
CROSSCHECK_EXPECTED = {
    "function_field.expand_at.calls": 10474,
    "function_field.expand_at.distinct": 1613,
    "whittaker.whittaker_value.calls": 5200,
    "whittaker.whittaker_value.distinct": 98,
    "pipeline.gamma_support.calls": 100,
    "pipeline.gamma_support.distinct": 22,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this interpreter and exit")
    ap.add_argument("--reference", action="store_true",
                    help="run the traced pass's rounds untraced, print their busy time and exit")
    ap.add_argument("--crosscheck", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "elladic" / "__init__.py").is_file():
        print(f"perfbench: no elladic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import workloads
    if args.crosscheck:
        return crosscheck()
    if args.record_digests:
        return record_digests(workloads)
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    own_setup = time.perf_counter() - started
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    loop = Loop(wl, state, expected_digests(args.workload, args.seed))
    if args.reference:
        busy = sum(loop.run_round() for _ in range(wl.TRACE_ROUNDS))
        print(json.dumps({"busy_s": busy}))
        return 0
    if args.trace:
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        result, extra = traced_pass(loop, args, spans)
    else:
        setup_samples = [own_setup] + [setup_probe(args.workload, args.seed)
                                       for _ in range(SETUP_SAMPLES - 1)]
        result, extra = untraced_pass(loop, args.seconds, setup_samples)
    record = environment(args) | extra | {
        "rounds": loop.rounds, "attempted": loop.attempted,
        "failures": loop.failures[:5], "output_sha256": loop.sha.hexdigest(),
        "digest_checked": loop.expected is not None,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs rounds of one workload item by item, timing each call into
    elladic and checking its output outside the timed region."""

    def __init__(self, wl, state, expected):
        self.wl, self.state, self.expected = wl, state, expected
        self.rounds = 0
        self.attempted = 0
        self.latencies = []      # of the timed rounds
        self.starts = []         # perf_counter at the start of each of them
        self.timed_ok = 0
        self.round_rates = []    # items passed per busy second, per timed round
        self.ok = 0
        self.failures = []
        self.sha = hashlib.sha256()
        self.host = None         # a HostSpeed, sampled between timed items

    def run_round(self, tracer=None, timed=True) -> float:
        """One round; returns its summed item latency.  An untimed round
        is checked and counted like any other, but its latencies are not
        kept."""
        r = self.rounds
        items = self.wl.make_round(self.state, r)
        expected = self.expected if r == 0 else None
        busy = 0.0
        ok_before = self.ok
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.begin([r, i])
            t = time.perf_counter()
            try:
                out, error = self.wl.run(self.state, item), None
            except Exception as exc:     # a failed item never stops the run
                out, error = None, exc
            latency = time.perf_counter() - t
            if tracer is not None:
                tracer.end()
            busy += latency
            if timed:
                self.latencies.append(latency)
                self.starts.append(t)
                if self.host is not None:
                    self.host.after_item(latency)
            self.attempted += 1
            if error is None:
                try:
                    text = self.wl.check(self.state, item, out)
                except Exception as exc:
                    error = exc
            if error is None:
                self.sha.update(text.encode() + b"\n")
                if expected is not None and digest(text) != expected[i]:
                    error = RuntimeError("output digest differs from the recorded one")
            if error is None:
                self.ok += 1
            else:
                trace = "".join(traceback.format_exception(error, limit=-3))
                self.failures.append(f"round {r} item {i}: {trace}")
        self.rounds += 1
        if timed:
            self.timed_ok += self.ok - ok_before
            self.round_rates.append((self.ok - ok_before) / busy)
        return busy

    def until(self, seconds):
        """Whole rounds until the next one would end more than half a
        round past the deadline."""
        start = time.perf_counter()
        walls = []
        while True:
            t = time.perf_counter()
            self.run_round()
            walls.append(time.perf_counter() - t)
            if time.perf_counter() - start + 0.5 * statistics.mean(walls) >= seconds:
                return


def untraced_pass(loop, seconds, setup_samples):
    """Round 0 untimed, to fill the program's caches; then timed rounds for
    `seconds`.  The item timings are scaled to the reference host, and the
    set-up time by the median factor of the run."""
    import hostspeed
    loop.run_round(timed=False)
    loop.host = hostspeed.HostSpeed()
    loop.until(seconds)
    factors = loop.host.factors(loop.starts)
    raw, scaled = sorted(loop.latencies), sorted(
        l * f for l, f in zip(loop.latencies, factors))
    host = statistics.median(factors)
    setup = statistics.median(setup_samples)
    n = len(raw)
    tail = tail_rank(n)

    def figures(lat):
        return {"items_per_s": loop.timed_ok / sum(lat),
                "item_p50_ms": statistics.median(lat) * 1e3,
                "item_tail_ms": lat[tail - 1] * 1e3}

    metrics = {
        "setup_s": (setup * host, "s"),
        **{name: (value, UNITS[name]) for name, value in figures(scaled).items()},
        "ok_frac": (loop.ok / loop.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"percentile_items": n, "tail_percentile": 100 * tail / n,
             "tail_items_beyond": n - tail, "busy_s": sum(raw),
             "unscaled": figures(raw) | {"setup_s": setup}, "host_factor_median": host,
             "host_samples_s": loop.host.samples,
             "round_rates": loop.round_rates,
             "setup_samples_s": setup_samples}
    return result_line(loop, metrics), extra


def traced_pass(loop, args, spans):
    """Rounds 0 .. TRACE_ROUNDS-1 traced, from a cold start after set-up,
    so that every count repeats exactly for a seed.  The overhead ratio
    compares their summed item latency with that of the same rounds run
    untraced in a fresh interpreter."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = sum(loop.run_round(tracer) for _ in range(loop.wl.TRACE_ROUNDS))
    finally:
        tracer.remove()
    untraced = reference_probe(args.workload, args.seed)
    metrics = tracer.layer_metrics(traced / untraced)
    tracer.write_spans(spans)
    extra = {"traced_items": loop.attempted, "traced_busy_s": traced,
             "untraced_busy_s": untraced, "span_count": len(tracer.spans),
             "spans_file": str(spans.relative_to(ROOT)), "counts": tracer.counts()}
    return result_line(loop, metrics), extra


def tail_rank(n) -> int:
    """1-based rank of the tail latency: the highest percentile with at
    least TAIL_BEYOND items beyond it, capped at TAIL_CAP and never below
    the median.  It moves with the item count by one rank at a time, never
    by a jump between fixed percentiles."""
    return max(math.ceil(n / 2), min(math.ceil(TAIL_CAP * n), n - TAIL_BEYOND))


def result_line(loop, metrics) -> dict:
    return {"correct": loop.ok == loop.attempted, "attempted": loop.attempted,
            "failed": loop.attempted - loop.ok,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# set-up, environment, digests
# ---------------------------------------------------------------------------

def setup_probe(workload, seed) -> float:
    """Set-up time measured in a fresh interpreter, so that module-level
    caches built during set-up are paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def reference_probe(workload, seed) -> float:
    """Busy time of the traced pass's rounds, run untraced in a fresh
    interpreter, so that both start from the same cold caches."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--reference",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["busy_s"]


def git_sha():
    """The checked-out commit, read from ./.git; None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "elladic").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_digests(workload, seed):
    """Recorded per-item digests of round 0, for the default seed only."""
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text())["round0"].get(workload)


def record_digests(workloads) -> int:
    round0 = {}
    for name, wl in workloads.WORKLOADS.items():
        state = wl.setup(DEFAULT_SEED)
        round0[name] = [digest(wl.check(state, item, wl.run(state, item)))
                        for item in wl.make_round(state, 0)]
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "round0": round0}, indent=1) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


# ---------------------------------------------------------------------------
# criterion-10 cross-check and the all-workloads table
# ---------------------------------------------------------------------------

def crosscheck() -> int:
    """Traced counts of the criterion-10 input against the profile that
    ROADMAP items 2-4 use as their baseline."""
    import tracing
    import workloads
    state = workloads.build_criterion10(CROSSCHECK_SEED)
    points = workloads.pipeline.default_sample_points(
        state.ground, seed=CROSSCHECK_SEED, count=CROSSCHECK_POINTS)
    wl = workloads.WORKLOADS["pipeline_pair"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, point in enumerate(points):
            tracer.begin([0, i])
            rep = wl.run(state, point)
            tracer.end()
            wl.check(state, point, rep)
    finally:
        tracer.remove()
    counts = tracer.counts()
    bad = 0
    for name, want in CROSSCHECK_EXPECTED.items():
        got = counts[name]
        bad += got != want
        print(f"{name:40s} {got:>8d}  expected {want:>8d}  {'ok' if got == want else 'MISMATCH'}")
    return 1 if bad else 0


def run_all(args, names) -> int:
    """Every workload in its own interpreter, one after the other."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:45s} {m['value']:>14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
