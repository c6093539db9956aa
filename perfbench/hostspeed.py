"""Host speed, measured with a fixed kernel that does not use elladic.

The benchmark runs on shared hosts whose speed drifts: the same item can
take up to 1.7 times longer in one minute than in the next, with CPU time
moving with wall time.  A run samples this kernel between items, outside
the timed region, and scales each item's latency by

    factor = REFERENCE_S / median of the WINDOW kernel times nearest the item

so that a slow spell of the host, which slows the kernel too, cancels out
of the scaled figures.  The kernel is the two kinds of interpreter work
that elladic consists of: small-integer modular arithmetic on tuples and
dicts (the finite-field and l-adic layers), and argparse and json (the
command line).  It never changes with elladic, so a faster program still
shows as a faster program.  Both the raw and the scaled figures go into
the run record.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import time

# about the median kernel time on the reference host (2 vCPUs of a shared
# Intel Xeon host, Python 3.11.7), where it ran between 7 and 10 ms over an
# hour; scaled figures read as seconds on a host that runs it in 10 ms
REFERENCE_S = 0.0100
SAMPLE_EVERY_S = 0.5     # busy seconds between two samples
FIRST_SAMPLES = 5        # taken before the first timed item
WINDOW = 9               # samples behind the factor of one item, about 5 s

_DOC = {"field": {"ell": 7, "precision": 12},
        "params": [{"q": 3, "mu": [{"valuation": 0,
                                    "unit_digits": [[i % 7] for i in range(12)]}] * 3}] * 2}


def _arithmetic(n=1500):
    acc = {}
    x = 12345
    for i in range(n):
        t = tuple((x * k + i) % 1000003 for k in range(1, 9))
        acc[t[0] % 97] = acc.get(t[0] % 97, 0) + sum(t)
        x = (x * x + 7) % 998244353
    return x, acc


def _command_line(n=3):
    text = json.dumps(_DOC, sort_keys=True)
    for _ in range(n):
        parser = argparse.ArgumentParser(prog="kernel")
        sub = parser.add_subparsers(dest="cmd")
        for name in ("a", "b", "c", "d"):
            p = sub.add_parser(name)
            p.add_argument("--input")
            p.add_argument("--p", type=int)
            p.add_argument("--bound", type=int, default=3)
        ns = parser.parse_args(["b", "--p", "3", "--input", text])
        json.dumps(json.loads(ns.input), indent=1)


def kernel_seconds() -> float:
    t = time.perf_counter()
    _arithmetic()
    _command_line()
    return time.perf_counter() - t


class HostSpeed:
    """Kernel samples of one run, taken every SAMPLE_EVERY_S busy seconds."""

    def __init__(self):
        self.times, self.samples = [], []
        for _ in range(FIRST_SAMPLES):
            self.sample()
        self.busy = 0.0

    def sample(self):
        self.times.append(time.perf_counter())
        self.samples.append(kernel_seconds())

    def after_item(self, latency: float):
        self.busy += latency
        if self.busy >= SAMPLE_EVERY_S:
            self.busy = 0.0
            self.sample()

    def factors(self, starts) -> list:
        """For each perf_counter time in `starts`, the factor that turns a
        latency measured then into one on the reference host."""
        k = min(WINDOW, len(self.samples))
        out = []
        for t in starts:
            lo = bisect.bisect_left(self.times, t) - k // 2
            lo = max(0, min(lo, len(self.samples) - k))
            out.append(REFERENCE_S / statistics.median(self.samples[lo:lo + k]))
        return out
