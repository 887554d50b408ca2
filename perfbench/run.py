#!/usr/bin/env python3
"""Benchmark for quivercount: one workload per process, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload bfs-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, with every time scaled to a
fixed host speed by a reference loop from ``gauge.py``; ``--trace 1`` alternates
untraced passes with passes that record spans around each layer's calls,
prints the per-layer metrics and writes the spans under ``.perfbench-out/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from types import SimpleNamespace

import gauge
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIB_MODULES = ("quiver", "canonical", "mutation_class", "classify", "series", "counting")
SETUP_REPEATS = 5  # at least this many set-ups ...
SETUP_MIN_S = 2.0  # ... and at least this long in total
SPAN_DIR = ".perfbench-out"

# The host speed reference that slows most like each workload; see gauge.py
REFERENCES = {
    "bfs-sweep": gauge.SEARCH,
    "classify-walks": gauge.SEARCH,
    "series-oracle": gauge.FRACTIONS,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "item_p50_us": "us",
    "item_tail_us": "us",
}
LAYER_STAT_UNITS = {
    "calls": "count",
    "s": "s",
    "us_per_call": "us",
    "self_s": "s",
    "self_us_per_call": "us",
    "share": "fraction",
}
EXTRA_LAYER_UNITS = {
    "mutation_class.members": "count",
    "mutation_class.new_per_key": "ratio",
    "classify.accept_ratio": "ratio",
    "series.terms": "count",
    "trace.overhead_frac": "ratio",
}


def layer_metric_units():
    units = {
        f"{span}.{stat}": unit
        for span in tracing.SPAN_NAMES
        for stat, unit in LAYER_STAT_UNITS.items()
    }
    units.update(EXTRA_LAYER_UNITS)
    return units


def import_library():
    """Import the package afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m.split(".")[0] == "quivercount"]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"quivercount.{m}") for m in LIB_MODULES}
    )


def set_up(workload, seed, scale, reference):
    """Import the library and build the inputs, over and over.

    Returns the modules and inputs of the last set-up and the median set-up
    time, scaled by the host speed gauge.  Every repeat must build the same
    inputs.
    """
    times, starts, digests = [], [], set()
    g = gauge.Gauge(reference)
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        # drop the previous set-up first, so that peak memory holds one copy
        lib = inputs = raw = None
        gc.collect()
        g.sample()
        t0 = time.perf_counter()
        lib = import_library()
        raw = workload.make_inputs(seed, scale)
        inputs = workload.to_program(lib, raw) if workload.to_program else raw
        times.append(time.perf_counter() - t0)
        starts.append(t0)
        digests.add(hash(repr(raw)))
    g.sample()
    if len(digests) != 1:
        raise RuntimeError("the same seed built different inputs")
    # the inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    scaled = [t * g.factor_at(t0) for t, t0 in zip(times, starts)]
    return lib, inputs, statistics.median(scaled)


def _no_mark(item):
    pass


class Totals:
    """Checks, exact counts and the scaled time of each timed piece,
    folded over the passes of a run."""

    def __init__(self):
        self.pass_s = []
        self.factors = []  # median host speed factor of each calibrated pass
        self.attempted = self.failed = 0
        self.items = self.counts = None
        self.failures = []
        # per pass, the scaled seconds of each item, then each other piece;
        # packed, so that the run's own memory barely grows with its passes
        self.samples = []
        self.rest = []  # scaled untimed remainder of each pass
        self.n_items = 0
        self.sizes = []  # items each timed item covers

    def add(self, res, pass_s, g=None):
        if self.counts is None:
            self.items, self.counts = res.items, res.counts
        elif (res.items, res.counts) != (self.items, self.counts):
            raise RuntimeError(f"exact counts differ between passes: {self.counts}, {res.counts}")
        self.pass_s.append(pass_s)
        self.attempted += res.attempted
        self.failed += res.failed
        self.failures = self.failures or res.failures
        self.n_items = len(res.latencies)
        self.sizes = res.sizes or [1] * self.n_items
        if g is None:
            return
        pieces = res.latencies + res.other
        starts = res.starts + res.other_starts
        self.samples.append(array("d", (t * g.factor_at(t0) for t, t0 in zip(pieces, starts))))
        factor = g.median_factor()
        self.factors.append(factor)
        self.rest.append((pass_s - sum(pieces) - g.spent) * factor)

    def typical(self):
        """Median scaled time of each timed piece over the passes."""
        return [statistics.median(piece) for piece in zip(*self.samples)]

    def pass_estimate(self):
        """One pass's scaled time: each timed piece at its median over the
        passes, plus the median untimed rest."""
        return statistics.median(self.rest) + sum(self.typical())


def timed_passes(workload, lib, inputs, seconds, fault, reference):
    """Repeat whole passes while the next one is expected to end in time.

    At least one pass runs.  A gauge samples the host's speed around the
    timed pieces of each pass; see ``gauge.py``.
    """
    totals = Totals()
    start = time.perf_counter()
    while True:
        g = gauge.Gauge(reference)
        t0 = time.perf_counter()
        g.sample()
        res = workload.run_pass(lib, inputs, g.mark, fault)
        g.sample()
        totals.add(res, time.perf_counter() - t0, g)
        if time.perf_counter() - start + statistics.median(totals.pass_s) > seconds:
            return totals


def tail_fraction(count):
    """Highest quantile of ``count`` samples with ten samples beyond it."""
    return max(count - 10, 1) / count


def quantile(sorted_values, q):
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def end_to_end(workload, setup_s, totals):
    wall_s = totals.pass_estimate()
    lat = sorted(
        share
        for t, k in zip(totals.typical(), totals.sizes)
        for share in [t / k] * k
    )
    tail_q = tail_fraction(len(lat))
    print(f"# item latency: {workload.latency_of}, median of {len(totals.pass_s)} "
          f"passes, {len(lat)} items; tail is p{100 * tail_q:.4g}")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_per_s": totals.items / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "item_p50_us": 1e6 * statistics.median(lat),
        "item_tail_us": 1e6 * quantile(lat, tail_q),
    }


def per_layer(workload, lib, inputs, seconds, fault, span_path):
    """Pairs of one untraced and one traced pass while the next pair is
    expected to end in time; at least one pair runs.

    The per-layer figures come from the fastest traced pass, and the tracing
    overhead compares it with the fastest untraced pass.
    """
    totals = Totals()
    plain_s, fastest = math.inf, None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        totals.add(workload.run_pass(lib, inputs, _no_mark, fault), time.perf_counter() - t0)
        plain_s = min(plain_s, totals.pass_s[-1])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            res = workload.run_pass(lib, inputs, tracer.mark, fault)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        totals.add(res, traced_s)
        if fastest is None or traced_s < fastest[0]:
            fastest = (traced_s, tracer)
        pair_s = totals.pass_s[-2] + traced_s
        if time.perf_counter() - start + pair_s > seconds:
            break
    traced_s, tracer = fastest
    print(f"# fastest traced pass {traced_s:.3f} s, fastest untraced pass {plain_s:.3f} s, "
          f"{len(totals.pass_s) // 2} pairs, {len(tracer.spans)} spans per traced pass")
    metrics = {}
    for span, stats in tracer.summary(traced_s).items():
        for stat, value in stats.items():
            metrics[f"{span}.{stat}"] = value
    key_calls = metrics["canonical.key_bfs.calls"]
    members = totals.counts.get("members", 0)
    classify_calls = metrics["classify.classify.calls"]
    metrics["mutation_class.members"] = members
    metrics["mutation_class.new_per_key"] = members / key_calls if key_calls else 0.0
    metrics["classify.accept_ratio"] = (
        totals.counts["accepted"] / classify_calls if classify_calls else 0.0
    )
    metrics["series.terms"] = totals.counts.get("terms", 0)
    metrics["trace.overhead_frac"] = traced_s / plain_s
    os.makedirs(os.path.dirname(span_path), exist_ok=True)
    tracer.write(span_path)
    print(f"# spans written to {span_path}")
    return metrics, totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input, for the benchmark's own tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one expected value, to show that checks fail")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "quivercount")):
        print(f"error: no quivercount package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = workloads.REGISTRY[args.workload]
    scale = workloads.TINY if args.tiny else workloads.FULL
    reference = REFERENCES[args.workload]
    lib, inputs, setup_s = set_up(workload, args.seed, scale, reference)
    print(f"# env python={platform.python_version()} nproc={os.cpu_count()} "
          f"git={git_sha()} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={scale}")
    if args.workload == "series-oracle":
        print("# series-oracle is deterministic: the seed is unused")

    if args.trace:
        span_path = os.path.join(
            SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.tsv"
        )
        metrics, totals = per_layer(
            workload, lib, inputs, args.seconds, args.inject_fault, span_path
        )
        units = layer_metric_units()
    else:
        totals = timed_passes(workload, lib, inputs, args.seconds, args.inject_fault, reference)
        print("# raw pass_s " + " ".join(f"{t:.4f}" for t in totals.pass_s))
        print("# host speed factor " + " ".join(f"{f:.4f}" for f in totals.factors))
        metrics = end_to_end(workload, setup_s, totals)
        units = END_TO_END_UNITS

    attempted, failed = totals.attempted, totals.failed
    print(f"# items per pass: {totals.items} {workload.item_name}; counts {totals.counts}")
    for msg in totals.failures:
        print(f"# FAIL {msg}")
    print(f"# error_rate {failed / attempted:g} ({failed} of {attempted} checks failed)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
