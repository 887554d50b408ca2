"""Spans around the calls into each layer, recorded from outside the library.

Each hook replaces a name where the calling module looks it up, so
``mutation_class.canonical_key`` and ``classify.canonical_key`` are timed
apart although both are ``canonical.canonical_key``.  Modules are reached
through ``importlib.import_module``: ``quivercount.classify`` as an
attribute is the function the package re-exports, not the module.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  An attribute with a dot is looked up on
# a class of the module.
HOOKS = (
    ("quivercount.mutation_class", "enumerate_class", "mutation_class.enumerate_class"),
    ("quivercount.mutation_class", "canonical_key", "canonical.key_bfs"),
    ("quivercount.mutation_class", "mutate", "quiver.mutate"),
    ("quivercount.mutation_class", "max_multiplicity", "quiver.max_multiplicity"),
    ("quivercount.mutation_class", "underlying_graph_connected", "quiver.underlying_graph_connected"),
    ("quivercount.classify", "classify", "classify.classify"),
    ("quivercount.classify", "is_symmetric", "classify.is_symmetric"),
    ("quivercount.classify", "parse_rooted_type_a", "classify.parse_rooted_type_a"),
    ("quivercount.classify", "canonical_key", "canonical.key_rooted"),
    ("quivercount.classify", "max_multiplicity", "quiver.max_multiplicity"),
    ("quivercount.classify", "underlying_graph_connected", "quiver.underlying_graph_connected"),
    ("quivercount.series", "atilde_series", "series.atilde_series"),
    ("quivercount.series", "log_one_over_one_minus", "series.log_one_over_one_minus"),
    # __rmul__ is a separate class attribute bound to the same function
    ("quivercount.series", "TruncatedSeries.__mul__", "series.mul"),
    ("quivercount.series", "TruncatedSeries.__rmul__", "series.mul"),
    ("quivercount.counting", "refined_realization_count", "counting.refined_realization_count"),
    ("quivercount.counting", "cycle_log_coefficient", "counting.cycle_log_coefficient"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in HOOKS))


def _owner(module_name, attr):
    obj = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, item]``: ``parent`` is the index
    of the enclosing span (-1 at top level) and ``item`` is the id of the
    workload item (a class, a quiver, a batch of coefficients) that caused
    it.
    """

    def __init__(self):
        self.spans = []
        self.item = 0
        self._stack = []
        self._saved = []

    def mark(self, item):
        self.item = item

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, name in HOOKS:
            owner, leaf = _owner(module_name, attr)
            fn = getattr(owner, leaf)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def summary(self, wall_s):
        """Per span name: calls, total and self seconds, share of ``wall_s``.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in a single thread, so the children
        never overlap.  The share is self time over ``wall_s``, so the
        shares of all layers add to at most one.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            st = stats[name]
            st[0] += 1
            st[1] += end - start
            st[2] += end - start - child_s[idx]
        out = {}
        for name in SPAN_NAMES:
            calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
            out[name] = {
                "calls": calls,
                "s": total,
                "us_per_call": 1e6 * total / calls if calls else 0.0,
                "self_s": self_s,
                "self_us_per_call": 1e6 * self_s / calls if calls else 0.0,
                "share": self_s / wall_s,
            }
        return out

    def write(self, path):
        """All spans as tab-separated text, times in microseconds."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\titem\n")
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\t{parent}\t{item}\n")
