"""Input generation, timed passes and output checks for the three workloads.

Inputs are plain integer matrices made here from the workload seed, with
this file's own mutation rule, so neither the inputs nor the set-up time
depend on the library under test.  The library only receives the finished
quivers.  A pass runs one workload once over all of its inputs and checks
every output against an independent route; failures are counted, never
raised, so the error rate is always known.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# --- exchange matrices, independent of the library --------------------------


def mutate_matrix(b, k):
    """Mutate the exchange matrix ``b`` at vertex ``k``.

    Every two-path i -> k -> j adds b[i][k] * b[k][j] arrows i -> j (the
    signed sum cancels oriented 2-cycles), then every arrow at k reverses.
    This is the matrix rule of ``quiver.mutate``, written from the arrow
    picture rather than from its closed formula.
    """
    n = len(b)
    out = [list(row) for row in b]
    bk = b[k]
    heads = [j for j in range(n) if bk[j] > 0]
    for i in range(n):
        bik = b[i][k]
        if bik > 0:
            for j in heads:
                out[i][j] += bik * bk[j]
                out[j][i] -= bik * bk[j]
    for i in range(n):
        out[i][k] = -b[i][k]
        out[k][i] = -bk[i]
    return tuple(tuple(row) for row in out)


def relabel_matrix(b, perm):
    """Old vertex ``i`` becomes ``perm[i]``."""
    n = len(b)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = b[i][j]
    return tuple(tuple(row) for row in out)


def cycle_matrix(r, s):
    """Cycle on r+s vertices, r arrows one way round and s the other."""
    n = r + s
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        t, h = (i, j) if i < r else (j, i)
        b[t][h] += 1
        b[h][t] -= 1
    return tuple(tuple(row) for row in b)


def dynkin_d_matrix(n):
    """Type D diagram: two fork tips into vertex 2, then a path."""
    b = [[0] * n for _ in range(n)]
    for t, h in [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 1)]:
        b[t][h] = 1
        b[h][t] = -1
    return tuple(tuple(row) for row in b)


def shuffled(b, rng):
    perm = list(range(len(b)))
    rng.shuffle(perm)
    return relabel_matrix(b, perm)


def walk(b, length, rng):
    """Random mutation walk that never mutates the same vertex twice running
    (that would undo the previous step)."""
    n = len(b)
    last = -1
    for _ in range(length):
        k = rng.randrange(n - 1)
        if k >= last >= 0:
            k += 1
        b = mutate_matrix(b, k)
        last = k
    return b


# --- workloads -----------------------------------------------------------------


@dataclass
class Scale:
    """Input sizes.  ``FULL`` is what the benchmark measures; ``TINY`` keeps
    the benchmark's own tests fast."""

    max_rank: int  # bfs-sweep: annular classes with r + s <= max_rank
    d_ranks: tuple  # bfs-sweep: type D ranks
    walk_ranks: tuple  # classify-walks: ranks n of the walks
    walks_per_seed: int  # classify-walks: samples per (n, r) walk
    d_walks_per_rank: int  # classify-walks: samples per type D walk
    degree: int  # series-oracle: truncation degree


FULL = Scale(9, (4, 5, 6, 7, 8), tuple(range(8, 21)), 27, 30, 28)
SAMPLE_STRIDE = 4
TINY = Scale(5, (4, 5), (8, 9), 3, 3, 8)


@dataclass
class PassResult:
    items: int = 0  # members enumerated, quivers classified or cells checked
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)  # seconds per timed item
    starts: list = field(default_factory=list)  # clock reading at each item's start
    # items each latency covers, when not one: it counts as that many
    # latencies of its time shared out
    sizes: list = field(default_factory=list)
    other: list = field(default_factory=list)  # seconds of timed non-item work
    other_starts: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # exact per-pass counts
    failures: list = field(default_factory=list)  # first few, for the log


def _fail(res, msg):
    res.failed += 1
    if len(res.failures) < 5:
        res.failures.append(msg)


def bfs_inputs(seed, scale):
    """Relabelled seeds of every annular class up to the rank ceiling and of
    the type D classes, with the parameters that fix their expected size."""
    rng = random.Random(seed)
    out = []
    for n in range(2, scale.max_rank + 1):
        for r in range(1, n // 2 + 1):
            out.append((("atilde", r, n - r), shuffled(cycle_matrix(r, n - r), rng)))
    for n in scale.d_ranks:
        out.append((("d", n), shuffled(dynkin_d_matrix(n), rng)))
    return out


def classify_inputs(seed, scale):
    """Quivers from random mutation walks.

    Positives start from a relabelled (r, n - r) cycle and keep its
    parameters; negatives start from the type D diagram and must be
    rejected.  Each walk first takes 4n steps away from its start, then
    yields a sample every ``SAMPLE_STRIDE`` steps, which keeps set-up short.
    """
    rng = random.Random(seed)
    out = []
    for n in scale.walk_ranks:
        starts = [((r, n - r), cycle_matrix(r, n - r)) for r in range(1, n)]
        starts.append((None, dynkin_d_matrix(n)))
        for expected, b in starts:
            b = walk(shuffled(b, rng), 4 * n, rng)
            count = scale.walks_per_seed if expected else scale.d_walks_per_rank
            for _ in range(count):
                b = walk(b, SAMPLE_STRIDE, rng)
                out.append((expected, b))
    return out


def series_inputs(seed, scale):
    """The truncation degree; this workload is deterministic and the seed
    is unused."""
    return scale.degree


def wrap_quivers(lib, inputs):
    """Hand the generated matrices to the library as its quiver type."""
    make = lib.quiver.ExchangeQuiver
    return [(label, make(b)) for label, b in inputs]


def bfs_pass(lib, inputs, mark, fault=False):
    mc_mod, counting = lib.mutation_class, lib.counting
    res = PassResult()
    clock = time.perf_counter
    for item, (label, q) in enumerate(inputs):
        mark(item)
        t0 = clock()
        mc = mc_mod.enumerate_class(q)
        res.latencies.append(clock() - t0)
        res.starts.append(t0)
        if label[0] == "atilde":
            expected = counting.a_tilde(label[1], label[2])
        else:
            expected = counting.d_n_count(label[1])
        if fault and item == 0:
            expected += 1
        res.items += mc.size
        res.sizes.append(mc.size)
        res.attempted += 1
        if mc.size != expected:
            _fail(res, f"{label}: enumerated {mc.size}, formula {expected}")
    res.counts["members"] = res.items
    return res


def classify_pass(lib, inputs, mark, fault=False):
    classify, is_symmetric = lib.classify.classify, lib.classify.is_symmetric
    res = PassResult()
    clock = time.perf_counter
    accepted = 0
    for item, (expected, q) in enumerate(inputs):
        mark(item)
        t0 = clock()
        st = classify(q)
        res.latencies.append(clock() - t0)
        res.starts.append(t0)
        if fault and item == 0:
            expected = None if expected else (1, q.n - 1)
        res.items += 1
        res.attempted += 1
        if st is not None:
            accepted += 1
        if expected is None:
            if st is not None:
                _fail(res, f"item {item}: type D quiver accepted")
            continue
        if st is None:
            _fail(res, f"item {item}: rejected, expected {expected}")
            continue
        r, s = expected
        real = st.realization_1
        ok = {real.r, real.s} == {r, s} and st.realization_2 == real.swapped()
        if ok and is_symmetric(st) and r != s:
            ok = False
        if not ok:
            _fail(res, f"item {item}: got {real.as_tuple()}, expected {expected}")
    res.counts["accepted"] = accepted
    return res


def series_pass(lib, degree, mark, fault=False):
    """The series to ``degree``, every complete refined cell checked against
    the closed form, and the q^n totals against the type D count."""
    counting = lib.counting
    clock = time.perf_counter
    res = PassResult()
    mark(0)
    t0 = clock()
    at = lib.series.atilde_series(degree)
    res.other.append(clock() - t0)
    res.other_starts.append(t0)
    res.counts["terms"] = len(at.coeffs)
    coeffs = at.coeffs
    batch = 0
    for r in range(1, degree):
        for s in range(1, degree - r + 1):
            batch += 1
            mark(batch)
            for r2 in range(r // 2 + 1):
                for s2 in range(s // 2 + 1):
                    if r + s + r2 + s2 > degree:
                        continue
                    t0 = clock()
                    got = coeffs.get((r, s, r2, s2), 0)
                    expected = counting.refined_realization_count(r, r2, s, s2)
                    res.latencies.append(clock() - t0)
                    res.starts.append(t0)
                    if fault and res.attempted == 0:
                        expected += 1
                    res.items += 1
                    res.attempted += 1
                    if got != expected:
                        _fail(res, f"[p^{r} q^{s} x^{r2} y^{s2}] = {got}, formula {expected}")
    # the q^n marginal is complete while n + n//2 fits under the truncation
    mark(batch + 1)
    for n in range(3, degree + 1):
        if n + n // 2 > degree:
            break
        got = sum(coeffs.get((0, n, 0, s2), 0) for s2 in range(n // 2 + 1))
        expected = counting.a_tilde(0, n)
        res.attempted += 1
        if got != expected:
            _fail(res, f"[q^{n}] total {got}, formula {expected}")
    return res


@dataclass
class Workload:
    item_name: str  # what items_per_s counts
    latency_of: str  # what one latency sample times
    make_inputs: Callable
    to_program: Optional[Callable]
    run_pass: Callable


REGISTRY = {
    "bfs-sweep": Workload(
        "members enumerated",
        "one member: its class's enumerate_class time over the class size",
        bfs_inputs, wrap_quivers, bfs_pass,
    ),
    "classify-walks": Workload(
        "quivers classified", "one classify call",
        classify_inputs, wrap_quivers, classify_pass,
    ),
    "series-oracle": Workload(
        "coefficients checked",
        "one coefficient lookup and closed-form evaluation",
        series_inputs, None, series_pass,
    ),
}
WORKLOADS = tuple(REGISTRY)
