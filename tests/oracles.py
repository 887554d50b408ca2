"""Independent reference implementations used only as test oracles.

Each oracle deliberately recomputes its answer along a different route from
the code under test: mutation on explicit arrow lists instead of the matrix
update, isomorphism by trying every vertex bijection, class enumeration with
no shortcuts, and necklace counts by brute rotation.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from quivercount.canonical import canonical_key
from quivercount.mutation_class import CapExceeded, MutationClass
from quivercount.quiver import ExchangeQuiver, max_multiplicity


def all_quivers(n: int, values):
    """Every quiver on n vertices whose entries b[i][j], i < j, lie in ``values``."""
    pairs = list(itertools.combinations(range(n), 2))
    for entries in itertools.product(values, repeat=len(pairs)):
        b = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, entries):
            b[i][j], b[j][i] = v, -v
        yield ExchangeQuiver.from_matrix(b)


def mutate_arrow_list(q: ExchangeQuiver, k: int) -> ExchangeQuiver:
    """Mutation following the four-step arrow description.

    Counts arrows through the mutated vertex pairwise, adds or cancels the
    composite arrows, then reverses everything incident to the vertex.
    """
    n = q.n
    cnt = [[max(q.b[i][j], 0) for j in range(n)] for i in range(n)]
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k or i >= j:
                continue
            signed = cnt[i][j] - cnt[j][i]
            signed += cnt[i][k] * cnt[k][j] - cnt[j][k] * cnt[k][i]
            if signed >= 0:
                new[i][j] = signed
            else:
                new[j][i] = -signed
    for i in range(n):
        if i != k:
            new[k][i] = cnt[i][k]
            new[i][k] = cnt[k][i]
    b = [[new[i][j] - new[j][i] for j in range(n)] for i in range(n)]
    return ExchangeQuiver.from_matrix(b)


def brute_force_isomorphic(q1: ExchangeQuiver, q2: ExchangeQuiver) -> bool:
    """Isomorphism by exhaustive search over all vertex bijections."""
    if q1.n != q2.n:
        return False
    n = q1.n
    b1, b2 = q1.b, q2.b
    for perm in itertools.permutations(range(n)):
        if all(
            b2[perm[i]][perm[j]] == b1[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def reference_enumerate(seed: ExchangeQuiver, multiplicity_cap: int = 2) -> MutationClass:
    """Breadth-first mutation class with no shortcuts.

    Every member is mutated at every vertex, parent edge included; each
    result is validated on construction, scanned in full for the cap and
    canonicalized.  Vertex order and tie-breaking follow ``enumerate_class``,
    so members, depths and stored representatives must match it exactly.
    """
    m0 = max_multiplicity(seed)
    if m0 > multiplicity_cap:
        raise CapExceeded(m0, multiplicity_cap)
    key0 = canonical_key(seed)
    members = {key0: seed}
    depths = {key0: 0}
    queue = deque([(seed, 0)])
    while queue:
        q, d = queue.popleft()
        for k in range(q.n):
            q2 = mutate_arrow_list(q, k)
            m = max_multiplicity(q2)
            if m > multiplicity_cap:
                raise CapExceeded(m, multiplicity_cap)
            key = canonical_key(q2)
            if key not in members:
                members[key] = q2
                depths[key] = d + 1
                queue.append((q2, d + 1))
    return MutationClass(seed, members, depths)


def necklace_count(length: int, ones: int) -> int:
    """Binary necklaces of given length and weight, by rotating every string."""
    seen = set()
    for bits in itertools.product((0, 1), repeat=length):
        if sum(bits) != ones:
            continue
        canon = min(bits[i:] + bits[:i] for i in range(length))
        seen.add(canon)
    return len(seen)


def random_quiver(
    rng: random.Random, n: int, max_mult: int = 2, density: float = 0.5
) -> ExchangeQuiver:
    """Random skew-symmetric quiver; not necessarily connected."""
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = rng.randint(1, max_mult) * rng.choice((1, -1))
                b[i][j] = v
                b[j][i] = -v
    return ExchangeQuiver.from_matrix(b)
