"""Independent reference implementations used only as test oracles.

Each oracle deliberately recomputes its answer along a different route from
the code under test: mutation on explicit arrow lists instead of the matrix
update, isomorphism by trying every vertex bijection, canonical labelings
refined by a global sort of nested signatures, class enumeration with no
shortcuts, the classifier's base cycle by listing every chordless cycle,
its attachment keys and symmetry test by canonical labelings of rooted
subquivers, necklace counts by brute rotation, and series built from
products over exponent tuples: logarithms as sums of powers, the rooted
type A series by fixpoint iteration and the cycle construction as one
logarithm per divisor.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

from quivercount.canonical import _min_labeling, canonical_key
from quivercount.counting import euler_phi
from quivercount.mutation_class import CapExceeded, MutationClass
from quivercount.quiver import ExchangeQuiver, max_multiplicity
from quivercount.series import TruncatedSeries


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


def reference_canonical_labeling(q: ExchangeQuiver, colors=None):
    """``(key, order)`` as ``canonical_labeling`` computes it, by a global sort.

    Every round signs every vertex with its color and the sorted (color,
    entry) pairs of its arrows, as nested tuples, and ranks all the
    signatures at once; no row invariant is reused.  Refinement stops when
    a round splits no cell or the coloring is discrete.  A discrete
    coloring fixes the order; otherwise ``_min_labeling`` searches it.
    """
    n = q.n
    b = q.b
    colors = [0] * n if colors is None else [int(c) for c in colors]
    if n == 0:
        return b"0||", []
    adj = [[(u, e) for u, e in enumerate(row) if e] for row in b]
    ncell = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted((colors[u], e) for u, e in adj[v])))
            for v in range(n)
        ]
        rank = {s: c for c, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) in (ncell, n):
            break
        ncell = len(rank)
    if len(rank) == n:
        order = sorted(range(n), key=colors.__getitem__)
    else:
        order = _min_labeling(b, colors)
    slots = sorted(colors)
    flat = [b[v][u] for p, v in enumerate(order) for u in order[:p]]
    key = f"{n}|{','.join(map(str, slots))}|{','.join(map(str, flat))}"
    return key.encode("ascii"), order


def reference_enumerate(seed: ExchangeQuiver, multiplicity_cap: int = 2) -> MutationClass:
    """Breadth-first mutation class with no shortcuts.

    Every member is mutated at every vertex, parent edge included; each
    result is validated on construction, scanned in full for the cap and
    canonicalized.  Vertex order and tie-breaking follow ``enumerate_class``,
    so members, depths and stored representatives must match it exactly.
    """
    m0 = max_multiplicity(seed)
    if m0 > multiplicity_cap:
        raise CapExceeded(m0, multiplicity_cap, 0, seed)
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
                raise CapExceeded(m, multiplicity_cap, d + 1, q2)
            key = canonical_key(q2)
            if key not in members:
                members[key] = q2
                depths[key] = d + 1
                queue.append((q2, d + 1))
    return MutationClass(seed, members, depths)


def reference_chordless_cycles(q: ExchangeQuiver):
    """Yield the chordless cycles of length >= 3 in the underlying graph.

    Each cycle is reported once, starting at its smallest vertex with the
    smaller neighbor second.  A depth-first search over every chordless
    path: exponential in the worst case, so for small quivers only.
    """
    n = q.n
    b = q.b
    adj = [frozenset(j for j in range(n) if b[i][j]) for i in range(n)]
    for s in range(n):
        stack = [[s, u] for u in sorted(adj[s]) if u > s]
        while stack:
            path = stack.pop()
            last = path[-1]
            for x in adj[last]:
                if x <= s or x in path:
                    continue
                if x in adj[s]:
                    # closing edge; extending would leave a chord to s
                    if len(path) >= 2 and path[1] < x:
                        if all(x not in adj[y] for y in path[1:-1]):
                            yield tuple(path) + (x,)
                    continue
                if any(x in adj[y] for y in path[:-1]):
                    continue
                stack.append(path + [x])


def reference_rooted_key(q: ExchangeQuiver, vertices, root) -> bytes:
    """Canonical key of the principal subquiver on ``vertices``, with the
    root as its own colour: equal exactly for root-preserving isomorphic
    rooted subquivers."""
    verts = sorted(vertices)
    # a principal submatrix of a valid exchange matrix is one too
    sub = ExchangeQuiver._trusted(
        tuple(tuple(q.b[u][v] for v in verts) for u in verts)
    )
    colors = [0 if v == root else 1 for v in verts]
    return canonical_key(sub, colors)


def attachment_vertices(q: ExchangeQuiver, structure, root):
    """The vertices of the attachment at ``root``: its component once the
    base cycle of ``structure`` is removed."""
    cycle = {v for arrow in structure.base_cycle for v in arrow}
    seen = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for u, e in enumerate(q.b[x]):
            if e and u not in cycle and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def reference_is_symmetric(q: ExchangeQuiver, structure) -> bool:
    """Whether the reversed word, orientation flags flipped, is a rotation
    of the word, with each attachment keyed by ``reference_rooted_key``."""
    word = [
        (forward, b"" if z is None else reference_rooted_key(
            q, attachment_vertices(q, structure, z), z
        ))
        for (forward, _), z in zip(structure.elements, structure.apexes)
    ]
    mirror = [(1 - forward, key) for forward, key in reversed(word)]
    return any(word[i:] + word[:i] == mirror for i in range(len(word)))


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


def reference_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product over exponent tuples, pairing terms by increasing degree."""
    if a.variables != b.variables or a.degree != b.degree:
        raise ValueError("series differ in variables or truncation degree")
    bitems = sorted(((sum(e), e, c) for e, c in b.coeffs.items()), key=lambda t: t[0])
    out = {}
    for ea, ca in a.coeffs.items():
        da = sum(ea)
        for db, eb, cb in bitems:
            if da + db > a.degree:
                break
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return TruncatedSeries(a.variables, a.degree, out)


def reference_log_one_over_one_minus(b: TruncatedSeries) -> TruncatedSeries:
    """log(1/(1 - b)) as the sum of b**m / m."""
    if b.constant_term():
        raise ValueError("series must have zero constant term")
    acc = TruncatedSeries.zero(b.variables, b.degree)
    power = TruncatedSeries.constant(b.variables, b.degree, 1)
    for m in range(1, b.degree + 1):
        power = reference_mul(power, b)
        acc = acc + power * Fraction(1, m)
    return acc


def reference_solve_a_point(degree: int, variables=("z", "t")) -> TruncatedSeries:
    """A = 1 + 2 z A + z^2 t A^2 (t omitted with one variable), iterated
    from A = 1 until the truncation stops changing."""
    zvar, *marker = variables
    one = TruncatedSeries.constant(variables, degree, 1)
    z = TruncatedSeries.monomial(variables, degree, **{zvar: 1})
    z2t = TruncatedSeries.monomial(
        variables, degree, **{zvar: 2}, **dict.fromkeys(marker, 1)
    )
    a = one
    while True:
        nxt = one + 2 * reference_mul(z, a) + reference_mul(z2t, reference_mul(a, a))
        if nxt == a:
            return a
        a = nxt


def reference_atilde_series(degree: int) -> TruncatedSeries:
    """The cycle construction over the block alphabet in p, q, x, y, with
    one logarithm of B(v^k) for every k."""
    variables = ("p", "q", "x", "y")
    a = reference_solve_a_point(degree)
    b = TruncatedSeries.zero(variables, degree)
    for v, marker in (("p", "x"), ("q", "y")):
        arrow = TruncatedSeries.monomial(variables, degree, **{v: 1})
        block = TruncatedSeries.monomial(variables, degree, **{v: 2, marker: 1})
        b = b + arrow + reference_mul(block, a.embed(variables, {"z": v, "t": marker}))
    total = TruncatedSeries.zero(variables, degree)
    for k in range(1, degree + 1):
        log = reference_log_one_over_one_minus(b.raise_exponents(k))
        total = total + log * Fraction(euler_phi(k), k)
    return total
