"""Structural recognition of annular quivers and their realization parameters.

A quiver in the annular family has exactly one full subquiver that is a
non-oriented cycle (a double arrow in the degenerate length 2 case).  Each
arrow of that cycle, a base arrow, may carry an oriented 3-cycle whose apex
roots a type A quiver, and nothing else touches the cycle.  Fixing a planar
embedding of the cycle splits the base arrows into anticlockwise and
clockwise ones; counting plain arrows and oriented 3-cycles on each side
gives the parameter quadruple (r1, r2, s1, s2).  Flipping the embedding
swaps the two sides, so every quiver has at most two distinct realizations.

Recognition first finds the one candidate cycle by peeling: leaves on a
single arrow and degree 2 vertices that close an oriented triangle are
removed until nothing more can be, and an annular quiver is left with
exactly its base cycle (see ``_base_cycle``).  Each attachment is then
parsed against the recursive description of rooted type A quivers, and the
quiver is rebuilt from the cycle and its attachments and compared with the
input.  The peel may reject early, but only that comparison accepts, so
the peel has to find the right cycle on members alone, and no input makes
the search for it exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from quivercount.canonical import canonical_key
from quivercount.quiver import ExchangeQuiver

# Unused here since _base_cycle's single scan does their work, but kept as
# names of this module: perfbench's tracing hooks patch them here.
from quivercount.quiver import (  # noqa: F401
    max_multiplicity,
    underlying_graph_connected,
)


@dataclass(frozen=True)
class RealizationParams:
    """Side counts of one realization: plain arrows and oriented 3-cycles.

    r1/r2 belong to the anticlockwise side, s1/s2 to the clockwise one;
    the derived weights r and s add up to the vertex count.
    """

    r1: int
    r2: int
    s1: int
    s2: int

    @property
    def r(self) -> int:
        return self.r1 + 2 * self.r2

    @property
    def s(self) -> int:
        return self.s1 + 2 * self.s2

    def swapped(self) -> "RealizationParams":
        return RealizationParams(self.s1, self.s2, self.r1, self.r2)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.r1, self.r2, self.s1, self.s2)


@dataclass(frozen=True)
class Attachment:
    """A rooted type A quiver hanging off one base arrow via a 3-cycle."""

    root: int
    plain_arrows: int
    cycle_count: int
    key: bytes  # canonical key of the rooted subquiver, root distinguished


@dataclass(frozen=True)
class AtildeStructure:
    """Parsed annular quiver.

    ``base_cycle`` lists the base arrows as directed (tail, head) pairs in
    traversal order around the cycle; for the double arrow both strands
    appear.  ``attachments`` aligns with it.  ``elements`` is the cyclic
    word the realization reads off: a flag for whether the base arrow
    follows the traversal, plus the attachment key (empty for none); the
    reversed flipped word is the other realization.
    """

    base_cycle: tuple[tuple[int, int], ...]
    attachments: tuple[Optional[Attachment], ...]
    realization_1: RealizationParams
    realization_2: RealizationParams
    elements: tuple[tuple[int, bytes], ...]


def parse_rooted_type_a(q: ExchangeQuiver, root: int, vertices=None):
    """Parse a rooted type A quiver, returning (plain arrows, 3-cycles).

    Follows the recursive description: from the root, either nothing, or a
    single arrow to a smaller rooted quiver, or an oriented 3-cycle with
    rooted quivers at its two far vertices.  Returns None when the
    structure does not match (wrong degrees, a non-oriented or chorded
    cycle, double arrows, unreachable leftovers).
    """
    b = q.b
    vs = set(vertices) if vertices is not None else set(range(q.n))
    if root not in vs:
        raise ValueError("root must belong to the vertex set")
    adj: dict[int, list[int]] = {v: [] for v in vs}
    nedges = 0
    for u in vs:
        for v in vs:
            if u < v and b[u][v]:
                if abs(b[u][v]) != 1:
                    return None
                adj[u].append(v)
                adj[v].append(u)
                nedges += 1
    consumed: set[tuple[int, int]] = set()
    visited = {root}
    plain = 0
    cycles = 0

    def pair(u, v):
        return (u, v) if u < v else (v, u)

    def walk(x) -> bool:
        nonlocal plain, cycles
        inc = [u for u in adj[x] if pair(x, u) not in consumed]
        if not inc:
            return True
        if len(inc) == 1:
            w = inc[0]
            if w in visited:
                return False
            consumed.add(pair(x, w))
            visited.add(w)
            plain += 1
            return walk(w)
        if len(inc) == 2:
            u, v = inc
            if b[x][u] == 1 and b[v][x] == 1:
                out_, in_ = u, v
            elif b[x][v] == 1 and b[u][x] == 1:
                out_, in_ = v, u
            else:
                return False  # both arrows point the same way at x
            if out_ in visited or in_ in visited:
                return False
            if b[out_][in_] != 1:
                return False  # the closing arrow must complete the oriented cycle
            consumed.add(pair(x, out_))
            consumed.add(pair(x, in_))
            consumed.add(pair(out_, in_))
            visited.add(out_)
            visited.add(in_)
            cycles += 1
            return walk(out_) and walk(in_)
        return False

    if not walk(root):
        return None
    if visited != vs or len(consumed) != nedges:
        return None
    return plain, cycles


def _base_cycle(q: ExchangeQuiver) -> Optional[tuple[int, ...]]:
    """The one candidate non-oriented cycle of ``q``, or None.

    One pass over the matrix builds the neighbour sets and rejects a
    multiplicity above 2, a second double arrow or a disconnected quiver.
    Then two kinds of vertex are peeled while any is left: a leaf on a
    single arrow, and a vertex of degree 2 whose two single arrows close an
    oriented triangle with an arrow (possibly the double arrow) between its
    neighbours.  Both removals keep the rest connected.  The peel never
    removes a vertex of the base cycle of an annular quiver and always
    finds one more attachment vertex to remove, so on an annular quiver
    exactly the base cycle is left.  What is left must be the double arrow,
    returned as (tail, head), or a chordless cycle of single arrows that is
    not oriented, read from its least vertex with the smaller neighbour
    second.  The caller's rebuild-and-compare decides membership, so the
    candidate needs no further proof here.
    """
    n = q.n
    if n < 2:
        return None
    b = q.b
    adj = []
    double = []
    for i, row in enumerate(b):
        adj.append({j for j, x in enumerate(row) if x})
        if max(row) > 1 or min(row) < -1:
            for j, x in enumerate(row):
                if x > 2 or x < -2:
                    return None
                if x == 2:
                    double.append((i, j))
    if len(double) > 1:
        return None
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        return None

    alive = set(range(n))
    stack = [v for v in range(n) if len(adj[v]) <= 2]
    while stack:
        v = stack.pop()
        nbrs = adj[v]
        if v not in alive:
            continue
        row = b[v]
        if len(nbrs) == 1:
            (u,) = nbrs
            peel = abs(row[u]) == 1
        elif len(nbrs) == 2:
            u, w = nbrs
            if row[u] < 0:
                u, w = w, u
            # an ear: w -> v -> u, closed by u -> w
            peel = row[u] == 1 and row[w] == -1 and b[u][w] > 0
        else:
            peel = False
        if not peel:
            continue
        alive.remove(v)
        for u in nbrs:
            adj[u].remove(v)
            stack.append(u)

    if double:
        return double[0] if len(alive) == 2 else None
    if len(alive) < 3 or any(len(adj[v]) != 2 for v in alive):
        return None
    start = min(alive)
    prev, cur = start, min(adj[start])
    cyc = [start]
    while cur != start:
        cyc.append(cur)
        a, c = adj[cur]
        prev, cur = cur, c if a == prev else a
    m = len(cyc)
    forward = sum(b[cyc[t]][cyc[(t + 1) % m]] > 0 for t in range(m))
    if forward in (0, m):
        return None  # oriented
    return tuple(cyc)


def _components(q: ExchangeQuiver, vertices) -> list[set[int]]:
    remaining = set(vertices)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in remaining:
                if u not in comp and q.b[v][u]:
                    comp.add(u)
                    stack.append(u)
        remaining -= comp
        comps.append(comp)
    return comps


def _rooted_key(q: ExchangeQuiver, comp, root) -> bytes:
    verts = sorted(comp)
    sub = ExchangeQuiver.from_matrix(
        [[q.b[u][v] for v in verts] for u in verts]
    )
    colors = [0 if v == root else 1 for v in verts]
    return canonical_key(sub, colors)


def classify(q: ExchangeQuiver):
    """Parse ``q`` as an annular quiver, or return None.

    None is a result, not an error: it covers disconnected input, members
    of other mutation classes (all cycles oriented, as in type A or D), and
    arbitrary quivers outside the family.

    Cost on n vertices: one O(n^2) scan of the matrix, a peel linear in n,
    O(n^2) for the apex search, the attachment parses and the rebuild, then
    one rooted canonical key per attachment, each on a subquiver already
    parsed as rooted type A.
    """
    cyc = _base_cycle(q)
    if cyc is None:
        return None
    n = q.n
    b = q.b
    cycle_set = set(cyc)
    m = len(cyc)

    # base arrows in traversal order: (tail, head, follows_traversal)
    strands: list[tuple[int, int, bool]] = []
    if m == 2:
        x, y = cyc  # oriented so that b[x][y] == 2
        strands.append((x, y, True))
        strands.append((x, y, False))
    else:
        for t in range(m):
            u, v = cyc[t], cyc[(t + 1) % m]
            if b[u][v] > 0:
                strands.append((u, v, True))
            else:
                strands.append((v, u, False))

    # apex candidates per strand: z off the cycle with head -> z -> tail
    attach_z: list[Optional[int]] = [None] * len(strands)
    if m == 2:
        x, y, _ = strands[0]
        cands = sorted(
            z
            for z in range(n)
            if z not in cycle_set and b[y][z] >= 1 and b[z][x] >= 1
        )
        if len(cands) > 2:
            return None
        for slot, z in enumerate(cands):
            attach_z[slot] = z
    else:
        for t, (x, y, _) in enumerate(strands):
            cands = [
                z
                for z in range(n)
                if z not in cycle_set and b[y][z] >= 1 and b[z][x] >= 1
            ]
            if len(cands) > 1:
                return None
            if cands:
                attach_z[t] = cands[0]

    apexes = [z for z in attach_z if z is not None]
    if len(set(apexes)) != len(apexes):
        return None

    comps = _components(q, [v for v in range(n) if v not in cycle_set])
    comp_of = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = idx
    used_comps = [comp_of[z] for z in apexes]
    if len(set(used_comps)) != len(used_comps) or set(used_comps) != set(
        range(len(comps))
    ):
        return None

    attachments: list[Optional[Attachment]] = [None] * len(strands)
    for t, z in enumerate(attach_z):
        if z is None:
            continue
        comp = comps[comp_of[z]]
        parsed = parse_rooted_type_a(q, z, comp)
        if parsed is None:
            return None
        plain, cycles = parsed
        attachments[t] = Attachment(
            root=z,
            plain_arrows=plain,
            cycle_count=cycles,
            key=_rooted_key(q, comp, z),
        )

    # nothing else may touch the cycle: rebuild and compare
    expected = [[0] * n for _ in range(n)]
    for x, y, _ in strands:
        expected[x][y] += 1
        expected[y][x] -= 1
    for t, att in enumerate(attachments):
        if att is None:
            continue
        x, y, _ = strands[t]
        z = att.root
        expected[y][z] += 1
        expected[z][y] -= 1
        expected[z][x] += 1
        expected[x][z] -= 1
    for comp in comps:
        for u in comp:
            for v in comp:
                if u < v:
                    expected[u][v] = b[u][v]
                    expected[v][u] = b[v][u]
    if any(tuple(expected[i]) != b[i] for i in range(n)):
        return None

    r1 = r2 = s1 = s2 = 0
    elements = []
    for t, (x, y, forward) in enumerate(strands):
        att = attachments[t]
        if att is None:
            plain, cycles = 1, 0
            elements.append((1 if forward else 0, b""))
        else:
            plain, cycles = att.plain_arrows, att.cycle_count + 1
            elements.append((1 if forward else 0, att.key))
        if forward:
            r1 += plain
            r2 += cycles
        else:
            s1 += plain
            s2 += cycles

    params = RealizationParams(r1, r2, s1, s2)
    swapped = params.swapped()
    assert params.r + params.s == n
    key_fwd = ((params.r, params.s), params.as_tuple())
    key_rev = ((swapped.r, swapped.s), swapped.as_tuple())
    first, second = (
        (params, swapped) if key_fwd >= key_rev else (swapped, params)
    )
    return AtildeStructure(
        base_cycle=tuple((x, y) for x, y, _ in strands),
        attachments=tuple(attachments),
        realization_1=first,
        realization_2=second,
        elements=tuple(elements),
    )


def _min_rotation(word):
    return min(word[i:] + word[:i] for i in range(len(word)))


def is_symmetric(structure: AtildeStructure) -> bool:
    """True iff the two realizations coincide.

    Reversing the traversal reverses the cyclic word of base-arrow blocks
    and flips each orientation flag; the realizations coincide exactly when
    that reversed word is a rotation of the original.
    """
    w1 = structure.elements
    w2 = tuple((1 - f, key) for f, key in reversed(w1))
    return _min_rotation(w1) == _min_rotation(w2)
