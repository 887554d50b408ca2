"""Structural recognition of annular quivers and their realization parameters.

A quiver in the annular family has exactly one full subquiver that is a
non-oriented cycle (a double arrow in the degenerate length 2 case).  Each
arrow of that cycle, a base arrow, may carry an oriented 3-cycle whose apex
roots a type A quiver, and nothing else touches the cycle.  Fixing a planar
embedding of the cycle splits the base arrows into anticlockwise and
clockwise ones; counting plain arrows and oriented 3-cycles on each side
gives the parameter quadruple (r1, r2, s1, s2).  Flipping the embedding
swaps the two sides, so every quiver has at most two distinct realizations.

Recognition here is deliberately direct: walk the chordless cycles of the
underlying graph, stopping at a second non-oriented one, demand exactly
one, then parse each attachment against the recursive description of
rooted type A quivers.  At the target scale (around 14 vertices)
directness beats cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from quivercount.canonical import canonical_key
from quivercount.quiver import (
    ExchangeQuiver,
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


def _induced_cycles(q: ExchangeQuiver) -> Iterator[tuple[int, ...]]:
    """Yield the chordless cycles of length >= 3 in the underlying graph.

    Each cycle is reported once, starting at its smallest vertex with the
    smaller neighbor second.  A generator, so callers can stop early.
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
    """
    n = q.n
    if n < 2 or not underlying_graph_connected(q):
        return None
    if max_multiplicity(q) > 2:
        return None
    b = q.b

    # a double arrow is the degenerate non-oriented cycle of length 2
    non_oriented: list[tuple[int, ...]] = [
        (i, j) if b[i][j] > 0 else (j, i)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(b[i][j]) == 2
    ]
    if len(non_oriented) > 1:
        return None
    for cyc in _induced_cycles(q):
        m = len(cyc)
        signs = [b[cyc[t]][cyc[(t + 1) % m]] for t in range(m)]
        if any(abs(x) == 2 for x in signs):
            continue  # a parallel pair rides along: not a plain cycle subquiver
        if all(x > 0 for x in signs) or all(x < 0 for x in signs):
            continue  # oriented
        non_oriented.append(cyc)
        if len(non_oriented) > 1:
            return None  # a second non-oriented cycle: no need to list the rest
    if not non_oriented:
        return None

    cyc = non_oriented[0]
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
