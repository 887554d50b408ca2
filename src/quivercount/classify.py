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
exactly its base cycle (see ``_base_cycle``).  Each base arrow then takes
at most one apex, and from each apex one iterative walk follows the
recursive description of rooted type A quivers over the whole quiver, each
vertex it reaches taking every arrow it has.  The account accepts only if
every vertex was visited: then every arrow is a base arrow, a triangle
arrow or an arrow of an attachment.  The peel may reject early, but only
the account accepts, so the peel has to find the right cycle on members
alone, and no input makes the search for it exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from quivercount.canonical import canonical_key
from quivercount.counting import normalize_parameters
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


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def _walk_rooted(b, adj, root, visited, consumed):
    """Walk the rooted type A quiver hanging from ``root``, or return None.

    ``root`` must already be in ``visited``; ``consumed`` holds the arrows
    taken so far, as ``_pair``s.  Depth first, out-vertex before in-vertex,
    each vertex reached takes all of its untaken arrows: none, one single
    arrow to a fresh vertex, or two single arrows to fresh vertices that
    close an oriented 3-cycle.  Anything else, a step onto a visited vertex
    included, fails the walk.  Returns (plain arrows, 3-cycles, vertices
    reached), and leaves the vertices in ``visited`` and the arrows in
    ``consumed``.
    """
    plain = cycles = 0
    reached = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        inc = [u for u in adj[x] if _pair(x, u) not in consumed]
        if not inc:
            continue
        if any(u in visited for u in inc):
            return None
        row = b[x]
        if len(inc) == 1:
            (w,) = inc
            if abs(row[w]) != 1:
                return None
            consumed.add(_pair(x, w))
            plain += 1
            fresh = inc
        elif len(inc) == 2:
            out_, in_ = inc if row[inc[0]] > 0 else inc[::-1]
            if row[out_] != 1 or row[in_] != -1 or b[out_][in_] != 1:
                return None  # not an oriented 3-cycle of single arrows
            consumed.update((_pair(x, out_), _pair(x, in_), _pair(out_, in_)))
            cycles += 1
            fresh = [in_, out_]  # the out-vertex is popped first
        else:
            return None
        visited.update(fresh)
        reached += fresh
        stack += fresh
    return plain, cycles, reached


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
    adj = {u: [v for v in vs if b[u][v]] for u in vs}
    visited = {root}
    consumed: set[tuple[int, int]] = set()
    walked = _walk_rooted(b, adj, root, visited, consumed)
    if walked is None or visited != vs:
        return None
    if 2 * len(consumed) != sum(map(len, adj.values())):
        return None
    return walked[:2]


def _base_cycle(b, adj) -> Optional[tuple[int, ...]]:
    """The one candidate non-oriented cycle of the matrix ``b``, or None.

    ``adj`` holds each vertex's neighbour set and is left as it is.  One
    pass over the matrix rejects a multiplicity above 2 or a second double
    arrow.  Then two kinds of vertex are peeled while any is left: a leaf
    on a single arrow, and a vertex of degree 2 whose two single arrows
    close an oriented triangle with an arrow (possibly the double arrow)
    between its neighbours.  The peel never removes a vertex of the base
    cycle of an annular quiver and always finds one more attachment vertex
    to remove, so on an annular quiver exactly the base cycle is left.  A
    peeled vertex always has a neighbour, so on a disconnected quiver some
    other component keeps a vertex alive too.  What is left must be the
    double arrow, returned as (tail, head), or a chordless cycle of single
    arrows that is not oriented, read from its least vertex with the
    smaller neighbour second.  The caller's account of every vertex decides
    membership, so the candidate needs no further proof here.
    """
    n = len(b)
    if n < 2:
        return None
    double = []
    for i, row in enumerate(b):
        if max(row) > 1 or min(row) < -1:
            for j, x in enumerate(row):
                if x > 2 or x < -2:
                    return None
                if x == 2:
                    double.append((i, j))
    if len(double) > 1:
        return None

    adj = [set(nbrs) for nbrs in adj]  # the peel's own copy
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


def _rooted_key(q: ExchangeQuiver, comp, root) -> bytes:
    verts = sorted(comp)
    # a principal submatrix of a valid exchange matrix is one too
    sub = ExchangeQuiver._trusted(
        tuple(tuple(q.b[u][v] for v in verts) for u in verts)
    )
    colors = [0 if v == root else 1 for v in verts]
    return canonical_key(sub, colors)


def classify(q: ExchangeQuiver):
    """Parse ``q`` as an annular quiver, or return None.

    None is a result, not an error: it covers disconnected input, members
    of other mutation classes (all cycles oriented, as in type A or D), and
    arbitrary quivers outside the family.

    Cost on n vertices: one O(n^2) scan of the matrix for the neighbour
    sets and multiplicities, a peel linear in n, apex picks and walks that
    read each arrow a bounded number of times, then one rooted canonical
    key per attachment, each on a subquiver already walked as rooted type
    A.  Nothing recurses, so the cost holds up to the vertex ceiling of
    ``loads``.
    """
    b = q.b
    adj = [{j for j, x in enumerate(row) if x} for row in b]
    cyc = _base_cycle(b, adj)
    if cyc is None:
        return None
    n = q.n
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

    # each strand takes the least untaken apex z off the cycle with
    # head -> z -> tail; a surplus apex is left for the account to reject
    visited = set(cyc)
    consumed: set[tuple[int, int]] = set()
    apexes: list[Optional[int]] = []
    for x, y, _ in strands:
        z = min(
            (z for z in adj[y] if z not in visited and b[y][z] > 0 and b[z][x] > 0),
            default=None,
        )
        apexes.append(z)
        if z is not None:
            visited.add(z)
            consumed.update((_pair(y, z), _pair(z, x)))

    walks = {}
    for z in apexes:
        if z is not None:
            walks[z] = _walk_rooted(b, adj, z, visited, consumed)
            if walks[z] is None:
                return None
    # A walked vertex took every arrow it has and the peel left the cycle
    # chordless, so once every vertex is visited every arrow is a base
    # arrow, a triangle arrow or an arrow of an attachment.  The account
    # reads no base or triangle arrow's multiplicity: _base_cycle's scan
    # has already allowed 2 on the double arrow alone.
    if len(visited) != n:
        return None

    attachments: list[Optional[Attachment]] = [None] * len(strands)
    for t, z in enumerate(apexes):
        if z is None:
            continue
        plain, cycles, verts = walks[z]
        attachments[t] = Attachment(
            root=z,
            plain_arrows=plain,
            cycle_count=cycles,
            key=_rooted_key(q, verts, z),
        )

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

    first = RealizationParams(*normalize_parameters(r1, r2, s1, s2))
    assert first.r + first.s == n
    return AtildeStructure(
        base_cycle=tuple((x, y) for x, y, _ in strands),
        attachments=tuple(attachments),
        realization_1=first,
        realization_2=first.swapped(),
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
