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
vertex it reaches taking every arrow it has left.  Taking an arrow deletes
it from both ends of one copy of the neighbour sets, so a vertex's set is
exactly its untaken arrows.  The account accepts only if every vertex was
visited: then every arrow is a base arrow, a triangle arrow or an arrow of
an attachment.  The peel may reject early, but only the account accepts,
so the peel has to find the right cycle on members alone, and no input
makes the search for it exponential.

Each walk writes its attachment as a word, an exact key of the rooted
quiver up to root-preserving isomorphism.  The word is all that is kept of
the attachment: its plain arrows and 3-cycles are read off it
(``_counts``), and deciding whether the two realizations coincide needs no
canonical labeling.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from quivercount.counting import normalize_parameters
from quivercount.quiver import ExchangeQuiver

# Unused here, since _base_cycle does the work of the last two and the
# walk's word replaces canonical keys, but kept as names of this module:
# perfbench's tracing hooks patch them here.
from quivercount.canonical import canonical_key  # noqa: F401
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
class AtildeStructure:
    """Parsed annular quiver.

    ``base_cycle`` lists the base arrows as directed (tail, head) pairs in
    traversal order around the cycle; for the double arrow both strands
    appear.  ``apexes`` aligns with it: the apex of the oriented 3-cycle
    on each base arrow, or None.  ``elements`` is the cyclic word the
    realization reads off: a flag for whether the base arrow follows the
    traversal, plus the word of the attachment at its apex (empty for
    none, see ``_walk_rooted``); the reversed flipped word is the other
    realization.
    """

    base_cycle: tuple[tuple[int, int], ...]
    apexes: tuple[Optional[int], ...]
    realization_1: RealizationParams
    realization_2: RealizationParams
    elements: tuple[tuple[int, bytes], ...]


# The bytes of a rooted type A quiver's word, one per vertex its walk
# reaches, for what that vertex took (see _walk_rooted).
_NONE, _OUT, _IN, _TRIANGLE = b".><^"


def _walk_rooted(b, rest, root, visited):
    """Walk the rooted type A quiver hanging from ``root``, or return None.

    ``root`` must already be in ``visited``; ``rest[x]`` holds the
    neighbours of x by arrows not taken yet, and taking an arrow deletes it
    from both ends.  Depth first, out-vertex before in-vertex, each vertex
    reached takes all of its untaken arrows: none, one single arrow to a
    fresh vertex, or two single arrows to fresh vertices that close an
    oriented 3-cycle.  Anything else, a step onto a visited vertex
    included, fails the walk.  Returns the word the walk writes, and leaves
    the vertices in ``visited`` and the arrows deleted from ``rest``.

    The word has one ASCII byte per vertex, depth first from the root, for
    what that vertex took: ``.`` nothing, ``>`` a single arrow out of it,
    ``<`` a single arrow into it, ``^`` an oriented 3-cycle.  After ``^``
    comes the subtree of the vertex the arrow out leads to, then that of
    the vertex the arrow in comes from.  Each byte fixes how many subtrees
    follow it (0, 1, 1 or 2), so the word is a prefix code that decodes to
    one rooted type A quiver; and the walk chooses by arrow directions
    only, never by labels.  So two rooted quivers have equal words exactly
    when a root-preserving isomorphism maps one onto the other.
    """
    word = bytearray()
    stack = [root]
    while stack:
        x = stack.pop()
        inc = rest[x]
        if not inc:
            word.append(_NONE)
            continue
        if not visited.isdisjoint(inc):
            return None
        row = b[x]
        if len(inc) == 1:
            w = inc.pop()
            if abs(row[w]) != 1:
                return None
            rest[w].remove(x)
            word.append(_OUT if row[w] > 0 else _IN)
            fresh = (w,)
        elif len(inc) == 2:
            out_, in_ = inc
            if row[out_] < 0:
                out_, in_ = in_, out_
            if row[out_] != 1 or row[in_] != -1 or b[out_][in_] != 1:
                return None  # not an oriented 3-cycle of single arrows
            inc.clear()
            rest[out_] -= {x, in_}
            rest[in_] -= {x, out_}
            word.append(_TRIANGLE)
            fresh = (in_, out_)  # the out-vertex is popped first
        else:
            return None
        visited.update(fresh)
        stack += fresh
    return bytes(word)


def _counts(word: bytes) -> tuple[int, int]:
    """(plain arrows, 3-cycles) of the rooted type A quiver ``word`` spells.

    Each vertex writes one byte; past the root, a plain arrow brings one
    vertex and a ``^`` brings two.
    """
    cycles = word.count(_TRIANGLE)
    return len(word) - 1 - 2 * cycles, cycles


def parse_rooted_type_a(q: ExchangeQuiver, root: int):
    """Parse a rooted type A quiver, returning (plain arrows, 3-cycles).

    Follows the recursive description: from the root, either nothing, or a
    single arrow to a smaller rooted quiver, or an oriented 3-cycle with
    rooted quivers at its two far vertices.  Returns None when the
    structure does not match (wrong degrees, a non-oriented or chorded
    cycle, double arrows, vertices the walk from ``root`` does not reach).
    Raises ValueError when ``root`` is not a vertex of ``q``.
    """
    vertices = range(q.n)
    try:
        if operator.index(root) not in vertices:
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"root must lie in range({q.n})") from None
    b = q.b
    rest = [set(compress(vertices, row)) for row in b]
    visited = {root}
    word = _walk_rooted(b, rest, root, visited)
    # a walk that reaches every vertex has taken every arrow
    if word is None or len(visited) != q.n:
        return None
    return _counts(word)


def _base_cycle(b, adj) -> Optional[tuple[int, ...]]:
    """The one candidate non-oriented cycle of the matrix ``b``, or None.

    ``adj`` holds each vertex's neighbour set and is left as it is.  A
    multiplicity above 2 or a second double arrow is rejected first; the
    rows are scanned for them only when the set of all entries is not
    within {-1, 0, 1}.  Then two kinds of vertex are peeled while any is
    left: a leaf on a single arrow, and a vertex of degree 2 whose two
    single arrows close an oriented triangle with an arrow (possibly the
    double arrow) between its neighbours.  The peel never removes a vertex
    of the base cycle of an annular quiver and always finds one more
    attachment vertex to remove, so on an annular quiver exactly the base
    cycle is left.  A peeled vertex always has a neighbour, so on a
    disconnected quiver some other component keeps a vertex alive too.
    What is left must be the double arrow, returned as (tail, head), or a
    chordless cycle of single arrows that is not oriented, read from its
    least vertex with the smaller neighbour second.  The caller's account
    of every vertex decides membership, so the candidate needs no further
    proof here.
    """
    n = len(b)
    if n < 2:
        return None
    double = []
    entries = set().union(*b)
    if max(entries) > 1 or min(entries) < -1:
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


def classify(q: ExchangeQuiver):
    """Parse ``q`` as an annular quiver, or return None.

    None is a result, not an error: it covers disconnected input, members
    of other mutation classes (all cycles oriented, as in type A or D), and
    arbitrary quivers outside the family.

    Cost on n vertices: one O(n^2) pass over the matrix for the neighbour
    sets and multiplicities, then a peel linear in n.  Each base arrow
    picks its apex from one intersection of its ends' neighbour sets, and
    the walks take each arrow once, by deleting it from both ends of the
    neighbour sets; the walks write the attachment words, so no canonical
    key is computed.  Nothing recurses, so the cost holds up to the vertex
    ceiling of ``loads``.
    """
    b = q.b
    n = q.n
    vertices = range(n)
    rest = [set(compress(vertices, row)) for row in b]
    cyc = _base_cycle(b, rest)
    if cyc is None:
        return None
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
    # head -> z -> tail, and with it the arrows y -> z -> x; a surplus apex
    # is left for the account to reject.  rest lacks only the arrows to
    # taken apexes, which are visited, so rest[x] & rest[y] holds every
    # candidate
    visited = set(cyc)
    apexes: list[Optional[int]] = []
    for x, y, _ in strands:
        z = None
        for c in rest[x] & rest[y]:
            if c not in visited and b[y][c] > 0 and b[c][x] > 0:
                if z is None or c < z:
                    z = c
        apexes.append(z)
        if z is not None:
            visited.add(z)
            rest[z] -= {x, y}
            rest[x].remove(z)
            rest[y].remove(z)

    r1 = r2 = s1 = s2 = 0
    elements = []
    for z, (_, _, forward) in zip(apexes, strands):
        if z is None:
            plain, cycles, word = 1, 0, b""
        else:
            word = _walk_rooted(b, rest, z, visited)
            if word is None:
                return None
            plain, cycles = _counts(word)
            cycles += 1
        elements.append((1 if forward else 0, word))
        if forward:
            r1 += plain
            r2 += cycles
        else:
            s1 += plain
            s2 += cycles
    # A walked vertex took every arrow it had left and the peel left the cycle
    # chordless, so once every vertex is visited every arrow is a base
    # arrow, a triangle arrow or an arrow of an attachment.  The account
    # reads no base or triangle arrow's multiplicity: _base_cycle's scan
    # has already allowed 2 on the double arrow alone.
    if len(visited) != n:
        return None

    first = RealizationParams(*normalize_parameters(r1, r2, s1, s2))
    assert first.r + first.s == n
    return AtildeStructure(
        base_cycle=tuple((x, y) for x, y, _ in strands),
        apexes=tuple(apexes),
        realization_1=first,
        realization_2=first.swapped(),
        elements=tuple(elements),
    )


def is_symmetric(structure: AtildeStructure) -> bool:
    """True iff the two realizations coincide.

    Reversing the traversal reverses the cyclic word of base-arrow blocks
    and flips each orientation flag; the realizations coincide exactly when
    that reversed word is a rotation of the original.  They can only do so
    when their parameters, which are swaps of each other, are equal.
    """
    if structure.realization_1 != structure.realization_2:
        return False
    w1 = structure.elements
    w2 = tuple((1 - f, key) for f, key in reversed(w1))
    return any(w1[i:] + w1[:i] == w2 for i in range(len(w1)))
