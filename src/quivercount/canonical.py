"""Canonical labeling of exchange quivers.

Deduplication during class enumeration needs an isomorphism invariant with
no collisions, so the key encodes a complete canonical relabeling of the
exchange matrix rather than a hash.  The labeling is found by color
refinement (iterated in/out multiplicity signatures) followed by a
backtracking search over refinement-compatible orderings for the labeling
whose lower matrix triangle, read row by row, is lexicographically least.
The signed entries act directly as edge colors, so directed multiple arrows
need no gadget expansion.  Vertices with identical matrix rows are
interchangeable by an automorphism and are collapsed to one search branch,
which keeps degenerate highly symmetric inputs from exploding.  When
refinement already gives every vertex its own color, the ordering is forced
and the search is skipped; this is the common case for quivers met during
class enumeration, and the key bytes are the same either way.

:func:`canonical_labeling` also returns the ``order`` behind its key:
``order[p]`` is the vertex of ``q`` placed at position ``p`` of the
canonical matrix.  Two quivers with equal keys are therefore matched by the
isomorphism ``order_1[p] -> order_2[p]``, which the enumerator uses to carry
what it knows about one to the other.
"""

from __future__ import annotations

from typing import Sequence

from quivercount.quiver import ExchangeQuiver


def _refine(adj: list[list[tuple[int, int]]], colors: list[int]) -> list[int]:
    """Stable coloring refining ``colors`` by neighbor (color, entry) multisets.

    ``adj[v]`` lists the ``(u, b[v][u])`` pairs with a nonzero entry.  The
    returned color values are ranks of sorted signatures, hence equal for
    corresponding vertices of isomorphic quivers.  A discrete coloring is
    returned as soon as it appears: another round would rank it unchanged.
    """
    n = len(adj)
    ncell = len(set(colors))
    if ncell == 1:
        # one cell: the signatures sort as the row entry multisets alone
        sigs = [tuple(sorted([e for _, e in nbrs])) for nbrs in adj]
    else:
        sigs = _signatures(adj, colors)
    while True:
        rank = {s: c for c, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == ncell or len(rank) == n:
            return colors
        ncell = len(rank)
        sigs = _signatures(adj, colors)


def _signatures(adj, colors):
    """Each vertex's color with the sorted (color, entry) pairs of its arrows."""
    return [
        (colors[v], tuple(sorted([(colors[u], e) for u, e in nbrs])))
        for v, nbrs in enumerate(adj)
    ]


def _forced_order(colors):
    """The only ordering a discrete coloring admits: color ``c`` at position ``c``."""
    order = [0] * len(colors)
    for v, c in enumerate(colors):
        order[c] = v
    return order


def _flat(b, order):
    """Lower triangle of ``b`` relabeled by ``order``, read row by row."""
    return [b[v][u] for p, v in enumerate(order) for u in order[:p]]


def _forced_labeling(b, colors):
    """``flat`` of the forced ordering of a discrete coloring: what
    :func:`_min_labeling` returns for such a coloring, without its search."""
    return _flat(b, _forced_order(colors))


def _min_labeling(b, colors):
    """Least relabeled matrix over orderings listing color classes in order.

    Returns ``(flat, slots, order)`` where ``flat`` is the lower triangle of
    the minimal matrix read row by row, ``slots`` the color of each position
    and ``order`` the vertex at each position of one minimal ordering.
    """
    n = len(b)
    slots = sorted(colors)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)

    best: list[int] | None = None
    best_order: list[int] = []
    placed: list[int] = []
    used = [False] * n
    flat: list[int] = []

    def rec(tight: bool) -> None:
        nonlocal best, best_order
        p = len(placed)
        if p == n:
            if best is None or flat < best:
                best = flat.copy()
                best_order = placed.copy()
            return
        reps: dict[tuple[int, ...], int] = {}
        for v in by_color[slots[p]]:
            if not used[v]:
                reps.setdefault(b[v], v)  # identical rows commute
        scored = sorted(
            ([b[v][u] for u in placed], v) for v in reps.values()
        )
        base = len(flat)
        for seg, v in scored:
            t = tight
            if t and best is not None:
                ref = best[base : base + p]
                if seg > ref:
                    break  # scored ascending: the rest is worse too
                if seg < ref:
                    t = False
            flat.extend(seg)
            used[v] = True
            placed.append(v)
            rec(t)
            placed.pop()
            used[v] = False
            del flat[base:]

    rec(True)
    assert best is not None
    return best, slots, best_order


def canonical_key(q: ExchangeQuiver, colors: Sequence[int] | None = None) -> bytes:
    """Byte key equal exactly for quivers isomorphic to ``q``.

    Keys are deterministic, totally ordered as byte strings, and collision
    free: equal keys imply an actual vertex bijection matching the matrices
    entry by entry.  Optional ``colors`` restricts admissible relabelings to
    those preserving the given vertex classes; rooted subquivers pass the
    root as a separate color.
    """
    return canonical_labeling(q, colors)[0]


def canonical_labeling(
    q: ExchangeQuiver, colors: Sequence[int] | None = None
) -> tuple[bytes, list[int]]:
    """``(key, order)``: :func:`canonical_key` and the ordering it encodes.

    ``order[p]`` is the vertex of ``q`` at position ``p`` of the canonical
    matrix, so ``q.b[order[p]][order[p']]`` is that matrix's entry
    ``(p, p')``.  When two quivers have equal keys, ``order_1[p] ->
    order_2[p]`` is an isomorphism from the first onto the second that
    respects ``colors``.
    """
    n = q.n
    if colors is None:
        init = [0] * n
    else:
        init = [int(c) for c in colors]
        if len(init) != n:
            raise ValueError("colors must assign one class per vertex")
    if n == 0:
        return b"0||", []
    b = q.b
    adj = [[(u, e) for u, e in enumerate(row) if e] for row in b]
    refined = _refine(adj, init)
    if len(set(refined)) == n:
        slots = range(n)
        order = _forced_order(refined)
        flat = _flat(b, order)
    else:
        flat, slots, order = _min_labeling(b, refined)
    key = "{}|{}|{}".format(
        n, ",".join(map(str, slots)), ",".join(map(str, flat))
    ).encode("ascii")
    return key, order


def are_isomorphic(q1: ExchangeQuiver, q2: ExchangeQuiver) -> bool:
    """True iff the two quivers are isomorphic as directed multigraphs."""
    if q1.n != q2.n:
        return False
    return canonical_key(q1) == canonical_key(q2)
