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
refinement already gives every vertex its own color, or leaves open only
cells of such twins, the ordering is forced and the search is skipped; this
is the common case for quivers met during class enumeration, and the key
bytes are the same either way.

Refinement is cell-local.  A round only splits cells in place, so it signs
just the vertices of non-singleton cells, codes each (color, entry) pair
as one order-preserving integer, ``col[u] + e``, where a vertex's color
``col[u]`` is its cell's first position times ``2 * max|e| + 1``, and
numbers the new cells in the old cell order.  The ranks, and so the key
bytes and orders, are exactly those of signing every vertex with nested tuples and sorting them all at once.
Each row's invariants (its nonzero pairs, its sorted entries, which are
the first-round signature, and its largest entry) depend on the row value
alone, so they are kept by row id in a :class:`RowTable`.  Mutation
shares every row away from the mutated vertex, so the enumerator keeps one
table for its whole walk; each public call makes its own.  A labeling
reads it in one pass over the rows, which also gives the first round:
without colors, the first partition groups the rows by their sorted
entries.  One split loop then refines colored and uncolored partitions
alike.  Every key is then written the same way from the order: the matrix
entries come from a table of small-integer strings, and the head lists
each position's cell rank.

:func:`canonical_labeling` also returns the ``order`` behind its key:
``order[p]`` is the vertex of ``q`` placed at position ``p`` of the
canonical matrix.  Two quivers with equal keys are therefore matched by the
isomorphism ``order_1[p] -> order_2[p]``, which the enumerator uses to carry
what it knows about one to the other.  Both public functions check their
arguments and call one core on a tuple of row ids, ``_label_matrix``,
which also returns the matrix's largest entry, read from the table to size
the codes.  The enumerator calls that core directly: it labels matrices it
has not wrapped as quivers, and checks its multiplicity cap on that entry.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Sequence

from quivercount.quiver import ExchangeQuiver


class RowTable:
    """Distinct matrix rows, each with a small integer id.

    A matrix is then a tuple of ids, and ``rows[i]`` is the one tuple that
    holds row value ``i``, so matrices rebuilt from ids share their rows.
    ``info[i]`` is None until :func:`_label_matrix` reads row i, and then
    holds the row's invariants.
    """

    __slots__ = ("ids", "rows", "info")

    def __init__(self) -> None:
        self.ids = {}
        self.rows = []
        self.info = []

    def intern(self, row: tuple[int, ...]) -> int:
        """The id of ``row``'s value, given to it now if it is new."""
        i = self.ids.get(row)
        if i is None:
            i = self.ids[row] = len(self.rows)
            self.rows.append(row)
            self.info.append(None)
        return i

    def matrix(self, ids) -> tuple[tuple[int, ...], ...]:
        """The matrix whose rows have ``ids``, built from the shared tuples."""
        rows = self.rows
        return tuple([rows[i] for i in ids])


def _refine(
    adj: list[list[tuple[int, int]]],
    col: list[int],
    cells: list[tuple[int, list[int]]],
    width: int,
) -> list[tuple[int, list[int]]]:
    """Refine the partition ``col``/``cells`` until it is stable; return the
    cells still open.

    ``adj[v]`` lists the ``(u, b[v][u])`` pairs with a nonzero entry, and
    ``width = 2 * max|e| + 1``.  ``col[v]`` is the first position of v's
    cell times ``width``, and ``cells`` lists the non-singleton cells as
    (that scaled first position, vertices); both are updated in place.  The
    caller builds the first partition, from the colors or, for a single
    color, from each row's sorted entries, which is the first round.  Every
    call, colored or not, then runs this one split loop.

    Each round signs ``v`` with the sorted (color of u, entry) pairs of its
    arrows.  Its color is its cell's first position, which sorts as the
    cell's rank, so a round splits cells in place, signs only non-singleton
    cells and recolors only what it split.  A pair is coded as ``col[u] +
    e``, which is the position times ``width`` plus ``e``; with that width
    the codes sort as the pairs do.  So the cells, and the key bytes built
    on them, are those of one global sort of the nested signatures.  When
    no cell is left, ``col[v]`` is v's position in the canonical order
    times ``width``.
    """
    while cells:
        split = []
        kept = []
        for start, cell in cells:
            if len(cell) == 2:
                # the common case: compare the two signatures directly
                v, w = cell
                sv = sorted([col[u] + e for u, e in adj[v]])
                sw = sorted([col[u] + e for u, e in adj[w]])
                if sv == sw:
                    kept.append((start, cell))
                else:
                    split.append((start, [[v], [w]] if sv < sw else [[w], [v]]))
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                s = tuple(sorted([col[u] + e for u, e in adj[v]]))
                groups.setdefault(s, []).append(v)
            if len(groups) == 1:
                kept.append((start, cell))
            else:
                split.append((start, [groups[s] for s in sorted(groups)]))
        if not split:
            break
        # every cell was signed with the old colors; recolor only now
        for start, parts in split:
            for part in parts:
                for v in part:
                    col[v] = start
                if len(part) > 1:
                    kept.append((start, part))
                start += len(part) * width
        cells = kept
    return cells


@lru_cache(maxsize=64)
def _forced_head(n):
    """Key prefix of a discrete coloring on ``n`` vertices: ``n|0,1,...,n-1|``."""
    return "{}|{}|".format(n, ",".join(map(str, range(n))))


# _TEXT[e] is str(e) for |e| <= _TEXT_MAX: negative indices count from the end
_TEXT_MAX = 99
_TEXT = [str(e) for e in range(_TEXT_MAX + 1)] + [
    str(e) for e in range(-_TEXT_MAX, 0)
]


def _min_labeling(b, colors):
    """Least relabeled matrix over orderings listing color classes in order.

    Returns ``order``, the vertex at each position of one ordering whose
    lower matrix triangle, read row by row, is least.
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
    del rec  # rec's closure holds rec: free it now, not in the collector
    assert best is not None
    return best_order


def canonical_key(q: ExchangeQuiver, colors: Sequence[int] | None = None) -> bytes:
    """Byte key equal exactly for quivers isomorphic to ``q``.

    Keys are deterministic, totally ordered as byte strings, and collision
    free: equal keys imply an actual vertex bijection matching the matrices
    entry by entry.  Optional ``colors`` restricts admissible relabelings to
    those preserving the given vertex classes; rooted subquivers pass the
    root as a separate color.  Each color is an integer, one per vertex;
    raises ValueError for a list of another length or for an entry such
    as 1.5 or "1" that is not an integer.
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
    if colors is not None:
        # operator.index, not int: a truncated 1.5 or a parsed "1" would
        # merge classes the caller kept apart
        classes = []
        for c in colors:
            try:
                classes.append(operator.index(c))
            except TypeError:
                raise ValueError(f"color {c!r} is not an integer") from None
        if len(classes) != q.n:
            raise ValueError("colors must assign one class per vertex")
        colors = classes if len(set(classes)) > 1 else None
    table = RowTable()
    key, order, _ = _label_matrix(tuple(map(table.intern, q.b)), colors, table)
    return key, order


def _label_matrix(ids, colors, table: RowTable):
    """``(key, order, big)`` for the exchange matrix with row ids ``ids``.

    The one labeling behind :func:`canonical_labeling`, on a matrix taken
    as valid: ``ids`` are ids of ``table``, whose ``rows`` give the matrix,
    and ``colors`` is None or a list of integers with at least two classes.
    This call fills ``table.info`` for the rows it reads, with each row's
    nonzero ``(u, e)`` pairs, sorted nonzero entries and largest ``|e|``;
    that never changes a result.  ``big`` is the largest ``|entry|`` of the
    matrix, read from those entries to size the codes.
    """
    n = len(ids)
    rows = table.rows
    infos = table.info
    adj = []
    first = []
    big = 0
    for i in ids:
        info = infos[i]
        if info is None:
            nbrs = [(u, e) for u, e in enumerate(rows[i]) if e]
            entries = sorted([e for _, e in nbrs])
            m = max(-entries[0], entries[-1]) if entries else 0
            info = infos[i] = (nbrs, tuple(entries), m)
        adj.append(info[0])
        first.append(info[1])
        if info[2] > big:
            big = info[2]
    width = 2 * big + 1
    # with one color, the first round groups the rows by their sorted entries
    by: dict = {}
    for v, c in enumerate(first if colors is None else colors):
        by.setdefault(c, []).append(v)
    col = [0] * n  # the first position of each vertex's cell, times width
    cells = []
    start = 0
    for c in sorted(by):
        cell = by[c]
        for v in cell:
            col[v] = start
        if len(cell) > 1:
            cells.append((start, cell))
        start += len(cell) * width
    cells = _refine(adj, col, cells, width)
    b = [rows[i] for i in ids]
    if not cells or all(ids[v] == ids[cell[0]] for _, cell in cells for v in cell):
        # settled: no cell is open, or only cells of twins, which the
        # search's one leaf takes in vertex order
        order = sorted(range(n), key=col.__getitem__)
    else:
        order = _min_labeling(b, col)
    if cells:
        rank = {c: r for r, c in enumerate(sorted(set(col)))}
        head = "{}|{}|".format(n, ",".join([str(rank[col[v]]) for v in order]))
    else:
        head = _forced_head(n)
    text = _TEXT if big <= _TEXT_MAX else {e: str(e) for r in b for e in r}
    key = head + ",".join(
        [text[b[v][u]] for p, v in enumerate(order) for u in order[:p]]
    )
    return key.encode("ascii"), order, big
