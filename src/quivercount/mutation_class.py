"""Breadth-first enumeration of mutation classes up to isomorphism.

This is the brute-force oracle the closed-form counts are checked against:
close a seed quiver under mutation at every vertex, deduplicating by
canonical key.  The targeted classes (type A, D and the annular type built
on a non-oriented cycle) are finite with arrow multiplicities at most 2, so
the walk terminates; anything that drives a multiplicity above the cap
aborts loudly instead of silently corrupting the count.

Five shortcuts keep the walk from canonicalizing what it already knows,
without changing its members, depths, stored representatives or the point
where it stops on the cap.  All but the fourth only skip mutations whose
result is a known member, which is within the cap.

- Mutation is an involution, so a member is never mutated back along the
  vertex that discovered it: that gives its parent.
- A mutated matrix equal to the matrix of a member that still waits (as
  around commuting squares, where mu_j mu_i = mu_i mu_j when b_ij = 0) is
  skipped before its key is computed.  It is looked up only when its row
  at k is some stored member's row at k, as every waiting member's is.
- Every other edge of the exchange graph that leads back to a known member
  is skipped too.  Say X = mu_k(q) has the key of a member N that still
  waits in the queue, or of q itself.  The two canonical orders give an
  isomorphism sigma: X -> N with sigma(order_X[p]) = order_N[p], so
  mu_sigma(k)(N) ~ mu_k(X) = q, and N is not mutated at sigma(k) (q only
  when sigma(k) comes after k).  The parent edge and an exact repeat of a
  queued member are the cases where sigma is the identity.
- The cap is checked only on a quiver that reaches a labeling: a quiver
  that the exact-repeat or the swapped-matrix lookup places is a stored
  member, or one with its entries swapped, so within the cap, and a quiver
  over the cap misses both, so it is caught at the same vertex as when
  every mutation is checked.  The labeling returns the largest entry of
  the mutated matrix, and the check reads that.  It is exact: q is within
  the cap, row k only changes sign and the rows at k's neighbours are the
  only others that change, so the largest entry exceeds the cap exactly
  when one of those rows' maxima does, and then equals it.
- Pentagons of the exchange graph close by a swap.  For a single arrow
  between k and u, mu_k mu_u mu_k mu_u mu_k(Q) is Q with k and u swapped
  (Fomin & Zelevinsky, "Cluster algebras I", arXiv:math/0104151).  So
  before labeling X = mu_k(q), the walk looks up X with k and a neighbour
  u swapped among the matrices of the members that still wait.  A hit is
  a member N whose matrix equals the swapped one, so the swap is an
  isomorphism X -> N, mu_u(N) ~ mu_k(X) = q, and N is not mutated at u.
  A miss is cheap: the whole swapped matrix is built only when its row k
  is some stored member's row at k, and the walk collects those rows as
  members are stored.

Each walk keeps one row table (``canonical.RowTable``), which gives every
distinct row value a small integer id and the row invariants that every
labeling of the walk reads, and runs on tuples of ids.  Stored members
hold the table's tuples, so a class keeps one tuple per row value.
Mutation at k maps each neighbour's row id to its mutated row's id through
a cache kept with row k's id in ``splits[k]``, and ``at`` maps the id of
each row that a stored member holds to a bitmask of the vertices where it
does: the filter of the second and fifth shortcuts.  A swapped row that
the table lacks is no stored member's row, so the pentagon lookup only
looks its swapped rows up and interns none.

Each member that is queued or being expanded has a record: its ids, key,
depth, canonical order packed in a string, and a bitmask of the vertices
it is not to be mutated at.  ``waiting`` maps its ids to the record, and
``members`` its key; when its expansion ends, it leaves ``waiting`` and
``members`` maps its key to its quiver.  The queue holds those same
records, so a member is dequeued without a lookup.  Each lookup only
skips a labeling.  A mutation that leads back to a member already
expanded misses ``waiting`` and is labeled; the labeling finds that
member, whose expansion is over, and changes nothing.  So forgetting
expanded members moves no member, order, depth or representative.  The
walk wraps a matrix as a quiver only when a member's expansion ends or
when it reports it over the cap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from quivercount.canonical import RowTable, _label_matrix, canonical_key
from quivercount.quiver import (
    ExchangeQuiver,
    _mutated_row,
    max_multiplicity,
    underlying_graph_connected,
)

# Unused here, since the walk mutates row ids, but kept as a name
# of this module: perfbench's tracing hooks patch it here.
from quivercount.quiver import mutate  # noqa: F401


class CapExceeded(RuntimeError):
    """A quiver in the walk exceeded the arrow multiplicity cap.

    Signals a seed outside the finite-multiplicity families this tool
    targets, or a cap set too low.  ``quiver`` is the offending quiver and
    ``depth`` its distance from the seed in the walk, so the failure can be
    reproduced from the seed.
    """

    def __init__(self, multiplicity: int, cap: int, depth: int, quiver: ExchangeQuiver):
        super().__init__(
            f"arrow multiplicity {multiplicity} exceeds the cap {cap}"
            f" at depth {depth} of the walk"
        )
        self.multiplicity = multiplicity
        self.cap = cap
        self.depth = depth
        self.quiver = quiver


@dataclass
class MutationClass:
    """A mutation class: canonical keys with first-discovered representatives."""

    members: dict[bytes, ExchangeQuiver]
    depths: dict[bytes, int]

    @property
    def size(self) -> int:
        return len(self.members)

    def keys(self) -> list[bytes]:
        return sorted(self.members)

    def representatives(self) -> list[ExchangeQuiver]:
        """Stored representatives in canonical key order."""
        return [self.members[k] for k in self.keys()]

    def __contains__(self, q: ExchangeQuiver) -> bool:
        return canonical_key(q) in self.members


def enumerate_class(
    seed: ExchangeQuiver, multiplicity_cap: int = 2
) -> MutationClass:
    """Enumerate the full mutation class of ``seed`` up to isomorphism.

    The walk is breadth first with mutation vertices tried in order
    0..n-1, so the stored representative of each isomorphism class is
    deterministic.  Raises :class:`CapExceeded` as soon as any quiver,
    including the seed, carries an arrow multiplicity above the cap.
    """
    if multiplicity_cap < 2:
        raise ValueError("multiplicity_cap must be at least 2")
    if not underlying_graph_connected(seed):
        raise ValueError("seed quiver must be connected")
    m0 = max_multiplicity(seed)
    if m0 > multiplicity_cap:
        raise CapExceeded(m0, multiplicity_cap, 0, seed)
    table = RowTable()
    # row id -> bitmask of the vertices where a stored member holds it
    at = {}
    # splits[k]: row id at k -> (id of the row negated, its nonzero pairs,
    # a cache from each neighbour's row id to its id after mutation at k)
    splits = [{} for _ in seed.b]
    # members[key] is the member's record while it is queued or being
    # expanded, then its quiver; the queue and ``waiting``, by row ids,
    # hold the same records: [ids, key, depth, order, skip mask]
    members = {}
    depths = {}
    waiting = {}
    queue = deque()

    def store(t, key, depth, order, skip):
        depths[key] = depth
        for v, i in enumerate(t):
            at[i] = at.get(i, 0) | 1 << v
        # the order packed as chr(v), one or two bytes a vertex
        record = [t, key, depth, "".join(map(chr, order)), skip]
        waiting[t] = members[key] = record
        queue.append(record)

    t0 = tuple(map(table.intern, seed.b))
    key0, order0, _ = _label_matrix(t0, None, table)
    store(t0, key0, 0, order0, 0)
    while queue:
        # kept waiting while expanded: mu_k(q) ~ q may add a later vertex
        record = queue.popleft()
        t, key, d = record[0], record[1], record[2]
        for k in range(len(t)):
            if record[4] >> k & 1:
                continue  # this mutation gives back a known member
            t2 = _mutated_ids(t, k, table, splits[k])
            neg, nbrs, _ = splits[k][t[k]]
            # a waiting member's row at k is a stored row at k
            if at.get(neg, 0) >> k & 1:
                entry = waiting.get(t2)
                if entry is not None:
                    entry[4] |= 1 << k  # sigma is the identity
                    continue
            # k has the same neighbours before and after the mutation
            hit = _swapped_member(t2, k, nbrs, table, at, waiting)
            if hit is not None:
                entry, u = hit
                entry[4] |= 1 << u  # sigma swaps k and u
                continue
            # m is the largest entry: see the fourth shortcut
            key2, order2, m = _label_matrix(t2, None, table)
            if m > multiplicity_cap:
                over = ExchangeQuiver._trusted(table.matrix(t2))
                raise CapExceeded(m, multiplicity_cap, d + 1, over)
            entry = members.get(key2)
            if entry is None:
                store(t2, key2, d + 1, order2, 1 << k)
            elif entry.__class__ is list:
                entry[4] |= 1 << ord(entry[3][order2.index(k)])  # sigma(k)
        del waiting[t]
        members[key] = ExchangeQuiver._trusted(table.matrix(t))
    return MutationClass(members, depths)


def _mutated_ids(t, k: int, table: RowTable, splits_k: dict):
    """The row ids of matrix ``t`` mutated at k; every row away from k and
    its neighbours keeps its id.

    Once this has run, ``splits_k[t[k]]`` holds the id of row k negated,
    row k's nonzero ``(u, e)`` pairs, and a cache from the id of each
    neighbour's row to the id of that row after the mutation.
    """
    i = t[k]
    row_split = splits_k.get(i)
    if row_split is None:
        # t was labeled, so its rows' info is there
        neg = table.intern(tuple([-x for x in table.rows[i]]))
        row_split = splits_k[i] = (neg, table.info[i][0], {})
    neg, nbrs, moved = row_split
    t2 = list(t)
    t2[k] = neg
    for u, _ in nbrs:
        j = moved.get(t[u])
        if j is None:
            j = moved[t[u]] = table.intern(_mutated_row(table.rows[t[u]], k, nbrs))
        t2[u] = j
    return tuple(t2)


def _swapped(row, k: int, u: int):
    """``row`` with its entries k and u exchanged."""
    row = list(row)
    row[k], row[u] = row[u], row[k]
    return tuple(row)


def _swapped_member(t, k: int, nbrs, table: RowTable, at: dict, waiting: dict):
    """``(entry, u)`` for a waiting member equal to ``t`` with k and u swapped.

    ``t`` holds row ids of ``table``, and ``entry`` is that member's value
    in ``waiting``.  ``u`` runs over the neighbours of k, given as ``nbrs``,
    the nonzero ``(u, e)`` pairs of row k.  Row k of the swapped matrix is
    row u of ``t`` with entries k and u exchanged, so the whole matrix is
    built only when that row is some stored member's row at k, per ``at``.
    A waiting member's rows are all in the table, so a swapped row that the
    table lacks ends the lookup for that u.  Returns None when no swap gives
    a waiting member.
    """
    rows = table.rows
    ids = table.ids
    row_k = rows[t[k]]
    for u, _ in nbrs:
        row_u = rows[t[u]]
        j = ids.get(_swapped(row_u, k, u))
        if j is None or not at.get(j, 0) >> k & 1:
            continue
        # swap columns k and u, then rows k and u; by skew symmetry the rows
        # whose entries k and u differ are at the v where rows k and u differ
        t2 = list(t)
        for v, x in enumerate(row_k):
            if x != row_u[v]:
                j = ids.get(_swapped(rows[t[v]], k, u))
                if j is None:
                    break
                t2[v] = j
        else:
            t2[k], t2[u] = t2[u], t2[k]
            entry = waiting.get(tuple(t2))
            if entry is not None:
                return entry, u
    return None


def seed_cycle(r: int, s: int) -> ExchangeQuiver:
    """Cycle on r+s vertices with r arrows one way round and s the other.

    ``r = s = 1`` is the double arrow on two vertices; ``r = 0`` gives the
    oriented cycle, whose mutation class is the type D class of the same
    rank.  ``(r, s) = (0, 2)`` is rejected because an oriented 2-cycle has
    no exchange-matrix encoding.
    """
    if r < 0 or s < 0 or r + s < 2:
        raise ValueError("need r, s >= 0 with r + s >= 2")
    if (r, s) in ((0, 2), (2, 0)):
        raise ValueError("an oriented 2-cycle cannot be encoded")
    n = r + s
    arrows = []
    for i in range(n):
        j = (i + 1) % n
        arrows.append((i, j) if i < r else (j, i))
    return ExchangeQuiver.from_arrows(n, arrows)


def seed_dynkin_d(n: int) -> ExchangeQuiver:
    """Quiver on the type D diagram: a path with a fork at one end.

    Any orientation of a tree is mutation equivalent to any other, so a
    fixed one is used: both fork tips point into the branch vertex and the
    path is oriented away from it.
    """
    if n < 4:
        raise ValueError("type D needs at least 4 vertices")
    arrows = [(0, 2), (1, 2)]
    arrows += [(i, i + 1) for i in range(2, n - 1)]
    return ExchangeQuiver.from_arrows(n, arrows)
