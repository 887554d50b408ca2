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
  every mutation is checked.  Only the rows at k's neighbours change, and
  the labeling leaves each row's largest entry in the memo, so the check
  reads those rows' maxima there.
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

The walk keeps one table for the second, third and fifth shortcuts:
``waiting`` maps the matrix of each member that is queued or being
expanded to its record (quiver, depth, canonical order, vertices it is not
to be mutated at), and a member leaves it when its expansion ends.  The
queue holds those same records, so a member is dequeued without a lookup.
Each lookup in the table only skips a labeling.  A mutation that leads
back to a member already expanded misses the table and is labeled; the
labeling finds that member, whose expansion is over, and changes nothing.
So forgetting expanded members moves no member, order, depth or
representative.

Members share their rows: ``rows_at[v]`` maps each row that a stored
member has at v to the one tuple that holds it, and a new member is stored
with those tuples in place of its own.  The pentagon lookup's row filter
reads the same table.

The canonical labelings of one walk share a memo of row invariants, since
mutation shares every row away from the mutated vertex; the memo goes with
the walk.  Mutation at k reads row k only through its split (the negated
row and the arrows into and out of k), so ``splits[v]`` keeps the split of
each row met at v, with that row's nonzero pairs from the memo: a vertex's
row is mostly one of a few stored rows.  A mutated matrix is wrapped as a
quiver only when it is labeled.
"""

from __future__ import annotations

import fnmatch
import json
import os
from collections import deque
from dataclasses import dataclass

from quivercount.canonical import canonical_key, canonical_labeling
from quivercount.quiver import (
    ExchangeQuiver,
    _mutated,
    _split,
    max_multiplicity,
    underlying_graph_connected,
    write_quiver,
)

# Unused here, since the walk mutates through _mutated, but kept as a name
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
    memo: dict = {}  # row invariants for canonical_labeling
    key0, order0 = canonical_labeling(seed, memo=memo)
    members = {key0: seed}
    depths = {key0: 0}
    # members queued or being expanded, by matrix; the queue holds the same
    # records: matrix -> (quiver, depth, canonical order, vertices not to mutate)
    waiting = {seed.b: (seed, 0, order0, set())}
    # rows_at[v]: stored members' rows at v, each the one copy they share
    rows_at = [{row: row} for row in seed.b]
    # splits[v]: _split of each row met at v, with that row's nonzero pairs
    # from the memo; a vertex's row is mostly one of a few stored rows
    splits = [{} for _ in seed.b]
    queue = deque(waiting.values())
    while queue:
        # kept waiting while q is expanded: mu_k(q) ~ q may add a later vertex
        q, d, _, skip = queue.popleft()
        b = q.b
        for k in range(q.n):
            if k in skip:
                continue  # this mutation gives back a known member
            row = b[k]
            split = splits[k].get(row)
            if split is None:
                # q was labeled through the memo, so its rows are there
                split = splits[k][row] = (*_split(row), memo[row][0])
            b2 = _mutated(b, k, split)
            # a waiting member's row at k is a stored row at k
            if split[0] in rows_at[k]:
                entry = waiting.get(b2)
                if entry is not None:
                    entry[3].add(k)  # sigma is the identity
                    continue
            # k has the same neighbours before and after the mutation
            nbrs = split[3]
            hit = _swapped_member(b2, k, nbrs, rows_at[k], waiting)
            if hit is not None:
                entry, u = hit
                entry[3].add(u)  # sigma swaps k and u
                continue
            q2 = ExchangeQuiver._trusted(b2)
            key2, order2 = canonical_labeling(q2, memo=memo)
            # the labeling put q2's rows in the memo; only the rows at k's
            # neighbours changed, and q is within the cap
            m = max(memo[b2[u]][2] for u, _ in nbrs)
            if m > multiplicity_cap:
                raise CapExceeded(m, multiplicity_cap, d + 1, q2)
            if key2 not in members:
                # store q2 with the rows that stored members already hold
                b2 = tuple(at.setdefault(r, r) for at, r in zip(rows_at, b2))
                q2 = ExchangeQuiver._trusted(b2)
                members[key2] = q2
                depths[key2] = d + 1
                waiting[b2] = record = (q2, d + 1, order2, {k})
                queue.append(record)
                continue
            entry = waiting.get(members[key2].b)
            if entry is not None:
                entry[3].add(entry[2][order2.index(k)])  # sigma(k)
        del waiting[b]
    return MutationClass(members, depths)


def _swapped(row, k: int, u: int):
    """``row`` with its entries k and u exchanged."""
    row = list(row)
    row[k], row[u] = row[u], row[k]
    return tuple(row)


def _swapped_member(b, k: int, nbrs, rows_at_k: dict, waiting: dict):
    """``(entry, u)`` for a waiting member equal to ``b`` with k and u swapped.

    ``entry`` is that member's value in ``waiting``.  ``u`` runs over the
    neighbours of k, given as ``nbrs``, the memo's nonzero ``(u, e)`` pairs
    of row k.  Row k of the swapped matrix is row u of ``b`` with entries k
    and u exchanged, so the whole matrix is built only when that row is
    some stored member's row at k, per ``rows_at_k``.  Returns None when no
    swap gives a waiting member.
    """
    for u, _ in nbrs:
        if _swapped(b[u], k, u) not in rows_at_k:
            continue
        # swap columns k and u, sharing the rows whose entries there agree,
        # then rows k and u
        rows = [row if row[k] == row[u] else _swapped(row, k, u) for row in b]
        rows[k], rows[u] = rows[u], rows[k]
        entry = waiting.get(tuple(rows))
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


def class_to_json(mc: MutationClass) -> list[dict]:
    """JSON-ready member list: key, matrix and BFS discovery depth, key-sorted."""
    return [
        {
            "key": k.hex(),
            "matrix": [list(row) for row in mc.members[k].b],
            "depth": mc.depths[k],
        }
        for k in mc.keys()
    ]


def write_class_json(mc: MutationClass, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(class_to_json(mc), fh, indent=1)
        fh.write("\n")


def _refuse_member_files(path) -> None:
    """Raise ValueError when ``path`` holds member files; a missing path passes."""
    if os.path.exists(path) and fnmatch.filter(os.listdir(path), "member-*.quiver"):
        raise ValueError(f"{path} already holds member-*.quiver files")


def write_class_dir(mc: MutationClass, path) -> None:
    """One quiver file per member, numbered in canonical key order.

    Raises ValueError, writing nothing, when ``path`` already holds member
    files: a dump over another class's would mix the two.
    """
    os.makedirs(path, exist_ok=True)
    _refuse_member_files(path)
    for idx, key in enumerate(mc.keys()):
        header = f"key {key.hex()}\ndepth {mc.depths[key]}"
        write_quiver(
            mc.members[key],
            os.path.join(path, f"member-{idx:05d}.quiver"),
            header=header,
        )
