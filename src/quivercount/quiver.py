"""Quivers as skew-symmetric integer exchange matrices, and their mutation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class QuiverFormatError(ValueError):
    """Raised when a quiver text file cannot be parsed."""


@dataclass(frozen=True, slots=True)
class ExchangeQuiver:
    """A finite quiver without loops or oriented 2-cycles.

    Entry ``b[i][j]`` is the number of arrows ``i -> j`` minus the number of
    arrows ``j -> i``.  Because oriented 2-cycles are excluded, at most one
    of the two counts is nonzero, so the signed matrix encodes the quiver
    losslessly.  Instances are immutable and hashable; connectivity is not
    enforced here and is checked by callers that need it.  The constructor
    expects ``int`` entries and does not check their type;
    :meth:`from_matrix` converts entries and refuses any that are not
    integers.
    """

    b: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.b)
        for i, row in enumerate(self.b):
            if len(row) != n:
                raise ValueError("exchange matrix must be square")
            if row[i] != 0:
                raise ValueError("diagonal entries must be zero (no loops)")
            for j in range(i + 1, n):
                if row[j] != -self.b[j][i]:
                    raise ValueError("exchange matrix must be skew-symmetric")

    @classmethod
    def _trusted(cls, b: tuple[tuple[int, ...], ...]) -> "ExchangeQuiver":
        """Wrap a matrix already known to be a valid exchange matrix, unchecked.

        Mutation builds its result this way: mutating a valid exchange
        matrix gives a valid one, so the square, zero-diagonal and
        skew-symmetry checks of ``__post_init__`` would find nothing.
        """
        q = object.__new__(cls)
        object.__setattr__(q, "b", b)
        return q

    @property
    def n(self) -> int:
        """Number of vertices (labelled 0..n-1)."""
        return len(self.b)

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[int]]) -> "ExchangeQuiver":
        """Build a quiver from integer-valued entries, stored as ``int``.

        Raises ValueError for an entry whose integer value differs from it,
        as 1.5 or "2", instead of truncating or parsing it into another
        quiver.
        """
        b = []
        for row in map(tuple, rows):
            ints = tuple(map(int, row))
            if ints != row:
                x = next(x for x, i in zip(row, ints) if x != i)
                raise ValueError(f"exchange matrix entry {x!r} is not an integer")
            b.append(ints)
        return cls(tuple(b))

    @classmethod
    def from_arrows(
        cls, n: int, arrows: Iterable[Sequence[int]]
    ) -> "ExchangeQuiver":
        """Build a quiver from ``(tail, head)`` or ``(tail, head, mult)`` entries.

        Contributions are summed with sign, so listing both ``i -> j`` and
        ``j -> i`` cancels arrows instead of producing an oriented 2-cycle.
        """
        b = [[0] * n for _ in range(n)]
        for arrow in arrows:
            i, j = arrow[0], arrow[1]
            m = arrow[2] if len(arrow) > 2 else 1
            if i == j:
                raise ValueError("loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"vertex out of range in arrow {(i, j)}")
            if m < 0:
                raise ValueError("arrow multiplicity must be nonnegative")
            b[i][j] += m
            b[j][i] -= m
        return cls.from_matrix(b)

    def arrows(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(tail, head, multiplicity)`` for every arrow bundle."""
        for i in range(self.n):
            row = self.b[i]
            for j in range(self.n):
                if row[j] > 0:
                    yield i, j, row[j]


def mutate(q: ExchangeQuiver, k: int) -> ExchangeQuiver:
    """Mutate ``q`` at vertex ``k`` and return the new quiver.

    Entries in row or column ``k`` flip sign; any other entry picks up the
    signed two-path contribution through ``k``.  At a sink or source this
    reduces to reversing the incident arrows, and applying the same mutation
    twice gives back the original quiver.  The input is not modified.
    """
    n = q.n
    if not 0 <= k < n:
        raise IndexError(f"vertex {k} out of range for a quiver on {n} vertices")
    b = q.b
    nbrs = [(u, e) for u, e in enumerate(b[k]) if e]
    rows = list(b)
    rows[k] = tuple([-x for x in b[k]])
    for u, _ in nbrs:
        rows[u] = _mutated_row(b[u], k, nbrs)
    return ExchangeQuiver._trusted(tuple(rows))


def _mutated_row(row, k: int, nbrs):
    """Row ``row`` of a neighbour of ``k`` after mutation at ``k``.

    ``nbrs`` lists the ``(j, y)`` pairs of row k with ``y`` nonzero.  With
    ``x = row[k]``, entry k becomes ``-x`` and every entry j where y has the
    sign of x gains ``|x| * y``: the two-paths through k.  Rows away from k
    and its neighbours do not change, and row k only changes sign.
    """
    x = row[k]
    out = list(row)
    out[k] = -x
    if x > 0:
        for j, y in nbrs:
            if y > 0:
                out[j] += x * y
    else:
        for j, y in nbrs:
            if y < 0:
                out[j] -= x * y
    # a tuple built from a list is sized exactly; one built from an iterator
    # keeps spare slots, and a walk's members keep these rows
    return tuple(out)


def underlying_graph_connected(q: ExchangeQuiver) -> bool:
    """True iff the underlying undirected graph is connected."""
    n = q.n
    if n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        row = q.b[v]
        for u in range(n):
            if row[u] and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def max_multiplicity(q: ExchangeQuiver) -> int:
    """Largest arrow multiplicity, 0 for an arrowless quiver."""
    return max((abs(x) for row in q.b for x in row), default=0)


# --- text format -----------------------------------------------------------
#
# One quiver per file.  First value line holds the vertex count n, then one
# line per arrow bundle: "i j m" meaning m arrows i -> j.  '#' starts a
# comment, whitespace separates fields.  The writer emits bundles sorted
# lexicographically by (i, j).

# Largest vertex count a file may declare: the reader builds the dense n x n
# matrix once every arrow line has passed, so a file of a few lines could
# otherwise ask for any amount of memory.  A million cells is far above
# every targeted family.
MAX_VERTICES = 1000


def dumps(q: ExchangeQuiver) -> str:
    lines = [str(q.n)] + [f"{i} {j} {m}" for i, j, m in sorted(q.arrows())]
    return "\n".join(lines) + "\n"


def loads(text: str) -> ExchangeQuiver:
    # value lines as field lists, split one at a time as they are checked
    rows = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    rows = (fields for fields in rows if fields)
    head = next(rows, None)
    if head is None:
        raise QuiverFormatError("empty quiver file")
    if len(head) != 1:
        raise QuiverFormatError("first line must hold the vertex count only")
    try:
        n = int(head[0])
    except ValueError as exc:
        raise QuiverFormatError(f"bad vertex count {head[0]!r}") from exc
    if n < 0:
        raise QuiverFormatError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise QuiverFormatError(f"vertex count {n} exceeds the ceiling {MAX_VERTICES}")
    # every arrow is checked before the dense matrix exists
    bundles: dict[tuple[int, int], tuple[int, int, int]] = {}
    for fields in rows:
        if len(fields) != 3:
            raise QuiverFormatError(f"expected 'i j m', got {' '.join(fields)!r}")
        try:
            i, j, m = (int(f) for f in fields)
        except ValueError as exc:
            raise QuiverFormatError(f"non-integer field in {' '.join(fields)!r}") from exc
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise QuiverFormatError(f"bad arrow {i} -> {j} for n={n}")
        if m < 1:
            raise QuiverFormatError("arrow multiplicity must be at least 1")
        pair = (min(i, j), max(i, j))
        if pair in bundles:
            raise QuiverFormatError(f"duplicate or opposing arrows between {i} and {j}")
        bundles[pair] = (i, j, m)
    b = [[0] * n for _ in range(n)]
    for i, j, m in bundles.values():
        b[i][j] = m
        b[j][i] = -m
    return ExchangeQuiver.from_matrix(b)


def write_quiver(q: ExchangeQuiver, path, header: str | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        fh.write(dumps(q))


def read_quiver(path) -> ExchangeQuiver:
    with open(path, "r", encoding="ascii") as fh:
        return loads(fh.read())
