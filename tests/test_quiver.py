import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mutate_arrow_list, random_quiver, relabel
from quivercount.quiver import (
    MAX_VERTICES,
    ExchangeQuiver,
    QuiverFormatError,
    dumps,
    loads,
    max_multiplicity,
    mutate,
    read_quiver,
    underlying_graph_connected,
    write_quiver,
)


def linear(n):
    return ExchangeQuiver.from_arrows(n, [(i, i + 1) for i in range(n - 1)])


@st.composite
def quivers(draw, max_n=7, max_mult=2):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = draw(
        st.lists(
            st.integers(min_value=-max_mult, max_value=max_mult),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    b = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            b[i][j] = v
            b[j][i] = -v
    return ExchangeQuiver.from_matrix(b)


# -- construction -------------------------------------------------------------


def test_rejects_non_skew_matrix():
    with pytest.raises(ValueError):
        ExchangeQuiver.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        ExchangeQuiver.from_matrix([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        ExchangeQuiver.from_matrix([[0, 1], [-1, 0], [0, 0]])


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1.5, 0], [-1.5, 0, 1], [0, -1, 0]],  # truncated to the path
        [[0, "2"], ["-2", 0]],  # parsed into the Kronecker quiver
    ],
)
def test_from_matrix_rejects_entries_that_are_not_integers(rows):
    with pytest.raises(ValueError, match="is not an integer"):
        ExchangeQuiver.from_matrix(rows)


def test_from_arrows_and_arrows_roundtrip():
    q = ExchangeQuiver.from_arrows(4, [(0, 1), (1, 2, 2), (3, 2)])
    assert q.b[0][1] == 1 and q.b[1][2] == 2 and q.b[2][3] == -1
    assert sorted(q.arrows()) == [(0, 1, 1), (1, 2, 2), (3, 2, 1)]


# -- mutation -----------------------------------------------------------------


def test_mutate_linear_middle_gives_oriented_triangle():
    q = linear(3)
    m = mutate(q, 1)
    assert m == ExchangeQuiver.from_arrows(3, [(1, 0), (2, 1), (0, 2)])


def test_mutate_at_sink_reverses_incident_arrows():
    # vertex 2 is a sink of 0 -> 2 <- 1
    q = ExchangeQuiver.from_arrows(3, [(0, 2), (1, 2)])
    m = mutate(q, 2)
    assert m == ExchangeQuiver.from_arrows(3, [(2, 0), (2, 1)])


def test_mutate_out_of_range():
    with pytest.raises(IndexError):
        mutate(linear(3), 3)
    with pytest.raises(IndexError):
        mutate(linear(3), -1)


def test_mutate_double_arrow_kronecker():
    q = ExchangeQuiver.from_arrows(2, [(0, 1, 2)])
    assert mutate(q, 0) == ExchangeQuiver.from_arrows(2, [(1, 0, 2)])


@given(quivers(), st.data())
@settings(max_examples=150)
def test_mutation_is_involution(q, data):
    k = data.draw(st.integers(min_value=0, max_value=q.n - 1))
    assert mutate(mutate(q, k), k) == q


@given(quivers(), st.data())
@settings(max_examples=150)
def test_mutation_matches_arrow_list_oracle(q, data):
    k = data.draw(st.integers(min_value=0, max_value=q.n - 1))
    assert mutate(q, k) == mutate_arrow_list(q, k)


@given(quivers(), st.data())
@settings(max_examples=150)
def test_mutation_commutes_with_relabeling(q, data):
    k = data.draw(st.integers(min_value=0, max_value=q.n - 1))
    perm = data.draw(st.permutations(range(q.n)))
    assert mutate(relabel(q, perm), perm[k]) == relabel(mutate(q, k), perm)


def test_mutation_seeded_sweep():
    rng = random.Random(20240811)
    for _ in range(500):
        q = random_quiver(rng, rng.randint(2, 8))
        k = rng.randrange(q.n)
        m = mutate(q, k)
        assert mutate(m, k) == q
        assert m == mutate_arrow_list(q, k)


# -- plumbing -----------------------------------------------------------------


def test_connectivity():
    assert underlying_graph_connected(ExchangeQuiver.from_matrix([[0]]))
    assert not underlying_graph_connected(ExchangeQuiver.from_arrows(2, []))
    assert underlying_graph_connected(linear(5))
    two_pieces = ExchangeQuiver.from_arrows(4, [(0, 1), (2, 3)])
    assert not underlying_graph_connected(two_pieces)


def test_max_multiplicity():
    assert max_multiplicity(ExchangeQuiver.from_arrows(2, [(0, 1, 2)])) == 2
    assert max_multiplicity(linear(4)) == 1
    assert max_multiplicity(ExchangeQuiver.from_arrows(3, [])) == 0


# -- text format --------------------------------------------------------------


def test_dumps_loads_roundtrip():
    q = ExchangeQuiver.from_arrows(4, [(0, 1), (1, 2, 2), (3, 2)])
    assert loads(dumps(q)) == q


def test_loads_accepts_comments_and_blank_lines():
    text = "# a quiver\n\n3\n0 1 1   # an arrow\n2 1 1\n"
    q = loads(text)
    assert q == ExchangeQuiver.from_arrows(3, [(0, 1), (2, 1)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 3\n",
        "x\n",
        "2\n0 1\n",
        "2\n0 1 0\n",
        "2\n0 0 1\n",
        "2\n0 1 1\n0 1 1\n",
        "2\n0 1 1\n1 0 1\n",
        "2\n0 2 1\n",
        f"{MAX_VERTICES + 1}\n",
        "100000\n",
    ],
)
def test_loads_rejects_malformed(text):
    with pytest.raises(QuiverFormatError):
        loads(text)


def test_loads_rejects_a_bad_arrow_before_allocating():
    # a dense 1000 x 1000 matrix peaks near 8 MB; the loop is caught first
    tracemalloc.start()
    try:
        with pytest.raises(QuiverFormatError, match="bad arrow 0 -> 0"):
            loads(f"{MAX_VERTICES}\n0 1 1\n0 0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_file_roundtrip(tmp_path):
    q = ExchangeQuiver.from_arrows(3, [(0, 1), (2, 1)])
    path = tmp_path / "q.quiver"
    write_quiver(q, path, header="fixture")
    assert read_quiver(path) == q
    assert path.read_text().startswith("# fixture\n")
