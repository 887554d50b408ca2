import gc
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_isomorphic, reference_canonical_labeling, relabel
from quivercount import canonical
from quivercount.canonical import (
    _min_labeling,
    _refine,
    canonical_key,
    canonical_labeling,
)
from quivercount.mutation_class import seed_cycle, seed_dynkin_d
from quivercount.quiver import ExchangeQuiver, mutate
from test_quiver import quivers

# Key bytes appear in `enumerate --json`, so they are pinned literally.
PINNED_KEYS = [
    pytest.param(ExchangeQuiver.from_matrix([]), None, b"0||", id="empty"),
    pytest.param(ExchangeQuiver.from_matrix([[0]]), None, b"1|0|", id="one-vertex"),
    pytest.param(
        seed_cycle(2, 3), None, b"5|0,1,2,3,4|1,1,0,0,1,0,0,0,1,1", id="atilde-2-3"
    ),
    pytest.param(
        seed_dynkin_d(5), None, b"5|0,1,2,3,3|0,1,-1,0,1,0,0,1,0,0", id="dynkin-d-5"
    ),
    # refinement leaves one cell of four: the search decides
    pytest.param(
        ExchangeQuiver.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        None,
        b"4|0,0,0,0|-1,0,-1,1,0,-1",
        id="oriented-4-cycle",
    ),
    pytest.param(
        ExchangeQuiver.from_arrows(
            5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
        ),
        [1, 0, 0, 0, 0],
        b"5|0,1,2,3,4|-1,1,-1,1,0,0,-1,0,0,1",
        id="rooted-bowtie",
    ),
]


@pytest.mark.parametrize("q, colors, key", PINNED_KEYS)
def test_pinned_key_bytes(q, colors, key):
    assert canonical_key(q, colors) == key


@given(quivers(max_n=7))
@settings(max_examples=200, deadline=None)
def test_forced_labeling_matches_search_on_discrete_colorings(q):
    n = q.n
    adj = [[(u, e) for u, e in enumerate(row) if e] for row in q.b]
    width = 2 * max((abs(e) for row in q.b for e in row), default=0) + 1
    col = [0] * n
    assume(not _refine(adj, col, [(0, list(range(n)))] if n > 1 else [], width))
    # no cell left open: vertex v sits at position col[v], and the search
    # over orderings of the discrete coloring finds only that one
    order = sorted(range(n), key=col.__getitem__)
    assert _min_labeling(q.b, col) == order
    assert canonical_labeling(q)[1] == order


@given(quivers(max_n=9, max_mult=3), st.data())
@settings(max_examples=300, deadline=None)
def test_labeling_matches_the_global_sort_reference(q, data):
    # cell-local rounds over integer codes must rank exactly as the nested
    # signatures do, so keys and orders agree byte for byte
    colors = data.draw(
        st.none() | st.lists(st.integers(-1, 3), min_size=q.n, max_size=q.n)
    )
    assert canonical_labeling(q, colors) == reference_canonical_labeling(q, colors)
    # the quiver's mutations share rows with it through one memo, and reach
    # larger entries
    memo = {}
    for x in [q] + [mutate(q, k) for k in range(q.n)] + [q]:
        got = canonical_labeling(x, colors, memo=memo)
        assert got == reference_canonical_labeling(x, colors)


@st.composite
def quivers_with_twins(draw):
    # each clone copies a vertex's row, with a 0 entry between the two, so
    # the clone and the vertex are twins: their rows are identical
    b = [list(row) for row in draw(quivers(max_n=6, max_mult=3)).b]
    for _ in range(draw(st.integers(1, 9 - len(b)))):
        v = draw(st.integers(0, len(b) - 1))
        for row in b:
            row.append(row[v])
        b.append(list(b[v]))
    perm = draw(st.permutations(range(len(b))))
    return relabel(ExchangeQuiver.from_matrix(b), perm)


@given(quivers_with_twins(), st.data())
@settings(max_examples=300, deadline=None)
def test_twin_cells_are_labeled_as_the_search_labels_them(q, data):
    # when refinement leaves open only cells of twins, the labeling is
    # written without a search; it must be the search's own leaf
    colors = data.draw(
        st.none() | st.lists(st.integers(0, 2), min_size=q.n, max_size=q.n)
    )
    assert canonical_labeling(q, colors) == reference_canonical_labeling(q, colors)


def test_twin_leaves_skip_the_search(monkeypatch):
    # the two fork tips of D_6 are twins and refinement splits every
    # other vertex, so no search runs
    q = relabel(seed_dynkin_d(6), [4, 0, 5, 2, 1, 3])
    want = reference_canonical_labeling(q)

    def no_search(b, colors):
        raise AssertionError("searched a labeling that only twins leave open")

    monkeypatch.setattr(canonical, "_min_labeling", no_search)
    assert canonical_labeling(q) == want
    assert want[0].split(b"|")[1] == b"0,1,2,3,4,4"


def test_search_leaves_no_cyclic_garbage():
    # refinement leaves the oriented 4-cycle one cell of four, so the
    # search runs; what it builds must be freed when it returns
    q = seed_cycle(0, 4)
    gc.collect()
    gc.disable()
    try:
        canonical_key(q)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("big", [99, 100, 1000])
def test_key_text_of_large_entries_matches_the_reference(big):
    # a discrete coloring writes its key text from a table of small-integer
    # strings; entries past the table take the str fallback
    q = ExchangeQuiver.from_arrows(
        5, [(0, 1, big), (2, 1, 3), (2, 3, big), (3, 4, 1), (4, 0, 2)]
    )
    for colors in (None, [0, 1, 1, 0, 1]):
        key, order = canonical_labeling(q, colors)
        _, slots, flat = key.split(b"|")
        assert slots == b"0,1,2,3,4"
        assert big in [abs(int(e)) for e in flat.split(b",")]
        assert (key, order) == reference_canonical_labeling(q, colors)


def test_labeling_matches_the_reference_on_class_members(cycle_class):
    # every member of each annular class with r+s <= 8 and each of its
    # one-step mutations, one memo per class as the enumerator keeps it
    for n in range(2, 9):
        for r in range(1, n // 2 + 1):
            memo = {}
            for q in cycle_class(r, n - r).members.values():
                for x in [q] + [mutate(q, k) for k in range(n)]:
                    got = canonical_labeling(x, memo=memo)
                    assert got == reference_canonical_labeling(x)


@given(quivers(max_n=7), st.data())
@settings(max_examples=200, deadline=None)
def test_order_reproduces_the_key(q, data):
    # position p of the canonical matrix holds vertex order[p], so moving
    # each vertex to its position gives the matrix the key encodes
    colors = data.draw(
        st.none() | st.lists(st.integers(0, 2), min_size=q.n, max_size=q.n)
    )
    key, order = canonical_labeling(q, colors)
    assert key == canonical_key(q, colors)
    assert sorted(order) == list(range(q.n))
    perm = [0] * q.n
    for p, v in enumerate(order):
        perm[v] = p
    b = relabel(q, perm).b
    flat = [b[p][u] for p in range(q.n) for u in range(p)]
    assert key.split(b"|")[2] == ",".join(map(str, flat)).encode("ascii")


def test_relabeled_paths_share_a_key():
    a = ExchangeQuiver.from_arrows(2, [(0, 1)])
    b = ExchangeQuiver.from_arrows(2, [(1, 0)])
    assert canonical_key(a) == canonical_key(b)


def test_triangle_vs_path_differ():
    tri = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2), (2, 0)])
    path = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2)])
    assert canonical_key(tri) != canonical_key(path)


def test_orientation_matters():
    # non-oriented and oriented triangles are not isomorphic
    non = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2), (0, 2)])
    ori = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2), (2, 0)])
    assert canonical_key(non) != canonical_key(ori)


def test_multiplicity_matters():
    single = ExchangeQuiver.from_arrows(2, [(0, 1)])
    double = ExchangeQuiver.from_arrows(2, [(0, 1, 2)])
    assert canonical_key(single) != canonical_key(double)


@given(quivers(max_n=7), st.data())
@settings(max_examples=150, deadline=None)
def test_key_is_permutation_invariant(q, data):
    perm = data.draw(st.permutations(range(q.n)))
    assert canonical_key(relabel(q, perm)) == canonical_key(q)


@given(quivers(max_n=5), quivers(max_n=5))
@settings(max_examples=100, deadline=None)
def test_agreement_with_exhaustive_search(q1, q2):
    same = canonical_key(q1) == canonical_key(q2)
    assert same == brute_force_isomorphic(q1, q2)


def test_agreement_on_enumerated_class_pairs(cycle_class):
    # pairs drawn from real mutation classes: exhaustive through 5 vertices,
    # sampled beyond that where the factorial oracle gets expensive
    rng = random.Random(99)
    for r, s in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        members = cycle_class(r, s).representatives()
        for i, q1 in enumerate(members):
            for q2 in members[i:]:
                same = canonical_key(q1) == canonical_key(q2)
                assert same == brute_force_isomorphic(q1, q2)
    for r, s in [(1, 5), (3, 3), (2, 5), (3, 4)]:
        members = cycle_class(r, s).representatives()
        for _ in range(25):
            q1, q2 = rng.sample(members, 2)
            assert canonical_key(q1) != canonical_key(q2)
            assert not brute_force_isomorphic(q1, q2)
        q = rng.choice(members)
        perm = list(range(q.n))
        rng.shuffle(perm)
        assert canonical_key(q) == canonical_key(relabel(q, perm))
        assert brute_force_isomorphic(q, relabel(q, perm))


def test_rooted_colors_distinguish_roots():
    # a path rooted at an end vs rooted in the middle
    q = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2)])
    end = canonical_key(q, colors=[0, 1, 1])
    mid = canonical_key(q, colors=[1, 0, 1])
    other_end = canonical_key(q, colors=[1, 1, 0])
    assert end != mid
    # the two ends of 0 -> 1 -> 2 are not exchangeable: one is a source,
    # the other a sink
    assert end != other_end


def test_rooted_colors_follow_isomorphism():
    q = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2)])
    p = relabel(q, [2, 0, 1])  # root 0 moves to vertex 2
    assert canonical_key(q, colors=[0, 1, 1]) == canonical_key(p, colors=[1, 1, 0])


@pytest.mark.parametrize(
    "colors, message",
    [
        # int() would read [0, 1, 1] and merge the two classes kept apart
        ([0, 1.5, 1.2], "color 1.5 is not an integer"),
        ([0, "1", 1], "color '1' is not an integer"),
        ([0, 1], "one class per vertex"),
        ([0, 1, 1, 0], "one class per vertex"),
    ],
    ids=["fractional", "text", "short", "long"],
)
def test_colors_must_be_one_integer_per_vertex(colors, message):
    q = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=message):
        canonical_key(q, colors=colors)


def test_degenerate_symmetric_inputs_stay_fast():
    empty = ExchangeQuiver.from_arrows(10, [])
    doubled = ExchangeQuiver.from_arrows(
        10, [(2 * i, 2 * i + 1) for i in range(5)]
    )
    assert canonical_key(empty) != canonical_key(doubled)
    shuffled = relabel(doubled, [3, 8, 0, 5, 1, 9, 2, 7, 4, 6])
    assert canonical_key(shuffled) == canonical_key(doubled)
