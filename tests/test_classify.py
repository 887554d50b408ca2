import hashlib
import random
import time
from collections import Counter

import pytest

import quivercount.canonical
from oracles import (
    all_quivers,
    attachment_vertices,
    reference_chordless_cycles,
    reference_is_symmetric,
    reference_rooted_key,
)
from quivercount.canonical import canonical_key
from quivercount.classify import (
    classify,
    is_symmetric,
    parse_rooted_type_a,
)
from quivercount.counting import normalize_parameters
from quivercount.mutation_class import enumerate_class, seed_cycle, seed_dynkin_d
from quivercount.quiver import (
    ExchangeQuiver,
    mutate,
    read_quiver,
    relabel,
)


# -- rooted type A parsing ----------------------------------------------------


def test_parse_single_vertex():
    q = ExchangeQuiver.from_matrix([[0]])
    assert parse_rooted_type_a(q, 0) == (0, 0)


def test_parse_paths():
    q = ExchangeQuiver.from_arrows(4, [(0, 1), (2, 1), (2, 3)])
    assert parse_rooted_type_a(q, 0) == (3, 0)
    assert parse_rooted_type_a(q, 3) == (3, 0)
    # an inner vertex of a path has two plain incident arrows: not a root
    assert parse_rooted_type_a(q, 1) is None


def test_parse_triangle_at_root():
    tri = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2), (2, 0)])
    assert parse_rooted_type_a(tri, 0) == (0, 1)
    non_oriented = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2), (0, 2)])
    assert parse_rooted_type_a(non_oriented, 0) is None


def test_parse_triangle_with_tails():
    q = ExchangeQuiver.from_arrows(
        6, [(0, 1), (1, 2), (2, 0), (1, 3), (4, 2), (4, 5)]
    )
    assert parse_rooted_type_a(q, 0) == (3, 1)


def test_parse_rejects_star():
    star = ExchangeQuiver.from_arrows(4, [(1, 0), (0, 2), (0, 3)])
    assert parse_rooted_type_a(star, 1) is None


def test_parse_rejects_long_cycle_and_double_arrow():
    square = ExchangeQuiver.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert parse_rooted_type_a(square, 0) is None
    double = ExchangeQuiver.from_arrows(2, [(0, 1, 2)])
    assert parse_rooted_type_a(double, 0) is None


def test_parse_walks_past_the_recursion_limit():
    n = 1500
    path = ExchangeQuiver.from_arrows(n, [(i, i + 1) for i in range(n - 1)])
    assert parse_rooted_type_a(path, 0) == (n - 1, 0)


def test_parse_rejects_unreachable_leftovers():
    q = ExchangeQuiver.from_arrows(4, [(0, 1), (2, 3)])
    assert parse_rooted_type_a(q, 0) is None


@pytest.mark.parametrize("root", [-1, 3, 7])
def test_parse_rejects_a_root_the_quiver_lacks(root):
    # -1 would alias vertex 2, and 3 and 7 would index past the matrix
    path = ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        parse_rooted_type_a(path, root)


# -- classification -----------------------------------------------------------


def test_bare_cycle():
    st = classify(seed_cycle(2, 2))
    assert st.realization_1.as_tuple() == (2, 0, 2, 0)
    assert st.realization_2.as_tuple() == (2, 0, 2, 0)
    assert st.realization_1.r + st.realization_1.s == 4
    assert all(z is None for z in st.apexes)


def test_double_arrow():
    st = classify(seed_cycle(1, 1))
    assert st.realization_1.as_tuple() == (1, 0, 1, 0)
    assert is_symmetric(st)
    assert len(st.base_cycle) == 2


def test_oriented_cycles_are_not_annular():
    assert classify(seed_cycle(0, 3)) is None
    assert classify(seed_cycle(0, 6)) is None
    assert classify(seed_dynkin_d(5)) is None


def test_disconnected_is_not_annular():
    assert classify(ExchangeQuiver.from_arrows(2, [])) is None


def test_lopsided_realizations_are_swaps():
    st = classify(seed_cycle(1, 3))
    assert st.realization_1.as_tuple() == (3, 0, 1, 0)
    assert st.realization_2.as_tuple() == (1, 0, 3, 0)
    assert not is_symmetric(st)


def test_double_arrow_with_one_triangle():
    q = ExchangeQuiver.from_arrows(3, [(0, 1, 2), (1, 2), (2, 0)])
    st = classify(q)
    assert st is not None
    assert st.realization_1.as_tuple() == (0, 1, 1, 0)
    assert (st.realization_1.r, st.realization_1.s) == (2, 1)
    assert not is_symmetric(st)


def test_double_arrow_with_two_triangles():
    q = ExchangeQuiver.from_arrows(
        4, [(0, 1, 2), (1, 2), (2, 0), (1, 3), (3, 0)]
    )
    st = classify(q)
    assert st.realization_1.as_tuple() == (0, 1, 0, 1)
    assert is_symmetric(st)


def test_triangle_attachment_orientation_must_close():
    # apex arrows pointing the wrong way form a second non-oriented cycle
    q = ExchangeQuiver.from_arrows(4, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 1)])
    assert classify(q) is None


def test_extra_arrow_at_cycle_is_rejected():
    # a pendant arrow hanging off the cycle without a 3-cycle
    q = ExchangeQuiver.from_arrows(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    assert classify(q) is None


def test_documented_seventeen_vertex_example(data_dir):
    q = read_quiver(data_dir / "atilde16.quiver")
    st = classify(q)
    assert st is not None
    assert st.realization_1.as_tuple() == (3, 3, 4, 2)
    assert (st.realization_1.r, st.realization_1.s) == (9, 8)
    assert st.realization_2.as_tuple() == (4, 2, 3, 3)
    assert not is_symmetric(st)


def test_classification_is_relabeling_invariant(data_dir):
    q = read_quiver(data_dir / "atilde16.quiver")
    perm = [(7 * i + 3) % q.n for i in range(q.n)]
    st = classify(relabel(q, perm))
    assert st.realization_1.as_tuple() == (3, 3, 4, 2)


def _diamond_chain(d):
    """A double arrow from hub 0 to hub d, closed by d oriented 4-cycles:
    diamond k runs hub k -> p -> hub k + 1 -> q -> hub k.  Not annular, and
    2^d chordless cycles run through the double arrow."""
    arrows = [(0, d, 2)]
    for k in range(d):
        p, q = d + 1 + 2 * k, d + 2 + 2 * k
        arrows += [(k, p), (p, k + 1), (k + 1, q), (q, k)]
    return ExchangeQuiver.from_arrows(3 * d + 1, arrows)


def test_cost_does_not_follow_the_number_of_chordless_cycles():
    # listing every chordless cycle took about 1 s at d = 14 and grew about
    # 2.3-fold per diamond
    q = _diamond_chain(24)
    assert q.n == 73
    start = time.perf_counter()
    assert classify(q) is None
    assert time.perf_counter() - start < 1.0


def test_classify_rejects_every_type_d_member():
    for n in range(4, 11):
        for q in enumerate_class(seed_dynkin_d(n)).members.values():
            assert classify(q) is None, q.b


# -- attachment words ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, arrows, word",
    [
        (3, [], b"."),
        (4, [(2, 3)], b">."),
        (4, [(3, 2)], b"<."),
        (7, [(2, 3), (3, 4), (4, 2), (3, 5), (6, 4)], b"^>.<."),
    ],
)
def test_pinned_attachment_words(n, arrows, word):
    """The attachment hangs from apex 2 of the triangle 1 -> 2 -> 0 on the
    double arrow 0 => 1.  One byte per vertex, depth first from the apex:

    - nothing more: the apex took nothing, ``.``;
    - 2 -> 3: the apex took an arrow out, ``>``, then 3 took nothing;
    - 3 -> 2: the apex took an arrow in, ``<``, then 3 took nothing;
    - the triangle 2 -> 3 -> 4 -> 2 with tails 3 -> 5 and 6 -> 4: the apex
      took a triangle, ``^``; then comes the subtree of 3, which the arrow
      out of the apex leads to (3 took an arrow out, ``>``, and 5 nothing),
      then that of 4 (an arrow in, ``<``, and 6 nothing).
    """
    q = ExchangeQuiver.from_arrows(n, [(0, 1, 2), (1, 2), (2, 0)] + arrows)
    st = classify(q)
    assert st.apexes == (2, None)
    assert st.elements == ((1, word), (0, b""))


def test_words_carry_the_realization_parameters(cycle_class):
    # (r1, r2, s1, s2) read from the words alone: a block with an empty
    # word is one plain arrow, and one with word w and c bytes ``^`` brings
    # len(w) - 1 - 2c plain arrows (its ``>`` and ``<`` bytes) and c + 1
    # oriented 3-cycles; forward blocks count toward (r1, r2)
    for n in range(2, 9):
        for r in range(1, n // 2 + 1):
            for q in cycle_class(r, n - r).representatives():
                st = classify(q)
                sides = [[0, 0], [0, 0]]
                for forward, word in st.elements:
                    side = sides[forward]
                    if not word:
                        side[0] += 1
                        continue
                    c = word.count(b"^")
                    plain = len(word) - 1 - 2 * c
                    assert plain == word.count(b">") + word.count(b"<"), q.b
                    side[0] += plain
                    side[1] += c + 1
                read = normalize_parameters(*sides[1], *sides[0])
                assert read == st.realization_1.as_tuple(), q.b


def _ceiling_member():
    """A double arrow, one 3-cycle on it and a 997-arrow tail from its apex:
    1,000 vertices, the most ``loads`` reads."""
    arrows = [(0, 1, 2), (1, 2), (2, 0)] + [(i, i + 1) for i in range(2, 999)]
    return ExchangeQuiver.from_arrows(1000, arrows)


def test_classify_never_canonicalizes(monkeypatch, data_dir, cycle_class):
    members = cycle_class(2, 3).representatives()
    quivers = [read_quiver(data_dir / "atilde16.quiver"), _ceiling_member()]

    def forbidden(*args):
        raise AssertionError("classify computed a canonical labeling")

    monkeypatch.setattr(quivercount.canonical, "_refine", forbidden)
    monkeypatch.setattr(quivercount.canonical, "_min_labeling", forbidden)
    with pytest.raises(AssertionError):
        canonical_key(quivers[0])
    for q in quivers + members:
        assert classify(q) is not None


# -- whole-class sweeps --------------------------------------------------------


def test_classify_accepts_exactly_the_annular_classes(cycle_class):
    # both directions, exhaustively: every quiver on 2 to 4 vertices with
    # entries in -2..2, disconnected ones included, is accepted exactly
    # when it lies in an enumerated annular class of its rank
    for n in (2, 3, 4):
        members = set()
        for r in range(1, n // 2 + 1):
            members |= set(cycle_class(r, n - r).members)
        for q in all_quivers(n, range(-2, 3)):
            accepted = classify(q) is not None
            assert accepted == (canonical_key(q) in members), q.b


def _walk_sample(rng, n):
    """Relabelled members of mutation walks off the rank-n cycle seeds
    (the oriented one, of type D, included), each followed by a copy with
    one entry changed."""
    for r in range(n // 2 + 1):
        q = seed_cycle(r, n - r)
        for _ in range(12):
            for _ in range(5):
                q = mutate(q, rng.randrange(n))
            perm = list(range(n))
            rng.shuffle(perm)
            member = relabel(q, perm)
            yield member
            i, j = rng.sample(range(n), 2)
            b = [list(row) for row in member.b]
            b[i][j] = rng.choice([v for v in range(-2, 3) if v != b[i][j]])
            b[j][i] = -b[i][j]
            yield ExchangeQuiver.from_matrix(b)


def test_classify_accepts_exactly_the_annular_classes_on_a_seeded_sample(
    cycle_class,
):
    rng = random.Random(906)
    verdicts = Counter()
    for n in range(5, 9):
        members = set()
        for r in range(1, n // 2 + 1):
            members |= set(cycle_class(r, n - r).members)
        for q in _walk_sample(rng, n):
            accepted = classify(q) is not None
            assert accepted == (canonical_key(q) in members), q.b
            verdicts[accepted] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def _words_sample(cycle_class):
    """Every member of every annular class with r + s <= 8, then the
    accepted quivers of the seeded 5 to 8 vertex sample."""
    for n in range(2, 9):
        for r in range(1, n // 2 + 1):
            yield from cycle_class(r, n - r).representatives()
    rng = random.Random(906)
    for n in range(5, 9):
        for q in _walk_sample(rng, n):
            if classify(q) is not None:
                yield q


def test_words_split_attachments_as_the_reference_keys(cycle_class):
    # equal words exactly when equal canonical keys of the rooted
    # subquivers, across every attachment of the sample
    word_of, key_of = {}, {}
    symmetric = Counter()
    for q in _words_sample(cycle_class):
        st = classify(q)
        for z, (_, word) in zip(st.apexes, st.elements):
            if z is None:
                continue
            key = reference_rooted_key(q, attachment_vertices(q, st, z), z)
            assert word_of.setdefault(key, word) == word, q.b
            assert key_of.setdefault(word, key) == key, q.b
        symmetric[is_symmetric(st)] += 1
        assert is_symmetric(st) == reference_is_symmetric(q, st), q.b
    assert len(word_of) > 100 and symmetric[True] > 40, (len(word_of), symmetric)


def test_words_and_symmetry_are_relabelling_invariant(cycle_class):
    rng = random.Random(1515)
    for q in _words_sample(cycle_class):
        perm = list(range(q.n))
        rng.shuffle(perm)
        st, st2 = classify(q), classify(relabel(q, perm))
        words = Counter(word for _, word in st.elements if word)
        assert Counter(word for _, word in st2.elements if word) == words
        assert is_symmetric(st2) == is_symmetric(st), q.b


def _cycle_read(st):
    """The base cycle ``classify`` read, as vertices in its traversal order;
    (tail, head) for the double arrow."""
    if len(st.base_cycle) == 2:
        return st.base_cycle[0]
    return tuple(
        x if forward else y
        for (x, y), (forward, _) in zip(st.base_cycle, st.elements)
    )


def _non_oriented_cycles(q):
    """Double arrows as (tail, head), then the non-oriented chordless cycles
    of single arrows, in the reference's order."""
    b = q.b
    found = [(i, j) for i in range(q.n) for j in range(q.n) if b[i][j] == 2]
    for cyc in reference_chordless_cycles(q):
        m = len(cyc)
        signs = [b[cyc[t]][cyc[(t + 1) % m]] for t in range(m)]
        if all(abs(x) == 1 for x in signs) and len(set(signs)) == 2:
            found.append(cyc)
    return found


def test_base_cycle_is_the_unique_non_oriented_chordless_cycle(cycle_class):
    for n in range(2, 9):
        for r in range(1, n // 2 + 1):
            for q in cycle_class(r, n - r).representatives():
                assert _non_oriented_cycles(q) == [_cycle_read(classify(q))], q.b


def _pinned_inputs(cycle_class):
    """Every member of every annular class with r + s <= 8, every quiver on
    2 to 4 vertices with entries in -2..2, then the seeded 5 to 8 vertex
    sample."""
    for n in range(2, 9):
        for r in range(1, n // 2 + 1):
            yield from cycle_class(r, n - r).representatives()
    for n in (2, 3, 4):
        yield from all_quivers(n, range(-2, 3))
    rng = random.Random(906)
    for n in range(5, 9):
        yield from _walk_sample(rng, n)


def test_classify_output_is_pinned(cycle_class):
    # one line of repr(classify(q)) per input; a change to any field of any
    # result, or to a verdict, changes the digest
    digest = hashlib.sha256()
    count = 0
    for q in _pinned_inputs(cycle_class):
        digest.update(repr(classify(q)).encode() + b"\n")
        count += 1
    assert count == 17882
    assert digest.hexdigest() == (
        "6281cd42e4080d3b6edf9388aed8c9212947b6c0853996f9793e6cb935abda98"
    )
