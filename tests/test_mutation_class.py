import hashlib
import json
import random

import pytest

import oracles
from oracles import random_quiver, reference_enumerate, relabel
from quivercount import cli, mutation_class
from quivercount.canonical import canonical_key
from quivercount.counting import a_tilde
from quivercount.mutation_class import (
    CapExceeded,
    enumerate_class,
    seed_cycle,
    seed_dynkin_d,
)
from quivercount.quiver import (
    ExchangeQuiver,
    max_multiplicity,
    mutate,
    underlying_graph_connected,
    write_quiver,
)


def test_seed_cycle_shapes():
    double = seed_cycle(1, 1)
    assert double == ExchangeQuiver.from_arrows(2, [(0, 1, 2)])
    four = seed_cycle(2, 2)
    assert four == ExchangeQuiver.from_arrows(4, [(0, 1), (1, 2), (3, 2), (0, 3)])
    oriented = seed_cycle(0, 5)
    assert all(oriented.b[(i + 1) % 5][i] == 1 for i in range(5))


def test_seed_cycle_rejections():
    with pytest.raises(ValueError):
        seed_cycle(0, 1)
    with pytest.raises(ValueError):
        seed_cycle(0, 2)
    with pytest.raises(ValueError):
        seed_cycle(2, 0)


def test_seed_dynkin_d_shape():
    q = seed_dynkin_d(4)
    degrees = sorted(
        sum(1 for j in range(4) if q.b[i][j]) for i in range(4)
    )
    assert degrees == [1, 1, 1, 3]
    with pytest.raises(ValueError):
        seed_dynkin_d(3)


def test_single_vertex_class():
    q = ExchangeQuiver.from_matrix([[0]])
    assert enumerate_class(q).size == 1


def test_class_is_closed_under_mutation(cycle_class):
    mc = cycle_class(1, 3)
    for q in mc.representatives():
        for k in range(q.n):
            assert mutate(q, k) in mc


def test_seed_independence(cycle_class):
    mc = cycle_class(2, 2)
    for q in mc.representatives():
        again = enumerate_class(q)
        assert set(again.members) == set(mc.members)


def test_swapped_seed_gives_equal_key_sets(cycle_class):
    forward = cycle_class(1, 3)
    backward = enumerate_class(seed_cycle(3, 1))
    assert set(forward.members) == set(backward.members)


def test_each_member_keyed_by_its_canonical_key(cycle_class):
    mc = cycle_class(2, 3)
    for key, q in mc.members.items():
        assert canonical_key(q) == key
    assert max(max_multiplicity(q) for q in mc.representatives()) == 2


def test_enumeration_is_deterministic():
    a = enumerate_class(seed_cycle(2, 3))
    b = enumerate_class(seed_cycle(2, 3))
    assert a.members == b.members
    assert a.depths == b.depths


def test_cap_exceeded_on_wild_seed():
    kronecker3 = ExchangeQuiver.from_arrows(2, [(0, 1, 3)])
    with pytest.raises(CapExceeded):
        enumerate_class(kronecker3)


def test_cap_exceeded_during_walk():
    # acyclic triangle with double arrows blows up under mutation; the
    # reported multiplicity is the largest in the offending quiver, whether
    # the cap breaks on the first step or deeper in the walk, and the error
    # names that quiver and its depth as the unshortened walk finds them
    q = ExchangeQuiver.from_arrows(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
    for cap, multiplicity, depth in [
        (2, 6, 1), (3, 6, 1), (5, 6, 1), (6, 10, 2), (10, 14, 3)
    ]:
        with pytest.raises(CapExceeded) as info:
            enumerate_class(q, multiplicity_cap=cap)
        err = info.value
        assert (err.multiplicity, err.cap) == (multiplicity, cap)
        assert err.depth == depth
        assert f"at depth {depth}" in str(err)
        assert max_multiplicity(err.quiver) == multiplicity
        with pytest.raises(CapExceeded) as ref:
            reference_enumerate(q, multiplicity_cap=cap)
        assert (ref.value.depth, ref.value.quiver) == (depth, err.quiver)


def test_cap_parity_on_a_seeded_sample(monkeypatch):
    # the walk checks the cap only before a labeling; on small seeds with
    # entries up to 3 it must stop exactly where the unshortened walk stops,
    # or finish with the same members, and it never mutates more
    calls = {"reference": 0, "walk": 0}
    arrow_list = oracles.mutate_arrow_list
    mutated = mutation_class._mutated_ids

    def counting_arrow_list(q, k):
        calls["reference"] += 1
        return arrow_list(q, k)

    def bounded_mutated(t, k, table, splits_k):
        calls["walk"] += 1
        assert calls["walk"] <= calls["reference"], "walked past the reference"
        return mutated(t, k, table, splits_k)

    monkeypatch.setattr(oracles, "mutate_arrow_list", counting_arrow_list)
    monkeypatch.setattr(mutation_class, "_mutated_ids", bounded_mutated)
    rng = random.Random(2009)
    outcomes = {"raised": 0, "finished": 0}
    seeds = 0
    while seeds < 200:
        q = random_quiver(rng, rng.randint(2, 4), max_mult=3, density=0.8)
        if not underlying_graph_connected(q):
            continue
        seeds += 1
        cap = rng.randint(2, 4)
        calls.update(reference=0, walk=0)
        try:
            ref = reference_enumerate(q, multiplicity_cap=cap)
        except CapExceeded as err:
            with pytest.raises(CapExceeded) as info:
                enumerate_class(q, multiplicity_cap=cap)
            got = info.value
            assert (got.multiplicity, got.depth, got.quiver) == (
                err.multiplicity, err.depth, err.quiver
            )
            outcomes["raised"] += 1
        else:
            assert enumerate_class(q, multiplicity_cap=cap).keys() == ref.keys()
            outcomes["finished"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_raised_cap_admits_seeds_within_it():
    kronecker3 = ExchangeQuiver.from_arrows(2, [(0, 1, 3)])
    assert enumerate_class(kronecker3, multiplicity_cap=3).size == 1
    # a finite class never reaches the raised cap, so the walk is unchanged
    capped = enumerate_class(seed_cycle(2, 3), multiplicity_cap=3)
    plain = enumerate_class(seed_cycle(2, 3))
    assert capped.members == plain.members
    assert capped.depths == plain.depths


def _reference_seeds():
    for n in range(2, 8):
        for r in range(1, n):
            yield pytest.param(seed_cycle(r, n - r), id=f"atilde-{r}-{n - r}")
    for n in (4, 5, 6):
        yield pytest.param(seed_dynkin_d(n), id=f"dynkin-d-{n}")
    relabelled = relabel(seed_cycle(2, 4), [3, 5, 0, 4, 1, 2])
    yield pytest.param(relabelled, id="atilde-2-4-relabelled")
    # classes with automorphisms, where refinement leaves cells and the
    # skipped vertex is found through the search's ordering
    for n in range(3, 7):
        yield pytest.param(seed_cycle(0, n), id=f"oriented-{n}-cycle")
    yield pytest.param(seed_dynkin_d(8), id="dynkin-d-8")
    relabelled = relabel(seed_dynkin_d(6), [4, 0, 5, 2, 1, 3])
    yield pytest.param(relabelled, id="dynkin-d-6-relabelled")
    # the swapped-matrix lookup hits by labelled equality, so which edges it
    # closes depends on the labelling; these are at the scale where most hit
    relabelled = relabel(seed_cycle(3, 5), [6, 2, 7, 0, 4, 1, 5, 3])
    yield pytest.param(relabelled, id="atilde-3-5-relabelled")
    relabelled = relabel(seed_cycle(4, 4), [1, 6, 3, 7, 0, 5, 2, 4])
    yield pytest.param(relabelled, id="atilde-4-4-relabelled")
    relabelled = relabel(seed_dynkin_d(7), [5, 3, 6, 0, 2, 4, 1])
    yield pytest.param(relabelled, id="dynkin-d-7-relabelled")


@pytest.mark.parametrize("seed", list(_reference_seeds()))
def test_enumeration_matches_reference_bfs(seed):
    mc = enumerate_class(seed)
    ref = reference_enumerate(seed)
    # same members in the same discovery order, same depths and matrices
    assert list(mc.members.items()) == list(ref.members.items())
    assert mc.depths == ref.depths
    assert mc.representatives() == ref.representatives()


# sha-256 of the class's JSON dump, as written by ``enumerate --json`` and
# re-encoded with sorted keys, then the walk's mutations (its
# _mutated_ids calls) and labelings (its _label_matrix calls); a change to the walk's
# shortcuts that moves a count updates it here and says why.  The exact-
# repeat lookup runs only when the mutated row at k is a stored row there;
# a gate that hid a hit would raise a labeling count
PINNED_WALKS = {
    "atilde-2-4-relabelled": (
        "06ab50b19c0b458989ba552bbcf3c160c5af3ab6b03b8b81e0f87862d4891707", 111, 72
    ),
    "dynkin-d-6-relabelled": (
        "ba6764f60fcfa7ac78365bd3c990628fec211626dce736f9093f47bb7385c920", 270, 190
    ),
    "atilde-3-5-relabelled": (
        "1af3b1f29b805582dc49539e0343ca69803f9ca2530549b8a763bd2c276f3bdf", 1260, 663
    ),
    "atilde-4-4-relabelled": (
        "ecf001f236c76a2f49b3a7eb8a4cc47fd41f9408de99fa759c5428687b1e9e90", 745, 511
    ),
    "dynkin-d-7-relabelled": (
        "e47c3e82ae9d54a4fa8dee649073a07fad861caa00179bb4153b9e21264608d1", 930, 581
    ),
    # automorphisms and twin cells, where the swapped-matrix lookup's row
    # filter could first move a count
    "oriented-6-cycle": (
        "94acb2dc8a3e26488f1e057e1b0b0ef0d3dc4f34a8153c77c57077028873537f", 268, 202
    ),
    "dynkin-d-8": (
        "0d29395600b4105dd9ba5fc9cebb6cba10ac5474c6e9faf5f0243604605b8903", 3477, 2021
    ),
}


@pytest.mark.parametrize(
    "seed, pin",
    [
        pytest.param(*p.values, PINNED_WALKS[p.id], id=p.id)
        for p in _reference_seeds()
        if p.id in PINNED_WALKS
    ],
)
def test_walk_output_and_call_counts_are_pinned(monkeypatch, tmp_path, seed, pin):
    calls = {"mutate": 0, "label": 0}
    mutated = mutation_class._mutated_ids
    labeling = mutation_class._label_matrix

    def counting_mutated(t, k, table, splits_k):
        calls["mutate"] += 1
        return mutated(t, k, table, splits_k)

    def counting_labeling(t, colors, table):
        calls["label"] += 1
        return labeling(t, colors, table)

    monkeypatch.setattr(mutation_class, "_mutated_ids", counting_mutated)
    monkeypatch.setattr(mutation_class, "_label_matrix", counting_labeling)
    seed_file, dump_file = tmp_path / "seed.quiver", tmp_path / "class.json"
    write_quiver(seed, seed_file)
    assert cli.run(["enumerate", "--seed", str(seed_file), "--json", str(dump_file)]) == 0
    dump = json.dumps(json.loads(dump_file.read_text()), sort_keys=True)
    digest = hashlib.sha256(dump.encode("ascii")).hexdigest()
    assert (digest, calls["mutate"], calls["label"]) == pin


def test_walk_skips_edges_back_to_known_members(monkeypatch):
    # with only the parent edge skipped, the seed is mutated at every vertex
    # and every other member at all but one; edges that lead back to a known
    # member by a non-identity isomorphism must be skipped as well
    calls = 0
    mutated = mutation_class._mutated_ids

    def counting_mutated(t, k, table, splits_k):
        nonlocal calls
        calls += 1
        return mutated(t, k, table, splits_k)

    monkeypatch.setattr(mutation_class, "_mutated_ids", counting_mutated)
    mc = enumerate_class(seed_cycle(3, 4))
    n = 7
    assert calls < n + (mc.size - 1) * (n - 1)
    assert mc.size == a_tilde(3, 4)


def test_swapped_matrix_lookup_only_saves_labelings(monkeypatch):
    # pentagons of the exchange graph close by a swap of k and a neighbour;
    # without the lookup the same edges are closed by labeling
    calls = 0
    labeling = mutation_class._label_matrix

    def counting_labeling(t, colors, table):
        nonlocal calls
        calls += 1
        return labeling(t, colors, table)

    monkeypatch.setattr(mutation_class, "_label_matrix", counting_labeling)
    seed = seed_cycle(4, 5)
    mc = enumerate_class(seed)
    with_lookup, calls = calls, 0
    monkeypatch.setattr(mutation_class, "_swapped_member", lambda *args: None)
    plain = enumerate_class(seed)
    assert list(mc.members.items()) == list(plain.members.items())
    assert mc.depths == plain.depths
    assert with_lookup <= 0.7 * calls


@pytest.mark.parametrize("seed", [seed_dynkin_d(8), seed_cycle(3, 5)])
def test_members_share_each_row_value(seed):
    # members hold the walk's one tuple for each row value, wherever the
    # value stands, so the class keeps one copy of each row value
    mc = enumerate_class(seed)
    rows = [row for q in mc.members.values() for row in q.b]
    assert len({id(row) for row in rows}) == len(set(rows))


@pytest.mark.parametrize("seed", list(_reference_seeds()))
def test_every_skipped_mutation_gives_an_expanded_member(monkeypatch, seed):
    # members are expanded in insertion order, and a vertex joins a member's
    # skip set only when the expansion of some member P finds that the
    # mutation there leads back to P; so each vertex an expansion leaves
    # out must give a member expanded no later than this one
    tried = {}  # matrix -> the vertices its expansion mutated
    mutated = mutation_class._mutated_ids

    def recording_mutated(t, k, table, splits_k):
        tried.setdefault(table.matrix(t), set()).add(k)
        return mutated(t, k, table, splits_k)

    monkeypatch.setattr(mutation_class, "_mutated_ids", recording_mutated)
    mc = enumerate_class(seed)
    expanded = set()
    for key, q in mc.members.items():
        expanded.add(key)
        for k in set(range(q.n)) - tried.get(q.b, set()):
            assert canonical_key(mutate(q, k)) in expanded, (q.b, k)


def test_disconnected_seed_rejected():
    with pytest.raises(ValueError):
        enumerate_class(ExchangeQuiver.from_arrows(2, []))

