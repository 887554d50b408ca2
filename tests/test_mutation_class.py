import json

import pytest

from oracles import reference_enumerate
from quivercount import mutation_class
from quivercount.canonical import canonical_key
from quivercount.counting import a_tilde
from quivercount.mutation_class import (
    CapExceeded,
    class_to_json,
    enumerate_class,
    seed_cycle,
    seed_dynkin_d,
    write_class_dir,
    write_class_json,
)
from quivercount.quiver import (
    ExchangeQuiver,
    max_multiplicity,
    mutate,
    read_quiver,
    relabel,
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


def test_walk_skips_edges_back_to_known_members(monkeypatch):
    # with only the parent edge skipped, the seed is mutated at every vertex
    # and every other member at all but one; edges that lead back to a known
    # member by a non-identity isomorphism must be skipped as well
    calls = 0

    def counting_mutate(q, k):
        nonlocal calls
        calls += 1
        return mutate(q, k)

    monkeypatch.setattr(mutation_class, "mutate", counting_mutate)
    mc = enumerate_class(seed_cycle(3, 4))
    n = 7
    assert calls < n + (mc.size - 1) * (n - 1)
    assert mc.size == a_tilde(3, 4)


def test_swapped_matrix_lookup_only_saves_labelings(monkeypatch):
    # pentagons of the exchange graph close by a swap of k and a neighbour;
    # without the lookup the same edges are closed by labeling
    calls = 0
    labeling = mutation_class.canonical_labeling

    def counting_labeling(q, **kwargs):
        nonlocal calls
        calls += 1
        return labeling(q, **kwargs)

    monkeypatch.setattr(mutation_class, "canonical_labeling", counting_labeling)
    seed = seed_cycle(4, 5)
    mc = enumerate_class(seed)
    with_lookup, calls = calls, 0
    monkeypatch.setattr(mutation_class, "_swapped_member", lambda *args: None)
    plain = enumerate_class(seed)
    assert list(mc.members.items()) == list(plain.members.items())
    assert mc.depths == plain.depths
    assert with_lookup <= 0.7 * calls


def test_disconnected_seed_rejected():
    with pytest.raises(ValueError):
        enumerate_class(ExchangeQuiver.from_arrows(2, []))


def test_json_dump_is_sorted_and_complete(cycle_class, tmp_path):
    mc = cycle_class(2, 2)
    entries = class_to_json(mc)
    assert [e["key"] for e in entries] == [k.hex() for k in mc.keys()]
    assert {e["depth"] for e in entries} <= {0, 1, 2, 3}
    assert min(e["depth"] for e in entries) == 0
    path = tmp_path / "class.json"
    write_class_json(mc, path)
    assert json.loads(path.read_text()) == entries


def test_class_dir_dump_roundtrips(cycle_class, tmp_path):
    mc = cycle_class(1, 3)
    out = tmp_path / "members"
    write_class_dir(mc, out)
    files = sorted(out.iterdir())
    assert len(files) == mc.size
    keys = {canonical_key(read_quiver(f)) for f in files}
    assert keys == set(mc.members)
