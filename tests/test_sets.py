from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc
import weakref

import pytest

from faircheck import SpaceMismatchError, StateRelation, StateSet, StateSpace
from helpers import kernel_relations, model_relations, pair_image, pair_pre_image


def test_complement_of_empty_is_universe():
    space = StateSpace("u", 4)
    assert space.empty().complement() == space.universe()
    assert space.empty().complement().members() == (0, 1, 2, 3)


def test_basic_algebra():
    space = StateSpace("u", 4)
    a, b = space.subset([1, 2]), space.subset([2, 3])
    assert (a & b).members() == (2,)
    assert (a | b).members() == (1, 2, 3)
    assert (a - b).members() == (1,)
    assert a.is_subset(space.subset([0, 1, 2, 3]))
    assert not space.subset([0, 1]).is_subset(a)


def test_space_mismatch_raises_with_both_names():
    a = StateSpace("left", 3).universe()
    b = StateSpace("right", 3).universe()
    with pytest.raises(SpaceMismatchError) as err:
        a & b
    assert "left" in str(err.value) and "right" in str(err.value)


def test_space_invariants():
    with pytest.raises(ValueError):
        StateSpace("u", 0)
    with pytest.raises(ValueError):
        StateSpace("u", 2).subset([5])


def test_inverse_image():
    space = StateSpace("u", 3)
    identity = StateRelation.identity(space)
    assert identity.inverse_image(space.subset([2])).members() == (2,)

    rel = StateRelation(space, space, [(0, 0), (0, 1), (1, 1)])
    assert rel.inverse_image(space.subset([1])).members() == (0, 1)
    assert rel.inverse_image(space.empty()).is_empty()
    back = StateRelation(space, space, [(0, 0), (1, 0)])
    assert back.inverse_image(space.subset([0])).members() == (0, 1)


def test_is_total():
    space = StateSpace("u", 3)
    assert StateRelation.identity(space).is_total()
    small = StateSpace("v", 2)
    assert not StateRelation(small, small, [(0, 0)]).is_total()
    one = StateSpace("w", 1)
    assert not StateRelation(one, one, []).is_total()


def test_total_relation_inverse_image_of_universe_is_universe():
    v, u = StateSpace("v", 4), StateSpace("u", 3)
    rng = random.Random(3)
    pairs = [(y, rng.randrange(u.size)) for y in range(v.size)]
    rel = StateRelation(v, u, pairs)
    assert rel.is_total()
    assert rel.inverse_image(u.universe()) == v.universe()


def test_inverse_image_monotone_exhaustive():
    space = StateSpace("u", 4)
    rng = random.Random(7)
    rel = StateRelation(
        space, space, [(s, t) for s in range(4) for t in range(4) if rng.random() < 0.4]
    )
    sets = list(space.all_subsets())
    for a in sets:
        for b in sets:
            if a.is_subset(b):
                assert rel.inverse_image(a).is_subset(rel.inverse_image(b))


def test_galois_connection_exhaustive():
    # r[a] <= b iff r^-1[~b] <= ~a, for every a over the source and b over
    # the target; checked on all subset pairs of a 3x3 relation, with the
    # image r[a] read off the raw pairs
    source, target = StateSpace("v", 3), StateSpace("u", 3)
    rng = random.Random(11)
    rel = StateRelation(
        source, target, [(s, t) for s in range(3) for t in range(3) if rng.random() < 0.5]
    )
    for a in source.all_subsets():
        for b in target.all_subsets():
            left = StateSet(target, pair_image(rel.pairs, a.mask)).is_subset(b)
            right = rel.inverse_image(b.complement()).is_subset(a.complement())
            assert left == right


def test_de_morgan_and_involution():
    space = StateSpace("u", 5)
    for a in space.all_subsets():
        assert a.complement().complement() == a
    rng = random.Random(5)
    for _ in range(50):
        a = StateSet(space, rng.getrandbits(5))
        b = StateSet(space, rng.getrandbits(5))
        assert (a | b).complement() == a.complement() & b.complement()
        assert (a & b).complement() == a.complement() | b.complement()


def test_hashing_a_space_reads_no_label():
    # memo lookups keyed by a property hash its sets, and with them the
    # space; a space is only its id and size, so that walks no state
    assert [f.name for f in dataclasses.fields(StateSpace)] == ["id", "size"]
    space, same = StateSpace("u", 3), StateSpace("u", 3)
    assert hash(space) == hash(same) and space == same
    assert hash(space.universe()) == hash(same.universe())
    assert StateSpace("u", 3) != StateSpace("w", 3)


def _probe_masks(rng: random.Random, space: StateSpace) -> list[int]:
    n = space.size
    masks = [0, space.full_mask, 1, 1 << (n - 1), space.full_mask >> 1]
    masks += [rng.getrandbits(n) for _ in range(6)]
    masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)]
    return masks


def _distinct_targets(rel: StateRelation) -> int:
    return len({t for _, t in rel.pairs})


def _classes(rel: StateRelation) -> int:
    """Shift masks plus per-target masks."""
    return len(rel.right) + len(rel.left) + len(rel.columns)


def _layout(rel: StateRelation) -> tuple:
    """The masks and index arrays a relation stores its edges as."""
    return rel.right, rel.left, rel.columns, rel.rest_sources, rel.rest_targets


def _relations(family: str, seed: int) -> list[tuple[str, StateRelation]]:
    relations = kernel_relations(random.Random(seed)) if family == "generated" else model_relations()
    assert relations
    return relations


@pytest.mark.parametrize("family", ["generated", "models"])
def test_pre_image_kernel_matches_pair_reference(family):
    rng = random.Random(2024)
    for name, rel in _relations(family, 2024):
        pairs = rel.pairs
        for mask in _probe_masks(rng, rel.target):
            expect = pair_pre_image(pairs, mask)
            assert rel.pre_image_mask(mask) == expect, (name, mask)
            assert rel.inverse_image(StateSet(rel.target, mask)).mask == expect, (name, mask)


@pytest.mark.parametrize("family", ["generated", "models"])
def test_successors_and_totality_match_pair_reference(family):
    for name, rel in _relations(family, 2026):
        rows: dict[int, set[int]] = {}
        for s, t in rel.pairs:
            rows.setdefault(s, set()).add(t)
        for s in range(rel.source.size):
            expect = tuple(sorted(rows.get(s, ())))
            assert rel.successors(s) == expect, (name, s)
            assert rel.successors_mask(s) == sum(1 << t for t in expect), (name, s)
        assert rel.domain().members() == tuple(sorted(rows)), name
        assert rel.is_total() == (len(rows) == rel.source.size), name


@pytest.mark.parametrize("family", ["generated", "models"])
def test_pre_image_plan_has_at_most_one_class_per_target(family):
    for name, rel in _relations(family, 77):
        assert _classes(rel) <= _distinct_targets(rel), name


def test_pre_image_plan_shapes():
    space = StateSpace("u", 300)
    ring = StateRelation(
        space,
        space,
        [(s, s + 7) for s in range(250)] + [(s, s - 2) for s in range(2, 300)] + [(10, 0)],
    )
    # two shift classes; the single edge of shift -10 is kept as indices
    assert [d for d, _ in ring.right] == [7]
    assert [d for d, _ in ring.left] == [2]
    assert ring.columns == {}
    assert list(zip(ring.rest_sources, ring.rest_targets)) == [(10, 0)]
    assert _classes(ring) == 2
    complete = StateRelation(space, space, [(s, t) for s in range(300) for t in range(300)])
    # 597 shared shifts against 300 targets: per-target only
    assert complete.right == complete.left == ()
    assert _classes(complete) == 300
    assert len(complete.rest_sources) == 0
    one = StateSpace("o", 1)
    assert _classes(StateRelation(one, one, [])) == 0
    # at 12000 states a mask needs 11 edges: 8 edges of shift +3 and the 5
    # sources of target 11999 stay indices, the 7 large targets are masks
    big = StateSpace("b", 12000)
    pairs = (
        [(s, s + 3) for s in range(0, 40, 5)]
        + [(s, s % 7 * 1000) for s in range(12000)]
        + [(s, 11999) for s in range(0, 12000, 2400)]
    )
    rel = StateRelation(big, big, pairs)
    assert rel.right == rel.left == ()
    assert sorted(rel.columns) == [0, 1000, 2000, 3000, 4000, 5000, 6000]
    assert len(rel.rest_sources) == 8 + 5


def test_pre_image_plan_is_built_once_and_replaces_predecessor_rows():
    space = StateSpace("u", 10)
    rel = StateRelation(space, space, [(s, (s + 1) % 10) for s in range(10)])
    layout = _layout(rel)
    assert rel.inverse_image(space.subset([3])).members() == (2,)
    assert rel.pre_image_mask(1) == 1 << 9
    assert rel.successors(4) == (5,)
    assert all(a is b for a, b in zip(_layout(rel), layout))
    assert not hasattr(rel, "_pred")


def test_relation_keeps_no_successor_rows():
    space = StateSpace("u", 10)
    rel = StateRelation(space, space, [(s, (s + 1) % 10) for s in range(10)])
    assert not hasattr(rel, "_succ") and not hasattr(rel, "__dict__")
    assert StateRelation.__slots__ == (
        "source", "target", "right", "left", "columns", "rest_sources", "rest_targets",
        "_column_mask", "_domain", "_rows", "__weakref__",
    )
    # weak references to relations show that no report keeps a model alive
    assert weakref.ref(rel)() is rel


def test_pairs_are_canonical_for_an_edge_set():
    rng = random.Random(11)
    for n in (5, 200, 12000):
        space = StateSpace("u", n)
        raw = [(s, (s + 1) % n) for s in range(n)] + [(s, s // 2) for s in range(0, n, 3)]
        raw += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 4)]
        rel = StateRelation(space, space, raw)
        assert rel.pairs == frozenset(raw)
        shuffled = raw + raw[: n // 2]
        rng.shuffle(shuffled)
        same = StateRelation(space, space, shuffled)
        assert same.pairs == rel.pairs and _layout(same) == _layout(rel)
        drop = rng.choice(sorted(set(raw)))
        assert StateRelation(space, space, set(raw) - {drop}).pairs == rel.pairs - {drop}
        # a single edge is kept as an index pair and read back with its target
        assert StateRelation(space, space, [(0, 1)]).pairs == {(0, 1)}
        assert StateRelation(space, space, [(0, 2)]).pairs == {(0, 2)}


def _reference_members(space: StateSpace, mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(space.size) if mask >> i & 1)


@pytest.mark.parametrize("size", [1, 7, 64, 65, 300, 5000])
def test_set_listing_and_construction_match_per_index_reference(size):
    space = StateSpace("u", size)
    rng = random.Random(size)
    full = space.full_mask
    masks = [0, full, 1, 1 << (size - 1), full >> 1, full & 0x5555 << (size // 2)]
    masks += [rng.getrandbits(size) for _ in range(3)]  # dense
    masks += [rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)]
    masks += [sum(1 << rng.randrange(size) for _ in range(k)) for k in (2, 200, 300, 1000)]
    for mask in masks:
        mask &= full
        a = StateSet(space, mask)
        expect = _reference_members(space, mask)
        assert a.members() == expect
        assert tuple(a) == expect
        assert len(a) == len(expect)
        assert space.subset(expect) == a
        assert space.subset(reversed(expect)) == a
        assert space.subset(list(expect) * 2) == a
        assert a.flags() == bytes(mask >> i & 1 for i in range(size))
    for i in {0, size // 2, size - 1}:
        assert space.singleton(i).members() == (i,)
    with pytest.raises(ValueError):
        space.singleton(size)
    with pytest.raises(ValueError):
        space.subset([0, -1])


def _retained_bytes(n: int) -> int:
    """Memory a relation on n states keeps, with every index built: a wrap
    ring (+1 and -1 shifts), n - 1 as a common target, and a random sparse
    remainder."""
    space = StateSpace("r", n)
    rng = random.Random(n)

    def edges():
        for s in range(n):
            yield s, (s + 1) % n
            yield s, (s - 1) % n
            yield s, n - 1
            if s % 16 == 0:
                yield s, rng.randrange(n)

    gc.collect()
    tracemalloc.start()
    try:
        rel = StateRelation(space, space, edges())
        rel.pre_image_mask(space.full_mask >> 1)
        rel.successors(n // 2)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_relation_keeps_no_pair_tuples():
    # a frozenset of the pair tuples takes about 480 bytes per state here;
    # the relation's masks, index arrays and successor flags take about 5
    assert _retained_bytes(12000) <= 16 * 12000


def test_relation_memory_grows_linearly():
    # 4 times the states and edges take about 4 times the memory; one
    # successor bigint per source state (n^2 / 8 bytes) makes it about 13
    small, large = _retained_bytes(3000), _retained_bytes(12000)
    assert large / small <= 5, (small, large)
