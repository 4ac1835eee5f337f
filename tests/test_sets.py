from __future__ import annotations

import random

import pytest

from faircheck import SpaceMismatchError, StateRelation, StateSet, StateSpace
from faircheck.sets import PreImagePlan
from helpers import kernel_relations, model_relations, pair_pre_image


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
        StateSpace("u", 2, labels=("only-one",))
    with pytest.raises(ValueError):
        StateSpace("u", 2).subset([5])


def test_image_and_inverse_image():
    space = StateSpace("u", 3)
    identity = StateRelation.identity(space)
    assert identity.image(space.subset([1])).members() == (1,)
    assert identity.inverse_image(space.subset([2])).members() == (2,)

    rel = StateRelation(space, space, [(0, 0), (0, 1), (1, 1)])
    assert rel.image(space.subset([0])).members() == (0, 1)
    assert rel.image(space.empty()).is_empty()
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


def test_image_monotone_exhaustive():
    space = StateSpace("u", 4)
    rng = random.Random(7)
    rel = StateRelation(
        space, space, [(s, t) for s in range(4) for t in range(4) if rng.random() < 0.4]
    )
    sets = list(space.all_subsets())
    for a in sets:
        for b in sets:
            if a.is_subset(b):
                assert rel.image(a).is_subset(rel.image(b))
                assert rel.inverse_image(a).is_subset(rel.inverse_image(b))


def test_galois_connection_exhaustive():
    # r[a] <= b iff r^-1[~b] <= ~a, for every a over the source and b over
    # the target; checked on all subset pairs of a 3x3 relation
    source, target = StateSpace("v", 3), StateSpace("u", 3)
    rng = random.Random(11)
    rel = StateRelation(
        source, target, [(s, t) for s in range(3) for t in range(3) if rng.random() < 0.5]
    )
    for a in source.all_subsets():
        for b in target.all_subsets():
            left = rel.image(a).is_subset(b)
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


def test_labels_render_states():
    space = StateSpace("u", 2, labels=("x=0", "x=1"))
    assert space.label_of(1) == "x=1"
    assert space.subset([0, 1]).pretty() == "{x=0, x=1}"


def _probe_masks(rng: random.Random, space: StateSpace) -> list[int]:
    n = space.size
    masks = [0, space.full_mask, 1, 1 << (n - 1), space.full_mask >> 1]
    masks += [rng.getrandbits(n) for _ in range(6)]
    masks += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)]
    return masks


def _distinct_targets(rel: StateRelation) -> int:
    return len({t for _, t in rel.pairs})


def _classes(plan: PreImagePlan) -> int:
    """Shift masks plus per-target masks."""
    return len(plan.right) + len(plan.left) + len(plan.preds)


@pytest.mark.parametrize("family", ["generated", "models"])
def test_pre_image_kernel_matches_pair_reference(family):
    rng = random.Random(2024)
    relations = kernel_relations(rng) if family == "generated" else model_relations()
    assert relations
    for name, rel in relations:
        for mask in _probe_masks(rng, rel.target):
            expect = pair_pre_image(rel, mask)
            assert rel.pre_image_mask(mask) == expect, (name, mask)
            assert rel.inverse_image(StateSet(rel.target, mask)).mask == expect, (name, mask)


@pytest.mark.parametrize("family", ["generated", "models"])
def test_pre_image_plan_has_at_most_one_class_per_target(family):
    rng = random.Random(77)
    relations = kernel_relations(rng) if family == "generated" else model_relations()
    for name, rel in relations:
        assert _classes(PreImagePlan(rel.pairs)) <= _distinct_targets(rel), name


def test_pre_image_plan_shapes():
    space = StateSpace("u", 300)
    ring = StateRelation(
        space,
        space,
        [(s, s + 7) for s in range(250)] + [(s, s - 2) for s in range(2, 300)] + [(10, 0)],
    )
    plan = PreImagePlan(ring.pairs)
    # two shift classes and the single edge of shift -10, kept per target
    assert [d for d, _ in plan.right] == [7]
    assert [d for d, _ in plan.left] == [2]
    assert set(plan.preds) == {0}
    assert _classes(plan) == 3
    complete = StateRelation(space, space, [(s, t) for s in range(300) for t in range(300)])
    # 597 shared shifts and 2 single edges against 300 targets: per-target only
    plan = PreImagePlan(complete.pairs)
    assert plan.right == plan.left == ()
    assert _classes(plan) == 300
    assert _classes(PreImagePlan(frozenset())) == 0


def test_pre_image_plan_is_built_once_and_replaces_predecessor_rows():
    space = StateSpace("u", 10)
    rel = StateRelation(space, space, [(s, (s + 1) % 10) for s in range(10)])
    assert rel._plan is None
    rel.pre_image_mask(1)
    plan = rel._plan
    assert rel.inverse_image(space.subset([3])).members() == (2,)
    assert rel._plan is plan
    assert not hasattr(rel, "_pred")
