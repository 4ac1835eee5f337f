from __future__ import annotations

import functools
import operator
import random

import pytest

from faircheck import (
    Choice,
    Dovetail,
    Guard,
    Precond,
    Prim,
    Seq,
    Skip,
    SpaceMismatchError,
    StateRelation,
    StateSpace,
    commands,
    conjunctivity_check,
    grd_of,
    liberal_apply,
    magic,
    pre_of,
    str_apply,
    transition_relation,
)
from faircheck.elaborator import elaborate
from faircheck.parser import parse_document
from helpers import (
    ROOT,
    edge_pool,
    has_dovetail,
    kernel_relations,
    mixed_relation,
    model_relations,
    option_grd,
    option_liberal,
    option_pre,
    option_str,
    random_command,
    random_relation,
    random_subset,
    structural_wp,
)


def test_liberal_skip_is_identity():
    space = StateSpace("u", 4)
    r = space.subset([1, 2])
    assert liberal_apply(Skip(space), r) == r


def test_liberal_dovetail_example():
    space = StateSpace("u", 2)
    f = Guard(space.subset([0]), Prim(StateRelation(space, space, [(0, 0)])))
    g = Guard(space.subset([0]), Prim(StateRelation(space, space, [(0, 1)])))
    assert liberal_apply(Dovetail(f, g), space.subset([1])) == space.subset([1])


def test_liberal_precond_two_valued_contribution():
    space = StateSpace("u", 3)
    p = space.subset([0])
    body = Skip(space)
    # with a full-space postcondition the precondition contributes nothing
    assert liberal_apply(Precond(p, body), space.universe()) == space.universe()
    # otherwise only p survives
    r = space.subset([0, 1])
    assert liberal_apply(Precond(p, body), r) == p & r


def test_str_skip_and_guarded_event():
    space = StateSpace("u", 4)
    assert str_apply(Skip(space), space.subset([1, 2])) == space.subset([1, 2])
    f = Guard(space.subset([1, 2]), Prim(StateRelation(space, space, [(1, 2), (2, 1)])))
    # outside its guard the event is miraculous, so the whole space satisfies
    # the transformer at p | q
    assert str_apply(f, space.subset([1, 2])) == space.universe()
    assert str_apply(f, space.empty()) == space.subset([0, 3])
    assert grd_of(f) == space.subset([1, 2])


def test_pre_of_constructors():
    space = StateSpace("u", 3)
    u = space.universe()
    assert pre_of(Skip(space)) == u
    p = space.subset([0, 2])
    assert pre_of(Precond(p, Skip(space))) == p
    total = Prim(StateRelation(space, space, [(i, i) for i in range(3)]))
    assert pre_of(Dovetail(total, total)) == u


def test_grd_of_cases():
    space = StateSpace("u", 3)
    assert grd_of(Skip(space)) == space.universe()
    g = space.subset([0, 1])
    total_on_g = Prim(StateRelation(space, space, [(0, 1), (1, 2)]))
    assert grd_of(Guard(g, total_on_g)) == g
    assert grd_of(magic(space)).is_empty()


def test_pre_and_grd_are_computed_once_per_command(monkeypatch):
    space = StateSpace("u", 3)
    event = Guard(space.subset([0, 1]), Prim(StateRelation(space, space, [(0, 1), (1, 2)])))
    command = Dovetail(event, Seq(event, event))
    first = (pre_of(command), grd_of(command))
    calls = []
    real = commands.liberal_apply
    monkeypatch.setattr(commands, "liberal_apply", lambda c, r: calls.append(c) or real(c, r))
    assert (pre_of(command), grd_of(command)) == first
    assert pre_of(command) is first[0] and grd_of(command) is first[1]
    assert calls == []
    # the memo belongs to the instance: an equal command computes its own
    twin = Dovetail(event, Seq(event, event))
    assert twin == command and pre_of(twin) == first[0]
    assert calls


def test_space_mismatch():
    a, b = StateSpace("a", 2), StateSpace("b", 2)
    with pytest.raises(SpaceMismatchError):
        liberal_apply(Skip(a), b.universe())
    with pytest.raises(SpaceMismatchError):
        Guard(a.universe(), Skip(b))
    with pytest.raises(SpaceMismatchError):
        Choice(a, (Skip(a), Skip(b)))


def test_empty_choice_is_magic():
    rng = random.Random(21)
    for size in range(1, 7):
        space = StateSpace("u", size)
        empty = Choice(space, ())
        assert magic(space) == empty
        assert grd_of(empty).is_empty()
        assert pre_of(empty) == space.universe()
        for _ in range(8):
            r = random_subset(rng, space)
            assert liberal_apply(empty, r) == space.universe()
            assert str_apply(empty, r) == space.universe()


def test_one_option_choice_is_its_option():
    rng = random.Random(22)
    for _ in range(120):
        space = StateSpace("u", rng.randint(1, 6))
        option = random_command(rng, space, depth=2)
        single = Choice(space, (option,))
        assert pre_of(single) == pre_of(option)
        for _ in range(4):
            r = random_subset(rng, space)
            assert liberal_apply(single, r) == liberal_apply(option, r)
            assert str_apply(single, r) == str_apply(option, r)


def _random_options(rng: random.Random, space: StateSpace) -> tuple:
    return tuple(random_command(rng, space, depth=2) for _ in range(rng.randint(0, 5)))


def test_choice_is_the_meet_of_its_options():
    rng = random.Random(23)
    for _ in range(120):
        space = StateSpace("u", rng.randint(1, 6))
        options = _random_options(rng, space)
        choice = Choice(space, options)
        meet = lambda parts: functools.reduce(operator.and_, parts, space.universe())
        assert pre_of(choice) == meet(pre_of(o) for o in options)
        for _ in range(4):
            r = random_subset(rng, space)
            assert liberal_apply(choice, r) == meet(liberal_apply(o, r) for o in options)
            assert str_apply(choice, r) == meet(str_apply(o, r) for o in options)


def test_choice_does_not_depend_on_the_order_of_its_options():
    rng = random.Random(24)
    for _ in range(120):
        space = StateSpace("u", rng.randint(1, 6))
        options = _random_options(rng, space)
        shuffled = list(options)
        rng.shuffle(shuffled)
        a, b = Choice(space, options), Choice(space, tuple(shuffled))
        assert pre_of(a) == pre_of(b) and grd_of(a) == grd_of(b)
        for _ in range(4):
            r = random_subset(rng, space)
            assert liberal_apply(a, r) == liberal_apply(b, r)
            assert str_apply(a, r) == str_apply(b, r)


def _guarded_choice(rng: random.Random, space: StateSpace, depth: int = 2) -> Choice:
    """A choice of guarded primitives, mostly, mixed with bare primitives,
    nested choices and random commands (skips, sequences, fair choices)."""
    pool = edge_pool(rng, space.size)
    options: list = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.5:
            mixed = rng.random() < 0.5
            rel = mixed_relation(rng, space, pool) if mixed else random_relation(rng, space)
            options.append(Guard(random_subset(rng, space), Prim(rel)))
        elif roll < 0.6:
            options.append(Prim(mixed_relation(rng, space, pool)))
        elif roll < 0.75 and depth:
            options.append(_guarded_choice(rng, space, depth - 1))
        else:
            options.append(random_command(rng, space, depth=2))
    return Choice(space, tuple(options))


def test_guarded_choice_matches_the_option_by_option_reference():
    rng = random.Random(25)
    for size in (1, 2, 3, 5, 8, 40):
        space = StateSpace("u", size)
        for _ in range(40 if size < 40 else 8):
            choice = _guarded_choice(rng, space)
            assert pre_of(choice) == option_pre(choice)
            assert grd_of(choice) == option_grd(choice)
            posts = [space.empty(), space.universe()]
            posts += [random_subset(rng, space) for _ in range(4)]
            for r in posts:
                assert liberal_apply(choice, r) == option_liberal(choice, r), (size, r)
                assert str_apply(choice, r) == option_str(choice, r), (size, r)


def test_whole_system_str_takes_one_pre_image(monkeypatch):
    # at the per-option loop this takes one pre-image per event, 12 here
    document = parse_document((ROOT / "models" / "tokens.fb").read_text()).document
    system = elaborate(document).systems["tokens"].system
    whole = system.choice(frozenset(system.events))
    assert len(whole.options) == 12
    calls = []
    real = StateRelation.pre_image_mask
    monkeypatch.setattr(
        StateRelation, "pre_image_mask", lambda rel, mask: calls.append(rel) or real(rel, mask)
    )
    post = system.space.subset(range(0, system.space.size, 2))
    assert str_apply(whole, post) == option_str(whole, post)
    assert len(calls) == 1


def test_dovetail_guard_law_random():
    rng = random.Random(0)
    for _ in range(150):
        space = StateSpace("u", rng.randint(1, 6))
        f = random_command(rng, space, depth=2)
        g = random_command(rng, space, depth=2)
        assert grd_of(Dovetail(f, g)) == grd_of(f) | grd_of(g)


def test_dovetail_pre_two_forms_agree():
    # the conjunctive and disjunctive shapes of the fair-choice termination
    # set are interchangeable
    rng = random.Random(8)
    for _ in range(120):
        space = StateSpace("u", rng.randint(1, 6))
        f = random_command(rng, space, depth=2)
        g = random_command(rng, space, depth=2)
        pf, pg = str_apply(f, space.universe()), str_apply(g, space.universe())
        gf, gg = grd_of(f), grd_of(g)
        disjunctive = (pf & pg) | (gf & pf) | (gg & pg)
        conjunctive = (pf | pg) & (gf | pg) & (gg | pf)
        assert disjunctive == conjunctive
        assert pre_of(Dovetail(f, g)) == disjunctive


def test_liberal_sequencing_composes():
    rng = random.Random(9)
    for _ in range(60):
        space = StateSpace("u", rng.randint(1, 5))
        f = random_command(rng, space, depth=2)
        g = random_command(rng, space, depth=2)
        r = random_subset(rng, space)
        assert liberal_apply(Seq(f, g), r) == liberal_apply(f, liberal_apply(g, r))
        assert liberal_apply(Choice(space, (f, g)), r) == liberal_apply(f, r) & liberal_apply(g, r)
        assert liberal_apply(Dovetail(f, g), r) == liberal_apply(Choice(space, (f, g)), r)


def test_dovetail_note_intersection_equality():
    # L(F)(empty) & F(empty) agrees with L(F)(empty) & F(u); the two
    # right-hand operands themselves need not be equal
    rng = random.Random(1)
    seen_diff = False
    for _ in range(200):
        space = StateSpace("u", rng.randint(1, 6))
        f = random_command(rng, space, depth=3)
        lib_empty = liberal_apply(f, space.empty())
        f_empty = str_apply(f, space.empty())
        f_top = str_apply(f, space.universe())
        assert lib_empty & f_empty == lib_empty & f_top
        seen_diff = seen_diff or f_empty != f_top
    assert seen_diff, "corpus should include commands where F(empty) != F(u)"


def test_str_equals_structural_wp_without_dovetail():
    rng = random.Random(3)
    checked = 0
    while checked < 150:
        space = StateSpace("u", rng.randint(1, 5))
        c = random_command(rng, space, depth=3, allow_dovetail=False)
        if has_dovetail(c):
            continue
        wp = structural_wp(c)
        for r in space.all_subsets():
            assert str_apply(c, r) == wp(r)
        checked += 1


def test_always_terminating_str_equals_liberal():
    # pre(c) = u collapses the pairing: both transformers agree everywhere
    rng = random.Random(4)
    for _ in range(100):
        space = StateSpace("u", rng.randint(1, 5))
        c = random_command(rng, space, depth=3, total_only=True)
        assert pre_of(c) == space.universe()
        r = random_subset(rng, space)
        assert str_apply(c, r) == liberal_apply(c, r)


def test_liberal_top_law():
    rng = random.Random(5)
    for _ in range(100):
        space = StateSpace("u", rng.randint(1, 6))
        c = random_command(rng, space, depth=3)
        assert liberal_apply(c, space.universe()) == space.universe()


def test_monotone_in_postcondition():
    rng = random.Random(6)
    for _ in range(100):
        space = StateSpace("u", rng.randint(1, 5))
        c = random_command(rng, space, depth=3)
        s = random_subset(rng, space)
        t = s | random_subset(rng, space)
        assert str_apply(c, s).is_subset(str_apply(c, t))
        assert liberal_apply(c, s).is_subset(liberal_apply(c, t))


def test_conjunctivity_of_commands():
    rng = random.Random(7)
    for _ in range(60):
        space = StateSpace("u", rng.randint(1, 6))
        c = random_command(rng, space, depth=3)
        assert conjunctivity_check(c).ok
    assert conjunctivity_check(Skip(StateSpace("u", 3))).ok


def test_conjunctivity_check_size_gate():
    # exact on every space of up to 12 states, and refused above that, like
    # monotone_check: there is no sampled mode
    rng = random.Random(8)
    assert conjunctivity_check(random_command(rng, StateSpace("u", 8), depth=2)).ok
    assert conjunctivity_check(Skip(StateSpace("u", 12))).ok
    with pytest.raises(ValueError, match="size <= 12, got 13"):
        conjunctivity_check(Skip(StateSpace("u", 13)))


def test_conjunctivity_witness_on_angelic_function(monkeypatch):
    # internal probe: with str replaced by a hand-made non-conjunctive
    # mapping, the exact meet test must return a pair it fails on
    for size in (3, 9):
        space = StateSpace("u", size)
        angelic = lambda r: space.universe() if not r.is_empty() else space.empty()
        monkeypatch.setattr(commands, "str_apply", lambda c, r: angelic(r))
        report = conjunctivity_check(Skip(space))
        assert not report.ok, size
        a, b = report.witness
        assert angelic(a & b) != angelic(a) & angelic(b), size


def test_transition_relation_roundtrip():
    space = StateSpace("u", 4)
    rel = StateRelation(space, space, [(0, 1), (1, 2), (1, 3), (3, 3)])
    guard = space.subset([0, 1, 3])
    cmd = Guard(guard, Prim(rel))
    extracted = transition_relation(cmd)
    assert extracted.pairs == rel.pairs


def test_transition_relation_of_choice():
    space = StateSpace("u", 3)
    a = Guard(space.subset([0]), Prim(StateRelation(space, space, [(0, 1)])))
    b = Guard(space.subset([0]), Prim(StateRelation(space, space, [(0, 2)])))
    merged = transition_relation(Choice(space, (a, b)))
    assert merged.pairs == frozenset({(0, 1), (0, 2)})


def test_seq_pre_uses_first_command():
    space = StateSpace("u", 2)
    to0 = Prim(StateRelation(space, space, [(0, 0), (1, 0)]))
    abort_on_1 = Precond(space.subset([0]), Skip(space))
    # running to0 first lands in 0 where the precondition holds
    assert pre_of(Seq(to0, abort_on_1)) == space.universe()
    assert pre_of(Seq(abort_on_1, to0)) == space.subset([0])


@pytest.mark.parametrize("family", ["generated", "models"])
def test_liberal_prim_matches_per_state_scan(family):
    # structural_wp reads Prim off its raw pairs, never the relation's masks
    rng = random.Random(31)
    relations = kernel_relations(rng) if family == "generated" else model_relations()
    checked = 0
    for name, rel in relations:
        if not rel.source.same_as(rel.target):
            continue
        space = rel.source
        posts = [space.empty(), space.universe()] + [random_subset(rng, space) for _ in range(8)]
        holes = rng.sample(range(space.size), min(3, space.size))
        posts += [space.singleton(t).complement() for t in holes]
        wp = structural_wp(Prim(rel))
        for r in posts:
            assert liberal_apply(Prim(rel), r) == wp(r), (name, r)
            checked += 1
    assert checked > 100
