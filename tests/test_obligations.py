from __future__ import annotations

import random
from collections import Counter

import pytest

from faircheck import commands, obligations
from faircheck import (
    EnsuresProperty,
    EventSystem,
    Guard,
    ModelError,
    Precond,
    Prim,
    Skip,
    StateRelation,
    StateSpace,
    check_ensures,
    check_wf0,
    check_wf1,
    grd_of,
    pre_of,
    semantic_leadsto,
    split_system,
    str_apply,
    transition_relation,
)
from helpers import ensures_closure, random_subset, random_system


def test_event_system_requires_terminating_events():
    space = StateSpace("u", 2)
    may_abort = Precond(space.subset([0]), Skip(space))
    with pytest.raises(ModelError):
        EventSystem(space, {"bad": may_abort})
    with pytest.raises(ModelError):
        EventSystem(space, {})


def test_split_system_partitions_and_recombines(ctr):
    helpful, rest = split_system(ctr.system, {"done"})
    assert grd_of(helpful) == ctr.space.subset([1, 2])
    # the split recombines to the whole system pointwise
    for r in ctr.space.all_subsets():
        assert str_apply(helpful, r) & str_apply(rest, r) == ctr.system.apply(r)


def test_split_system_with_all_labels_helpful(ctr):
    helpful, rest = split_system(ctr.system, {"inc", "done"})
    # the rest is the empty choice: miraculous everywhere
    assert grd_of(rest).is_empty()
    for r in (ctr.space.empty(), ctr.q, ctr.space.universe()):
        assert str_apply(rest, r) == ctr.space.universe()
        assert str_apply(helpful, r) == ctr.system.apply(r)


def test_split_system_input_validation(ctr):
    with pytest.raises(ModelError):
        split_system(ctr.system, set())
    with pytest.raises(ModelError):
        split_system(ctr.system, {"nope"})


def test_event_groups_are_one_object_per_label_set(ctr, monkeypatch):
    sys = ctr.system
    helpful = sys.choice(frozenset({"done"}))
    assert helpful is sys.choice(frozenset(["done"]))
    assert helpful.options == (ctr.done,)
    assert split_system(sys, ["done"])[0] is helpful
    assert sys.choice(frozenset({"done", "inc"})).options == (ctr.inc, ctr.done)
    # WF1 and the fair-loop self-check of check_ensures share the helpful
    # choice, so its guard is computed once: grd is the complement of
    # str(helpful)(empty), the only liberal application at the empty set
    calls = []
    real = commands.liberal_apply
    monkeypatch.setattr(commands, "liberal_apply", lambda c, r: calls.append((c, r)) or real(c, r))
    assert check_wf1(sys, ctr.prop).passed
    guard, pre = grd_of(helpful), pre_of(helpful)
    assert check_ensures(sys, ctr.prop).passed
    assert grd_of(helpful) is guard and pre_of(helpful) is pre
    assert sum(1 for c, r in calls if c is helpful and r.is_empty()) == 1


def test_wf0_fixture_pass_and_vacuous(ctr):
    assert check_wf0(ctr.system, ctr.prop).verdict == "pass"
    sub = EnsuresProperty("vac", frozenset({"done"}), ctr.q, ctr.space.subset([1, 2, 3]))
    assert check_wf0(ctr.system, sub).verdict == "pass"


def test_wf0_leak_fails_with_witness(ctr_leaky):
    report = check_wf0(ctr_leaky.system, ctr_leaky.prop)
    assert report.verdict == "fail"
    assert report.witnesses == (2,)


def test_wf1_fixture_and_failures(ctr):
    assert check_wf1(ctr.system, ctr.prop).verdict == "pass"
    # helpful event whose guard misses the active set
    space = ctr.space
    narrow = Guard(space.subset([0]), Prim(StateRelation(space, space, [(0, 3)])))
    system = EventSystem(space, {"inc": ctr.inc, "narrow": narrow})
    prop = EnsuresProperty("P", frozenset({"narrow"}), ctr.p, ctr.q)
    report = check_wf1(system, prop)
    assert report.verdict == "fail"
    assert set(report.witnesses) == {1, 2}
    # q = universe leaves nothing active
    full = EnsuresProperty("F", frozenset({"narrow"}), ctr.p, space.universe())
    assert check_wf1(system, full).verdict == "pass"


def test_ensures_fixture_and_aggregation(ctr, ctr_leaky):
    assert check_ensures(ctr.system, ctr.prop).verdict == "pass"
    report = check_ensures(ctr_leaky.system, ctr_leaky.prop)
    assert report.verdict == "fail"
    assert "WF0" in report.narrative
    assert report.witnesses == (2,)


def test_verdicts_are_memoised_on_the_system_by_property_value(ctr, monkeypatch):
    decided = Counter()
    real_inclusion = obligations.inclusion_report
    real_conclusion = obligations.check_total_correctness

    def inclusion(rid, *rest):
        decided[rid] += 1
        return real_inclusion(rid, *rest)

    def conclusion(*args):
        decided["fair loop"] += 1
        return real_conclusion(*args)

    monkeypatch.setattr(obligations, "inclusion_report", inclusion)
    monkeypatch.setattr(obligations, "check_total_correctness", conclusion)
    once = {"WF0:P1": 1, "WF1:P1": 1, "fair loop": 1}
    first = check_ensures(ctr.system, ctr.prop)
    assert first.passed and decided == once
    # an equal but distinct property value hits the memo
    twin = EnsuresProperty(ctr.prop.name, frozenset(ctr.prop.helpful), ctr.prop.p, ctr.prop.q)
    assert twin == ctr.prop and twin is not ctr.prop
    assert check_ensures(ctr.system, twin) is first
    assert check_wf0(ctr.system, twin).passed and check_wf1(ctr.system, twin).passed
    assert decided == once
    # the memo belongs to the system: a fresh system over the same events decides again
    fresh = EventSystem(ctr.space, ctr.system.events)
    assert check_ensures(fresh, twin) == first
    assert decided == {key: 2 for key in once}


def test_ensures_pass_implies_semantic_leadsto(ctr):
    assert check_ensures(ctr.system, ctr.prop).passed
    assert semantic_leadsto(ctr.system, ctr.prop.p, ctr.prop.q).holds


def test_wf_set_form_equals_statewise_predicate_form():
    # the set inclusions coincide with the per-state quantified reading
    # computed over extracted transitions, exhaustively on small systems
    rng = random.Random(0)
    for _ in range(40):
        gsys = random_system(rng, rng.randint(2, 6), rng.randint(1, 3))
        sys = gsys.system
        space = gsys.space
        p, q = random_subset(rng, space), random_subset(rng, space)
        k = frozenset(rng.sample(sys.labels, rng.randint(1, len(sys.labels))))
        prop = EnsuresProperty("x", k, p, q)
        helpful, _ = split_system(sys, k)
        rels = {label: transition_relation(cmd) for label, cmd in sys.events.items()}
        helpful_rel = transition_relation(helpful)
        target = (p | q).mask

        wf0_pred = True
        wf1_pred = True
        for z in (p & q.complement()).members():
            for label in sys.labels:
                succ = rels[label].successors_mask(z)
                if succ & ~target & space.full_mask:
                    wf0_pred = False
            hsucc = helpful_rel.successors_mask(z)
            enabled = z in grd_of(helpful)
            if not (enabled and hsucc & ~q.mask & space.full_mask == 0):
                wf1_pred = False
        assert wf0_pred == check_wf0(sys, prop).passed
        assert wf1_pred == check_wf1(sys, prop).passed


def test_wf0_equivalent_to_rest_only_form_under_wf1():
    # given the helpful obligation, checking the whole system against p | q
    # is the same as checking only the non-helpful choice (the restated
    # obligation pair): S = F [] G and p & ~q is below G(q) <= G(p | q)
    rng = random.Random(2)
    for _ in range(60):
        gsys = random_system(rng, rng.randint(2, 6), rng.randint(2, 3))
        sys = gsys.system
        labels = sys.labels
        k = frozenset(rng.sample(labels, rng.randint(1, len(labels) - 1)))
        q = random_subset(rng, gsys.space)
        prop = ensures_closure(gsys, k, q, gsys.space.universe())
        if not check_wf1(sys, prop).passed:
            continue
        helpful, rest = split_system(sys, k)
        active = prop.p & prop.q.complement()
        whole_form = active.is_subset(sys.apply(prop.p | prop.q))
        rest_form = active.is_subset(str_apply(rest, prop.p | prop.q))
        assert whole_form == rest_form


def test_closure_generator_yields_passing_instances():
    rng = random.Random(1)
    nontrivial = 0
    for _ in range(60):
        gsys = random_system(rng, rng.randint(2, 6), rng.randint(1, 3))
        labels = gsys.system.labels
        k = frozenset(rng.sample(labels, rng.randint(1, len(labels))))
        q = random_subset(rng, gsys.space)
        prop = ensures_closure(gsys, k, q, gsys.space.universe())
        assert check_wf0(gsys.system, prop).passed
        assert check_wf1(gsys.system, prop).passed
        if not (prop.p & prop.q.complement()).is_empty():
            nontrivial += 1
    assert nontrivial >= 10
