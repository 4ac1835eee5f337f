from __future__ import annotations

import random

import pytest

from faircheck import (
    EnsuresProperty,
    EventSystem,
    Guard,
    LeadsTo,
    Prim,
    ProofScript,
    ProofStep,
    RuleError,
    ScriptEnv,
    StateRelation,
    StateSet,
    StateSpace,
    Unless,
    apply_rule,
    check_script,
    check_unless,
    semantic_leadsto,
    trivial_ensures,
)
from helpers import GenSystem, ensures_closure, random_subset, random_system


def _env(ctr) -> ScriptEnv:
    env = ScriptEnv(ctr.system)
    env.ensures["P1"] = ctr.prop
    return env


def test_check_unless_vacuous_and_fixture(ctr):
    space = ctr.space
    assert check_unless(ctr.system, Unless(ctr.q, space.universe(), "vac")).passed
    # p & ~grd-style left set stays until q
    stable = Unless(ctr.p, ctr.q, "st")
    assert check_unless(ctr.system, stable).passed


def test_check_unless_fail_with_witness(ctr_leaky):
    report = check_unless(ctr_leaky.system, Unless(ctr_leaky.p, ctr_leaky.q, "st"))
    assert report.verdict == "fail"
    assert report.witnesses == (2,)


def test_brl_gate_blocks_unchecked_properties(ctr):
    env = _env(ctr)
    bad = EnsuresProperty("bogus", frozenset({"inc"}), ctr.p, ctr.q)
    env.ensures["bogus"] = bad  # fails WF1: inc never establishes q
    step = ProofStep("s", "brl", ("bogus",))
    with pytest.raises(RuleError):
        apply_rule(env, step)
    ok = apply_rule(env, ProofStep("s", "brl", ("P1",)))
    assert ok.lhs == ctr.p and ok.rhs == ctr.q


def test_brl_unknown_reference(ctr):
    with pytest.raises(RuleError):
        apply_rule(_env(ctr), ProofStep("s", "brl", ("missing",)))


def test_trivial_ensures_weakening(ctr):
    env = _env(ctr)
    env.ensures["w"] = trivial_ensures(ctr.system, "w", ctr.q, ctr.q | ctr.p)
    concl = apply_rule(env, ProofStep("s", "brl", ("w",)))
    assert concl.lhs == ctr.q and concl.rhs == ctr.q | ctr.p


def test_tra_rule(ctr):
    env = _env(ctr)
    prior = {
        "a": LeadsTo(ctr.p, ctr.q, "a"),
        "b": LeadsTo(ctr.q, ctr.q, "b"),
    }
    concl = apply_rule(env, ProofStep("s", "tra", ("a", "b")), prior)
    assert concl.lhs == ctr.p and concl.rhs == ctr.q
    with pytest.raises(RuleError):
        apply_rule(env, ProofStep("s", "tra", ("b", "a")), prior)  # middles differ


def test_dsj_rule_unions_left_sets(ctr):
    env = _env(ctr)
    space = ctr.space
    prior = {
        "a": LeadsTo(space.subset([1]), ctr.q, "a"),
        "b": LeadsTo(space.subset([2]), ctr.q, "b"),
    }
    concl = apply_rule(env, ProofStep("s", "dsj", ("a", "b")), prior)
    assert concl.lhs == space.subset([1, 2])
    mixed = {"a": prior["a"], "b": LeadsTo(space.subset([2]), space.subset([0]), "b")}
    with pytest.raises(RuleError):
        apply_rule(env, ProofStep("s", "dsj", ("a", "b")), mixed)


def test_psp_rule(ctr):
    env = _env(ctr)
    space = ctr.space
    env.unless["u"] = Unless(ctr.p, ctr.q, "u")
    prior = {"a": LeadsTo(ctr.p, ctr.q, "a")}
    concl = apply_rule(env, ProofStep("s", "psp", ("a", "u")), prior)
    assert concl.lhs == ctr.p
    assert concl.rhs == (ctr.q & ctr.p) | ctr.q
    # an unless that does not hold is rejected at the gate
    env.unless["bad"] = Unless(space.subset([0, 1, 2]), space.subset([0]), "bad")
    with pytest.raises(RuleError):
        apply_rule(env, ProofStep("s", "psp", ("a", "bad")), prior)


def test_can_rule_window(ctr):
    env = _env(ctr)
    space = ctr.space
    w = space.subset([1, 2, 3])
    prior = {
        "whole": LeadsTo(space.subset([0]), w, "whole"),
        "repl": LeadsTo(space.subset([1, 2]), space.subset([3]), "repl"),
    }
    good = LeadsTo(space.subset([0]), space.subset([3]), "s")
    concl = apply_rule(env, ProofStep("s", "can", ("whole", "repl"), good), prior)
    assert concl.rhs == space.subset([3])
    # the upper end of the window is admissible too
    wide = LeadsTo(space.subset([0]), w | space.subset([3]), "s")
    assert apply_rule(env, ProofStep("s", "can", ("whole", "repl"), wide), prior).rhs == w
    # below the window is not a cancellation
    too_small = LeadsTo(space.subset([0]), space.empty(), "s")
    with pytest.raises(RuleError):
        apply_rule(env, ProofStep("s", "can", ("whole", "repl"), too_small), prior)
    # middle set must sit inside the first premise's right set
    bad_prior = {
        "whole": LeadsTo(space.subset([0]), space.subset([3]), "whole"),
        "repl": LeadsTo(space.subset([0, 1]), space.subset([3]), "repl"),
    }
    with pytest.raises(RuleError):
        apply_rule(env, ProofStep("s", "can", ("whole", "repl"), good), bad_prior)


def test_can_requires_declared_conclusion(ctr):
    env = _env(ctr)
    prior = {
        "a": LeadsTo(ctr.p, ctr.q, "a"),
        "b": LeadsTo(ctr.q, ctr.q, "b"),
    }
    with pytest.raises(RuleError):
        apply_rule(env, ProofStep("s", "can", ("a", "b")), prior)


def test_thlto_rule_and_op(ctr):
    env = _env(ctr)
    space = ctr.space
    prior = {"a": LeadsTo(space.subset([1, 2]), ctr.q, "a")}
    member = LeadsTo(space.subset([1]), ctr.q, "s")
    concl = apply_rule(env, ProofStep("s", "thlto", ("a",), member), prior)
    assert concl.lhs == space.subset([1])
    overflow = LeadsTo(space.subset([0, 1]), ctr.q, "s")
    with pytest.raises(RuleError):
        apply_rule(env, ProofStep("s", "thlto", ("a",), overflow), prior)


def test_check_script_fixture_chain(ctr):
    env = _env(ctr)
    env.ensures["w"] = trivial_ensures(ctr.system, "w", ctr.q, ctr.q)
    script = ProofScript(
        "demo",
        (
            ProofStep("s1", "brl", ("P1",)),
            ProofStep("s2", "brl", ("w",)),
            ProofStep("s3", "tra", ("s1", "s2")),
        ),
    )
    goal = LeadsTo(ctr.p, ctr.q, "goal")
    report = check_script(env, script, goal)
    assert (report.id, report.verdict, report.refs) == ("SCRIPT:demo", "pass", ("goal",))
    assert report.narrative == "derives goal in 3 steps"


def test_check_script_failure_modes(ctr):
    env = _env(ctr)
    goal = LeadsTo(ctr.p, ctr.q, "goal")

    def narrative(script: ProofScript, goal: LeadsTo) -> str:
        report = check_script(env, script, goal)
        assert (report.id, report.verdict) == (f"SCRIPT:{script.name}", "fail")
        return report.narrative

    assert narrative(ProofScript("empty", ()), goal) == "script has no steps"

    dangling = ProofScript("dangling", (ProofStep("s1", "tra", ("zz", "zz")),))
    assert narrative(dangling, goal) == "step 's1': reference 'zz' does not name a prior step"

    wrong_goal = ProofScript("wg", (ProofStep("s1", "brl", ("P1",)),))
    assert (narrative(wrong_goal, LeadsTo(ctr.q, ctr.p, "goal"))
            == "final conclusion differs from the script goal")

    forward_ref = ProofScript(
        "fr", (ProofStep("s1", "tra", ("s2", "s2")), ProofStep("s2", "brl", ("P1",)))
    )
    assert narrative(forward_ref, goal) == "step 's1': reference 's2' does not name a prior step"


def test_script_steps_must_have_unique_names():
    with pytest.raises(ValueError):
        ProofScript("dup", (ProofStep("s", "brl", ("a",)), ProofStep("s", "brl", ("a",))))


def test_declared_conclusion_mismatch_is_an_error(ctr):
    env = _env(ctr)
    wrong = LeadsTo(ctr.q, ctr.p, "s")
    with pytest.raises(RuleError):
        apply_rule(env, ProofStep("s", "brl", ("P1",), wrong))


def test_unless_pass_means_persistence_along_paths():
    # if the obligation holds, bounded path enumeration never sees a step
    # from lhs & ~rhs leaving lhs | rhs
    rng = random.Random(4)
    from faircheck import transition_relation

    checked = 0
    for _ in range(40):
        gsys = random_system(rng, rng.randint(2, 6), rng.randint(1, 3))
        sys = gsys.system
        lhs = random_subset(rng, gsys.space)
        rhs = random_subset(rng, gsys.space)
        if not check_unless(sys, Unless(lhs, rhs, "u")).passed:
            continue
        rels = {label: transition_relation(cmd) for label, cmd in sys.events.items()}
        frontier = list((lhs & rhs.complement()).members())
        keep = lhs | rhs
        for _ in range(6):
            nxt = []
            for x in frontier:
                for rel in rels.values():
                    for t in rel.successors(x):
                        assert t in keep
                        if t in lhs and t not in rhs:
                            nxt.append(t)
            frontier = nxt
        checked += 1
    assert checked >= 10


def test_rule_soundness_on_generated_scripts():
    # every accepted step's conclusion is semantically valid; this is the
    # module's master property, checked against the independent oracle
    rng = random.Random(0)
    accepted = 0
    for _ in range(30):
        gsys = random_system(rng, rng.randint(2, 5), rng.randint(1, 3))
        sys = gsys.system
        space = gsys.space
        env = ScriptEnv(sys)
        prior: dict[str, LeadsTo] = {}
        q = random_subset(rng, space)
        k = frozenset(rng.sample(sys.labels, rng.randint(1, len(sys.labels))))
        base = ensures_closure(gsys, k, q, space.universe())
        env.ensures["base"] = EnsuresProperty("base", base.helpful, base.p, base.q)
        steps = [ProofStep("b0", "brl", ("base",))]
        wide = base.q | random_subset(rng, space)
        env.ensures["wk"] = trivial_ensures(sys, "wk", base.q, wide)
        steps.append(ProofStep("b1", "brl", ("wk",)))
        steps.append(ProofStep("t", "tra", ("b0", "b1")))
        steps.append(ProofStep("d", "dsj", ("b0", "b0")))
        stable = ensures_closure(gsys, k, wide, space.universe())
        env.unless["u"] = Unless(stable.p, wide, "u")
        if check_unless(sys, env.unless["u"]).passed:
            steps.append(ProofStep("p", "psp", ("t", "u")))
        for step in steps:
            concl = apply_rule(env, step, prior)
            prior[step.name] = concl
            assert semantic_leadsto(sys, concl.lhs, concl.rhs).holds
            accepted += 1
    assert accepted >= 100


def _jumps_and_rotation(rng: random.Random) -> tuple[GenSystem, StateSet]:
    """Two or three events that jump to one target state from random
    guards, and a random permutation `rot` enabled everywhere. A group of
    jump events can cover a rotation cycle while each of them is disabled
    somewhere on it, so the group is enabled throughout and none of them
    need fire."""
    space = StateSpace("u", rng.randint(4, 7))
    target = rng.randrange(space.size)
    guards = {f"e{i}": random_subset(rng, space) for i in range(rng.randint(2, 3))}
    rels = {label: StateRelation(space, space, [(s, target) for s in guard.members()])
            for label, guard in guards.items()}
    order = list(range(space.size))
    rng.shuffle(order)
    guards["rot"], rels["rot"] = space.universe(), StateRelation(space, space, enumerate(order))
    events = {label: Guard(guards[label], Prim(rel)) for label, rel in rels.items()}
    return GenSystem(EventSystem(space, events), guards, rels), space.singleton(target)


def test_accepted_scripts_hold_whatever_the_helpful_group():
    # brl over a random helpful group, weakened and chained: every script
    # check_script accepts is a leads-to the oracle confirms, and some draws
    # the oracle refutes are rejected
    rng = random.Random(5)
    accepted = refuted = 0
    for _ in range(400):
        gsys, q = _jumps_and_rotation(rng)
        sys, space = gsys.system, gsys.space
        k = frozenset(rng.sample(sys.labels, rng.randint(1, len(sys.labels))))
        base = ensures_closure(gsys, k, q, space.universe())
        wide = q | StateSet(space, rng.getrandbits(space.size) & rng.getrandbits(space.size))
        env = ScriptEnv(sys, ensures={"base": base, "wk": trivial_ensures(sys, "wk", q, wide)})
        script = ProofScript("s", (
            ProofStep("b0", "brl", ("base",)),
            ProofStep("b1", "brl", ("wk",)),
            ProofStep("t", "tra", ("b0", "b1")),
        ))
        holds = semantic_leadsto(sys, base.p, wide).holds
        if check_script(env, script, LeadsTo(base.p, wide, "goal")).passed:
            assert holds
            accepted += 1
        elif not holds:
            refuted += 1
    assert accepted >= 200 and refuted >= 1
