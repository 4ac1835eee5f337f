from __future__ import annotations

import json
import random
import time
from collections import Counter

import pytest

from faircheck import refinement
from faircheck import (
    Choice,
    EnsuresProperty,
    EventSystem,
    FairLoop,
    Guard,
    ModelError,
    ObligationReport,
    OracleResult,
    Prim,
    RefinementPair,
    StateRelation,
    StateSpace,
    check_all_event_refinements,
    check_ensures,
    check_event_refinement,
    check_lip,
    check_refined_ensures,
    check_sap,
    concrete_property,
    grd_of,
    lip_goal,
    loop_liberal,
    semantic_leadsto,
    split_system,
    str_apply,
)
from faircheck.cli import run_cli
from helpers import (
    ROOT,
    cosingleton_simulation_gaps,
    derived_inclusion_failures,
    ensures_closure,
    exhaustive_simulation_gaps,
    random_command,
    random_event,
    random_subset,
    random_system,
    refinement_groups,
    split_refinement,
)


def _identity_pair(ctr) -> RefinementPair:
    space = ctr.space
    v = StateSpace("v", space.size)
    inc = Guard(v.subset([1, 2]), Prim(StateRelation(v, v, [(1, 2), (2, 1)])))
    done = Guard(v.subset([1, 2]), Prim(StateRelation(v, v, [(1, 3), (2, 3)])))
    concrete = EventSystem(v, {"inc2": inc, "done2": done})
    gluing = StateRelation(v, space, [(i, i) for i in range(space.size)])
    return RefinementPair(
        ctr.system, concrete, gluing, {"inc2": "inc", "done2": "done"}
    )


def _stutter_pair(ctr) -> RefinementPair:
    """The flag refinement: done2 waits for t=1, tick raises the flag."""
    space = ctr.space
    v = StateSpace("v", 8)  # state (y, t) encoded as 2*y + t
    enc = lambda y, t: 2 * y + t
    inc = Guard(
        v.subset([enc(1, 0), enc(1, 1), enc(2, 0), enc(2, 1)]),
        Prim(
            StateRelation(
                v, v, [(enc(y, t), enc(3 - y, t)) for y in (1, 2) for t in (0, 1)]
            )
        ),
    )
    done = Guard(
        v.subset([enc(1, 1), enc(2, 1)]),
        Prim(StateRelation(v, v, [(enc(y, 1), enc(3, 1)) for y in (1, 2)])),
    )
    tick = Guard(
        v.subset([enc(y, 0) for y in range(4)]),
        Prim(StateRelation(v, v, [(enc(y, 0), enc(y, 1)) for y in range(4)])),
    )
    concrete = EventSystem(v, {"inc2": inc, "done2": done, "tick": tick})
    gluing = StateRelation(v, space, [(enc(y, t), y) for y in range(4) for t in (0, 1)])
    return RefinementPair(
        ctr.system, concrete, gluing, {"inc2": "inc", "done2": "done", "tick": None}
    )


def test_pair_construction_validations(ctr):
    space = ctr.space
    v = StateSpace("v", 2)
    stay = Guard(v.universe(), Prim(StateRelation(v, v, [(0, 0), (1, 1)])))
    concrete = EventSystem(v, {"stay": stay})
    partial = StateRelation(v, space, [(0, 0)])
    with pytest.raises(ModelError) as err:
        RefinementPair(ctr.system, concrete, partial, {"stay": "inc"})
    assert "gluing not total" in str(err.value)
    total = StateRelation(v, space, [(0, 0), (1, 1)])
    with pytest.raises(ModelError):
        RefinementPair(ctr.system, concrete, total, {})  # unmapped concrete event
    with pytest.raises(ModelError):
        RefinementPair(ctr.system, concrete, total, {"stay": "zzz"})
    with pytest.raises(ModelError):
        # done is never refined
        RefinementPair(ctr.system, concrete, total, {"stay": "inc"})


def test_identity_refinement_passes_everything(ctr):
    pair = _identity_pair(ctr)
    for report in check_all_event_refinements(pair):
        assert report.passed
    ens = ctr.prop
    assert check_sap(pair, ens).passed
    goal = lip_goal(pair, ens)
    assert goal.lhs.is_empty()  # guard unchanged, nothing to reach
    assert derived_inclusion_failures(pair, ens) == []
    assert check_lip(pair, ens).holds
    final = check_refined_ensures(pair, ens)
    assert final.passed


def test_split_state_refinement_exhaustive(ctr):
    # split state 1 into two copies; inc acts on both
    space = ctr.space
    v = StateSpace("v", 5)  # 0,1a,1b,2,3 -> 0,1,2,3,4
    to_abs = {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
    inc = Guard(
        v.subset([1, 2, 3]),
        Prim(StateRelation(v, v, [(1, 3), (2, 3), (3, 1), (3, 2)])),
    )
    done = Guard(
        v.subset([1, 2, 3]),
        Prim(StateRelation(v, v, [(1, 4), (2, 4), (3, 4)])),
    )
    concrete = EventSystem(v, {"inc2": inc, "done2": done})
    gluing = StateRelation(v, space, list(to_abs.items()))
    pair = RefinementPair(ctr.system, concrete, gluing, {"inc2": "inc", "done2": "done"})
    for label in ("inc2", "done2"):
        assert check_event_refinement(pair, label).passed
    assert check_refined_ensures(pair, ctr.prop).passed


def test_event_refinement_failure_witnesses(ctr):
    # a concrete inc that escapes to the idle copy cannot simulate inc
    space = ctr.space
    v = StateSpace("v", 4)
    bad_inc = Guard(v.subset([1, 2]), Prim(StateRelation(v, v, [(1, 0), (2, 1)])))
    done = Guard(v.subset([1, 2]), Prim(StateRelation(v, v, [(1, 3), (2, 3)])))
    concrete = EventSystem(v, {"inc2": bad_inc, "done2": done})
    gluing = StateRelation(v, space, [(i, i) for i in range(4)])
    pair = RefinementPair(ctr.system, concrete, gluing, {"inc2": "inc", "done2": "done"})
    report = check_event_refinement(pair, "inc2")
    assert report.verdict == "fail"
    # inc2 leaves y=1 for y=0, which is glued to no successor of x=1 under inc
    assert report.witnesses == (1,)


def test_new_event_must_refine_skip(ctr):
    space = ctr.space
    v = StateSpace("v", 4)
    inc = Guard(v.subset([1, 2]), Prim(StateRelation(v, v, [(1, 2), (2, 1)])))
    done = Guard(v.subset([1, 2]), Prim(StateRelation(v, v, [(1, 3), (2, 3)])))
    jump = Guard(v.subset([1]), Prim(StateRelation(v, v, [(1, 2)])))  # changes y
    concrete = EventSystem(v, {"inc2": inc, "done2": done, "jump": jump})
    gluing = StateRelation(v, space, [(i, i) for i in range(4)])
    pair = RefinementPair(
        ctr.system, concrete, gluing, {"inc2": "inc", "done2": "done", "jump": None}
    )
    report = check_event_refinement(pair, "jump")
    assert report.verdict == "fail"


def test_stutter_refinement_end_to_end(ctr):
    pair = _stutter_pair(ctr)
    ens = ctr.prop
    for report in check_all_event_refinements(pair):
        assert report.passed, report.id
    assert check_sap(pair, ens).passed
    goal = lip_goal(pair, ens)
    assert not goal.lhs.is_empty()  # the flag gate makes liveness real
    assert check_lip(pair, ens).holds
    final = check_refined_ensures(pair, ens)
    assert final.passed
    # the theorem behind the pass: the derived inclusions hold, the
    # certified concrete property really is an ensures property and the
    # glued leads-to holds
    assert derived_inclusion_failures(pair, ens) == []
    cprop = concrete_property(pair, ens)
    assert check_ensures(pair.concrete, cprop).passed
    p2, q2 = pair.concrete_of(ens.p), pair.concrete_of(ens.q)
    assert semantic_leadsto(pair.concrete, p2, q2).holds


def test_sap_violation_is_rejected_with_witness(ctr):
    # split state 1 into 1a,1b; done2 only enabled at 1a and 2; inc2 from 2
    # goes to 1b, leaving the refined helpful guard
    space = ctr.space
    v = StateSpace("v", 5)  # 0,1a,1b,2,3
    inc = Guard(
        v.subset([1, 2, 3]),
        Prim(StateRelation(v, v, [(1, 3), (2, 3), (3, 2)])),
    )
    done = Guard(v.subset([1, 3]), Prim(StateRelation(v, v, [(1, 4), (3, 4)])))
    tick = Guard(v.subset([2]), Prim(StateRelation(v, v, [(2, 1)])))
    concrete = EventSystem(v, {"inc2": inc, "done2": done, "tick": tick})
    gluing = StateRelation(v, space, [(0, 0), (1, 1), (2, 1), (3, 2), (4, 3)])
    pair = RefinementPair(
        ctr.system, concrete, gluing, {"inc2": "inc", "done2": "done", "tick": None}
    )
    for report in check_all_event_refinements(pair):
        assert report.passed, report.id
    sap = check_sap(pair, ctr.prop)
    assert sap.verdict == "fail"
    assert 3 in sap.witnesses  # concrete state 2 (index 3) exits the guard
    final = check_refined_ensures(pair, ctr.prop)
    assert final.verdict == "hypothesis-failed"
    assert "safety" in final.narrative


def test_lip_discharged_by_proof_script(ctr):
    # the liveness goal of the flag refinement coincides with the stutter
    # ensures property, so a one-step script derives it; a derived goal is
    # a valid leads-to, so the oracle's LIP verdict holds and RENS passes
    from faircheck import LeadsTo, ProofScript, ProofStep, ScriptEnv, check_script

    pair = _stutter_pair(ctr)
    goal = lip_goal(pair, ctr.prop)
    stutter = EnsuresProperty("E_stutter", frozenset({"tick"}), goal.lhs, goal.rhs)
    env = ScriptEnv(pair.concrete, ensures={"E_stutter": stutter})
    script = ProofScript("lip", (ProofStep("s1", "brl", ("E_stutter",)),))
    report = check_script(env, script, LeadsTo(goal.lhs, goal.rhs, "goal"))
    assert (report.id, report.verdict) == ("SCRIPT:lip", "pass")
    assert check_lip(pair, ctr.prop).holds
    assert check_refined_ensures(pair, ctr.prop).passed


def test_glued_active_inclusion_holds_for_generated_pairs(ctr):
    # p' & ~q' is always inside the glued preimage of p & ~q
    rng = random.Random(0)
    pairs = [_identity_pair(ctr), _stutter_pair(ctr)]
    for _ in range(20):
        gsys = random_system(rng, rng.randint(2, 5), rng.randint(1, 3))
        pair, _ = split_refinement(rng, gsys)
        pairs.append(pair)
        p = random_subset(rng, gsys.space)
        q = random_subset(rng, gsys.space)
        p2, q2 = pair.concrete_of(p), pair.concrete_of(q)
        glued_active = pair.concrete_of(p & q.complement())
        assert (p2 & q2.complement()).is_subset(glued_active)


def test_partial_correctness_on_concrete_loop(ctr):
    # with the gates passed, the concrete p' | q' sits inside the liberal
    # transformer of the concrete fair iteration at q'
    for pair in (_identity_pair(ctr), _stutter_pair(ctr)):
        ens = ctr.prop
        helpful, rest, new = refinement_groups(pair, ens)
        p2, q2 = pair.concrete_of(ens.p), pair.concrete_of(ens.q)
        loop = FairLoop(q2, helpful, Choice(rest.space, (rest, new)))
        assert (p2 | q2).is_subset(loop_liberal(loop, q2))


def test_generated_split_refinements_preserve_ensures():
    rng = random.Random(2)
    kept = 0
    attempts = 0
    while kept < 12 and attempts < 400:
        attempts += 1
        gsys = random_system(rng, rng.randint(2, 4), rng.randint(1, 3))
        labels = gsys.system.labels
        k = frozenset(rng.sample(labels, rng.randint(1, len(labels))))
        q = random_subset(rng, gsys.space)
        prop = ensures_closure(gsys, k, q, gsys.space.universe())
        if (prop.p & prop.q.complement()).is_empty():
            continue
        if not check_ensures(gsys.system, prop).passed:
            continue
        helpful, _ = split_system(gsys.system, k)
        active = prop.p & prop.q.complement()
        others = [l for l in labels if l not in k]
        if others:
            rest, _ = split_system(gsys.system, set(others))
            from faircheck import str_apply

            if not (active & grd_of(helpful)).is_subset(str_apply(rest, grd_of(helpful))):
                continue  # would fail safety preservation after splitting
        pair, _ = split_refinement(rng, gsys)
        if not all(r.passed for r in check_all_event_refinements(pair)):
            continue
        if not check_sap(pair, prop).passed:
            continue
        if not check_lip(pair, prop).holds:
            continue
        report = check_refined_ensures(pair, prop)
        assert report.passed, report.narrative
        # the theorem behind the pass, computed: the derived inclusions,
        # the concrete ensures property and the glued leads-to
        assert derived_inclusion_failures(pair, prop) == []
        assert check_ensures(pair.concrete, concrete_property(pair, prop)).passed
        p2, q2 = pair.concrete_of(prop.p), pair.concrete_of(prop.q)
        assert semantic_leadsto(pair.concrete, p2, q2).holds
        # partial correctness of the concrete fair iteration
        helpful2, rest2, new2 = refinement_groups(pair, prop)
        loop = FairLoop(q2, helpful2, Choice(rest2.space, (rest2, new2)))
        assert (p2 | q2).is_subset(loop_liberal(loop, q2))
        kept += 1
    assert kept >= 12


def test_glued_image_inclusion_per_event():
    # r^-1[F(s)] sits inside F'(r^-1[s]) for each refined event, on random
    # subsets of the abstract space
    rng = random.Random(3)
    from faircheck import str_apply

    for _ in range(15):
        gsys = random_system(rng, rng.randint(2, 4), rng.randint(1, 3))
        pair, _ = split_refinement(rng, gsys)
        if not all(r.passed for r in check_all_event_refinements(pair)):
            continue
        for clabel, alabel in pair.refines.items():
            if alabel is None:
                continue
            fa = gsys.system.events[alabel]
            fc = pair.concrete.events[clabel]
            for _ in range(12):
                s = random_subset(rng, gsys.space)
                lhs = pair.gluing.inverse_image(str_apply(fa, s))
                rhs = str_apply(fc, pair.gluing.inverse_image(s))
                assert lhs.is_subset(rhs)


def _random_gluing_pair(rng: random.Random) -> RefinementPair:
    """Arbitrary total fair-choice-free events over random spaces: "c" refines
    the abstract "a", and "n" is a new event that must refine skip."""
    u = StateSpace("u", rng.randint(1, 4))
    v = StateSpace("v", rng.randint(1, 8))
    pairs = [
        (y, x)
        for y in range(v.size)
        for x in {rng.randrange(u.size) for _ in range(1 + (rng.random() < 0.3))}
    ]
    event = lambda space: random_command(
        rng, space, rng.randint(0, 2), total_only=True, allow_dovetail=False
    )
    abstract = EventSystem(u, {"a": event(u)})
    concrete = EventSystem(v, {"c": event(v), "n": event(v)})
    return RefinementPair(abstract, concrete, StateRelation(v, u, pairs), {"c": "a", "n": None})


def test_simulation_check_matches_exhaustive_reference():
    rng = random.Random(11)
    verdicts = {"pass": 0, "fail": 0}
    for _ in range(1000):
        pair = _random_gluing_pair(rng)
        for label in ("c", "n"):
            gaps = {x for _, x in exhaustive_simulation_gaps(pair, label)}
            report = check_event_refinement(pair, label)
            assert set(report.witnesses) == gaps, (label, pair.gluing.pairs)
            assert report.passed == (not gaps)
            assert cosingleton_simulation_gaps(pair, label) == gaps
            verdicts[report.verdict] += 1
    assert sum(verdicts.values()) >= 2000
    assert min(verdicts.values()) >= 200, verdicts


def _large_gluing_pair(rng: random.Random) -> RefinementPair:
    """Pairs of 13-40 concrete states, too many to enumerate every subset.
    The abstract event "a" is a guarded relation over 2-5 states, and about
    one concrete state in ten is glued to two abstract states. The steps of
    "c" (refining "a") mostly lead into the fibre of a successor of a glued
    state, those of the new event "n" mostly stay in a glued fibre; the rest
    go anywhere, and a few "c" steps start where "a" is disabled."""
    u = StateSpace("u", rng.randint(2, 5))
    v = StateSpace("v", rng.randint(13, 40))
    glue = [
        {rng.randrange(u.size) for _ in range(1 + (rng.random() < 0.1))} for _ in range(v.size)
    ]
    fibre = [[y for y in range(v.size) if x in glue[y]] for x in range(u.size)]
    guard, rel = random_event(rng, u)

    def event(targets_of) -> Guard:
        pairs = []
        for y in range(v.size):
            targets = targets_of(y)
            if (targets or rng.random() < 0.05) and rng.random() < 0.6:
                for _ in range(1 + (rng.random() < 0.3)):
                    lands = fibre[rng.choice(targets)] if targets else ()
                    noisy = rng.random() < 0.04 or not lands
                    pairs.append((y, rng.randrange(v.size) if noisy else rng.choice(lands)))
        return Guard(v.subset(y for y, _ in pairs), Prim(StateRelation(v, v, pairs)))

    def abstract_targets(y: int) -> list[int]:
        if not glue[y] <= set(guard.members()):
            return []
        return [t for x in sorted(glue[y]) for t in rel.successors(x)]

    concrete = EventSystem(
        v, {"c": event(abstract_targets), "n": event(lambda y: sorted(glue[y]))}
    )
    gluing = StateRelation(v, u, [(y, x) for y in range(v.size) for x in glue[y]])
    abstract = EventSystem(u, {"a": Guard(guard, Prim(rel))})
    return RefinementPair(abstract, concrete, gluing, {"c": "a", "n": None})


def test_simulation_check_matches_cosingleton_sweep_beyond_subset_enumeration():
    rng = random.Random(5)
    verdicts = Counter()
    relational = 0
    for _ in range(300):
        pair = _large_gluing_pair(rng)
        relational += len(pair.gluing.pairs) > pair.concrete.space.size
        for label in ("c", "n"):
            report = check_event_refinement(pair, label)
            assert set(report.witnesses) == cosingleton_simulation_gaps(pair, label), label
            assert list(report.witnesses) == sorted(report.witnesses)
            verdicts[label, report.verdict] += 1
    assert relational >= 100
    assert min(verdicts.values()) >= 50, verdicts


def _ring_pair(n: int) -> RefinementPair:
    """Two copies of an n-state ring with events step (x -> x+1 mod n) and
    reset (x -> 0 where x is even), glued by identity."""

    def ring(space: StateSpace) -> EventSystem:
        step = StateRelation(space, space, [(x, (x + 1) % n) for x in range(n)])
        reset = StateRelation(space, space, [(x, 0) for x in range(0, n, 2)])
        events = {"step": Guard(space.universe(), Prim(step)), "reset": Prim(reset)}
        return EventSystem(space, events)

    u, v = StateSpace("u", n), StateSpace("v", n)
    gluing = StateRelation(v, u, [(x, x) for x in range(n)])
    return RefinementPair(ring(u), ring(v), gluing, {"step": "step", "reset": "reset"})


def test_event_refinement_scales_to_32000_states():
    pair = _ring_pair(32000)
    started = time.perf_counter()
    reports = check_all_event_refinements(pair)
    elapsed = time.perf_counter() - started
    assert [r.verdict for r in reports] == ["pass", "pass"]
    # the co-singleton sweep took about 18 s here
    assert elapsed < 1, elapsed


def _hidden_block_pair(n: int) -> RefinementPair:
    """Abstract: every state moves to a0. Concrete: y -> z, where y glues to
    a1, a block of n-2 states glues to a0 and z glues to a2. The concrete
    event escapes the glued target, but only at subsets holding the whole
    block and missing z."""
    u = StateSpace("u", 3)
    to_a0 = Guard(u.universe(), Prim(StateRelation(u, u, [(x, 0) for x in range(3)])))
    abstract = EventSystem(u, {"go": to_a0})
    v = StateSpace("v", n)
    y, z = 0, n - 1
    go2 = Guard(v.singleton(y), Prim(StateRelation(v, v, [(y, z)])))
    concrete = EventSystem(v, {"go2": go2})
    gluing = [(y, 1), (z, 2)] + [(b, 0) for b in range(1, n - 1)]
    return RefinementPair(abstract, concrete, StateRelation(v, u, gluing), {"go2": "go"})


@pytest.mark.parametrize("n", [14, 19])
def test_hidden_block_escape_fails_at_every_size(n):
    pair = _hidden_block_pair(n)
    report = check_event_refinement(pair, "go2")
    assert report.verdict == "fail"
    assert report.witnesses == (1,)


def test_refined_ensures_reads_gates_in_order(ctr, monkeypatch):
    pair = _stutter_pair(ctr)
    assert check_refined_ensures(pair, ctr.prop).passed
    order = [
        check_ensures(pair.abstract, ctr.prop).id,
        *(r.id for r in check_all_event_refinements(pair)),
        check_sap(pair, ctr.prop).id,
        "LIP",
    ]
    narratives = [
        "abstract property failed: planted",
        "event refinement failed: REF:inc2",
        "event refinement failed: REF:done2",
        "event refinement failed: REF:tick",
        "safety preservation failed",
        "liveness preservation goal failed (oracle)",
    ]
    assert len(order) == len(narratives)
    for k, narrative in enumerate(narratives):
        # gates before k pass, gate k and everything after it fail
        failing = set(order[k:])

        def plant(check):
            def planted(*args):
                report = check(*args)
                if report.id in failing:
                    return ObligationReport(report.id, "fail", witnesses=(0,), narrative="planted")
                return report

            return planted

        with monkeypatch.context() as patch:
            for name in ("check_ensures", "check_event_refinement", "check_sap"):
                patch.setattr(refinement, name, plant(getattr(refinement, name)))
            refuted = OracleResult(False, deadlock_path=(0,))
            patch.setattr(refinement, "check_lip",
                          lambda rp, prop: refuted if "LIP" in failing else check_lip(rp, prop))
            report = check_refined_ensures(pair, ctr.prop)
        assert report.verdict == "hypothesis-failed"
        assert report.narrative == narrative


def test_refine_decides_preservation_from_its_gates(monkeypatch, capsys):
    # RENS and DRV are read off the gates: the one oracle call of the
    # refinement module is the LIP goal's, and LIP-goal and RENS both read
    # its result (a planted refutation fails the one and blocks the other);
    # ensures properties are checked on the abstract system only
    def counted(calls, check, planted=None):
        def call(sys, *args):
            calls.append(sys.space.id)
            result = check(sys, *args)
            return result if planted is None else planted

        return call

    ctr = str(ROOT / "models" / "ctr.fb")
    for command in (("refine", ctr, "--pair", "ctr2"), ("report", ctr)):
        for holds in (True, False):
            oracle_spaces, ensures_spaces = [], []
            planted = None if holds else OracleResult(False, deadlock_path=(0,))
            with monkeypatch.context() as patch:
                patch.setattr(refinement, "semantic_leadsto",
                              counted(oracle_spaces, refinement.semantic_leadsto, planted))
                patch.setattr(refinement, "check_ensures",
                              counted(ensures_spaces, refinement.check_ensures))
                code = run_cli([*command, "--format", "json"])
            assert code == (0 if holds else 1)
            entries = {e["id"]: e for e in json.loads(capsys.readouterr().out)["obligations"]}
            assert oracle_spaces == ["ctr2"]
            assert ensures_spaces and set(ensures_spaces) == {"ctr"}
            lip, rens = entries["LIP-goal:P1"], entries["RENS:P1"]
            if holds:
                assert (lip["verdict"], rens["verdict"]) == ("pass", "pass")
                assert rens["narrative"] == "concrete ensures P1' holds by ENS, REF, SAP and LIP"
            else:
                assert (lip["verdict"], rens["verdict"]) == ("fail", "hypothesis-failed")
                assert rens["narrative"] == "liveness preservation goal failed (oracle)"
            drv = [rid for rid in entries if rid.startswith("DRV:P1:")]
            assert drv == [f"DRV:P1:{tag}" for tag in refinement.DRV_TAGS]
            assert all(entries[rid]["verdict"] == "pass" for rid in drv)
