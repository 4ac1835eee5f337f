"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from faircheck import (
    Choice,
    Dovetail,
    EnsuresProperty,
    EventSystem,
    FairLoop,
    Guard,
    LeadsTo,
    Prim,
    ProofStep,
    RefinementPair,
    RuleError,
    ScriptEnv,
    SetFunction,
    StateRelation,
    StateSet,
    StateSpace,
    Unless,
    apply_rule,
    check_all_event_refinements,
    check_lip,
    check_refined_ensures,
    check_sap,
    check_script,
    check_unless,
    conjunctivity_check,
    gfp,
    grd_of,
    lfp,
    liberal_apply,
    loop_functional,
    loop_guard,
    loop_pre,
    loop_str,
    pre_of,
    semantic_leadsto,
    split_system,
    str_apply,
    trivial_ensures,
)
from faircheck.cli import run_cli
from faircheck.elaborator import elaborate
from faircheck.parser import parse_document
from faircheck.reports import validate_report
from helpers import (
    GenSystem,
    ensures_closure,
    fair_avoidance_exists,
    random_command,
    random_subset,
    random_system,
    split_refinement,
)

ROOT = Path(__file__).parent.parent
CTR = str(ROOT / "models" / "ctr.fb")
LEAK = str(ROOT / "models" / "ctr_leak.fb")


def _report(number: int, ok: bool, description: str) -> None:
    verdict = "pass" if ok else "fail"
    print(f"ACCEPTANCE {number:02d} {verdict}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _collect_dovetails(c):
    out = []
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Dovetail):
            out.append(node)
            stack.extend((node.left, node.right))
        elif isinstance(node, (Guard,)):
            stack.append(node.body)
        elif hasattr(node, "body"):
            stack.append(node.body)
        elif isinstance(node, Choice):
            stack.extend(node.options)
        elif hasattr(node, "first"):
            stack.extend((node.first, node.second))
    return out


def test_criterion_01_transformer_laws():
    rng = random.Random(100)
    violations = 0
    dovetail_nodes = 0
    started = time.perf_counter()
    for i in range(500):
        space = StateSpace("u", 1 + i % 6)
        c = random_command(rng, space, depth=3)
        n = space.size
        full = 1 << n
        str_table = [str_apply(c, StateSet(space, m)).mask for m in range(full)]
        lib_table = [liberal_apply(c, StateSet(space, m)).mask for m in range(full)]
        pre_mask = pre_of(c).mask
        # pairing across every postcondition
        if any(str_table[m] != lib_table[m] & pre_mask for m in range(full)):
            violations += 1
        # monotonicity across every ordered pair
        for t in range(full):
            s = (t - 1) & t
            while True:
                if str_table[s] & ~str_table[t] or lib_table[s] & ~lib_table[t]:
                    violations += 1
                    break
                if s == 0:
                    break
                s = (s - 1) & t
        if not conjunctivity_check(c).ok:
            violations += 1
        for node in _collect_dovetails(c):
            dovetail_nodes += 1
            if grd_of(node) != grd_of(node.left) | grd_of(node.right):
                violations += 1
    # make sure the fair-choice law was really exercised
    while dovetail_nodes < 100:
        space = StateSpace("u", 1 + dovetail_nodes % 6)
        node = Dovetail(
            random_command(rng, space, depth=2), random_command(rng, space, depth=2)
        )
        dovetail_nodes += 1
        if grd_of(node) != grd_of(node.left) | grd_of(node.right):
            violations += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        violations == 0 and elapsed < 10.0,
        f"pairing/monotonicity/conjunctivity/fair-choice guard law over 500 "
        f"commands, {violations} violations in {elapsed:.1f}s",
    )


def test_criterion_02_dovetail_note():
    rng = random.Random(101)
    violations = 0
    for i in range(500):
        space = StateSpace("u", 1 + i % 6)
        c = random_command(rng, space, depth=3)
        lib_empty = liberal_apply(c, space.empty())
        if lib_empty & str_apply(c, space.empty()) != lib_empty & str_apply(c, space.universe()):
            violations += 1
    _report(2, violations == 0, f"note-law intersection equality, {violations} violations")


def test_criterion_03_termination_lemma():
    rng = random.Random(102)
    violations = 0
    for _ in range(200):
        space = StateSpace("u", rng.randint(1, 6))
        loop = FairLoop(
            random_subset(rng, space),
            random_command(rng, space, depth=2, total_only=True),
            random_command(rng, space, depth=2, total_only=True),
        )
        assert pre_of(loop.helpful) == space.universe()
        assert pre_of(loop.rest) == space.universe()
        if not (grd_of(loop.helpful) | loop.exit_set).is_subset(loop_pre(loop)):
            violations += 1
    _report(3, violations == 0, f"termination lemma on 200 fair loops, {violations} violations")


def test_criterion_04_total_correctness():
    rng = random.Random(103)
    violations = 0
    nontrivial = 0
    for _ in range(200):
        gsys = random_system(rng, rng.randint(2, 6), rng.randint(1, 3))
        labels = gsys.system.labels
        k = frozenset(rng.sample(labels, rng.randint(1, len(labels))))
        q = random_subset(rng, gsys.space)
        prop = ensures_closure(gsys, k, q, random_subset(rng, gsys.space) | q.complement())
        helpful, rest = split_system(gsys.system, k)
        loop = FairLoop(q, helpful, rest)
        if not (prop.p | q).is_subset(loop_str(loop, q)):
            violations += 1
        if not semantic_leadsto(gsys.system, prop.p, q).holds:
            violations += 1
        if not (prop.p & q.complement()).is_empty():
            nontrivial += 1
    _report(
        4,
        violations == 0 and nontrivial >= 40,
        f"total correctness + oracle cross-check on 200 instances "
        f"({nontrivial} with active states), {violations} violations",
    )


def test_criterion_05_monotony_guard_chains():
    rng = random.Random(104)
    problems = 0
    loops = []
    for _ in range(15):
        space = StateSpace("u", rng.randint(2, 5))
        loops.append(
            FairLoop(
                random_subset(rng, space),
                random_command(rng, space, depth=2, total_only=True),
                random_command(rng, space, depth=2, total_only=True),
            )
        )
    for loop in loops:
        space = loop.space
        table = {r: loop_str(loop, r) for r in space.all_subsets()}
        for r in space.all_subsets():
            for s in space.all_subsets():
                if r.is_subset(s) and not table[r].is_subset(table[s]):
                    problems += 1
        fn = loop_functional(loop, space.empty())
        least = lfp(fn)
        if loop_guard(loop) != least.complement():
            problems += 1
        chain = space.empty()
        for i in range(space.size + 2):
            chain = fn(chain)
            if not chain.is_subset(least):
                problems += 1
            # chain states make the loop miraculous for every postcondition
            for r in space.all_subsets():
                if not chain.is_subset(table[r]):
                    problems += 1
    _report(
        5,
        problems == 0,
        f"loop monotony, guard fixpoint equality, chain containments on "
        f"{len(loops)} loops, {problems} problems",
    )


def test_criterion_06_fixpoint_duality():
    rng = random.Random(105)
    problems = 0
    count = 0
    for _ in range(30):
        space = StateSpace("u", 5)
        c = random_command(rng, space, depth=2, total_only=True)
        seed = random_subset(rng, space)
        f = SetFunction(space, lambda x, c=c, s=seed: s | str_apply(c, x))
        least, greatest = lfp(f), gfp(f)
        post_meet, pre_join = space.universe(), space.empty()
        for x in space.all_subsets():
            fx = f(x)
            if fx.is_subset(x):
                post_meet = post_meet & x
            if x.is_subset(fx):
                pre_join = pre_join | x
        if post_meet != least or pre_join != greatest:
            problems += 1
        count += 1
    _report(
        6,
        problems == 0,
        f"gfp = union of pre-fixpoints, lfp = meet of post-fixpoints on "
        f"{count} monotone functions, {problems} problems",
    )


def test_criterion_07_refinement_soundness():
    rng = random.Random(106)
    accepted = 0
    discrepancies = 0
    attempts = 0
    while accepted < 50 and attempts < 2000:
        attempts += 1
        gsys = random_system(rng, rng.randint(2, 4), rng.randint(1, 3))
        labels = gsys.system.labels
        k = frozenset(rng.sample(labels, rng.randint(1, len(labels))))
        q = random_subset(rng, gsys.space)
        prop = ensures_closure(gsys, k, q, gsys.space.universe())
        if (prop.p & prop.q.complement()).is_empty():
            continue
        helpful, rest = split_system(gsys.system, k)
        active = prop.p & prop.q.complement()
        others = [l for l in labels if l not in k]
        if others and not (active & grd_of(helpful)).is_subset(
            str_apply(rest, grd_of(helpful))
        ):
            continue
        pair, _ = split_refinement(rng, gsys)
        if not all(r.passed for r in check_all_event_refinements(pair)):
            continue
        if not check_sap(pair, prop).passed:
            continue
        if not check_lip(pair, prop).holds:
            continue
        report = check_refined_ensures(pair, prop)
        p2, q2 = pair.concrete_of(prop.p), pair.concrete_of(prop.q)
        confirmed = semantic_leadsto(pair.concrete, p2, q2).holds
        if not (report.passed and confirmed):
            discrepancies += 1
        accepted += 1

    # one deliberately unsafe pair must be rejected with a witness
    space = StateSpace("u", 4)
    inc = Guard(space.subset([1, 2]), Prim(StateRelation(space, space, [(1, 2), (2, 1)])))
    done = Guard(space.subset([1, 2]), Prim(StateRelation(space, space, [(1, 3), (2, 3)])))
    abstract = EventSystem(space, {"inc": inc, "done": done})
    aprop = EnsuresProperty("P", frozenset({"done"}), space.subset([1, 2]), space.subset([3]))
    v = StateSpace("v", 5)
    inc2 = Guard(v.subset([1, 2, 3]), Prim(StateRelation(v, v, [(1, 3), (2, 3), (3, 2)])))
    done2 = Guard(v.subset([1, 3]), Prim(StateRelation(v, v, [(1, 4), (3, 4)])))
    tick = Guard(v.subset([2]), Prim(StateRelation(v, v, [(2, 1)])))
    concrete = EventSystem(v, {"inc2": inc2, "done2": done2, "tick": tick})
    gluing = StateRelation(v, space, [(0, 0), (1, 1), (2, 1), (3, 2), (4, 3)])
    bad = RefinementPair(abstract, concrete, gluing, {"inc2": "inc", "done2": "done", "tick": None})
    sap = check_sap(bad, aprop)
    rejected = (
        sap.verdict == "fail"
        and len(sap.witnesses) > 0
        and check_refined_ensures(bad, aprop).verdict
        == "hypothesis-failed"
    )
    _report(
        7,
        accepted >= 50 and discrepancies == 0 and rejected,
        f"{accepted} preserved refinements with oracle confirmation "
        f"({discrepancies} discrepancies); unsafe pair rejected with witness "
        f"{sap.witnesses[:1]}",
    )


def test_criterion_08_unity_soundness_and_fixture_script():
    rng = random.Random(107)
    accepted = 0
    violations = 0
    # brl takes a helpful group of one event or the whole system; a proper
    # group of several events is a rule error, whatever its ensures verdict
    rejected = misjudged = 0
    while accepted < 200:
        gsys = random_system(rng, rng.randint(2, 5), rng.randint(1, 3))
        sys = gsys.system
        space = gsys.space
        env = ScriptEnv(sys)
        prior: dict[str, LeadsTo] = {}
        q = random_subset(rng, space)
        k = frozenset(rng.sample(sys.labels, rng.randint(1, len(sys.labels))))
        base = ensures_closure(gsys, k, q, space.universe())
        env.ensures["base"] = base
        wide = base.q | random_subset(rng, space)
        env.ensures["wk"] = trivial_ensures(sys, "wk", base.q, wide)
        steps = [
            ProofStep("b0", "brl", ("base",)),
            ProofStep("b1", "brl", ("wk",)),
            ProofStep("t", "tra", ("b0", "b1")),
            ProofStep("d", "dsj", ("b0", "b0")),
        ]
        stable = ensures_closure(gsys, k, wide, space.universe())
        unl = Unless(stable.p, wide, "u")
        if check_unless(sys, unl).passed:
            env.unless["u"] = unl
            steps.append(ProofStep("p", "psp", ("t", "u")))
        can_concl = LeadsTo(base.p, (wide - base.q) | wide, "c")
        steps.append(ProofStep("c", "can", ("t", "b1"), can_concl))
        member = StateSet(space, base.p.mask & rng.getrandbits(space.size))
        steps.append(ProofStep("m", "thlto", ("b0",), LeadsTo(member, base.q, "m")))
        proper = 1 < len(k) < len(sys.labels)
        try:
            apply_rule(env, steps[0])
        except RuleError:
            rejected += 1
            misjudged += not proper
            continue
        misjudged += proper
        for step in steps:
            concl = apply_rule(env, step, prior)
            prior[step.name] = concl
            if not semantic_leadsto(sys, concl.lhs, concl.rhs).holds:
                violations += 1
            accepted += 1

    # the shipped derivation: thirteen leads-to steps transcribing the
    # refinement-liveness proof table, checked on the flag refinement
    text = Path(CTR).read_text()
    parsed = parse_document(text)
    assert parsed.ok
    model = elaborate(parsed.document)
    script = model.scripts["main"]
    owner = model.refinements["ctr2"].concrete
    goal = model.properties["P2"].value
    script_ok = check_script(script.env, script.script, goal).passed
    script_ok &= len(script.script.steps) == 13
    prior = {}
    for step in script.script.steps:
        prior[step.name] = concl = apply_rule(script.env, step, prior)
        if not semantic_leadsto(owner.system, concl.lhs, concl.rhs).holds:
            violations += 1
    _report(
        8,
        violations == 0 and accepted >= 200 and rejected > 0 and misjudged == 0 and script_ok,
        f"{accepted} accepted rule steps all semantically sound; {rejected} brl steps on a"
        f" proper multi-event group rejected ({misjudged} misjudged); transcribed "
        f"13-step derivation {'passes' if script_ok else 'fails'}",
    )


def test_criterion_09_oracle_selfcheck():
    rng = random.Random(108)
    disagreements = 0
    checked = 0
    # exhaustive family: every guarded event shape over two states
    space = StateSpace("u", 2)
    events = []
    from itertools import product as iproduct

    for gmask in range(4):
        guard_states = [s for s in range(2) if gmask >> s & 1]
        choices = [[(s, ts) for ts in (1, 2, 3)] for s in guard_states]
        for combo in iproduct(*choices) if guard_states else [()]:
            pairs = [(s, t) for s, tmask in combo for t in range(2) if tmask >> t & 1]
            events.append((StateSet(space, gmask), StateRelation(space, space, pairs)))
    for g1, r1 in events:
        for g2, r2 in events:
            system = EventSystem(space, {"a": Guard(g1, Prim(r1)), "b": Guard(g2, Prim(r2))})
            gsys = GenSystem(system, {"a": g1, "b": g2}, {"a": r1, "b": r2})
            for pmask, qmask in ((3, 2), (1, 2), (2, 1)):
                p, q = StateSet(space, pmask), StateSet(space, qmask)
                holds = semantic_leadsto(system, p, q).holds
                if holds != (not fair_avoidance_exists(gsys, p, q)):
                    disagreements += 1
                checked += 1
    # randomized family up to five states and three events
    for _ in range(400):
        gsys = random_system(rng, rng.randint(3, 5), rng.randint(1, 3))
        p, q = random_subset(rng, gsys.space), random_subset(rng, gsys.space)
        holds = semantic_leadsto(gsys.system, p, q).holds
        if holds != (not fair_avoidance_exists(gsys, p, q)):
            disagreements += 1
        checked += 1
    _report(
        9,
        disagreements == 0,
        f"oracle vs exhaustive avoidance enumeration on {checked} instances, "
        f"{disagreements} disagreements",
    )


def test_criterion_10_cli_end_to_end(capsys):
    outcomes = []
    for args in (
        ["check", CTR, "--format", "json"],
        ["refine", CTR, "--pair", "ctr2", "--format", "json"],
        ["prove", CTR, "--script", "main", "--format", "json"],
        ["oracle", CTR, "--property", "P2", "--format", "json"],
    ):
        code = run_cli(args)
        out = capsys.readouterr().out
        data = json.loads(out)
        outcomes.append(code == 0 and validate_report(data) == [])
    leak_code = run_cli(["check", LEAK, "--format", "json"])
    leak_out = capsys.readouterr().out
    leak_data = json.loads(leak_out)
    wf0 = next(o for o in leak_data["obligations"] if o["id"] == "WF0:P1")
    leak_ok = (
        leak_code == 1
        and validate_report(leak_data) == []
        and wf0["witnesses"][0]["state"] == "x=2"
    )
    ok = all(outcomes) and leak_ok
    with capsys.disabled():
        _report(
            10,
            ok,
            "check/refine/prove/oracle exit 0 with schema-valid JSON; leak "
            "variant exits 1 with witness x=2",
        )
