from __future__ import annotations

import gc
import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from faircheck import (
    EventSystem,
    Guard,
    LeadsTo,
    OracleResult,
    Prim,
    Seq,
    Skip,
    SpaceMismatchError,
    StateRelation,
    StateSet,
    StateSpace,
    commands,
    semantic_leadsto,
)
from faircheck.elaborator import elaborate
from faircheck.parser import parse_document
import helpers
from helpers import (
    GenSystem,
    ast_system,
    bounded_fair_lasso_exists,
    check_deadlock_path,
    check_lasso,
    fair_avoidance_exists,
    random_relation,
    random_subset,
    random_system,
)

ROOT = Path(__file__).parent.parent


def test_oracle_fixture_holds(ctr):
    result = semantic_leadsto(ctr.system, ctr.p, ctr.q)
    assert result.holds and result.lasso is None and result.deadlock_path is None


def test_oracle_trivial_when_p_below_q(ctr):
    assert semantic_leadsto(ctr.system, ctr.q, ctr.q).holds
    assert semantic_leadsto(ctr.system, ctr.space.empty(), ctr.q).holds


@pytest.mark.parametrize("operand", ["p", "q"])
def test_oracle_names_the_mismatched_operand_space(ctr, operand):
    other = StateSpace("w", 3)
    sets = {"p": ctr.p, "q": ctr.q, operand: other.universe()}
    with pytest.raises(SpaceMismatchError) as err:
        semantic_leadsto(ctr.system, sets["p"], sets["q"])
    assert err.value.left == other and err.value.right == ctr.space
    message = "cannot operate on sets over distinct spaces 'w' (size 3) and 'u' (size 4)"
    assert str(err.value) == message


def test_oracle_without_helpful_event_finds_lasso(ctr):
    system = EventSystem(ctr.space, {"inc": ctr.inc})
    result = semantic_leadsto(system, ctr.p, ctr.q)
    assert not result.holds
    lasso = result.lasso
    assert lasso is not None
    assert set(lasso.cycle) == {1, 2}
    assert dict((l, k) for l, k, _ in lasso.justifications) == {"inc": "taken"}
    check_lasso(lasso, system, ctr.p, ctr.q)


def test_oracle_lasso_records_disabled_events(ctr):
    # a helper enabled only at state 1 is disabled infinitely often on the
    # 1-2 cycle, so weak fairness never forces it: avoidance is fair, and
    # the lasso must carry the disabled witness inside its cycle
    space = ctr.space
    done1 = Guard(space.subset([1]), Prim(StateRelation(space, space, [(1, 3)])))
    system = EventSystem(space, {"inc": ctr.inc, "done1": done1})
    result = semantic_leadsto(system, ctr.p, ctr.q)
    assert not result.holds
    lasso = result.lasso
    assert lasso is not None
    just = dict((l, (k, w)) for l, k, w in lasso.justifications)
    assert just["done1"][0] == "disabled"
    assert just["done1"][1] == 2 and 2 in lasso.cycle
    assert just["inc"][0] == "taken"
    check_lasso(lasso, system, ctr.p, ctr.q)


def test_oracle_reports_reachable_deadlock(ctr_leaky):
    # leak sends 2 to 0 where nothing is enabled: a run can stop short of q
    result = semantic_leadsto(ctr_leaky.system, ctr_leaky.p, ctr_leaky.q)
    assert not result.holds
    assert result.deadlock_path is not None
    assert result.deadlock_path[-1] == 0
    assert result.deadlock_path[0] in (1, 2)


def test_oracle_self_loop_component():
    space = StateSpace("u", 2)
    stay = Guard(space.subset([0]), Prim(StateRelation(space, space, [(0, 0)])))
    system = EventSystem(space, {"stay": stay})
    result = semantic_leadsto(system, space.subset([0]), space.subset([1]))
    assert not result.holds
    assert result.lasso is not None and result.lasso.cycle == (0,)
    check_lasso(result.lasso, system, space.subset([0]), space.subset([1]))


def test_oracle_fairness_forces_exit_through_target():
    # the exit event is continuously enabled on the spin cycle and all its
    # transitions land in q, so weak fairness forces reaching q
    space = StateSpace("u", 3)
    spin = Guard(space.subset([0, 1]), Prim(StateRelation(space, space, [(0, 1), (1, 0)])))
    exit_ = Guard(space.subset([0, 1]), Prim(StateRelation(space, space, [(0, 2), (1, 2)])))
    system = EventSystem(space, {"spin": spin, "exit": exit_})
    assert semantic_leadsto(system, space.subset([0, 1]), space.subset([2])).holds
    # weaken the exit guard to a single cycle state and fairness no longer
    # forces it: the run can dodge it at the other state
    exit0 = Guard(space.subset([0]), Prim(StateRelation(space, space, [(0, 2)])))
    system2 = EventSystem(space, {"spin": spin, "exit": exit0})
    result = semantic_leadsto(system2, space.subset([0, 1]), space.subset([2]))
    assert not result.holds
    check_lasso(result.lasso, system2, space.subset([0, 1]), space.subset([2]))


def test_tarjan_matches_bruteforce_sccs():
    from faircheck.unity import _tarjan_sccs

    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 7)
        nodes = list(range(n))
        adj = {
            x: sorted({rng.randrange(n) for _ in range(rng.randint(0, 3))}) for x in nodes
        }

        def reach(x: int) -> set[int]:
            seen, stack = {x}, [x]
            while stack:
                y = stack.pop()
                for t in adj[y]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            return seen

        reachable = {x: reach(x) for x in nodes}
        expected = {
            frozenset(y for y in nodes if x in reachable[y] and y in reachable[x])
            for x in nodes
        }
        got = {frozenset(c) for c in _tarjan_sccs(nodes, adj)}
        assert got == expected


def test_oracle_is_deterministic(ctr):
    system = EventSystem(ctr.space, {"inc": ctr.inc})
    first = semantic_leadsto(system, ctr.p, ctr.q)
    second = semantic_leadsto(system, ctr.p, ctr.q)
    assert first.lasso == second.lasso


def _all_tiny_events(space: StateSpace):
    """Every guarded event over a 2-state space: guard plus a relation that
    gives each guard state at least one successor."""
    out = []
    for gmask in range(4):
        guard_states = [s for s in range(2) if gmask >> s & 1]
        choices = []
        for s in guard_states:
            choices.append([(s, ts) for ts in (1, 2, 3)])  # successor bitmasks
        for combo in product(*choices) if guard_states else [()]:
            pairs = [
                (s, t) for s, tmask in combo for t in range(2) if tmask >> t & 1
            ]
            out.append((StateSet(space, gmask), StateRelation(space, space, pairs)))
    return out


def test_oracle_agrees_with_subset_enumeration_exhaustive_two_states():
    space = StateSpace("u", 2)
    events = _all_tiny_events(space)
    checked = deadlocks = 0
    for (g1, r1) in events:
        for (g2, r2) in events:
            system = EventSystem(
                space, {"a": Guard(g1, Prim(r1)), "b": Guard(g2, Prim(r2))}
            )
            gsys = GenSystem(system, {"a": g1, "b": g2}, {"a": r1, "b": r2})
            for pmask, qmask in ((3, 2), (1, 2), (2, 1), (3, 1)):
                p, q = StateSet(space, pmask), StateSet(space, qmask)
                expected = not fair_avoidance_exists(gsys, p, q)
                got = semantic_leadsto(system, p, q)
                assert got.holds == expected, (g1, r1, g2, r2, pmask, qmask)
                if got.lasso is not None:
                    check_lasso(got.lasso, system, p, q)
                if got.deadlock_path is not None:
                    check_deadlock_path(gsys, p, q, got.deadlock_path)
                    deadlocks += 1
                checked += 1
    assert checked == 1024 and deadlocks > 0


def _verdict_kind(result: OracleResult) -> str:
    if result.holds:
        return "pass"
    return "lasso" if result.lasso is not None else "deadlock"


def _check_against_reference(gsys: GenSystem, p: StateSet, q: StateSet) -> OracleResult:
    result = semantic_leadsto(gsys.system, p, q)
    assert result.holds == (not fair_avoidance_exists(gsys, p, q))
    if result.lasso is not None:
        check_lasso(result.lasso, gsys.system, p, q)
    if result.deadlock_path is not None:
        check_deadlock_path(gsys, p, q, result.deadlock_path)
    return result


def test_oracle_agrees_with_subset_enumeration_random():
    rng = random.Random(0)
    kinds = set()
    for _ in range(250):
        gsys = random_system(rng, rng.randint(3, 5), rng.randint(1, 3))
        p, q = random_subset(rng, gsys.space), random_subset(rng, gsys.space)
        kinds.add(_verdict_kind(_check_against_reference(gsys, p, q)))
    assert kinds == {"pass", "lasso", "deadlock"}


def test_oracle_on_ast_events_agrees_with_subset_enumeration():
    # events that are not Guard(g, Prim(rel)) go through the transformers;
    # the reference reads relations derived from structural_wp instead
    rng = random.Random(4)
    kinds = set()
    for _ in range(200):
        gsys = ast_system(rng, rng.randint(2, 5), rng.randint(1, 3))
        p, q = random_subset(rng, gsys.space), random_subset(rng, gsys.space)
        kinds.add(_verdict_kind(_check_against_reference(gsys, p, q)))
    assert kinds == {"pass", "lasso", "deadlock"}


def test_oracle_agrees_with_bounded_walk_search_tiny():
    rng = random.Random(1)
    for _ in range(120):
        gsys = random_system(rng, rng.randint(2, 4), rng.randint(1, 2))
        p, q = random_subset(rng, gsys.space), random_subset(rng, gsys.space)
        result = semantic_leadsto(gsys.system, p, q)
        found = bounded_fair_lasso_exists(gsys, p, q, bound=8)
        if found:
            assert not result.holds
        if result.holds:
            assert not found


# ---------------------------------------------------------------------------
# Elaborated events are read directly, other events through the transformers
# ---------------------------------------------------------------------------


def _via_transformers(system: EventSystem) -> EventSystem:
    """The same events as `skip ; e`, which denotes the same transformer
    but is not of the elaborated form, so the oracle extracts it."""
    skip = Skip(system.space)
    return EventSystem(system.space, {l: Seq(skip, c) for l, c in system.events.items()})


def _forbid_transformers(monkeypatch: pytest.MonkeyPatch) -> None:
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle used the transformer pipeline")

    monkeypatch.setattr("faircheck.unity.transition_relation", forbidden)
    monkeypatch.setattr("faircheck.unity.grd_of", forbidden)
    monkeypatch.setattr("faircheck.commands.str_apply", forbidden)


def _ring_text(n: int, variant: str) -> str:
    """States 0..n-1 are live and n is the target; the lasso variant
    disables done below 3, the deadlock variant leaks 1 into the dead
    state n + 1."""
    top = n + 1 if variant == "deadlock" else n
    lines = [
        "system ring",
        f"  var x : 0..{top}",
        f"  event inc when x < {n - 1} then x := x + 1 end",
        f"  event back when x > 0 and x < {n} then x := x - 1 end",
        f"  event done when x >= {3 if variant == 'lasso' else 0} and x < {n} "
        f"then x := {n} end",
    ]
    if variant == "deadlock":
        lines.append(f"  event leak when x = 1 then x := {n + 1} end")
    lines += ["end", f"property L leadsto from x < {n} to x = {n}"]
    return "\n".join(lines) + "\n"


def _leadsto_cases(text: str) -> list[tuple[EventSystem, StateSet, StateSet]]:
    model = elaborate(parse_document(text).document)
    return [
        (prop.owner.system, prop.value.lhs, prop.value.rhs)
        for prop in model.properties.values()
        if isinstance(prop.value, LeadsTo)
    ]


@pytest.mark.parametrize(
    "source, kind",
    [
        ("ctr.fb", "pass"),
        ("pass", "pass"),
        ("lasso", "lasso"),
        ("deadlock", "deadlock"),
    ],
)
def test_oracle_reads_elaborated_events_without_transformers(monkeypatch, source, kind):
    if source.endswith(".fb"):
        cases = _leadsto_cases((ROOT / "models" / source).read_text())
    else:
        cases = _leadsto_cases(_ring_text(40, source))
    expected = [semantic_leadsto(_via_transformers(s), p, q) for s, p, q in cases]
    _forbid_transformers(monkeypatch)
    got = [semantic_leadsto(s, p, q) for s, p, q in cases]
    assert got == expected
    assert {_verdict_kind(r) for r in got} == {kind}


def test_oracle_reads_a_2000_state_ring_without_transformers(monkeypatch):
    ((system, p, q),) = _leadsto_cases(_ring_text(2000, "pass"))
    _forbid_transformers(monkeypatch)
    assert semantic_leadsto(system, p, q) == OracleResult(True)


def test_lasso_validation_costs_one_str_call_per_event_and_edge(monkeypatch):
    # avoiding x >= 3 from x = 0, the lasso is short in a 2002-state space
    ((system, _, _),) = _leadsto_cases(_ring_text(2001, "lasso"))
    p, q = system.space.singleton(0), system.space.subset(range(3, system.space.size))
    lasso = semantic_leadsto(system, p, q).lasso
    assert len(lasso.stem) + len(lasso.cycle) <= 3
    real = commands.str_apply
    calls = []

    def counted(c, r):
        calls.append(r)
        return real(c, r)

    monkeypatch.setattr("faircheck.commands.str_apply", counted)
    monkeypatch.setattr(helpers, "str_apply", counted)
    check_lasso(lasso, system, p, q)
    events = len(system.labels)
    bound = (len(lasso.stem) + len(lasso.cycle) + 1) * events + len(lasso.justifications)
    assert calls, "check_lasso made no counted str call"
    assert len(calls) <= bound, (len(calls), bound)


def _guard_wider_than_domain(rng: random.Random, size: int, n_events: int) -> GenSystem:
    """Guard(g, Prim(rel)) events whose guard holds at states without
    successors, where the event is nevertheless disabled."""
    space = StateSpace("u", size)
    guards = {f"e{i}": random_subset(rng, space) for i in range(n_events)}
    rels = {label: random_relation(rng, space, density=0.3) for label in guards}
    events = {label: Guard(guards[label], Prim(rels[label])) for label in guards}
    return GenSystem(EventSystem(space, events), guards, rels)


@pytest.mark.parametrize("make", [random_system, _guard_wider_than_domain])
def test_oracle_direct_reading_matches_transformer_extraction_random(make):
    # same verdict and byte-identical witnesses through either event form
    rng = random.Random(6)
    kinds = set()
    for _ in range(200):
        gsys = make(rng, rng.randint(2, 6), rng.randint(1, 3))
        p, q = random_subset(rng, gsys.space), random_subset(rng, gsys.space)
        direct = _check_against_reference(gsys, p, q)
        assert direct == semantic_leadsto(_via_transformers(gsys.system), p, q)
        kinds.add(_verdict_kind(direct))
    assert kinds == {"pass", "lasso", "deadlock"}


# ---------------------------------------------------------------------------
# Many components, and the oracle's memory
# ---------------------------------------------------------------------------


def _components_text(m: int, inc_guard: str) -> str:
    """m two-state components x = 0..m-1, each closed by flip and joined by
    inc; a component is fair only where inc is disabled somewhere in it.
    flip comes first, so an unfair component has justified it before inc
    fails the test."""
    return (
        f"system s\n var x : 0..{m}\n var b : 0..1\n"
        f" event flip when x < {m} then b := 1 - b end\n"
        f" event inc when {inc_guard} then x := x + 1 end\nend\n"
        f"property L leadsto from x < {m} to x = {m}\n"
    )


@pytest.mark.parametrize(
    "inc_guard, fair",
    [
        ("x < {m}", None),
        # the last component, which the SCC search tests first
        ("x < {m} - 1", -1),
        # the first component, tested after every unfair one
        ("x < {m} and (x > 0 or b = 1)", 0),
    ],
    ids=["all-unfair", "last-fair", "first-fair"],
)
def test_oracle_on_many_components_agrees_with_subset_enumeration(inc_guard, fair):
    for m in range(1, 7):
        ((system, p, q),) = _leadsto_cases(_components_text(m, inc_guard.format(m=m)))
        guards = {label: e.guard for label, e in system.events.items()}
        rels = {label: e.body.rel for label, e in system.events.items()}
        result = _check_against_reference(GenSystem(system, guards, rels), p, q)
        if fair is None:
            assert result.holds, m
        else:
            x = fair % m  # state 2x + b is (x, b)
            assert sorted(result.lasso.cycle) == [2 * x, 2 * x + 1], (m, result)


def test_oracle_keeps_one_graph_and_no_per_state_tables():
    # one successor list per reached state plus the SCC search's own tables
    # peak near 650 bytes per state; a table per state of its enabled events
    # and of each one's successors would double that
    ((system, p, q),) = _leadsto_cases(_ring_text(20001, "pass"))
    gc.collect()
    tracemalloc.start()
    try:
        assert semantic_leadsto(system, p, q).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 950 * 20001, peak
