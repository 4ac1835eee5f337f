from __future__ import annotations

import dataclasses
import gc
import math
import random
import tracemalloc
from pathlib import Path

import pytest

from faircheck import check_ensures, check_unless, grd_of, semantic_leadsto
from faircheck.elaborator import ElaborationError, elaborate, eval_expr, eval_pred
from faircheck.parser import EVar, Expr, Pred, parse_document
from helpers import load_calibrate, load_workloads

CTR_SOURCE = (Path(__file__).parent.parent / "models" / "ctr.fb").read_text()


def _elab(source: str, max_states: int = 1 << 20):
    result = parse_document(source)
    assert result.ok, result.diagnostics
    return elaborate(result.document, max_states=max_states)


def test_ctr_elaboration_sizes_and_sets():
    model = _elab(CTR_SOURCE)
    ctr = model.systems["ctr"]
    assert ctr.space.size == 4
    assert ctr.valuations == ((0,), (1,), (2,), (3,))
    assert [ctr.label(i) for i in range(4)] == ["x=0", "x=1", "x=2", "x=3"]
    p1 = model.properties["P1"].value
    assert p1.p.members() == (1, 2)
    assert p1.q.members() == (3,)
    assert model.state_count == 12  # 4 abstract + 8 concrete states


def test_ctr_events_have_expected_guards():
    model = _elab(CTR_SOURCE)
    ctr = model.systems["ctr"]
    assert grd_of(ctr.system.events["inc"]).members() == (1, 2)
    assert grd_of(ctr.system.events["done"]).members() == (1, 2)


def test_ctr_properties_check_out():
    model = _elab(CTR_SOURCE)
    ctr = model.systems["ctr"]
    assert check_ensures(ctr.system, model.properties["P1"].value).passed
    ctr2 = model.refinements["ctr2"].concrete
    assert check_unless(ctr2.system, model.properties["U29"].value).passed
    p2 = model.properties["P2"].value
    assert semantic_leadsto(ctr2.system, p2.lhs, p2.rhs).holds


def test_labels_render_states():
    # the invariant drops v=1,u=0 and v=1,u=1, so state 2 holds the fifth
    # valuation of the box; labels and bindings follow declaration order
    grid = _elab(
        "system g\n var v : 0..2\n var u : 0..1\n invariant v /= 1\n"
        " event e when true then u := u end\nend\n"
    ).systems["g"]
    assert grid.valuations == ((0, 0), (0, 1), (2, 0), (2, 1))
    assert [grid.label(i) for i in range(4)] == ["v=0,u=0", "v=0,u=1", "v=2,u=0", "v=2,u=1"]
    assert list(grid.binding(2).items()) == [("v", 2), ("u", 0)]


def test_elaborated_model_keeps_one_value_tuple_per_state():
    # a per-state dict and label string kept about 290 bytes per state of
    # Ring(4001); its value tuple, the guard masks and the relations keep
    # about 90
    doc = parse_document(load_calibrate().ring_text(4001)).document
    gc.collect()
    tracemalloc.start()
    try:
        model = elaborate(doc)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert model.state_count == 4002
    assert retained <= 150 * model.state_count, retained / model.state_count


def test_refinement_elaboration_gluing():
    model = _elab(CTR_SOURCE)
    refinement = model.refinements["ctr2"]
    assert refinement.abstract_name == "ctr"
    v = refinement.concrete.space
    assert v.size == 8
    pair = refinement.pair
    assert pair.gluing.is_total()
    # every concrete state glues to the abstract state with the same y
    for y_index in range(v.size):
        glued = pair.gluing.successors(y_index)
        assert len(glued) == 1
        abstract_val = model.systems["ctr"].binding(glued[0])
        assert abstract_val["x"] == refinement.concrete.binding(y_index)["y"]


def test_glued_membership_matches_predicate_reading():
    # y in r^-1[p & ~q] iff some abstract x satisfies P, not Q, the
    # invariant, and the gluing predicate jointly with y
    model = _elab(CTR_SOURCE)
    refinement = model.refinements["ctr2"]
    ctr = model.systems["ctr"]
    p1 = model.properties["P1"].value
    active = p1.p & p1.q.complement()
    glued_active = refinement.pair.concrete_of(active)
    doc = parse_document(CTR_SOURCE).document
    rdecl = next(r for r in doc.refinements if r.name == "ctr2")
    pdecl = next(p for p in doc.properties if p.name == "P1")
    for y_index in range(refinement.concrete.space.size):
        yval = refinement.concrete.binding(y_index)
        exists = any(
            eval_pred(pdecl.frm, xval)
            and not eval_pred(pdecl.to, xval)
            and all(eval_pred(g, {**xval, **yval}) for g in rdecl.conditions)
            for xval in map(ctr.binding, range(ctr.space.size))
        )
        assert exists == (y_index in glued_active)


def test_invariant_restricts_the_space():
    model = _elab(
        "system s\n var x : 0..9\n invariant x < 5\n"
        " event bump when x < 4 then x := x + 1 end\nend\n"
    )
    assert model.systems["s"].space.size == 5


def test_invariant_violation_is_reported_with_transition():
    source = (
        "system s\n var x : 0..9\n invariant x < 5\n"
        " event bump when x < 9 then x := x + 1 end\nend\n"
    )
    with pytest.raises(ElaborationError) as err:
        _elab(source)
    assert "x=4" in str(err.value) and "x=5" in str(err.value)


def test_range_escape_is_an_invariant_violation():
    source = "system s\n var x : 0..3\n event up when true then x := x + 1 end\nend\n"
    with pytest.raises(ElaborationError) as err:
        _elab(source)
    assert "x=3" in str(err.value)


def test_unsatisfiable_invariant():
    source = "system s\n var x : 0..3\n invariant x > 9\n event e when true then x := 0 end\nend\n"
    with pytest.raises(ElaborationError) as err:
        _elab(source)
    assert "unsatisfiable" in str(err.value)


def test_state_explosion_bound():
    source = "system s\n var x : 0..99\n var y : 0..99\n event e when true then x := x end\nend\n"
    with pytest.raises(ElaborationError) as err:
        _elab(source, max_states=1000)
    assert "bound" in str(err.value)


def test_concrete_event_leaving_glued_space():
    source = (
        "system a\n var x : 0..1\n event e when x = 0 then x := 1 end\nend\n"
        "refinement b refines a\n var y : 0..3\n gluing y = x\n"
        " event e2 refines e when y = 0 then y := 2 end\nend\n"
    )
    # y=2 glues to no abstract state (x ranges over 0..1)
    with pytest.raises(ElaborationError) as err:
        _elab(source)
    assert "gluing not total" in str(err.value)


def test_unknown_variable_and_duplicate_event():
    with pytest.raises(ElaborationError) as err:
        _elab("system s\n var x : 0..1\n event e when z = 0 then x := 0 end\nend\n")
    assert "s.e" in str(err.value) and "'z'" in str(err.value)
    with pytest.raises(ElaborationError):
        _elab(
            "system s\n var x : 0..1\n event e when true then x := 0 end\n"
            " event e when true then x := 1 end\nend\n"
        )


def test_duplicate_proof_step_is_an_elaboration_error():
    with pytest.raises(ElaborationError) as err:
        _elab(
            "system s\n var x : 0..1\n event e when x = 0 then x := 1 end\nend\n"
            "property L leadsto from x = 0 to x = 1\n"
            "proof main goal L\n step a brl from x = 1 to x = 1\n"
            " step a brl from x = 1 to x = 1\nend\n"
        )
    assert str(err.value) == "main: duplicate step name 'a'"


def test_any_binder_cannot_shadow_state_variable():
    source = (
        "system s\n var x : 0..2\n var y : 0..2\n"
        " event e when x = 0 then any x : 0..2 where x > 0 then y := x end end\n"
        "end\n"
    )
    with pytest.raises(ElaborationError) as err:
        _elab(source)
    assert "shadows" in str(err.value)


def test_nondeterministic_updates_elaborate():
    model = _elab(
        "system s\n var x : 0..4\n"
        " event pick when x = 0 then x :: {1, 2} end\n"
        " event anyup when x > 0 and x < 4 then any z : 0..4 where z > x then x := z end end\n"
        "end\n"
    )
    from faircheck import transition_relation

    pick = model.systems["s"].system.events["pick"]
    assert transition_relation(pick).pairs == frozenset({(0, 1), (0, 2)})
    anyup = model.systems["s"].system.events["anyup"]
    pairs = transition_relation(anyup).pairs
    assert (1, 2) in pairs and (1, 4) in pairs and (3, 4) in pairs
    assert all(t > s for s, t in pairs)


def test_any_update_with_empty_witness_set_is_a_miracle():
    model = _elab(
        "system s\n var x : 0..2\n"
        " event stuck when x = 2 then any z : 0..2 where z > x then x := z end end\n"
        " event idle when true then x := x end\n"
        "end\n"
    )
    stuck = model.systems["s"].system.events["stuck"]
    assert grd_of(stuck).is_empty()


def test_scripts_elaborate_with_generated_weakenings():
    model = _elab(CTR_SOURCE)
    script = model.scripts["main"]
    assert script.goal.name == "P2"
    assert script.owner is model.refinements["ctr2"].concrete
    env = script.env
    assert env.system is model.refinements["ctr2"].concrete.system
    # the owner's ensures and unless properties, not the abstract system's,
    # and one trivial ensures property per inline brl step
    assert list(env.ensures) == [
        "E_stutter", "E_help", "main:s5", "main:s8w", "main:s11", "main:s14"
    ]
    assert env.ensures["E_help"] == model.properties["E_help"].value
    assert env.ensures["main:s5"].helpful == frozenset(env.system.labels)
    assert list(env.unless) == ["U29"]
    assert script.script.steps[1].refs == ("main:s5",)


def test_each_declaration_is_one_value_with_its_owner():
    # a script's goal and premises are the very values the properties hold
    model = _elab(CTR_SOURCE)
    props, script = model.properties, model.scripts["main"]
    assert script.env.ensures["E_help"] is props["E_help"].value
    assert script.env.unless["U29"] is props["U29"].value
    assert script.goal is props["P2"].value
    assert props["P1"].owner is model.systems["ctr"]
    assert props["U29"].owner is model.refinements["ctr2"].concrete


def _chain(rng: random.Random, terms: int, ops: tuple[str, ...], operand) -> str:
    parts = [operand()]
    for _ in range(terms - 1):
        parts += [rng.choice(ops), operand()]
    return " ".join(parts)


def test_mixed_operator_chains_evaluate_as_python_does():
    # a chain mixes operators of two precedence levels, so its tree's left
    # spine holds both; Python evaluates the same text as the reference
    rng = random.Random(8)
    env = {"x": 3, "y": -2}

    def arith(terms: int) -> str:
        return _chain(rng, terms, ("+", "-", "*"), lambda: rng.choice(["x", "y", "1", "2", "5"]))

    def comparison() -> str:
        return f"{rng.choice(['', 'not '])}{arith(3)} {rng.choice(['<', '>=', '/='])} 2"

    for _ in range(40):
        expr, pred = arith(60), _chain(rng, 60, ("and", "or"), comparison)
        source = (
            f"system s\n var x : 0..3\n var y : -2..0\n"
            f" event e when {pred} then x := {expr} end\nend\n"
        )
        result = parse_document(source)
        assert result.ok, result.diagnostics
        event = result.document.systems[0].events[0]
        assert eval_expr(event.updates[0].value, env) == eval(expr, {}, dict(env))
        assert eval_pred(event.guard, env) == eval(pred.replace("/=", "!="), {}, dict(env))


# ---------------------------------------------------------------------------
# Predicate sets: one evaluation per valuation of the names read
# ---------------------------------------------------------------------------

CMPS = ("=", "/=", "<", "<=", ">", ">=")


def _operand(rng: random.Random, names: list[str]) -> str:
    if names and rng.random() < 0.7:
        return rng.choice(("", "-")) + rng.choice(names)
    return str(rng.randint(-3, 3))


def _atom(rng: random.Random, names: list[str]) -> str:
    form = rng.randrange(4)
    if form == 0:
        return rng.choice(("true", "false", f"{rng.randint(-2, 2)} < {rng.randint(-2, 2)}"))
    if form == 1 and len(names) >= 2:  # two variables compared
        a, b = rng.sample(names, 2)
        return f"{a} {rng.choice(CMPS)} {b}"
    arith = _chain(rng, rng.randint(1, 4), ("+", "-", "*"), lambda: _operand(rng, names))
    return f"{arith} {rng.choice(CMPS)} {_operand(rng, names)}"


def _pred(rng: random.Random, names: list[str], depth: int = 2) -> str:
    """A predicate that reads only names: constants, comparisons,
    arithmetic, not, => and long and/or chains."""
    form = rng.randrange(4) if depth else 0
    if form == 0:
        return _atom(rng, names)
    if form == 1:
        return f"not ({_pred(rng, names, depth - 1)})"
    if form == 2:
        return f"({_pred(rng, names, depth - 1)}) => ({_pred(rng, names, depth - 1)})"
    return _chain(rng, rng.randint(2, 8), ("and", "or"), lambda: (
        _atom(rng, names) if rng.random() < 0.7 else f"({_pred(rng, names, depth - 1)})"
    ))


def _pick(rng: random.Random, names: list[str]) -> list[str]:
    """0-3 of the names, for a predicate to read."""
    return rng.sample(names, rng.randint(0, min(3, len(names))))


def _differential_model(rng: random.Random) -> str:
    """A system carved by an invariant and a refinement carved by a gluing,
    each with 1-5 variables (some with a negative lower bound), identity
    events whose guards read 0-3 of them, and properties over them."""

    def block(prefix: str) -> tuple[list[str], list[str], str]:
        """The names, their declarations, and a predicate that holds on
        some state: the first variable at its lower bound."""
        names, lines = [], []
        for k in range(rng.randint(1, 5)):
            lo = rng.randint(-2, 1)
            names.append(f"{prefix}{k}")
            lines.append(f"  var {prefix}{k} : {lo}..{lo + rng.randint(1, 2)}")
        return names, lines, f"{names[0]} = {lines[0].split()[3].split('..')[0]}"

    def events(names: list[str], refines: list[str]) -> list[str]:
        return [
            f"  event {names[0]}e{k}{f' refines {r}' if r else ''} when "
            f"{_pred(rng, _pick(rng, names))} then {names[0]} := {names[0]} end"
            for k, r in enumerate(refines)
        ]

    def properties(owner: str, names: list[str], event: str) -> list[str]:
        kinds = ("ensures helpful {" + event + "}", "leadsto", "unless")
        return [
            f"property {owner}P{k} {kind} from {_pred(rng, _pick(rng, names))} "
            f"to {_pred(rng, _pick(rng, names))}"
            for k, kind in enumerate(kinds)
        ]

    a, a_lines, a_kept = block("a")
    c, c_lines, c_kept = block("c")
    carve = _atom(rng, rng.sample(a, min(2, len(a))))
    glue = _atom(rng, [rng.choice(a), rng.choice(c)])
    text = [
        "system s", *a_lines, f"  invariant {carve} or {a_kept}", *events(a, ["", ""]), "end",
        *properties("s", a, "a0e0"),
        "refinement r refines s", *c_lines, f"  gluing {glue} or {c_kept}",
        *events(c, ["a0e0", "a0e1", "skip"]), "end",
        *properties("r", c, "c0e2"),
    ]
    return "\n".join(text) + "\n"


def _names(node) -> set[str]:
    """The variable names a predicate or expression tree reads."""
    if isinstance(node, EVar):
        return {node.name}
    if isinstance(node, tuple):
        return set().union(*map(_names, node))
    if isinstance(node, (Pred, Expr)):
        return set().union(*(_names(getattr(node, f.name)) for f in dataclasses.fields(node)))
    return set()


def test_predicate_sets_match_a_per_state_reference(monkeypatch):
    # every guard and property set equals eval_pred over each state's
    # binding; a predicate is evaluated once per valuation of the names it
    # reads when those are fewer than the states, else once per state
    from faircheck import elaborator

    rng = random.Random(27)
    calls: dict[int, int] = {}

    def counted(p, env):
        calls[id(p)] = calls.get(id(p), 0) + 1
        return eval_pred(p, env)

    monkeypatch.setattr(elaborator, "eval_pred", counted)
    paths = {"table": 0, "per-state": 0}
    carved = 0
    for _ in range(60):
        text = _differential_model(rng)
        doc = parse_document(text).document
        calls.clear()
        model = elaborate(doc)
        owners = {"s": model.systems["s"], "r": model.refinements["r"].concrete}
        cases = [
            (owners[d.name], e.guard, owners[d.name].system.events[e.name].guard)
            for d in (*doc.systems, *doc.refinements) for e in d.events
        ]
        for pdecl in doc.properties:
            value = model.properties[pdecl.name].value
            sets = (value.p, value.q) if pdecl.kind == "ensures" else (value.lhs, value.rhs)
            owner = owners[pdecl.source]
            cases += [(owner, pdecl.frm, sets[0]), (owner, pdecl.to, sets[1])]
        for owner in owners.values():
            carved += owner.space.size < math.prod(v.hi - v.lo + 1 for v in owner.variables)
        for owner, pred, got in cases:
            n = owner.space.size
            expected = tuple(i for i in range(n) if eval_pred(pred, owner.binding(i)))
            assert got.members() == expected, text
            width = {v.name: v.hi - v.lo + 1 for v in owner.variables}
            valuations = math.prod(width[name] for name in _names(pred))
            path = "table" if valuations < n else "per-state"
            assert calls[id(pred)] == (valuations if path == "table" else n), text
            paths[path] += 1
    assert paths["table"] > 50 and paths["per-state"] > 50, paths
    assert carved > 30, carved


def test_token_ring_predicates_cost_one_walk_per_valuation_read(monkeypatch):
    # 4 processes, 324 states, 16 guards and 12 properties, each reading
    # one or two of the five variables: a per-state walk made 23868
    # eval_pred calls (recursion included), one walk per valuation read 740
    from faircheck import elaborator

    model = load_workloads().token_model(random.Random(0), 4, "none")
    doc = parse_document(model.text()).document
    calls = [0]

    def counted(p, env):
        calls[0] += 1
        return eval_pred(p, env)

    monkeypatch.setattr(elaborator, "eval_pred", counted)
    assert elaborate(doc).state_count == 324
    assert 0 < calls[0] <= 1000, calls[0]


def test_event_leaving_the_space_names_the_lowest_state():
    # the guard reads x alone (4 valuations, 12 states); the event leaves
    # the space from x=2,y=2 (the invariant), x=3,y=0 and x=3,y=1 (the range)
    source = (
        "system s\n var x : 0..3\n var y : 0..2\n invariant x + y <= 4\n"
        " event e when x >= 2 then x := x + 1 end\nend\n"
    )
    with pytest.raises(ElaborationError) as err:
        _elab(source)
    assert str(err.value) == (
        "s.e: from state x=2,y=2 the event reaches x=3,y=2, which violates the invariant"
    )
