"""Whole-model verdicts against the engine-free reference.

A seeded generator draws small `workloads.Model`s: one or two variables,
one to four events whose guards are random and/or/not trees with chains of
several operands, updates that are constants, reflections, copies and
identities (some inside an `any` block), and one to four ensures, unless and
leadsto properties. Every WF0, WF1, ENS, UNL and ORACLE verdict that
`report --format json` gives must equal the one that perfbench's brute-force
reference derives from the same model text.

A second generator draws refinements: an abstract system of one variable
`x : 0..k-1`, a concrete copy `y : 0..2k-1` glued by `y = x or y = x + k`,
concrete events that copy, strengthen or perturb the abstract ones, and
sometimes a new event. Every REF, SAP, LIP-goal, DRV and RENS verdict must
equal the reference's too. The reference decides DRV and RENS by computing
the inclusions and re-checking the concrete property and the glued
leads-to; `faircheck` reads DRV off its gates, and RENS too unless several
concrete events refine the helpful events. Some drawn refinements split a
helpful event in two, and a few of those fail RENS with every gate passed.
"""

from __future__ import annotations

import json
import random
from collections import Counter

from faircheck.cli import run_cli
from helpers import load_reference, load_workloads

workloads = load_workloads()
reference = load_reference()

MODELS = 200
COMPARED = ("WF0:", "WF1:", "ENS:", "UNL:", "ORACLE:")
REFINEMENTS = 120
REFINED = ("REF:", "SAP:", "LIP-goal:", "DRV:", "RENS:")


class _Draw:
    """One model's random choices over the variables in scope."""

    def __init__(self, rng: random.Random, hi: dict[str, int]):
        self.rng = rng
        self.hi = hi

    def arith(self, names: list[str]) -> str:
        # one term, or a chain of up to four, so "-" chains of three occur
        rng = self.rng
        count = 1 if rng.random() < 0.5 else rng.randint(2, 4)
        terms = [rng.choice(names) if rng.random() < 0.7 else str(rng.randint(0, 2))
                 for _ in range(count)]
        text = terms[0]
        for term in terms[1:]:
            text += f" {rng.choice('+-*' if rng.random() < 0.2 else '+-')} {term}"
        return text

    def pred(self, names: list[str], depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            op = rng.choice(("=", "/=", "<", "<=", ">", ">="))
            return f"{self.arith(names)} {op} {rng.randint(0, 2)}"
        if roll < 0.55:
            return f"not {self.pred(names, depth - 1)}"
        parts = [self.pred(names, depth - 1) for _ in range(rng.randint(2, 4))]
        return "(" + f" {rng.choice(('and', 'or'))} ".join(parts) + ")"

    def value(self, var: str, binder: str | None) -> str:
        rng, hi = self.rng, self.hi
        copies = [w for w in hi if w != var and hi[w] <= hi[var]]
        kinds = ["const", "reflect", "identity"] + ["copy"] * bool(copies)
        kinds += ["binder"] * (binder is not None)
        kind = rng.choice(kinds)
        if kind == "const":
            return str(rng.randint(0, hi[var]))
        if kind == "reflect":
            return f"{hi[var]} - {var}"
        if kind == "copy":
            return rng.choice(copies)
        return binder if kind == "binder" else var

    def event(self, name: str) -> "workloads.Event":
        rng, names = self.rng, list(self.hi)
        targets = rng.sample(names, rng.randint(1, len(names)))
        any_of = None
        if rng.random() < 0.25:
            bound = min(self.hi[v] for v in targets)
            any_of = ("z", 0, bound, self.pred(names + ["z"], 1))
        binder = any_of[0] if any_of else None
        updates = tuple((v, self.value(v, binder)) for v in targets)
        return workloads.Event(name, self.pred(names, 2), updates, any_of)


def _model(rng: random.Random) -> "workloads.Model":
    hi = {name: rng.randint(1, 3) for name in ("a", "b")[: rng.randint(1, 2)]}
    draw = _Draw(rng, hi)
    names = list(hi)
    events = tuple(draw.event(f"e{i}") for i in range(rng.randint(1, 4)))
    system = workloads.System("s", tuple((v, 0, h) for v, h in hi.items()), events)
    props = []
    for i in range(rng.randint(1, 4)):
        kind = rng.choice(("ensures", "unless", "leadsto"))
        helpful = ()
        if kind == "ensures":
            helpful = tuple(e.name for e in rng.sample(events, rng.randint(1, len(events))))
        props.append(workloads.Property(
            f"{kind[0].upper()}{i}", kind, "s", draw.pred(names, 1), draw.pred(names, 0), helpful
        ))
    return workloads.Model((system,), tuple(props), {})


def _compare(model: "workloads.Model", path, capsys, prefixes: tuple[str, ...]) -> dict:
    """The verdicts of `report --format json` whose ids start with one of
    `prefixes`, after checking that they equal the reference's."""
    path.write_text(model.text())
    code = run_cli(["report", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code in (0, 1), f"exit {code}\n{model.text()}"
    got = {
        entry["id"]: entry["verdict"]
        for entry in json.loads(out)["obligations"]
        if entry["id"].startswith(prefixes)
    }
    want = {
        oid: verdict
        for oid, verdict in reference.reference_verdicts(model).items()
        if oid.startswith(prefixes)
    }
    assert got == want, model.text()
    return got


def test_report_verdicts_match_the_engine_free_reference(tmp_path, capsys):
    rng = random.Random(12)
    path = tmp_path / "model.fb"
    compared = 0
    for _ in range(MODELS):
        compared += len(_compare(_model(rng), path, capsys, COMPARED))
    assert compared > 2 * MODELS


def _members(var: str, values: set[int], size: int) -> str:
    """A predicate that holds exactly where `var` takes one of `values`."""
    if not values:
        return f"{var} < 0"
    if len(values) == size:
        return f"{var} >= 0"
    return "(" + " or ".join(f"{var} = {v}" for v in sorted(values)) + ")"


def _event(name: str, var: str, size: int, succ: dict[int, set[int]], refines=None):
    """An event of one variable: enabled exactly at the keys of `succ`, it
    moves each of them to any of its successors through an `any` block."""
    where = " or ".join(f"({var} = {v} and {_members('z', succ[v], size)})" for v in sorted(succ))
    return workloads.Event(name, _members(var, set(succ), size), ((var, "z"),),
                           ("z", 0, size - 1, where), refines)


def _some(rng: random.Random, values) -> set[int]:
    """A nonempty random subset of `values`."""
    values = sorted(values)
    return set(rng.sample(values, rng.randint(1, len(values))))


def _ensures_core(events: dict, helpful: set[str], p: set[int], q: set[int]) -> set[int]:
    """The largest part of p that makes `p ensures q` hold under `helpful`:
    outside q every event keeps p | q, and some helpful event is enabled
    and every enabled one establishes q."""
    while True:
        def holds(x: int) -> bool:
            keeps = all(succ[x] <= p | q for succ in events.values() if x in succ)
            moves = [events[l][x] <= q for l in helpful if x in events[l]]
            return x in q or (keeps and bool(moves) and all(moves))

        kept = {x for x in p if holds(x)}
        if kept == p:
            return p
        p = kept


def _refinement_model(rng: random.Random) -> "workloads.Model":
    k = rng.randint(2, 4)
    xs, ys = range(k), range(2 * k)
    abstract = {
        f"e{i}": {x: _some(rng, xs) if rng.random() < 0.3 else {rng.choice(xs)}
                  for x in _some(rng, xs)}
        for i in range(rng.randint(1, 3))
    }

    def lift(values: set[int]) -> set[int]:
        return values | {x + k for x in values}

    concrete = []
    for label, succ in abstract.items():
        copies = 1 + (rng.random() < 0.3)
        halves = copies == 2 and rng.random() < 0.5
        for copy in range(copies):
            guard = lift(set(succ))
            roll = rng.random()
            if halves:  # two events, each enabled in one copy of the glued states
                guard = {x + k * copy for x in succ}
            elif roll < 0.35:  # stronger guard: one copy of each abstract state
                guard = {x + k * rng.randint(0, 1) for x in succ}
            elif roll < 0.5:  # stronger guard: one state less
                guard.discard(rng.choice(sorted(guard)))
            if rng.random() < 0.1:
                guard.add(rng.choice(ys))  # weaker guard: may break REF
            csucc = {y: _some(rng, lift(succ.get(y % k, set())) or ys) for y in guard}
            if rng.random() < 0.1:  # a step the abstract event may not take
                csucc[rng.choice(sorted(guard))] = {rng.choice(ys)}
            concrete.append(_event(f"{label}c{copy}", "y", 2 * k, csucc, label))
    roll = rng.random()
    if roll < 0.2:  # a new event that always swaps the two copies
        concrete.append(_event("tick", "y", 2 * k, {y: {(y + k) % (2 * k)} for y in ys}, "skip"))
    elif roll < 0.6:
        # a new event: it moves to a copy of the glued state, or with a small
        # chance anywhere
        stutter = {y: {rng.choice(sorted(lift({y % k})) if rng.random() < 0.95 else ys)}
                   for y in _some(rng, ys)}
        concrete.append(_event("tick", "y", 2 * k, stutter, "skip"))

    props = []
    for i in range(rng.randint(1, 2)):
        helpful, shrink = _some(rng, abstract), rng.random() < 0.8
        for _ in range(8):
            # q holds what the helpful events reach from x0, so that most
            # shrunk properties are ensures properties with x0 active
            x0 = rng.choice(xs)
            q = set(rng.sample(xs, rng.randint(0, k - 1)))
            q |= set().union(*(abstract[l].get(x0, set()) for l in helpful)) - {x0}
            p = _some(rng, xs) | {x0}
            if shrink:
                p = _ensures_core(abstract, helpful, p, q)
            if p - q:
                break
        props.append(workloads.Property(f"P{i}", "ensures", "a", _members("x", p, k),
                                        _members("x", q, k), tuple(sorted(helpful))))
    events = tuple(_event(label, "x", k, succ) for label, succ in abstract.items())
    systems = (
        workloads.System("a", (("x", 0, k - 1),), events),
        workloads.System("c", (("y", 0, 2 * k - 1),), tuple(concrete), refines="a",
                         gluing=f"y = x or y = x + {k}"),
    )
    return workloads.Model(systems, tuple(props), {})


def test_refinement_verdicts_match_the_engine_free_reference(tmp_path, capsys):
    rng = random.Random(1)
    path = tmp_path / "model.fb"
    kinds: Counter = Counter()
    for _ in range(REFINEMENTS):
        got = _compare(_refinement_model(rng), path, capsys, COMPARED + REFINED)
        kinds.update((oid.split(":")[0], verdict) for oid, verdict in got.items())
    assert kinds["RENS", "pass"] >= 70 and kinds["DRV", "pass"] >= 500
    for kind in ("REF", "SAP", "LIP-goal"):
        assert kinds[kind, "pass"] and kinds[kind, "fail"], kind
    assert kinds["DRV", "hypothesis-failed"] and not kinds["DRV", "fail"]
    assert kinds["RENS", "hypothesis-failed"] and kinds["RENS", "fail"] >= 3
