"""Engine-free reference verdicts for generated models.

Decides every obligation of a `workloads.Model` by brute force, straight
from its definition: predicate strings become Python expressions token by
token, every valuation is enumerated, and events become explicit successor
sets. Nothing here imports faircheck, and the leads-to decision enumerates
every subset of the reachable target-avoiding states instead of computing
strongly connected components, so it is only for smoke sizes.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable

from workloads import Model, Property, System

State = frozenset  # a set of state indices

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|/=|<=|>=|=|<|>|\(|\)|\+|-|\*)")
_WORDS = {"and", "or", "not"}
_SYMBOLS = {"=": "==", "/=": "!=", "<=": "<=", ">=": ">=", "<": "<", ">": ">",
            "(": "(", ")": ")", "+": "+", "-": "-", "*": "*"}


def python_source(text: str) -> str:
    """Translate a model-language predicate or expression to Python."""
    out, pos = [], 0
    while pos < len(text.rstrip()):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot translate {text[pos:]!r}")
        token = match.group(1)
        pos = match.end()
        if token.isdigit() or token in _WORDS:
            out.append(token)
        elif token in ("true", "false"):
            out.append(token.capitalize())
        elif token in _SYMBOLS:
            out.append(_SYMBOLS[token])
        elif re.fullmatch(r"[A-Za-z_]\w*", token):
            out.append(token)
        else:
            raise ValueError(f"unexpected token {token!r}")
    return " ".join(out)


def evaluate(text: str, env: dict[str, int]):
    return eval(python_source(text), {"__builtins__": {}}, dict(env))


class RefSystem:
    """Valuations, guards and successor sets of one system or refinement."""

    def __init__(self, system: System, abstract: "RefSystem | None" = None):
        self.system = system
        names = [name for name, _, _ in system.variables]
        ranges = [range(lo, hi + 1) for _, lo, hi in system.variables]
        valuations = [dict(zip(names, combo)) for combo in itertools.product(*ranges)]
        self.gluing: set[tuple[int, int]] = set()
        if abstract is not None:
            kept = []
            for val in valuations:
                partners = [x for x, aval in enumerate(abstract.valuations)
                            if evaluate(system.gluing, {**aval, **val})]
                if partners:
                    self.gluing.update((len(kept), x) for x in partners)
                    kept.append(val)
            valuations = kept
        self.valuations = valuations
        self.universe = State(range(len(valuations)))
        index = {tuple(v[n] for n in names): i for i, v in enumerate(valuations)}
        self.guard: dict[str, State] = {}
        self.succ: dict[str, dict[int, State]] = {}
        for event in system.events:
            guard, succ = set(), {}
            for i, val in enumerate(valuations):
                if not evaluate(event.guard, val):
                    continue
                guard.add(i)
                succ[i] = State(index[tuple(post[n] for n in names)]
                                for post in _posts(event, val))
            self.guard[event.name] = State(guard)
            self.succ[event.name] = succ

    @property
    def labels(self) -> list[str]:
        return [e.name for e in self.system.events]

    def set_of(self, text: str) -> State:
        return State(i for i, v in enumerate(self.valuations) if evaluate(text, v))

    def enabled(self, label: str, x: int) -> bool:
        return x in self.guard[label] and bool(self.succ[label][x])

    def grd(self, labels: Iterable[str]) -> State:
        return State(x for x in self.universe for l in labels if self.enabled(l, x))

    def wp(self, labels: Iterable[str], r: State) -> State:
        """States from which every enabled event among `labels` lands in r."""
        labels = list(labels)
        return State(x for x in self.universe
                     if all(x not in self.guard[l] or self.succ[l][x] <= r for l in labels))

    def fair_avoidance(self, p: State, q: State) -> bool:
        """Can a weakly fair execution from p avoid q forever or get stuck?"""
        start = p - q
        reach, frontier = set(start), list(start)
        while frontier:
            x = frontier.pop()
            for l in self.labels:
                if self.enabled(l, x):
                    for t in self.succ[l][x] - q:
                        if t not in reach:
                            reach.add(t)
                            frontier.append(t)
        if any(not any(self.enabled(l, x) for l in self.labels) for x in reach):
            return True
        nodes = sorted(reach)
        for size in range(1, len(nodes) + 1):
            for comp in itertools.combinations(nodes, size):
                if self._fair_component(set(comp)):
                    return True
        return False

    def _fair_component(self, comp: set[int]) -> bool:
        inside = {x: {t for l in self.labels if self.enabled(l, x)
                      for t in self.succ[l][x] if t in comp} for x in comp}
        if not any(inside.values()):
            return False
        for edges in (inside, {x: {y for y in comp if x in inside[y]} for x in comp}):
            start = next(iter(comp))
            seen, stack = {start}, [start]
            while stack:
                for t in edges[stack.pop()]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            if seen != comp:
                return False
        for l in self.labels:
            disabled = any(not self.enabled(l, x) for x in comp)
            internal = any(self.succ[l].get(x, State()) & comp for x in comp if self.enabled(l, x))
            if not (disabled or internal):
                return False
        return True


def _posts(event, val: dict[str, int]) -> list[dict[str, int]]:
    if event.any_of is None:
        envs = [val]
    else:
        binder, lo, hi, where = event.any_of
        envs = [{**val, binder: z} for z in range(lo, hi + 1)
                if evaluate(where, {**val, binder: z})]
    posts = []
    for env in envs:
        post = dict(val)
        post.update({var: evaluate(expr, env) for var, expr in event.updates})
        posts.append(post)
    return posts


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def reference_verdicts(model: Model) -> dict[str, str]:
    systems: dict[str, RefSystem] = {}
    for system in model.systems:
        abstract = systems[system.refines] if system.refines else None
        systems[system.name] = RefSystem(system, abstract)
    props = {prop.name: prop for prop in model.properties}
    sets = {name: (systems[p.owner].set_of(p.frm), systems[p.owner].set_of(p.to))
            for name, p in props.items()}

    def ensures(sys: RefSystem, helpful: Iterable[str], p: State, q: State) -> tuple[bool, bool]:
        active = p - q
        wf0 = active <= sys.wp(sys.labels, p | q)
        helpful = list(helpful)
        wf1 = active <= sys.grd(helpful) & sys.wp(helpful, q)
        return wf0, wf1

    out: dict[str, str] = {}
    ens_ok: dict[str, bool] = {}
    for name, prop in props.items():
        sys, (p, q) = systems[prop.owner], sets[name]
        if prop.kind == "ensures":
            wf0, wf1 = ensures(sys, prop.helpful, p, q)
            ens_ok[name] = wf0 and wf1
            out.update({f"WF0:{name}": _verdict(wf0), f"WF1:{name}": _verdict(wf1),
                        f"ENS:{name}": _verdict(wf0 and wf1)})
        elif prop.kind == "unless":
            out[f"UNL:{name}"] = _verdict(p - q <= sys.wp(sys.labels, p | q))

    for system in model.systems:
        if system.refines:
            out.update(_refinement_verdicts(systems[system.refines], systems[system.name],
                                            props, sets, ens_ok))
    for proof in model.proofs:
        owner = systems[props[proof.goal].owner]
        out[f"SCRIPT:{proof.name}"] = _verdict(
            _script_holds(owner, proof, props, sets, ensures))
    for name, prop in props.items():
        if prop.kind == "leadsto":
            p, q = sets[name]
            out[f"ORACLE:{name}"] = _verdict(not systems[prop.owner].fair_avoidance(p, q))
    return out


def _refinement_verdicts(abstract: RefSystem, concrete: RefSystem,
                         props: dict[str, Property], sets, ens_ok) -> dict[str, str]:
    out: dict[str, str] = {}
    gluing = concrete.gluing

    def image(s: State) -> State:
        return State(x for y, x in gluing if y in s)

    def concrete_of(s: State) -> State:
        return State(y for y, x in gluing if x in s)

    refines = {e.name: e.refines for e in concrete.system.events}
    sim_ok = True
    subsets = [State(c) for k in range(len(concrete.universe) + 1)
               for c in itertools.combinations(sorted(concrete.universe), k)]
    for label, target in refines.items():
        def abstract_wp(r: State) -> State:
            return r if target == "skip" else abstract.wp([target], r)
        ok = all(
            abstract_wp(abstract.universe - image(concrete.universe - s))
            <= abstract.universe - image(concrete.universe - concrete.wp([label], s))
            for s in subsets
        )
        sim_ok &= ok
        out[f"REF:{label}"] = _verdict(ok)

    for name, prop in props.items():
        if prop.kind != "ensures" or prop.owner != abstract.system.name:
            continue
        p, q = sets[name]
        helpful = [l for l, t in refines.items() if t in prop.helpful]
        rest = [l for l, t in refines.items() if t != "skip" and t not in prop.helpful]
        new = [l for l, t in refines.items() if t == "skip"]
        guard = concrete.grd(helpful)
        glued_active = concrete_of(p - q)
        sap = glued_active & guard <= concrete.wp(rest + new, guard)
        lip = not concrete.fair_avoidance(glued_active - guard, guard)
        out[f"SAP:{name}"] = _verdict(sap)
        out[f"LIP-goal:{name}"] = _verdict(lip)
        p2, q2, v = concrete_of(p), concrete_of(q), concrete.universe
        if sim_ok and ens_ok[name]:
            checks = {
                "rest-total": (concrete.wp(rest, v), v),
                "helpful-total": (concrete.wp(helpful, v), v),
                "new-total": (concrete.wp(new, v), v),
                "rest-keeps": (concrete.wp(rest, p2 | q2), glued_active),
                "helpful-establishes": (concrete.wp(helpful, q2), glued_active),
                "new-keeps": (concrete.wp(new, p2 | q2), glued_active),
            }
            out.update({f"DRV:{name}:{tag}": _verdict(small <= big)
                        for tag, (big, small) in checks.items()})
        else:
            out[f"DRV:{name}"] = "hypothesis-failed"
        if not (ens_ok[name] and sim_ok and sap and lip):
            out[f"RENS:{name}"] = "hypothesis-failed"
        else:
            cp = p2 & guard
            wf0 = cp - q2 <= concrete.wp(concrete.labels, cp | q2)
            wf1 = cp - q2 <= concrete.grd(helpful) & concrete.wp(helpful, q2)
            leads = not concrete.fair_avoidance(p2, q2)
            out[f"RENS:{name}"] = _verdict(wf0 and wf1 and leads)
    return out


def _script_holds(owner: RefSystem, proof, props, sets, ensures) -> bool:
    """The proof rules over explicit sets; any rule violation fails."""
    derived: dict[str, tuple[State, State]] = {}
    own = {n: p for n, p in props.items() if p.owner == owner.system.name}
    for step in proof.steps:
        declared = None
        if step.frm is not None:
            declared = (owner.set_of(step.frm), owner.set_of(step.to))
        if step.rule == "brl":
            if step.refs:
                prop = own.get(step.refs[0])
                if prop is None or prop.kind != "ensures":
                    return False
                p, q = sets[prop.name]
                helpful = prop.helpful
            else:
                (p, q), helpful = declared, owner.labels
            if not all(ensures(owner, helpful, p, q)):
                return False
            result = (p, q)
        elif step.rule == "tra":
            (a1, a2), (b1, b2) = derived[step.refs[0]], derived[step.refs[1]]
            if a2 != b1:
                return False
            result = (a1, b2)
        elif step.rule == "dsj":
            premises = [derived[r] for r in step.refs]
            if any(rhs != premises[0][1] for _, rhs in premises):
                return False
            result = (State().union(*(lhs for lhs, _ in premises)), premises[0][1])
        elif step.rule == "psp":
            lhs, rhs = derived[step.refs[0]]
            stable = own.get(step.refs[1])
            if stable is None or stable.kind != "unless":
                return False
            u1, u2 = sets[stable.name]
            if not u1 - u2 <= owner.wp(owner.labels, u1 | u2):
                return False
            result = (lhs & u1, (rhs & u1) | u2)
        elif step.rule == "can":
            (w1, w), (r, r2) = derived[step.refs[0]], derived[step.refs[1]]
            goal = declared
            if goal is None or not r <= w or goal[0] != w1:
                return False
            if not ((w - r) | r2 <= goal[1] <= w | r2):
                return False
            result = goal
        else:
            return False
        if declared is not None and declared != result:
            return False
        derived[step.name] = result
    return derived[proof.steps[-1].name] == sets[proof.goal]
