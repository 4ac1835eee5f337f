"""Elaboration from parsed documents to finite semantic objects.

Variable valuations are enumerated lexicographically in declaration order,
restricted to the invariant; that restricted enumeration is the state
space, so invariant preservation by every event is checked here once and
the checkers downstream never see an invariant-violating state. Concrete
spaces are carved out by the gluing predicate: a concrete valuation exists
iff it glues to at least one abstract state.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .commands import Command, Guard, Prim, conjunctivity_check
from .obligations import EngineDefect, EnsuresProperty, EventSystem, ModelError
from .parser import (
    EBin,
    EInt,
    ENeg,
    EVar,
    EventDecl,
    Expr,
    ModelDocument,
    PAnd,
    PBool,
    PCmp,
    PImp,
    PNot,
    POr,
    Pred,
    PropertyDecl,
    RefinementDecl,
    SystemDecl,
    UAny,
    UAssign,
    UChoose,
    Update,
    VarDecl,
)
from .refinement import RefinementPair
from .sets import StateRelation, StateSet, StateSpace
from .unity import LeadsTo, ProofScript, ProofStep, Unless, trivial_ensures

DEFAULT_MAX_STATES = 1 << 20


class ElaborationError(Exception):
    pass


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_expr(e: Expr, env: Mapping[str, int]) -> int:
    if isinstance(e, EInt):
        return e.value
    if isinstance(e, EVar):
        if e.name not in env:
            raise ElaborationError(f"unknown variable {e.name!r}")
        return env[e.name]
    if isinstance(e, ENeg):
        return -eval_expr(e.inner, env)
    if isinstance(e, EBin):
        # The parser builds a chain a + b - c as a left-deep tree; walk its
        # left spine with a loop, so a long chain does not recurse once per
        # operator. Only parentheses and negation nest, and the parser
        # bounds those.
        spine = []
        while isinstance(e, EBin):
            spine.append(e)
            e = e.left
        value = eval_expr(e, env)
        for node in reversed(spine):
            value = _ARITH[node.op](value, eval_expr(node.right, env))
        return value
    raise TypeError(e)


_CMP = {
    "=": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_pred(p: Pred, env: Mapping[str, int]) -> bool:
    if isinstance(p, PBool):
        return p.value
    if isinstance(p, PCmp):
        return _CMP[p.op](eval_expr(p.left, env), eval_expr(p.right, env))
    if isinstance(p, PNot):
        return not eval_pred(p.inner, env)
    if isinstance(p, (PAnd, POr)):
        # a left-deep chain of one connective, walked like eval_expr's;
        # "and" stops at the first false operand, "or" at the first true one
        kind = type(p)
        operands = [p.right]
        p = p.left
        while type(p) is kind:
            operands.append(p.right)
            p = p.left
        stop = kind is POr
        value = eval_pred(p, env)
        while operands and value != stop:
            value = eval_pred(operands.pop(), env)
        return value
    if isinstance(p, PImp):
        return (not eval_pred(p.left, env)) or eval_pred(p.right, env)
    raise TypeError(p)


def _binding_label(binding: Mapping[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in binding.items())


@dataclass
class ElaboratedSystem:
    """A system together with its valuation table for rendering witnesses."""

    name: str
    space: StateSpace
    variables: tuple[VarDecl, ...]
    valuations: tuple[dict[str, int], ...]
    system: EventSystem

    def set_of(self, pred: Pred) -> StateSet:
        members = [i for i, val in enumerate(self.valuations) if eval_pred(pred, val)]
        return self.space.subset(members)

    def binding(self, index: int) -> dict[str, int]:
        return dict(self.valuations[index])


@dataclass
class ElaboratedRefinement:
    name: str
    abstract_name: str
    concrete: ElaboratedSystem
    pair: RefinementPair


@dataclass
class ElaboratedProperty:
    name: str
    kind: str  # ensures | leadsto | unless
    source: str
    helpful: tuple[str, ...]
    p: StateSet
    q: StateSet

    def as_ensures(self) -> EnsuresProperty:
        if self.kind != "ensures":
            raise ModelError(f"property {self.name!r} is not an ensures property")
        return EnsuresProperty(self.name, frozenset(self.helpful), self.p, self.q)

    def as_leadsto(self) -> LeadsTo:
        return LeadsTo(self.p, self.q, self.name)

    def as_unless(self) -> Unless:
        return Unless(self.p, self.q, self.name)


@dataclass
class ElaboratedScript:
    name: str
    goal: str
    source: str
    script: ProofScript
    extra_ensures: dict[str, EnsuresProperty] = field(default_factory=dict)


@dataclass
class ElaboratedModel:
    systems: dict[str, ElaboratedSystem]
    refinements: dict[str, ElaboratedRefinement]
    properties: dict[str, ElaboratedProperty]
    scripts: dict[str, ElaboratedScript]
    state_count: int

    def owner(self, source: str) -> ElaboratedSystem:
        if source in self.systems:
            return self.systems[source]
        if source in self.refinements:
            return self.refinements[source].concrete
        raise ModelError(f"unknown system or refinement {source!r}")


def _enumerate_valuations(
    variables: Iterable[VarDecl], max_states: int, context: str
) -> list[dict[str, int]]:
    variables = list(variables)
    if not variables:
        raise ElaborationError(f"{context}: no variables declared")
    seen: set[str] = set()
    total = 1
    for v in variables:
        if v.name in seen:
            raise ElaborationError(f"{context}: duplicate variable {v.name!r}")
        seen.add(v.name)
        if v.hi < v.lo:
            raise ElaborationError(f"{context}: empty range for variable {v.name!r}")
        total *= v.hi - v.lo + 1
        if total > max_states:
            raise ElaborationError(
                f"{context}: state space exceeds the {max_states}-state bound"
            )
    names = [v.name for v in variables]
    ranges = [range(v.lo, v.hi + 1) for v in variables]
    return [dict(zip(names, combo)) for combo in itertools.product(*ranges)]


def _successor_bindings(
    updates: tuple[Update, ...], env: dict[str, int], context: str, budget: list[int]
) -> list[dict[str, int]]:
    """All post-states of one event from one pre-state; right-hand sides all
    read the pre-state (simultaneous update). budget is [spent, bound] of the
    (state, binder value) pairs the event's any-blocks enumerate."""
    if any(isinstance(u, UAny) for u in updates):
        if len(updates) != 1:
            raise ElaborationError(f"{context}: an any-update must be the only update")
        u = updates[0]
        assert isinstance(u, UAny)
        if u.var in env:
            raise ElaborationError(
                f"{context}: any-binder {u.var!r} shadows an existing variable"
            )
        budget[0] += max(u.hi - u.lo + 1, 0)
        if budget[0] > budget[1]:
            raise ElaborationError(
                f"{context}: any-blocks enumerate more (state, value) pairs "
                f"than the {budget[1]}-state bound"
            )
        out: list[dict[str, int]] = []
        for z in range(u.lo, u.hi + 1):
            bound = dict(env)
            bound[u.var] = z
            if eval_pred(u.where, bound):
                for succ in _successor_bindings(u.updates, bound, context, budget):
                    succ.pop(u.var, None)
                    out.append(succ)
        return out
    assigned: list[tuple[str, list[int]]] = []
    seen: set[str] = set()
    for u in updates:
        if isinstance(u, UAssign):
            var, options = u.var, [eval_expr(u.value, env)]
        elif isinstance(u, UChoose):
            var, options = u.var, [eval_expr(o, env) for o in u.options]
        else:
            raise TypeError(u)
        if var in seen:
            raise ElaborationError(f"{context}: variable {var!r} updated twice")
        seen.add(var)
        assigned.append((var, options))
    out = []
    for combo in itertools.product(*(options for _, options in assigned)):
        succ = dict(env)
        for (var, _), value in zip(assigned, combo):
            succ[var] = value
        out.append(succ)
    return out


def _elaborate_events(
    name: str,
    events: tuple[EventDecl, ...],
    space: StateSpace,
    valuations: list[dict[str, int]],
    index_of: dict[tuple[int, ...], int],
    var_names: list[str],
    membership_error: str,
    max_states: int,
) -> dict[str, Command]:
    if not events:
        raise ElaborationError(f"{name}: no events declared")
    out: dict[str, Command] = {}
    for decl in events:
        if decl.name in out:
            raise ElaborationError(f"{name}: duplicate event {decl.name!r}")
        context = f"{name}.{decl.name}"
        guard_members = []
        pairs: list[tuple[int, int]] = []
        budget = [0, max_states]
        for i, val in enumerate(valuations):
            try:
                enabled = eval_pred(decl.guard, val)
            except ElaborationError as err:
                raise ElaborationError(f"{context}: {err}") from err
            if not enabled:
                continue
            guard_members.append(i)
            for succ in _successor_bindings(decl.updates, dict(val), context, budget):
                extraneous = set(succ) - set(var_names)
                if extraneous:
                    raise ElaborationError(
                        f"{context}: updates unknown variable {sorted(extraneous)[0]!r}"
                    )
                key = tuple(succ[v] for v in var_names)
                if key not in index_of:
                    raise ElaborationError(
                        f"{context}: from state {_binding_label(val)} the event reaches "
                        f"{_binding_label(succ)}, which {membership_error}"
                    )
                pairs.append((i, index_of[key]))
        guard = space.subset(guard_members)
        command = Guard(guard, Prim(StateRelation(space, space, pairs)))
        if not conjunctivity_check(command).ok:
            raise EngineDefect(f"{context}: elaborated event is not conjunctive")
        out[decl.name] = command
    return out


def _elaborate_system(decl: SystemDecl, max_states: int) -> ElaboratedSystem:
    all_vals = _enumerate_valuations(decl.variables, max_states, decl.name)
    var_names = [v.name for v in decl.variables]
    invariant = lambda val: all(eval_pred(inv, val) for inv in decl.invariants)
    valuations = [val for val in all_vals if invariant(val)]
    if not valuations:
        raise ElaborationError(f"{decl.name}: the invariant is unsatisfiable")
    labels = tuple(_binding_label(val) for val in valuations)
    space = StateSpace(decl.name, len(valuations), labels)
    index_of = {
        tuple(val[v] for v in var_names): i for i, val in enumerate(valuations)
    }
    events = _elaborate_events(
        decl.name, decl.events, space, valuations, index_of, var_names,
        "violates the invariant", max_states,
    )
    try:
        system = EventSystem(space, events)
    except ModelError as err:
        raise ElaborationError(f"{decl.name}: {err}") from err
    return ElaboratedSystem(decl.name, space, decl.variables, tuple(valuations), system)


def _elaborate_refinement(
    decl: RefinementDecl, abstract: ElaboratedSystem, max_states: int
) -> ElaboratedRefinement:
    clash = {v.name for v in decl.variables} & {v.name for v in abstract.variables}
    if clash:
        raise ElaborationError(
            f"{decl.name}: concrete variables shadow abstract ones: {sorted(clash)}"
        )
    all_vals = _enumerate_valuations(decl.variables, max_states, decl.name)
    var_names = [v.name for v in decl.variables]
    if not decl.gluings:
        raise ElaborationError(f"{decl.name}: a refinement needs a gluing predicate")
    joint = len(all_vals) * abstract.space.size
    if joint > max_states:
        raise ElaborationError(
            f"{decl.name}: the gluing evaluates {joint} (concrete, abstract) pairs, "
            f"more than the {max_states}-state bound"
        )

    glued: list[tuple[dict[str, int], list[int]]] = []
    for yval in all_vals:
        partners = []
        for x_index, xval in enumerate(abstract.valuations):
            joint = {**xval, **yval}
            if all(eval_pred(g, joint) for g in decl.gluings):
                partners.append(x_index)
        if partners:
            glued.append((yval, partners))
    if not glued:
        raise ElaborationError(f"{decl.name}: gluing not total: no concrete state is glued")

    valuations = [yval for yval, _ in glued]
    labels = tuple(_binding_label(val) for val in valuations)
    space = StateSpace(decl.name, len(valuations), labels)
    index_of = {
        tuple(val[v] for v in var_names): i for i, val in enumerate(valuations)
    }
    gluing_pairs = [
        (y_index, x_index)
        for y_index, (_, partners) in enumerate(glued)
        for x_index in partners
    ]
    gluing = StateRelation(space, abstract.space, gluing_pairs)

    events = _elaborate_events(
        decl.name, decl.events, space, valuations, index_of, var_names,
        "glues to no abstract state (gluing not total there)", max_states,
    )
    try:
        concrete_system = EventSystem(space, events)
        refines = {
            e.name: (None if e.refines == "skip" else e.refines) for e in decl.events
        }
        pair = RefinementPair(abstract.system, concrete_system, gluing, refines)
    except ModelError as err:
        raise ElaborationError(f"{decl.name}: {err}") from err
    concrete = ElaboratedSystem(
        decl.name, space, decl.variables, tuple(valuations), concrete_system
    )
    return ElaboratedRefinement(decl.name, abstract.name, concrete, pair)


def _elaborate_property(
    decl: PropertyDecl, owner: ElaboratedSystem
) -> ElaboratedProperty:
    p = owner.set_of(decl.frm)
    q = owner.set_of(decl.to)
    if decl.kind == "ensures":
        unknown = set(decl.helpful) - set(owner.system.labels)
        if unknown:
            raise ElaborationError(
                f"{decl.name}: helpful events not in {owner.name!r}: {sorted(unknown)}"
            )
    return ElaboratedProperty(decl.name, decl.kind, owner.name, decl.helpful, p, q)


def elaborate(doc: ModelDocument, max_states: int = DEFAULT_MAX_STATES) -> ElaboratedModel:
    """Build spaces, systems, refinement pairs, properties and scripts."""
    systems: dict[str, ElaboratedSystem] = {}
    refinements: dict[str, ElaboratedRefinement] = {}
    for sdecl in doc.systems:
        if sdecl.name in systems:
            raise ElaborationError(f"duplicate system {sdecl.name!r}")
        systems[sdecl.name] = _elaborate_system(sdecl, max_states)
    for rdecl in doc.refinements:
        if rdecl.name in systems or rdecl.name in refinements:
            raise ElaborationError(f"duplicate declaration {rdecl.name!r}")
        if rdecl.refined not in systems:
            raise ElaborationError(
                f"{rdecl.name}: refines unknown system {rdecl.refined!r}"
            )
        refinements[rdecl.name] = _elaborate_refinement(
            rdecl, systems[rdecl.refined], max_states
        )

    owners = dict(systems)
    owners.update({name: ref.concrete for name, ref in refinements.items()})

    properties: dict[str, ElaboratedProperty] = {}
    for pdecl in doc.properties:
        if pdecl.name in properties:
            raise ElaborationError(f"duplicate property {pdecl.name!r}")
        if pdecl.source not in owners:
            raise ElaborationError(f"{pdecl.name}: unknown owner {pdecl.source!r}")
        properties[pdecl.name] = _elaborate_property(pdecl, owners[pdecl.source])

    scripts: dict[str, ElaboratedScript] = {}
    for prdecl in doc.proofs:
        if prdecl.name in scripts:
            raise ElaborationError(f"duplicate proof {prdecl.name!r}")
        if prdecl.goal not in properties:
            raise ElaborationError(f"{prdecl.name}: goal {prdecl.goal!r} is not a property")
        goal_prop = properties[prdecl.goal]
        if goal_prop.kind != "leadsto":
            raise ElaborationError(
                f"{prdecl.name}: goal {prdecl.goal!r} is not a leadsto property"
            )
        owner = owners[goal_prop.source]
        extra: dict[str, EnsuresProperty] = {}
        steps = []
        for sdecl2 in prdecl.steps:
            conclusion = None
            if sdecl2.frm is not None and sdecl2.to is not None:
                conclusion = LeadsTo(
                    owner.set_of(sdecl2.frm), owner.set_of(sdecl2.to), sdecl2.name
                )
            refs = sdecl2.refs
            if sdecl2.rule == "brl" and not refs:
                if conclusion is None:
                    raise ElaborationError(
                        f"{prdecl.name}.{sdecl2.name}: brl needs a property name "
                        "or an inline conclusion"
                    )
                gen = f"{prdecl.name}:{sdecl2.name}"
                extra[gen] = trivial_ensures(owner.system, gen, conclusion.lhs, conclusion.rhs)
                refs = (gen,)
            steps.append(ProofStep(sdecl2.name, sdecl2.rule, refs, conclusion))
        try:
            script = ProofScript(prdecl.name, tuple(steps))
        except ValueError as err:  # two steps of one name
            raise ElaborationError(f"{prdecl.name}: {err}") from err
        scripts[prdecl.name] = ElaboratedScript(
            prdecl.name, prdecl.goal, goal_prop.source, script, extra
        )

    state_count = sum(s.space.size for s in owners.values())
    return ElaboratedModel(systems, refinements, properties, scripts, state_count)
