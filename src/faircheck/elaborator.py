"""Elaboration from parsed documents to finite semantic objects.

Every static rule of the text is checked once, before any state is
enumerated: names read are in scope, update lists assign distinct state
variables (or are one "any" block with a fresh binder), declarations are
unique and refer to declared things, and a refinement refines every
abstract event. Diagnostics name the construct: "s.e" an event, "s" a
block, "P" a property, "main.s1" a proof step. After that, the loops over
states only evaluate. One function elaborates each block:
valuations are enumerated in declaration order and carved by the invariant
(a system) or by being glued to an abstract state (a refinement), so every
event is checked here to stay inside the space and the checkers downstream
never see an invariant-violating or unglued state.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .commands import MAX_CHECK_STATES, Command, Guard, Prim, conjunctivity_check
from .obligations import EngineDefect, EnsuresProperty, EventSystem, ModelError
from .parser import (
    BlockDecl,
    EBin,
    EInt,
    ENeg,
    EVar,
    Expr,
    ModelDocument,
    PAnd,
    PBool,
    PCmp,
    PImp,
    PNot,
    POr,
    Pred,
    UAny,
    UAssign,
    UChoose,
    Update,
    VarDecl,
)
from .refinement import RefinementPair
from .sets import StateRelation, StateSet, StateSpace
from .unity import LeadsTo, ProofScript, ProofStep, ScriptEnv, Unless, trivial_ensures

DEFAULT_MAX_STATES = 1 << 20


class ElaborationError(Exception):
    pass


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def eval_expr(e: Expr, env: Mapping[str, int]) -> int:
    """The value of e; every name it reads must be bound in env, which the
    static checks guarantee for elaborated text."""
    if isinstance(e, EInt):
        return e.value
    if isinstance(e, EVar):
        return env[e.name]
    if isinstance(e, ENeg):
        return -eval_expr(e.inner, env)
    if isinstance(e, EBin):
        value = eval_expr(e.first, env)
        for op, operand in e.rest:
            value = _ARITH[op](value, eval_expr(operand, env))
        return value
    raise TypeError(e)


_CMP = {
    "=": operator.eq,
    "/=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def eval_pred(p: Pred, env: Mapping[str, int]) -> bool:
    if isinstance(p, PBool):
        return p.value
    if isinstance(p, PCmp):
        return _CMP[p.op](eval_expr(p.left, env), eval_expr(p.right, env))
    if isinstance(p, PNot):
        return not eval_pred(p.inner, env)
    if isinstance(p, (PAnd, POr)):
        # "and" stops at the first false operand, "or" at the first true one
        stop = type(p) is POr
        for q in p.operands:
            if eval_pred(q, env) == stop:
                return stop
        return not stop
    if isinstance(p, PImp):
        return (not eval_pred(p.left, env)) or eval_pred(p.right, env)
    raise TypeError(p)


def _binding_label(binding: Mapping[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in binding.items())


@dataclass
class ElaboratedSystem:
    """A system together with its states' values for rendering witnesses:
    state i has the values valuations[i], in declaration order."""

    name: str
    space: StateSpace
    variables: tuple[VarDecl, ...]
    valuations: tuple[tuple[int, ...], ...]
    system: EventSystem

    def binding(self, index: int) -> dict[str, int]:
        return dict(zip((v.name for v in self.variables), self.valuations[index]))

    def label(self, index: int) -> str:
        return _binding_label(self.binding(index))


@dataclass
class ElaboratedRefinement:
    name: str
    abstract_name: str
    concrete: ElaboratedSystem
    pair: RefinementPair


@dataclass
class ElaboratedProperty:
    """A declared property: its engine value over its owner's states."""

    owner: ElaboratedSystem
    value: EnsuresProperty | LeadsTo | Unless


@dataclass
class ElaboratedScript:
    """A proof script with its goal and premises: its owner's ensures and
    unless properties, and the generated ensures of its inline brl steps."""

    owner: ElaboratedSystem
    script: ProofScript
    goal: LeadsTo
    env: ScriptEnv


@dataclass
class ElaboratedModel:
    systems: dict[str, ElaboratedSystem]
    refinements: dict[str, ElaboratedRefinement]
    properties: dict[str, ElaboratedProperty]
    scripts: dict[str, ElaboratedScript]
    state_count: int


# ---------------------------------------------------------------------------
# Static rules, checked once before any state is enumerated
# ---------------------------------------------------------------------------


def _check_unique(names: Iterable[str], message: str) -> None:
    """Raise "message 'name'" for the first name that repeats."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ElaborationError(f"{message} {name!r}")
        seen.add(name)


def _reads(*nodes: Pred | Expr) -> Iterator[str]:
    """The names the nodes read, in text order, repeats included."""
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        if isinstance(node, EVar):
            yield node.name
        elif isinstance(node, (PAnd, POr)):
            stack.extend(reversed(node.operands))
        elif isinstance(node, EBin):
            stack.extend(operand for _, operand in reversed(node.rest))
            stack.append(node.first)
        elif isinstance(node, (PCmp, PImp)):
            stack += (node.right, node.left)
        elif isinstance(node, (ENeg, PNot)):
            stack.append(node.inner)


def _check_reads(scope: frozenset[str], context: str, *nodes: Pred | Expr) -> None:
    """Every name the nodes read is in scope; the first one that is not is
    reported."""
    for name in _reads(*nodes):
        if name not in scope:
            raise ElaborationError(f"{context}: unknown variable {name!r}")


def _check_updates(
    updates: tuple[Update, ...], state: frozenset[str], scope: frozenset[str], context: str
) -> None:
    """An any block is its list's only update and binds a fresh name; every
    other update assigns a distinct state variable of the block. scope is
    the state variables plus the enclosing any-binders."""
    if any(isinstance(u, UAny) for u in updates):
        if len(updates) != 1:
            raise ElaborationError(f"{context}: an any-update must be the only update")
        u = updates[0]
        if u.var in scope:
            raise ElaborationError(
                f"{context}: any-binder {u.var!r} shadows an existing variable"
            )
        inner = scope | {u.var}
        _check_reads(inner, context, u.where)
        _check_updates(u.updates, state, inner, context)
        return
    assigned: set[str] = set()
    for u in updates:
        _check_reads(scope, context, *((u.value,) if isinstance(u, UAssign) else u.options))
        if u.var in assigned:
            raise ElaborationError(f"{context}: variable {u.var!r} updated twice")
        if u.var not in state:
            kind = "any-binder" if u.var in scope else "unknown variable"
            raise ElaborationError(f"{context}: updates {kind} {u.var!r}")
        assigned.add(u.var)


def _check_block(decl: BlockDecl, abstract: frozenset[str]) -> frozenset[str]:
    """The static rules of one block; returns its variable names. abstract
    holds the refined system's variable names, empty for a system."""
    state = frozenset(v.name for v in decl.variables)
    if state & abstract:
        raise ElaborationError(
            f"{decl.name}: concrete variables shadow abstract ones: {sorted(state & abstract)}"
        )
    if not decl.variables:
        raise ElaborationError(f"{decl.name}: no variables declared")
    _check_unique((v.name for v in decl.variables), f"{decl.name}: duplicate variable")
    for v in decl.variables:
        if v.hi < v.lo:
            raise ElaborationError(f"{decl.name}: empty range for variable {v.name!r}")
    if decl.refined is not None and not decl.conditions:
        raise ElaborationError(f"{decl.name}: a refinement needs a gluing predicate")
    _check_reads(state | abstract, decl.name, *decl.conditions)
    if not decl.events:
        raise ElaborationError(f"{decl.name}: no events declared")
    _check_unique((e.name for e in decl.events), f"{decl.name}: duplicate event")
    for event in decl.events:
        context = f"{decl.name}.{event.name}"
        _check_reads(state, context, event.guard)
        _check_updates(event.updates, state, state, context)
    return state


def _check_document(doc: ModelDocument) -> None:
    """Every static rule of the document, in declaration order."""
    blocks = (*doc.systems, *doc.refinements)
    _check_unique((d.name for d in doc.systems), "duplicate system")
    _check_unique((d.name for d in blocks), "duplicate declaration")
    systems = {d.name: _check_block(d, frozenset()) for d in doc.systems}  # their variables
    scopes = dict(systems)
    events = {d.name: {e.name for e in d.events} for d in blocks}
    for rdecl in doc.refinements:
        if rdecl.refined not in systems:
            raise ElaborationError(f"{rdecl.name}: refines unknown system {rdecl.refined!r}")
        scopes[rdecl.name] = _check_block(rdecl, systems[rdecl.refined])
        abstract = events[rdecl.refined]
        for event in rdecl.events:
            if event.refines != "skip" and event.refines not in abstract:
                raise ElaborationError(
                    f"{rdecl.name}.{event.name}: refines unknown abstract event {event.refines!r}"
                )
        unrefined = abstract - {e.refines for e in rdecl.events}
        if unrefined:
            raise ElaborationError(
                f"{rdecl.name}: abstract events are never refined: {sorted(unrefined)}"
            )

    _check_unique((p.name for p in doc.properties), "duplicate property")
    properties = {p.name: p for p in doc.properties}
    for pdecl in doc.properties:
        if pdecl.source not in scopes:
            raise ElaborationError(f"{pdecl.name}: unknown owner {pdecl.source!r}")
        _check_reads(scopes[pdecl.source], pdecl.name, pdecl.frm, pdecl.to)
        unknown = set(pdecl.helpful) - events[pdecl.source]
        if unknown:
            raise ElaborationError(
                f"{pdecl.name}: helpful events not in {pdecl.source!r}: {sorted(unknown)}"
            )

    _check_unique((p.name for p in doc.proofs), "duplicate proof")
    for prdecl in doc.proofs:
        goal = properties.get(prdecl.goal)
        if goal is None:
            raise ElaborationError(f"{prdecl.name}: goal {prdecl.goal!r} is not a property")
        if goal.kind != "leadsto":
            raise ElaborationError(
                f"{prdecl.name}: goal {prdecl.goal!r} is not a leadsto property"
            )
        _check_unique((step.name for step in prdecl.steps), f"{prdecl.name}: duplicate step name")
        for step in prdecl.steps:
            context = f"{prdecl.name}.{step.name}"
            if step.frm is None or step.to is None:
                if step.rule == "brl" and not step.refs:
                    raise ElaborationError(
                        f"{context}: brl needs a property name or an inline conclusion"
                    )
            else:
                _check_reads(scopes[goal.source], context, step.frm, step.to)


# ---------------------------------------------------------------------------
# Evaluation over the states
# ---------------------------------------------------------------------------


def _holds(
    pred: Pred,
    variables: tuple[VarDecl, ...],
    valuations: Sequence[tuple[int, ...]],
    envs: list[dict[str, int]],
) -> list[int]:
    """The states where pred holds, ascending. When the variables pred reads
    have fewer joint valuations than there are states, pred is evaluated
    once per such valuation, and each state projects its value tuple onto
    them to look up its truth; otherwise pred is evaluated on each state."""
    names = list(dict.fromkeys(_reads(pred)))
    column = {v.name: k for k, v in enumerate(variables)}
    cols = [column[name] for name in names]
    ranges = [range(variables[k].lo, variables[k].hi + 1) for k in cols]
    if math.prod(map(len, ranges)) >= len(valuations):
        return [i for i, env in enumerate(envs) if eval_pred(pred, env)]
    if not cols:  # a constant
        return list(range(len(valuations))) if eval_pred(pred, {}) else []
    # keyed as itemgetter projects: one index gives the value, not a 1-tuple
    key_of = operator.itemgetter(*range(len(cols)))
    table = {key_of(key): eval_pred(pred, dict(zip(names, key)))
             for key in itertools.product(*ranges)}
    truth = map(table.__getitem__, map(operator.itemgetter(*cols), valuations))
    return list(itertools.compress(itertools.count(), truth))


def _choice_count(updates: tuple[Update, ...]) -> int:
    """The post-states the event's assignment list (inside its any-blocks)
    enumerates per pre-state when it has a choice update: the product of
    the option counts. 0 when it has none, so deterministic events charge
    nothing to the budget."""
    while isinstance(updates[0], UAny):
        updates = updates[0].updates
    counts = [len(u.options) for u in updates if isinstance(u, UChoose)]
    return math.prod(counts) if counts else 0


def _charge(budget: list[int], cost: int, context: str, what: str) -> None:
    budget[0] += cost
    if budget[0] > budget[1]:
        raise ElaborationError(f"{context}: {what} than the {budget[1]}-state bound")


def _successor_bindings(
    updates: tuple[Update, ...],
    env: dict[str, int],
    names: list[str],
    context: str,
    budget: list[int],
    choices: int,
) -> list[tuple[int, ...]]:
    """All post-states of one event from one pre-state, as value tuples in
    declaration order; right-hand sides all read the pre-state (simultaneous
    update). budget is [spent, bound] of the (state, binder value) pairs the
    event's any-blocks enumerate and the (state, successor) pairs its choice
    updates enumerate, choices per assignment list (`_choice_count`)."""
    u = updates[0]
    if isinstance(u, UAny):  # the static checks made it the only update
        _charge(budget, max(u.hi - u.lo + 1, 0), context,
                "any-blocks enumerate more (state, value) pairs")
        out: list[tuple[int, ...]] = []
        for z in range(u.lo, u.hi + 1):
            bound = {**env, u.var: z}
            if eval_pred(u.where, bound):
                out += _successor_bindings(u.updates, bound, names, context, budget, choices)
        return out
    if choices:
        _charge(budget, choices, context, "choice updates enumerate more (state, successor) pairs")
    targets = [u.var for u in updates]
    options = [
        [eval_expr(u.value, env)] if isinstance(u, UAssign)
        else [eval_expr(o, env) for o in u.options]
        for u in updates
    ]
    out = []
    for combo in itertools.product(*options):
        post = dict(env)
        post.update(zip(targets, combo))
        out.append(tuple(post[v] for v in names))
    return out


def _elaborate_block(
    decl: BlockDecl,
    abstract: ElaboratedSystem | None,
    abstract_envs: list[dict[str, int]],
    max_states: int,
) -> tuple[ElaboratedSystem | ElaboratedRefinement, list[dict[str, int]]]:
    """The states, events and (for a refinement, whose abstract system and
    its states' dicts are given) the gluing relation of one block that
    passed the static checks, and a variable-to-value dict for each state.
    The elaborated block keeps its states as value tuples only."""
    total = 1
    for v in decl.variables:
        total *= v.hi - v.lo + 1
        if total > max_states:
            raise ElaborationError(f"{decl.name}: state space exceeds the {max_states}-state bound")
    names = [v.name for v in decl.variables]
    box = itertools.product(*(range(v.lo, v.hi + 1) for v in decl.variables))
    valuations: list[tuple[int, ...]] = []
    envs: list[dict[str, int]] = []
    if abstract is None:
        for key in box:
            env = dict(zip(names, key))
            if all(eval_pred(inv, env) for inv in decl.conditions):
                valuations.append(key)
                envs.append(env)
        if not valuations:
            raise ElaborationError(f"{decl.name}: the invariant is unsatisfiable")
        outside = "violates the invariant"
    else:
        joint = total * abstract.space.size
        if joint > max_states:
            raise ElaborationError(
                f"{decl.name}: the gluing evaluates {joint} (concrete, abstract) pairs, "
                f"more than the {max_states}-state bound"
            )
        gluing_pairs = []
        for key in box:
            env = dict(zip(names, key))
            partners = [
                x_index
                for x_index, xval in enumerate(abstract_envs)
                if all(eval_pred(g, {**xval, **env}) for g in decl.conditions)
            ]
            if partners:
                gluing_pairs += [(len(valuations), x_index) for x_index in partners]
                valuations.append(key)
                envs.append(env)
        if not valuations:
            raise ElaborationError(f"{decl.name}: gluing not total: no concrete state is glued")
        outside = "glues to no abstract state (gluing not total there)"

    space = StateSpace(decl.name, len(valuations))
    index_of = {key: i for i, key in enumerate(valuations)}
    events: dict[str, Command] = {}
    for event in decl.events:
        context = f"{decl.name}.{event.name}"
        pairs: list[tuple[int, int]] = []
        budget, choices = [0, max_states], _choice_count(event.updates)
        guard_members = _holds(event.guard, decl.variables, valuations, envs)
        for i in guard_members:
            env = envs[i]
            for key in _successor_bindings(event.updates, env, names, context, budget, choices):
                j = index_of.get(key)
                if j is None:
                    raise ElaborationError(
                        f"{context}: from state {_binding_label(env)} the event reaches "
                        f"{_binding_label(dict(zip(names, key)))}, which {outside}"
                    )
                pairs.append((i, j))
        command = Guard(space.subset(guard_members), Prim(StateRelation(space, space, pairs)))
        if space.size <= MAX_CHECK_STATES and not conjunctivity_check(command).ok:
            raise EngineDefect(f"{context}: elaborated event is not conjunctive")
        events[event.name] = command

    try:
        system = EventSystem(space, events)
        elaborated = ElaboratedSystem(decl.name, space, decl.variables, tuple(valuations), system)
        if abstract is None:
            return elaborated, envs
        gluing = StateRelation(space, abstract.space, gluing_pairs)
        refines = {e.name: (None if e.refines == "skip" else e.refines) for e in decl.events}
        pair = RefinementPair(abstract.system, system, gluing, refines)
    except ModelError as err:
        raise ElaborationError(f"{decl.name}: {err}") from err
    return ElaboratedRefinement(decl.name, abstract.name, elaborated, pair), envs


def elaborate(doc: ModelDocument, max_states: int = DEFAULT_MAX_STATES) -> ElaboratedModel:
    """Check the static rules, then build spaces, systems, refinement pairs,
    properties and scripts."""
    _check_document(doc)
    envs: dict[str, list[dict[str, int]]] = {}  # each block's states as dicts, dropped on return
    systems, refinements = {}, {}
    for decl in doc.systems:
        systems[decl.name], envs[decl.name] = _elaborate_block(decl, None, [], max_states)
    for decl in doc.refinements:
        refinements[decl.name], envs[decl.name] = _elaborate_block(
            decl, systems[decl.refined], envs[decl.refined], max_states
        )
    owners = dict(systems)
    owners.update({name: ref.concrete for name, ref in refinements.items()})

    def set_of(owner: ElaboratedSystem, pred: Pred) -> StateSet:
        return owner.space.subset(_holds(pred, owner.variables, owner.valuations, envs[owner.name]))

    properties: dict[str, ElaboratedProperty] = {}
    for pdecl in doc.properties:
        owner = owners[pdecl.source]
        p, q = set_of(owner, pdecl.frm), set_of(owner, pdecl.to)
        if pdecl.kind == "ensures":
            value = EnsuresProperty(pdecl.name, frozenset(pdecl.helpful), p, q)
        else:
            value = (LeadsTo if pdecl.kind == "leadsto" else Unless)(p, q, pdecl.name)
        properties[pdecl.name] = ElaboratedProperty(owner, value)

    scripts: dict[str, ElaboratedScript] = {}
    for prdecl in doc.proofs:
        goal = properties[prdecl.goal]
        env = ScriptEnv(goal.owner.system)
        for name, prop in properties.items():
            if prop.owner is goal.owner and isinstance(prop.value, EnsuresProperty):
                env.ensures[name] = prop.value
            elif prop.owner is goal.owner and isinstance(prop.value, Unless):
                env.unless[name] = prop.value
        steps = []
        for sdecl in prdecl.steps:
            conclusion = None
            if sdecl.frm is not None and sdecl.to is not None:
                lhs, rhs = set_of(goal.owner, sdecl.frm), set_of(goal.owner, sdecl.to)
                conclusion = LeadsTo(lhs, rhs, sdecl.name)
            refs = sdecl.refs
            if sdecl.rule == "brl" and not refs:  # an inline conclusion, by the static checks
                gen = f"{prdecl.name}:{sdecl.name}"
                env.ensures[gen] = trivial_ensures(env.system, gen, conclusion.lhs, conclusion.rhs)
                refs = (gen,)
            steps.append(ProofStep(sdecl.name, sdecl.rule, refs, conclusion))
        script = ProofScript(prdecl.name, tuple(steps))
        scripts[prdecl.name] = ElaboratedScript(goal.owner, script, goal.value, env)

    state_count = sum(s.space.size for s in owners.values())
    return ElaboratedModel(systems, refinements, properties, scripts, state_count)
