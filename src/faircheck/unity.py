"""Leads-to properties: rule-based proof scripts and a semantic oracle.

A leads-to goal is derived by a finite script of rule applications over
extensional sets (the frontend maps predicate syntax to sets before any
script runs). Basic steps enter through the ensures gate only: a brl step
must reference an ensures property that passes its two proof obligations,
never a raw assertion.

The oracle is independent of the rule system: it decides whether every
weakly fair execution from the left set reaches the right set, by searching
the target-avoiding transition graph for a strongly connected component in
which every event is either disabled somewhere or can be taken internally.
Such a component, or a reachable deadlock, yields a concrete counterexample
lasso; absence of both means the property holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .commands import Command, Guard, Prim, grd_of, transition_relation
from .obligations import (
    EngineDefect,
    EnsuresProperty,
    EventSystem,
    ObligationReport,
    check_ensures,
)
from .sets import SpaceMismatchError, StateRelation, StateSet

# ---------------------------------------------------------------------------
# Property objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeadsTo:
    lhs: StateSet
    rhs: StateSet
    name: str = ""

    def __post_init__(self) -> None:
        if not self.lhs.space.same_as(self.rhs.space):
            raise SpaceMismatchError(self.lhs.space, self.rhs.space)

    def same_sets(self, other: "LeadsTo") -> bool:
        return self.lhs == other.lhs and self.rhs == other.rhs


@dataclass(frozen=True)
class Unless:
    lhs: StateSet
    rhs: StateSet
    name: str = ""

    def __post_init__(self) -> None:
        if not self.lhs.space.same_as(self.rhs.space):
            raise SpaceMismatchError(self.lhs.space, self.rhs.space)


def check_unless(sys: EventSystem, prop: Unless) -> ObligationReport:
    """lhs persists until rhs: every event keeps lhs | rhs from lhs & ~rhs."""
    if not prop.lhs.space.same_as(sys.space):
        raise SpaceMismatchError(prop.lhs.space, sys.space)
    active = prop.lhs & prop.rhs.complement()
    kept = sys.apply(prop.lhs | prop.rhs)
    name = prop.name or "unless"
    if active.is_subset(kept):
        return ObligationReport(f"UNL:{name}", "pass", refs=(name,))
    return ObligationReport(
        f"UNL:{name}",
        "fail",
        witnesses=(active - kept).members(),
        narrative="some event can leave lhs | rhs from these states",
        refs=(name,),
    )


def trivial_ensures(sys: EventSystem, name: str, p: StateSet, q: StateSet) -> EnsuresProperty:
    """The whole-system ensures used to express weakening steps; it passes
    its obligations vacuously whenever p is a subset of q."""
    return EnsuresProperty(name, frozenset(sys.labels), p, q)


# ---------------------------------------------------------------------------
# Proof scripts
# ---------------------------------------------------------------------------

RULES = ("brl", "tra", "dsj", "psp", "can", "thlto")


class RuleError(Exception):
    def __init__(self, step: str, message: str):
        super().__init__(f"step {step!r}: {message}")
        self.step = step


@dataclass(frozen=True)
class ProofStep:
    """One rule application; refs resolve to prior steps or named properties."""

    name: str
    rule: str
    refs: tuple[str, ...]
    conclusion: LeadsTo | None = None


@dataclass(frozen=True)
class ProofScript:
    name: str
    steps: tuple[ProofStep, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for step in self.steps:
            if step.name in seen:
                raise ValueError(f"duplicate step name {step.name!r}")
            seen.add(step.name)


@dataclass
class ScriptEnv:
    """Named premises a script may draw on, plus the system it runs over.

    The gates memoise each premise's verdict; a caller that has already
    checked a premise on this system may enter its verdict in advance.
    """

    system: EventSystem
    ensures: dict[str, EnsuresProperty] = field(default_factory=dict)
    unless: dict[str, Unless] = field(default_factory=dict)
    ensures_gate: dict[str, bool] = field(default_factory=dict)
    unless_gate: dict[str, bool] = field(default_factory=dict)

    def ensures_passed(self, name: str) -> bool:
        if name not in self.ensures_gate:
            self.ensures_gate[name] = check_ensures(self.system, self.ensures[name]).passed
        return self.ensures_gate[name]

    def unless_passed(self, name: str) -> bool:
        if name not in self.unless_gate:
            self.unless_gate[name] = check_unless(self.system, self.unless[name]).passed
        return self.unless_gate[name]


def apply_rule(
    env: ScriptEnv, step: ProofStep, prior: Mapping[str, LeadsTo] | None = None
) -> LeadsTo:
    """Validate one step and return its conclusion; raises RuleError."""
    prior = prior or {}

    def prior_step(ref: str) -> LeadsTo:
        if ref not in prior:
            raise RuleError(step.name, f"reference {ref!r} does not name a prior step")
        return prior[ref]

    def settle(computed: LeadsTo) -> LeadsTo:
        if step.conclusion is not None and not step.conclusion.same_sets(computed):
            raise RuleError(step.name, "declared conclusion differs from the rule's result")
        return LeadsTo(computed.lhs, computed.rhs, step.name)

    if step.rule == "brl":
        if len(step.refs) != 1:
            raise RuleError(step.name, "brl takes one ensures reference")
        ref = step.refs[0]
        if ref not in env.ensures:
            raise RuleError(step.name, f"{ref!r} does not name an ensures property")
        if not env.ensures_passed(ref):
            raise RuleError(step.name, f"ensures property {ref!r} has not passed its obligations")
        prop = env.ensures[ref]
        return settle(LeadsTo(prop.p, prop.q))

    if step.rule == "tra":
        if len(step.refs) != 2:
            raise RuleError(step.name, "tra takes two prior steps")
        a, b = prior_step(step.refs[0]), prior_step(step.refs[1])
        if a.rhs != b.lhs:
            raise RuleError(step.name, "middle sets of the transitivity premises differ")
        return settle(LeadsTo(a.lhs, b.rhs))

    if step.rule == "dsj":
        if not step.refs:
            raise RuleError(step.name, "dsj needs at least one premise")
        premises = [prior_step(r) for r in step.refs]
        rhs = premises[0].rhs
        if any(p.rhs != rhs for p in premises):
            raise RuleError(step.name, "disjunction premises must share one right set")
        lhs = premises[0].lhs
        for p in premises[1:]:
            lhs = lhs | p.lhs
        return settle(LeadsTo(lhs, rhs))

    if step.rule == "psp":
        if len(step.refs) != 2:
            raise RuleError(step.name, "psp takes a prior step and an unless reference")
        lead = prior_step(step.refs[0])
        uref = step.refs[1]
        if uref not in env.unless:
            raise RuleError(step.name, f"{uref!r} does not name an unless property")
        if not env.unless_passed(uref):
            raise RuleError(step.name, f"unless property {uref!r} has not passed its obligation")
        stable = env.unless[uref]
        lhs = lead.lhs & stable.lhs
        rhs = (lead.rhs & stable.lhs) | stable.rhs
        return settle(LeadsTo(lhs, rhs))

    if step.rule == "can":
        if len(step.refs) != 2:
            raise RuleError(step.name, "can takes two prior steps")
        if step.conclusion is None:
            raise RuleError(step.name, "can needs a declared conclusion")
        whole, repl = prior_step(step.refs[0]), prior_step(step.refs[1])
        w, r, r2 = whole.rhs, repl.lhs, repl.rhs
        if not r.is_subset(w):
            raise RuleError(step.name, "cancellation middle set is not inside the first premise")
        goal = step.conclusion
        if goal.lhs != whole.lhs:
            raise RuleError(step.name, "cancellation keeps the left set of the first premise")
        lo, hi = (w - r) | r2, w | r2
        if not (lo.is_subset(goal.rhs) and goal.rhs.is_subset(hi)):
            raise RuleError(step.name, "conclusion right set is not a cancellation of the premises")
        return settle(goal)

    if step.rule == "thlto":
        if len(step.refs) != 1:
            raise RuleError(step.name, "thlto takes one prior step")
        if step.conclusion is None:
            raise RuleError(step.name, "thlto needs a declared conclusion")
        premise = prior_step(step.refs[0])
        goal = step.conclusion
        if goal.rhs != premise.rhs:
            raise RuleError(step.name, "thlto keeps the right set of its premise")
        if not goal.lhs.is_subset(premise.lhs):
            raise RuleError(step.name, "instantiated left set exceeds the quantified premise")
        return settle(goal)

    raise RuleError(step.name, f"unknown rule {step.rule!r}")


def check_thlto(
    premise: LeadsTo, members: Sequence[StateSet], qset: StateSet | None = None
) -> list[LeadsTo]:
    """Instantiate a quantified-left premise on each member of a family.

    The premise's left set is the union of the family (intersected with the
    shared conjunct when given); every member yields its own goal.
    """
    conj = qset if qset is not None else premise.lhs.space.universe()
    goals = []
    for i, m in enumerate(members):
        lhs = m & conj
        if not lhs.is_subset(premise.lhs):
            raise ValueError(f"family member {i} exceeds the quantified premise")
        goals.append(LeadsTo(lhs, premise.rhs, f"{premise.name}[{i}]"))
    return goals


@dataclass(frozen=True)
class ScriptReport:
    verdict: str  # pass | fail
    failed_step: str | None = None
    message: str = ""
    conclusions: tuple[tuple[str, LeadsTo], ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def check_script(env: ScriptEnv, script: ProofScript, goal: LeadsTo) -> ScriptReport:
    """Run every step in order; pass iff all steps apply and the last
    conclusion equals the goal as sets."""
    prior: dict[str, LeadsTo] = {}
    order: list[tuple[str, LeadsTo]] = []
    if not script.steps:
        return ScriptReport("fail", None, "script has no steps")
    for step in script.steps:
        try:
            concl = apply_rule(env, step, prior)
        except RuleError as err:
            return ScriptReport("fail", step.name, str(err))
        prior[step.name] = concl
        order.append((step.name, concl))
    last = order[-1][1]
    if not last.same_sets(goal):
        return ScriptReport(
            "fail", order[-1][0], "final conclusion differs from the script goal"
        )
    return ScriptReport("pass", conclusions=tuple(order))


# ---------------------------------------------------------------------------
# Semantic oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FairLasso:
    """A weakly fair execution avoiding the target: a stem into a cycle,
    with a fairness justification for every event label."""

    stem: tuple[int, ...]
    cycle: tuple[int, ...]
    justifications: tuple[tuple[str, str, object], ...]  # (label, kind, witness)

    def validate(self, sys: EventSystem, p: StateSet, q: StateSet) -> None:
        """Check the lasso against the transformer-derived relation of every
        event; raises EngineDefect on the first violated condition."""
        rels = {label: transition_relation(cmd) for label, cmd in sys.events.items()}

        def require(ok: bool, message: str) -> None:
            if not ok:
                raise EngineDefect(f"invalid lasso: {message}")

        def connected(a: int, b: int) -> bool:
            return any(rel.successors_mask(a) >> b & 1 for rel in rels.values())

        require(bool(self.cycle), "cycle must be nonempty")
        walk = list(self.stem) + list(self.cycle)
        require(walk[0] in p, "lasso must start in the left set")
        for x in walk:
            require(x not in q, "lasso must avoid the right set")
        for a, b in zip(walk, walk[1:]):
            require(connected(a, b), f"no event connects {a} to {b}")
        require(connected(self.cycle[-1], self.cycle[0]), "cycle does not close")
        covered = {label for label, _, _ in self.justifications}
        require(covered == set(sys.labels), "justifications must cover every event")
        pairs = list(zip(self.cycle, self.cycle[1:])) + [(self.cycle[-1], self.cycle[0])]
        for label, kind, witness in self.justifications:
            if kind == "disabled":
                require(
                    witness in self.cycle and witness not in grd_of(sys.events[label]),
                    f"{label} is not disabled at {witness} on the cycle",
                )
                continue
            require(kind == "taken", f"unknown justification kind {kind!r}")
            s, t = witness  # type: ignore[misc]
            require((s, t) in pairs, "taken transition must appear in the cycle")
            require(bool(rels[label].successors_mask(s) >> t & 1), "transition not in the event")


@dataclass(frozen=True)
class OracleResult:
    holds: bool
    lasso: FairLasso | None = None
    deadlock_path: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _bfs_path(adj: Mapping[int, list[int]], sources: Iterable[int], target: int) -> list[int]:
    parent: dict[int, int | None] = {s: None for s in sources}
    queue = list(parent)
    i = 0
    while i < len(queue):
        x = queue[i]
        i += 1
        if x == target:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])  # type: ignore[arg-type]
            return list(reversed(path))
        for y in adj.get(x, ()):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    raise ValueError("target not reachable")


def _tarjan_sccs(nodes: list[int], adj: Mapping[int, list[int]]) -> list[list[int]]:
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent_node = work[-1][0]
                low[parent_node] = min(low[parent_node], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    x = stack.pop()
                    on_stack.discard(x)
                    comp.append(x)
                    if x == node:
                        break
                sccs.append(sorted(comp))
    return sccs


def _event_edges(cmd: Command) -> tuple[StateSet, StateRelation]:
    """One event as (guard, relation): the event moves from x to the
    relation's successors of x when x is in the guard, and is enabled at x
    when there is at least one such successor.

    The elaborator builds every event as Guard(g, Prim(rel)), read straight
    off the event; its enabled set g & dom(rel) is grd_of of that command. A
    bare Prim(rel) reads the same way with g = u. Any other command is an
    arbitrary AST: its guard and relation are extracted through the
    transformers (grd_of and transition_relation), the only exact general
    method. That relation has successors exactly on grd_of, because str
    distributes over the nonempty meet of the co-singletons u - {t}.
    """
    if isinstance(cmd, Guard) and isinstance(cmd.body, Prim):
        return cmd.guard, cmd.body.rel
    if isinstance(cmd, Prim):
        return cmd.space.universe(), cmd.rel
    return grd_of(cmd), transition_relation(cmd)


def semantic_leadsto(sys: EventSystem, p: StateSet, q: StateSet) -> OracleResult:
    """Does every weakly fair execution from p reach q?

    This is the kit's independent oracle; it never consults the rule system
    or the fixpoint machinery, and it reads the edges and guards of
    elaborated events directly (`_event_edges`). It restricts the
    transition graph to the complement of q, and looks for either a
    reachable deadlock or a reachable strongly connected component in which
    every event is disabled at some state or has a transition staying inside
    the component. Either finding refutes the property and is returned as a
    concrete witness. It makes a number of mask operations linear in the
    reachable states and edges.

    Testing the maximal components suffices under weak fairness, with no
    Emerson-Lei-style recursive decomposition. An avoiding fair run ends up
    cycling through some strongly connected set C, and each event is either
    disabled at a state of C or taken on an edge inside C. Both witnesses
    survive when C grows to the maximal component containing it, so that
    component is fair whenever any of its sub-components is. (Strong
    fairness lacks this: "enabled somewhere" grows with the component.)
    """
    if not p.space.same_as(sys.space) or not q.space.same_as(sys.space):
        raise SpaceMismatchError(p.space, sys.space)
    start = p & q.complement()
    if start.is_empty():
        return OracleResult(True)

    labels = list(sys.labels)
    rows = []
    for label in labels:
        guard, rel = _event_edges(sys.events[label])
        rows.append((label, guard.mask, rel.successors_mask))
    avoid_mask = q.complement().mask

    # reachable part of the q-avoiding graph; per state, the enabled events
    # and each event's avoiding successors in ascending order
    adj: dict[int, list[int]] = {}
    by_label: dict[int, dict[str, list[int]]] = {}
    enabled: dict[int, set[str]] = {}
    frontier = list(start.members())
    seen = set(frontier)
    while frontier:
        x = frontier.pop()
        outs: dict[str, list[int]] = {}
        here: set[str] = set()
        for label, guard_mask, succ in rows:
            m = succ(x) if guard_mask >> x & 1 else 0
            if not m:
                continue
            here.add(label)
            m &= avoid_mask
            if m:
                targets = outs[label] = []
                while m:
                    low = m & -m
                    targets.append(low.bit_length() - 1)
                    m ^= low
        by_label[x] = outs
        enabled[x] = here
        merged = sorted({t for ts in outs.values() for t in ts})
        adj[x] = merged
        for t in merged:
            if t not in seen:
                seen.add(t)
                frontier.append(t)

    nodes = sorted(seen)

    # a reachable state where no event is enabled stops the run short of q
    for x in nodes:
        if not enabled[x]:
            path = _bfs_path(adj, sorted(start.members()), x)
            return OracleResult(False, deadlock_path=tuple(path))

    for comp in _tarjan_sccs(nodes, adj):
        comp_set = set(comp)
        internal = {
            x: [t for t in adj[x] if t in comp_set] for x in comp
        }
        if not any(internal.values()):
            continue  # trivial component without a self-loop
        justification: list[tuple[str, str, object]] = []
        feasible = True
        for label in labels:
            disabled_at = [x for x in comp if label not in enabled[x]]
            if disabled_at:
                justification.append((label, "disabled", disabled_at[0]))
                continue
            taken = next(
                (
                    (x, t)
                    for x in comp
                    for t in by_label[x].get(label, ())
                    if t in comp_set
                ),
                None,
            )
            if taken is None:
                feasible = False
                break
            justification.append((label, "taken", taken))
        if not feasible:
            continue
        lasso = _build_lasso(adj, internal, comp, justification, start)
        return OracleResult(False, lasso=lasso)

    return OracleResult(True)


def _build_lasso(
    adj: Mapping[int, list[int]],
    internal: Mapping[int, list[int]],
    comp: list[int],
    justification: list[tuple[str, str, object]],
    start: StateSet,
) -> FairLasso:
    anchor = comp[0]
    walk = [anchor]

    def extend_to(x: int) -> None:
        if walk[-1] != x:
            walk.extend(_bfs_path(internal, [walk[-1]], x)[1:])

    for label, kind, witness in justification:
        if kind == "disabled":
            extend_to(witness)  # type: ignore[arg-type]
        else:
            s, t = witness  # type: ignore[misc]
            extend_to(s)
            walk.append(t)
    extend_to(anchor)
    if len(walk) == 1:
        # no requirements forced a move; take any internal edge and return
        t = internal[anchor][0]
        walk.append(t)
        extend_to(anchor)
    cycle = tuple(walk[:-1])
    starts = sorted(start.members())
    stem_path = _bfs_path(adj, starts, cycle[0])
    return FairLasso(tuple(stem_path[:-1]), cycle, tuple(justification))
