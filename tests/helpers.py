"""Shared generators and independent reference oracles for the test suite.

The reference computations here deliberately avoid the code paths they
check: the structural weakest precondition recursion never uses the pairing
identity, the fair-avoidance decision enumerates candidate components
as raw subsets instead of running the engine's SCC pass, and the refinement
simulation reference quantifies over every concrete subset using the raw
gluing pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from faircheck import (
    Choice,
    Command,
    Dovetail,
    EnsuresProperty,
    EventSystem,
    Guard,
    ObligationReport,
    Precond,
    Prim,
    RefinementPair,
    Seq,
    Skip,
    StateRelation,
    StateSet,
    StateSpace,
    check_all_event_refinements,
    check_ensures,
    check_sap,
    grd_of,
    split_system,
    str_apply,
)

# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------


def random_relation(
    rng: random.Random, space: StateSpace, total: bool = False, density: float = 0.4
) -> StateRelation:
    pairs = []
    for s in range(space.size):
        succs = [t for t in range(space.size) if rng.random() < density]
        if total and not succs:
            succs = [rng.randrange(space.size)]
        pairs.extend((s, t) for t in succs)
    return StateRelation(space, space, pairs)


def random_subset(rng: random.Random, space: StateSpace) -> StateSet:
    return StateSet(space, rng.getrandbits(space.size))


def random_command(
    rng: random.Random,
    space: StateSpace,
    depth: int = 3,
    total_only: bool = False,
    allow_dovetail: bool = True,
) -> Command:
    """A random command AST. With total_only no preconditions appear and all
    primitive relations are left-total, so the result always terminates."""
    if depth <= 0:
        if rng.random() < 0.25:
            return Skip(space)
        return Prim(random_relation(rng, space, total=total_only))
    kinds = ["skip", "prim", "guard", "choice", "seq"]
    if not total_only:
        kinds.append("precond")
    if allow_dovetail:
        kinds.append("dovetail")
    kind = rng.choice(kinds)
    sub = lambda: random_command(rng, space, depth - 1, total_only, allow_dovetail)
    if kind == "skip":
        return Skip(space)
    if kind == "prim":
        return Prim(random_relation(rng, space, total=total_only))
    if kind == "guard":
        return Guard(random_subset(rng, space), sub())
    if kind == "precond":
        return Precond(random_subset(rng, space), sub())
    if kind == "choice":
        return Choice(sub(), sub())
    if kind == "seq":
        return Seq(sub(), sub())
    return Dovetail(sub(), sub())


@dataclass
class GenSystem:
    """A generated event system along with its raw guards and relations, so
    reference oracles never have to ask the engine for them."""

    system: EventSystem
    guards: dict[str, StateSet]
    rels: dict[str, StateRelation]

    @property
    def space(self) -> StateSpace:
        return self.system.space

    def enabled(self, label: str, state: int) -> bool:
        return state in self.guards[label] and self.rels[label].successors_mask(state) != 0

    def successors(self, label: str, state: int) -> tuple[int, ...]:
        return self.rels[label].successors(state).members()


def random_event(rng: random.Random, space: StateSpace) -> tuple[StateSet, StateRelation]:
    """A guarded event: every guard state has at least one successor."""
    guard = random_subset(rng, space)
    pairs = []
    for s in guard.members():
        count = 1 + (rng.random() < 0.3)
        targets = {rng.randrange(space.size) for _ in range(count)}
        pairs.extend((s, t) for t in targets)
    return guard, StateRelation(space, space, pairs)


def random_system(
    rng: random.Random, size: int, n_events: int, space_id: str = "u"
) -> GenSystem:
    space = StateSpace(space_id, size)
    guards: dict[str, StateSet] = {}
    rels: dict[str, StateRelation] = {}
    events: dict[str, Command] = {}
    for i in range(n_events):
        label = f"e{i}"
        guard, rel = random_event(rng, space)
        guards[label] = guard
        rels[label] = rel
        events[label] = Guard(guard, Prim(rel))
    return GenSystem(EventSystem(space, events), guards, rels)


def ensures_closure(
    gsys: GenSystem, helpful: frozenset[str], q: StateSet, p0: StateSet
) -> EnsuresProperty:
    """Shrink p0 to the largest p below it for which both ensures
    obligations hold, by removing offending states until stable."""
    sys = gsys.system
    helpful_cmd, _ = split_system(sys, helpful)
    good_helper = grd_of(helpful_cmd) & str_apply(helpful_cmd, q)
    p = p0
    while True:
        keep = q | (sys.apply(p | q) & good_helper)
        nxt = p & keep
        if nxt == p:
            return EnsuresProperty("gen", helpful, p, q)
        p = nxt


# ---------------------------------------------------------------------------
# Independent weakest-precondition recursion (no pairing identity)
# ---------------------------------------------------------------------------


def structural_wp(c: Command, r: StateSet) -> StateSet:
    """Reference total-correctness transformer for fair-choice-free commands."""
    space = c.space
    if isinstance(c, Skip):
        return r
    if isinstance(c, Prim):
        members = [
            x
            for x in range(space.size)
            if c.rel.successors_mask(x) & ~r.mask & space.full_mask == 0
        ]
        return space.subset(members)
    if isinstance(c, Guard):
        return c.guard.complement() | structural_wp(c.body, r)
    if isinstance(c, Precond):
        return c.require & structural_wp(c.body, r)
    if isinstance(c, Choice):
        return structural_wp(c.left, r) & structural_wp(c.right, r)
    if isinstance(c, Seq):
        return structural_wp(c.first, structural_wp(c.second, r))
    raise ValueError("no structural rule for fair choice")


def has_dovetail(c: Command) -> bool:
    if isinstance(c, Dovetail):
        return True
    if isinstance(c, (Guard, Precond)):
        return has_dovetail(c.body)
    if isinstance(c, Choice):
        return has_dovetail(c.left) or has_dovetail(c.right)
    if isinstance(c, Seq):
        return has_dovetail(c.first) or has_dovetail(c.second)
    return False


def ast_system(rng: random.Random, size: int, n_events: int, space_id: str = "u") -> GenSystem:
    """A system whose events are total, fair-choice-free AST commands
    (a choice or a sequence of random subcommands), with raw guards and
    relations derived from `structural_wp`: t is a successor of x iff x
    cannot establish u - {t}, and x is enabled iff it cannot establish the
    empty set."""
    space = StateSpace(space_id, size)
    events: dict[str, Command] = {}
    guards: dict[str, StateSet] = {}
    rels: dict[str, StateRelation] = {}
    for i in range(n_events):
        label = f"e{i}"
        sub = lambda: random_command(rng, space, 2, total_only=True, allow_dovetail=False)
        cmd = Choice(sub(), sub()) if rng.random() < 0.5 else Seq(sub(), sub())
        events[label] = cmd
        guards[label] = structural_wp(cmd, space.empty()).complement()
        rels[label] = StateRelation(
            space,
            space,
            [
                (x, t)
                for t in range(size)
                for x in structural_wp(cmd, space.singleton(t).complement()).complement()
            ],
        )
    return GenSystem(EventSystem(space, events), guards, rels)


# ---------------------------------------------------------------------------
# Independent fair-avoidance decision (subset enumeration)
# ---------------------------------------------------------------------------


def _reachable_avoiding(gsys: GenSystem, p: StateSet, q: StateSet) -> set[int]:
    frontier = list((p & q.complement()).members())
    seen = set(frontier)
    while frontier:
        x = frontier.pop()
        for label in gsys.system.labels:
            if not gsys.enabled(label, x):
                continue
            for t in gsys.successors(label, x):
                if t not in q and t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return seen


def fair_avoidance_exists(gsys: GenSystem, p: StateSet, q: StateSet) -> bool:
    """Reference decision: can some weakly fair execution from p avoid q
    forever (or stop short of it)? Enumerates every candidate component."""
    if (p & q.complement()).is_empty():
        return False
    reach = _reachable_avoiding(gsys, p, q)
    labels = list(gsys.system.labels)
    for x in reach:
        if all(not gsys.enabled(label, x) for label in labels):
            return True  # reachable stuck state
    nodes = sorted(reach)
    internal_succ = {
        x: {
            t
            for label in labels
            if gsys.enabled(label, x)
            for t in gsys.successors(label, x)
            if t in reach and t not in q
        }
        for x in nodes
    }
    for size in range(1, len(nodes) + 1):
        for comp in combinations(nodes, size):
            cset = set(comp)
            if not _strongly_connected_with_edge(cset, internal_succ):
                continue
            if all(_event_fair_in(gsys, label, cset) for label in labels):
                return True
    return False


def check_deadlock_path(gsys: GenSystem, p: StateSet, q: StateSet, path: tuple[int, ...]) -> None:
    """A deadlock path starts in p - q, avoids q, moves along an edge of
    some enabled event at every step, and ends where no event is enabled."""
    labels = gsys.system.labels
    assert path and path[0] in p and path[0] not in q
    assert all(x not in q for x in path)
    for a, b in zip(path, path[1:]):
        assert any(gsys.enabled(l, a) and b in gsys.successors(l, a) for l in labels)
    assert not any(gsys.enabled(l, path[-1]) for l in labels)


def _strongly_connected_with_edge(cset: set[int], succ: dict[int, set[int]]) -> bool:
    start = next(iter(cset))
    inside = {x: succ[x] & cset for x in cset}
    if all(not s for s in inside.values()):
        return False
    if len(cset) == 1:
        return start in inside[start]
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for t in inside[x]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    if seen != cset:
        return False
    rev = {x: {y for y in cset if x in inside[y]} for x in cset}
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for t in rev[x]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen == cset


def _event_fair_in(gsys: GenSystem, label: str, cset: set[int]) -> bool:
    if any(not gsys.enabled(label, x) for x in cset):
        return True
    return any(t in cset for x in cset for t in gsys.successors(label, x))


def bounded_fair_lasso_exists(
    gsys: GenSystem, p: StateSet, q: StateSet, bound: int = 8
) -> bool:
    """Explicit labeled-walk search for a fair avoiding lasso (or a stuck
    state) of bounded length; exponential, only for very small systems."""
    labels = list(gsys.system.labels)

    def fair_cycle(path: list[tuple[int, str | None]], at: int) -> bool:
        cycle = path[at:]
        states = [s for s, _ in cycle]
        taken = {lbl for _, lbl in cycle if lbl is not None}
        for label in labels:
            if all(gsys.enabled(label, s) for s in states) and label not in taken:
                return False
        return True

    def walk(path: list[tuple[int, str | None]]) -> bool:
        state = path[-1][0]
        if all(not gsys.enabled(label, state) for label in labels):
            return True
        if len(path) >= bound:
            return False
        for label in labels:
            if not gsys.enabled(label, state):
                continue
            for t in gsys.successors(label, state):
                if t in q:
                    continue
                marked = path[:-1] + [(state, label), (t, None)]
                closing = [i for i, (s, _) in enumerate(path) if s == t]
                if closing and fair_cycle(marked, closing[0]):
                    return True
                if walk(marked):
                    return True
        return False

    for start in (p & q.complement()).members():
        if walk([(start, None)]):
            return True
    return False


# ---------------------------------------------------------------------------
# Exhaustive refinement simulation reference (every concrete subset)
# ---------------------------------------------------------------------------


def exhaustive_simulation_gaps(
    pair: RefinementPair, concrete_label: str
) -> set[tuple[tuple[int, ...], int]]:
    """Every (concrete subset members, abstract state) at which the
    simulation condition of one concrete event fails, over all 2^n concrete
    subsets. The glued box is computed from the raw gluing pairs and both
    transformers by `structural_wp`, so events must be fair-choice-free."""
    v, u = pair.concrete.space, pair.abstract.space
    target = pair.refines[concrete_label]
    abstract_cmd = Skip(u) if target is None else pair.abstract.events[target]
    concrete_cmd = pair.concrete.events[concrete_label]
    glued = {x: {y for y, x2 in pair.gluing.pairs if x2 == x} for x in range(u.size)}

    def box(s: StateSet) -> StateSet:
        inside = set(s.members())
        return u.subset(x for x in range(u.size) if glued[x] <= inside)

    gaps: set[tuple[tuple[int, ...], int]] = set()
    for mask in range(1 << v.size):
        s = StateSet(v, mask)
        lhs = structural_wp(abstract_cmd, box(s))
        rhs = box(structural_wp(concrete_cmd, s))
        gaps.update((s.members(), x) for x in (lhs - rhs).members())
    return gaps


def refinement_gates(pair: RefinementPair, prop: EnsuresProperty) -> list[ObligationReport]:
    """The gate reports `check_refined_ensures` reads: the abstract ensures
    check, every event simulation and safety preservation."""
    return [
        check_ensures(pair.abstract, prop),
        *check_all_event_refinements(pair),
        check_sap(pair, prop),
    ]


# ---------------------------------------------------------------------------
# Refinement generation by state splitting
# ---------------------------------------------------------------------------


def split_refinement(
    rng: random.Random,
    gsys: GenSystem,
    n_new_events: int = 1,
    space_id: str = "v",
) -> tuple[RefinementPair, dict[int, int]]:
    """Split abstract states into one or two concrete copies each, lift the
    events along the split (keeping guards unstrengthened), and add
    stuttering new events inside the fibers."""
    u = gsys.space
    fiber: dict[int, list[int]] = {}
    to_abstract: dict[int, int] = {}
    next_index = 0
    for x in range(u.size):
        copies = 1 + (rng.random() < 0.5)
        fiber[x] = list(range(next_index, next_index + copies))
        for y in fiber[x]:
            to_abstract[y] = x
        next_index += copies
    v = StateSpace(space_id, next_index)
    gluing = StateRelation(v, u, [(y, x) for y, x in to_abstract.items()])

    events: dict[str, Command] = {}
    refines: dict[str, str | None] = {}
    for label in gsys.system.labels:
        guard_u = gsys.guards[label]
        rel_u = gsys.rels[label]
        guard_members = [y for y in range(v.size) if to_abstract[y] in guard_u]
        pairs = []
        for y in guard_members:
            abstract_targets = rel_u.successors(to_abstract[y]).members()
            if not abstract_targets:
                continue
            lifted = [t for x2 in abstract_targets for t in fiber[x2]]
            chosen = {c for c in lifted if rng.random() < 0.6}
            if not chosen:
                chosen = {rng.choice(lifted)}
            pairs.extend((y, t) for t in chosen)
        events[label + "c"] = Guard(v.subset(guard_members), Prim(StateRelation(v, v, pairs)))
        refines[label + "c"] = label
    for k in range(n_new_events):
        guard_members = [y for y in range(v.size) if len(fiber[to_abstract[y]]) > 1]
        pairs = []
        for y in guard_members:
            mates = [t for t in fiber[to_abstract[y]]]
            pairs.append((y, rng.choice(mates)))
        if not guard_members:
            continue
        label = f"h{k}"
        events[label] = Guard(v.subset(guard_members), Prim(StateRelation(v, v, pairs)))
        refines[label] = None
    concrete = EventSystem(v, events)
    pair = RefinementPair(gsys.system, concrete, gluing, refines)
    return pair, to_abstract
