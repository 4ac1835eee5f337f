"""Shared generators and independent reference oracles for the test suite.

The reference computations here deliberately avoid the code paths they
check: the structural weakest precondition recursion never uses the pairing
identity, the fair-avoidance decision enumerates candidate components
as raw subsets instead of running the engine's SCC pass, and the refinement
simulation reference quantifies over every concrete subset using the raw
gluing pairs. The pre-image and image references, the structural
recursion's reading of a primitive command and the successor lists of
generated systems all walk the raw pairs, so none of them uses the masks
and index arrays a relation is stored as. The lasso reference reads each
edge off the events' transformers, not off their relations.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable

from faircheck import (
    Choice,
    Command,
    Dovetail,
    EnsuresProperty,
    EventSystem,
    FairLasso,
    Guard,
    Precond,
    Prim,
    RefinementPair,
    Seq,
    Skip,
    StateRelation,
    StateSet,
    StateSpace,
    grd_of,
    split_system,
    str_apply,
)
from faircheck.elaborator import elaborate
from faircheck.parser import parse_document
from faircheck.refinement import DRV_TAGS

ROOT = Path(__file__).parent.parent

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
        return Choice(space, (sub(), sub()))
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

    @cached_property
    def _successors(self) -> dict[str, dict[int, tuple[int, ...]]]:
        table: dict[str, dict[int, list[int]]] = {label: {} for label in self.rels}
        for label, rel in self.rels.items():
            for s, t in rel.pairs:
                table[label].setdefault(s, []).append(t)
        return {
            label: {s: tuple(sorted(ts)) for s, ts in rows.items()}
            for label, rows in table.items()
        }

    def enabled(self, label: str, state: int) -> bool:
        return state in self.guards[label] and bool(self.successors(label, state))

    def successors(self, label: str, state: int) -> tuple[int, ...]:
        """Read off the raw pairs, not the relation's own index."""
        return self._successors[label].get(state, ())


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


def structural_wp(c: Command) -> Callable[[StateSet], StateSet]:
    """Reference total-correctness transformer for fair-choice-free commands.

    Built once per command, so each primitive's raw pairs are read once
    however many postconditions the transformer is applied to."""
    space = c.space
    if isinstance(c, Skip):
        return lambda r: r
    if isinstance(c, Prim):
        pairs = c.rel.pairs

        def prim(r: StateSet) -> StateSet:
            bits = _bits(r.mask)
            n = len(bits)
            escapes = {s for s, t in pairs if t >= n or bits[t] == "0"}
            return space.subset(x for x in range(space.size) if x not in escapes)

        return prim
    if isinstance(c, Guard):
        body, outside = structural_wp(c.body), c.guard.complement()
        return lambda r: outside | body(r)
    if isinstance(c, Precond):
        body = structural_wp(c.body)
        return lambda r: c.require & body(r)
    if isinstance(c, Choice):
        options = [structural_wp(option) for option in c.options]

        def choice(r: StateSet) -> StateSet:
            out = space.universe()
            for option in options:
                out = out & option(r)
            return out

        return choice
    if isinstance(c, Seq):
        first, second = structural_wp(c.first), structural_wp(c.second)
        return lambda r: first(second(r))
    raise ValueError("no structural rule for fair choice")


def has_dovetail(c: Command) -> bool:
    if isinstance(c, Dovetail):
        return True
    if isinstance(c, (Guard, Precond)):
        return has_dovetail(c.body)
    if isinstance(c, Choice):
        return any(has_dovetail(option) for option in c.options)
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
        cmd = Choice(space, (sub(), sub())) if rng.random() < 0.5 else Seq(sub(), sub())
        events[label] = cmd
        wp = structural_wp(cmd)
        guards[label] = wp(space.empty()).complement()
        rels[label] = StateRelation(
            space,
            space,
            [
                (x, t)
                for t in range(size)
                for x in wp(space.singleton(t).complement()).complement()
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


class InvalidLasso(Exception):
    """A lasso that `check_lasso` rejects."""


def check_lasso(lasso: FairLasso, system: EventSystem, p: StateSet, q: StateSet) -> None:
    """Check a lasso against the events' transformers, one str evaluation
    per event and edge: t is an e-successor of x iff x is in grd(e) and
    outside str(e)(u - {t}). Raises InvalidLasso on the first violated
    condition."""

    def require(ok: bool, message: str) -> None:
        if not ok:
            raise InvalidLasso(f"invalid lasso: {message}")

    def connected(x: int, t: int, labels: Iterable[str] = system.labels) -> bool:
        avoid_t = system.space.singleton(t).complement()
        events = [system.events[label] for label in labels]
        return any(x in grd_of(e) and x not in str_apply(e, avoid_t) for e in events)

    cycle = lasso.cycle
    require(bool(cycle), "cycle must be nonempty")
    walk = list(lasso.stem) + list(cycle)
    require(walk[0] in p, "lasso must start in the left set")
    for x in walk:
        require(x not in q, "lasso must avoid the right set")
    for a, b in zip(walk, walk[1:]):
        require(connected(a, b), f"no event connects {a} to {b}")
    require(connected(cycle[-1], cycle[0]), "cycle does not close")
    covered = {label for label, _, _ in lasso.justifications}
    require(covered == set(system.labels), "justifications must cover every event")
    pairs = list(zip(cycle, cycle[1:])) + [(cycle[-1], cycle[0])]
    for label, kind, witness in lasso.justifications:
        if kind == "disabled":
            require(
                witness in cycle and witness not in grd_of(system.events[label]),
                f"{label} is not disabled at {witness} on the cycle",
            )
            continue
        require(kind == "taken", f"unknown justification kind {kind!r}")
        s, t = witness  # type: ignore[misc]
        require((s, t) in pairs, "taken transition must appear in the cycle")
        require(connected(s, t, (label,)), "transition not in the event")


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
    glued: dict[int, set[int]] = {x: set() for x in range(u.size)}
    for y, x in pair.gluing.pairs:
        glued[x].add(y)
    abstract_wp, concrete_wp = structural_wp(abstract_cmd), structural_wp(concrete_cmd)

    def box(s: StateSet) -> StateSet:
        inside = set(s.members())
        return u.subset(x for x in range(u.size) if glued[x] <= inside)

    gaps: set[tuple[tuple[int, ...], int]] = set()
    for mask in range(1 << v.size):
        s = StateSet(v, mask)
        lhs = abstract_wp(box(s))
        rhs = box(concrete_wp(s))
        gaps.update((s.members(), x) for x in (lhs - rhs).members())
    return gaps


def cosingleton_simulation_gaps(pair: RefinementPair, concrete_label: str) -> set[int]:
    """Every abstract state at which the simulation condition of one concrete
    event fails at the universe or at a co-singleton u - {t} of the concrete
    space. Both sides of the condition are conjunctive in the concrete
    subset, and a subset other than the universe is the meet of the
    co-singletons it misses, so for conjunctive events this is the set of
    abstract states of `exhaustive_simulation_gaps`, at n+1 subsets."""
    v, u = pair.concrete.space, pair.abstract.space
    target = pair.refines[concrete_label]
    abstract_cmd = Skip(u) if target is None else pair.abstract.events[target]
    concrete_cmd = pair.concrete.events[concrete_label]
    universe = v.universe()
    glued = pair.gluing.pairs

    def box(s: StateSet) -> StateSet:
        """The abstract states glued only to concrete states of s."""
        return StateSet(u, pair_image(glued, s.complement().mask)).complement()

    gaps: set[int] = set()
    for s in [universe] + [universe - v.singleton(t) for t in range(v.size)]:
        gaps.update((str_apply(abstract_cmd, box(s)) - box(str_apply(concrete_cmd, s))).members())
    return gaps


# ---------------------------------------------------------------------------
# Preservation theorem: the derived inclusions, computed
# ---------------------------------------------------------------------------


def refinement_groups(
    pair: RefinementPair, prop: EnsuresProperty
) -> tuple[Command, Command, Command]:
    """Concrete (helpful, refining-rest, new) choices for one property."""
    helpful = pair.helpful_labels(prop)
    new = frozenset(l for l, a in pair.refines.items() if a is None)
    rest = frozenset(pair.refines) - helpful - new
    pick = pair.concrete.choice
    return pick(helpful), pick(rest), pick(new)


def derived_inclusion_failures(pair: RefinementPair, prop: EnsuresProperty) -> list[str]:
    """The tags of `refinement.DRV_TAGS` whose inclusion does not hold,
    computed with `str_apply` over the three concrete groups. Once the
    abstract ensures property and every event refinement pass, this is
    empty: `derived_inclusions` reports them as passing without computing
    them."""
    helpful, rest, new = refinement_groups(pair, prop)
    v = pair.concrete.space.universe()
    p2, q2 = pair.concrete_of(prop.p), pair.concrete_of(prop.q)
    glued_active = pair.concrete_of(prop.p & prop.q.complement())
    inclusions = {
        "rest-total": (v, str_apply(rest, v)),
        "helpful-total": (v, str_apply(helpful, v)),
        "new-total": (v, str_apply(new, v)),
        "rest-keeps": (glued_active, str_apply(rest, p2 | q2)),
        "helpful-establishes": (glued_active, str_apply(helpful, q2)),
        "new-keeps": (glued_active, str_apply(new, p2 | q2)),
    }
    assert tuple(inclusions) == DRV_TAGS
    return [tag for tag, (small, big) in inclusions.items() if not small.is_subset(big)]


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
            abstract_targets = rel_u.successors(to_abstract[y])
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


# ---------------------------------------------------------------------------
# Relations: per-pair references and relation families
# ---------------------------------------------------------------------------


def _bits(mask: int) -> str:
    """The bits of mask as a string whose character i is bit i, read once
    so that a probe costs one index instead of a shift of the whole mask."""
    return bin(mask)[:1:-1]


def _mask(states: set[int]) -> int:
    """The mask of a set of states, built from one string of digits."""
    digits = bytearray(b"0" * (max(states, default=0) + 1))
    for s in states:
        digits[-1 - s] = ord("1")
    return int(digits, 2)


def pair_pre_image(pairs: Iterable[tuple[int, int]], mask: int) -> int:
    """Sources of the pairs whose target bit is set in mask, pair by pair."""
    bits = _bits(mask)
    n = len(bits)
    return _mask({s for s, t in pairs if t < n and bits[t] == "1"})


def pair_image(pairs: Iterable[tuple[int, int]], mask: int) -> int:
    """Targets of the pairs whose source bit is set in mask, pair by pair."""
    bits = _bits(mask)
    n = len(bits)
    return _mask({t for s, t in pairs if s < n and bits[s] == "1"})


def kernel_relations(rng: random.Random) -> list[tuple[str, StateRelation]]:
    """Seeded relations of every shape that a relation's masks and index
    arrays distinguish, at sizes below and above one machine word, and large
    enough that a mask needs more than two edges."""
    out: list[tuple[str, StateRelation]] = []
    for n in (1, 5, 70, 200):
        space = StateSpace(f"k{n}", n)

        def rel(kind: str, pairs) -> None:
            out.append((f"{kind}/{n}", StateRelation(space, space, pairs)))

        rel("empty", [])
        rel("identity", [(i, i) for i in range(n)])
        rel("complete", [(s, t) for s in range(n) for t in range(n)])
        for d in (1, 3, -1, -7, n - 1, 1 - n):
            rel(f"shift{d:+d}", [(s, s + d) for s in range(n) if 0 <= s + d < n])
        rel("wrap", [(s, (s + 1) % n) for s in range(n)])
        target = rng.randrange(n)
        rel("one-target", [(s, target) for s in range(n)])
        for k in (1, 3):
            rel(f"random-{k}-out", [(s, rng.randrange(n)) for s in range(n) for _ in range(k)])
        guard = [s for s in range(n) if rng.random() < 0.7]
        stride = rng.randrange(1, max(2, n // 3))
        rel(
            "ring-events",
            [(s, s + stride) for s in guard if s + stride < n]
            + [(s, s - 1) for s in guard if s >= 1]
            + [(s, 0) for s in guard if rng.random() < 0.2],
        )
        rel("sparse-random", [(s, t) for s in range(n) for t in range(n) if rng.random() < 0.02])
    # from 3072 states on a mask needs more than two edges, so short shifts
    # and targets with few sources go to the index remainder
    n = 12000
    space = StateSpace(f"k{n}", n)
    for kind, pairs in (
        ("wrap", [(s, (s + 1) % n) for s in range(n)]),
        ("short-shift", [(s, s + 3) for s in range(0, 40, 5)] + [(s, s - 2) for s in range(2, n)]),
        ("few-targets", [(s, s % 7 * 1000) for s in range(n)] + [(s, n - 1) for s in range(0, n, 2400)]),
        ("random-3-out", [(s, rng.randrange(n)) for s in range(n) for _ in range(3)]),
        ("ring-events", [(s, s + 1) for s in range(n - 1) if rng.random() < 0.7]
         + [(s, s - 40) for s in range(40, n) if rng.random() < 0.5]
         + [(s, n - 1) for s in range(n) if rng.random() < 0.05]),
    ):
        out.append((f"{kind}/{n}", StateRelation(space, space, pairs)))
    for m, k in ((1, 3), (7, 3), (12, 5), (90, 40), (40, 90), (2000, 700)):
        concrete, abstract = StateSpace(f"c{m}", m), StateSpace(f"a{k}", k)
        total = [(y, rng.randrange(k)) for y in range(m)]
        out.append((f"gluing/{m}->{k}", StateRelation(concrete, abstract, total)))
        extra = [(y, rng.randrange(k)) for y in range(m) if rng.random() < 0.5]
        out.append((f"gluing-multi/{m}->{k}", StateRelation(concrete, abstract, total + extra)))
        diagonal = [(y, y % k) for y in range(m)]
        out.append((f"gluing-mod/{m}->{k}", StateRelation(concrete, abstract, diagonal)))
    return out


def _load_perfbench(name: str, relative: str):
    """Import a perfbench module by file path, so perfbench needs no package
    or path setup. reference.py imports the workloads module by the name
    "workloads", so that is the name it is registered under."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / relative)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def load_workloads():
    return _load_perfbench("workloads", "workloads.py")


def load_calibrate():
    """perfbench's calibration script: `ring_text(n)` is Ring(n)."""
    return _load_perfbench("perfbench_calibrate", "calibrate.py")


def load_reference():
    """perfbench's engine-free reference: `reference_verdicts(model)` decides
    every obligation of a `workloads.Model` by brute force."""
    load_workloads()
    return _load_perfbench("perfbench_reference", "tests/reference.py")


def model_texts() -> list[tuple[str, str]]:
    """The fixtures under models/ and three smoke-size models of every
    benchmark workload, as (name, model-language text)."""
    texts = [(path.name, path.read_text()) for path in sorted((ROOT / "models").glob("*.fb"))]
    workloads = load_workloads()
    for name, workload in sorted(workloads.WORKLOADS.items()):
        stream = iter(workloads.ModelStream(workload, 0, workload.smoke))
        texts.extend((f"{name}-{i}", next(stream).text()) for i in range(3))
    return texts


def model_relations() -> list[tuple[str, StateRelation]]:
    """Every event relation and gluing relation of the models of model_texts()."""
    out: list[tuple[str, StateRelation]] = []
    for name, text in model_texts():
        result = parse_document(text)
        assert result.ok, (name, result.diagnostics)
        model = elaborate(result.document)
        owners = [*model.systems.values(), *(r.concrete for r in model.refinements.values())]
        for owner in owners:
            for label, event in owner.system.events.items():
                assert isinstance(event, Guard) and isinstance(event.body, Prim)
                out.append((f"{name}:{owner.name}.{label}", event.body.rel))
        for refinement in model.refinements.values():
            out.append((f"{name}:{refinement.name}.gluing", refinement.pair.gluing))
    return out
