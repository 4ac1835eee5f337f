"""Seeded model generators for the faircheck benchmark.

Each workload has one fixed model size; the seed varies only structure.
A generator returns a `Model`: a structured description that renders to
model-language text, together with the verdict it expects for every
obligation id of `faircheck report`. The expected verdicts are derived in
closed form from the structure the generator chose, never by running
faircheck; `tests/reference.py` re-derives them by brute force at smoke
sizes.

Every model of one run differs in structure: faircheck keeps global
`lru_cache`s keyed by command value, so a repeated model would be served
from the previous model's entries. `ModelStream` asserts distinctness by
hashing the rendered text.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

PASS, FAIL, BLOCKED = "pass", "fail", "hypothesis-failed"


# ---------------------------------------------------------------------------
# Model description and rendering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """A guarded event. `updates` are simultaneous assignments; with `any_of`
    = (binder, lo, hi, where) they sit inside one `any` block."""

    name: str
    guard: str
    updates: tuple[tuple[str, str], ...]
    any_of: tuple[str, int, int, str] | None = None
    refines: str | None = None  # concrete events: abstract event name or "skip"


@dataclass(frozen=True)
class System:
    name: str
    variables: tuple[tuple[str, int, int], ...]
    events: tuple[Event, ...]
    refines: str | None = None  # set for a refinement block
    gluing: str | None = None


@dataclass(frozen=True)
class Property:
    name: str
    kind: str  # ensures | unless | leadsto
    owner: str
    frm: str
    to: str
    helpful: tuple[str, ...] = ()


@dataclass(frozen=True)
class Step:
    name: str
    rule: str
    refs: tuple[str, ...]
    frm: str | None = None
    to: str | None = None


@dataclass(frozen=True)
class Proof:
    name: str
    goal: str
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Model:
    systems: tuple[System, ...]
    properties: tuple[Property, ...]
    expected: dict[str, str]
    proofs: tuple[Proof, ...] = ()

    def text(self) -> str:
        out: list[str] = []
        for system in self.systems:
            out.extend(_render_system(system))
            for prop in self.properties:
                if prop.owner == system.name:
                    out.append(_render_property(prop))
        for proof in self.proofs:
            out.append(f"proof {proof.name} goal {proof.goal}")
            out.extend(f"  {_render_step(step)}" for step in proof.steps)
            out.append("end")
        return "\n".join(out) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()

    @property
    def expected_exit(self) -> int:
        return 0 if all(v == PASS for v in self.expected.values()) else 1


def _render_updates(event: Event) -> str:
    body = " ; ".join(f"{var} := {expr}" for var, expr in event.updates)
    if event.any_of is None:
        return body
    binder, lo, hi, where = event.any_of
    return f"any {binder} : {lo}..{hi} where {where} then {body} end"


def _render_system(system: System) -> list[str]:
    if system.refines is None:
        lines = [f"system {system.name}"]
    else:
        lines = [f"refinement {system.name} refines {system.refines}"]
    lines.extend(f"  var {name} : {lo}..{hi}" for name, lo, hi in system.variables)
    if system.gluing is not None:
        lines.append(f"  gluing {system.gluing}")
    for e in system.events:
        head = f"  event {e.name}"
        if e.refines is not None:
            head += f" refines {e.refines}"
        lines.append(f"{head} when {e.guard} then {_render_updates(e)} end")
    lines.append("end")
    return lines


def _render_property(prop: Property) -> str:
    kind = prop.kind
    if kind == "ensures":
        kind = "ensures helpful {" + ", ".join(prop.helpful) + "}"
    return f"property {prop.name} {kind} from {prop.frm} to {prop.to}"


def _render_step(step: Step) -> str:
    text = f"step {step.name} {step.rule}"
    if step.refs:
        text += " " + " ".join(step.refs)
    if step.frm is not None:
        text += f" from {step.frm} to {step.to}"
    return text


# ---------------------------------------------------------------------------
# Ring: var x : 0..n, target n, dead state n-1 (oracle-ring, wide-ring)
# ---------------------------------------------------------------------------


def _strides_connect(live: int, a: int, b: int) -> bool:
    """Is 0..live-1 strongly connected under x -> x+a and x -> x-b?"""
    def reach(step: Callable[[int], list[int]]) -> int:
        seen, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for y in step(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen)

    fwd = lambda x: [y for y in (x + a, x - b) if 0 <= y < live]
    bwd = lambda x: [y for y in (x - a, x + b) if 0 <= y < live]
    return reach(fwd) == live and reach(bwd) == live


def ring_model(rng: random.Random, n: int, variant: str, leadsto: bool) -> Model:
    """Live states 0..n-2 move by +a (inc) and -b (back); done jumps to the
    target n. Variants: "pass"; "lasso" (done disabled below a seeded cut,
    so a fair cycle avoids the target); "deadlock" (leak drops one seeded
    live state into the dead state n-1, where nothing is enabled)."""
    live = n - 1
    cap = min(40, max(2, live // 3))
    while True:
        a, b = rng.randint(1, cap), rng.randint(1, cap)
        if math.gcd(a, b) == 1 and _strides_connect(live, a, b):
            break
    # A low cut keeps done's relation, and so the model's cost, close to the
    # other variants'; strides and the leak state carry the variation.
    cut = rng.randint(1, min(live - 1, 10)) if variant == "lasso" else 0
    leak = rng.randrange(live) if variant == "deadlock" else None

    events = [
        Event("inc", f"x < {n - 1 - a}", (("x", f"x + {a}"),)),
        Event("back", f"x >= {b} and x < {n - 1}", (("x", f"x - {b}"),)),
        Event("done", f"x >= {cut} and x < {n - 1}" if cut else f"x < {n - 1}",
              (("x", str(n)),)),
    ]
    if leak is not None:
        events.append(Event("leak", f"x = {leak}", (("x", str(n - 1)),)))
    system = System("ring", (("x", 0, n),), tuple(events))

    p, q = f"x < {n - 1}", f"x = {n}"
    props = [
        Property("E", "ensures", "ring", p, q, ("done",)),
        Property("U", "unless", "ring", p, q),
    ]
    keeps = leak is None
    enabled = cut == 0
    expected = {
        "WF0:E": PASS if keeps else FAIL,
        "WF1:E": PASS if enabled else FAIL,
        "ENS:E": PASS if keeps and enabled else FAIL,
        "UNL:U": PASS if keeps else FAIL,
    }
    if leadsto:
        props.append(Property("L", "leadsto", "ring", p, q))
        expected["ORACLE:L"] = PASS if keeps and enabled else FAIL
    return Model((system,), tuple(props), expected)


# ---------------------------------------------------------------------------
# Token ring of k processes (token-product)
# ---------------------------------------------------------------------------


def token_model(rng: random.Random, k: int, variant: str) -> Model:
    """k processes with local state s_i in {idle, waiting, critical} and a
    shared token, 3^k * k states and four events per process. The seed
    picks the ring order, the declaration order of the processes and, per
    variant, one process whose pass or exit guard drops its token test."""
    ring = list(range(k))
    rng.shuffle(ring)
    nx = {ring[i]: ring[(i + 1) % k] for i in range(k)}
    order = list(range(k))
    rng.shuffle(order)
    broken_pass = {rng.randrange(k)} if variant == "broken-pass" else set()
    broken_exit = {rng.randrange(k)} if variant == "broken-exit" else set()

    variables = [("tok", 0, k - 1)] + [(f"s{i}", 0, 2) for i in order]
    events: list[Event] = []
    for i in order:
        s, nxt = f"s{i}", str(nx[i])
        events.append(Event(f"req{i}", f"{s} = 0", ((s, "1"),)))
        events.append(Event(f"enter{i}", f"{s} = 1 and tok = {i}", ((s, "2"),)))
        exit_guard = f"{s} = 2" if i in broken_exit else f"{s} = 2 and tok = {i}"
        events.append(Event(f"exit{i}", exit_guard, ((s, "0"), ("tok", nxt))))
        pass_guard = f"tok = {i}" if i in broken_pass else f"{s} = 0 and tok = {i}"
        events.append(Event(f"pass{i}", pass_guard, (("tok", nxt),)))
    system = System("tokens", tuple(variables), tuple(events))

    props: list[Property] = []
    expected: dict[str, str] = {}
    for i in order:
        s = f"s{i}"
        # A broken exit_j (j != i) moves the token to nx(j) from states of
        # i's properties; that leaves them unless nx(j) is i itself.
        stray = any(j != i and nx[j] != i for j in broken_exit)
        props.append(Property(f"EN{i}", "ensures", "tokens",
                              f"{s} = 1 and tok = {i}", f"{s} = 2", (f"enter{i}",)))
        # A broken pass_i hands the token on while i is waiting.
        en = FAIL if stray or i in broken_pass else PASS
        expected.update({f"WF0:EN{i}": en, f"WF1:EN{i}": PASS, f"ENS:EN{i}": en})
        props.append(Property(f"EP{i}", "ensures", "tokens",
                              f"{s} = 0 and tok = {i}", f"tok = {nx[i]} or {s} = 1",
                              (f"pass{i}",)))
        ep = FAIL if stray else PASS
        expected.update({f"WF0:EP{i}": ep, f"WF1:EP{i}": PASS, f"ENS:EP{i}": ep})
        props.append(Property(f"UW{i}", "unless", "tokens", f"{s} = 1", f"{s} = 2"))
        expected[f"UNL:UW{i}"] = PASS
    return Model((system,), tuple(props), expected)


# ---------------------------------------------------------------------------
# Split refinement with a scheduling flag (split-refine)
# ---------------------------------------------------------------------------


def _permutation_where(var: str, binder: str, sigma: dict[int, int]) -> str:
    return " or ".join(f"({var} = {x} and {binder} = {y})" for x, y in sorted(sigma.items()))


def refine_model(rng: random.Random, m: int, variant: str) -> Model:
    """Abstract `chain`: x in 0..m-1 with a seeded target T; move permutes
    the other states, done jumps to T. The refinement adds a flag t that
    gates done2 and a new tick event that raises it, giving 2m concrete
    states. Variant "drop" adds a new event that lowers t at one seeded
    state, which breaks safety preservation and the concrete leads-to. The
    proof script has the shape of `main` in models/ctr.fb."""
    target = rng.randrange(m)
    active = [x for x in range(m) if x != target]
    image = active[:]
    rng.shuffle(image)
    sigma = dict(zip(active, image))
    drop = rng.choice(active) if variant == "drop" else None

    A, Q = f"x /= {target}", f"x = {target}"
    abstract = System("chain", (("x", 0, m - 1),), (
        Event("move", A, (("x", "z"),), ("z", 0, m - 1, _permutation_where("x", "z", sigma))),
        Event("done", A, (("x", str(target)),)),
    ))
    cA, cQ = f"y /= {target}", f"y = {target}"
    concrete_events = [
        Event("move2", cA, (("y", "z"),), ("z", 0, m - 1, _permutation_where("y", "z", sigma)),
              refines="move"),
        Event("done2", f"{cA} and t = 1", (("y", str(target)),), refines="done"),
        Event("tick", "t = 0", (("t", "1"),), refines="skip"),
    ]
    if drop is not None:
        concrete_events.append(Event("drop", f"y = {drop} and t = 1", (("t", "0"),),
                                     refines="skip"))
    concrete = System("split", (("y", 0, m - 1), ("t", 0, 1)), tuple(concrete_events),
                      refines="chain", gluing="y = x")

    props = (
        Property("P", "ensures", "chain", A, Q, ("done",)),
        Property("PL", "leadsto", "chain", A, Q),
        Property("E_stutter", "ensures", "split", f"{cA} and t = 0", f"{cA} and t = 1",
                 ("tick",)),
        Property("E_help", "ensures", "split", f"{cA} and t = 1", cQ, ("done2",)),
        Property("U29", "unless", "split", f"({cA} and not {cQ}) and t = 0",
                 f"({cA} and t = 1) or {cQ}"),
        Property("P2", "leadsto", "split", cA, cQ),
    )
    a, q = f"({cA})", cQ
    steps = (
        Step("s1", "brl", ("E_stutter",)),
        Step("s5", "brl", (), f"{a} and not {q} and t = 0", f"{a} and t = 0"),
        Step("s6", "tra", ("s5", "s1"), f"{a} and not {q} and t = 0", f"{a} and t = 1"),
        Step("s7", "psp", ("s6", "U29"), f"{a} and not {q} and t = 0",
             f"({a} and not {q} and t = 1) or {q}"),
        Step("s8w", "brl", (), f"({a} and not {q} and t = 1) or {q}", f"({a} and t = 1) or {q}"),
        Step("s8", "tra", ("s7", "s8w"), f"{a} and not {q} and t = 0", f"({a} and t = 1) or {q}"),
        Step("s9", "brl", ("E_help",)),
        Step("s10", "can", ("s8", "s9"), f"{a} and not {q} and t = 0", q),
        Step("s11", "brl", (), f"{a} and not {q} and t = 1", f"{a} and t = 1"),
        Step("s12", "tra", ("s11", "s9"), f"{a} and not {q} and t = 1", q),
        Step("s13", "dsj", ("s12", "s10"), f"{a} and not {q}", q),
        Step("s14", "brl", (), f"{a} and {q}", q),
        Step("s15", "dsj", ("s13", "s14"), cA, q),
    )

    ok = PASS if drop is None else FAIL
    expected = {f"{ob}:{name}": PASS for name in ("P", "E_stutter", "E_help")
                for ob in ("WF0", "WF1", "ENS")}
    # drop leaves done2's guard from inside E_help's p without reaching q.
    expected.update({"WF0:E_help": ok, "ENS:E_help": ok, "UNL:U29": PASS})
    expected.update({f"REF:{e.name}": PASS for e in concrete_events})
    expected.update({"SAP:P": ok, "LIP-goal:P": PASS})
    expected.update({f"DRV:P:{tag}": PASS for tag in (
        "rest-total", "helpful-total", "new-total", "rest-keeps",
        "helpful-establishes", "new-keeps")})
    expected["RENS:P"] = PASS if drop is None else BLOCKED
    expected.update({"SCRIPT:main": ok, "ORACLE:PL": PASS, "ORACLE:P2": ok})
    return Model((abstract, concrete), props, expected, (Proof("main", "P2", steps),))


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # the workload's one model size (ring n, processes k, chain states m)
    smoke: int  # the size the benchmark's own tests use
    variants: tuple[str, ...]  # cycled in order, so every run has the same mix
    make: Callable[[random.Random, int, str], Model]
    rss_after: int  # peak_rss_mb is read once this many models are done


# Why each workload exists and which layer it stresses: README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("oracle-ring", 600, 12, ("pass", "lasso", "deadlock"),
                 partial(ring_model, leadsto=True), 12),
        Workload("token-product", 5, 3, ("none", "broken-pass", "broken-exit"),
                 token_model, 12),
        Workload("split-refine", 6, 4, ("none", "none", "drop"), refine_model, 12),
        Workload("wide-ring", 6000, 40, ("pass", "lasso", "deadlock"),
                 partial(ring_model, leadsto=False), 6),
    )
}


class ModelStream:
    """The seeded, structurally distinct models of one run, in order."""

    def __init__(self, workload: Workload, seed: int, size: int | None = None):
        self.workload = workload
        self.size = workload.size if size is None else size
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.seen: set[str] = set()

    def __iter__(self) -> Iterator[Model]:
        variants = self.workload.variants
        index = 0
        while True:
            variant = variants[index % len(variants)]
            for _ in range(1000):
                model = self.workload.make(self.rng, self.size, variant)
                digest = model.digest()
                if digest not in self.seen:
                    break
            else:
                raise RuntimeError(f"{self.workload.name}: ran out of distinct models")
            self.seen.add(digest)
            index += 1
            yield model
