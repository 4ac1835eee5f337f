"""Event systems, ensures properties, and their two proof obligations.

An event system is a finite family of named, always-terminating events over
one space (the space is assumed to be already restricted to the invariant).
An ensures property names a nonempty helpful subset of the events and two
sets p, q; it holds when every event keeps p | q from p & ~q (WF0) and the
helpful choice is enabled on p & ~q and moves it into q (WF1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .commands import Choice, Command, grd_of, memo_on_owner, pre_of, str_apply
from .fairloop import FairLoop, check_total_correctness
from .sets import SpaceMismatchError, StateSet, StateSpace

if TYPE_CHECKING:
    from .unity import FairLasso


class ModelError(Exception):
    """A system, property or refinement pair violates a structural invariant."""


class EngineDefect(Exception):
    """An engine self-check failed: a fact that holds by construction did not.

    Raised instead of `assert` so the checks also run under `python -O`.
    """


class EventSystem:
    """An ordered family of named events over one space. Its event groups
    and the WF0, WF1, ensures and unless verdicts are memoised on it."""

    def __init__(self, space: StateSpace, events: Mapping[str, Command]):
        if not events:
            raise ModelError("an event system needs at least one event")
        self.space = space
        self.events = dict(events)
        u = space.universe()
        for name, cmd in self.events.items():
            if not cmd.space.same_as(space):
                raise SpaceMismatchError(space, cmd.space, f"add event {name!r} over")
            if pre_of(cmd) != u:
                raise ModelError(f"event {name!r} may fail to terminate (pre is not the universe)")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.events)

    @memo_on_owner
    def choice(self, labels: frozenset[str]) -> Choice:
        """The flat choice over the named events, in system order; one
        object per label set, so its pre and guard are computed once."""
        return Choice(self.space, tuple(e for l, e in self.events.items() if l in labels))

    def apply(self, r: StateSet) -> StateSet:
        """The whole system's transformer: the choice over all its events."""
        return str_apply(self.choice(frozenset(self.events)), r)

    def __repr__(self) -> str:
        return f"EventSystem({self.space.id}, events={list(self.events)})"


@dataclass(frozen=True)
class EnsuresProperty:
    """By the helpful events, p ensures q (under weak fairness)."""

    name: str
    helpful: frozenset[str]
    p: StateSet
    q: StateSet

    def __post_init__(self) -> None:
        if not self.helpful:
            raise ModelError(f"property {self.name!r} needs a nonempty helpful set")
        if not self.p.space.same_as(self.q.space):
            raise SpaceMismatchError(self.p.space, self.q.space)


def split_system(sys: EventSystem, helpful_labels: Iterable[str]) -> tuple[Command, Command]:
    """Split the system into (helpful, rest) choices by event label.

    When every event is helpful the rest is the empty choice (miraculous
    everywhere), so the split always recombines to the whole system.
    """
    chosen = frozenset(helpful_labels)
    if not chosen:
        raise ModelError("helpful label set must be nonempty")
    unknown = chosen.difference(sys.events)
    if unknown:
        raise ModelError(f"helpful labels not in system: {sorted(unknown)}")
    return sys.choice(chosen), sys.choice(frozenset(sys.events) - chosen)


@dataclass(frozen=True)
class ObligationReport:
    """Outcome of one proof obligation, with state-level witnesses on failure
    and, when the oracle refuted it, the refuting lasso."""

    id: str
    verdict: str  # pass | fail | hypothesis-failed
    witnesses: tuple[int, ...] = ()
    narrative: str = ""
    refs: tuple[str, ...] = ()
    lasso: FairLasso | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _check_property_space(sys: EventSystem, prop: EnsuresProperty) -> None:
    if not prop.p.space.same_as(sys.space):
        raise SpaceMismatchError(prop.p.space, sys.space, f"check {prop.name!r} against")


def inclusion_report(
    rid: str, inner: StateSet, outer: StateSet, narrative: str, refs: tuple[str, ...]
) -> ObligationReport:
    """The obligation "inner is a subset of outer": pass, or fail with the
    states of inner outside outer as witnesses."""
    if inner.is_subset(outer):
        return ObligationReport(rid, "pass", refs=refs)
    return ObligationReport(rid, "fail", (inner - outer).members(), narrative, refs)


@memo_on_owner
def check_wf0(sys: EventSystem, prop: EnsuresProperty) -> ObligationReport:
    """Every event keeps p | q when run from p & ~q."""
    _check_property_space(sys, prop)
    active, kept = prop.p - prop.q, sys.apply(prop.p | prop.q)
    narrative = "some event can leave p | q from these states"
    return inclusion_report(f"WF0:{prop.name}", active, kept, narrative, (prop.name,))


@memo_on_owner
def check_wf1(sys: EventSystem, prop: EnsuresProperty) -> ObligationReport:
    """The helpful choice is enabled on p & ~q and moves it into q."""
    _check_property_space(sys, prop)
    helpful, _ = split_system(sys, prop.helpful)
    active, good = prop.p - prop.q, grd_of(helpful) & str_apply(helpful, prop.q)
    narrative = "helpful events are disabled or may miss q from these states"
    return inclusion_report(f"WF1:{prop.name}", active, good, narrative, (prop.name,))


@memo_on_owner
def check_ensures(sys: EventSystem, prop: EnsuresProperty) -> ObligationReport:
    """Both obligations together; on pass, the fair-loop total-correctness
    conclusion is re-derived as an engine self-check."""
    wf0, wf1 = check_wf0(sys, prop), check_wf1(sys, prop)
    if not (wf0.passed and wf1.passed):
        failing = wf0 if not wf0.passed else wf1
        return ObligationReport(
            f"ENS:{prop.name}",
            "fail",
            witnesses=failing.witnesses,
            narrative=f"{failing.id} failed: {failing.narrative}",
            refs=(prop.name,),
        )
    helpful, rest = split_system(sys, prop.helpful)
    loop = FairLoop(prop.q, helpful, rest)
    conclusion = check_total_correctness(loop, prop.p)
    if not conclusion.passed:
        raise EngineDefect(
            f"ensures {prop.name!r} passed WF0/WF1 but the fair-loop conclusion "
            f"failed ({conclusion.verdict})"
        )
    return ObligationReport(f"ENS:{prop.name}", "pass", refs=(prop.name,))
