"""Event systems, ensures properties, and their two proof obligations.

An event system is a finite family of named, always-terminating events over
one space (the space is assumed to be already restricted to the invariant).
An ensures property names a nonempty helpful subset of the events and two
sets p, q; it holds when every event keeps p | q from p & ~q (WF0) and the
helpful choice is enabled on p & ~q and moves it into q (WF1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .commands import Command, choice_of, grd_of, pre_of, str_apply
from .fairloop import FairLoop, check_total_correctness
from .sets import SpaceMismatchError, StateSet, StateSpace


class ModelError(Exception):
    """A system, property or refinement pair violates a structural invariant."""


class EngineDefect(Exception):
    """An engine self-check failed: a fact that holds by construction did not.

    Raised instead of `assert` so the checks also run under `python -O`.
    """


class EventSystem:
    """An ordered family of named events over one space."""

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
        self._whole = choice_of(list(self.events.values()), space)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.events)

    def command(self) -> Command:
        """The whole system as the choice over all its events."""
        return self._whole

    def apply(self, r: StateSet) -> StateSet:
        return str_apply(self._whole, r)

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
    chosen = set(helpful_labels)
    if not chosen:
        raise ModelError("helpful label set must be nonempty")
    unknown = chosen - set(sys.labels)
    if unknown:
        raise ModelError(f"helpful labels not in system: {sorted(unknown)}")
    helpful = choice_of([sys.events[l] for l in sys.labels if l in chosen], sys.space)
    rest = choice_of([sys.events[l] for l in sys.labels if l not in chosen], sys.space)
    return helpful, rest


@dataclass(frozen=True)
class ObligationReport:
    """Outcome of one proof obligation, with state-level witnesses on failure."""

    id: str
    verdict: str  # pass | fail | hypothesis-failed
    witnesses: tuple[object, ...] = ()
    narrative: str = ""
    refs: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _check_property_space(sys: EventSystem, prop: EnsuresProperty) -> None:
    if not prop.p.space.same_as(sys.space):
        raise SpaceMismatchError(prop.p.space, sys.space, f"check {prop.name!r} against")


def check_wf0(sys: EventSystem, prop: EnsuresProperty) -> ObligationReport:
    """Every event keeps p | q when run from p & ~q."""
    _check_property_space(sys, prop)
    active = prop.p & prop.q.complement()
    kept = sys.apply(prop.p | prop.q)
    if active.is_subset(kept):
        return ObligationReport(f"WF0:{prop.name}", "pass", refs=(prop.name,))
    bad = (active - kept).members()
    return ObligationReport(
        f"WF0:{prop.name}",
        "fail",
        witnesses=bad,
        narrative="some event can leave p | q from these states",
        refs=(prop.name,),
    )


def check_wf1(sys: EventSystem, prop: EnsuresProperty) -> ObligationReport:
    """The helpful choice is enabled on p & ~q and moves it into q."""
    _check_property_space(sys, prop)
    helpful, _ = split_system(sys, prop.helpful)
    active = prop.p & prop.q.complement()
    good = grd_of(helpful) & str_apply(helpful, prop.q)
    if active.is_subset(good):
        return ObligationReport(f"WF1:{prop.name}", "pass", refs=(prop.name,))
    bad = (active - good).members()
    return ObligationReport(
        f"WF1:{prop.name}",
        "fail",
        witnesses=bad,
        narrative="helpful events are disabled or may miss q from these states",
        refs=(prop.name,),
    )


def check_ensures(sys: EventSystem, prop: EnsuresProperty) -> ObligationReport:
    """Both obligations together; on pass, the fair-loop total-correctness
    conclusion is re-derived as an engine self-check."""
    wf0 = check_wf0(sys, prop)
    wf1 = check_wf1(sys, prop)
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
