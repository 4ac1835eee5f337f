"""Refinement pairs and preservation of ensures properties.

A refinement pair glues a concrete system to an abstract one through a
total relation from the concrete space to the abstract space. Every
concrete event either refines a named abstract event or refines skip (a
new event). Preservation of an abstract ensures property needs the
per-event simulation conditions, one safety obligation (the other events
keep the refined helpful guard) and one liveness obligation (the system
reaches the refined helpful guard), the latter decided by the semantic
oracle.
"""

from __future__ import annotations

from typing import Mapping

from .commands import grd_of, memo_on_owner, str_apply
from .obligations import (
    EnsuresProperty,
    EventSystem,
    ModelError,
    ObligationReport,
    check_ensures,
    inclusion_report,
)
from .sets import StateRelation, StateSet
from .unity import LeadsTo, OracleResult, event_edges, semantic_leadsto


class RefinementPair:
    """Abstract and concrete systems linked by a gluing relation. The
    simulation, safety- and liveness-preservation checks memoise their
    verdicts on it."""

    def __init__(
        self,
        abstract: EventSystem,
        concrete: EventSystem,
        gluing: StateRelation,
        refines: Mapping[str, str | None],
    ):
        if not gluing.source.same_as(concrete.space):
            raise ModelError("gluing must go from the concrete space")
        if not gluing.target.same_as(abstract.space):
            raise ModelError("gluing must go to the abstract space")
        if not gluing.is_total():
            orphan = gluing.domain().complement().members()[0]
            raise ModelError(f"gluing not total: concrete state {orphan} glues to nothing")
        missing = set(concrete.labels) - set(refines)
        if missing:
            raise ModelError(f"refines map misses concrete events: {sorted(missing)}")
        extra = set(refines) - set(concrete.labels)
        if extra:
            raise ModelError(f"refines map names unknown concrete events: {sorted(extra)}")
        targets = {t for t in refines.values() if t is not None}
        unknown = targets - set(abstract.labels)
        if unknown:
            raise ModelError(f"refines map targets unknown abstract events: {sorted(unknown)}")
        unrefined = set(abstract.labels) - targets
        if unrefined:
            raise ModelError(f"abstract events are never refined: {sorted(unrefined)}")
        self.abstract = abstract
        self.concrete = concrete
        self.gluing = gluing
        self.refines = dict(refines)

    def helpful_labels(self, prop: EnsuresProperty) -> frozenset[str]:
        """The concrete events that refine one of the property's helpful events."""
        unknown = prop.helpful - set(self.abstract.labels)
        if unknown:
            raise ModelError(f"property helpful events not in abstract system: {sorted(unknown)}")
        return frozenset(l for l, a in self.refines.items() if a in prop.helpful)

    def concrete_of(self, s: StateSet) -> StateSet:
        """The concrete counterpart of an abstract set (inverse gluing image)."""
        return self.gluing.inverse_image(s)


def _simulation_gap(rp: RefinementPair, concrete_label: str) -> tuple[int, ...]:
    """The abstract states, ascending, glued to a state c where the concrete
    event is enabled, at which the abstract event is disabled (GRD) or some
    successor of c is glued to no successor of a (SIM). A new event refines
    skip, whose one successor of a is a."""
    u, target = rp.abstract.space, rp.refines[concrete_label]
    abstract_guard, abstract_rel = (
        (u.universe(), StateRelation.identity(u)) if target is None
        else event_edges(rp.abstract.events[target])
    )
    enabled = (abstract_guard & abstract_rel.domain()).flags()
    guard, rel = event_edges(rp.concrete.events[concrete_label])
    glue = rp.gluing.successors
    gaps: set[int] = set()
    for c in (guard & rel.domain()).members():
        glued_next = [glue(d) for d in rel.successors(c)]
        for a in glue(c):
            # a disabled abstract event has no successors, so GRD fails as SIM
            step = set(abstract_rel.successors(a) if enabled[a] else ())
            if any(step.isdisjoint(g) for g in glued_next):
                gaps.add(a)
    return tuple(sorted(gaps))


@memo_on_owner
def check_event_refinement(rp: RefinementPair, concrete_label: str) -> ObligationReport:
    """One concrete event simulates its abstract counterpart (skip for new
    events) at every concrete subset; the witnesses are every abstract
    state at which that fails.

    For conjunctive, always-terminating events (an `EventSystem` admits only
    terminating ones; elaborated events are conjunctive) this is GRD and SIM
    of `_simulation_gap`: str at s holds exactly where the event is disabled
    or every successor lies in s, so the condition fails at a for some s
    exactly when GRD or SIM fails at a, with s = u - {c'} for the escaping
    successor c'.
    """
    if concrete_label not in rp.concrete.labels:
        raise ModelError(f"unknown concrete event {concrete_label!r}")
    target = rp.refines[concrete_label]
    rid = f"REF:{concrete_label}"
    refs = (concrete_label,) if target is None else (concrete_label, target)
    gaps = _simulation_gap(rp, concrete_label)
    if not gaps:
        return ObligationReport(rid, "pass", refs=refs)
    narrative = ("abstract event is disabled at, or does not simulate a concrete step from,"
                 " these glued states")
    return ObligationReport(rid, "fail", gaps, narrative, refs)


def check_all_event_refinements(rp: RefinementPair) -> list[ObligationReport]:
    return [check_event_refinement(rp, label) for label in rp.concrete.labels]


def _failed_gate(rp: RefinementPair, prop: EnsuresProperty) -> str | None:
    """Why the preservation of an abstract property is blocked: its
    `ENS:<p>` fails, or else the first `REF:<label>` of the pair that fails,
    whose own report carries the witnesses. None when all of them pass."""
    abstract = check_ensures(rp.abstract, prop)
    if not abstract.passed:
        return f"abstract property failed: {abstract.narrative}"
    for report in check_all_event_refinements(rp):
        if not report.passed:
            return f"event refinement failed: {report.id}"
    return None


DRV_TAGS = (
    "rest-total", "helpful-total", "new-total", "rest-keeps", "helpful-establishes", "new-keeps",
)


def derived_inclusions(rp: RefinementPair, prop: EnsuresProperty) -> list[ObligationReport]:
    """One `DRV:<p>:<tag>` report per tag of `DRV_TAGS`: the concrete
    helpful, refining-rest and new groups are total, and from the glued
    active set the helpful group establishes the glued q while the others
    keep the glued p | q. These follow from `ENS:<p>` and every `REF:<e>`,
    so once those gates pass they pass uncomputed; `test_refinement.py`
    computes them (`derived_inclusion_failures`) and `test_differential.py`
    compares them with a brute-force reference. When a gate fails one
    hypothesis-failed `DRV:<p>` report names it."""
    gate = _failed_gate(rp, prop)
    if gate is not None:
        return [ObligationReport(f"DRV:{prop.name}", "hypothesis-failed", (), gate, (prop.name,))]
    return [ObligationReport(f"DRV:{prop.name}:{tag}", "pass", refs=(prop.name,))
            for tag in DRV_TAGS]


@memo_on_owner
def check_sap(rp: RefinementPair, prop: EnsuresProperty) -> ObligationReport:
    """Safety preservation: from glued active states where the refined
    helpful guard holds, every other concrete event keeps that guard."""
    helpful = rp.helpful_labels(prop)
    others = rp.concrete.choice(frozenset(rp.refines) - helpful)
    guard = grd_of(rp.concrete.choice(helpful))
    active = rp.concrete_of(prop.p & prop.q.complement()) & guard
    kept = str_apply(others, guard)
    narrative = "a non-helpful concrete event can leave the refined helpful guard"
    return inclusion_report(f"SAP:{prop.name}", active, kept, narrative, (prop.name,))


def lip_goal(rp: RefinementPair, prop: EnsuresProperty) -> LeadsTo:
    """Liveness preservation goal: from glued active states outside the
    refined helpful guard, the concrete system reaches that guard."""
    guard = grd_of(rp.concrete.choice(rp.helpful_labels(prop)))
    lhs = rp.concrete_of(prop.p & prop.q.complement()) & guard.complement()
    return LeadsTo(lhs, guard, f"LIP:{prop.name}")


@memo_on_owner
def check_lip(rp: RefinementPair, prop: EnsuresProperty) -> OracleResult:
    """The oracle's verdict on the liveness preservation goal, with its
    lasso or deadlock path when it fails."""
    goal = lip_goal(rp, prop)
    return semantic_leadsto(rp.concrete, goal.lhs, goal.rhs)


def concrete_property(rp: RefinementPair, prop: EnsuresProperty) -> EnsuresProperty:
    """The ensures property certified on the concrete system: from the glued
    p inside the refined helpful guard, the refining events establish the
    glued q."""
    labels = rp.helpful_labels(prop)
    p2 = rp.concrete_of(prop.p) & grd_of(rp.concrete.choice(labels))
    q2 = rp.concrete_of(prop.q)
    return EnsuresProperty(f"{prop.name}'", labels, p2, q2)


def check_refined_ensures(rp: RefinementPair, prop: EnsuresProperty) -> ObligationReport:
    """Certify preservation of an abstract ensures property.

    The gates are those of the derived inclusions, then `SAP:<p>`, then
    the oracle's LIP verdict (`check_lip`), checked in that order; their
    verdicts are memoised on the abstract system and on the pair, so gates
    already decided are not decided again. A failing gate yields
    hypothesis-failed.

    Otherwise the concrete ensures property of `concrete_property` holds by
    the preservation theorem, and so does the glued leads-to when one
    concrete event refines the helpful events: until the glued q holds, a
    run stays in the glued active set (DRV), reaches that event's guard
    (LIP) and keeps it (SAP), so weak fairness makes it fire into the glued
    q (DRV). Neither is re-checked (`test_refinement.py` and
    `test_differential.py` check them). Weak fairness is per event, so
    several refined helpful events can keep the group enabled while none
    stays enabled (`test_cli.py::test_split_helpful_event_keeps_the_glued_leadsto_check`);
    there the oracle decides the glued leads-to, and its refutation fails.
    That refutation is a lasso: a run avoiding the glued q stays in the
    glued active set (DRV), where a stuck state would refute LIP.
    """
    rid = f"RENS:{prop.name}"
    refs = (prop.name,)

    def blocked(reason: str, witnesses: tuple = ()) -> ObligationReport:
        return ObligationReport(rid, "hypothesis-failed", witnesses, reason, refs)

    gate = _failed_gate(rp, prop)
    if gate is not None:
        return blocked(gate)
    sap = check_sap(rp, prop)
    if not sap.passed:
        return blocked("safety preservation failed", sap.witnesses)
    if not check_lip(rp, prop).holds:
        return blocked("liveness preservation goal failed (oracle)")

    if len(rp.helpful_labels(prop)) > 1:
        leads = semantic_leadsto(rp.concrete, rp.concrete_of(prop.p), rp.concrete_of(prop.q))
        if not leads.holds:
            return leads.report(rid, refs, "the glued q")
    narrative = f"concrete ensures {prop.name}' holds by ENS, REF, SAP and LIP"
    return ObligationReport(rid, "pass", narrative=narrative, refs=refs)
