"""Command line interface.

Subcommands:
    check  FILE              all ensures and unless properties
    refine FILE --pair NAME  simulation conditions, safety and liveness
                             preservation, derived inclusions, preserved
                             ensures for one refinement pair
    prove  FILE --script NAME  run one proof script against its goal
    oracle FILE --property NAME  semantic leads-to verdict for one property
    report FILE              everything above, consolidated

Exit codes: 0 all obligations passed, 1 some obligation failed,
2 usage, parse or elaboration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .elaborator import (
    DEFAULT_MAX_STATES,
    ElaboratedModel,
    ElaboratedProperty,
    ElaborationError,
    elaborate,
)
from .obligations import ModelError, ObligationReport, check_ensures, check_wf0, check_wf1
from .parser import parse_document
from .refinement import (
    LipEvidence,
    check_all_event_refinements,
    check_refined_ensures,
    check_sap,
    derived_inclusions,
    lip_goal,
)
from .reports import ReportDocument, ReportEntry, lasso_json
from .unity import ScriptEnv, check_script, check_unless, semantic_leadsto


class _CliError(Exception):
    pass


def _load(path: str, max_states: int) -> ElaboratedModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise _CliError(f"cannot read {path}: {err}") from err
    result = parse_document(text)
    if not result.ok:
        lines = "\n".join(f"{path}:{d}" for d in result.diagnostics)
        raise _CliError(lines or f"{path}: parse failed")
    try:
        return elaborate(result.document, max_states=max_states)
    except (ElaborationError, ModelError) as err:
        raise _CliError(f"{path}: {err}") from err


def _ensures_report(
    model: ElaboratedModel, prop: ElaboratedProperty, ensures: dict[str, ObligationReport]
) -> ObligationReport:
    """The ENS:<p> report of one ensures property, checked at most once per
    run: `ensures` holds the reports computed so far, by property name."""
    if prop.name not in ensures:
        owner = model.owner(prop.source)
        ensures[prop.name] = check_ensures(owner.system, prop.as_ensures())
    return ensures[prop.name]


def _property_reports(
    model: ElaboratedModel, doc: ReportDocument, ensures: dict[str, ObligationReport]
) -> None:
    for prop in model.properties.values():
        owner = model.owner(prop.source)
        if prop.kind == "ensures":
            ens = prop.as_ensures()
            doc.add(check_wf0(owner.system, ens), owner)
            doc.add(check_wf1(owner.system, ens), owner)
            doc.add(_ensures_report(model, prop, ensures), owner)
        elif prop.kind == "unless":
            doc.add(check_unless(owner.system, prop.as_unless()), owner)


def _refinement_reports(
    model: ElaboratedModel,
    pair_name: str,
    doc: ReportDocument,
    ensures: dict[str, ObligationReport],
) -> None:
    refinement = model.refinements[pair_name]
    pair = refinement.pair
    abstract = model.systems[refinement.abstract_name]
    concrete = refinement.concrete

    simulation = check_all_event_refinements(pair)
    for report in simulation:
        doc.add(report, witness_system=abstract)
    simulation_ok = all(r.passed for r in simulation)

    ensures_props = [
        p
        for p in model.properties.values()
        if p.kind == "ensures" and p.source == refinement.abstract_name
    ]
    for prop in ensures_props:
        ens = prop.as_ensures()
        abstract_report = _ensures_report(model, prop, ensures)
        sap = check_sap(pair, ens)
        doc.add(sap, concrete)
        goal = lip_goal(pair, ens)
        verdict = semantic_leadsto(concrete.system, goal.lhs, goal.rhs)
        lasso = (
            lasso_json(concrete, verdict.lasso) if verdict.lasso is not None else None
        )
        doc.add(
            ObligationReport(
                f"LIP-goal:{prop.name}",
                "pass" if verdict.holds else "fail",
                witnesses=goal.lhs.members() if not verdict.holds else (),
                narrative="discharged by the semantic oracle"
                if verdict.holds
                else "the concrete system can avoid the refined helpful guard",
                refs=(prop.name, pair_name),
            ),
            concrete,
            lasso=lasso,
        )
        if simulation_ok and abstract_report.passed:
            for report in derived_inclusions(pair, ens):
                doc.add(report, concrete)
        else:
            doc.entries.append(
                _skipped(f"DRV:{prop.name}", "gates failed; derived inclusions not run")
            )
        evidence = LipEvidence(goal, verdict.holds, "oracle")
        gates = [abstract_report, *simulation, sap]
        doc.add(check_refined_ensures(pair, ens, evidence, gates), concrete)


def _skipped(rid: str, why: str) -> ReportEntry:
    return ReportEntry(rid, "hypothesis-failed", narrative=why)


def _script_env(
    model: ElaboratedModel, source: str, ensures: dict[str, ObligationReport]
) -> ScriptEnv:
    """The premises of `source`; ensures verdicts already in `ensures` seed
    the gate, so a brl step does not check them again."""
    owner = model.owner(source)
    env = ScriptEnv(owner.system)
    for prop in model.properties.values():
        if prop.source != source:
            continue
        if prop.kind == "ensures":
            env.ensures[prop.name] = prop.as_ensures()
            if prop.name in ensures:
                env.ensures_gate[prop.name] = ensures[prop.name].passed
        elif prop.kind == "unless":
            env.unless[prop.name] = prop.as_unless()
    return env


def _script_report(
    model: ElaboratedModel, name: str, doc: ReportDocument, ensures: dict[str, ObligationReport]
) -> None:
    script = model.scripts[name]
    env = _script_env(model, script.source, ensures)
    env.ensures.update(script.extra_ensures)
    goal = model.properties[script.goal].as_leadsto()
    outcome = check_script(env, script.script, goal)
    narrative = outcome.message
    if outcome.passed:
        narrative = f"derives {script.goal} in {len(script.script.steps)} steps"
    doc.entries.append(
        ReportEntry(f"SCRIPT:{name}", outcome.verdict, refs=[script.goal], narrative=narrative)
    )


def _oracle_report(model: ElaboratedModel, name: str, doc: ReportDocument) -> None:
    prop = model.properties[name]
    owner = model.owner(prop.source)
    verdict = semantic_leadsto(owner.system, prop.p, prop.q)
    lasso = lasso_json(owner, verdict.lasso) if verdict.lasso is not None else None
    witnesses: tuple[int, ...] = ()
    narrative = "every weakly fair execution reaches the target"
    if not verdict.holds:
        narrative = "a weakly fair execution avoids the target"
        if verdict.deadlock_path is not None:
            narrative = "a stuck state is reachable before the target"
            witnesses = verdict.deadlock_path[-1:]
        elif verdict.lasso is not None:
            witnesses = verdict.lasso.cycle[:1]
    doc.add(
        ObligationReport(
            f"ORACLE:{name}",
            "pass" if verdict.holds else "fail",
            witnesses=witnesses,
            narrative=narrative,
            refs=(name,),
        ),
        owner,
        lasso=lasso,
    )


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="faircheck",
        description="finite-state checker for fairness-based liveness obligations",
    )
    parser.add_argument("--version", action="version", version=f"faircheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)

    common(sub.add_parser("check", help="check all ensures and unless properties"))
    refine = sub.add_parser("refine", help="check one refinement pair")
    common(refine)
    refine.add_argument("--pair", required=True)
    prove = sub.add_parser("prove", help="check one proof script")
    common(prove)
    prove.add_argument("--script", required=True)
    oracle = sub.add_parser("oracle", help="semantic verdict for one property")
    common(oracle)
    oracle.add_argument("--property", required=True)
    common(sub.add_parser("report", help="run every check and consolidate"))

    args = parser.parse_args(argv)

    try:
        model = _load(args.file, args.max_states)
        doc = ReportDocument(model=args.file)
        ensures: dict[str, ObligationReport] = {}
        if args.command == "check":
            _property_reports(model, doc, ensures)
        elif args.command == "refine":
            if args.pair not in model.refinements:
                raise _CliError(f"unknown refinement pair {args.pair!r}")
            _refinement_reports(model, args.pair, doc, ensures)
        elif args.command == "prove":
            if args.script not in model.scripts:
                raise _CliError(f"unknown proof script {args.script!r}")
            _script_report(model, args.script, doc, ensures)
        elif args.command == "oracle":
            if args.property not in model.properties:
                raise _CliError(f"unknown property {args.property!r}")
            _oracle_report(model, args.property, doc)
        elif args.command == "report":
            _property_reports(model, doc, ensures)
            for pair_name in model.refinements:
                _refinement_reports(model, pair_name, doc, ensures)
            for script_name in model.scripts:
                _script_report(model, script_name, doc, ensures)
            for prop in model.properties.values():
                if prop.kind == "leadsto":
                    _oracle_report(model, prop.name, doc)
    except (_CliError, ModelError, ElaborationError) as err:
        print(str(err), file=sys.stderr)
        return 2

    output = doc.to_json_text() if args.format == "json" else doc.to_text()
    sys.stdout.write(output)
    return 0 if doc.all_passed else 1


def main() -> None:
    sys.exit(run_cli())
