"""Command line interface.

Subcommands:
    check  FILE              all ensures and unless properties
    refine FILE --pair NAME  simulation conditions, safety and liveness
                             preservation, derived inclusions, preserved
                             ensures for one refinement pair
    prove  FILE --script NAME  run one proof script against its goal
    oracle FILE --property NAME  semantic leads-to verdict for one leadsto
                             or ensures property
    report FILE              everything above, consolidated

Exit codes: 0 all obligations passed, 1 some obligation failed,
2 usage, parse or elaboration error, or a failed engine self-check
(reported as "internal error").
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .elaborator import (
    DEFAULT_MAX_STATES,
    ElaboratedModel,
    ElaboratedSystem,
    ElaborationError,
    elaborate,
)
from .obligations import (
    EngineDefect,
    ModelError,
    check_ensures,
    check_wf0,
    check_wf1,
)
from .parser import parse_document
from .refinement import (
    check_all_event_refinements,
    check_lip,
    check_refined_ensures,
    check_sap,
    derived_inclusions,
)
from .reports import ReportDocument, lasso_json
from .unity import OracleResult, check_script, check_unless, semantic_leadsto


class _CliError(Exception):
    pass


def _load(path: str, max_states: int) -> ElaboratedModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _CliError(f"cannot read {path}: {err}") from err
    result = parse_document(text)
    if not result.ok:
        lines = "\n".join(f"{path}:{d}" for d in result.diagnostics)
        raise _CliError(lines or f"{path}: parse failed")
    try:
        return elaborate(result.document, max_states=max_states)
    except (ElaborationError, ModelError) as err:
        raise _CliError(f"{path}: {err}") from err


def _property_reports(model: ElaboratedModel, doc: ReportDocument) -> None:
    for prop in model.properties.values():
        owner = model.owner(prop.source)
        if prop.kind == "ensures":
            ens = prop.as_ensures()
            doc.add(check_wf0(owner.system, ens), owner)
            doc.add(check_wf1(owner.system, ens), owner)
            doc.add(check_ensures(owner.system, ens), owner)
        elif prop.kind == "unless":
            doc.add(check_unless(owner.system, prop.as_unless()), owner)


def _refinement_reports(model: ElaboratedModel, pair_name: str, doc: ReportDocument) -> None:
    refinement = model.refinements[pair_name]
    pair = refinement.pair
    abstract = model.systems[refinement.abstract_name]
    concrete = refinement.concrete

    for report in check_all_event_refinements(pair):
        doc.add(report, abstract)

    ensures_props = [
        p
        for p in model.properties.values()
        if p.kind == "ensures" and p.source == refinement.abstract_name
    ]
    for prop in ensures_props:
        ens = prop.as_ensures()
        doc.add(check_sap(pair, ens), concrete)
        _add_oracle_verdict(
            doc, concrete, check_lip(pair, ens), f"LIP-goal:{prop.name}", (prop.name, pair_name),
            "discharged by the semantic oracle", "the refined helpful guard",
        )
        for report in derived_inclusions(pair, ens):
            doc.add(report, concrete)
        doc.add(check_refined_ensures(pair, ens), concrete)


def _script_report(model: ElaboratedModel, name: str, doc: ReportDocument) -> None:
    script = model.scripts[name]
    goal = model.properties[script.goal].as_leadsto()
    doc.add(check_script(script.env, script.script, goal), model.owner(script.source))


def _add_oracle_verdict(
    doc: ReportDocument, owner: ElaboratedSystem, verdict: OracleResult, rid: str,
    refs: tuple[str, ...], passed: str, target: str,
) -> None:
    """One entry for a leads-to verdict of the oracle, with its lasso."""
    lasso = lasso_json(owner, verdict.lasso) if verdict.lasso is not None else None
    doc.add(verdict.report(rid, refs, target, passed), owner, lasso=lasso)


def _oracle_report(model: ElaboratedModel, name: str, doc: ReportDocument) -> None:
    prop = model.properties[name]
    owner = model.owner(prop.source)
    verdict = semantic_leadsto(owner.system, prop.p, prop.q)
    _add_oracle_verdict(
        doc, owner, verdict, f"ORACLE:{name}", (name,),
        "every weakly fair execution reaches the target", "the target",
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
    if args.max_states < 1:
        parser.error(f"argument --max-states: must be at least 1, not {args.max_states}")

    try:
        model = _load(args.file, args.max_states)
        doc = ReportDocument(model=args.file)
        if args.command == "check":
            _property_reports(model, doc)
        elif args.command == "refine":
            if args.pair not in model.refinements:
                raise _CliError(f"unknown refinement pair {args.pair!r}")
            _refinement_reports(model, args.pair, doc)
        elif args.command == "prove":
            if args.script not in model.scripts:
                raise _CliError(f"unknown proof script {args.script!r}")
            _script_report(model, args.script, doc)
        elif args.command == "oracle":
            if args.property not in model.properties:
                raise _CliError(f"unknown property {args.property!r}")
            if model.properties[args.property].kind == "unless":
                raise _CliError(f"property {args.property!r} is an unless property;"
                                " the oracle decides leadsto and ensures properties")
            _oracle_report(model, args.property, doc)
        elif args.command == "report":
            _property_reports(model, doc)
            for pair_name in model.refinements:
                _refinement_reports(model, pair_name, doc)
            for script_name in model.scripts:
                _script_report(model, script_name, doc)
            for prop in model.properties.values():
                if prop.kind == "leadsto":
                    _oracle_report(model, prop.name, doc)
    except (_CliError, ModelError, ElaborationError) as err:
        print(str(err), file=sys.stderr)
        return 2
    except EngineDefect as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 2

    output = doc.to_json_text() if args.format == "json" else doc.to_text()
    sys.stdout.write(output)
    return 0 if doc.all_passed else 1


def main() -> None:
    sys.exit(run_cli())
