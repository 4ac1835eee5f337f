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
    ElaboratedProperty,
    ElaboratedScript,
    ElaboratedSystem,
    ElaborationError,
    elaborate,
)
from .obligations import (
    EngineDefect,
    EnsuresProperty,
    ModelError,
    ObligationReport,
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
from .unity import LeadsTo, Unless, check_script, check_unless, semantic_leadsto


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


def _add(doc: ReportDocument, owner: ElaboratedSystem, report: ObligationReport) -> None:
    """One line over the owner's states, with the lasso of an oracle refutation."""
    lasso = lasso_json(owner, report.lasso) if report.lasso is not None else None
    doc.add(report, owner, lasso=lasso)


def _property_reports(model: ElaboratedModel, doc: ReportDocument) -> None:
    for prop in model.properties.values():
        owner, value = prop.owner, prop.value
        if isinstance(value, EnsuresProperty):
            _add(doc, owner, check_wf0(owner.system, value))
            _add(doc, owner, check_wf1(owner.system, value))
            _add(doc, owner, check_ensures(owner.system, value))
        elif isinstance(value, Unless):
            _add(doc, owner, check_unless(owner.system, value))


def _refinement_reports(model: ElaboratedModel, pair_name: str, doc: ReportDocument) -> None:
    refinement = model.refinements[pair_name]
    pair = refinement.pair
    abstract = model.systems[refinement.abstract_name]
    concrete = refinement.concrete

    for report in check_all_event_refinements(pair):
        _add(doc, abstract, report)

    for prop in model.properties.values():
        ens = prop.value
        if prop.owner is not abstract or not isinstance(ens, EnsuresProperty):
            continue
        _add(doc, concrete, check_sap(pair, ens))
        lip = check_lip(pair, ens).report(
            f"LIP-goal:{ens.name}", (ens.name, pair_name),
            "the refined helpful guard", "discharged by the semantic oracle",
        )
        _add(doc, concrete, lip)
        for report in derived_inclusions(pair, ens):
            _add(doc, concrete, report)
        _add(doc, concrete, check_refined_ensures(pair, ens))


def _script_report(script: ElaboratedScript, doc: ReportDocument) -> None:
    _add(doc, script.owner, check_script(script.env, script.script, script.goal))


def _oracle_report(prop: ElaboratedProperty, doc: ReportDocument) -> None:
    value = prop.value
    p, q = (value.p, value.q) if isinstance(value, EnsuresProperty) else (value.lhs, value.rhs)
    verdict = semantic_leadsto(prop.owner.system, p, q)
    _add(doc, prop.owner, verdict.report(
        f"ORACLE:{value.name}", (value.name,),
        "the target", "every weakly fair execution reaches the target",
    ))


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
            _script_report(model.scripts[args.script], doc)
        elif args.command == "oracle":
            if args.property not in model.properties:
                raise _CliError(f"unknown property {args.property!r}")
            prop = model.properties[args.property]
            if isinstance(prop.value, Unless):
                raise _CliError(f"property {args.property!r} is an unless property;"
                                " the oracle decides leadsto and ensures properties")
            _oracle_report(prop, doc)
        elif args.command == "report":
            _property_reports(model, doc)
            for pair_name in model.refinements:
                _refinement_reports(model, pair_name, doc)
            for script in model.scripts.values():
                _script_report(script, doc)
            for prop in model.properties.values():
                if isinstance(prop.value, LeadsTo):
                    _oracle_report(prop, doc)
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
