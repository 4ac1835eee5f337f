"""Report rendering: obligation outcomes as deterministic text or JSON.

The JSON document shape is:

    {
      "version": str,
      "model": str,
      "obligations": [
        {
          "id": str,
          "verdict": "pass" | "fail" | "hypothesis-failed",
          "witnesses": [{"state": str, "bindings": {var: int}}],
          "witness_count": int,        # optional, when witnesses were cut
          "refs": [str],
          "narrative": str,            # optional
          "lasso": {                   # optional, a counterexample execution
            "stem": [str],
            "stem_length": int,        # optional, when stem states were cut
            "cycle": [str],
            "cycle_length": int,       # optional, when cycle states were cut
            "justifications": [{"event": str, "kind": str, ...}]
          }
        }
      ]
    }

Identical input models produce byte-identical reports apart from the
version header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .elaborator import ElaboratedSystem
from .obligations import ObligationReport
from .unity import FairLasso

REPORT_VERSION = "1"

VERDICTS = ("pass", "fail", "hypothesis-failed")

# A report renders at most this many witnesses of one obligation, and at
# most this many stem and cycle states of one lasso.
MAX_JSON_WITNESSES = 100


def state_witnesses(system: ElaboratedSystem, report: ObligationReport) -> list[dict[str, Any]]:
    """The first MAX_JSON_WITNESSES witness states of a report, as items over
    the given system."""
    shown = report.witnesses[:MAX_JSON_WITNESSES]
    return [{"state": system.label(i), "bindings": system.binding(i)} for i in shown]


def lasso_json(system: ElaboratedSystem, lasso: FairLasso) -> dict[str, Any]:
    """A lasso as a JSON item over the given system: the first
    MAX_JSON_WITNESSES states of its stem and of its cycle, the length of
    each one that was cut, and every event's justification."""
    name = system.label
    justifications = []
    for label, kind, witness in lasso.justifications:
        if kind == "disabled":
            justifications.append({"event": label, "kind": kind, "state": name(witness)})
        else:
            s, t = witness
            justifications.append(
                {"event": label, "kind": kind, "transition": [name(s), name(t)]}
            )
    item: dict[str, Any] = {}
    for part, states in (("stem", lasso.stem), ("cycle", lasso.cycle)):
        item[part] = [name(i) for i in states[:MAX_JSON_WITNESSES]]
        if len(states) > MAX_JSON_WITNESSES:
            item[f"{part}_length"] = len(states)
    item["justifications"] = justifications
    return item


@dataclass
class ReportDocument:
    """The report's lines, each kept as the JSON item it prints."""

    model: str
    items: list[dict[str, Any]] = field(default_factory=list)

    def add(
        self,
        report: ObligationReport,
        system: ElaboratedSystem,
        lasso: dict[str, Any] | None = None,
    ) -> None:
        witnesses = state_witnesses(system, report)
        item: dict[str, Any] = {
            "id": report.id,
            "verdict": report.verdict,
            "witnesses": witnesses,
            "refs": list(report.refs),
        }
        if len(report.witnesses) > len(witnesses):
            item["witness_count"] = len(report.witnesses)
        if report.narrative:
            item["narrative"] = report.narrative
        if lasso is not None:
            item["lasso"] = lasso
        self.items.append(item)

    @property
    def all_passed(self) -> bool:
        return all(item["verdict"] == "pass" for item in self.items)

    def to_json_text(self) -> str:
        document = {"version": REPORT_VERSION, "model": self.model, "obligations": self.items}
        return json.dumps(document, indent=2, sort_keys=False) + "\n"

    def to_text(self) -> str:
        lines = [f"faircheck report v{REPORT_VERSION}", f"model: {self.model}"]
        for item in self.items:
            line = f"{item['id']:<28} {item['verdict']}"
            if item["witnesses"]:
                shown = [w["state"] for w in item["witnesses"][:4]]
                more = item.get("witness_count", len(item["witnesses"])) - len(shown)
                if more:
                    shown.append(f"+{more} more")
                line += f"  [{', '.join(shown)}]"
            lines.append(line)
            if "narrative" in item and item["verdict"] != "pass":
                lines.append(f"    {item['narrative']}")
        passed = sum(1 for item in self.items if item["verdict"] == "pass")
        lines.append(f"summary: {passed}/{len(self.items)} obligations passed")
        return "\n".join(lines) + "\n"


def validate_report(data: Any) -> list[str]:
    """Structural validation of a JSON report; returns a list of problems."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["report must be an object"]
    for key in ("version", "model", "obligations"):
        if key not in data:
            problems.append(f"missing key {key!r}")
    if not isinstance(data.get("version"), str):
        problems.append("version must be a string")
    if not isinstance(data.get("model"), str):
        problems.append("model must be a string")
    obligations = data.get("obligations")
    if not isinstance(obligations, list):
        return problems + ["obligations must be a list"]
    for i, item in enumerate(obligations):
        where = f"obligations[{i}]"
        if not isinstance(item, dict):
            problems.append(f"{where} must be an object")
            continue
        if not isinstance(item.get("id"), str):
            problems.append(f"{where}.id must be a string")
        if item.get("verdict") not in VERDICTS:
            problems.append(f"{where}.verdict must be one of {VERDICTS}")
        witnesses = item.get("witnesses")
        if not isinstance(witnesses, list):
            problems.append(f"{where}.witnesses must be a list")
        else:
            for j, w in enumerate(witnesses):
                if (
                    not isinstance(w, dict)
                    or not isinstance(w.get("state"), str)
                    or not isinstance(w.get("bindings"), dict)
                ):
                    problems.append(f"{where}.witnesses[{j}] must be {{state, bindings}}")
            count = item.get("witness_count", len(witnesses))
            if type(count) is not int or count < len(witnesses):
                problems.append(f"{where}.witness_count must be an int >= len(witnesses)")
        refs = item.get("refs")
        if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
            problems.append(f"{where}.refs must be a list of strings")
        if "lasso" not in item:
            continue
        lasso = item["lasso"]
        if not isinstance(lasso, dict):
            problems.append(f"{where}.lasso must be an object")
            continue
        for part in ("stem", "cycle"):
            states = lasso.get(part)
            if not isinstance(states, list):
                problems.append(f"{where}.lasso.{part} must be a list")
                continue
            length = lasso.get(f"{part}_length", len(states))
            if type(length) is not int or length < len(states):
                problems.append(f"{where}.lasso.{part}_length must be an int >= len({part})")
    return problems
