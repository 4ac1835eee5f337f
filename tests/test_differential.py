"""Whole-model verdicts against the engine-free reference.

A seeded generator draws small `workloads.Model`s: one or two variables,
one to four events whose guards are random and/or/not trees with chains of
several operands, updates that are constants, reflections, copies and
identities (some inside an `any` block), and one to four ensures, unless and
leadsto properties. Every WF0, WF1, ENS, UNL and ORACLE verdict that
`report --format json` gives must equal the one that perfbench's brute-force
reference derives from the same model text.
"""

from __future__ import annotations

import json
import random

from faircheck.cli import run_cli
from helpers import load_reference, load_workloads

workloads = load_workloads()
reference = load_reference()

MODELS = 200
COMPARED = ("WF0:", "WF1:", "ENS:", "UNL:", "ORACLE:")


class _Draw:
    """One model's random choices over the variables in scope."""

    def __init__(self, rng: random.Random, hi: dict[str, int]):
        self.rng = rng
        self.hi = hi

    def arith(self, names: list[str]) -> str:
        # one term, or a chain of up to four, so "-" chains of three occur
        rng = self.rng
        count = 1 if rng.random() < 0.5 else rng.randint(2, 4)
        terms = [rng.choice(names) if rng.random() < 0.7 else str(rng.randint(0, 2))
                 for _ in range(count)]
        text = terms[0]
        for term in terms[1:]:
            text += f" {rng.choice('+-*' if rng.random() < 0.2 else '+-')} {term}"
        return text

    def pred(self, names: list[str], depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            op = rng.choice(("=", "/=", "<", "<=", ">", ">="))
            return f"{self.arith(names)} {op} {rng.randint(0, 2)}"
        if roll < 0.55:
            return f"not {self.pred(names, depth - 1)}"
        parts = [self.pred(names, depth - 1) for _ in range(rng.randint(2, 4))]
        return "(" + f" {rng.choice(('and', 'or'))} ".join(parts) + ")"

    def value(self, var: str, binder: str | None) -> str:
        rng, hi = self.rng, self.hi
        copies = [w for w in hi if w != var and hi[w] <= hi[var]]
        kinds = ["const", "reflect", "identity"] + ["copy"] * bool(copies)
        kinds += ["binder"] * (binder is not None)
        kind = rng.choice(kinds)
        if kind == "const":
            return str(rng.randint(0, hi[var]))
        if kind == "reflect":
            return f"{hi[var]} - {var}"
        if kind == "copy":
            return rng.choice(copies)
        return binder if kind == "binder" else var

    def event(self, name: str) -> "workloads.Event":
        rng, names = self.rng, list(self.hi)
        targets = rng.sample(names, rng.randint(1, len(names)))
        any_of = None
        if rng.random() < 0.25:
            bound = min(self.hi[v] for v in targets)
            any_of = ("z", 0, bound, self.pred(names + ["z"], 1))
        binder = any_of[0] if any_of else None
        updates = tuple((v, self.value(v, binder)) for v in targets)
        return workloads.Event(name, self.pred(names, 2), updates, any_of)


def _model(rng: random.Random) -> "workloads.Model":
    hi = {name: rng.randint(1, 3) for name in ("a", "b")[: rng.randint(1, 2)]}
    draw = _Draw(rng, hi)
    names = list(hi)
    events = tuple(draw.event(f"e{i}") for i in range(rng.randint(1, 4)))
    system = workloads.System("s", tuple((v, 0, h) for v, h in hi.items()), events)
    props = []
    for i in range(rng.randint(1, 4)):
        kind = rng.choice(("ensures", "unless", "leadsto"))
        helpful = ()
        if kind == "ensures":
            helpful = tuple(e.name for e in rng.sample(events, rng.randint(1, len(events))))
        props.append(workloads.Property(
            f"{kind[0].upper()}{i}", kind, "s", draw.pred(names, 1), draw.pred(names, 0), helpful
        ))
    return workloads.Model((system,), tuple(props), {})


def test_report_verdicts_match_the_engine_free_reference(tmp_path, capsys):
    rng = random.Random(12)
    path = tmp_path / "model.fb"
    compared = 0
    for case in range(MODELS):
        model = _model(rng)
        path.write_text(model.text())
        code = run_cli(["report", str(path), "--format", "json"])
        out = capsys.readouterr().out
        assert code in (0, 1), f"case {case}: exit {code}\n{model.text()}"
        got = {
            entry["id"]: entry["verdict"]
            for entry in json.loads(out)["obligations"]
            if entry["id"].startswith(COMPARED)
        }
        want = {
            oid: verdict
            for oid, verdict in reference.reference_verdicts(model).items()
            if oid.startswith(COMPARED)
        }
        assert got == want, f"case {case}:\n{model.text()}"
        compared += len(got)
    assert compared > 2 * MODELS
