"""Engine self-checks raise EngineDefect, also under `python -O`."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from faircheck import EngineDefect, EventSystem, Guard, Prim, StateRelation, check_ensures
from faircheck.commands import CheckResult
from faircheck.elaborator import elaborate
from faircheck.fairloop import LoopCheck
from faircheck.parser import parse_document
from faircheck.unity import semantic_leadsto

ROOT = Path(__file__).parent.parent


def test_failed_fair_loop_self_check_raises(ctr, monkeypatch):
    monkeypatch.setattr(
        "faircheck.obligations.check_total_correctness", lambda loop, p: LoopCheck("fail")
    )
    with pytest.raises(EngineDefect, match="fair-loop conclusion failed"):
        check_ensures(ctr.system, ctr.prop)


def test_non_conjunctive_elaborated_event_raises(monkeypatch):
    monkeypatch.setattr(
        "faircheck.elaborator.conjunctivity_check", lambda c, samples: CheckResult(False)
    )
    doc = parse_document((ROOT / "models" / "ctr.fb").read_text()).document
    with pytest.raises(EngineDefect, match=r"ctr\.inc: elaborated event is not conjunctive"):
        elaborate(doc)


@pytest.fixture
def lasso_case(ctr):
    """The ctr system with a helper enabled only at state 1: its lasso
    cycles 1 -> 2 -> 1 with inc taken and done1 disabled at 2."""
    space = ctr.space
    done1 = Guard(space.subset([1]), Prim(StateRelation(space, space, [(1, 3)])))
    system = EventSystem(space, {"inc": ctr.inc, "done1": done1})
    lasso = semantic_leadsto(system, ctr.p, ctr.q).lasso
    lasso.validate(system, ctr.p, ctr.q)
    return system, ctr.p, ctr.q, lasso


def _justify(lasso, label, kind, witness):
    rest = tuple(j for j in lasso.justifications if j[0] != label)
    return rest + ((label, kind, witness),)


# each mutation of the valid lasso breaks one check of `validate`
BROKEN = {
    "cycle must be nonempty": lambda l: dataclasses.replace(l, stem=(1,), cycle=()),
    "must start in the left set": lambda l: dataclasses.replace(l, stem=(0,) + l.stem),
    "must avoid the right set": lambda l: dataclasses.replace(l, cycle=l.cycle + (3,)),
    "no event connects 2 to 2": lambda l: dataclasses.replace(l, stem=(2, 2)),
    "cycle does not close": lambda l: dataclasses.replace(l, stem=(), cycle=(1, 2, 1)),
    "must cover every event": lambda l: dataclasses.replace(
        l, justifications=l.justifications[:1]
    ),
    "done1 is not disabled at 1": lambda l: dataclasses.replace(
        l, justifications=_justify(l, "done1", "disabled", 1)
    ),
    "unknown justification kind": lambda l: dataclasses.replace(
        l, justifications=_justify(l, "done1", "ignored", 2)
    ),
    "taken transition must appear in the cycle": lambda l: dataclasses.replace(
        l, justifications=_justify(l, "inc", "taken", (1, 3))
    ),
    "transition not in the event": lambda l: dataclasses.replace(
        l, justifications=_justify(l, "done1", "taken", (1, 2))
    ),
}


@pytest.mark.parametrize("defect", sorted(BROKEN))
def test_invalid_lasso_raises(lasso_case, defect):
    system, p, q, lasso = lasso_case
    with pytest.raises(EngineDefect, match=f"invalid lasso: .*{defect}"):
        BROKEN[defect](lasso).validate(system, p, q)


_UNDER_O = """
import sys
import faircheck.obligations as obligations
from faircheck import EngineDefect, EnsuresProperty, EventSystem, Guard, Prim
from faircheck import StateRelation, StateSpace, check_ensures
from faircheck.fairloop import LoopCheck

assert False, "asserts are stripped under -O"
space = StateSpace("u", 2)
step = Guard(space.subset([0]), Prim(StateRelation(space, space, [(0, 1)])))
system = EventSystem(space, {"step": step})
prop = EnsuresProperty("P", frozenset({"step"}), space.subset([0]), space.subset([1]))
obligations.check_total_correctness = lambda loop, p: LoopCheck("fail")
try:
    check_ensures(system, prop)
except EngineDefect:
    sys.exit(0)
sys.exit(1)
"""


def test_engine_defect_survives_python_O():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
