from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from faircheck import cli, obligations, refinement
from faircheck.cli import run_cli
from faircheck.reports import validate_report

ROOT = Path(__file__).parent.parent
CTR = str(ROOT / "models" / "ctr.fb")
LEAK = str(ROOT / "models" / "ctr_leak.fb")


def _run(capsys, *args: str) -> tuple[int, str]:
    code = run_cli(list(args))
    out = capsys.readouterr().out
    return code, out


def test_check_fixture_passes(capsys):
    code, out = _run(capsys, "check", CTR)
    assert code == 0
    assert "WF0:P1" in out and "WF1:P1" in out
    assert "fail" not in out


def test_check_leak_fails_with_rendered_witness(capsys):
    code, out = _run(capsys, "check", LEAK)
    assert code == 1
    assert "WF0:P1" in out
    assert "x=2" in out


def test_refine_fixture_passes(capsys):
    code, out = _run(capsys, "refine", CTR, "--pair", "ctr2")
    assert code == 0
    for rid in ("REF:inc2", "REF:done2", "REF:tick", "SAP:P1", "LIP-goal:P1", "RENS:P1"):
        assert rid in out


def test_prove_and_oracle_pass(capsys):
    assert _run(capsys, "prove", CTR, "--script", "main")[0] == 0
    assert _run(capsys, "oracle", CTR, "--property", "P2")[0] == 0
    assert _run(capsys, "oracle", CTR, "--property", "P1")[0] == 0


def test_oracle_failure_carries_lasso(capsys, tmp_path):
    source = (
        "system spin\n var x : 0..2\n"
        " event loop2 when x < 2 then x := 1 - x end\n"
        "end\n"
        "property L leadsto from x = 0 to x = 2\n"
    )
    model = tmp_path / "spin.fb"
    model.write_text(source)
    code, out = _run(capsys, "oracle", str(model), "--property", "L", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert validate_report(data) == []
    item = data["obligations"][0]
    assert item["verdict"] == "fail"
    assert item["lasso"]["cycle"]


def test_failed_lip_goal_carries_lasso(capsys, tmp_path):
    # the new events spin between y = 0 and y = 1; up is disabled at y = 1,
    # so a weakly fair run avoids the refined helpful guard y = 2
    source = (
        "system a\n var x : 0..1\n event go when x = 0 then x := 1 end\nend\n"
        "property P ensures helpful {go} from x = 0 to x = 1\n"
        "refinement c refines a\n var y : 0..3\n"
        " gluing (y < 3 and x = 0) or (y = 3 and x = 1)\n"
        " event g refines go when y = 2 then y := 3 end\n"
        " event spin refines skip when y < 2 then y := 1 - y end\n"
        " event up refines skip when y = 0 then y := 2 end\n"
        "end\n"
    )
    model = tmp_path / "lip.fb"
    model.write_text(source)
    code, out = _run(capsys, "refine", str(model), "--pair", "c", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert validate_report(data) == []
    items = {item["id"]: item for item in data["obligations"]}
    assert items["SAP:P"]["verdict"] == "pass"
    assert items["LIP-goal:P"]["verdict"] == "fail"
    assert items["LIP-goal:P"]["lasso"]["cycle"]
    rens = items["RENS:P"]
    assert (rens["verdict"], rens["witnesses"]) == ("hypothesis-failed", [])
    assert rens["narrative"] == "liveness preservation goal failed (oracle)"


def test_oracle_requires_known_property(capsys):
    code = run_cli(["oracle", CTR, "--property", "NOPE"])
    assert code == 2


def test_json_report_validates_and_is_deterministic(capsys):
    code1, out1 = _run(capsys, "report", CTR, "--format", "json")
    assert code1 == 0
    data = json.loads(out1)
    assert validate_report(data) == []
    ids = [o["id"] for o in data["obligations"]]
    assert "SCRIPT:main" in ids and "ORACLE:P2" in ids and "RENS:P1" in ids
    code2, out2 = _run(capsys, "report", CTR, "--format", "json")
    assert out1 == out2


def test_text_report_deterministic(capsys):
    _, out1 = _run(capsys, "report", CTR)
    _, out2 = _run(capsys, "report", CTR)
    assert out1 == out2


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.fb"
    bad.write_text("system s\n var x 0..1\nend\n")
    code = run_cli(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "2:" in err  # line information in the diagnostic


def test_elaboration_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.fb"
    bad.write_text(
        "system s\n var x : 0..3\n event up when true then x := x + 1 end\nend\n"
    )
    assert run_cli(["check", str(bad)]) == 2


def test_missing_file_exit_code(capsys):
    assert run_cli(["check", "no-such-file.fb"]) == 2


def _diagnostics(
    tmp_path, capsys, text: str, *options: str, command: str = "report"
) -> list[str]:
    path = tmp_path / "hostile.fb"
    path.write_text(text, encoding="utf-8")
    code = run_cli([command, str(path), *options])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    return [line.replace(str(path), "M") for line in captured.err.splitlines()]


def test_unicode_digit_is_a_diagnostic(tmp_path, capsys):
    # "²" passes str.isdigit, but only ASCII digits make an integer literal
    text = "system s\n var x : 0..²\n event e when true then x := 0 end\nend\n"
    assert "M:2:13: error: unexpected character '²'" in _diagnostics(tmp_path, capsys, text)


def test_integer_literal_beyond_conversion_limit_is_a_diagnostic(tmp_path, capsys):
    # Python refuses to convert a string of more than 4300 digits to an int
    digits = "9" * 5000
    text = f"system s\n var x : 0..1\n event e when true then x := x + {digits} end\nend\n"
    assert _diagnostics(tmp_path, capsys, text) == [
        "M:3:34: error: integer literal of 5000 digits is too long"
    ]


def test_undecodable_file_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "latin1.fb"
    path.write_bytes("system s // café\nend\n".encode("latin-1"))
    code = run_cli(["report", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"cannot read {path}: 'utf-8' codec can't decode")


SMALL = "system s\n var x : 0..1\n event e when x = 0 then x := 1 end\nend\n"
SMALL_REFINEMENT = (
    "refinement r refines s\n var y : 0..1\n gluing y = x\n"
    " event f refines e when y = 0 then y := 1 end\nend\n"
)
SMALL_LEADSTO = "property P leadsto from x = 0 to x = 1\n"
SMALL_PROOF = "proof m goal P\n step a brl from x = 0 to x = 1\nend\n"
SMALL_ENSURES = "property P ensures helpful {e} from x = 0 to x = 1\n"


@pytest.mark.parametrize(
    "text, options, command, diagnostic",
    [
        (SMALL.replace("0..1", "1..0"), (), "report", "M: s: empty range for variable 'x'"),
        (
            SMALL.replace("0..1", "0..2"), ("--max-states", "2"), "report",
            "M: s: state space exceeds the 2-state bound",
        ),
        (
            SMALL.replace("x := 1", "any z : 0..1 where true then x := z end; x := 0"), (),
            "report", "M: s.e: an any-update must be the only update",
        ),
        (
            SMALL + SMALL_REFINEMENT.replace("var y", "var x"), (), "report",
            "M: r: concrete variables shadow abstract ones: ['x']",
        ),
        (
            SMALL + SMALL_REFINEMENT.replace("refines s", "refines t"), (), "report",
            "M: r: refines unknown system 't'",
        ),
        (
            SMALL + SMALL_REFINEMENT.replace(" gluing y = x\n", ""), (), "report",
            "M: r: a refinement needs a gluing predicate",
        ),
        (SMALL.replace(" var x : 0..1\n", ""), (), "report", "M: s: no variables declared"),
        (
            SMALL.replace(" event e when x = 0 then x := 1 end\n", ""), (), "report",
            "M: s: no events declared",
        ),
        (SMALL + SMALL, (), "report", "M: duplicate system 's'"),
        (
            SMALL + SMALL_REFINEMENT.replace("refinement r", "refinement s"), (), "report",
            "M: duplicate declaration 's'",
        ),
        (SMALL + SMALL_LEADSTO * 2, (), "report", "M: duplicate property 'P'"),
        (
            SMALL + SMALL_LEADSTO + SMALL_PROOF * 2, (), "report",
            "M: duplicate proof 'm'",
        ),
        (
            SMALL + SMALL_LEADSTO + SMALL_PROOF.replace("goal P", "goal Q"), (), "report",
            "M: m: goal 'Q' is not a property",
        ),
        (
            SMALL + SMALL_ENSURES + SMALL_PROOF, (), "report",
            "M: m: goal 'P' is not a leadsto property",
        ),
        (
            SMALL + SMALL_ENSURES.replace("{e}", "{f}"), (), "report",
            "M: P: helpful events not in 's': ['f']",
        ),
        (
            SMALL + SMALL_LEADSTO + SMALL_PROOF.replace(" from x = 0 to x = 1", ""), (),
            "report", "M: m.a: brl needs a property name or an inline conclusion",
        ),
        (
            SMALL.replace("0..1", "0..2\n invariant x < 2").replace("x = 0", "x = 1")
            .replace("x := 1", "x := 2"),
            (), "report",
            "M: s.e: from state x=1 the event reaches x=2, which violates the invariant",
        ),
        (
            SMALL + SMALL_LEADSTO + "proof m goal P\nend\n", (), "report",
            "M:6:1: error: proof 'm' has no steps",
        ),
        (SMALL + SMALL_LEADSTO, ("--pair", "r"), "refine", "unknown refinement pair 'r'"),
        (SMALL + SMALL_LEADSTO, ("--script", "m"), "prove", "unknown proof script 'm'"),
        (SMALL, ("--property", "P"), "oracle", "unknown property 'P'"),
        (
            SMALL + "property U unless from x = 0 to x = 1\n", ("--property", "U"), "oracle",
            "property 'U' is an unless property; the oracle decides leadsto and ensures"
            " properties",
        ),
    ],
    ids=[
        "empty-range", "state-bound", "any-not-alone", "shadowing", "unknown-system",
        "no-gluing", "no-variables", "no-events", "duplicate-system", "duplicate-declaration",
        "duplicate-property", "duplicate-proof", "unknown-goal", "goal-not-leadsto",
        "unknown-helpful", "bare-brl", "invariant-escape", "proof-without-steps",
        "unknown-pair", "unknown-script", "unknown-property", "oracle-on-unless",
    ],
)
def test_each_rejected_model_names_its_fault(tmp_path, capsys, text, options, command, diagnostic):
    assert _diagnostics(tmp_path, capsys, text, *options, command=command) == [diagnostic]


STATIC_PROBE = """system s
 var x : 0..2
 {s}
 event f when x = 0 then x := 1 end
end
refinement r refines s
 var y : 0..2
 gluing {r}
 {e}
end
property P leadsto from {p} to y = 1
proof main goal P
 step s1 brl from {step} to y = 1
end
"""
STATIC_DEFAULTS = {
    "s": "invariant x < 3",
    "r": "y = x",
    "e": "event f2 refines f when y = 0 then y := 1 end",
    "p": "y = 0",
    "step": "y = 0",
}


@pytest.mark.parametrize(
    "part, text, diagnostic",
    [
        ("s", "event e when true then x := zz end", "s.e: unknown variable 'zz'"),
        ("s", "event e when false then x := 1; x := 2 end", "s.e: variable 'x' updated twice"),
        ("s", "event e when false then y := 1 end", "s.e: updates unknown variable 'y'"),
        (
            "s",
            "event e when true then any z : 0..1 where true then z := 1 end end",
            "s.e: updates any-binder 'z'",
        ),
        (
            "s",
            "event e when false then any z : 0..1 where z = w then x := z end end",
            "s.e: unknown variable 'w'",
        ),
        ("p", "false and zz = 3", "P: unknown variable 'zz'"),
        ("s", "invariant x < 3 or w = 1", "s: unknown variable 'w'"),
        ("r", "y = x or w = 1", "r: unknown variable 'w'"),
        ("step", "y = 0 or zz = 1", "main.s1: unknown variable 'zz'"),
        (
            "e",
            "event f2 refines ff when y = 0 then y := 1 end",
            "r.f2: refines unknown abstract event 'ff'",
        ),
        (
            "e",
            "event f2 refines skip when y = 0 then y := 1 end",
            "r: abstract events are never refined: ['f']",
        ),
    ],
    ids=["rhs", "twice", "unknown-target", "binder-target", "where", "property",
         "invariant", "gluing", "proof-step", "refines-unknown", "never-refined"],
)
def test_static_rules_are_checked_whatever_the_states(tmp_path, capsys, part, text, diagnostic):
    # each rule holds of the text, so it is broken even where no state
    # reaches the construct, and the diagnostic names the construct; it is
    # checked before any state is enumerated, so a state bound below the
    # 3 * 3 (concrete, abstract) pairs the gluing evaluates does not hide it
    parts = {**STATIC_DEFAULTS, part: text}
    model = STATIC_PROBE.format(**parts)
    diagnostics = _diagnostics(tmp_path, capsys, model, "--max-states", "8")
    assert diagnostics == [f"M: {diagnostic}"]


def test_static_probe_defaults_are_well_formed(tmp_path, capsys):
    path = tmp_path / "probe.fb"
    path.write_text(STATIC_PROBE.format(**STATIC_DEFAULTS))
    assert run_cli(["report", str(path)]) in (0, 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("bound", ["0", "-3", "x"])
def test_max_states_below_one_is_a_usage_error(capsys, bound):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["check", CTR, "--max-states", bound])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-states: " in err
    assert ("invalid int value: 'x'" if bound == "x" else f"must be at least 1, not {bound}") in err


def test_max_states_flag(capsys, tmp_path):
    model = tmp_path / "wide.fb"
    model.write_text(
        "system s\n var x : 0..99\n var y : 0..99\n"
        " event e when true then x := x end\nend\n"
        "property P leadsto from x = 0 to x = 0\n"
    )
    assert run_cli(["check", str(model), "--max-states", "100"]) == 2
    assert run_cli(["check", str(model), "--max-states", "20000"]) == 0


HOSTILE_ANY = """system s
 var x : 0..1
 event pick when true then any z : 0..1000000000000 where z = 1 then x := z end end
end
"""

WIDE_GLUING = """system a
 var x : 0..2047
 event e when true then x := x end
end
refinement c refines a
 var y : 0..2047
 gluing y = x
 event e2 refines e when true then y := y end
end
"""

# four two-valued variables, each chosen from 100 options: 10**8 successors
# of every state
_OPTIONS = ", ".join(["0, 1"] * 50)
HOSTILE_CHOICE = (
    "system s\n"
    + "".join(f" var x{i} : 0..1\n" for i in range(4))
    + " event pick when true then "
    + "; ".join(f"x{i} :: {{{_OPTIONS}}}" for i in range(4))
    + " end\nend\n"
)


@pytest.mark.parametrize(
    "text, diagnostic",
    [
        pytest.param(
            HOSTILE_ANY,
            f"s.pick: any-blocks enumerate more (state, value) pairs than the "
            f"{1 << 20}-state bound",
            id="any",
        ),
        pytest.param(
            WIDE_GLUING,
            f"c: the gluing evaluates {2048 * 2048} (concrete, abstract) pairs, "
            f"more than the {1 << 20}-state bound",
            id="gluing",
        ),
        pytest.param(
            HOSTILE_CHOICE,
            f"s.pick: choice updates enumerate more (state, successor) pairs than the "
            f"{1 << 20}-state bound",
            id="choice",
        ),
    ],
)
def test_unbounded_enumerations_stop_at_the_state_bound(tmp_path, text, diagnostic):
    # a fresh process with a timeout, so an unbounded enumeration fails the
    # test instead of hanging it
    path = tmp_path / "hostile.fb"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "faircheck", "check", str(path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 2
    assert diagnostic in result.stderr
    assert elapsed < 1, elapsed


def _wide_system(n: int) -> list[str]:
    return [
        "system a",
        "  var x : 0..2",
        *(f"  event e{i} when x = 1 then x := 2 end" for i in range(n)),
        "  event go when x = 0 then x := 1 end",
        "end",
        "property P ensures helpful {go} from x = 0 to x = 1",
    ]


def _wide_refinement(n: int) -> list[str]:
    return _wide_system(n) + [
        "refinement c refines a",
        "  var y : 0..2",
        "  gluing y = x",
        *(f"  event f{i} refines e{i} when y = 1 then y := 2 end" for i in range(n)),
        "  event g refines go when y = 0 then y := 1 end",
        "end",
    ]


@pytest.mark.parametrize(
    "lines, passed",
    [
        pytest.param(_wide_system(5000), 3, id="5000-events"),
        pytest.param(_wide_refinement(2000), 2013, id="2000-event-refinement"),
    ],
)
def test_many_events_are_checked_without_deep_recursion(tmp_path, lines, passed):
    # every event group is one flat choice, so no recursion grows with the
    # number of events; a fresh process with a timeout, so a regression
    # fails the test instead of hanging it
    path = tmp_path / "wide.fb"
    path.write_text("\n".join(lines) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "faircheck", "report", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stderr == ""
    assert f"summary: {passed}/{passed} obligations passed" in result.stdout


def test_refine_19_concrete_states_is_checked_exactly(capsys, tmp_path):
    lines = ["system big", " var x : 0..18"]
    lines.append(" event spin when true then x := x end")
    lines.append("end")
    lines.append("refinement big2 refines big")
    lines.append(" var y : 0..18")
    lines.append(" gluing y = x")
    lines.append(" event spin2 refines spin when true then y := y end")
    lines.append("end")
    model = tmp_path / "big.fb"
    model.write_text("\n".join(lines) + "\n")
    code, out = _run(capsys, "refine", str(model), "--pair", "big2")
    assert code == 0
    assert "REF:spin2                    pass" in out


def test_refine_hidden_block_escape_fails(capsys, tmp_path):
    # go2 leaves y=0 for y=18, glued to x=2, while go always reaches x=0;
    # only subsets holding all of y=1..17 and missing y=18 expose it
    lines = ["system hb", " var x : 0..2"]
    lines.append(" event go when true then x := 0 end")
    lines.append("end")
    lines.append("refinement hb2 refines hb")
    lines.append(" var y : 0..18")
    lines.append(
        " gluing (y = 0 and x = 1) or (y > 0 and y < 18 and x = 0) or (y = 18 and x = 2)"
    )
    lines.append(" event go2 refines go when y = 0 then y := 18 end")
    lines.append("end")
    model = tmp_path / "hb.fb"
    model.write_text("\n".join(lines) + "\n")
    code, out = _run(capsys, "refine", str(model), "--pair", "hb2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert validate_report(data) == []
    ref = next(o for o in data["obligations"] if o["id"] == "REF:go2")
    assert ref["verdict"] == "fail"
    assert ref["witnesses"] == [{"state": "x=1", "bindings": {"x": 1}}]


SPLIT_HELPFUL = """system a
  var x : 0..1
  event done when x = 0 then x := 1 end
end
property P ensures helpful {done} from x = 0 to x = 1
refinement c refines a
  var y : 0..3
  gluing y = x or y = x + 2
  event done0 refines done when y = 0 then y := 1 end
  event done2 refines done when y = 2 then y := 1 end
  event flip refines skip when FLIP end
end
"""


SWAP_LASSO = {
    "stem": [],
    "cycle": ["y=0", "y=2", "y=0", "y=2"],
    "justifications": [
        {"event": "done0", "kind": "disabled", "state": "y=2"},
        {"event": "done2", "kind": "disabled", "state": "y=0"},
        {"event": "flip", "kind": "taken", "transition": ["y=0", "y=2"]},
    ],
}


@pytest.mark.parametrize(
    "flip, verdict, witnesses, narrative, lasso",
    [
        ("y = 0 or y = 2 then y := 2 - y", "fail", [{"state": "y=0", "bindings": {"y": 0}}],
         "a weakly fair execution avoids the glued q", SWAP_LASSO),
        ("y = 2 then y := 0", "pass", [],
         "concrete ensures P' holds by ENS, REF, SAP and LIP", None),
    ],
    ids=["swap", "one-way"],
)
def test_split_helpful_event_keeps_the_glued_leadsto_check(
    capsys, tmp_path, flip, verdict, witnesses, narrative, lasso
):
    # done is split into done0 and done2, each enabled in one copy of x = 0.
    # Every gate passes, but when flip swaps the copies forever neither is
    # continuously enabled, so a weakly fair run avoids the glued q; the
    # refutation carries that run as its lasso
    model = tmp_path / "split_helpful.fb"
    model.write_text(SPLIT_HELPFUL.replace("FLIP", flip))
    code, out = _run(capsys, "refine", str(model), "--pair", "c", "--format", "json")
    assert code == (0 if verdict == "pass" else 1)
    verdicts = {o["id"]: o for o in json.loads(out)["obligations"]}
    gates = ["REF:done0", "REF:done2", "REF:flip", "SAP:P", "LIP-goal:P"]
    assert all(verdicts[rid]["verdict"] == "pass" for rid in gates)
    assert all(verdicts[rid]["verdict"] == "pass" for rid in verdicts if rid.startswith("DRV:"))
    rens = verdicts["RENS:P"]
    assert (rens["verdict"], rens["witnesses"], rens["narrative"]) == (verdict, witnesses, narrative)
    assert rens.get("lasso") == lasso


SWAP = """system s
  var y : 0..3
  event done0 when y = 0 then y := 1 end
  event done2 when y = 2 then y := 1 end
  event flip when y = 0 or y = 2 then y := 2 - y end
end
property P ensures helpful {done0, done2} from y = 0 or y = 2 to y = 1
property L leadsto from y = 0 or y = 2 to y = 1
proof main goal L
  step s1 brl P
end
"""


def test_brl_rejects_a_proper_group_of_several_helpful_events(capsys, tmp_path):
    # done0 and done2 take turns being enabled while flip swaps y = 0 and
    # y = 2. ENS:P reads the group as one fair choice and passes, but weak
    # fairness is per event, so the oracle refutes L and brl must not derive it
    model = tmp_path / "swap.fb"
    model.write_text(SWAP)
    code, out = _run(capsys, "report", str(model), "--format", "json")
    assert code == 1
    verdicts = {o["id"]: o for o in json.loads(out)["obligations"]}
    assert verdicts["ENS:P"]["verdict"] == "pass"
    assert verdicts["ORACLE:L"]["verdict"] == "fail"
    assert verdicts["ORACLE:L"]["witnesses"] == [{"state": "y=0", "bindings": {"y": 0}}]
    script = verdicts["SCRIPT:main"]
    assert (script["verdict"], script["refs"]) == ("fail", ["L"])
    assert script["narrative"] == (
        "step 's1': the helpful events of 'P' are not one event or the whole system"
    )


def test_refine_with_failing_abstract_property_skips_derived_inclusions(capsys, tmp_path):
    # the abstract leak breaks P1's first obligation; simulation still holds
    text = Path(CTR).read_text()
    text = text.replace(
        "then x := 3 end\n", "then x := 3 end\n  event leak when x = 2 then x := 0 end\n", 1
    )
    text = text.replace(
        "  event tick refines skip",
        "  event leak2 refines leak when y = 2 then y := 0 end\n  event tick refines skip",
        1,
    )
    model = tmp_path / "leaky_pair.fb"
    model.write_text(text)
    code, out = _run(capsys, "refine", str(model), "--pair", "ctr2", "--format", "json")
    assert code == 1
    verdicts = {o["id"]: o for o in json.loads(out)["obligations"]}
    for event in ("inc2", "done2", "leak2", "tick"):
        assert verdicts[f"REF:{event}"]["verdict"] == "pass"
    assert verdicts["DRV:P1"]["verdict"] == "hypothesis-failed"
    assert verdicts["DRV:P1"]["narrative"].startswith("abstract property failed:")
    assert not any(rid.startswith("DRV:P1:") for rid in verdicts)
    rens = verdicts["RENS:P1"]
    assert rens["verdict"] == "hypothesis-failed"
    assert rens["narrative"].startswith("abstract property failed: WF0:P1 failed")


def test_refine_with_failing_event_refinement_skips_derived_inclusions(capsys, tmp_path):
    # inc2 resets y where inc swaps 1 and 2, so inc2 does not simulate inc;
    # the abstract property still holds
    model = tmp_path / "reset_pair.fb"
    model.write_text(Path(CTR).read_text().replace("then y := 3 - y end", "then y := 0 end", 1))
    code, out = _run(capsys, "refine", str(model), "--pair", "ctr2", "--format", "json")
    assert code == 1
    verdicts = {o["id"]: o for o in json.loads(out)["obligations"]}
    assert verdicts["REF:inc2"]["verdict"] == "fail"
    assert verdicts["DRV:P1"] == {
        "id": "DRV:P1",
        "verdict": "hypothesis-failed",
        "witnesses": [],
        "refs": ["P1"],
        "narrative": "event refinement failed: REF:inc2",
    }
    assert not any(rid.startswith("DRV:P1:") for rid in verdicts)
    assert verdicts["RENS:P1"]["narrative"] == "event refinement failed: REF:inc2"


def test_failing_event_refinement_lists_each_abstract_state_once(capsys, tmp_path):
    # inc2 resets y: from y=1 and from y=2 it reaches y=0, glued to x=0,
    # which is no successor of x=1 or x=2 under inc, so both fail SIM
    model = tmp_path / "reset_pair.fb"
    model.write_text(Path(CTR).read_text().replace("then y := 3 - y end", "then y := 0 end", 1))
    narrative = (
        "abstract event is disabled at, or does not simulate a concrete step from,"
        " these glued states"
    )
    code, out = _run(capsys, "refine", str(model), "--pair", "ctr2")
    assert code == 1
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("REF:inc2"))
    assert lines[at] == f"{'REF:inc2':<28} fail  [x=1, x=2]"
    assert lines[at + 1] == f"    {narrative}"
    code, out = _run(capsys, "refine", str(model), "--pair", "ctr2", "--format", "json")
    assert code == 1
    ref = next(o for o in json.loads(out)["obligations"] if o["id"] == "REF:inc2")
    assert ref == {
        "id": "REF:inc2",
        "verdict": "fail",
        "witnesses": [
            {"state": "x=1", "bindings": {"x": 1}},
            {"state": "x=2", "bindings": {"x": 2}},
        ],
        "refs": ["inc2", "inc"],
        "narrative": narrative,
    }


def test_json_witnesses_are_bounded_and_counted(capsys, tmp_path):
    # inc reaches x = 300 in one step only from x = 299, so WF1 and ENS fail
    # on the 299 states x = 0..298
    model = tmp_path / "chain.fb"
    model.write_text(
        "system chain\n var x : 0..300\n event inc when x < 300 then x := x + 1 end\nend\n"
        "property P ensures helpful {inc} from x < 300 to x = 300\n"
    )
    code, out = _run(capsys, "check", str(model), "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert validate_report(data) == []
    verdicts = {o["id"]: o for o in data["obligations"]}
    assert "witness_count" not in verdicts["WF0:P"]
    for rid in ("WF1:P", "ENS:P"):
        entry = verdicts[rid]
        assert entry["witness_count"] == 299
        assert [w["bindings"]["x"] for w in entry["witnesses"]] == list(range(100))
    code, out = _run(capsys, "check", str(model))
    assert f"{'WF1:P':<28} fail  [x=0, x=1, x=2, x=3, +295 more]" in out.splitlines()


@pytest.mark.parametrize(
    "top, shown",
    [(5, "x=0, x=1, x=2, x=3"), (6, "x=0, x=1, x=2, x=3, +1 more")],
    ids=["four", "five"],
)
def test_text_witnesses_count_the_unshown(capsys, tmp_path, top, shown):
    # WF1 and ENS fail on x = 0..top-2; a text line shows the first four
    # witnesses and counts the others
    model = tmp_path / "chain.fb"
    model.write_text(
        f"system chain\n var x : 0..{top}\n event inc when x < {top} then x := x + 1 end\nend\n"
        f"property P ensures helpful {{inc}} from x < {top} to x = {top}\n"
    )
    code, out = _run(capsys, "check", str(model))
    assert code == 1
    for rid in ("WF1:P", "ENS:P"):
        assert f"{rid:<28} fail  [{shown}]" in out.splitlines()


# done is disabled only at x = 1999, so the lasso's cycle walks from x = 0
# up to x = 1999 and back, 4000 states
FAR_END = (
    "system ring\n var x : 0..2000\n"
    " event inc when x < 2000 then x := x + 1 end\n"
    " event back when x > 0 and x < 2000 then x := x - 1 end\n"
    " event done when x < 1999 then x := 2000 end\n"
    "end\n"
    "property L leadsto from x < 2000 to x = 2000\n"
)

# the lasso's stem walks x = 0..199 into the cycle 200 <-> 201
LONG_STEM = (
    "system walk\n var x : 0..300\n"
    " event inc when x < 200 then x := x + 1 end\n"
    " event spin when x = 200 or x = 201 then x := 401 - x end\n"
    "end\n"
    "property L leadsto from x = 0 to x = 300\n"
)


@pytest.mark.parametrize(
    "source, keys, cut",
    [
        (FAR_END, ["stem", "cycle", "cycle_length", "justifications"], ("cycle", 4000)),
        (LONG_STEM, ["stem", "stem_length", "cycle", "justifications"], ("stem", 200)),
    ],
    ids=["cycle", "stem"],
)
def test_json_lasso_is_bounded_and_counted(capsys, tmp_path, source, keys, cut):
    # JSON renders the first 100 states of a longer stem or cycle and adds
    # its length
    model = tmp_path / "lasso.fb"
    model.write_text(source)
    code, out = _run(capsys, "oracle", str(model), "--property", "L", "--format", "json")
    assert code == 1
    assert len(out) < 20_000
    data = json.loads(out)
    assert validate_report(data) == []
    lasso = data["obligations"][0]["lasso"]
    assert list(lasso) == keys
    part, length = cut
    assert len(lasso[part]) == 100 and lasso[part][0] == "x=0"
    assert lasso[f"{part}_length"] == length


def test_validate_report_reads_witness_count():
    entry = {"id": "E", "verdict": "fail", "witnesses": [], "refs": []}
    doc = {"version": "1", "model": "m", "obligations": [entry]}
    assert validate_report(doc) == []
    for count, ok in ((3, True), (0, True), (-1, False), ("3", False), (True, False)):
        entry["witness_count"] = count
        assert (validate_report(doc) == []) == ok, count
    del entry["witness_count"]
    # the lasso's lengths are read the same way
    entry["lasso"] = {"stem": ["x=0"], "cycle": ["x=1"], "justifications": []}
    assert validate_report(doc) == []
    for key in ("stem_length", "cycle_length"):
        for count, ok in ((3, True), (1, True), (0, False), ("3", False), (True, False)):
            entry["lasso"][key] = count
            assert (validate_report(doc) == []) == ok, (key, count)
        del entry["lasso"][key]
    for lasso in ([], {"stem": []}, {"stem": "x=0", "cycle": []}):
        entry["lasso"] = lasso
        assert validate_report(doc) != [], lasso


def test_blocked_preserved_ensures_renders_no_abstract_witness(capsys, tmp_path):
    # go2 does not simulate go; REF:go2's witnesses are abstract states
    # (x = 4 of 0..5), which the two concrete states cannot render
    model = tmp_path / "big_small.fb"
    model.write_text(
        "system big\n var x : 0..5\n event go when x < 5 then x := x + 1 end\nend\n"
        "property P ensures helpful {go} from x = 4 to x = 5\n"
        "refinement small refines big\n var y : 0..1\n gluing x = y + 4\n"
        " event go2 refines go when y = 0 then y := 0 end\nend\n"
    )
    code, out = _run(capsys, "refine", str(model), "--pair", "small", "--format", "json")
    assert code == 1
    verdicts = {o["id"]: o for o in json.loads(out)["obligations"]}
    assert verdicts["REF:go2"]["witnesses"] == [{"state": "x=4", "bindings": {"x": 4}}]
    assert verdicts["RENS:P"] == {
        "id": "RENS:P",
        "verdict": "hypothesis-failed",
        "witnesses": [],
        "refs": ["P"],
        "narrative": "event refinement failed: REF:go2",
    }


@pytest.mark.parametrize(
    "guard, narrative",
    [
        ("y = 1 or y = 2", "a weakly fair execution avoids the refined helpful guard"),
        (
            "(y = 1 or y = 2) and t /= 2",
            "a stuck state is reachable before the refined helpful guard",
        ),
    ],
    ids=["lasso", "deadlock"],
)
def test_failed_lip_goal_names_one_counterexample_state(capsys, tmp_path, guard, narrative):
    # tick raises t = 0 but not t = 2, so from y = 1 or 2 with t = 2 done2
    # never becomes enabled: inc2 swaps y forever, or (guarded by t /= 2)
    # nothing is enabled; from t = 0 every fair run reaches done2's guard
    text = Path(CTR).read_text().replace("var t : 0..1", "var t : 0..2", 1)
    text = text.replace("when y = 1 or y = 2 then y := 3 - y", f"when {guard} then y := 3 - y", 1)
    model = tmp_path / "lip.fb"
    model.write_text(text)
    code, out = _run(capsys, "refine", str(model), "--pair", "ctr2", "--format", "json")
    assert code == 1
    lip = next(o for o in json.loads(out)["obligations"] if o["id"] == "LIP-goal:P1")
    assert lip["verdict"] == "fail"
    assert lip["witnesses"] == [{"state": "y=1,t=2", "bindings": {"y": 1, "t": 2}}]
    assert lip["narrative"] == narrative
    if "t /= 2" in guard:
        assert "lasso" not in lip
    else:
        assert lip["lasso"]["cycle"][0] == "y=1,t=2"


GRID = """system grid
  var v : 0..2
  var u : 0..2
  invariant v /= 1 or u = 2
  event walk when v = 0 and u < 2 then u := u + 1 end
  event hop when v = 0 and u = 2 then v := 2; u := 0 end
  event spin when v = 2 and u < 2 then u := 1 - u end
end
property E ensures helpful {spin} from v = 2 to u = 2
property L leadsto from v = 0 to v = 1
"""


def test_witnesses_and_lassos_name_states_by_their_values(capsys, tmp_path):
    # the invariant drops v=1,u=0 and v=1,u=1, so the state v=2,u=0 has
    # index 4 but position 6 in the box; labels follow declaration order
    model = tmp_path / "grid.fb"
    model.write_text(GRID)
    code, out = _run(capsys, "report", str(model), "--format", "json")
    assert code == 1
    verdicts = {o["id"]: o for o in json.loads(out)["obligations"]}
    assert verdicts["ENS:E"]["witnesses"] == [
        {"state": "v=2,u=0", "bindings": {"v": 2, "u": 0}},
        {"state": "v=2,u=1", "bindings": {"v": 2, "u": 1}},
    ]
    assert [list(w["bindings"]) for w in verdicts["ENS:E"]["witnesses"]] == [["v", "u"]] * 2
    oracle = verdicts["ORACLE:L"]
    assert oracle["witnesses"] == [{"state": "v=2,u=0", "bindings": {"v": 2, "u": 0}}]
    assert oracle["lasso"] == {
        "stem": ["v=0,u=2"],
        "cycle": ["v=2,u=0", "v=2,u=1"],
        "justifications": [
            {"event": "walk", "kind": "disabled", "state": "v=2,u=0"},
            {"event": "hop", "kind": "disabled", "state": "v=2,u=0"},
            {"event": "spin", "kind": "taken", "transition": ["v=2,u=0", "v=2,u=1"]},
        ],
    }


@pytest.mark.parametrize(
    "flag",
    [["--samples", "50"], ["--seed", "3"], ["--exhaustive"]],
    ids=["samples", "seed", "exhaustive"],
)
def test_removed_quantifier_flags_are_usage_errors(capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["refine", CTR, "--pair", "ctr2", *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _computed(monkeypatch) -> Counter:
    """Count the obligation reports a run builds, by id. A memoised check
    that is called again returns its stored report and builds none, so this
    counts how often each obligation is decided, not how often it is asked."""
    computed: Counter = Counter()
    build = obligations.ObligationReport

    def counting(*args, **kwargs):
        report = build(*args, **kwargs)
        computed[report.id] += 1
        return report

    for module in (obligations, refinement):
        monkeypatch.setattr(module, "ObligationReport", counting)
    return computed


def test_refine_computes_each_gate_once(capsys, monkeypatch):
    computed = _computed(monkeypatch)
    code, _ = _run(capsys, "refine", CTR, "--pair", "ctr2")
    assert code == 0
    assert {"ENS:P1", "REF:inc2", "REF:done2", "REF:tick", "SAP:P1"} <= set(computed)
    assert set(computed.values()) == {1}


def test_witness_bindings_in_json(capsys):
    code, out = _run(capsys, "check", LEAK, "--format", "json")
    assert code == 1
    data = json.loads(out)
    wf0 = next(o for o in data["obligations"] if o["id"] == "WF0:P1")
    assert wf0["witnesses"] == [{"state": "x=2", "bindings": {"x": 2}}]


def test_report_checks_each_ensures_property_once(capsys, monkeypatch):
    computed = _computed(monkeypatch)
    code, _ = _run(capsys, "report", CTR)
    assert code == 0
    for name in ("P1", "E_stutter", "E_help"):
        assert [computed[f"{kind}:{name}"] for kind in ("WF0", "WF1", "ENS")] == [1, 1, 1]


@pytest.mark.parametrize("model", ["ctr", "ctr_leak"])
def test_report_decides_each_obligation_once(capsys, monkeypatch, model):
    # the report lines, the refinement gates and the script's brl and psp
    # steps all ask for the same verdicts; each is decided once
    computed = _computed(monkeypatch)
    _run(capsys, "report", str(ROOT / "models" / f"{model}.fb"))
    kinds = ("WF0:", "WF1:", "ENS:", "UNL:", "REF:", "SAP:")
    decided = {rid: n for rid, n in computed.items() if rid.startswith(kinds)}
    assert {"WF0:P1", "WF1:P1", "ENS:P1"} <= set(decided)
    if model == "ctr":
        assert {"UNL:U29", "REF:tick", "SAP:P1", "ENS:E_help", "ENS:main:s5"} <= set(decided)
    assert [rid for rid, n in decided.items() if n != 1] == []


def test_report_is_the_concatenation_of_its_subcommands(capsys):
    # each subcommand checks its gates afresh; report reuses them, and must
    # still render every obligation exactly as the subcommands do
    def obligations(*args: str) -> list:
        _, out = _run(capsys, *args, "--format", "json")
        return json.loads(out)["obligations"]

    for path in (CTR, LEAK):
        parts = obligations("check", path)
        text = Path(path).read_text()
        if "refinement ctr2" in text:
            parts += obligations("refine", path, "--pair", "ctr2")
            parts += obligations("prove", path, "--script", "main")
            parts += obligations("oracle", path, "--property", "PL")
            parts += obligations("oracle", path, "--property", "P2")
        assert obligations("report", path) == parts


@pytest.mark.parametrize("model", ["ctr", "ctr_leak", "fuzz_seed", "tokens"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_matches_golden_output(capsys, monkeypatch, model, fmt):
    # tests/golden holds the report as the per-state liberal transformer
    # produced it; the pre-image kernel must not change a byte.
    # tests/fuzz_seed.fb uses every construct of the language.
    # models/tokens.fb's invariant carves its box, and its predicates read
    # fewer joint valuations than it has states; its golden files were
    # written when every predicate was walked on every state, so the
    # valuation table must not change a byte either
    monkeypatch.chdir(ROOT)
    path = "tests/fuzz_seed.fb" if model == "fuzz_seed" else f"models/{model}.fb"
    code, out = _run(capsys, "report", path, "--format", fmt)
    assert code == (0 if model == "ctr" else 1)
    assert out == (ROOT / "tests" / "golden" / f"{model}_report.{fmt}").read_text()


def test_engine_defect_is_an_internal_error(capsys, monkeypatch):
    from faircheck.fairloop import LoopCheck

    monkeypatch.setattr(
        obligations, "check_total_correctness", lambda loop, p: LoopCheck("fail")
    )
    code = run_cli(["report", CTR])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal error: ensures 'P1' passed WF0/WF1")


NESTED = """system s
  var x : 0..3
  event inc when {guard} then x := x + 1 end
  event done when x = 3 then x := 0 end
end
property P ensures helpful {{inc}} from {frm} to x = 1
"""


def _nested(depth: int, pred: str) -> str:
    return "(" * depth + pred + ")" * depth


@pytest.mark.parametrize(
    "guard, frm, span",
    [
        pytest.param(_nested(3000, "x < 3"), "x = 0", "3:118", id="guard"),
        pytest.param("x < 3", _nested(3000, "x = 0"), "6:139", id="property"),
        # the limit is reached at "not", which only the predicate reading
        # parses; the arithmetic reading must not replace the diagnostic
        pytest.param(_nested(100, "not x < 3"), "x = 0", "3:118", id="not"),
        # every level abandons its predicate reading for the arithmetic one
        pytest.param(_nested(101, "x + 1") + " = 2", "x = 0", "3:118", id="arithmetic"),
    ],
)
def test_deep_nesting_is_a_diagnostic(tmp_path, capsys, guard, frm, span):
    path = tmp_path / "deep.fb"
    path.write_text(NESTED.format(guard=guard, frm=frm))
    code = run_cli(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    # the diagnostic points at the first token beyond the limit
    assert f"{path}:{span}: error: nested deeper than 100 levels" in err


@pytest.mark.parametrize(
    "guard, frm",
    [
        pytest.param(_nested(50, "x < 3"), _nested(50, "x = 0"), id="50"),
        pytest.param(_nested(100, "x < 3"), _nested(100, "x = 0"), id="100"),
        pytest.param("x < 3", _nested(100, "x + 1") + " = 2", id="arithmetic"),
    ],
)
def test_nesting_within_the_limit_is_checked(tmp_path, capsys, guard, frm):
    path = tmp_path / "nested.fb"
    path.write_text(NESTED.format(guard=guard, frm=frm))
    code, out = _run(capsys, "check", str(path))
    assert code == 0
    assert "ENS:P" in out


def _nested_any(depth: int) -> str:
    body = "x := 1"
    for i in range(depth):
        body = f"any z{i} : 0..0 where true then {body} end"
    return f"system s\n  var x : 0..1\n  event e when x = 0 then {body} end\nend\n"


@pytest.mark.parametrize("depth", [101, 500])
def test_deeply_nested_any_blocks_are_a_diagnostic(tmp_path, capsys, depth):
    # each any block is one nesting level; the diagnostic points at the
    # 101st block from the outside
    path = tmp_path / "deep.fb"
    text = _nested_any(depth)
    path.write_text(text)
    code = run_cli(["check", str(path)])
    err = capsys.readouterr().err
    column = text.splitlines()[2].index(f"any z{depth - 101} ") + 1
    assert code == 2
    assert err == f"{path}:3:{column}: error: nested deeper than 100 levels\n"


def test_nested_any_blocks_within_the_limit_are_checked(tmp_path, capsys):
    path = tmp_path / "nested.fb"
    path.write_text(_nested_any(100))
    code, out = _run(capsys, "check", str(path))
    assert code == 0
    assert "summary: 0/0 obligations passed" in out


CHAINED = """system s
  var x : 0..3
  event inc when {guard} then x := {update} end
  event done when x = 3 then x := 0 end
end
property P ensures helpful {{inc}} from {frm} to x = 1
property L leadsto from {frm} to x = 3
"""


@pytest.mark.parametrize(
    "guard, update, frm",
    [
        pytest.param(" and ".join(["x < 3"] * 3000), "x + 1", "x = 0", id="and"),
        pytest.param("x < 3", " + ".join(["x"] + ["0"] * 2998 + ["1"]), "x = 0", id="plus"),
        pytest.param("x < 3", " - ".join(["x + 1"] + ["0"] * 2999), "x = 0", id="minus"),
        pytest.param("x < 3", " * ".join(["x"] + ["1"] * 2999) + " + 1", "x = 0", id="times"),
        pytest.param("x < 3", "x + 1", " or ".join(["x = 0"] * 3000), id="or"),
    ],
)
def test_long_operator_chains_are_evaluated_without_recursion(tmp_path, capsys, guard, update, frm):
    # a chain of 3000 operators gives the same report as the plain model
    chained, plain = tmp_path / "chained.fb", tmp_path / "plain.fb"
    chained.write_text(CHAINED.format(guard=guard, update=update, frm=frm))
    plain.write_text(CHAINED.format(guard="x < 3", update="x + 1", frm="x = 0"))
    code, out = _run(capsys, "report", str(chained))
    assert code == 0
    assert "ENS:P" in out and "ORACLE:L" in out
    assert out.replace(str(chained), "M") == _run(capsys, "report", str(plain))[1].replace(
        str(plain), "M"
    )


def _ring(n: int) -> str:
    return "\n".join([
        "system ring",
        f"  var x : 0..{n}",
        f"  event inc when x < {n} then x := x + 1 end",
        f"  event back when x > 0 and x < {n} then x := x - 1 end",
        f"  event done when x < {n} then x := {n} end",
        "end",
        f"property E ensures helpful {{done}} from x < {n} to x = {n}",
        f"property L leadsto from x < {n} to x = {n}",
    ]) + "\n"


def test_report_keeps_no_model_alive(tmp_path, capsys, monkeypatch):
    # a module-level cache of commands or relations would keep them alive
    # after the run, and memory would grow with every model checked
    path = tmp_path / "ring.fb"
    path.write_text(_ring(40))
    refs = []
    elaborate = cli.elaborate

    def recording(*args, **kwargs):
        model = elaborate(*args, **kwargs)
        for event in model.systems["ring"].system.events.values():
            refs.extend((weakref.ref(event), weakref.ref(event.body.rel)))
        return model

    monkeypatch.setattr(cli, "elaborate", recording)
    code, out = _run(capsys, "report", str(path))
    assert code == 0 and "ENS:E" in out and "ORACLE:L" in out
    gc.collect()
    assert len(refs) == 6
    assert all(ref() is None for ref in refs)
