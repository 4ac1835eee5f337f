from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from faircheck import cli, refinement
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


def test_max_states_flag(capsys, tmp_path):
    model = tmp_path / "wide.fb"
    model.write_text(
        "system s\n var x : 0..99\n var y : 0..99\n"
        " event e when true then x := x end\nend\n"
        "property P leadsto from x = 0 to x = 0\n"
    )
    assert run_cli(["check", str(model), "--max-states", "100"]) == 2
    assert run_cli(["check", str(model), "--max-states", "20000"]) == 0


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


def test_refine_computes_each_gate_once(capsys, monkeypatch):
    events, saps, abstract_ens = Counter(), Counter(), Counter()

    def counting(module, name, tally, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            tally[key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(refinement, "check_event_refinement", events, lambda rp, label: label)
    for module in (cli, refinement):
        counting(module, "check_sap", saps, lambda rp, prop: prop.name)
        counting(
            module,
            "check_ensures",
            abstract_ens,
            lambda system, prop: prop.name if system.space.id == "ctr" else None,
        )
    code, _ = _run(capsys, "refine", CTR, "--pair", "ctr2")
    assert code == 0
    assert events == {"inc2": 1, "done2": 1, "tick": 1}
    assert saps == {"P1": 1}
    assert abstract_ens["P1"] == 1


def test_witness_bindings_in_json(capsys):
    code, out = _run(capsys, "check", LEAK, "--format", "json")
    assert code == 1
    data = json.loads(out)
    wf0 = next(o for o in data["obligations"] if o["id"] == "WF0:P1")
    assert wf0["witnesses"] == [{"state": "x=2", "bindings": {"x": 2}}]
