from __future__ import annotations

from pathlib import Path

from faircheck.parser import (
    PAnd,
    PCmp,
    PImp,
    PNot,
    POr,
    parse_document,
)

CTR_SOURCE = (Path(__file__).parent.parent / "models" / "ctr.fb").read_text()

MINI = """
system ctr
  var x : 0..3
  invariant x >= 0
  event inc when x = 1 or x = 2 then x := 3 - x end
  event done when x = 1 or x = 2 then x := 3 end
end
property P1 ensures helpful {done} from x = 1 or x = 2 to x = 3
"""


def test_parse_mini_document():
    result = parse_document(MINI)
    assert result.ok, result.diagnostics
    doc = result.document
    assert len(doc.systems) == 1
    system = doc.systems[0]
    assert system.name == "ctr"
    assert [e.name for e in system.events] == ["inc", "done"]
    assert len(doc.properties) == 1
    prop = doc.properties[0]
    assert prop.kind == "ensures" and prop.helpful == ("done",)
    assert prop.source == "ctr"


def test_parse_full_fixture():
    result = parse_document(CTR_SOURCE)
    assert result.ok, result.diagnostics
    doc = result.document
    assert [s.name for s in doc.systems] == ["ctr"]
    assert [r.name for r in doc.refinements] == ["ctr2"]
    assert {p.name for p in doc.properties} == {
        "P1", "PL", "E_stutter", "E_help", "U29", "P2",
    }
    refinement = doc.refinements[0]
    assert refinement.refined == "ctr"
    assert {e.name: e.refines for e in refinement.events} == {
        "inc2": "inc", "done2": "done", "tick": "skip",
    }
    proof = doc.proofs[0]
    assert proof.goal == "P2"
    assert len(proof.steps) == 13
    # concrete properties bind to the refinement, abstract ones to the system
    sources = {p.name: p.source for p in doc.properties}
    assert sources["P1"] == "ctr" and sources["E_help"] == "ctr2"


def test_empty_file_reports_no_system():
    result = parse_document("")
    assert not result.ok
    assert any("no system declared" in d.message for d in result.diagnostics)


def test_unbalanced_end_has_span():
    source = "system s\n  var x : 0..1\n  event e when true then x := 0\n"
    result = parse_document(source)
    assert not result.ok
    err = result.diagnostics[0]
    assert err.span.line >= 3


def test_multiple_errors_are_collected():
    source = "system a\nvar x 0..1\nend\nsystem b\nvar y : 0..1\ninvariant ???\nend\n"
    result = parse_document(source)
    assert not result.ok
    assert len(result.diagnostics) >= 2


def test_property_before_system_is_an_error():
    result = parse_document("property P leadsto from true to true\n")
    assert not result.ok
    assert any("before any system" in d.message for d in result.diagnostics)


def _errors(source: str) -> list[tuple[int, str]]:
    return [(d.span.line, d.message) for d in parse_document(source).diagnostics]


def test_recovery_resumes_at_the_keyword_an_error_is_found_at():
    # the block lacks its end and the proof its steps: each error is found
    # at the keyword of the next declaration, which is then read
    source = (
        "system s\n var x : 0..1\n event e when x = 0 then x := 1 end\n"
        "property P leadsto frm x = 0 to x = 1\n"
        "proof p goal P end\n"
        "property Q unless from x = 0 x = 1\n"
    )
    assert _errors(source) == [
        (4, "expected var, invariant, event or end, found 'property'"),
        (4, "expected 'from', found 'frm'"),
        (5, "proof 'p' has no steps"),
        (6, "expected 'to', found 'x'"),
    ]


def test_recovery_moves_past_an_error_at_a_declarations_first_keyword():
    source = "property P leadsto from true to true\n" * 3 + "system"
    before = "property appears before any system"
    assert _errors(source) == [
        (1, before), (2, before), (3, before), (4, "expected 'NAME', found 'end of file'")
    ]


def test_a_property_after_a_failed_block_belongs_to_that_block():
    source = "system s\n var y : 0..\nend\nproperty P leadsto frm y = 0 to y = 1\n"
    assert _errors(source) == [
        (3, "expected 'INT', found 'end'"),
        (4, "expected 'from', found 'frm'"),
    ]


def test_predicate_precedence_and_parens():
    source = (
        "system s\n var x : 0..3\n var y : 0..3\n"
        " event e when not x = 1 and (x = 2 or y = 0) => x + 1 * y = 2 then x := 0 end\n"
        "end\n"
    )
    result = parse_document(source)
    assert result.ok, result.diagnostics
    guard = result.document.systems[0].events[0].guard
    assert isinstance(guard, PImp)
    left = guard.left
    assert isinstance(left, PAnd) and len(left.operands) == 2
    assert isinstance(left.operands[0], PNot)
    assert isinstance(left.operands[1], POr)
    cmp = guard.right
    assert isinstance(cmp, PCmp)


def test_parenthesized_arithmetic_vs_predicate():
    source = (
        "system s\n var x : 0..5\n"
        " event e when (x + 1) * 2 = 4 then x := 0 end\n"
        " event f when (x = 1 or x = 2) then x := 0 end\n"
        "end\n"
    )
    result = parse_document(source)
    assert result.ok, result.diagnostics


def test_update_forms_parse():
    source = (
        "system s\n var x : 0..4\n var y : 0..4\n"
        " event a when x < 4 then x := x + 1 ; y := 0 end\n"
        " event b when true then x :: {0, 1, 2} end\n"
        " event c when true then any z : 0..4 where z > x then x := z end end\n"
        "end\n"
    )
    result = parse_document(source)
    assert result.ok, result.diagnostics
    events = result.document.systems[0].events
    assert len(events[0].updates) == 2
    assert len(events[1].updates) == 1


def test_comments_are_ignored():
    source = "// header\nsystem s // trailing\n var x : 0..1\n event e when true then x := 0 end\nend\n"
    assert parse_document(source).ok
