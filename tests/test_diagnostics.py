"""The diagnostics golden: `check` on malformed input, byte for byte.

tests/golden/diagnostics.text is a transcript. Each case is a line
`$ faircheck check <file>`, the stderr of that command as it reads when run
from the directory that holds the file, and a line `exit <code>`. The cases
are tests/malformed.fb, whose top-level errors are each recovered, and one
generated input per parser path: every token the parser accepts
conditionally, the nesting limit of each nesting construct, both comma
lists, missing ends, a property before any system, a refinement without a
gluing and the lexer's errors. Regenerate the golden with

    PYTHONPATH=src python tests/test_diagnostics.py > tests/golden/diagnostics.text
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from faircheck.cli import run_cli

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "diagnostics.text"
MALFORMED = "tests/malformed.fb"

LIMIT = 101  # one level beyond the parser's nesting bound


def _system(event: str = "event e when x = 0 then x := 1 end", decls: str = "var x : 0..1") -> str:
    return f"system s\n  {decls}\n  {event}\nend\n"


def _refinement(body: str) -> str:
    return _system() + f"refinement r refines s\n  var y : 0..1\n{body}end\n"


def _property(text: str) -> str:
    return _system() + text + "\n"


def _proof(steps: str) -> str:
    return _property("property L leadsto from x = 0 to x = 1") + f"proof main goal L\n{steps}end\n"


def _nested_any(depth: int) -> str:
    body = "x := 1"
    for i in range(depth):
        body = f"any z{i} : 0..0 where true then {body} end"
    return _system(f"event e when x = 0 then {body} end")


CASES = {
    # the tokens the parser accepts only where they appear
    "accept-minus": _system(decls="var x : - ..1"),
    "accept-and": _system("event e when x = 0 and then x := 1 end"),
    "accept-or": _system("event e when x = 0 or or x = 1 then x := 1 end"),
    "accept-true": _system("event e when true = 1 then x := 1 end"),
    "accept-false": _system("event e when false x then x := 1 end"),
    "accept-plus": _system("event e when x = 0 then x := x + end"),
    "accept-times": _system("event e when x = 0 then x := 2 * * x end"),
    "accept-name": _system("event e when x x = 0 then x := 1 end"),
    "accept-comparison": _system("event e when x == 0 then x := 1 end"),
    "accept-not-equal": _system("event e when x != then x := 1 end"),
    "accept-no-comparison": _system("event e when x + 1 then x := 1 end"),
    "accept-semicolon": _system("event e when x = 0 then x := 1; ; end"),
    "accept-choice": _system("event e when x = 0 then x :: 1 end"),
    "accept-skip": _refinement(
        "  gluing y = x\n  event e refines e when y = 0 then y := 1 end\n"
        "  event f refines skip then y := 0 end\n"
    ),
    "accept-invariant": _system(decls="var x : 0..1\n  invariant"),
    "accept-gluing": _refinement("  gluing then\n  event e refines e when y = 0 then y := 1 end\n"),
    "accept-ensures": _property("property P ensures {e} from x = 0 to x = 1"),
    "accept-leadsto": _property("property P leadsto to x = 1"),
    "accept-unless": _property("property P unless from x = 0 x = 1"),
    "accept-property-kind": _property("property P from x = 0 to x = 1"),
    "accept-rule": _proof("  step s1 xyz L\n"),
    "accept-step-from": _proof("  step s1 brl from x = 0\n"),
    "proof-without-steps": _proof(""),
    # one level beyond the bound, for each construct that nests
    "depth-paren": _system(f"event e when {'(' * LIMIT}x = 0{')' * LIMIT} then x := 1 end"),
    "depth-paren-arithmetic": _system(
        f"event e when {'(' * LIMIT}x + 1{')' * LIMIT} = 2 then x := 1 end"
    ),
    "depth-paren-expression": _system(f"event e when x = 0 then x := {'(' * LIMIT}1{')' * LIMIT} end"),
    "depth-not": _system(f"event e when {'not ' * LIMIT}x = 0 then x := 1 end"),
    "depth-implies": _system(f"event e when {'x = 0 => ' * LIMIT}x = 0 then x := 1 end"),
    "depth-minus": _system(f"event e when x = 0 then x := {'- ' * LIMIT}1 end"),
    "depth-any": _nested_any(LIMIT),
    # the two comma lists
    "helpful-list-item": _property("property P ensures helpful {e,} from x = 0 to x = 1"),
    "helpful-list-close": _property("property P ensures helpful {e e} from x = 0 to x = 1"),
    "choice-list-item": _system("event e when x = 0 then x :: {0, } end"),
    "choice-list-close": _system("event e when x = 0 then x :: {0 1} end"),
    # blocks and the top level
    "missing-end": "system s\n  var x : 0..1\n  event e when x = 0 then x := 1 end\n",
    "missing-event-end": "system s\n  var x : 0..1\n  event e when x = 0 then x := 1\nend\n",
    "block-member": _system(decls="var x : 0..1\n  gluing x = 0"),
    "top-level": _system() + "event f when x = 1 then x := 0 end\n",
    "property-before-system": "property P leadsto from true to true\n" + _system(),
    "no-system": "// nothing declared\n",
    "refinement-without-gluing": _refinement("  event e refines e when y = 0 then y := 1 end\n"),
    # the lexer
    "unexpected-character": _system("event e when x = ² then x := 1 end"),
    "long-literal": _system(f"event e when x = 0 then x := {'9' * 5000} end"),
}


def _check(path: Path, shown: str) -> str:
    """The transcript of `faircheck check <shown>` run on path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["check", str(path)])
    assert out.getvalue() == "", shown  # a verdict would pin no diagnostic
    stderr = err.getvalue().replace(str(path), shown)
    return f"$ faircheck check {shown}\n{stderr}exit {code}\n"


def render(workdir: Path) -> str:
    """The golden transcript; generated inputs are written to workdir."""
    parts = [_check(HERE / "malformed.fb", MALFORMED)]
    for name, text in CASES.items():
        path = workdir / f"{name}.fb"
        path.write_text(text, encoding="utf-8")
        parts.append(_check(path, path.name))
    return "".join(parts)


def test_diagnostics_match_golden(tmp_path):
    assert render(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        sys.stdout.write(render(Path(scratch)))
