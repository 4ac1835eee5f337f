"""Seeded token-mutation fuzzing of the command line.

Each case replaces, inserts or deletes a few tokens of a shipped model, or
of fuzz_seed.fb, which uses every construct of the language, and runs
`report` on the result. Whatever the text, the run must end in a
verdict (exit 0 or 1) or in a diagnostic (exit 2), never in an uncaught
exception.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from faircheck.cli import run_cli

HERE = Path(__file__).parent
# named rather than globbed, so a new fixture leaves every seeded case as it is
MODELS = [
    HERE.parent / "models" / "ctr.fb",
    HERE.parent / "models" / "ctr_leak.fb",
    HERE.parent / "models" / "tokens.fb",
    HERE / "fuzz_seed.fb",
]

# a comment, one of the lexer's multi-character symbols, a word, or any
# other single character
TOKEN = re.compile(r"//[^\n]*|\.\.|:=|::|=>|<=|>=|/=|!=|\w+|\S")

# text no shipped model contains: a Unicode digit, a literal longer than
# Python converts to an int, and a control character
HOSTILE = ("²", "9" * 5000, "\x00")

CASES = 300


def _tokens(path: Path) -> list[str]:
    return [t for t in TOKEN.findall(path.read_text()) if not t.startswith("//")]


def _mutate(rng: random.Random, tokens: list[str], pool: list[str]) -> str:
    out = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out))
        edit = rng.choice(("replace", "insert", "delete"))
        if edit == "replace":
            out[i] = rng.choice(pool)
        elif edit == "insert":
            out.insert(i, rng.choice(pool))
        else:
            del out[i]
    return " ".join(out)


def test_mutated_models_end_in_a_verdict_or_a_diagnostic(tmp_path, capsys):
    rng = random.Random(4)
    sources = [_tokens(path) for path in MODELS]
    pool = sorted({t for tokens in sources for t in tokens}) + list(HOSTILE)
    path = tmp_path / "mutant.fb"
    for case in range(CASES):
        text = _mutate(rng, rng.choice(sources), pool)
        path.write_text(text, encoding="utf-8")
        try:
            code = run_cli(["report", str(path), "--max-states", "4096"])
        except Exception as err:
            pytest.fail(f"case {case}: uncaught {err!r} on {text[:500]!r}")
        capsys.readouterr()
        assert code in (0, 1, 2), f"case {case}: exit {code}"
