"""Smoke tests for the benchmark: known answers, distinct models, metric names.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

import run
from reference import reference_verdicts
from tracer import COUNTERS, SPANS, Tracer, _owner
from workloads import WORKLOADS, ModelStream

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def models(name: str, seed: int, count: int, size: int | None = None):
    workload = WORKLOADS[name]
    stream = ModelStream(workload, seed, workload.smoke if size is None else size)
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_expected_verdicts_match_reference(name: str, seed: int) -> None:
    for model in models(name, seed, 2 * len(WORKLOADS[name].variants)):
        assert model.expected == reference_verdicts(model), model.text()


def test_split_refine_expected_verdicts_at_full_size() -> None:
    # 12 concrete states is both the workload size and small enough for the
    # reference's exhaustive subset loops.
    for model in models("split-refine", 7, 2, WORKLOADS["split-refine"].size):
        assert model.expected == reference_verdicts(model)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_models_are_seeded_and_distinct(name: str) -> None:
    size = WORKLOADS[name].size
    # Several times the models a run checks today, so a faster faircheck
    # does not exhaust the distinct structures.
    first = [m.digest() for m in models(name, 3, 300, size)]
    assert len(set(first)) == len(first)
    assert first[:20] == [m.digest() for m in models(name, 3, 20, size)]
    assert first[:20] != [m.digest() for m in models(name, 4, 20, size)]


def test_stream_refuses_to_repeat_a_model() -> None:
    workload = WORKLOADS["split-refine"]
    fixed = dataclasses.replace(workload, make=lambda rng, size, variant: workload.make(
        type(rng)(0), size, variant), variants=("none",))
    stream = iter(ModelStream(fixed, 0, fixed.smoke))
    next(stream)
    with pytest.raises(RuntimeError, match="distinct"):
        next(stream)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_has_no_failures_and_every_metric(name: str, tmp_path: Path) -> None:
    workload = WORKLOADS[name]
    smoke = models(name, 0, 2 * len(workload.variants))
    outcome = run.Bench().measure(iter(smoke), 60.0, tmp_path)
    assert len(outcome.samples) == len(smoke) and outcome.failed == 0
    # A zero-second run checks exactly one model.
    for report, declared in (
        (run.end_to_end(workload, 0, 0.0, workload.smoke), BENCHMARK["end_to_end"]),
        (run.per_layer(workload, 0, 0.0, workload.smoke), BENCHMARK["per_layer"]),
    ):
        result = report["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
        assert {m["name"]: m["unit"] for m in declared} == {
            k: v["unit"] for k, v in result["metrics"].items()
        }


def test_planted_wrong_verdict_counts_as_failure(tmp_path: Path) -> None:
    workload = WORKLOADS["oracle-ring"]
    planted = models("oracle-ring", 0, 6)
    wrong = planted[2]
    flipped = {k: ("pass" if v != "pass" else "fail") for k, v in wrong.expected.items()}
    planted[2] = dataclasses.replace(wrong, expected=flipped)
    outcome = run.Bench().measure(iter(planted), 60.0, tmp_path)
    assert len(outcome.samples) == 6
    assert outcome.failed == 1
    assert outcome.samples[2].problem is not None


def test_tail_has_ten_samples_beyond_it() -> None:
    assert run._tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    assert run._tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_restores_every_binding() -> None:
    targets = [(p, a) for p, a, _ in SPANS] + list(COUNTERS)
    before = [vars(_owner(p)).get(a) for p, a in targets]
    tracer = Tracer()
    tracer.install()
    assert all(vars(_owner(p)).get(a) is not b for (p, a), b in zip(targets, before))
    tracer.uninstall()
    assert [vars(_owner(p)).get(a) for p, a in targets] == before
    assert tracer.missing == []
