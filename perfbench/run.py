"""faircheck benchmark: time to verdict and peak memory on seeded models.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports faircheck from the
checkout's `src/`. One single-threaded process per run, closed loop: the
next model is generated and written only after the previous verdict is in.
Each model goes through the public CLI entry
`run_cli(["report", FILE, "--format", "json"])` in process, and its time
runs from the model file on disk to a report that `validate_report`
accepts. A model fails on an exception, an unexpected exit code, a rejected
report, or any verdict (matched by obligation id) that differs from the
verdict its generator expects.

`--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
traces every other cycle of workload variants (see tracer.py), compares
traced with untraced model times, and reports the per-layer metrics. Both
print one line per metric and, as the last line of stdout, one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from tracer import Tracer
from workloads import WORKLOADS, Model, ModelStream, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 7


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup() -> float:
    """Median wall seconds for a fresh interpreter to import faircheck.cli
    and exit. One untimed import first writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import faircheck.cli"]
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        if repeat:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Sample:
    seconds: float
    problem: str | None
    traced: bool


@dataclass
class Run:
    samples: list[Sample] = field(default_factory=list)
    rss_mb: float = 0.0  # high-water RSS once `rss_after` models were done
    rss_first_mb: float = 0.0  # high-water RSS after the first model
    stats: Counter[str] = field(default_factory=Counter)  # summed over traced models

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.problem is not None)


class Bench:
    """Checks generated models through faircheck's CLI entry."""

    def __init__(self) -> None:
        self.cli = importlib.import_module("faircheck.cli")
        self.validate = importlib.import_module("faircheck.reports").validate_report
        self.commands = importlib.import_module("faircheck.commands")

    def check(self, path: Path, model: Model) -> tuple[float, str | None]:
        """Seconds from the file on disk to a validated report, and what was
        wrong with the outcome, if anything."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.run_cli(["report", str(path), "--format", "json"])
            report = json.loads(out.getvalue())
            problems = self.validate(report)
        except Exception as err:  # the model counts as failed; keep measuring
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return elapsed, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - start
        if problems:
            return seconds, f"report rejected: {problems[0]}"
        if code != model.expected_exit:
            return seconds, f"exit code {code}, expected {model.expected_exit}"
        verdicts = {item["id"]: item["verdict"] for item in report["obligations"]}
        if len(verdicts) != len(report["obligations"]):
            return seconds, "duplicate obligation ids"
        wrong = sorted(
            key
            for key in verdicts.keys() | model.expected.keys()
            if verdicts.get(key) != model.expected.get(key)
        )
        if wrong:
            return seconds, "verdicts differ on " + ", ".join(wrong[:5])
        return seconds, None

    def cache_info(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, entries) of the transformer caches that exist."""
        out = {}
        for name in ("pre_of", "grd_of"):
            info = getattr(getattr(self.commands, name, None), "cache_info", None)
            if info is not None:
                i = info()
                out[name] = (i.hits, i.misses, i.currsize)
        return out

    def measure(
        self,
        models: Iterator[Model],
        seconds: float,
        workdir: Path,
        rss_after: int = 1,
        tracer: Tracer | None = None,
        cycle: int = 1,
    ) -> Run:
        """Check models until `seconds` have passed (at least one model),
        writing each to `workdir`, which is removed afterwards. With a
        tracer, models in every other run of `cycle` models are traced, so
        traced and untraced models share the variant mix."""
        workdir.mkdir(parents=True, exist_ok=True)
        run = Run()
        deadline = time.perf_counter() + seconds
        try:
            for index, model in enumerate(models):
                if index and time.perf_counter() >= deadline:
                    break
                path = workdir / f"model{index}.fb"
                path.write_text(model.text(), encoding="utf-8")
                traced = tracer is not None and (index // cycle) % 2 == 0
                if traced:
                    tracer.model_id = index
                    tracer.install()
                try:
                    elapsed, problem = self.check(path, model)
                finally:
                    if traced:
                        tracer.uninstall()
                if problem is not None:
                    print(f"model {index} failed: {problem}", file=sys.stderr)
                run.samples.append(Sample(elapsed, problem, traced))
                if traced and tracer.elaborated is not None:
                    run.stats.update(model_stats(tracer.elaborated))
                    tracer.elaborated = None
                if index == 0:
                    run.rss_first_mb = maxrss_mb()
                if index + 1 == rss_after:
                    run.rss_mb = maxrss_mb()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if len(run.samples) < rss_after:
            run.rss_mb = maxrss_mb()
        return run


def _relations(model: Any) -> Iterator[Any]:
    def prims(command: Any) -> Iterator[Any]:
        if hasattr(command, "rel"):
            yield command.rel
        for child in ("body", "left", "right", "first", "second"):
            if hasattr(command, child):
                yield from prims(getattr(command, child))

    owners = list(model.systems.values()) + [r.concrete for r in model.refinements.values()]
    for owner in owners:
        for command in owner.system.events.values():
            yield from prims(command)
    for refinement in model.refinements.values():
        yield refinement.pair.gluing


def model_stats(model: Any) -> Counter[str]:
    """Counts read off an elaborated model. `sets.relation_bytes` is computed
    from successor-row bit lengths, not measured; `elaborator.gluing_evals`
    is the number of joint valuations the gluing loop evaluates."""
    stats: Counter[str] = Counter()
    stats["elaborator.states"] = model.state_count
    for rel in _relations(model):
        if rel.source.same_as(rel.target):
            stats["elaborator.edges"] += len(rel.pairs)
        stats["sets.relation_bytes"] += sum(
            (rel.successors_mask(s).bit_length() + 7) // 8 for s in range(rel.source.size)
        )
    for refinement in model.refinements.values():
        joint = model.systems[refinement.abstract_name].space.size
        for var in refinement.concrete.variables:
            joint *= var.hi - var.lo + 1
        stats["elaborator.gluing_evals"] += joint
    return stats


def _workdir() -> Path:
    return SCRATCH / f"run-{os.getpid()}"


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten or fewer samples."""
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - 11, 0) if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(workload: Workload, seed: int, seconds: float, size: int | None = None) -> dict:
    setup = measure_setup()
    run = Bench().measure(iter(ModelStream(workload, seed, size)), seconds, _workdir(),
                          workload.rss_after)
    times = [s.seconds for s in run.samples]
    tail, percentile = _tail(times)
    n = len(times)
    notes = {
        "verdict_s.tail": f"p{percentile:.0f} of {n} models",
        "peak_rss_mb": f"after {min(n, workload.rss_after)} models",
        "setup_s": f"median of {SETUP_REPEATS} fresh imports",
    }
    metrics = {
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (tail, "s"),
        "models_per_s": (n / sum(times), "1/s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "setup_s": (setup, "s"),
    }
    return _result(workload, seed, run, metrics, notes)


def per_layer(workload: Workload, seed: int, seconds: float, size: int | None = None) -> dict:
    bench = Bench()
    tracer = Tracer()
    before = bench.cache_info()
    run = bench.measure(iter(ModelStream(workload, seed, size)), seconds, _workdir(),
                        tracer=tracer, cycle=len(workload.variants))
    after = bench.cache_info()
    tracer.write(SCRATCH / "traces" / f"{workload.name}-seed{seed}.json")
    if tracer.missing:
        print("bindings not found, not traced: " + ", ".join(tracer.missing), file=sys.stderr)

    traced = [s.seconds for s in run.samples if s.traced]
    untraced = [s.seconds for s in run.samples if not s.traced]
    t = len(traced)
    total, own, calls = tracer.layer_times()
    counts = tracer.counts
    model_s = sum(traced)

    def hit_ratio(name: str) -> float:
        if name not in before or name not in after:
            return 0.0
        hits = after[name][0] - before[name][0]
        misses = after[name][1] - before[name][1]
        return hits / (hits + misses) if hits + misses else 0.0

    n = len(run.samples)
    entries = sum(after[k][2] - before[k][2] for k in after if k in before)
    retained = (maxrss_mb() - run.rss_first_mb) / (n - 1) if n > 1 else 0.0
    metrics = {
        "parser.parse_s": (total["parser.parse"] / t, "s"),
        "elaborator.elaborate_s": (own["elaborator.elaborate"] / t, "s"),
        "elaborator.conjunctivity_s": (total["elaborator.conjunctivity"] / t, "s"),
        "elaborator.states": (run.stats["elaborator.states"] / t, "count"),
        "elaborator.edges": (run.stats["elaborator.edges"] / t, "count"),
        "elaborator.gluing_evals": (run.stats["elaborator.gluing_evals"] / t, "count"),
        "sets.relation_bytes": (run.stats["sets.relation_bytes"] / t, "bytes"),
        "commands.liberal_apply_calls": (counts["commands.liberal_apply_calls"] / t, "count"),
        "commands.prim_states_scanned": (counts["commands.prim_states_scanned"] / t, "count"),
        "commands.transition_relation_s": (total["commands.transition_relation"] / t, "s"),
        "commands.pre_of.hit_ratio": (hit_ratio("pre_of"), "ratio"),
        "commands.grd_of.hit_ratio": (hit_ratio("grd_of"), "ratio"),
        "commands.cache_entries": (entries / n, "count"),
        "commands.retained_mb_per_model": (retained, "MB"),
        "fixpoint.s": ((total["fixpoint.lfp"] + total["fixpoint.gfp"]) / t, "s"),
        "fixpoint.lfp_calls": (calls["fixpoint.lfp"] / t, "count"),
        "fixpoint.gfp_calls": (calls["fixpoint.gfp"] / t, "count"),
        "fixpoint.iterations": (counts["fixpoint.iterations"] / t, "count"),
        "fairloop.total_correctness_s": (total["fairloop.total_correctness"] / t, "s"),
        "obligations.wf0_s": (total["obligations.wf0"] / t, "s"),
        "obligations.wf1_s": (total["obligations.wf1"] / t, "s"),
        "obligations.ensures_self_s": (own["obligations.ensures"] / t, "s"),
        "obligations.unless_s": (total["obligations.unless"] / t, "s"),
        "refinement.simulation_s": (total["refinement.simulation"] / t, "s"),
        "refinement.simulation_calls": (calls["refinement.simulation"] / t, "count"),
        "refinement.subsets_examined": (counts["refinement.subsets_examined"] / t, "count"),
        "refinement.sap_s": (total["refinement.sap"] / t, "s"),
        "refinement.drv_s": (total["refinement.drv"] / t, "s"),
        "refinement.rens_self_s": (own["refinement.rens"] / t, "s"),
        "unity.oracle_s": (total["unity.oracle"] / t, "s"),
        "unity.oracle_self_s": (own["unity.oracle"] / t, "s"),
        "unity.oracle_calls": (calls["unity.oracle"] / t, "count"),
        "unity.script_s": (total["unity.script"] / t, "s"),
        "unity.script_steps": (counts["unity.script_steps"] / t, "count"),
        "reports.render_s": (total["reports.render"] / t, "s"),
        "cli.self_s": (own["cli"] / t, "s"),
        "trace.model_s": (model_s / t, "s"),
        "trace.overhead": (
            statistics.median(traced) / statistics.median(untraced) if untraced else 0.0,
            "ratio",
        ),
        "trace.unattributed_share": ((model_s - tracer.covered_below_cli()) / model_s, "share"),
    }
    notes = {"trace.model_s": f"mean over {t} traced of {n} models"}
    return _result(workload, seed, run, metrics, notes)


def _result(
    workload: Workload, seed: int, run: Run, metrics: dict[str, tuple[float, str]],
    notes: dict[str, str],
) -> dict:
    attempted, failed = len(run.samples), run.failed
    lines = [
        f"workload {workload.name} seed {seed}: {attempted} models, {failed} failed, "
        f"failed_share {failed / attempted:.4f}"
    ]
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name:<32} {value:.6g} {unit}{note}")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "faircheck" / "cli.py").is_file():
        print(f"faircheck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    report = (per_layer if args.trace else end_to_end)(workload, args.seed, args.seconds)
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
