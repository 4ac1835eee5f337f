"""Layer spans and counters for the traced benchmark run.

faircheck's modules import each other's functions by name (`from .x import
f`), so every import site holds its own binding. `Tracer.install` rebinds
each site listed below to a wrapper that records a span (layer, start, end,
parent span, model id) or bumps a counter, and `Tracer.uninstall` restores
the originals. Spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus the durations of its child
spans; calls are single-threaded and nested, so children never overlap.
A binding that does not exist is skipped and listed in `Tracer.missing`;
the time it covered then shows up in `trace.unattributed_share`.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# (owner, attribute, layer). The owner is a module, or a module and a class.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("faircheck.cli", "run_cli", "cli"),
    ("faircheck.cli", "parse_document", "parser.parse"),
    ("faircheck.cli", "elaborate", "elaborator.elaborate"),
    ("faircheck.elaborator", "conjunctivity_check", "elaborator.conjunctivity"),
    ("faircheck.cli", "check_wf0", "obligations.wf0"),
    ("faircheck.obligations", "check_wf0", "obligations.wf0"),
    ("faircheck.cli", "check_wf1", "obligations.wf1"),
    ("faircheck.obligations", "check_wf1", "obligations.wf1"),
    ("faircheck.cli", "check_ensures", "obligations.ensures"),
    ("faircheck.refinement", "check_ensures", "obligations.ensures"),
    ("faircheck.unity", "check_ensures", "obligations.ensures"),
    ("faircheck.cli", "check_unless", "obligations.unless"),
    ("faircheck.unity", "check_unless", "obligations.unless"),
    ("faircheck.obligations", "check_total_correctness", "fairloop.total_correctness"),
    ("faircheck.fairloop", "lfp", "fixpoint.lfp"),
    ("faircheck.fairloop", "gfp", "fixpoint.gfp"),
    ("faircheck.cli", "check_all_event_refinements", "refinement.simulation"),
    ("faircheck.refinement", "check_all_event_refinements", "refinement.simulation"),
    ("faircheck.cli", "check_sap", "refinement.sap"),
    ("faircheck.refinement", "check_sap", "refinement.sap"),
    ("faircheck.cli", "derived_inclusions", "refinement.drv"),
    ("faircheck.cli", "check_refined_ensures", "refinement.rens"),
    ("faircheck.cli", "semantic_leadsto", "unity.oracle"),
    ("faircheck.refinement", "semantic_leadsto", "unity.oracle"),
    ("faircheck.unity", "transition_relation", "commands.transition_relation"),
    ("faircheck.cli", "check_script", "unity.script"),
    ("faircheck.cli", "lasso_json", "reports.render"),
    ("faircheck.reports:ReportDocument", "add", "reports.render"),
    ("faircheck.reports:ReportDocument", "to_json_text", "reports.render"),
)

# Hot inner functions get a counter, not a span.
COUNTERS: tuple[tuple[str, str], ...] = (
    ("faircheck.commands", "liberal_apply"),
    ("faircheck.refinement", "_simulation_gap"),
    ("faircheck.unity", "apply_rule"),
)


def _owner(path: str) -> Any:
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        # span: [layer, start, end, parent index or -1, model id]
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.model_id = -1
        self.missing: list[str] = []
        self.elaborated: Any = None  # the last model `elaborate` returned
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.model_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if layer == "elaborator.elaborate":
                self.elaborated = result
            return result

        return traced

    def _fixpoint(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        from faircheck.fixpoint import SetFunction

        counts = self.counts

        def counted(f: Any) -> Any:
            step = f.fn

            def apply(x: Any) -> Any:
                counts["fixpoint.iterations"] += 1
                return step(x)

            return fn(SetFunction(f.space, apply))

        return self._span(layer, counted)

    def _counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts
        if name == "liberal_apply":
            from faircheck.commands import Prim

            def liberal(c: Any, r: Any) -> Any:
                counts["commands.liberal_apply_calls"] += 1
                if isinstance(c, Prim):
                    counts["commands.prim_states_scanned"] += c.space.size
                return fn(c, r)

            return liberal
        key = {
            "_simulation_gap": "refinement.subsets_examined",
            "apply_rule": "unity.script_steps",
        }[name]

        def count(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        return count

    # -- installation -------------------------------------------------------

    def _rebind(self, path: str, attr: str, make: Callable[[Any], Any]) -> None:
        owner = _owner(path)
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{path}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        self.missing = []
        for path, attr, layer in SPANS:
            wrap = self._fixpoint if layer.startswith("fixpoint.") else self._span
            self._rebind(path, attr, lambda fn, layer=layer, wrap=wrap: wrap(layer, fn))
        for path, attr in COUNTERS:
            self._rebind(path, attr, lambda fn, attr=attr: self._counter(attr, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def layer_times(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Inclusive seconds, self seconds and span counts per layer."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            total[layer] += end - start
            own[layer] += end - start - child[i]
            calls[layer] += 1
        return total, own, calls

    def covered_below_cli(self) -> float:
        """Seconds covered by spans whose parent is a `cli` span."""
        cli = {i for i, span in enumerate(self.spans) if span[0] == "cli"}
        return sum(end - start for _, start, end, parent, _ in self.spans if parent in cli)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["layer", "start", "end", "parent", "model"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "missing": self.missing,
                },
                handle,
            )
