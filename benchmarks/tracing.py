"""Spans and counters recorded around fieldpred's public entry points.

The wrappers are installed from outside the package by replacing module
attributes (and two class attributes) for the duration of a traced
session; nothing under src/ knows about them. Each span records its name,
start, end and parent. Counting that needs real work (distinct rows,
distinct distances) runs outside every span: its time is subtracted from
the tracer's clock, so it shows up in the tracing overhead, not in any
layer's self time.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, defaultdict

import numpy as np

#: Span name -> per-layer metric holding the span's total self time.
SELF_TIME_METRICS = {
    "cli.main": "cli.main_self_s",
    "dataset.load_table": "dataset.load_table_s",
    "dataset.TrainingTable": "dataset.table_build_s",
    "dataset.validate_query": "dataset.validate_query_s",
    "similarity.match_vectors": "similarity.match_vectors_s",
    "kernels.evaluate": "kernels.evaluate_s",
    "predictors.predict": "predictors.predict_self_s",
    "predictors.compute_density_model": "predictors.density_self_s",
    "predictors.save_model": "predictors.save_model_s",
    "predictors.load_model": "predictors.load_model_s",
    "harness.generate_synthetic": "harness.generate_synthetic_self_s",
    "harness.evaluate_accuracy": "harness.evaluate_accuracy_self_s",
    "harness.run_convergence": "harness.run_convergence_self_s",
}

COUNT_METRICS = (
    "dataset.rows_loaded",
    "similarity.match_calls",
    "similarity.cells_scored",
    "similarity.distinct_rows_scored",
    "kernels.values_evaluated",
    "kernels.distinct_distances",
    "predictors.predictions",
    "predictors.tie_walks",
)


class Tracer:
    """In-memory spans (name, start, end, parent index) and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._excluded = 0.0
        self._distinct_rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(result, args)`` updates counters off the clock."""
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append([name, tracer.now(), None, tracer.stack[-1] if tracer.stack else None])
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.spans[index][2] = tracer.now()
            if after is not None:
                start = time.perf_counter()
                after(result, args)
                tracer._excluded += time.perf_counter() - start
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, fieldpred) -> None:
        """Wrap the entry points the CLI and the harness reach."""
        from fieldpred import dataset, harness, kernels, predictors

        count = self.counts

        def rows_loaded(table, args):
            count["dataset.rows_loaded"] += table.n_entries

        def match_scored(result, args):
            table = args[1]
            count["similarity.match_calls"] += 1
            count["similarity.rows_scored"] += table.n_entries
            count["similarity.cells_scored"] += table.n_entries * table.n_attributes
            distinct = self._distinct_rows.get(table)
            if distinct is None:
                distinct = self._distinct_rows[table] = len(set(table.values))
            count["similarity.distinct_rows_scored"] += distinct

        def kernel_evaluated(result, args):
            d = np.asarray(args[1])
            count["kernels.values_evaluated"] += d.size
            count["kernels.distinct_distances"] += np.unique(d).size

        def predicted(result, args):
            count["predictors.predictions"] += 1

        def tie_walked(result, args):
            count["predictors.tie_walks"] += 1

        self.patch(dataset, "load_table", self.span("dataset.load_table", dataset.load_table, rows_loaded))
        self.patch(dataset, "validate_query", self.span("dataset.validate_query", dataset.validate_query))
        self.patch(dataset.TrainingTable, "__init__",
                   self.span("dataset.TrainingTable", dataset.TrainingTable.__init__))
        self.patch(predictors, "match_vectors",
                   self.span("similarity.match_vectors", predictors.match_vectors, match_scored))
        self.patch(kernels.Kernel, "evaluate", self.span("kernels.evaluate", kernels.Kernel.evaluate, kernel_evaluated))
        wrapped_predict = self.span("predictors.predict", predictors.predict, predicted)
        self.patch(predictors, "predict", wrapped_predict)
        self.patch(harness, "predict", wrapped_predict)
        self.patch(fieldpred, "predict", wrapped_predict)
        self.patch(predictors, "backtrack_tie_break", self.span(
            "predictors.backtrack_tie_break", predictors.backtrack_tie_break, tie_walked))
        self.patch(predictors, "compute_density_model",
                   self.span("predictors.compute_density_model", predictors.compute_density_model))
        self.patch(predictors, "save_model", self.span("predictors.save_model", predictors.save_model))
        self.patch(predictors, "load_model", self.span("predictors.load_model", predictors.load_model))
        for name in ("generate_synthetic", "evaluate_accuracy", "run_convergence"):
            self.patch(harness, name, self.span(f"harness.{name}", getattr(harness, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time its children cover."""
        children = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - children[index]
        return dict(totals)
