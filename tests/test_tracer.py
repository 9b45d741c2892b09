"""The benchmark tracer wraps library functions by their names, so a rename in
the library must fail here, not only in a traced benchmark run."""

import importlib
from pathlib import Path

import fieldpred
from fieldpred import AttributeSpec, Query, Schema, TrainingTable, fit, predictors

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_the_tracer_counts_a_tie_walk_and_the_full_scans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracing").Tracer()
    schema = Schema((AttributeSpec("a", "categorical"), AttributeSpec("b", "categorical")), ("A", "B"))
    # A and B tie at d = 0 and the walk finds B alone at d = 1; the identical rows give bridge a band tie.
    delanga = fit(TrainingTable(schema, [("0", "0"), ("0", "0"), ("0", "1")], [0, 1, 1]), "delanga")
    bridge = fit(TrainingTable(schema, [("0", "0"), ("0", "0")], [0, 1]), "rasturnat", "bridge")
    originals = (fieldpred.predict, predictors.match_vectors, predictors.backtrack_tie_break)
    tracer.install(fieldpred)
    try:
        walked = fieldpred.predict(delanga, Query(("0", "0")))
        banded = fieldpred.predict(bridge, Query(("1", "1")))
    finally:
        tracer.uninstall()
    assert (walked.winner, walked.tie_depth, banded.winner, banded.tie_depth) == ("B", 1, "A", 1)
    # delanga scans every row once, for its walk; rasturnat scans once and re-scores at one level.
    assert tracer.counts["predictors.predictions"] == 2
    assert tracer.counts["predictors.tie_walks"] == 1
    assert tracer.counts["similarity.match_calls"] == 2
    assert tracer.counts["kernels.values_evaluated"] == 2
    assert {"predictors.backtrack_tie_break", "similarity.match_vectors"} <= set(tracer.self_times())
    assert (fieldpred.predict, predictors.match_vectors, predictors.backtrack_tie_break) == originals
