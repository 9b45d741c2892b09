"""The benchmark's oracle reads density model files as JSON, so a change to the
file format that breaks it must fail here, not only in a benchmark run."""

import importlib
import json
from pathlib import Path

import numpy as np

from fieldpred.cli import main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_the_oracle_accepts_a_density_model_file(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    inputs, oracle = importlib.import_module("inputs"), importlib.import_module("oracle")
    rng = np.random.default_rng(2024)
    data = inputs.draw_mixed(inputs.mixed_law(rng), 300, rng)
    train, model = tmp_path / "train.csv", tmp_path / "model.json"
    inputs.write_table(data, train)
    assert main(["fit", "--train", str(train), "--predictor", "rasturnat", "--kernel", "bridge", "--density",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    ref = oracle.Reference(data)
    tss, dcf = ref.density("bridge")
    doc = json.loads(model.read_text())
    assert oracle.check_density_model(doc, ref, tss, dcf)
    # A file whose density drifts from the recomputation fails the same check.
    doc["density"]["tss"][0] *= 1.001
    assert not oracle.check_density_model(doc, ref, tss, dcf)
