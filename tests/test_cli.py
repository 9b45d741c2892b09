import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldpred import KERNEL_KINDS, counterexample_spec, fit, load_model, make_spec, predict, save_spec
from fieldpred.cli import main
from fieldpred.dataset import load_table, schema_to_dict
from fieldpred.harness import all_tuples, spec_to_dict
from fieldpred.predictors import model_to_dict

from .util import as_version_2

DATA = Path(__file__).parent / "data"

TRAIN_CSV = """color,size,label
red,1.0,yes
red,2.0,yes
blue,3.0,no
blue,4.0,no
green,2.5,yes
"""


@pytest.fixture
def train_file(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text(TRAIN_CSV)
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    cards = (2, 2)
    spec = make_spec(
        cards,
        ("+", "-"),
        123,
        conditionals={t: [0.85, 0.15] for t in all_tuples(cards)},
    )
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    return str(path)


class TestFit:
    def test_happy_path_writes_model(self, train_file, tmp_path, capsys):
        out = str(tmp_path / "model.json")
        code = main(
            ["fit", "--train", train_file, "--predictor", "rasturnat",
             "--kernel", "bridge", "--out", out]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "entries=5 attributes=2"
        assert lines[1].startswith("kernel: kind=bridge mld=5.000000")
        assert lines[2].startswith("lead: sepm=")
        assert lines[3] == f"model written to {out}"
        model = load_model(out)
        assert model.kernel.kind == "bridge"

    def test_delanga_has_no_kernel_line(self, train_file, capsys):
        code = main(["fit", "--train", train_file, "--predictor", "delanga"])
        assert code == 0
        assert "kernel: none" in capsys.readouterr().out

    def test_missing_kernel_names_the_flag(self, train_file, capsys):
        code = main(["fit", "--train", train_file, "--predictor", "rasturnat"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--kernel" in captured.err

    def test_pow_2_reports_uncertified(self, train_file, capsys):
        code = main(
            ["fit", "--train", train_file, "--predictor", "rasturnat",
             "--kernel", "pow_2"]
        )
        assert code == 0
        assert "certified: false" in capsys.readouterr().out

    def test_adjusted_kernel_reports_residue_and_certification(self, train_file, capsys):
        code = main(
            ["fit", "--train", train_file, "--predictor", "rasturnat",
             "--kernel", "adj_pow_2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adrez=-0.750000" in out
        assert "certified: true" in out

    def test_adj_pow_2_past_float_precision_is_refused(self, train_file, capsys):
        # mld - 1 rounds to mld, so the residue cancels 2^0 and eval(0) is infinite.
        code = main(["fit", "--train", train_file, "--predictor", "rasturnat",
                     "--kernel", "adj_pow_2", "--mld", "1e17"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind", ["pow_2", "pow_e", "gauss"])
    def test_mld_refused_for_kinds_without_a_lead(self, kind, train_file, capsys):
        code = main(["fit", "--train", train_file, "--predictor", "rasturnat", "--kernel", kind, "--mld", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_mld_rejected_off_rasturnat(self, train_file, capsys):
        code = main(
            ["fit", "--train", train_file, "--predictor", "delanga", "--mld", "5"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "rasturnat" in captured.err

    def test_trace_option_is_gone(self, train_file, capsys):
        code = main(["fit", "--train", train_file, "--predictor", "delanga", "--trace"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: --trace")

    def test_unreadable_train_file(self, tmp_path, capsys):
        code = main(
            ["fit", "--train", str(tmp_path / "nope.csv"), "--predictor", "delanga"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")


def _spliced_chain(depth: int) -> dict:
    """A kernel descriptor of ``depth`` spliced kernels, each the base of the one above."""
    kernel = {"kind": "pow_2", "mld": 5.0}
    for _ in range(depth):
        kernel = {"kind": "spliced", "mld": 5.0, "base": kernel}
    return kernel


def _v2(corrupt):
    """``corrupt`` applied to the version 2 form of a version 3 counts document."""
    return lambda payload: corrupt(as_version_2(payload))


def _with_density(corrupt):
    """``corrupt`` applied, in place, to a version 3 document of the same
    table fitted with a density, which lists entry_row and outcomes."""
    def apply(payload):
        payload.clear()
        payload.update(copy.deepcopy(DOCUMENTS["model-density"][0]))
        corrupt(payload)
    return apply


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda payload: payload["kernel"].update(mld="nan"), id="nan-mld"),
    pytest.param(lambda payload: payload.pop("schema"), id="no-schema"),
    pytest.param(lambda payload: payload["schema"]["attributes"][0].update(weight="nan"), id="nan-weight"),
    pytest.param(lambda payload: payload["columns"][1]["values"].__setitem__(0, None), id="null-cell"),
    pytest.param(lambda payload: payload["columns"][0]["codes"].__setitem__(0, None), id="null-code"),
    pytest.param(lambda payload: payload["columns"][0]["codes"].__setitem__(0, 7), id="code-out-of-range"),
    # Version 2 lists every entry's row and outcome.
    pytest.param(_v2(lambda payload: payload["outcomes"].__setitem__(0, 0.5)), id="fractional-outcome"),
    pytest.param(_v2(lambda payload: payload["outcomes"].__setitem__(0, "yes")), id="string-outcome"),
    pytest.param(_v2(lambda payload: payload["outcomes"].__setitem__(0, True)), id="bool-outcome"),
    pytest.param(_v2(lambda payload: payload["outcomes"].pop()), id="short-outcomes"),
    pytest.param(_v2(lambda payload: payload["entry_row"].append(0)), id="long-entry-row"),
    pytest.param(_v2(lambda payload: payload["entry_row"].__setitem__(0, payload["n_rows"])), id="entry-row-past-u"),
    pytest.param(_v2(lambda payload: payload.update(n_entries=6)), id="wrong-n-entries"),
    # Version 3 holds the label counts, K lists of U: [[1, 1, 0, 0, 1], [0, 0, 1, 1, 0]].
    pytest.param(lambda payload: payload["counts"][0].__setitem__(0, 0.5), id="fractional-count"),
    pytest.param(lambda payload: payload["counts"][0].__setitem__(0, "1"), id="string-count"),
    pytest.param(lambda payload: payload["counts"][0].__setitem__(0, True), id="bool-count"),
    pytest.param(lambda payload: payload["counts"][0].__setitem__(0, 10**20), id="count-past-int64"),
    pytest.param(lambda payload: payload["counts"][0].__setitem__(0, None), id="null-count"),
    pytest.param(lambda payload: payload.update(counts=[[-1, 1, 0, 0, 1], [2, 0, 1, 1, 0]]), id="negative-count"),
    pytest.param(lambda payload: payload["counts"][0].pop(), id="short-counts"),
    pytest.param(lambda payload: payload["counts"][0].append(0), id="long-counts"),
    pytest.param(lambda payload: payload["counts"].pop(), id="missing-label-counts"),
    pytest.param(lambda payload: payload["counts"].__setitem__(1, [[0]] * 5), id="nested-counts"),
    pytest.param(lambda payload: payload.update(n_entries=6), id="counts-short-of-n-entries"),
    pytest.param(lambda payload: payload.update(n_entries=4), id="counts-past-n-entries"),
    pytest.param(lambda payload: payload.pop("counts"), id="no-counts"),
    # numpy refuses 8e15 bytes up front, before touching any memory.
    pytest.param(lambda payload: payload.update(counts=[[1, 1, 0, 0, 1], [10**15, 0, 1, 1, 0]], n_entries=5 + 10**15),
                 id="counts-past-memory"),
    # Counts that sum to n_entries = 2^64 + 3, which would wrap numpy's int64 entry total.
    pytest.param(lambda payload: payload.update(counts=[[1, 1, 0, 0, 1], [2**62] * 4 + [0]], n_entries=3 + 2**64),
                 id="counts-past-2-to-the-53"),
    # Counts that sum to 2^64 + 3, which int64 arithmetic would read as n_entries = 3.
    pytest.param(lambda payload: payload.update(counts=[[1, 1, 0, 0, 1], [2**63 - 1, 2**63 - 1, 1, 1, 0]], n_entries=3),
                 id="counts-wrapping-to-n-entries"),
    pytest.param(lambda payload: payload["columns"][1]["values"].pop(), id="short-column"),
    pytest.param(lambda payload: payload["columns"][1]["values"].__setitem__(0, True), id="bool-cell"),
    pytest.param(lambda payload: payload.update(version=3.0), id="float-version"),
    pytest.param(lambda payload: payload["columns"].pop(), id="missing-column"),
    pytest.param(lambda payload: payload["schema"]["attributes"][0].pop("name"), id="unnamed-attribute"),
    pytest.param(lambda payload: payload["kernel"].update(mld=None), id="null-mld"),
    pytest.param(lambda payload: payload["kernel"].update(mld=10**400), id="huge-mld"),
    pytest.param(lambda payload: payload["kernel"].update(mld=0), id="zero-mld"),
    pytest.param(lambda payload: payload["kernel"].update(mld="3.5"), id="string-mld"),
    pytest.param(lambda payload: payload["kernel"].update(mld=True), id="bool-mld"),
    pytest.param(lambda payload: payload["kernel"].update(mld=-1.0), id="negative-mld"),
    pytest.param(lambda payload: payload["kernel"].update(kind="adj_pow_2", mld=1e17, adrez=-0.75),
                 id="adj-pow-2-mld-past-float-precision"),
    pytest.param(lambda payload: payload["kernel"].update(kind="inv_additive_residue", grow_kind="pow_2",
                                                          mld=1e17, adrez=-0.75),
                 id="residue-mld-past-float-precision"),
    pytest.param(lambda payload: payload.update(predictor="delanga", kernel=None, density={
        "tss": [1.0] * 5, "dcf": [1.0] * 5, "sts": 5.0, "stavg": 1.0}), id="density-without-kernel"),
    # Density fields must be the fit's own expressions of tss, bit for bit.
    pytest.param(_with_density(lambda payload: payload["density"].update(stavg=-1.0)), id="negative-stavg"),
    pytest.param(_with_density(lambda payload: payload["density"]["tss"].__setitem__(0, 3)), id="tss-off-dcf"),
    pytest.param(_with_density(lambda payload: payload["density"].update(sts=payload["density"]["sts"] * 2)),
                 id="sts-off-tss"),
    pytest.param(_with_density(lambda payload: payload["density"]["dcf"].__setitem__(0, 1.0)), id="dcf-off-tss"),
    # Version 3 lists entry_row and outcomes only with a density, counts only without one.
    pytest.param(_with_density(lambda payload: payload.update(density=None)), id="entry-rows-with-null-density"),
    pytest.param(_with_density(lambda payload: payload.pop("density")), id="entry-rows-without-density"),
    pytest.param(lambda payload: payload.update(density=DOCUMENTS["model-density"][0]["density"]),
                 id="counts-with-density"),
    pytest.param(lambda payload: payload["kernel"].update(kind="pow_2", grow_kind="pow_2"), id="grow-kind-on-pow-2"),
    pytest.param(lambda payload: payload["kernel"].update(kind="bridge", base={"kind": "gauss", "mld": 5.0}),
                 id="base-on-bridge"),
    *(pytest.param(lambda payload, depth=depth: payload.update(kernel=_spliced_chain(depth)),
                   id=f"spliced-chain-{depth}") for depth in (2, 18, 900)),
])
def test_corrupted_model_file_is_an_input_error(corrupt, train_file, tmp_path, capsys):
    path = tmp_path / "model.json"
    assert main(["fit", "--train", train_file, "--predictor", "rasturnat",
                 "--kernel", "newton", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--query", "red,1.5"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda payload: payload["values"][0].__setitem__(1, None), id="null-cell"),
    pytest.param(lambda payload: payload["values"][0].__setitem__(0, 3), id="number-in-categorical"),
    pytest.param(lambda payload: payload["values"][0].pop(), id="short-row"),
    pytest.param(lambda payload: payload.update(version=True), id="bool-version"),
    pytest.param(lambda payload: payload["outcomes"].__setitem__(0, 0.5), id="fractional-outcome"),
    pytest.param(lambda payload: payload["outcomes"].__setitem__(0, "yes"), id="string-outcome"),
    pytest.param(lambda payload: payload["density"]["dcf"].pop(), id="short-dcf"),
    pytest.param(lambda payload: payload["density"].update(sts=None), id="null-sts"),
    pytest.param(lambda payload: payload["density"].update(stavg=10**400), id="huge-stavg"),
])
def test_corrupted_v1_model_file_is_an_input_error(corrupt, tmp_path, capsys):
    payload = json.loads((DATA / "model_v1_mixed_density.json").read_text())
    corrupt(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    assert main(["predict", "--model", str(path), "--query", "red,1.5,round"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda payload: payload["attributes"][0].pop("name"), id="unnamed-attribute"),
    pytest.param(lambda payload: payload["attributes"][1].update(kind=None), id="null-kind"),
    pytest.param(lambda payload: payload["attributes"][1].update(weight=None), id="null-weight"),
    pytest.param(lambda payload: payload["attributes"][1].update(weight=10**400), id="huge-weight"),
    pytest.param(lambda payload: payload["attributes"][0].update(categories="red"), id="string-categories"),
    pytest.param(lambda payload: payload.update(attributes={}), id="attributes-not-a-list"),
    pytest.param(lambda payload: payload.update(outcome_labels=[1, 2]), id="numeric-labels"),
])
def test_corrupted_schema_file_is_an_input_error(corrupt, train_file, tmp_path, capsys):
    payload = schema_to_dict(load_table(train_file).schema)
    corrupt(payload)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(payload))
    assert main(["fit", "--train", train_file, "--predictor", "delanga", "--schema", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("source, predictor, kernel", [
    ("schema", "rasturnat", "decay_a"),
    ("schema", "rasturnat", "bridge"),
    ("schema", "delanga", None),
    ("model", "rasturnat", "decay_a"),
    ("model", "rasturnat", "bridge"),
    ("model", "delanga", None),
])
def test_weights_summing_to_infinity_are_an_input_error(source, predictor, kernel, tmp_path, capsys):
    # Each weight is finite; their sum, 2e308, is not.
    train, schema, model = tmp_path / "train.csv", tmp_path / "schema.json", tmp_path / "model.json"
    train.write_text("x,y,label\na,b,p\nc,d,q\n")
    fit_argv = ["fit", "--train", str(train), "--predictor", predictor, "--out", str(model)]
    fit_argv += ["--kernel", kernel] if kernel else []
    if source == "schema":
        payload = schema_to_dict(load_table(train).schema)
        for attr in payload["attributes"]:
            attr["weight"] = 1e308
        schema.write_text(json.dumps(payload))
        argv = fit_argv + ["--schema", str(schema)]
    else:
        assert main(fit_argv) == 0
        payload = json.loads(model.read_text())
        for attr in payload["schema"]["attributes"]:
            attr["weight"] = 1e308
        model.write_text(json.dumps(payload))
        argv = ["predict", "--model", str(model), "--query", "a,b"]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: total attribute weight must be finite and positive\n"


@pytest.mark.parametrize("rows, weights, mld", [
    # One row entered 50 times: each tss is finite, their sum 2.5e308 is not.
    pytest.param(["a,b,p"] * 50 + ["c,d,q"], (1.0, 1.0), "1e305", id="sum-of-tss"),
    # y weighs nothing, so the two rows sit at distance 0 and each one's
    # field is 1e308 + 1e308.
    pytest.param(["a,b,p", "a,d,q"], (1.0, 0.0), "1e308", id="one-row"),
    # The same pair after 1,999 other rows: the density fit's last block.
    pytest.param([f"{i},b,p" for i in range(2000)] + ["1999,d,q"], (1.0, 0.0), "1e308", id="later-block"),
])
def test_overflowing_density_field_is_an_input_error(rows, weights, mld, tmp_path, capsys):
    train, schema = tmp_path / "train.csv", tmp_path / "schema.json"
    train.write_text("x,y,label\n" + "\n".join(rows) + "\n")
    payload = schema_to_dict(load_table(train).schema)
    for attr, weight in zip(payload["attributes"], weights):
        attr["weight"] = weight
    schema.write_text(json.dumps(payload))
    assert main(["fit", "--train", str(train), "--schema", str(schema), "--predictor", "rasturnat",
                 "--kernel", "newton", "--mld", mld, "--density"]) == 1
    assert capsys.readouterr().err.startswith("error: the density field overflows")


@pytest.mark.parametrize("flag", ["--model", "--schema", "--spec"])
def test_json_integer_too_long_to_convert_is_an_input_error(flag, train_file, spec_file, tmp_path, capsys):
    # json.loads refuses an integer of more than 4,300 digits with a plain ValueError.
    model, schema = tmp_path / "model.json", tmp_path / "schema.json"
    assert main(["fit", "--train", train_file, "--predictor", "rasturnat", "--kernel", "bridge",
                 "--out", str(model)]) == 0
    schema.write_text(json.dumps(schema_to_dict(load_table(train_file).schema)))
    path, key = {"--model": (model, '"mld":'), "--schema": (schema, '"weight":'),
                 "--spec": (Path(spec_file), '"seed":')}[flag]
    text = json.dumps(json.loads(path.read_text()), separators=(",", ":"))
    path.write_text(re.sub(f"{key}[^,}}]+", f"{key}1{'0' * 5000}", text, count=1))
    argv = {
        "--model": ["predict", "--model", str(model), "--query", "red,1.5"],
        "--schema": ["fit", "--train", train_file, "--predictor", "delanga", "--schema", str(schema)],
        "--spec": ["converge", "--spec", spec_file, "--arms", "delanga", "--schedule", "5",
                   "--out", str(tmp_path / "report.csv")],
    }[flag]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: invalid")


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda payload: payload.pop("attribute_distribution"), id="no-distribution"),
    pytest.param(lambda payload: payload.pop("conditionals"), id="no-conditionals"),
    pytest.param(lambda payload: payload.update(cardinalities=["x"]), id="string-cardinality"),
    pytest.param(lambda payload: payload.update(cardinalities=[0]), id="zero-cardinality"),
    pytest.param(lambda payload: payload.update(labels=[]), id="no-labels"),
    pytest.param(lambda payload: payload["attribute_distribution"][0].update(mass="0.25"), id="string-mass"),
    pytest.param(lambda payload: payload.update(seed="7"), id="string-seed"),
    pytest.param(lambda payload: payload["conditionals"][0]["masses"].__setitem__(0, float("nan")), id="nan-mass"),
    pytest.param(lambda payload: payload["attribute_distribution"][0].update(mass=float("inf")), id="inf-mass"),
    pytest.param(lambda payload: payload["conditionals"][0]["tuple"].__setitem__(0, ["0"]), id="nested-tuple"),
    pytest.param(lambda payload: payload.update(conditionals={}), id="conditionals-not-a-list"),
])
def test_corrupted_spec_file_is_an_input_error(corrupt, spec_file, tmp_path, capsys):
    payload = json.loads(Path(spec_file).read_text())
    corrupt(payload)
    Path(spec_file).write_text(json.dumps(payload))
    assert main(["converge", "--spec", spec_file, "--arms", "delanga", "--schedule", "5",
                 "--out", str(tmp_path / "report.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag", ["--train", "--schema", "--model", "--queries", "--spec"])
def test_non_utf8_file_is_an_input_error(flag, train_file, spec_file, tmp_path, capsys):
    model, schema = tmp_path / "model.json", tmp_path / "schema.json"
    assert main(["fit", "--train", train_file, "--predictor", "delanga", "--out", str(model)]) == 0
    schema.write_text(json.dumps(schema_to_dict(load_table(train_file).schema)))
    files = {"--train": train_file, "--schema": str(schema), "--model": str(model),
             "--queries": str(tmp_path / "queries.csv"), "--spec": spec_file}
    Path(files["--queries"]).write_text("red,1.5\n")
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff" + Path(files[flag]).read_bytes())
    files[flag] = str(bad)
    argv = {
        "--train": ["fit", "--train", files["--train"], "--predictor", "delanga"],
        "--schema": ["fit", "--train", files["--train"], "--predictor", "delanga", "--schema", files["--schema"]],
        "--model": ["predict", "--model", files["--model"], "--query", "red,1.5"],
        "--queries": ["predict", "--model", files["--model"], "--queries", files["--queries"]],
        "--spec": ["converge", "--spec", files["--spec"], "--arms", "delanga", "--schedule", "5",
                   "--out", str(tmp_path / "report.csv")],
    }[flag]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{bad} is not UTF-8 text" in err


def test_oversized_spec_law_is_an_input_error(tmp_path, capsys):
    # 64 million tuples: rejected before any of them is built.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"version": 1, "cardinalities": [400, 400, 400], "labels": ["a", "b"],
                                "attribute_distribution": "uniform", "conditionals": []}))
    assert main(["converge", "--spec", str(path), "--arms", "delanga", "--schedule", "4",
                 "--out", str(tmp_path / "report.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("query", ["blue,3.0,square", "red,1.5,round"])
def test_overflowing_field_is_an_input_error(query, tmp_path, capsys):
    # Two entries at d = 0 with newton's value 1e308 overflow one field
    # (blue,3.0,square: both "no") or the sum of two (red,1.5,round).
    path = tmp_path / "model.json"
    assert main(["fit", "--train", str(DATA / "mixed_train.csv"), "--predictor", "rasturnat",
                 "--kernel", "newton", "--mld", "1e308", "--out", str(path)]) == 0
    # A fresh process, because pytest would catch numpy's warnings before stderr.
    proc = subprocess.run([sys.executable, "-m", "fieldpred", "predict", "--model", str(path), "--query", query],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flag", ["--model", "--schema", "--spec"])
def test_deeply_nested_document_is_an_input_error(flag, train_file, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "--model": ["predict", "--model", str(path), "--query", "red,1.5"],
        "--schema": ["fit", "--train", train_file, "--predictor", "delanga", "--schema", str(path)],
        "--spec": ["converge", "--spec", str(path), "--arms", "delanga", "--schedule", "5",
                   "--out", str(tmp_path / "report.csv")],
    }[flag]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_oversized_quoted_cell_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "train.csv"
    path.write_text('color,label\nred,yes\n"' + "x" * 131073 + '",no\n')
    assert main(["fit", "--train", str(path), "--predictor", "delanga"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed CSV at line 3: field larger than field limit")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["adj_pow_2", "inv_additive_residue"])
def test_stored_residue_is_ignored(kind, tmp_path, capsys):
    # Older files carry adrez; the reader derives it from mld instead.
    path = tmp_path / "model.json"
    assert main(["fit", "--train", str(DATA / "mixed_train.csv"), "--predictor", "rasturnat",
                 "--kernel", kind, "--out", str(path)]) == 0
    argv = ["predict", "--model", str(path), "--query", "red,1.5,round", "--query", "blue,3.0,square"]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert "adrez" not in payload["kernel"]
    for adrez in (-1.0, -3.0, "x"):
        payload["kernel"]["adrez"] = adrez
        path.write_text(json.dumps(payload))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


class TestPredict:
    @pytest.fixture
    def model_file(self, train_file, tmp_path):
        out = str(tmp_path / "model.json")
        assert main(
            ["fit", "--train", train_file, "--predictor", "rasturnat",
             "--kernel", "newton", "--out", out]
        ) == 0
        return out

    def test_single_query_text(self, model_file, capsys):
        capsys.readouterr()
        code = main(["predict", "--model", model_file, "--query", "red,1.5"])
        captured = capsys.readouterr()
        assert code == 0
        line = captured.out.strip()
        assert line.startswith("winner=yes ")
        assert "yes=" in line and "no=" in line
        model = load_model(model_file)
        from fieldpred import Query

        p = predict(model, Query(("red", 1.5)))
        assert f"yes={p.likelihoods['yes']:.6f}" in line

    def test_json_format(self, model_file, capsys):
        capsys.readouterr()
        code = main(
            ["predict", "--model", model_file, "--format", "json",
             "--query", "red,1.5", "--query", "blue,3.5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["winner"] == "yes"
        assert set(first["likelihoods"]) == {"yes", "no"}
        assert json.loads(lines[1])["winner"] == "no"

    def test_batch_file_in_order(self, model_file, tmp_path, capsys):
        capsys.readouterr()
        queries = tmp_path / "queries.csv"
        queries.write_text("red,1.0\nblue,4.0\ngreen,2.5\n")
        code = main(["predict", "--model", model_file, "--queries", str(queries)])
        captured = capsys.readouterr()
        assert code == 0
        winners = [line.split()[0] for line in captured.out.splitlines()]
        assert winners == ["winner=yes", "winner=no", "winner=yes"]

    def test_malformed_query_cites_line(self, model_file, capsys):
        capsys.readouterr()
        code = main(
            ["predict", "--model", model_file,
             "--query", "red,1.0", "--query", "red"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "line 2" in captured.err

    def test_requires_some_query(self, model_file, capsys):
        capsys.readouterr()
        code = main(["predict", "--model", model_file])
        captured = capsys.readouterr()
        assert code == 1
        assert "--query" in captured.err


class TestEval:
    def test_self_evaluation_is_perfect(self, train_file, capsys):
        code = main(
            ["eval", "--train", train_file, "--test", train_file,
             "--predictor", "delanga"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip().endswith("accuracy=1.000000")

    @pytest.mark.parametrize("rows, accuracy", [
        pytest.param("red,1.0,maybe\n", "0.000000", id="all-unknown"),
        pytest.param("red,1.0,maybe\nred,1.0,yes\nblue,3.0,no\nblue,3.0,perhaps\n", "0.500000", id="half-unknown"),
    ])
    def test_unknown_test_labels_count_as_misses(self, rows, accuracy, train_file, tmp_path, capsys):
        test = tmp_path / "test.csv"
        test.write_text("color,size,label\n" + rows)
        code = main(
            ["eval", "--train", train_file, "--test", str(test),
             "--predictor", "delanga"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == f"accuracy={accuracy}\n"

    @pytest.mark.parametrize("text, message", [
        pytest.param("color,size,shape,label\nred,1.0,round,yes\n", "schema has 2 attributes, file has 3",
                     id="extra-column"),
        pytest.param("color,size,label\nred,big,yes\n", "cannot parse continuous cell 'big' at line 2, column 'size'",
                     id="text-in-a-continuous-column"),
    ])
    def test_test_file_off_the_schema_fails(self, text, message, train_file, tmp_path, capsys):
        test = tmp_path / "test.csv"
        test.write_text(text)
        code = main(
            ["eval", "--train", train_file, "--test", str(test),
             "--predictor", "delanga"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unseen_category_is_tolerated(self, train_file, tmp_path, capsys):
        novel = tmp_path / "test.csv"
        novel.write_text("color,size,label\npurple,9.9,no\n")
        code = main(
            ["eval", "--train", train_file, "--test", str(novel),
             "--predictor", "rasturnat", "--kernel", "bridge"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "accuracy=" in captured.out

    def test_byte_identical_reruns(self, train_file, capsys):
        argv = ["eval", "--train", train_file, "--test", train_file,
                "--predictor", "rasturnat", "--kernel", "gauss"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestConverge:
    def test_report_and_summary(self, spec_file, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        code = main(
            ["converge", "--spec", spec_file, "--arms", "delanga,rasturnat:bridge",
             "--schedule", "5,20", "--trials", "2", "--test-size", "40",
             "--out", out]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "m,predictor,kernel,trial,accuracy,bayes_accuracy,regret"
        assert len(lines) == 1 + 2 * 2 * 2
        assert "running arm delanga" in captured.err
        summary = [l for l in captured.out.splitlines() if l.startswith("arm=")]
        assert summary[0].startswith("arm=delanga final_m=20 mean_regret=")
        assert summary[1].startswith("arm=rasturnat:bridge final_m=20 mean_regret=")

    def test_rerun_is_byte_identical(self, spec_file, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        argv = ["converge", "--spec", spec_file, "--arms", "rasturnat:newton",
                "--schedule", "5,15", "--trials", "2", "--test-size", "30"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_arm_combination(self, spec_file, tmp_path, capsys):
        code = main(
            ["converge", "--spec", spec_file, "--arms", "delanga:bridge",
             "--schedule", "5", "--out", str(tmp_path / "r.csv")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "rasturnat" in captured.err

    @pytest.mark.parametrize("arms", ["delanga,rasturnat:nope", "delanga,centroid"])
    def test_arms_are_checked_before_any_arm_runs(self, arms, spec_file, tmp_path, capsys):
        code = main(["converge", "--spec", spec_file, "--arms", arms, "--schedule", "5",
                     "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "running arm" not in err


class TestKernels:
    def test_list_names_every_kind(self, capsys):
        code = main(["kernels", "list"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert len(lines) == len(KERNEL_KINDS)
        listed = [line.split(":")[0] for line in lines]
        assert listed == list(KERNEL_KINDS)

    def test_check_table(self, capsys):
        code = main(["kernels", "check", "--m", "100"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "kind,sepm,seap,maxsap,certified"
        assert "bridge,1.000000,0.010000,0.990000,true" in lines
        by_kind = {line.split(",")[0]: line for line in lines[1:]}
        assert set(by_kind) == set(KERNEL_KINDS)
        assert by_kind["pow_2"].endswith("false")
        assert by_kind["adj_pow_2"].endswith("true")

    def test_check_requires_m(self, capsys):
        code = main(["kernels", "check"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--m" in captured.err

    def test_check_rejects_degenerate_m(self, capsys):
        code = main(["kernels", "check", "--m", "1"])
        captured = capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("m", [str(10**400), "100000000000000000000"])
    def test_check_refusal_prints_only_the_error(self, m, capsys):
        # 10^400 has no float; at 10^20 the residue kernel's denominator
        # rounds to zero after five kinds have certified.
        assert main(["kernels", "check", "--m", m]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestTopLevel:
    def test_unknown_command_is_a_usage_error(self, capsys):
        code = main(["transmogrify"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fieldpred", "kernels", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "bridge" in proc.stdout

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fieldpred", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for sub in ("fit", "predict", "eval", "converge", "kernels"):
            assert sub in proc.stdout


def _valid_documents() -> dict:
    """One valid document per kind, with the argv that reads it from ``{path}``."""
    table = load_table(TRAIN_CSV.encode())
    predict_argv = ["predict", "--model", "{path}", "--query", "red,1.5"]
    # Older files also stored the adj_pow_2 residue, which the reader ignores.
    adj_model = fit(table, "rasturnat", "adj_pow_2")
    adj = model_to_dict(adj_model)
    adj["kernel"]["adrez"] = adj_model.kernel.adrez
    return {
        "model-adj-pow-2": (adj, predict_argv),
        "model-density": (model_to_dict(fit(table, "rasturnat", "newton", density=True)), predict_argv),
        "model-spliced": (model_to_dict(fit(table, "rasturnat", "spliced")), predict_argv),
        "model-v1": (json.loads((DATA / "model_v1_mixed_density.json").read_text()),
                     ["predict", "--model", "{path}", "--query", "red,1.5,round"]),
        "model-v2": (json.loads((DATA / "model_v2_rasturnat.json").read_text()),
                     ["predict", "--model", "{path}", "--query", "red,1.5,round"]),
        "schema": (schema_to_dict(table.schema), ["fit", "--train", "{train}", "--predictor", "delanga",
                                                  "--schema", "{path}"]),
        "spec": (spec_to_dict(counterexample_spec()), ["converge", "--spec", "{path}", "--arms",
                                                        "delanga,rasturnat:bridge", "--schedule", "4",
                                                        "--trials", "1", "--test-size", "4", "--out", "{out}"]),
    }


DOCUMENTS = _valid_documents()


def _nodes(value, path=()):
    """The path (keys and indices) of every node below ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


_HUGE = "__huge_literal__"
_SWAPS = {"null": None, "true": True, "string": "x", "float": 0.5, "int": 3, "list": [], "object": {},
          "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "1e400": _HUGE,
          "zero": 0, "-1.0": -1.0}


def _corrupt(payload, path, op) -> str:
    """Apply one corruption at ``path`` and return the document's JSON text."""
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if op == "drop":
        del parent[key]
    elif op in _SWAPS:
        parent[key] = _SWAPS[op]
    elif isinstance(node, list) and op == "truncate":
        del node[len(node) // 2:]
    elif isinstance(node, list) and op == "extend":
        node.append(node[-1] if node else 0)
    return json.dumps(payload).replace(f'"{_HUGE}"', "1e400")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corrupted_documents_exit_0_or_1(data):
    # Whatever single corruption a model, schema or spec file carries, the
    # command that reads it either still succeeds or reports an input error.
    kind = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="kind")
    payload, argv = copy.deepcopy(DOCUMENTS[kind])
    path = data.draw(st.sampled_from(list(_nodes(payload))), label="path")
    op = data.draw(st.sampled_from(["drop", "truncate", "extend", *_SWAPS]), label="op")
    text = _corrupt(payload, path, op)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"path": Path(tmp) / "doc.json", "train": Path(tmp) / "train.csv", "out": Path(tmp) / "out.csv"}
        files["path"].write_text(text)
        files["train"].write_text(TRAIN_CSV)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(**files) for arg in argv])
    assert code in (0, 1), err.getvalue()
    if code:
        assert err.getvalue().startswith("error:")
