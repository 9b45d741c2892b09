import csv
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldpred import (
    AttributeSpec,
    DataError,
    Query,
    Schema,
    TrainingTable,
    fit,
    load_table,
    validate_query,
)
from fieldpred import dataset, predictors
from fieldpred.cli import main
from fieldpred.dataset import schema_from_dict, schema_to_dict
from fieldpred.predictors import model_to_dict
from fieldpred.similarity import match_vectors

from .util import csv_reference_load_table, serialize_table, wide_categorical_table

CSV_MIXED = b"""color,size,label
red,1.5,yes
blue,3.0,no
red,2.0,yes
"""


def test_load_table_basic():
    table = load_table(CSV_MIXED)
    assert table.n_entries == 3
    assert table.n_attributes == 2
    assert table.schema.attributes[0].kind == "categorical"
    assert table.schema.attributes[0].categories == ("red", "blue")
    assert table.schema.attributes[1].kind == "continuous"
    assert table.schema.outcome_labels == ("yes", "no")
    assert table.values[1] == ("blue", 3.0)
    assert table.outcomes == (0, 1, 0)


def test_infer_first_seen_order_is_deterministic():
    text = b"c1,c2,out\nb,x,1\na,y,0\nb,x,1\n"
    s1 = load_table(text).schema
    s2 = load_table(text).schema
    assert s1 == s2
    assert s1.attributes[0].categories == ("b", "a")
    assert s1.outcome_labels == ("1", "0")


def test_infer_continuous_requires_all_cells_numeric():
    schema = load_table(b"a,b,out\n1.5,2,y\noops,3,n\n").schema
    assert schema.attributes[0].kind == "categorical"
    assert schema.attributes[1].kind == "continuous"


def test_infer_rejects_non_finite_numerics():
    schema = load_table(b"a,out\ninf,y\n2.0,n\n").schema
    assert schema.attributes[0].kind == "categorical"


def test_ragged_row_reports_line_number():
    bad = b"a,b,out\n1,2,x\n1,2\n"
    with pytest.raises(DataError, match="ragged row at line 3"):
        load_table(bad)


def test_empty_cell_rejected_with_line_number():
    bad = b"a,out\n,x\n"
    with pytest.raises(DataError, match="line 2"):
        load_table(bad)


def test_empty_table_rejected():
    with pytest.raises(DataError, match="empty table"):
        load_table(b"a,out\n")
    with pytest.raises(DataError, match="empty table"):
        load_table(b"")


def test_unparseable_continuous_cell_with_explicit_schema():
    schema = Schema(
        (AttributeSpec("a", "continuous"),),
        ("x", "y"),
    )
    with pytest.raises(DataError, match="line 3"):
        load_table(b"a,out\n1.0,x\nzzz,y\n", schema=schema)


def test_unknown_category_with_explicit_schema():
    schema = Schema(
        (AttributeSpec("a", "categorical", categories=("p", "q")),),
        ("x", "y"),
    )
    with pytest.raises(DataError, match="unknown category 'r' at line 2"):
        load_table(b"a,out\nr,x\n", schema=schema)


def test_unknown_outcome_label_with_explicit_schema():
    schema = Schema((AttributeSpec("a", "categorical"),), ("x",))
    with pytest.raises(DataError, match="unknown outcome label"):
        load_table(b"a,out\np,y\n", schema=schema)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_continuous_cell_with_explicit_schema(cell):
    schema = Schema((AttributeSpec("a", "categorical"), AttributeSpec("b", "continuous")), ("x", "y"))
    text = f"a,b,out\np,1.0,x\nq,{cell},y\n".encode()
    with pytest.raises(DataError, match=f"cannot parse continuous cell '{cell}' at line 3, column 'b'"):
        load_table(text, schema=schema)


def test_unknown_outcome_label_names_its_line():
    schema = Schema((AttributeSpec("a", "categorical"),), ("x", "y"))
    with pytest.raises(DataError, match="unknown outcome label 'z' at line 4"):
        load_table(b"a,out\np,x\nq,y\nq,z\np,w\n", schema=schema)


def test_first_bad_cell_in_file_order_is_reported():
    # Each column has a bad cell; the earliest line wins, and on one line
    # the leftmost attribute column, then the outcome.
    schema = Schema(
        (AttributeSpec("a", "continuous"), AttributeSpec("c", "categorical", categories=("p",))),
        ("x",),
    )
    with pytest.raises(DataError, match="unknown category 'r' at line 3, column 'c'"):
        load_table(b"a,c,out\n1.0,p,x\n2.0,r,x\nzzz,p,y\n", schema=schema)
    with pytest.raises(DataError, match="cannot parse continuous cell 'zzz' at line 3, column 'a'"):
        load_table(b"a,c,out\n1.0,p,x\nzzz,r,y\n", schema=schema)
    with pytest.raises(DataError, match="unknown outcome label 'y' at line 2"):
        load_table(b"a,c,out\n1.0,p,y\nzzz,p,x\n", schema=schema)
    # The outcome column need not be last in the file.
    with pytest.raises(DataError, match="unknown category 'r' at line 2, column 'c'"):
        load_table(b"out,a,c\ny,1.0,r\n", schema=schema, outcome_column="out")


def test_empty_cell_before_ragged_row_is_reported_first():
    with pytest.raises(DataError, match="empty cell at line 2"):
        load_table(b"a,b,out\n1,,x\n1,2\n")
    with pytest.raises(DataError, match="ragged row at line 2"):
        load_table(b"a,b,out\n1,2\n1,,x\n")


def test_outcome_column_override():
    csv = b"label,f\nyes,1.0\nno,2.0\n"
    table = load_table(csv, outcome_column="label")
    assert table.schema.outcome_labels == ("yes", "no")
    assert table.schema.attributes[0].name == "f"
    assert table.values[0] == (1.0,)


def test_quoted_cells_round_trip():
    csv = b'a,out\n"hello, world",x\n"say ""hi""",y\n'
    table = load_table(csv)
    assert table.values[0] == ("hello, world",)
    assert table.values[1] == ('say "hi"',)
    again = load_table(serialize_table(table), schema=table.schema)
    assert again.values == table.values


def test_column_ranges_examples():
    schema = Schema((AttributeSpec("v", "continuous"),), ("x", "y"))
    table = TrainingTable(schema, [(2.0,), (7.0,), (4.5,)], [0, 1, 0])
    assert table.schema.attributes[0].range_width == 5.0
    constant = TrainingTable(schema, [(3.0,), (3.0,)], [0, 1])
    assert constant.schema.attributes[0].range_width == 0.0
    single = TrainingTable(schema, [(8.25,)], [0])
    assert single.schema.attributes[0].range_width == 0.0


def test_column_ranges_invariant_under_row_permutation():
    rng = np.random.default_rng(11)
    values = rng.uniform(-5, 5, size=(12, 2))
    schema = Schema(
        (AttributeSpec("a", "continuous"), AttributeSpec("b", "continuous")),
        ("x", "y"),
    )
    rows = [tuple(float(v) for v in row) for row in values]
    outcomes = [0] * 12
    base = [a.range_width for a in TrainingTable(schema, rows, outcomes).schema.attributes]
    for _ in range(5):
        perm = rng.permutation(12)
        shuffled = TrainingTable(schema, [rows[i] for i in perm], outcomes)
        assert [a.range_width for a in shuffled.schema.attributes] == base


def test_serialize_round_trip_bit_exact_continuous():
    schema = Schema(
        (AttributeSpec("a", "continuous"), AttributeSpec("c", "categorical")),
        ("x", "y"),
    )
    rows = [(0.1 + 0.2, "p"), (1.0 / 3.0, "q"), (1e-17, "p")]
    table = TrainingTable(schema, rows, [0, 1, 0])
    again = load_table(serialize_table(table), schema=table.schema)
    assert again.values == table.values
    assert again.outcomes == table.outcomes
    assert again.schema == table.schema


def test_serialize_round_trip_with_inference():
    table = load_table(CSV_MIXED)
    again = load_table(serialize_table(table))
    assert again.values == table.values
    assert again.outcomes == table.outcomes


def test_validate_query_accepts_unseen_category():
    table = load_table(CSV_MIXED)
    q = validate_query(["green", "2.5"], table.schema)
    assert q.values == ("green", 2.5)


def test_validate_query_arity_and_parse_errors():
    table = load_table(CSV_MIXED)
    with pytest.raises(DataError, match="2 attributes"):
        validate_query(["red"], table.schema)
    with pytest.raises(DataError, match="continuous"):
        validate_query(["red", "tall"], table.schema)


def test_schema_json_round_trip():
    table = load_table(CSV_MIXED)
    payload = json.loads(json.dumps(schema_to_dict(table.schema)))
    restored = schema_from_dict(payload)
    names = [(a.name, a.kind, a.weight, a.categories) for a in restored.attributes]
    assert names == [("color", "categorical", 1.0, ("red", "blue")),
                     ("size", "continuous", 1.0, None)]
    assert restored.outcome_labels == table.schema.outcome_labels


def test_schema_rejects_bad_weights_and_duplicates():
    with pytest.raises(DataError):
        AttributeSpec("a", "categorical", weight=-1.0)
    with pytest.raises(DataError):
        AttributeSpec("a", "categorical", weight=10**400)
    with pytest.raises(DataError):
        Schema((AttributeSpec("a", "categorical"), AttributeSpec("a", "continuous")), ("x",))
    with pytest.raises(DataError):
        Schema((AttributeSpec("a", "categorical"),), ())
    with pytest.raises(DataError):
        Schema((AttributeSpec("a", "categorical", weight=0.0),), ("x",))


def test_training_table_validates_cells():
    schema = Schema((AttributeSpec("a", "continuous"),), ("x",))
    with pytest.raises(DataError, match="finite real"):
        TrainingTable(schema, [(float("nan"),)], [0])
    with pytest.raises(DataError, match="outcome index"):
        TrainingTable(schema, [(1.0,)], [5])
    with pytest.raises(DataError, match="empty table"):
        TrainingTable(schema, [], [])


def test_a_continuous_range_that_overflows_is_refused_without_a_warning(tmp_path, capsys):
    # max - min of {-1e308, 1e308} overflows to inf, which no width may be;
    # Tier-1 turns numpy's overflow RuntimeWarning into an error.
    schema = Schema((AttributeSpec("c", "categorical"), AttributeSpec("x", "continuous")), ("A", "B"))
    with pytest.raises(DataError, match="attribute 'x' needs a finite range_width"):
        TrainingTable(schema, [("p", -1e308), ("q", 1e308)], [0, 1])
    path = tmp_path / "train.csv"
    path.write_text("c,x,label\np,-1e308,A\nq,1e308,B\n")
    assert main(["fit", "--train", str(path), "--predictor", "delanga"]) == 1
    assert capsys.readouterr().err.startswith("error: attribute 'x' needs a finite range_width")


@pytest.mark.parametrize("outcome", [0.5, 1.0, "0", True, None])
def test_training_table_rejects_non_integer_outcomes(outcome):
    schema = Schema((AttributeSpec("a", "continuous"),), ("x", "y"))
    with pytest.raises(DataError, match="outcome index"):
        TrainingTable(schema, [(1.0,), (2.0,)], [0, outcome])


def test_loaded_and_constructed_tables_share_one_coding():
    table = load_table(CSV_MIXED)
    built = TrainingTable(table.schema, table.values, table.outcomes)
    for name in ("_distinct_of", "_distinct_entry", "_outcomes", "_label_counts"):
        assert np.array_equal(getattr(built, name), getattr(table, name))
    assert all(np.array_equal(a, b) for a, b in zip(built._col_data, table._col_data))
    assert built._col_vocab == table._col_vocab
    assert built.schema == table.schema


def test_each_distinct_row_keeps_its_last_entry():
    # "1" and "1.0" are one row, and so are "-0" and "0": the row keeps the
    # cells of the last entry that holds it, whichever line that entry was.
    text = b"a,b,label\nx,1,p\ny,2,q\nx,1.0,q\ny,2,p\nx,-0,p\nx,0,q\n"
    for table in (load_table(text), csv_reference_load_table(text.decode())):
        assert table._distinct_of.tolist() == [1, 2, 1, 2, 0, 0]
        assert table._distinct_entry.tolist() == [5, 2, 3]
        assert table._col_data[1].tolist() == [0.0, 1.0, 2.0] and not np.signbit(table._col_data[1][0])


def test_a_row_of_negative_zero_holds_positive_zero_in_either_order():
    # "-0.0" and "0.0" are one row; it holds +0.0 whichever entry came last, so both
    # orders write the same column to a model file.
    texts = (b"x,c,label\n-0.0,a,A\n0.0,a,B\n", b"x,c,label\n0.0,a,B\n-0.0,a,A\n")
    tables = [load(text.decode() if load is csv_reference_load_table else text)
              for text in texts for load in (load_table, csv_reference_load_table)]
    for table in tables:
        assert table._col_data[0].tolist() == [0.0] and not np.signbit(table._col_data[0]).any()
    columns = [model_to_dict(fit(table, "delanga"))["columns"] for table in tables]
    assert all(column == columns[0] for column in columns)


@pytest.mark.parametrize("n_categories, dtype", [(1, np.int8), (128, np.int8), (129, np.int16), (200, np.int16)])
def test_category_codes_take_the_least_signed_dtype_that_holds_minus_one(n_categories, dtype):
    table = wide_categorical_table(n_categories)
    codes = table._col_data[0]
    assert codes.dtype == dtype and table._col_data[1].dtype == np.float64
    assert codes.tolist() == list(range(n_categories))
    # numpy 1.24 casts a Python int by its value and numpy 2 takes it as weak:
    # either way a query's code compares in the column's own dtype.
    for code in (-1, n_categories - 1):
        assert np.result_type(codes, code) == dtype
    # They pack to the bytes that float codes packed to.
    assert predictors._packed(codes) == predictors._packed(codes.astype(np.float64))
    loaded = load_table(serialize_table(table), schema=table.schema)
    assert loaded._col_data[0].dtype == dtype and loaded._col_data[0].tobytes() == codes.tobytes()


@pytest.mark.parametrize("n_categories", [3, 128, 200])
def test_an_unseen_category_matches_no_row(n_categories):
    table = wide_categorical_table(n_categories)
    assert table.encode_query(Query(("unseen", 3.0)))[0] == -1
    unseen, v0 = (match_vectors(Query((cell, 3.0)), table)[0] for cell in ("unseen", "v0"))
    # Only the row of v0 (row 0: rows are in code order) scores the category column's 1.
    assert np.flatnonzero(v0 != unseen).tolist() == [0] and v0[0] == pytest.approx(unseen[0] + 1.0)


def test_total_weight_matches_full_match_accumulation():
    # A perfect match must land at distance exactly 0.0 even when the
    # weights do not sum cleanly in binary.
    attrs = tuple(AttributeSpec(f"x{j}", "categorical", weight=0.1) for j in range(7))
    schema = Schema(attrs, ("x",))
    table = TrainingTable(schema, [tuple("a" * 7)], [0])
    from fieldpred.similarity import match_vectors

    _, dm = match_vectors(Query(tuple("a" * 7)), table)
    assert dm[0] == 0.0


# Cells the split path takes as they are, and cells that are empty, quoted
# or hold a CR (the last two send the text to csv.reader).
CLEAN_CELLS = ["a", "b", "c", "1", "1.0", "0", "-0", "2.5", "-3", "1e400", "nan", "x y", " ", "\u2028", "\x85"]
DIRTY_CELLS = ["", '"q,r"', '"s""t"', 'u"v', "\r", "d\re"]


@st.composite
def csv_cases(draw):
    """A CSV text with repeated lines, plus a schema or None and an outcome column or None."""
    width = draw(st.integers(1, 4))
    header = [f"h{j}" for j in range(width)]
    cell = st.sampled_from(CLEAN_CELLS + draw(st.lists(st.sampled_from(DIRTY_CELLS), max_size=2)))
    regular = st.lists(cell, min_size=width, max_size=width)
    ragged = st.lists(cell, min_size=0, max_size=width + 1)
    line = (st.one_of(regular, ragged) if draw(st.booleans()) else regular).map(",".join)
    pool = draw(st.lists(line, min_size=1, max_size=5))
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join([",".join(header)] + lines) + draw(st.sampled_from(["", newline]))
    schema = None
    if draw(st.booleans()):
        values = st.lists(st.sampled_from(CLEAN_CELLS), min_size=1, max_size=6, unique=True)
        attrs = tuple(
            AttributeSpec(f"s{j}", kind, categories=draw(st.none() | values) if kind == "categorical" else None)
            for j, kind in enumerate(draw(st.lists(st.sampled_from(["categorical", "continuous"]),
                                                   min_size=max(width - 1, 0), max_size=max(width - 1, 0))))
        )
        schema = Schema(attrs, tuple(draw(values)))
    outcome_column = draw(st.none() | st.sampled_from(header + ["zz"]))
    return text, schema, outcome_column


def _loaded(load, text, schema, outcome_column):
    """The table's coded state, or the error raised."""
    try:
        table = load(text, schema=schema, outcome_column=outcome_column)
    except (DataError, csv.Error) as exc:
        return type(exc), str(exc)
    return (table.schema, [(c.dtype, c.tobytes()) for c in table._col_data], table._col_vocab,
            table._outcomes.tobytes(), table._distinct_of.tobytes(), table._distinct_entry.tobytes(),
            table._label_counts.tobytes())


@settings(max_examples=400, deadline=None)
@given(csv_cases())
def test_split_loader_matches_the_csv_reader(case):
    text, schema, outcome_column = case
    expected = _loaded(csv_reference_load_table, text, schema, outcome_column)
    # In chunks of the default size, and of 1, 2 and 3 lines.
    for chunk_lines in (dataset._LOAD_CHUNK_LINES, 1, 2, 3):
        with mock.patch.object(dataset, "_LOAD_CHUNK_LINES", chunk_lines):
            assert _loaded(load_table, text.encode(), schema, outcome_column) == expected


@pytest.mark.parametrize("chunk_lines", [1, 2, 3])
def test_column_that_stops_parsing_in_a_later_chunk_is_categorical(chunk_lines, monkeypatch):
    monkeypatch.setattr(dataset, "_LOAD_CHUNK_LINES", chunk_lines)
    text = "a,b,out\n1,5,x\n2.0,6,y\n1,5,x\n3,7,x\n1e3,8,y\nq,9,x\n2.0,5,y\n"
    table = load_table(text.encode())
    assert table.schema.attributes[0] == AttributeSpec("a", "categorical", categories=("1", "2.0", "3", "1e3", "q"))
    assert table.schema.attributes[1].kind == "continuous"
    assert _loaded(load_table, text.encode(), None, None) == _loaded(csv_reference_load_table, text, None, None)


def test_column_that_stops_parsing_past_the_default_chunk_is_categorical():
    n = dataset._LOAD_CHUNK_LINES + 100
    lines = [f"{i},{i % 3},{'xy'[i % 2]}" for i in range(n)] + ["7a,1,x"]
    text = "a,b,out\n" + "\n".join(lines) + "\n"
    table = load_table(text.encode())
    assert table.schema.attributes[0].categories == tuple(map(str, range(n))) + ("7a",)
    assert _loaded(load_table, text.encode(), None, None) == _loaded(csv_reference_load_table, text, None, None)


@pytest.mark.parametrize("lines, message", [
    # The bad cell ends the first chunk; the ragged line or empty cell starts the next one.
    (["1.0,p,x", "zzz,p,x", "1.0,p", "1.0,p,x"], "ragged row at line 4"),
    (["1.0,p,x", "zzz,p,x", "1.0,,x", "1.0,p,x"], "empty cell at line 4"),
    # The ragged line or empty cell ends the first chunk; the bad cell starts the next one.
    (["1.0,p,x", "1.0,p", "zzz,p,x", "1.0,p,x"], "ragged row at line 3"),
    (["1.0,p,x", "1.0,,x", "zzz,p,x", "1.0,p,x"], "empty cell at line 3"),
    # Bad cells on both sides of the border: the first in file order wins,
    # whichever column it is in.
    (["1.0,p,x", "1.0,r,x", "zzz,p,x", "1.0,p,x"], "unknown category 'r' at line 3, column 'c'"),
    (["1.0,p,x", "1.0,p,z", "zzz,r,x", "1.0,p,x"], "unknown outcome label 'z' at line 3"),
    (["1.0,p,x", "1.0,p,x", "zzz,r,z", "1.0,q,x"], "cannot parse continuous cell 'zzz' at line 4, column 'a'"),
])
def test_errors_on_either_side_of_a_chunk_border(lines, message, monkeypatch):
    monkeypatch.setattr(dataset, "_LOAD_CHUNK_LINES", 2)
    schema = Schema((AttributeSpec("a", "continuous"), AttributeSpec("c", "categorical", categories=("p", "q"))),
                    ("x", "y"))
    text = "a,c,out\n" + "\n".join(lines) + "\n"
    with pytest.raises(DataError, match=re.escape(message)):
        load_table(text.encode(), schema=schema)
    assert _loaded(load_table, text.encode(), schema, None) == _loaded(csv_reference_load_table, text, schema, None)


def test_loading_a_mixed_table_holds_one_chunk_of_cells():
    # 20,000 distinct lines of 6 continuous and 6 categorical cells and a
    # label. The text, one string per line and one chunk's cells take about
    # 12 MB; every cell as its own string at once would take about 22 MB.
    rng = np.random.default_rng(1701)
    cont = np.round(rng.uniform(-5.0, 5.0, (20_000, 6)), 6)
    cats = rng.integers(0, 8, (20_000, 7))
    text = "\n".join([",".join([f"c{j}" for j in range(6)] + [f"k{j}" for j in range(6)] + ["label"])] + [
        ",".join([repr(float(x)) for x in row] + [f"v{c}" for c in codes[:6]] + [f"L{codes[6] % 3}"])
        for row, codes in zip(cont, cats)
    ]).encode()
    tracemalloc.start()
    try:
        table = load_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n_entries == 20_000 and table._distinct_entry.size == 20_000
    assert peak < 16e6


def test_repeated_bad_line_reports_its_first_line():
    schema = Schema((AttributeSpec("a", "continuous"), AttributeSpec("c", "categorical", categories=("p",))),
                    ("x", "y"))
    lines = ["1.0,p,x", "2.0,p,y"] * 50 + ["zzz,p,x"] * 20 + ["3.0,r,y"] + ["zzz,p,x"] * 5
    text = "a,c,out\n" + "\n".join(lines) + "\n"
    with pytest.raises(DataError, match="cannot parse continuous cell 'zzz' at line 102, column 'a'"):
        load_table(text.encode(), schema=schema)
    with pytest.raises(DataError, match="unknown category 'r' at line 122, column 'c'"):
        load_table(text.replace("zzz", "4.0").encode(), schema=schema)


def test_clean_text_is_split_without_the_csv_module(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called on clean text")

    monkeypatch.setattr(dataset.csv, "reader", refuse)
    table = load_table(Path(__file__).parent / "data" / "mixed_train.csv")
    assert table.n_entries == 10 and table.n_attributes == 3
    rows = [f"r{i % 7},{i % 3}.5,{'yes' if i % 2 else 'no'}" for i in range(1000)]
    table = load_table(("a,b,label\n" + "\n".join(rows) + "\n").encode())
    assert table.n_entries == 1000
    assert table.values[8] == ("r1", 2.5) and table.outcomes[:2] == (0, 1)


def test_quoted_text_still_reaches_the_csv_reader(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(dataset.csv, "reader", reached)
    with pytest.raises(Reached):
        load_table(b'a,out\n"p",x\np,y\n')


@pytest.mark.parametrize("text, line", [
    (b"a,b\np,x\nq\x00,y\n", 3),  # clean text, split without the csv module
    (b'a,b\n"p",x\nq,y\x00\n', 3),  # quoted text, read by csv.reader
    (b"a\x00,b\np,x\n", 1),
    (b"a,b\r\np,x\r\n\x00,y\r\n", 3),
])
def test_nul_is_refused_on_every_path(text, line):
    with pytest.raises(DataError, match=f"malformed CSV at line {line}: line contains NUL"):
        load_table(text)


def test_text_the_csv_reader_refuses_is_a_data_error():
    # A lone CR inside an unquoted cell.
    with pytest.raises(DataError, match="malformed CSV at line 2: new-line character"):
        load_table(b"a,b\nx\ry,1\n")
