import json

import numpy as np
import pytest

from fieldpred import (
    AttributeSpec,
    DataError,
    Query,
    Schema,
    TrainingTable,
    column_ranges,
    infer_schema,
    load_table,
    serialize_table,
    validate_query,
)
from fieldpred.dataset import schema_from_dict, schema_to_dict

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
    rows = [["b", "x", "1"], ["a", "y", "0"], ["b", "x", "1"]]
    header = ["c1", "c2", "out"]
    s1 = infer_schema(rows, header)
    s2 = infer_schema(rows, header)
    assert s1 == s2
    assert s1.attributes[0].categories == ("b", "a")
    assert s1.outcome_labels == ("1", "0")


def test_infer_continuous_requires_all_cells_numeric():
    rows = [["1.5", "2", "y"], ["oops", "3", "n"]]
    schema = infer_schema(rows, ["a", "b", "out"])
    assert schema.attributes[0].kind == "categorical"
    assert schema.attributes[1].kind == "continuous"


def test_infer_rejects_non_finite_numerics():
    rows = [["inf", "y"], ["2.0", "n"]]
    schema = infer_schema(rows, ["a", "out"])
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
    assert column_ranges(table) == {"v": 5.0}
    constant = TrainingTable(schema, [(3.0,), (3.0,)], [0, 1])
    assert column_ranges(constant) == {"v": 0.0}
    single = TrainingTable(schema, [(8.25,)], [0])
    assert column_ranges(single) == {"v": 0.0}


def test_column_ranges_invariant_under_row_permutation():
    rng = np.random.default_rng(11)
    values = rng.uniform(-5, 5, size=(12, 2))
    schema = Schema(
        (AttributeSpec("a", "continuous"), AttributeSpec("b", "continuous")),
        ("x", "y"),
    )
    rows = [tuple(float(v) for v in row) for row in values]
    outcomes = [0] * 12
    base = column_ranges(TrainingTable(schema, rows, outcomes))
    for _ in range(5):
        perm = rng.permutation(12)
        shuffled = TrainingTable(schema, [rows[i] for i in perm], outcomes)
        assert column_ranges(shuffled) == base


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


def test_total_weight_matches_full_match_accumulation():
    # A perfect match must land at distance exactly 0.0 even when the
    # weights do not sum cleanly in binary.
    attrs = tuple(AttributeSpec(f"x{j}", "categorical", weight=0.1) for j in range(7))
    schema = Schema(attrs, ("x",))
    table = TrainingTable(schema, [tuple("a" * 7)], [0])
    from fieldpred.similarity import match_vectors

    _, dm = match_vectors(Query(tuple("a" * 7)), table)
    assert dm[0] == 0.0
