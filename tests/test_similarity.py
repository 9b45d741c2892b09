import math

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
    predict,
)
from fieldpred import predictors, similarity
from fieldpred.similarity import group_floors, match_encoded, match_vectors, nearest_rows

from .util import (
    all_match_scores,
    brute_distance,
    column_match_score,
    entry_match_score,
    random_categorical_instance,
    random_continuous_instance,
    random_mixed_instance,
)


def _spec(kind, **kw):
    return AttributeSpec("a", kind, **kw)


class TestColumnMatchScore:
    def test_categorical_exact(self):
        spec = _spec("categorical")
        assert column_match_score("red", "red", spec) == 1.0
        assert column_match_score("red", "blue", spec) == 0.0

    def test_continuous_overlap(self):
        spec = _spec("continuous", range_width=10.0)
        assert column_match_score(3.0, 3.0, spec) == 1.0
        assert column_match_score(0.0, 10.0, spec) == 0.0
        assert column_match_score(2.0, 7.0, spec) == 0.5

    def test_continuous_clamped_below_zero(self):
        # Queries may fall outside the observed column range.
        spec = _spec("continuous", range_width=2.0)
        assert column_match_score(-5.0, 5.0, spec) == 0.0

    def test_degenerate_width_equality(self):
        spec = _spec("continuous", range_width=0.0)
        assert column_match_score(4.0, 4.0, spec) == 1.0
        assert column_match_score(4.0, 4.5, spec) == 0.0

    def test_symmetric_in_its_arguments(self):
        spec = _spec("continuous", range_width=3.0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.uniform(-4, 4, 2)
            assert column_match_score(a, b, spec) == column_match_score(b, a, spec)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(DataError):
            column_match_score("red", "blue", _spec("continuous", range_width=1.0))
        with pytest.raises(DataError):
            column_match_score(1.0, 2.0, _spec("categorical"))

    def test_missing_width_rejected(self):
        with pytest.raises(DataError, match="range_width"):
            column_match_score(1.0, 2.0, _spec("continuous"))


class TestEntryMatchScore:
    def test_worked_mixed_example(self):
        schema = Schema(
            (
                AttributeSpec("color", "categorical"),
                AttributeSpec("size", "continuous"),
            ),
            ("yes", "no"),
        )
        table = TrainingTable(schema, [("red", 3.0), ("blue", 7.0)], [0, 1])
        scores = entry_match_score(Query(("red", 1.0)), table, 0)
        assert scores.ems == 1.5
        assert scores.dm == 0.5

    def test_weights_scale_contributions(self):
        schema = Schema(
            (
                AttributeSpec("a", "categorical", weight=3.0),
                AttributeSpec("b", "categorical", weight=0.5),
            ),
            ("x",),
        )
        table = TrainingTable(schema, [("p", "r")], [0])
        scores = entry_match_score(Query(("p", "q")), table, 0)
        assert scores.ems == 3.0
        assert scores.dm == 0.5

    def test_trace_exposes_per_column(self):
        schema = Schema(
            (AttributeSpec("a", "categorical"), AttributeSpec("b", "categorical")),
            ("x",),
        )
        table = TrainingTable(schema, [("p", "z")], [0])
        scores = entry_match_score(Query(("p", "q")), table, 0, trace=True)
        assert scores.per_column == (1.0, 0.0)
        plain = entry_match_score(Query(("p", "q")), table, 0)
        assert plain.per_column is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vector_path_bit_identical_to_scalar(seed):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    ems_vec, dm_vec = match_vectors(query, table)
    for i, u in enumerate(table._distinct_of):
        scalar = entry_match_score(query, table, i)
        assert ems_vec[u] == scalar.ems
        assert dm_vec[u] == scalar.dm


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vector_path_bit_identical_continuous(seed):
    rng = np.random.default_rng(seed)
    table, query = random_continuous_instance(rng)
    ems_vec, dm_vec = match_vectors(query, table)
    for i, u in enumerate(table._distinct_of):
        scalar = entry_match_score(query, table, i)
        assert ems_vec[u] == scalar.ems
        assert dm_vec[u] == scalar.dm


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_matches_brute_oracle(seed):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    _, dm = match_vectors(query, table)
    for i, u in enumerate(table._distinct_of):
        assert dm[u] == brute_distance(query, table, i)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_score_bounds_and_complementarity(seed):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    total = table.total_weight
    ems, dm = match_vectors(query, table)
    assert np.all(ems >= 0.0)
    assert np.all(ems <= total + 1e-12)
    assert np.all(dm >= 0.0)
    assert np.all(dm <= total + 1e-12)
    # ems + dm recovers the total weight up to the clamp at zero.
    slack = ems + dm - total
    assert np.all(np.abs(slack) <= 1e-9)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_unit_weight_categorical_distance_is_hamming(seed):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    _, dm = match_vectors(query, table)
    for u, row in zip(table._distinct_of, table.values):
        hamming = sum(1 for q, t in zip(query.values, row) if q != t)
        assert dm[u] == float(hamming)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_symmetry_swapping_query_and_entry(seed):
    rng = np.random.default_rng(seed)
    table, _ = random_continuous_instance(rng)
    i = int(rng.integers(table.n_entries))
    j = int(rng.integers(table.n_entries))
    forward = entry_match_score(Query(table.values[i]), table, j)
    backward = entry_match_score(Query(table.values[j]), table, i)
    assert forward.ems == backward.ems
    assert forward.dm == backward.dm


def test_self_match_distance_exactly_zero():
    rng = np.random.default_rng(7)
    for _ in range(50):
        table, _ = random_categorical_instance(rng)
        row = table.values[rng.integers(table.n_entries)]
        _, dm = match_vectors(Query(row), table)
        assert 0.0 in dm


def test_all_match_scores_returns_traces_on_request():
    rng = np.random.default_rng(3)
    table, query = random_categorical_instance(rng)
    scores = all_match_scores(query, table, trace=True)
    assert len(scores) == table.n_entries
    for s in scores:
        assert s.per_column is not None
        assert len(s.per_column) == table.n_attributes

    fast = all_match_scores(query, table)
    for a, b in zip(fast, scores):
        assert a.ems == b.ems
        assert a.dm == b.dm


def test_unseen_query_category_matches_nothing():
    schema = Schema(
        (AttributeSpec("a", "categorical", categories=("p", "q")),),
        ("x", "y"),
    )
    table = TrainingTable(schema, [("p",), ("q",)], [0, 1])
    _, dm = match_vectors(Query(("zzz",)), table)
    assert list(dm) == [1.0, 1.0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_single_query_scores_equal_their_row_of_a_block(seed):
    table, queries = random_mixed_instance(np.random.default_rng(seed))
    coded = [table.encode_query(q) for q in queries]
    block = [np.array(cells)[:, None] for cells in zip(*coded)]
    ems, dm = match_encoded(block, table)
    assert ems.shape == dm.shape == (len(queries), table._distinct_entry.size)
    for b, query in enumerate(queries):
        one_ems, one_dm = match_vectors(query, table)
        assert np.array_equal(ems[b], one_ems) and np.array_equal(dm[b], one_dm)


@st.composite
def weighted_mixed_cases(draw):
    """A mixed table under weights of 0, -0.0, 0.25, 1 and 3, with zero-width
    continuous columns among the others, plus queries that fall outside the
    column ranges, some by more than a width, or hold unseen categories."""
    kinds = draw(st.lists(st.sampled_from(["categorical", "continuous", "constant"]), min_size=1, max_size=5))
    weights = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.0]), min_size=len(kinds), max_size=len(kinds)))
    if sum(weights) == 0.0:
        weights[0] = 0.25
    schema = Schema(tuple(AttributeSpec(f"x{j}", "categorical" if kind == "categorical" else "continuous",
                                        weight=w) for j, (kind, w) in enumerate(zip(kinds, weights))), ("A", "B"))
    real = st.sampled_from([-1.25, 0.0, 1.0 / 3.0, 0.5, 2.0])

    def cell(kind, unseen):
        if kind == "categorical":
            return draw(st.sampled_from(["p", "q", "r"] + (["zz"] if unseen else [])))
        if kind == "constant":
            return draw(st.sampled_from([1.5] + ([1.25, 9.0] if unseen else [])))
        return draw(real | st.sampled_from([-40.0, 7.5, 1e6]) if unseen else real)

    rows = [tuple(cell(kind, False) for kind in kinds) for _ in range(draw(st.integers(1, 12)))]
    queries = [Query(tuple(cell(kind, True) for kind in kinds)) for _ in range(draw(st.integers(0, 4)))]
    table = TrainingTable(schema, rows, [draw(st.integers(0, 1)) for _ in rows])
    return table, queries + [Query(rows[0])]


@settings(max_examples=300, deadline=None)
@given(weighted_mixed_cases())
def test_weighted_scores_equal_the_scalar_oracle_bit_for_bit(case):
    # Unit weights skip the multiply, and the clamp at 1 is not applied:
    # both must leave every score's bits as the per-cell loop makes them.
    table, queries = case
    coded = [table.encode_query(q) for q in queries]
    block_ems, block_dm = match_encoded([np.array(cells)[:, None] for cells in zip(*coded)], table)
    for b, query in enumerate(queries):
        ems, dm = match_vectors(query, table)
        for i, u in enumerate(table._distinct_of):
            want = entry_match_score(query, table, i)
            for got_ems, got_dm in ((ems[u], dm[u]), (block_ems[b, u], block_dm[b, u])):
                assert got_ems.tobytes() == np.float64(want.ems).tobytes()
                assert got_dm.tobytes() == np.float64(want.dm).tobytes()


def test_one_query_block_equals_the_single_query():
    schema = Schema((AttributeSpec("c", "categorical", weight=0.25), AttributeSpec("x", "continuous", weight=3.0),
                     AttributeSpec("z", "continuous")), ("A",))
    table = TrainingTable(schema, [("p", 0.0, 2.0), ("q", 4.0, 2.0)], [0, 0])
    query = Query(("unseen", -3.0, 2.0))
    ems, dm = match_encoded([np.array([[cell]]) for cell in table.encode_query(query)], table)
    assert ems.shape == dm.shape == (1, 2)
    assert np.array_equal(ems[0], [1.75, 1.0]) and np.array_equal(dm[0], [2.5, 3.25])
    assert all(np.array_equal(a[0], b) for a, b in zip((ems, dm), match_vectors(query, table)))


@st.composite
def reach_cases(draw):
    """A weighted continuous table plus queries at, just inside and just past
    one width from each column's min and max, where the clamp at 0 starts to bind."""
    n_cols = draw(st.integers(1, 4))
    # Rounded, as benchmark tables are, so no width is small enough to overflow |c - q| / width.
    real = st.floats(-1e3, 1e3).map(lambda x: round(x, 6))
    weights = draw(st.lists(st.sampled_from([0.1, 1.0 / 3.0, 1.0, 3.0]), min_size=n_cols, max_size=n_cols))
    schema = Schema(tuple(AttributeSpec(f"x{j}", "continuous", weight=w) for j, w in enumerate(weights)), ("A",))
    rows = draw(st.lists(st.tuples(*[real] * n_cols), min_size=1, max_size=8))
    table = TrainingTable(schema, rows, [0] * len(rows))
    reach = []
    for j, spec in enumerate(table.schema.attributes):
        lo, hi = min(row[j] for row in rows), max(row[j] for row in rows)
        edges = [hi - spec.range_width, lo + spec.range_width, lo, hi]
        reach.append(edges + [math.nextafter(x, d) for x in edges for d in (-math.inf, math.inf)])
    queries = [Query(tuple(draw(st.sampled_from(cells) | real) for cells in reach))
               for _ in range(draw(st.integers(1, 4)))]
    return table, queries


@settings(max_examples=200, deadline=None)
@given(reach_cases())
def test_distances_stay_nonnegative_where_the_clamps_are_skipped(case):
    # Single queries, a block of them, and a block of the table's own rows
    # (as the density fit scores): no distance below 0, no -0.0, and every
    # score as the clamping per-cell loop makes it.
    table, queries = case
    rows = [table._col_data[j][table._distinct_of][:, None] for j in range(table.n_attributes)]
    coded = [np.array(cells)[:, None] for cells in zip(*map(table.encode_query, queries))]
    checks = [(table.values, rows), (queries, coded)] + [([query], table.encode_query(query)) for query in queries]
    for block_queries, block in checks:
        ems, dm = match_encoded(block, table)
        ems, dm = ems.reshape(len(block_queries), -1), dm.reshape(len(block_queries), -1)
        assert (dm >= 0.0).all() and not np.signbit(dm).any() and not np.signbit(ems).any()
        for b, query in enumerate(block_queries):
            query = query if isinstance(query, Query) else Query(query)
            for i, u in enumerate(table._distinct_of):
                want = entry_match_score(query, table, i)
                assert ems[b, u].tobytes() == np.float64(want.ems).tobytes()
                assert dm[b, u].tobytes() == np.float64(want.dm).tobytes()


@pytest.mark.parametrize("kind, weight", [("categorical", 1.0), ("categorical", 0.25), ("categorical", -0.0),
                                          ("continuous", 1.0), ("continuous", 3.0), ("continuous", -0.0)])
def test_the_first_column_scores_bit_for_bit_under_any_weight(kind, weight):
    # A weight of -0.0 makes the first column's term -0.0; it must not leave
    # a -0.0 score where the column after it adds nothing, as it does for a
    # query past its reach.
    schema = Schema((AttributeSpec("f", kind, weight=weight), AttributeSpec("x", "continuous")), ("A",))
    first = ["p", "q"] if kind == "categorical" else [0.0, 2.0]
    table = TrainingTable(schema, [(first[0], 0.0), (first[1], 1.0), (first[0], 4.0)], [0, 0, 0])
    for f in first + (["zz"] if kind == "categorical" else [-5.0]):
        for x in (0.0, 2.5, -3.0, 9.0, 1e300):
            query = Query((f, x))
            ems, dm = match_vectors(query, table)
            for i, u in enumerate(table._distinct_of):
                want = entry_match_score(query, table, i)
                assert ems[u].tobytes() == np.float64(want.ems).tobytes()
                assert dm[u].tobytes() == np.float64(want.dm).tobytes()


@pytest.mark.parametrize("cell", [1e308, -1e308, 1.7e308, -1.7e308])
def test_a_query_past_the_float_maximum_from_the_column_scores_without_a_warning(cell):
    # |c - q| overflows for every row, and so does the clamp test hi - q_lo;
    # Tier-1 turns numpy's overflow RuntimeWarning into an error.
    schema = Schema((AttributeSpec("x", "continuous"), AttributeSpec("c", "categorical", weight=0.5)), ("A",))
    column = [-1e308, -1e308 + 1e292] if cell > 0 else [1e308, 1e308 - 1e292]
    table = TrainingTable(schema, [(column[0], "p"), (column[1], "q")], [0, 0])
    query = Query((cell, "p"))
    ems, dm = match_vectors(query, table)
    block_ems, block_dm = match_encoded([np.array([[q]]) for q in table.encode_query(query)], table)
    for i, u in enumerate(table._distinct_of):
        want = entry_match_score(query, table, i)
        for got_ems, got_dm in ((ems[u], dm[u]), (block_ems[0, u], block_dm[0, u])):
            assert got_ems.tobytes() == np.float64(want.ems).tobytes()
            assert got_dm.tobytes() == np.float64(want.dm).tobytes()


def test_tiny_width_scores_without_a_warning():
    # |c - q| / width would overflow to inf for |c - q| = 1 at a width of
    # 5e-324; Tier-1 turns that RuntimeWarning into an error.
    schema = Schema((AttributeSpec("x", "continuous", weight=0.25), AttributeSpec("c", "categorical")), ("A",))
    table = TrainingTable(schema, [(0.0, "p"), (5e-324, "p")], [0, 0])
    for cell in (1.0, -1.0, 5e-324, 1e300):
        query = Query((cell, "p"))
        ems, dm = match_vectors(query, table)
        for i, u in enumerate(table._distinct_of):
            want = entry_match_score(query, table, i)
            assert column_match_score(cell, table.values[i][0], table.schema.attributes[0]) in (0.0, 1.0)
            assert ems[u].tobytes() == np.float64(want.ems).tobytes()
            assert dm[u].tobytes() == np.float64(want.dm).tobytes()


def _row_floors(query, table):
    """Each distinct row's floor from ``group_floors``."""
    _, order, offsets = table._equality_groups
    floors = np.empty(order.size)
    floors[order] = np.repeat(group_floors(table.encode_query(query), table), np.diff(offsets))
    return floors


def _full_scan(model, query):
    """delanga or nearest as the single scan of all U rows predicts."""
    dm = match_vectors(query, model.table)[1]
    return predictors._predict_champions(model, query, np.flatnonzero(dm == dm.min()), dm)


def _bits(prediction):
    return (prediction.winner, prediction.tie_depth,
            [(k, v.hex()) for k, v in prediction.scores.items()],
            [(k, v.hex()) for k, v in prediction.likelihoods.items()])


@settings(max_examples=300, deadline=None)
@given(weighted_mixed_cases())
def test_floors_bound_every_distance_and_pruning_keeps_the_prediction(case):
    # Weights 0, 0.25, 1 and 3, zero-width columns, unseen categories and
    # queries outside the ranges, with the columns in any order.
    table, queries = case
    equal = [spec.kind == "categorical" or spec.range_width == 0.0 for spec in table.schema.attributes]
    n_groups = len({tuple(cell for cell, eq in zip(row, equal) if eq) for row in table.values})
    assert (table._equality_groups is None) == (all(equal) or n_groups < 2)
    models = [fit(table, "delanga"), fit(table, "nearest")]
    for query in queries:
        dm = match_vectors(query, table)[1]
        champions = nearest_rows(query, table)
        if table._equality_groups is None:
            assert champions is None
        else:
            assert (_row_floors(query, table) <= dm).all()
            assert np.array_equal(champions, np.flatnonzero(dm == dm.min()))
        for model in models:
            assert _bits(predict(model, query)) == _bits(_full_scan(model, query))


def _counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_champion_past_the_two_least_floors_is_found_by_a_second_pass(monkeypatch):
    # Query (p, p, 0.0) over weights 1, 1 and 3: floors 0, 1 and 2, distances 3, 4 and 2.
    schema = Schema((AttributeSpec("c", "categorical"), AttributeSpec("d", "categorical"),
                     AttributeSpec("x", "continuous", weight=3.0)), ("A", "B"))
    table = TrainingTable(schema, [("p", "p", 1.0), ("p", "q", 1.0), ("q", "q", 0.0)], [0, 0, 1])
    query = Query(("p", "p", 0.0))
    assert np.array_equal(_row_floors(query, table)[table._distinct_of], [0.0, 1.0, 2.0])
    assert np.array_equal(match_vectors(query, table)[1][table._distinct_of], [3.0, 4.0, 2.0])
    scored = _counted(monkeypatch, similarity, "match_encoded")
    full = _counted(monkeypatch, predictors, "match_vectors")
    champions = nearest_rows(query, table)
    assert champions.tolist() == [table._distinct_of[2]]
    assert [sorted(args[2].tolist()) for args in scored] == [sorted(table._distinct_of[:2].tolist()),
                                                               [table._distinct_of[2]]]
    prediction = predict(fit(table, "delanga"), query)
    assert (prediction.winner, prediction.tie_depth) == ("B", 0) and not full


def test_a_delanga_count_tie_scores_every_row(monkeypatch):
    # Two rows of different labels at d = 0.5; the walk finds A alone at d = 1.
    schema = Schema((AttributeSpec("c", "categorical"), AttributeSpec("x", "continuous")), ("A", "B"))
    table = TrainingTable(schema, [("p", 1.0), ("p", 3.0), ("q", 2.0)], [1, 0, 0])
    query = Query(("p", 2.0))
    full = _counted(monkeypatch, predictors, "match_vectors")
    walks = _counted(monkeypatch, predictors, "backtrack_tie_break")
    delanga = fit(table, "delanga")
    prediction = predict(delanga, query)
    assert (prediction.winner, prediction.tie_depth) == ("A", 1)
    assert len(full) == 1 and len(walks) == 1
    prediction = predict(fit(table, "nearest"), query)
    assert (prediction.winner, prediction.tie_depth) == ("A", 1)
    assert len(full) == 1
    assert _bits(predict(delanga, query)) == _bits(_full_scan(delanga, query))


@pytest.mark.parametrize("kinds", [("categorical", "categorical"), ("continuous", "continuous")])
def test_tables_of_one_kind_keep_the_single_scan(kinds, monkeypatch):
    rng = np.random.default_rng(7)
    rows = [tuple(str(rng.integers(0, 3)) if kind == "categorical" else float(rng.integers(0, 5)) for kind in kinds)
            for _ in range(20)]
    schema = Schema(tuple(AttributeSpec(f"x{j}", kind) for j, kind in enumerate(kinds)), ("A", "B"))
    table = TrainingTable(schema, rows, [int(x) for x in rng.integers(0, 2, 20)])
    full = _counted(monkeypatch, predictors, "match_vectors")
    for kind in ("delanga", "nearest"):
        predict(fit(table, kind), Query(rows[0]))
    assert table._equality_groups is None and len(full) == 2


def test_high_cardinality_groups_take_memory_linear_in_rows_and_groups():
    # 4,000 distinct categories in one column and four columns whose mixed-radix
    # code (10^5 categories each) passes 2^62, so it is renumbered on the way.
    rng = np.random.default_rng(11)
    n, wide = 4_000, tuple(f"k{i}" for i in range(100_000))
    names = ["id", "k1", "k2", "k3", "k4"]
    attrs = tuple(AttributeSpec(name, "categorical", categories=None if name == "id" else wide) for name in names)
    schema = Schema(attrs + (AttributeSpec("x", "continuous"),), ("A", "B"))
    rows = [(f"r{i}",) + tuple(wide[int(k)] for k in rng.integers(0, 3, 4)) + (float(rng.uniform(-1, 1)),)
            for i in range(n)]
    table = TrainingTable(schema, rows, [int(x) for x in rng.integers(0, 2, n)])
    cells, order, offsets = table._equality_groups
    u, s = table._distinct_entry.size, offsets.size - 1
    assert u == s == n
    assert order.nbytes + offsets.nbytes + sum(c.nbytes for c in cells if c is not None) <= 8 * (u + s * 6 + 1)
    codes = np.stack([table._col_data[j] for j in range(5)], axis=1)
    group_of = np.unique(codes, axis=0, return_inverse=True)[1].ravel()
    assert np.array_equal(group_of[order], np.repeat(np.arange(s), np.diff(offsets)))
    model = fit(table, "delanga")
    for query in [Query(rows[5]), Query(("r9", "k0", "k1", "k2", "k0", 2.0)), Query(("new",) + rows[3][1:])]:
        assert _bits(predict(model, query)) == _bits(_full_scan(model, query))
