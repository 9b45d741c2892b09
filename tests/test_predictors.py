import json
import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldpred import (
    KERNEL_KINDS,
    AttributeSpec,
    DensityModel,
    FittedModel,
    PredictorError,
    Query,
    Schema,
    TrainingTable,
    backtrack_tie_break,
    compute_density_model,
    explain,
    fit,
    load_model,
    load_table,
    make_kernel,
    predict,
    save_model,
)
from fieldpred import predictors
from fieldpred.predictors import _exact_row_sums, model_from_dict, model_to_dict

from .util import (
    ScaledKernel,
    brute_delanga,
    brute_one_nn,
    random_categorical_instance,
    random_continuous_instance,
    random_mixed_instance,
    reference_density_model,
    reference_predict,
    reference_prediction,
    reference_winner,
)

DATA = Path(__file__).parent / "data"


def two_bit_table(rows_and_outcomes):
    schema = Schema(
        (AttributeSpec("a", "categorical"), AttributeSpec("b", "categorical")),
        ("A", "B"),
    )
    rows = [r for r, _ in rows_and_outcomes]
    outcomes = [{"A": 0, "B": 1}[o] for _, o in rows_and_outcomes]
    return TrainingTable(schema, rows, outcomes)


THREE_ROWS = [(("0", "0"), "A"), (("0", "1"), "B"), (("1", "1"), "B")]


class TestDelanga:
    def test_singleton_predictive_set(self):
        model = fit(two_bit_table(THREE_ROWS), "delanga")
        p = predict(model, Query(("0", "0")))
        assert p.winner == "A"
        assert p.likelihoods == {"A": 1.0, "B": 0.0}
        assert p.tie_depth == 0
        why = explain(model, Query(("0", "0")))
        assert why.champion_rows == (0,)
        assert why.champion_distance == 0.0

    def test_champion_tie_broken_at_next_level(self):
        table = two_bit_table(
            [(("0", "0"), "A"), (("0", "0"), "B"), (("0", "1"), "B")]
        )
        p = predict(fit(table, "delanga"), Query(("0", "0")))
        assert p.winner == "B"
        assert p.tie_depth == 1
        # Likelihoods still come from the champion set alone.
        assert p.likelihoods == {"A": 0.5, "B": 0.5}

    def test_unanimous_table_ignores_query(self):
        table = two_bit_table([(("0", "0"), "B"), (("1", "1"), "B")])
        model = fit(table, "delanga")
        for q in (("0", "0"), ("1", "0"), ("z", "z")):
            assert predict(model, Query(q)).winner == "B"

    def test_fully_tied_falls_back_to_label_order(self):
        table = two_bit_table([(("0", "0"), "A"), (("0", "0"), "B")])
        p = predict(fit(table, "delanga"), Query(("0", "0")))
        assert p.winner == "A"
        assert p.tie_depth == 0  # one level in total, none beyond the first


class TestBacktrack:
    def test_first_differing_level_decides(self):
        winner, depth = backtrack_tie_break([[1, 1], [0, 1]], ("A", "B"))
        assert (winner, depth) == ("B", 1)

    def test_identical_everywhere_gives_earliest_label(self):
        winner, depth = backtrack_tie_break([[2, 2], [1, 1], [3, 3]], ("A", "B"))
        assert (winner, depth) == ("A", 2)

    def test_only_tied_outcomes_compete_downstream(self):
        # C dominates level 1 but was not part of the level-0 tie.
        counts = [[2, 2, 0], [0, 1, 9]]
        winner, depth = backtrack_tie_break(counts, ("A", "B", "C"))
        assert (winner, depth) == ("B", 1)

    def test_requires_a_tie(self):
        with pytest.raises(PredictorError, match="tie"):
            backtrack_tie_break([[2, 1]], ("A", "B"))


class TestRasturnat:
    def test_pow_2_hand_example(self):
        model = fit(two_bit_table(THREE_ROWS), "rasturnat", "pow_2")
        p = predict(model, Query(("0", "0")))
        assert p.scores == {"A": 1.0, "B": 0.75}
        assert p.winner == "A"
        assert p.tie_depth == 0
        assert p.likelihoods["A"] == pytest.approx(1.0 / 1.75, rel=1e-15)

    def test_single_row_always_wins(self):
        table = two_bit_table([(("1", "0"), "B")])
        for kind in ("pow_2", "pow_e", "gauss", "newton"):
            model = fit(table, "rasturnat", kind)
            p = predict(model, Query(("0", "0")))
            assert p.winner == "B"
            assert p.likelihoods == {"A": 0.0, "B": 1.0}

    def test_identical_rows_tie_to_earlier_label(self):
        table = two_bit_table([(("0", "0"), "A"), (("0", "0"), "B")])
        p = predict(fit(table, "rasturnat", "bridge"), Query(("1", "1")))
        assert p.scores["A"] == p.scores["B"]
        assert p.winner == "A"
        assert p.tie_depth == 1

    def test_trace_exposes_per_entry_scores(self):
        model = fit(two_bit_table(THREE_ROWS), "rasturnat", "pow_2")
        why = explain(model, Query(("0", "0")))
        assert list(why.ets) == [1.0, 0.5, 0.25]
        assert why.champion_rows is None

    def test_explain_scales_votes_by_dcf_with_density(self):
        table = two_bit_table(THREE_ROWS + [(("0", "0"), "A")])
        model = fit(table, "rasturnat", "pow_2", density=True)
        query = Query(("0", "0"))
        why = explain(model, query)
        assert list(why.ets) == list(np.array([1.0, 0.5, 0.25, 1.0]) * model.density.dcf)
        p = predict(model, query)
        assert p.scores["A"] == pytest.approx(why.ets[0] + why.ets[3], rel=1e-15)
        assert p.scores["B"] == pytest.approx(why.ets[1] + why.ets[2], rel=1e-15)


class TestNearest:
    def test_exact_row_wins(self):
        model = fit(two_bit_table(THREE_ROWS), "nearest")
        assert predict(model, Query(("1", "1"))).winner == "B"

    def test_equidistant_unanimous(self):
        table = two_bit_table([(("0", "1"), "A"), (("1", "0"), "A"), (("1", "1"), "B")])
        p = predict(fit(table, "nearest"), Query(("0", "0")))
        assert p.winner == "A"
        assert p.tie_depth == 0

    def test_explain_names_every_champion_entry(self):
        # Entries 0 and 2 share one distinct row; both are reported.
        table = two_bit_table([(("0", "0"), "A"), (("1", "1"), "B"), (("0", "0"), "B")])
        model = fit(table, "nearest")
        why = explain(model, Query(("0", "0")))
        assert why.champion_rows == (0, 2)
        assert why.champion_distance == 0.0
        assert why.ets is None
        p = predict(model, Query(("0", "0")))
        assert (p.winner, p.tie_depth) == ("A", 1)

    def test_equidistant_majority(self):
        table = two_bit_table(
            [(("0", "1"), "B"), (("1", "0"), "B"), (("0", "1"), "A"), (("1", "1"), "A")]
        )
        p = predict(fit(table, "nearest"), Query(("0", "0")))
        assert p.winner == "B"


class TestFit:
    def test_rasturnat_wires_the_table_lead(self):
        rng = np.random.default_rng(0)
        while True:
            table, _ = random_categorical_instance(rng)
            if table.n_entries == 10:
                break
        model = fit(table, "rasturnat", "bridge")
        assert model.kernel.mld == 10.0

    def test_density_model_shape(self):
        table = two_bit_table(THREE_ROWS)
        model = fit(table, "rasturnat", "newton", density=True)
        assert len(model.density.tss) == 3
        assert len(model.density.dcf) == 3

    def test_kernel_rejected_off_rasturnat(self):
        table = two_bit_table(THREE_ROWS)
        with pytest.raises(PredictorError, match="rasturnat parameter"):
            fit(table, "delanga", "bridge")
        with pytest.raises(PredictorError, match="rasturnat parameter"):
            fit(table, "nearest", density=True)
        with pytest.raises(PredictorError, match="rasturnat parameter"):
            fit(table, "delanga", mld_override=5.0)

    def test_rasturnat_requires_kernel(self):
        with pytest.raises(PredictorError, match="kernel"):
            fit(two_bit_table(THREE_ROWS), "rasturnat")

    def test_unknown_predictor(self):
        with pytest.raises(PredictorError, match="unknown predictor"):
            fit(two_bit_table(THREE_ROWS), "centroid")

    def test_model_of_unknown_kind_rejected(self):
        with pytest.raises(PredictorError, match="unknown predictor"):
            FittedModel(two_bit_table(THREE_ROWS), "centroid")


class TestDensity:
    def test_uniform_table_dcf_exactly_one(self):
        table = two_bit_table([(("0", "0"), "A")] * 4)
        kernel = make_kernel("bridge", 4)
        density = compute_density_model(table, kernel)
        assert list(density.dcf) == [1.0, 1.0, 1.0, 1.0]

    def test_symmetric_pair_worked_example(self):
        table = two_bit_table([(("0", "0"), "A"), (("1", "1"), "B")])
        kernel = make_kernel("bridge", 2)
        density = compute_density_model(table, kernel)
        assert list(density.tss) == [1.25, 1.25]
        assert density.sts == 2.5
        assert density.stavg == 1.25
        assert list(density.dcf) == [1.0, 1.0]

    def test_isolated_row_compensated_up(self):
        schema = Schema(
            (AttributeSpec(f"a{j}", "categorical") for j in range(4)),
            ("A", "B"),
        )
        rows = [("0",) * 4, ("0",) * 4, ("1",) * 4]
        table = TrainingTable(schema, rows, [0, 0, 1])
        kernel = make_kernel("bridge", 3)
        density = compute_density_model(table, kernel)
        assert density.dcf[2] > 1.0 > density.dcf[0]
        assert density.dcf[0] == density.dcf[1]

    def test_table_without_attributes_puts_every_entry_at_distance_zero(self):
        table = TrainingTable(Schema((), ("A", "B")), [(), (), ()], [0, 1, 0])
        density = compute_density_model(table, make_kernel("bridge", 3))
        assert list(density.tss) == [3.0, 3.0, 3.0]
        assert list(density.dcf) == [1.0, 1.0, 1.0]

    def test_density_model_validates_positivity(self):
        with pytest.raises(PredictorError):
            DensityModel(
                tss=np.array([1.0, -0.5]),
                sts=0.5,
                stavg=0.25,
                dcf=np.array([0.25, -0.5]),
            )

    def test_density_changes_scores_not_validity(self):
        table = two_bit_table(THREE_ROWS + [(("0", "0"), "A")])
        plain = fit(table, "rasturnat", "newton")
        comp = fit(table, "rasturnat", "newton", density=True)
        q = Query(("0", "1"))
        a, b = predict(plain, q), predict(comp, q)
        assert a.scores != b.scores
        assert sum(b.likelihoods.values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_delanga_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    p = predict(fit(table, "delanga"), query)
    assert p.winner == brute_delanga(table, query)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distinct_distances_reduce_delanga_to_one_nn(seed):
    rng = np.random.default_rng(seed)
    table, query = random_continuous_instance(rng)
    d = predict(fit(table, "delanga"), query)
    n = predict(fit(table, "nearest"), query)
    assert d.winner == n.winner == brute_one_nn(table, query)
    assert d.tie_depth == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["pow_2", "bridge", "newton", "gauss"]))
@example(seed=417, kind="newton")
@example(seed=32649, kind="bridge")
@example(seed=1_130_630_434, kind="newton")
def test_prediction_invariants(seed, kind):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    p = predict(fit(table, "rasturnat", kind), query)
    assert sum(p.likelihoods.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(v >= 0.0 for v in p.scores.values())
    assert p.scores[p.winner] == max(p.scores.values())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_predictions_do_not_depend_on_row_order(seed):
    # Explicit category lists fix the codes, so both tables hold the same
    # distinct rows; every score must then agree bit for bit.
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    attrs = tuple(replace(a, categories=("0", "1", "2")) for a in table.schema.attributes)
    schema = Schema(attrs, table.schema.outcome_labels)
    orders = (range(table.n_entries), rng.permutation(table.n_entries))
    tables = [
        TrainingTable(schema, [table.values[i] for i in rows], [table.outcomes[i] for i in rows])
        for rows in orders
    ]
    arms = [("delanga", None), ("nearest", None)]
    arms += [("rasturnat", k) for k in ("pow_2", "bridge", "newton", "gauss", "decay_b")]
    for predictor, kernel in arms:
        a, b = (predict(fit(t, predictor, kernel), query) for t in tables)
        assert (a.winner, a.tie_depth) == (b.winner, b.tie_depth)
        assert a.scores == b.scores
        assert a.likelihoods == b.likelihoods


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-6, 1e6))
def test_scaling_leaves_predictions_unchanged(seed, factor):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    base = fit(table, "rasturnat", "pow_2")
    scaled = FittedModel(table, "rasturnat", kernel=ScaledKernel(base.kernel, factor))
    a, b = predict(base, query), predict(scaled, query)
    assert a.winner == b.winner
    for label in a.likelihoods:
        assert a.likelihoods[label] == pytest.approx(b.likelihoods[label], rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bridge_agrees_with_delanga(seed):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    bridge = predict(fit(table, "rasturnat", "bridge"), query)
    delanga = predict(fit(table, "delanga"), query)
    assert bridge.winner == delanga.winner


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_perfect_match_dominance(seed, extra):
    # With a certified kernel, outcome k holding strictly more exact matches
    # than any rival wins no matter what the rest of the table says.
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    labels = table.schema.outcome_labels
    k = int(rng.integers(len(labels)))
    rival = int(rng.integers(len(labels)))
    rows = list(table.values) + [query.values] * extra
    outcomes = list(table.outcomes) + [k] * extra
    if rival != k:
        rows += [query.values] * (extra - 1)
        outcomes += [rival] * (extra - 1)
    # Drop pre-existing exact matches so the implanted counts decide.
    keep = [i for i, r in enumerate(rows[: table.n_entries]) if r != query.values]
    rows = [rows[i] for i in keep] + rows[table.n_entries:]
    outcomes = [outcomes[i] for i in keep] + outcomes[table.n_entries:]
    stacked = TrainingTable(table.schema, rows, outcomes)
    model = fit(stacked, "rasturnat", "bridge")
    from fieldpred import certify_lead

    assert certify_lead(model.kernel, stacked.n_entries).certified
    assert predict(model, query).winner == labels[k]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_predictions_are_deterministic(seed):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    model = fit(table, "rasturnat", "adj_pow_2" if table.n_entries > 1 else "pow_2")
    a, b = predict(model, query), predict(model, query)
    assert a.scores == b.scores
    assert a.likelihoods == b.likelihoods
    assert (a.winner, a.tie_depth) == (b.winner, b.tie_depth)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_density_aggregate_identity(seed):
    import math

    rng = np.random.default_rng(seed)
    table, _ = random_categorical_instance(rng)
    kernel = make_kernel("newton", table.n_entries)
    density = compute_density_model(table, kernel)
    recovered = math.fsum(d * t for d, t in zip(density.dcf, density.tss))
    assert recovered == pytest.approx(density.sts, rel=1e-9)
    assert density.stavg == density.sts / table.n_entries


def random_repeated_table(rng: np.random.Generator, n_distinct: int) -> TrainingTable:
    """Up to ``n_distinct`` mixed rows, each entered one to three times, under
    random weights (zero among them)."""
    kinds = [str(rng.choice(["categorical", "continuous"])) for _ in range(int(rng.integers(1, 6)))]
    weights = [float(rng.choice([0.0, 0.25, 1.0, 2.5, 7.0])) for _ in kinds]
    weights[0] = weights[0] or 1.0
    schema = Schema(tuple(AttributeSpec(f"x{j}", kind, weight=w) for j, (kind, w) in enumerate(zip(kinds, weights))),
                    ("A", "B", "C"))
    distinct = list(dict.fromkeys(
        tuple(str(rng.integers(0, 6)) if kind == "categorical" else round(float(rng.uniform(-3, 3)), 3)
              for kind in kinds)
        for _ in range(n_distinct)
    ))
    rows = [row for row in distinct for _ in range(int(rng.integers(1, 4)))]
    rows = [rows[i] for i in rng.permutation(len(rows))] + [distinct[0]]
    return TrainingTable(schema, rows, [int(rng.integers(0, 3)) for _ in rows])


def assert_same_density(got: DensityModel, want: DensityModel) -> None:
    assert np.array_equal(got.tss, want.tss)
    assert np.array_equal(got.dcf, want.dcf)
    assert (got.sts, got.stavg) == (want.sts, want.stavg)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KERNEL_KINDS), st.integers(1, 300),
       st.sampled_from([1, 7, 1000, 1 << 16]))
def test_blocked_density_fit_equals_the_per_row_fit(seed, kind, n_distinct, block_cells):
    # 2^16 cells cross a block boundary from U = 257 on; the smaller
    # blocks cross them at every U above a handful.
    table = random_repeated_table(np.random.default_rng(seed), n_distinct)
    kernel = make_kernel(kind, table.n_entries)
    with mock.patch.object(predictors, "_DENSITY_BLOCK_CELLS", block_cells):
        got = compute_density_model(table, kernel)
    assert_same_density(got, reference_density_model(table, kernel))


def test_subnormal_terms_sum_exactly():
    # 27 unit-weight columns: rows that differ everywhere sit at d = 27,
    # where gauss is e^-729, a subnormal.
    schema = Schema(tuple(AttributeSpec(f"x{j}", "categorical") for j in range(27)), ("A", "B"))
    table = TrainingTable(schema, [("a",) * 27, ("b",) * 27, ("a",) * 27, ("c",) * 13 + ("a",) * 14],
                          [0, 1, 1, 0])
    kernel = make_kernel("gauss", table.n_entries)
    assert 0.0 < float(kernel.evaluate(27.0)) < np.finfo(np.float64).tiny
    assert_same_density(compute_density_model(table, kernel), reference_density_model(table, kernel))


def ladder_table(n_rows: int, twin_of_last: bool = False) -> TrainingTable:
    """``n_rows`` distinct rows (x = 0, 1, ..., n_rows - 1 and a categorical
    column), sorted by x. With ``twin_of_last`` a row that differs from the
    last only in the weightless column z sits at distance 0 from it."""
    schema = Schema((AttributeSpec("x", "continuous"), AttributeSpec("c", "categorical", weight=0.25),
                     AttributeSpec("z", "categorical", weight=0.0)), ("A", "B"))
    rows = [(float(i), "pqr"[i % 3], "s") for i in range(n_rows)]
    rows += [(float(n_rows - 1), "pqr"[(n_rows - 1) % 3], "t")] if twin_of_last else rows[:5]
    return TrainingTable(schema, rows, [i % 2 for i in range(len(rows))])


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_density_fit_over_many_blocks_with_a_short_last_block_equals_the_per_row_fit(kind):
    table = ladder_table(1000)
    n_rows = table._distinct_entry.size
    step = predictors._DENSITY_BLOCK_CELLS // n_rows
    assert n_rows // step > 10 and n_rows % step != 0
    kernel = make_kernel(kind, table.n_entries)
    assert_same_density(compute_density_model(table, kernel), reference_density_model(table, kernel))


def test_density_field_overflowing_in_a_later_block_is_an_input_error():
    # Only the last two distinct rows, which sit at distance 0 from each
    # other, carry fields of 1e308 + 1e308; every earlier block is finite.
    table = ladder_table(2000, twin_of_last=True)
    assert table._distinct_of[-2:].tolist() == [1999, 2000] and table._distinct_entry.size == 2001
    assert predictors._DENSITY_BLOCK_CELLS // 2001 < 1999  # the first block holds neither
    with pytest.raises(PredictorError, match="density field overflows"):
        compute_density_model(table, make_kernel("newton", table.n_entries, 1e308))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_row_sums_equal_fsum(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 300)))
    low, high = sorted(int(e) for e in rng.integers(-1080, 1001, 2))
    with np.errstate(under="ignore"):
        values = np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(low, high + 1, shape))
    values[rng.random(shape) < 0.1] = 0.0
    if rng.random() < 0.5:
        values *= rng.choice([-1.0, 1.0], shape)
    want = np.array([math.fsum(row) for row in values.tolist()])
    assert _exact_row_sums(values).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 255, 4095, 20000])
def test_exact_row_sums_hold_where_a_slot_group_is_fullest(n):
    # Every significand is 53 one bits. The first value sets the lowest
    # exponent; the low parts of the n - 1 others land in slot k of row k,
    # so some row fills the top slot of each group as far as the bound allows.
    largest = np.nextafter(1.0, 0.0)
    rows = [[math.ldexp(largest, -40)] + [math.ldexp(largest, k - 40)] * (n - 1) for k in range(1, 28)]
    assert _exact_row_sums(np.array(rows)).tolist() == [math.fsum(row) for row in rows]


@pytest.mark.parametrize("seed", range(20))
def test_exact_row_sums_of_subnormals_equal_fsum(seed):
    rng = np.random.default_rng(seed)
    shape = (4, int(rng.integers(1, 400)))
    with np.errstate(under="ignore"):
        values = np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1090, -1000, shape))
    values *= rng.choice([-1.0, 1.0], shape)
    assert (np.abs(values) < np.finfo(np.float64).tiny).any()
    want = np.array([math.fsum(row) for row in values.tolist()])
    assert _exact_row_sums(values).tobytes() == want.tobytes()


@pytest.mark.parametrize("row, error", [
    ([1e308, 1e308], OverflowError),
    ([np.inf, -np.inf], ValueError),
])
def test_exact_row_sums_raise_as_fsum_does(row, error):
    with pytest.raises(error):
        math.fsum(row)
    with pytest.raises(error):
        _exact_row_sums(np.array([[0.5, 0.25], row]))


def test_exact_row_sums_take_fsum_where_only_their_partials_overflow():
    row = [1.1658195108816256e+308, -1.9410982631069622e+307, -8.128582505962357e+307, -8.862254102825434e+307]
    assert _exact_row_sums(np.array([row]))[0] == math.fsum(row) == -7.273739763078497e+307


def test_exact_row_sums_pass_non_finite_values_through():
    values = np.array([[1.0, np.inf], [np.nan, 2.0], [-np.inf, 3.0]])
    want = [math.fsum(row) for row in values.tolist()]
    assert np.array_equal(_exact_row_sums(values), want, equal_nan=True)


class TestModelFiles:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(42)
        table, query = random_categorical_instance(rng)
        model = fit(table, "rasturnat", "adj_pow_2", density=True)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        a, b = predict(model, query), predict(loaded, query)
        assert a.scores == b.scores
        assert a.winner == b.winner
        assert np.array_equal(loaded.density.dcf, model.density.dcf)
        assert loaded.kernel.adrez == model.kernel.adrez

    def test_round_trip_spliced_kernel_descriptor(self, tmp_path):
        table = two_bit_table(THREE_ROWS)
        model = fit(table, "rasturnat", "spliced")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kernel.kind == "spliced"
        assert loaded.kernel.base.kind == "pow_2"
        assert loaded.kernel.mld == model.kernel.mld

    def test_delanga_model_has_no_kernel(self, tmp_path):
        model = fit(two_bit_table(THREE_ROWS), "delanga")
        payload = model_to_dict(model)
        assert payload["kernel"] is None
        restored = model_from_dict(payload)
        assert restored.kernel is None
        assert restored.predictor_kind == "delanga"

    def test_version_gate(self):
        payload = model_to_dict(fit(two_bit_table(THREE_ROWS), "delanga"))
        payload["version"] = 99
        with pytest.raises(PredictorError, match="version"):
            model_from_dict(payload)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(PredictorError, match="invalid model file"):
            load_model(path)

    @staticmethod
    def assert_predicts_like_a_fresh_fit(loaded, *args, density=True):
        """Entries in CSV order, votes and predictions bit for bit, against
        ``fit(mixed_train.csv, *args)`` (by default bridge with density)."""
        fresh = fit(load_table(DATA / "mixed_train.csv"), *(args or ("rasturnat", "bridge")), density=density)
        assert loaded.table.values == fresh.table.values
        assert loaded.table.outcomes == fresh.table.outcomes
        assert loaded.table.schema == fresh.table.schema
        assert loaded.votes.tobytes() == fresh.votes.tobytes()
        for color in ("red", "blue", "green", "violet"):
            for size in (0.75, 1.5, 2.2, 4.25, 9.0):
                for shape in ("round", "square"):
                    query = Query((color, size, shape))
                    assert prediction_bits(predict(fresh, query)) == prediction_bits(predict(loaded, query))
        return fresh

    def test_version_1_file_predicts_like_a_fresh_fit(self):
        # Written by the version 1 writer from mixed_train.csv with
        # `fit --predictor rasturnat --kernel bridge --density`.
        assert json.loads((DATA / "model_v1_mixed_density.json").read_text())["version"] == 1
        self.assert_predicts_like_a_fresh_fit(load_model(DATA / "model_v1_mixed_density.json"))

    def test_version_2_trace_key_is_ignored(self):
        # Written from mixed_train.csv by a version 2 writer that still had
        # `fit --trace`: `--predictor rasturnat --kernel bridge --density --trace`.
        payload = json.loads((DATA / "model_v2_trace.json").read_text())
        assert (payload["version"], payload["trace"]) == (2, True)
        loaded = load_model(DATA / "model_v2_trace.json")
        self.assert_predicts_like_a_fresh_fit(loaded)
        assert "trace" not in model_to_dict(loaded)

    @pytest.mark.parametrize("args", [("delanga",), ("nearest",), ("rasturnat", "bridge")], ids=lambda a: a[0])
    def test_version_2_file_of_each_predictor_loads_to_the_same_bits(self, args):
        # Written by the version 2 writer from mixed_train.csv with
        # `fit --predictor P` (and `--kernel bridge` for rasturnat).
        path = DATA / f"model_v2_{args[0]}.json"
        assert json.loads(path.read_text())["version"] == 2
        loaded = load_model(path)
        fresh = self.assert_predicts_like_a_fresh_fit(loaded, *args, density=False)
        assert model_to_dict(loaded) == model_to_dict(fresh)

    @staticmethod
    def add_spare_row(payload):
        """A spare row ahead of the others, holding the extremes of each column."""
        for column in payload["columns"]:
            cells = column.get("values", column.get("codes"))
            cells.insert(0, max(cells) + 100 if "values" in column else len(column["categories"]) - 1)
        payload["n_rows"] += 1

    def test_version_2_rows_no_entry_holds_are_dropped(self):
        model = fit(load_table(DATA / "mixed_train.csv"), "rasturnat", "bridge", density=True)
        payload = model_to_dict(model)
        payload["version"] = 2
        self.add_spare_row(payload)
        payload["entry_row"] = [u + 1 for u in payload["entry_row"]]
        loaded = model_from_dict(payload)
        assert loaded.table._distinct_entry.size == model.table._distinct_entry.size
        self.assert_predicts_like_a_fresh_fit(loaded)

    def test_rows_with_no_counts_are_dropped(self):
        model = fit(load_table(DATA / "mixed_train.csv"), "delanga")
        payload = model_to_dict(model)
        self.add_spare_row(payload)
        for row in payload["counts"]:
            row.insert(0, 0)
        assert model_to_dict(model_from_dict(payload)) == model_to_dict(model)

    def test_writes_version_3_without_indentation(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(fit(load_table(DATA / "mixed_train.csv"), "delanga"), path)
        text = path.read_text()
        assert json.loads(text)["version"] == 3
        assert text.count("\n") == 1


def prediction_bits(p) -> tuple:
    """A prediction with every float as its hex form, so that equal means bit for bit."""
    return ([(k, v.hex()) for k, v in p.scores.items()], [(k, v.hex()) for k, v in p.likelihoods.items()],
            p.winner, p.tie_depth)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["delanga", "nearest", "rasturnat"]),
       st.sampled_from(["bridge", "newton", "pow_2", "adj_pow_2", "spliced"]), st.booleans())
def test_round_trip_matches_the_fitted_model(seed, predictor, kernel, density):
    rng = np.random.default_rng(seed)
    table, queries = random_mixed_instance(rng)
    if predictor == "rasturnat":
        model = fit(table, predictor, kernel, density=density)
    else:
        model = fit(table, predictor)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        text = path.read_text()
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_text() == text
        reloaded = load_model(path)
    # A density keeps the entry order; otherwise the entries come back in
    # canonical order: distinct row, then label.
    order = np.lexsort((table._outcomes, table._distinct_of))
    if model.density is not None:
        order = np.arange(table.n_entries)
    for got in (loaded, reloaded):
        assert got.table.values == tuple(table.values[i] for i in order)
        assert got.table.outcomes == tuple(table.outcomes[i] for i in order)
        assert got.table.schema == table.schema
        assert got.votes.tobytes() == model.votes.tobytes()
    if model.density is None:
        assert loaded.density is None
    else:
        for name in ("tss", "dcf"):
            assert getattr(loaded.density, name).tobytes() == getattr(model.density, name).tobytes()
        assert (loaded.density.sts, loaded.density.stavg) == (model.density.sts, model.density.stavg)
    for query in queries:
        assert prediction_bits(predict(model, query)) == prediction_bits(predict(loaded, query))


LABEL_MODELS = {k: FittedModel(TrainingTable(Schema((AttributeSpec("a", "categorical"),), tuple("ABCDEFGHIJKL"[:k])),
                                             [("p",)], [0]), "delanga") for k in range(1, 13)}


@st.composite
def fields(draw):
    """K from 1 to 12 label scores around one base: exact ties, near-ties
    inside and just outside the band, zeros, subnormals and huge values,
    with now and then a NaN or an infinity."""
    k = draw(st.integers(1, 12))
    base = draw(st.sampled_from([1.0, 0.3, 7.0, 5e-324, 2.5e-310, 1e300, 1.7e308]) | st.floats(0.0, 1e308))
    near = [base, base * (1.0 - 1e-13), base * (1.0 - 9e-13), base * (1.0 - 2e-12), math.nextafter(base, 0.0)]
    value = st.sampled_from(near + [0.0, 5e-324]) | st.floats(0.0, 1e308) | st.integers(0, 40).map(float)
    values = draw(st.lists(value, min_size=k, max_size=k))
    if draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, k - 1))] = draw(st.sampled_from([math.inf, math.nan]))
    return np.array(values, dtype=np.float64)


@settings(max_examples=600, deadline=None)
@given(fields(), st.sampled_from([predictors.REL_TIE_TOL, 0.0]))
def test_the_python_float_pass_equals_the_numpy_reduction(tos, tol):
    # The same winner, tie flag and bits, or the same error from the same step.
    model = LABEL_MODELS[tos.size]
    labels = model.table.schema.outcome_labels
    with np.errstate(over="ignore", invalid="ignore"):  # numpy's total of 0 or past the float maximum
        try:
            winner, tie = reference_winner(tos, tol)
            want = prediction_bits(reference_prediction(labels, tos, labels[winner], tie))
        except PredictorError as exc:
            want = str(exc)
        try:
            values, total, tied = predictors._band(tos, tol)
            got = prediction_bits(predictors._prediction(model, values, total, labels[tied[0]], int(len(tied) > 1)))
        except PredictorError as exc:
            got = str(exc)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["delanga", "nearest", "bridge", "gauss", "newton", "decay_b"]),
       st.booleans())
def test_predict_equals_the_numpy_reduction_bit_for_bit(seed, arm, categorical):
    # Small categorical tables tie often, by counts and within the band.
    rng = np.random.default_rng(seed)
    if categorical:
        table, query = random_categorical_instance(rng)
        queries = [query]
    else:
        table, queries = random_mixed_instance(rng)
    model = fit(table, arm) if arm in predictors.PREDICTOR_KINDS else fit(table, "rasturnat", arm)
    for query in queries:
        assert prediction_bits(predict(model, query)) == prediction_bits(reference_predict(model, query))


def test_an_underflowed_field_gives_nan_likelihoods_and_the_first_label():
    # gauss at d = 30 is exp(-900) = 0.0, so every vote underflows (ROADMAP
    # item 1): the total is 0, and the likelihoods are NaN as numpy's 0 / 0
    # makes them, with neither a ZeroDivisionError nor a RuntimeWarning.
    schema = Schema(tuple(AttributeSpec(f"x{j}", "categorical") for j in range(30)), ("A", "B"))
    model = fit(TrainingTable(schema, [("p",) * 30, ("p",) * 30], [1, 0]), "rasturnat", "gauss")
    query = Query(("q",) * 30)
    p = predict(model, query)
    with np.errstate(invalid="ignore"):
        assert prediction_bits(p) == prediction_bits(reference_predict(model, query))
    assert p.scores == {"A": 0.0, "B": 0.0} and all(math.isnan(v) for v in p.likelihoods.values())
    assert (p.winner, p.tie_depth) == ("A", 1)


@dataclass(frozen=True)
class ConstantKernel:
    value: float

    def evaluate(self, d):
        return np.full(np.shape(d), self.value)


@pytest.mark.parametrize("value, outcomes, message", [(math.nan, "AB", "outcome score overflows to nan"),
                                                      (math.inf, "AB", "outcome score overflows to inf"),
                                                      (1e308, "AB", "outcome scores sum to inf"),
                                                      (8e307, "AAB", "outcome scores sum to inf")])
def test_fields_that_are_not_finite_raise_as_before(value, outcomes, message):
    # The entries share one row, so each field is the kernel's value times
    # the label's count: 1e308 twice is a band tie whose total overflows, and
    # 1.6e308 leads 8e307 alone, yet their total overflows too.
    model = FittedModel(two_bit_table([(("0", "0"), label) for label in outcomes]), "rasturnat",
                        kernel=ConstantKernel(value))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PredictorError, match=message):
        predict(model, Query(("0", "1")))
