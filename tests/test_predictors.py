import base64
import json
import math
import tempfile
import tracemalloc
import warnings
import zlib
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
from fieldpred.cli import main
from fieldpred.predictors import model_from_dict, model_to_dict
from fieldpred.similarity import match_encoded, match_vectors

from .util import (
    ScaledKernel,
    as_version_4,
    brute_delanga,
    brute_one_nn,
    random_categorical_instance,
    random_continuous_instance,
    random_mixed_instance,
    reference_density_model,
    reference_level_table,
    reference_predict,
    reference_prediction,
    reference_winner,
    unpacked,
    wide_categorical_table,
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

    @pytest.mark.parametrize("counts", [[[1, 1], [1]], [], [[0, 1, 1]], [[1], [1]], [[]], "ab", [["a", "a"]]],
                             ids=repr)
    def test_refuses_a_table_that_is_not_levels_by_labels(self, counts):
        # Ragged, empty, or not one column per label: [[0, 1, 1]] used to give ('B', 0).
        with pytest.raises(PredictorError, match="level_counts must be a non-empty table of numbers with 2 columns"):
            backtrack_tie_break(counts, ("A", "B"))


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

    def test_trace_exposes_the_level_table(self):
        model = fit(two_bit_table(THREE_ROWS), "rasturnat", "pow_2")
        why = explain(model, Query(("0", "0")))
        assert why.levels.tolist() == [0.0, 1.0, 2.0]
        assert why.votes.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        assert why.kernel_values.tolist() == [1.0, 0.5, 0.25]
        assert (why.champion_rows, why.champion_distance) == ((0,), 0.0)

    def test_explain_sums_dcf_votes_per_level_with_density(self):
        # Entries 0 and 3 share the row at d = 0; its A votes add their dcf in entry order.
        table = two_bit_table(THREE_ROWS + [(("0", "0"), "A")])
        model = fit(table, "rasturnat", "pow_2", density=True)
        query = Query(("0", "0"))
        why = explain(model, query)
        dcf = model.density.dcf
        assert why.votes.tolist() == [[dcf[0] + dcf[3], 0.0], [0.0, dcf[1]], [0.0, dcf[2]]]
        assert why.champion_rows == (0, 3)
        p = predict(model, query)
        fields = (why.kernel_values[:, None] * why.votes).sum(axis=0)
        assert [p.scores["A"], p.scores["B"]] == pytest.approx(fields.tolist(), rel=1e-15)


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
        assert why.votes.tolist() == [[1.0, 1.0], [0.0, 1.0]] and why.kernel_values is None
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


#: How far, relatively, the strip fit may stray from the per-row ``math.fsum``
#: fit of ``reference_density_model``. A row's tss is one numpy pairwise row
#: sum plus at most one column piece per earlier strip, each piece a dot
#: product of at most 127 terms, the pieces added in strip order. With positive
#: terms the relative error is at most about h * 2^-53, h the longest chain of
#: roundings any term passes through. At U = 20,000 the fit takes 14,185 strips
#: of at most 82 rows before the last, so h is about 14,270 and the worst case,
#: every rounding the same way, about 1.6e-12. Measured on the mixed benchmark
#: law (bridge, newton and gauss): at most 6.0e-15 at U = 20,000 and 2.4e-15 at
#: U = 10,000. The tables here have at most 1,005 distinct rows and 1,005
#: strips, a worst case of about 1.2e-13, so this leaves a margin of eightfold.
DENSITY_REL_TOL = 1e-12


def assert_close_density(got: DensityModel, want: DensityModel) -> None:
    for a, b in ((got.tss, want.tss), (got.dcf, want.dcf), (got.sts, want.sts), (got.stavg, want.stavg)):
        np.testing.assert_allclose(a, b, rtol=DENSITY_REL_TOL, atol=0)


def fit_at_every_block_size(table: TrainingTable, kernel) -> None:
    """The density fit with strips of 1, 7, 1000 and 2^16 cells: each within
    DENSITY_REL_TOL of the per-row fsum fit, and each the same bits when fit twice."""
    want = reference_density_model(table, kernel)
    for block_cells in (1, 7, 1000, 1 << 16):
        with mock.patch.object(predictors, "_DENSITY_BLOCK_CELLS", block_cells):
            got = compute_density_model(table, kernel)
            assert_same_density(compute_density_model(table, kernel), got)
        assert_close_density(got, want)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KERNEL_KINDS), st.integers(1, 300))
def test_blocked_density_fit_equals_the_per_row_fit(seed, kind, n_distinct):
    # 2^16 cells take more than one strip from U = 257 on; the smaller
    # strips take several at every U above a handful.
    table = random_repeated_table(np.random.default_rng(seed), n_distinct)
    fit_at_every_block_size(table, make_kernel(kind, table.n_entries))


def one_block_density(table: TrainingTable, kernel) -> np.ndarray:
    """Each entry's tss as one block of every distinct row against all U:
    the kernel values times the multiplicities, summed along each row."""
    n_rows = table._distinct_entry.size
    _, dm = match_encoded([column[:, None] for column in table._col_data], table)
    row_tss = (kernel.evaluate(dm) * table._label_counts.sum(axis=1)).reshape(-1, n_rows).sum(axis=1)
    return row_tss[table._distinct_of]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KERNEL_KINDS), st.integers(1, 128))
def test_a_table_of_at_most_128_rows_is_fit_in_one_block(seed, kind, n_distinct):
    # One strip of 2^14 cells holds every pair of up to 128 rows, so the fit
    # is the plain row sums, bit for bit, as the cat-1e5 and converge density
    # tables (at most 27 distinct rows) are written.
    table = random_repeated_table(np.random.default_rng(seed), n_distinct)
    kernel = make_kernel(kind, table.n_entries)
    assert compute_density_model(table, kernel).tss.tobytes() == one_block_density(table, kernel).tobytes()


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_the_widest_one_block_table_keeps_the_plain_row_sums(kind):
    tables = [ladder_table(128), TrainingTable(Schema((), ("A", "B")), [(), (), ()], [0, 1, 0])]
    assert [table._distinct_entry.size for table in tables] == [128, 1]
    for table in tables:
        kernel = make_kernel(kind, table.n_entries)
        assert compute_density_model(table, kernel).tss.tobytes() == one_block_density(table, kernel).tobytes()


@pytest.mark.parametrize("n_values", [7, 129, 8191, 8193, 20000])
@pytest.mark.parametrize("n_rows", [1, 2, 7])
def test_numpy_sums_each_row_of_a_block_as_it_sums_the_row_alone(n_rows, n_values):
    # A strip's row sums are the plain row sums over the rest of the table,
    # whatever rows share the strip, only because of this; 8,192 is the size
    # of numpy's reduction buffer.
    rng = np.random.default_rng([n_rows, n_values])
    block = np.ldexp(rng.random((n_rows, n_values)), rng.integers(-60, 60, (n_rows, n_values)))
    sums = block.sum(axis=1)
    assert [s.tobytes() for s in sums] == [row.sum().tobytes() for row in block]


def test_density_fit_does_not_depend_on_the_row_order():
    # Explicit categories fix the codes, so both orders share one canonical order of distinct rows.
    rng = np.random.default_rng(2103)
    schema = Schema((AttributeSpec("c", "categorical", categories=tuple("pqrst")),
                     AttributeSpec("x", "continuous", weight=0.5),
                     AttributeSpec("k", "categorical", weight=2.0, categories=("u", "v"))), ("A", "B"))
    distinct = [(str(rng.choice(list("pqrst"))), float(rng.uniform(-5, 5)), str(rng.choice(["u", "v"])))
                for _ in range(600)]
    rows = distinct + distinct[:200]
    outcomes = rng.integers(0, 2, len(rows)).tolist()
    order = rng.permutation(len(rows))
    shuffled = TrainingTable(schema, [rows[i] for i in order], [outcomes[i] for i in order])
    table = TrainingTable(schema, rows, outcomes)
    for kind in ("bridge", "newton", "gauss"):
        kernel = make_kernel(kind, table.n_entries)
        want, got = compute_density_model(table, kernel), compute_density_model(shuffled, kernel)
        assert got.tss.tobytes() == want.tss[order].tobytes()
        assert got.dcf.tobytes() == want.dcf[order].tobytes()
        assert got.sts == want.sts


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
    fit_at_every_block_size(table, make_kernel(kind, table.n_entries))


def test_density_field_overflowing_in_a_later_block_is_an_input_error():
    # Only the last two distinct rows, which sit at distance 0 from each
    # other, carry fields of 1e308 + 1e308; every earlier strip is finite.
    table = ladder_table(2000, twin_of_last=True)
    assert table._distinct_of[-2:].tolist() == [1999, 2000] and table._distinct_entry.size == 2001
    assert predictors._DENSITY_BLOCK_CELLS // 2001 < 1999  # the first strip holds neither
    with pytest.raises(PredictorError, match="density field overflows"):
        compute_density_model(table, make_kernel("newton", table.n_entries, 1e308))


def test_finite_row_fields_whose_total_overflows_are_an_input_error():
    # Each row's field is 1e308 + 1 (d = 1 between the two rows), but the two sum past the float maximum.
    schema = Schema((AttributeSpec("x", "continuous"),), ("A", "B"))
    table = TrainingTable(schema, [(0.0,), (1000.0,)], [0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PredictorError, match="density field overflows"):
            compute_density_model(table, make_kernel("newton", table.n_entries, 1e308))


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

    def test_a_200_category_table_round_trips_through_a_model_file(self, tmp_path):
        # Its codes are int16 in memory; the file packs them as |u1, as it packed float codes.
        table = wide_categorical_table(200)
        for model in (fit(table, "delanga"), fit(table, "rasturnat", "bridge", density=True)):
            path = tmp_path / "model.json"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.table._col_data[0].dtype == np.int16
            assert json.loads(path.read_text())["columns"][0]["codes"]["dtype"] == "|u1"
            for cell in ("v0", "v137", "v199", "unseen"):
                for x in (0.0, 3.5):
                    query = Query((cell, x))
                    assert prediction_bits(predict(loaded, query)) == prediction_bits(predict(model, query))

    def test_codes_pack_to_the_bytes_of_the_version_4_fixtures(self):
        # The fixtures were written while category codes were held as floats.
        for name in ("counts", "density"):
            payload = json.loads((DATA / f"model_v4_{name}.json").read_text())
            saved = model_to_dict(load_model(DATA / f"model_v4_{name}.json"))
            assert [column.get("codes") for column in saved["columns"]] == [
                column.get("codes") for column in payload["columns"]]

    def test_a_continuous_column_listed_as_numbers_is_refused(self, tmp_path, capsys):
        # Only the density's tss and dcf may be JSON lists; no writer lists a column's values.
        payload = model_to_dict(fit(load_table(DATA / "mixed_train.csv"), "rasturnat", "bridge", density=True))
        payload["columns"][1]["values"] = unpacked(payload["columns"][1]["values"]).tolist()
        with pytest.raises(PredictorError, match="'size' values must be a packed array"):
            model_from_dict(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(path), "--query", "red,1.5,round"]) == 1
        assert capsys.readouterr().err.startswith("error: model file: column 'size' values must be a packed array")

    def test_delanga_model_has_no_kernel(self, tmp_path):
        model = fit(two_bit_table(THREE_ROWS), "delanga")
        payload = model_to_dict(model)
        assert payload["kernel"] is None
        restored = model_from_dict(payload)
        assert restored.kernel is None
        assert restored.predictor_kind == "delanga"

    @pytest.mark.parametrize("version, message", [
        *(pytest.param(version, f"model file version {version} is no longer read: run fit again", id=str(version))
          for version in (1, 2, 3)),
        *(pytest.param(version, "unsupported model file version", id=repr(version))
          for version in (0, 6, 99, 3.0, 4.0, True, "5", None)),
    ])
    def test_version_gate(self, version, message, tmp_path, capsys):
        payload = model_to_dict(fit(two_bit_table(THREE_ROWS), "delanga"))
        payload["version"] = version
        with pytest.raises(PredictorError, match=message):
            model_from_dict(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(path), "--query", "0,1"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(PredictorError, match="invalid model file"):
            load_model(path)

    @staticmethod
    def assert_predicts_like_a_fresh_fit(loaded, *args, density=True, canonical=False):
        """Entries in CSV order (or in canonical order, distinct row then label,
        for a file of ``counts``), votes and predictions bit for bit, against
        ``fit(mixed_train.csv, *args)`` (by default bridge with density). A
        fresh density is only within DENSITY_REL_TOL of the file's, so the
        bits are compared with a fresh model that takes the file's density."""
        fresh = fit(load_table(DATA / "mixed_train.csv"), *(args or ("rasturnat", "bridge")), density=density)
        if density:
            assert_close_density(loaded.density, fresh.density)
            fresh = FittedModel(fresh.table, "rasturnat", kernel=fresh.kernel, density=loaded.density)
        table = fresh.table
        order = np.lexsort((table._outcomes, table._distinct_of)) if canonical else range(table.n_entries)
        assert loaded.table.values == tuple(table.values[i] for i in order)
        assert loaded.table.outcomes == tuple(table.outcomes[i] for i in order)
        assert loaded.table.schema == fresh.table.schema
        assert loaded.votes.tobytes() == fresh.votes.tobytes()
        for color in ("red", "blue", "green", "violet"):
            for size in (0.75, 1.5, 2.2, 4.25, 9.0):
                for shape in ("round", "square"):
                    query = Query((color, size, shape))
                    assert prediction_bits(predict(fresh, query)) == prediction_bits(predict(loaded, query))
        return fresh

    @pytest.mark.parametrize("args", [("delanga",), ("nearest",), ("rasturnat", "bridge")], ids=lambda a: a[0])
    def test_file_of_each_predictor_loads_to_the_same_bits(self, args, tmp_path):
        # Written from mixed_train.csv by `fit --predictor P` (and `--kernel bridge` for rasturnat).
        path = tmp_path / "model.json"
        argv = ["fit", "--train", str(DATA / "mixed_train.csv"), "--predictor", args[0], "--out", str(path)]
        assert main(argv + ["--kernel", *args[1:]] * (len(args) > 1)) == 0
        loaded = load_model(path)
        fresh = self.assert_predicts_like_a_fresh_fit(loaded, *args, density=False, canonical=True)
        assert model_to_dict(loaded) == model_to_dict(fresh)

    @pytest.mark.parametrize("name, density", [("counts", False), ("density", True)])
    def test_version_4_file_predicts_like_a_fresh_fit(self, name, density):
        # Written by the version 4 writer from mixed_train.csv with
        # `fit --predictor rasturnat --kernel bridge` (and `--density`).
        payload = json.loads((DATA / f"model_v4_{name}.json").read_text())
        assert payload["version"] == 4
        loaded = load_model(DATA / f"model_v4_{name}.json")
        fresh = self.assert_predicts_like_a_fresh_fit(loaded, "rasturnat", "bridge", density=density,
                                                      canonical=not density)
        # Saved again it is version 5, with the sizes scaled, and decodes to the file's arrays bit for bit.
        saved = model_to_dict(loaded)
        assert saved == model_to_dict(fresh)
        assert (saved["version"], saved["columns"][1]["values"]["scale"]) == (5, 2)
        for document in (saved, payload):
            document.pop("version")
            for column in document["columns"]:
                key = "values" if "values" in column else "codes"
                column[key] = unpacked(column[key]).astype(np.float64).tobytes()
            for key in {"counts", "entry_row", "outcomes"} & document.keys():
                document[key] = unpacked(document[key]).tobytes()
        assert saved == payload

    def test_a_density_whose_tss_differs_within_one_row_is_refused(self, tmp_path):
        # Entries 0 and 5 of mixed_train.csv hold one row (red, 1.5, round). sts, stavg and
        # dcf are the fit's own expressions of the changed tss, so only the row check refuses it.
        payload = model_to_dict(fit(load_table(DATA / "mixed_train.csv"), "rasturnat", "bridge", density=True))
        density, m = payload["density"], payload["n_entries"]
        tss = np.array(density["tss"])
        assert tss[0] == tss[5]
        tss[5] = np.nextafter(tss[5], np.inf)
        sts = math.fsum(tss.tolist())
        density.update(tss=tss.tolist(), sts=sts, stavg=sts / m, dcf=(sts / (m * tss)).tolist())
        with pytest.raises(PredictorError, match="tss differs between entries of one distinct row"):
            model_from_dict(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(path), "--query", "red,1.5,round"]) == 1

    @pytest.mark.parametrize("density", [False, True], ids=["counts", "entry_row"])
    def test_a_row_no_entry_holds_is_refused(self, density, tmp_path):
        # Distinct row 0 of mixed_train.csv loses its entries: its counts are dropped, or its entries move to row 1.
        payload = model_to_dict(fit(load_table(DATA / "mixed_train.csv"), "rasturnat", "bridge", density=density))
        if density:
            payload["entry_row"] = predictors._packed(np.maximum(unpacked(payload["entry_row"]), 1))
        else:
            counts = unpacked(payload["counts"]).reshape(len(payload["schema"]["outcome_labels"]), -1).copy()
            payload["n_entries"] -= int(counts[:, 0].sum())
            counts[:, 0] = 0
            payload["counts"] = predictors._packed(counts)
        with pytest.raises(PredictorError, match="every distinct row must hold an entry"):
            model_from_dict(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        assert main(["predict", "--model", str(path), "--query", "red,1.5,round"]) == 1

    def test_writes_version_5_without_indentation(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(fit(load_table(DATA / "mixed_train.csv"), "delanga"), path)
        text = path.read_text()
        payload = json.loads(text)
        assert payload["version"] == 5
        assert text.count("\n") == 1
        # The sizes 0.75 to 4.25 are hundredths from 75 to 425.
        assert [column.get("codes", column.get("values"))["dtype"] for column in payload["columns"]] == [
            "|u1", "<i2", "|u1"]
        assert payload["columns"][1]["values"]["scale"] == 2
        assert payload["counts"]["dtype"] == "|u1"

    def test_packs_integers_in_the_smallest_unsigned_dtype(self):
        # 257 categories need two bytes per code; 70,000 copies of one row four bytes per count.
        schema = Schema((AttributeSpec("a", "categorical", categories=tuple(map(str, range(257)))),), ("A", "B"))
        table = TrainingTable(schema, [("0",)] * 70_000 + [("256",)], [0] * 70_001)
        for density, dtypes in ((False, ["<u2", "<u4"]), (True, ["<u2", "|u1", "|u1"])):
            payload = model_to_dict(fit(table, "rasturnat", "bridge", density=density))
            arrays = [payload["columns"][0]["codes"]] + [payload[key] for key in ("counts", "entry_row", "outcomes")
                                                          if key in payload]
            assert [array["dtype"] for array in arrays] == dtypes
            assert model_to_dict(model_from_dict(payload)) == payload

    @pytest.mark.parametrize("n_rows, zeros", [(7, 2**26), (2**40, 2**12), (2**40, 2**26)])
    def test_a_packed_stream_inflates_no_further_than_its_shape(self, n_rows, zeros):
        # 64 MiB of zeros in about 64 KB of zlib: codes for 7 rows stop after 7 bytes.
        # A claim of 2^40 rows is more than any stream of that size inflates to, so it
        # is refused before anything is inflated, or anything of that length exists.
        payload = model_to_dict(fit(load_table(DATA / "mixed_train.csv"), "rasturnat", "bridge", density=True))
        payload["n_rows"] = n_rows
        stream = base64.b64encode(zlib.compress(bytes(zeros))).decode()
        payload["columns"][0]["codes"] = {"dtype": "|u1", "zlib": stream}
        tracemalloc.start()
        try:
            with pytest.raises(PredictorError, match=f"one zlib stream of {n_rows} bytes"):
                model_from_dict(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_claim_of_entries_past_the_stream_is_refused_before_inflating(self):
        # entry_row is sized by n_entries: 2^40 of them are more than 64 KB of zlib inflates to.
        payload = model_to_dict(fit(load_table(DATA / "mixed_train.csv"), "rasturnat", "bridge", density=True))
        payload["n_entries"] = 2**40
        payload["entry_row"] = {"dtype": "|u1", "zlib": base64.b64encode(zlib.compress(bytes(2**26))).decode()}
        tracemalloc.start()
        try:
            with pytest.raises(PredictorError, match=f"entry_row must pack one zlib stream of {2**40} bytes"):
                model_from_dict(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_stream_near_the_deflate_limit_still_decodes(self):
        # 1 MiB of zeros at level 9 inflates about 1009 bytes per stream byte; deflate's limit is 1032.
        stream = zlib.compress(bytes(2**20), 9)
        assert 1000 < 2**20 / len(stream) < 1032
        packed = {"dtype": "|u1", "zlib": base64.b64encode(stream).decode()}
        assert predictors._array(packed, "u", (2**20,), "codes").tobytes() == bytes(2**20)


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
    # The same document with its columns as <f8 (version 4) loads to the same model.
    assert json.loads(text)["version"] == 5
    unscaled = model_from_dict(as_version_4(json.loads(text)))
    # A density keeps the entry order; otherwise the entries come back in
    # canonical order: distinct row, then label.
    order = np.lexsort((table._outcomes, table._distinct_of))
    if model.density is not None:
        order = np.arange(table.n_entries)
    for got in (loaded, reloaded, unscaled):
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
        assert prediction_bits(predict(model, query)) == prediction_bits(predict(unscaled, query))


def reference_scale(values: list[float]) -> tuple[int, list[int]] | None:
    """The scale rule in Python floats and integers: the smallest p in 0..22 for which every
    k = round(x * 10.0**p) lies below 2^53 in magnitude and the correctly rounded k / 10^p has
    the bits of x, with the ks; None when no p does."""
    for p in range(23):
        ks = [round(x * 10.0**p) if math.isfinite(x * 10.0**p) else 2**53 for x in values]
        if all(abs(k) < 2**53 and np.float64(k / 10**p).tobytes() == np.float64(x).tobytes()
               for k, x in zip(ks, values)):
            return p, ks
    return None


#: Decimals of 0 to 22 places, short and long, and doubles with no short decimal form.
DECIMALS = st.builds(lambda k, p: k / 10**p, st.integers(-(10**7), 10**7) | st.integers(-(2**53) + 1, 2**53 - 1),
                     st.integers(0, 22))
AWKWARD = (st.floats(allow_nan=False, allow_infinity=False) | st.floats(-2.2e-308, 2.2e-308)
           | st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, 0.1 + 0.2])
           | st.integers(2**53, 2**70).map(float))


@settings(max_examples=300, deadline=None)
@given(st.lists(DECIMALS, min_size=1, max_size=12) | st.lists(DECIMALS | AWKWARD, min_size=1, max_size=12))
@example([-0.0, 1.0])
@example([0.1 + 0.2])
@example([1e22, 1e-22])
@example([1e-22, 1.5e-21])
@example([float(2**53)])
def test_a_column_is_scaled_exactly_when_a_decimal_form_exists(values):
    column = np.array(values)
    packed = predictors._packed(column, "<f8")
    decoded = predictors._real_array(json.loads(json.dumps(packed)), column.size, "column")
    assert decoded.tobytes() == column.tobytes()
    want = reference_scale(values)
    if want is None:
        assert packed["dtype"] == "<f8" and "scale" not in packed
    else:
        ks = want[1]
        dtype = next(t for t in ("|i1", "<i2", "<i4", "<i8") if np.iinfo(t).min <= min(ks) and max(ks) <= np.iinfo(t).max)
        assert (packed["scale"], packed["dtype"]) == (want[0], dtype)
    # Through a table, whose distinct rows hold +0.0 for -0.0, and a model file (a table's range must be finite).
    if not math.isfinite(max(values) - min(values)):
        return
    schema = Schema((AttributeSpec("x", "continuous"),), ("A",))
    table = TrainingTable(schema, [(v,) for v in values], [0] * len(values))
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(fit(table, "delanga")))))
    assert loaded.table._col_data[0].tobytes() == table._col_data[0].tobytes()


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_the_level_table_adds_votes_as_np_add_at_does(seed, density):
    # Counts, or dcf sums with density: per label, np.bincount adds each level's votes in row order.
    rng = np.random.default_rng(seed)
    table, queries = random_mixed_instance(rng, max_entries=120)
    model = fit(table, "rasturnat", "bridge", density=True) if density else fit(table, "delanga")
    for query in queries:
        dm = match_vectors(query, table)[1]
        why = predictors._level_table(model, dm)
        levels, votes = reference_level_table(dm, model.votes)
        assert why.levels.tobytes() == levels.tobytes() and why.votes.tobytes() == votes.tobytes()
        assert why.champion_rows == tuple(np.flatnonzero(dm[table._distinct_of] == dm.min()).tolist())
        assert (why.kernel_values is None) != density
        if density:
            assert why.kernel_values.tobytes() == model.kernel.evaluate(levels).tobytes()


def test_explain_holds_the_table_that_decides_each_tie():
    # A rasturnat band tie is re-scored from the level table, bit for bit, and a delanga
    # count tie walks it; small categorical tables tie often.
    ties = {"delanga": 0, "bridge": 0, "decay_b": 0}
    for seed in range(300):
        table, query = random_categorical_instance(np.random.default_rng(seed))
        labels = table.schema.outcome_labels
        for arm in ties:
            model = fit(table, "delanga") if arm == "delanga" else fit(table, "rasturnat", arm)
            p, why = predict(model, query), explain(model, query)
            if arm == "delanga" and (why.votes[0] == why.votes[0].max()).sum() > 1:
                assert backtrack_tie_break(why.votes, labels) == (p.winner, p.tie_depth)
                ties[arm] += 1
            elif arm != "delanga" and p.tie_depth:
                fields = (why.kernel_values[:, None] * why.votes).sum(axis=0)
                assert [v.hex() for v in fields.tolist()] == [p.scores[label].hex() for label in labels]
                ties[arm] += 1
    assert min(ties.values()) > 0, ties


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
