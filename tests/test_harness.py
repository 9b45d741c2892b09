import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldpred import (
    ConvergenceReportRow,
    HarnessError,
    Query,
    Schema,
    SyntheticSpec,
    TrainingTable,
    bayes_optimal,
    counterexample_spec,
    evaluate_accuracy,
    fit,
    generate_synthetic,
    load_spec,
    make_kernel,
    make_spec,
    predict,
    run_convergence,
    save_spec,
    standard_spec,
    summarize_final_regret,
    write_report,
)
from fieldpred.harness import (
    REPORT_HEADER,
    all_tuples,
    generate_point_test,
    report_to_csv,
    spec_from_dict,
    spec_to_dict,
)
from fieldpred.kernels import KERNEL_KINDS

from .util import expected_tos_rates, naive_reference_predict, per_row_accuracy, random_categorical_instance


def tiny_spec(seed=9, p_plus=0.8):
    """One binary attribute pair, every tuple favouring '+' by p_plus."""
    cards = (2, 2)
    conds = {t: [p_plus, 1.0 - p_plus] for t in all_tuples(cards)}
    return make_spec(cards, ("+", "-"), seed, conditionals=conds)


class TestMakeSpec:
    def test_uniform_masses(self):
        spec = tiny_spec()
        assert list(spec.probs) == [0.25] * 4
        assert spec.labels == ("+", "-")

    def test_all_tuples_order_first_attribute_slowest(self):
        assert all_tuples((2, 2)) == [
            ("0", "0"),
            ("0", "1"),
            ("1", "0"),
            ("1", "1"),
        ]

    def test_distribution_must_sum_to_one(self):
        cards = (2,)
        with pytest.raises(HarnessError, match="sum"):
            make_spec(
                cards,
                ("+", "-"),
                1,
                attribute_distribution={("0",): 0.3, ("1",): 0.3},
                conditionals={("0",): [1, 0], ("1",): [1, 0]},
            )

    def test_unknown_tuple_in_distribution(self):
        with pytest.raises(HarnessError, match="unknown tuple"):
            make_spec(
                (2,),
                ("+", "-"),
                1,
                attribute_distribution={("7",): 1.0},
                conditionals={},
            )

    def test_conditional_for_unreachable_tuple(self):
        with pytest.raises(HarnessError, match="unreachable"):
            make_spec(
                (2,),
                ("+", "-"),
                1,
                attribute_distribution={("0",): 1.0},
                conditionals={("0",): [1, 0], ("1",): [1, 0]},
            )

    def test_missing_conditional(self):
        with pytest.raises(HarnessError, match="missing conditional"):
            make_spec((2,), ("+", "-"), 1, conditionals={("0",): [1, 0]})

    def test_conditional_arity_checked(self):
        with pytest.raises(HarnessError, match="2 masses"):
            make_spec(
                (2,),
                ("+", "-"),
                1,
                conditionals={("0",): [1, 0, 0], ("1",): [1, 0]},
            )

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf, True, "0.5"], ids=repr)
    def test_non_finite_tuple_mass_rejected(self, mass):
        with pytest.raises(HarnessError, match="finite"):
            make_spec((2,), ("+", "-"), 1, attribute_distribution={("0",): mass, ("1",): 0.5},
                      conditionals={("0",): [1, 0], ("1",): [1, 0]})

    @pytest.mark.parametrize("mass", [math.nan, math.inf, True, "x"], ids=repr)
    def test_non_finite_conditional_mass_rejected(self, mass):
        with pytest.raises(HarnessError, match="finite"):
            make_spec((2,), ("+", "-"), 1, conditionals={("0",): [mass, 0.5], ("1",): [1, 0]})

    @pytest.mark.parametrize("cards, labels", [((0,), ("+", "-")), ((), ("+", "-")), ((2,), ()), ([2.5], ("+", "-")),
                                               ((2.0,), ("+", "-")), (("2",), ("+", "-")), ((True,), ("+", "-"))],
                             ids=repr)
    def test_empty_law_rejected(self, cards, labels):
        with pytest.raises(HarnessError, match="positive integers and labels nonempty"):
            make_spec(cards, labels, 1, conditionals={})

    @pytest.mark.parametrize("seed", [2.5, "abc", None, True], ids=repr)
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        with pytest.raises(HarnessError, match="seed must be an integer"):
            make_spec([2], ("+", "-"), seed, conditionals={("0",): [1, 0], ("1",): [0, 1]})

    def test_labels_that_are_one_string_are_refused(self):
        with pytest.raises(HarnessError, match="labels must be a nonempty list or tuple"):
            make_spec([2], "+-", 1, conditionals={("0",): [1, 0], ("1",): [0, 1]})

    @pytest.mark.parametrize("changes, match", [
        pytest.param({"cardinalities": (2.5,)}, "cardinalities must be positive integers", id="fractional-cardinality"),
        pytest.param({"seed": "x"}, "seed must be an integer", id="string-seed"),
        pytest.param({"labels": "AB"}, "labels must be a nonempty list or tuple", id="string-labels"),
        pytest.param({"labels": (1, 2)}, "labels must be a nonempty list or tuple", id="integer-labels"),
        pytest.param({"probs": ["a", 0.5]}, "masses must be arrays of numbers", id="string-mass"),
        pytest.param({"probs": [True, False]}, "masses must be arrays of numbers", id="boolean-masses"),
        pytest.param({"conditionals": [[1.0, 0.0], [0.0]]}, "masses must be arrays of numbers", id="ragged-masses"),
        # numpy reads a boolean among floats as 1.0.
        pytest.param({"probs": [True, 0.0], "conditionals": [[1, 0], [0, 1]]}, "masses must be arrays of numbers",
                     id="boolean-among-float-masses"),
        pytest.param({"conditionals": [[True, 0.0], [0.0, 1.0]]}, "masses must be arrays of numbers",
                     id="boolean-among-float-conditionals"),
        pytest.param({"probs": np.array([0.5, 0.25, 0.25])}, r"probs must have shape \(2,\)", id="long-probs"),
        pytest.param({"conditionals": np.array([1.0, 0.0])}, r"conditionals must have shape \(2, 2\)",
                     id="flat-conditionals"),
        pytest.param({"probs": np.array([np.nan, 0.5])}, "masses must be finite", id="nan-mass"),
        pytest.param({"conditionals": np.array([[np.inf, 0.0], [0.0, 1.0]])}, "masses must be finite",
                     id="infinite-conditional"),
    ])
    def test_the_spec_refuses_what_it_used_to_coerce(self, changes, match):
        args = {"cardinalities": (2,), "labels": ("A", "B"), "seed": 1, "probs": np.array([0.5, 0.5]),
                "conditionals": np.array([[1.0, 0.0], [0.0, 1.0]])}
        with pytest.raises(HarnessError, match=match):
            SyntheticSpec(**{**args, **changes})

    @pytest.mark.parametrize("distribution, conditionals, match", [
        pytest.param(5, {}, "'uniform' or a mapping", id="number-distribution"),
        pytest.param("zipf", {}, "unknown distribution descriptor 'zipf'", id="unknown-descriptor"),
        pytest.param("uniform", 5, "conditionals are required, as a mapping", id="number-conditionals"),
        pytest.param("uniform", {("0", "0"): 5}, "must list 2 masses", id="number-conditional"),
        # The key "10" used to be read as the tuple ("1", "0").
        pytest.param({"10": 1.0}, {("1", "0"): [1, 0]}, "unknown tuple '10'", id="string-key"),
    ])
    def test_make_spec_refuses_arguments_it_used_to_coerce_or_crash_on(self, distribution, conditionals, match):
        with pytest.raises(HarnessError, match=match):
            make_spec((2, 2), ("A", "B"), 1, distribution, conditionals)

    def test_conditional_rows_must_sum_to_one(self):
        with pytest.raises(HarnessError, match="sum"):
            make_spec(
                (2,),
                ("+", "-"),
                1,
                conditionals={("0",): [0.5, 0.1], ("1",): [1, 0]},
            )


class TestGeneration:
    def test_same_stream_is_identical(self):
        spec = tiny_spec()
        a = generate_synthetic(spec, 50, 3)
        b = generate_synthetic(spec, 50, 3)
        assert a.values == b.values
        assert a.outcomes == b.outcomes

    def test_different_streams_differ(self):
        spec = tiny_spec()
        a = generate_synthetic(spec, 200, 0)
        b = generate_synthetic(spec, 200, 1)
        assert (a.values, a.outcomes) != (b.values, b.outcomes)

    def test_shape_and_bounds(self):
        spec = tiny_spec()
        with pytest.raises(HarnessError):
            generate_synthetic(spec, 0, 0)
        one = generate_synthetic(spec, 1, 0)
        assert one.n_entries == 1

    def test_degenerate_conditional_forces_outcome(self):
        cards = (2,)
        spec = make_spec(
            cards, ("+", "-"), 5, conditionals={t: [1.0, 0.0] for t in all_tuples(cards)}
        )
        table = generate_synthetic(spec, 300, 0)
        assert set(table.outcomes) == {0}

    def test_point_test_sits_at_one_tuple(self):
        spec = tiny_spec()
        t = generate_point_test(spec, ("1", "0"), 25, 4)
        assert set(t.values) == {("1", "0")}
        assert t.n_entries == 25
        again = generate_point_test(spec, ("1", "0"), 25, 4)
        assert t.outcomes == again.outcomes

    def test_point_test_rejects_zero_mass_tuple(self):
        spec = make_spec(
            (2,),
            ("+", "-"),
            1,
            attribute_distribution={("0",): 1.0},
            conditionals={("0",): [1, 0]},
        )
        with pytest.raises(HarnessError, match="zero mass"):
            generate_point_test(spec, ("1",), 5, 0)


class TestBayes:
    def test_uniform_conditional(self):
        _, acc = bayes_optimal(tiny_spec(p_plus=0.8))
        assert acc == 0.8

    def test_deterministic_conditional(self):
        cards = (2, 2)
        spec = make_spec(
            cards, ("+", "-"), 1, conditionals={t: [1.0, 0.0] for t in all_tuples(cards)}
        )
        _, acc = bayes_optimal(spec)
        assert acc == 1.0

    def test_weighted_average(self):
        spec = make_spec(
            (2,),
            ("+", "-"),
            1,
            conditionals={("0",): [0.9, 0.1], ("1",): [0.4, 0.6]},
        )
        _, acc = bayes_optimal(spec)
        assert acc == 0.75

    def test_classifier_argmax_and_tie_rule(self):
        spec = make_spec(
            (2,),
            ("+", "-"),
            1,
            conditionals={("0",): [0.2, 0.8], ("1",): [0.5, 0.5]},
        )
        classify, _ = bayes_optimal(spec)
        assert classify(("0",)) == "-"
        assert classify(("1",)) == "+"  # exact tie goes to the earlier label


class TestEvaluateAccuracy:
    def test_perfect_on_duplicate_free_training_data(self):
        rng = np.random.default_rng(1)
        while True:
            table, _ = random_categorical_instance(rng)
            if len(set(table.values)) == table.n_entries:
                break
        model = fit(table, "delanga")
        assert evaluate_accuracy(model, table) == 1.0

    def test_half_right(self):
        spec = tiny_spec()
        train = generate_synthetic(spec, 40, 0)
        model = fit(train, "delanga")
        schema = train.schema
        from fieldpred import TrainingTable

        q = ("0", "0")
        right = predict(model, Query(q)).winner
        wrong = "-" if right == "+" else "+"
        idx = {l: i for i, l in enumerate(schema.outcome_labels)}
        test = TrainingTable(schema, [q, q], [idx[right], idx[wrong]])
        assert evaluate_accuracy(model, test) == 0.5

    def test_attribute_mismatch_rejected(self):
        spec = tiny_spec()
        model = fit(generate_synthetic(spec, 10, 0), "delanga")
        other = make_spec(
            (2, 2, 2),
            ("+", "-"),
            1,
            conditionals={t: [1, 0] for t in all_tuples((2, 2, 2))},
        )
        with pytest.raises(HarnessError, match="attributes"):
            evaluate_accuracy(model, generate_synthetic(other, 5, 0))

    def test_unknown_test_labels_count_as_misses(self):
        spec = tiny_spec()
        model = fit(generate_synthetic(spec, 10, 0), "delanga")
        foreign = make_spec(
            (2, 2),
            ("yes", "no"),
            1,
            conditionals={t: [1, 0] for t in all_tuples((2, 2))},
        )
        assert evaluate_accuracy(model, generate_synthetic(foreign, 5, 0)) == 0.0
        q = ("0", "0")
        right = predict(model, Query(q)).winner
        test = TrainingTable(Schema(model.table.schema.attributes, ("maybe", right)), [q, q, q, q], [0, 1, 0, 0])
        assert evaluate_accuracy(model, test) == 0.25


def test_generated_tables_match_the_row_constructor():
    spec = standard_spec()
    for table in (generate_synthetic(spec, 500, 4), generate_point_test(spec, ("2", "0", "1"), 50, 5)):
        built = TrainingTable(spec.schema(), table.values, table.outcomes)
        assert built.values == table.values
        for name in ("_distinct_of", "_outcomes", "_label_counts"):
            assert np.array_equal(getattr(built, name), getattr(table, name))
        assert all(np.array_equal(a, b) for a, b in zip(built._col_data, table._col_data))
        assert built._col_vocab == table._col_vocab


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_accuracy_matches_per_row_oracle(seed):
    # Test rows repeat, carry categories the model never saw ("3"), and
    # list the labels in reverse, so the per-distinct-row tally is checked
    # against one prediction per row.
    from fieldpred import Schema, TrainingTable

    rng = np.random.default_rng(seed)
    train, _ = random_categorical_instance(rng)
    labels = train.schema.outcome_labels
    test_schema = Schema(train.schema.attributes, labels[::-1])
    n = int(rng.integers(1, 60))
    rows = [tuple(str(v) for v in rng.integers(0, 4, train.n_attributes)) for _ in range(n // 3 + 1)]
    test = TrainingTable(
        test_schema,
        [rows[int(rng.integers(len(rows)))] for _ in range(n)],
        rng.integers(0, len(labels), n).tolist(),
    )
    for predictor, kernel in (("delanga", None), ("nearest", None), ("rasturnat", "bridge")):
        model = fit(train, predictor, kernel)
        assert evaluate_accuracy(model, test) == per_row_accuracy(model, test)


class TestRunConvergence:
    def test_row_shape_and_order(self):
        spec = tiny_spec()
        rows = run_convergence(
            spec, [("delanga", None), ("rasturnat", "bridge")], [5, 20], 2, 30
        )
        assert len(rows) == 8
        key = [(r.predictor, r.kernel, r.m, r.trial) for r in rows]
        assert key == [
            ("delanga", "", 5, 0),
            ("delanga", "", 5, 1),
            ("delanga", "", 20, 0),
            ("delanga", "", 20, 1),
            ("rasturnat", "bridge", 5, 0),
            ("rasturnat", "bridge", 5, 1),
            ("rasturnat", "bridge", 20, 0),
            ("rasturnat", "bridge", 20, 1),
        ]

    def test_report_is_reproducible(self):
        spec = tiny_spec()
        args = (spec, [("rasturnat", "newton")], [10, 40], 3, 25)
        assert run_convergence(*args) == run_convergence(*args)

    def test_arms_share_the_draw(self):
        spec = tiny_spec()
        rows = run_convergence(
            spec, [("delanga", None), ("nearest", None)], [15], 1, 20
        )
        # Different predictors, same (m, trial) stream: bayes columns match
        # and both were scored on the same test rows, so accuracy comes
        # from the same denominator.
        assert rows[0].bayes_accuracy == rows[1].bayes_accuracy
        assert rows[0].m == rows[1].m

    def test_regret_column_is_consistent(self):
        spec = tiny_spec()
        rows = run_convergence(spec, [("rasturnat", "pow_e")], [8], 2, 16)
        for r in rows:
            assert r.regret == r.bayes_accuracy - r.accuracy

    def test_deterministic_conditional_reaches_perfect_accuracy(self):
        cards = (2, 2)
        spec = make_spec(
            cards, ("+", "-"), 31, conditionals={t: [1.0, 0.0] for t in all_tuples(cards)}
        )
        rows = run_convergence(spec, [("delanga", None)], [400], 2, 200)
        for r in rows:
            assert r.accuracy == 1.0
            assert r.regret == 0.0

    def test_arm_validation(self):
        spec = tiny_spec()
        with pytest.raises(HarnessError, match="rasturnat parameter"):
            run_convergence(spec, [("delanga", "bridge")], [5], 1, 5)
        with pytest.raises(HarnessError, match="needs a kernel"):
            run_convergence(spec, [("rasturnat", None)], [5], 1, 5)
        with pytest.raises(HarnessError, match="at least one arm"):
            run_convergence(spec, [], [5], 1, 5)

    def test_malformed_arms_are_refused(self):
        spec = tiny_spec()
        for arm in (("delanga", "bridge", "x"), (), "delanga"):
            with pytest.raises(HarnessError, match="an arm is a predictor"):
                run_convergence(spec, [arm], [5], 1, 5)
        for forms in ([("delanga", None), ("delanga",), ["delanga"], ["delanga", None]],
                      [("rasturnat", "bridge"), ["rasturnat", "bridge"]]):
            reports = [run_convergence(spec, [arm], [5, 10], 2, 20) for arm in forms]
            assert all(report == reports[0] for report in reports)

    def test_schedule_validation(self):
        spec = tiny_spec()
        arms = [("delanga", None)]
        with pytest.raises(HarnessError, match="strictly increasing"):
            run_convergence(spec, arms, [10, 10], 1, 5)
        with pytest.raises(HarnessError, match="positive"):
            run_convergence(spec, arms, [0, 5], 1, 5)
        with pytest.raises(HarnessError):
            run_convergence(spec, arms, [], 1, 5)

    @pytest.mark.parametrize("schedule", [5, None, "55", range(5, 7), {5, 10}], ids=repr)
    def test_a_schedule_that_is_not_a_list_or_tuple_is_refused(self, schedule):
        # 5 and None used to raise TypeError, and "55" was read as the characters "5", "5".
        with pytest.raises(HarnessError, match="schedule must list positive entry counts"):
            run_convergence(tiny_spec(), [("delanga", None)], schedule, 1, 5)

    @pytest.mark.parametrize("bad", [0, -3, 2.0, 2.5, "x", "5", True, None, np.float64(3.0)], ids=repr)
    @pytest.mark.parametrize("where", ["a schedule entry", "trials", "test_size", "m", "n"])
    def test_counts_that_are_not_positive_integers_are_refused(self, where, bad):
        spec = tiny_spec()
        calls = {
            "a schedule entry": lambda: run_convergence(spec, [("delanga", None)], [5, bad], 1, 5),
            "trials": lambda: run_convergence(spec, [("delanga", None)], [5], bad, 5),
            "test_size": lambda: run_convergence(spec, [("delanga", None)], [5], 1, bad),
            "m": lambda: generate_synthetic(spec, bad, 0),
            "n": lambda: generate_point_test(spec, ("1", "0"), bad, 0),
        }
        with pytest.raises(HarnessError, match=f"{where} must be a positive integer"):
            calls[where]()

    def test_numpy_integer_counts_are_accepted(self):
        spec = tiny_spec()
        assert run_convergence(spec, [("delanga", None)], [np.int64(5)], np.int32(2), np.uint8(7)) == \
            run_convergence(spec, [("delanga", None)], [5], 2, 7)
        assert generate_synthetic(spec, np.int64(4), 0).n_entries == 4
        assert make_spec([np.int64(2)], ("+", "-"), 1, conditionals={("0",): [1, 0], ("1",): [0, 1]}).cardinalities == (2,)
        spec = make_spec([2], ("+", "-"), np.int64(3), conditionals={("0",): [1, 0], ("1",): [0, 1]})
        assert (type(spec.seed), spec.seed) == (int, 3)


class TestReportFiles:
    def test_header_is_frozen(self):
        assert REPORT_HEADER == "m,predictor,kernel,trial,accuracy,bayes_accuracy,regret"

    def test_csv_round_trip(self, tmp_path):
        spec = tiny_spec()
        rows = run_convergence(spec, [("rasturnat", "bridge")], [5, 10], 2, 20)
        path = tmp_path / "report.csv"
        write_report(rows, path)
        text = path.read_text()
        assert text.splitlines()[0] == REPORT_HEADER
        back = list(csv.DictReader(io.StringIO(text)))
        assert [(int(r["m"]), r["predictor"], r["kernel"], int(r["trial"])) for r in back] == [
            (r.m, r.predictor, r.kernel, r.trial) for r in rows
        ]
        for a, b in zip(back, rows):
            assert float(a["accuracy"]) == pytest.approx(b.accuracy, abs=1e-6)
            assert float(a["regret"]) == pytest.approx(b.regret, abs=1e-6)

    def test_six_decimal_rendering(self):
        row = ConvergenceReportRow(
            m=10,
            predictor="rasturnat",
            kernel="bridge",
            trial=0,
            accuracy=1 / 3,
            bayes_accuracy=0.81,
            regret=0.81 - 1 / 3,
        )
        text = report_to_csv([row])
        assert text.splitlines()[1] == "10,rasturnat,bridge,0,0.333333,0.810000,0.476667"

    def test_summarize_final_regret(self):
        rows = [
            ConvergenceReportRow(10, "delanga", "", 0, 0.7, 0.8, 0.1),
            ConvergenceReportRow(100, "delanga", "", 0, 0.75, 0.8, 0.05),
            ConvergenceReportRow(100, "delanga", "", 1, 0.85, 0.8, -0.05),
            ConvergenceReportRow(10, "rasturnat", "bridge", 0, 0.6, 0.8, 0.2),
            ConvergenceReportRow(100, "rasturnat", "bridge", 0, 0.78, 0.8, 0.02),
        ]
        summary = summarize_final_regret(rows)
        assert summary[0][0] == "delanga"
        assert summary[0][1] == 100
        assert summary[0][2] == pytest.approx(0.0, abs=1e-15)
        assert summary[1] == ("rasturnat:bridge", 100, pytest.approx(0.02))
        assert summarize_final_regret([]) == []


class TestBuiltinSpecs:
    def test_standard_spec_is_stable(self):
        spec = standard_spec()
        _, bayes = bayes_optimal(spec)
        assert bayes == pytest.approx(0.8113358294020204, rel=1e-12)
        assert spec.cardinalities == (3, 3, 3)
        assert spec.labels == ("A", "B")
        again = standard_spec()
        assert np.array_equal(spec.probs, again.probs)
        assert np.array_equal(spec.conditionals, again.conditionals)

    def test_counterexample_masses(self):
        spec = counterexample_spec()
        _, bayes = bayes_optimal(spec)
        assert bayes == pytest.approx(0.762, rel=1e-12)
        i = spec.tuple_index(("0", "0", "0"))
        assert spec.probs[i] == pytest.approx(0.01)
        assert spec.conditionals[i][0] == pytest.approx(0.9)

    def test_counterexample_expected_rates(self):
        # The per-row expected vote under pow_2 weights at the focal point:
        # outcome B out-collects A even though A dominates the exact matches.
        spec = counterexample_spec()
        focal = ("0", "0", "0")
        rates = expected_tos_rates(spec, focal, [1.0, 0.5, 0.25, 0.125])
        assert rates[0] == pytest.approx(0.0654, rel=1e-12)
        assert rates[1] == pytest.approx(0.2326, rel=1e-12)
        assert rates[1] > rates[0]
        # Restricted to perfect matches the ordering flips.
        perfect = expected_tos_rates(spec, focal, [1.0, 0.0, 0.0, 0.0])
        assert perfect[0] == pytest.approx(0.009, rel=1e-12)
        assert perfect[1] == pytest.approx(0.001, rel=1e-12)
        assert perfect[0] > perfect[1]

    def test_spec_file_round_trip(self, tmp_path):
        spec = counterexample_spec()
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        back = load_spec(path)
        assert back.cardinalities == spec.cardinalities
        assert back.labels == spec.labels
        assert back.seed == spec.seed
        assert np.array_equal(back.probs, spec.probs)
        assert np.array_equal(back.conditionals, spec.conditionals)
        _, b1 = bayes_optimal(spec)
        _, b2 = bayes_optimal(back)
        assert b1 == b2


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_law_make_spec_accepts_round_trips_through_a_spec_file(data):
    cards = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="cards")
    labels = data.draw(st.lists(st.text(max_size=3) | st.integers(0, 3), min_size=1, max_size=3, unique=True),
                       label="labels")
    tuples = all_tuples(cards)
    weights = data.draw(st.lists(st.integers(0, 5), min_size=len(tuples), max_size=len(tuples)).filter(any))
    # Keys are tuples of strings, or of the ints they read as.
    keys = [tuple(map(int, t)) if data.draw(st.booleans()) else t for t in tuples]
    distribution = "uniform" if data.draw(st.booleans()) else {
        key: w / sum(weights) for key, w in zip(keys, weights) if w}
    conditionals = {}
    for key, w in zip(keys, weights):
        if w or distribution == "uniform":
            masses = data.draw(st.lists(st.integers(0, 5), min_size=len(labels), max_size=len(labels)).filter(any))
            conditionals[key] = [m / sum(masses) for m in masses]
    seed = data.draw(st.integers(-(2**70), 2**70), label="seed")
    try:
        spec = make_spec(cards, labels, seed, distribution, conditionals)
    except HarnessError:
        return
    back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    assert (back.cardinalities, back.labels, back.seed) == (spec.cardinalities, spec.labels, spec.seed)
    assert back.probs.tobytes() == spec.probs.tobytes()
    assert back.conditionals.tobytes() == spec.conditionals.tobytes()


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(KERNEL_KINDS))
def test_naive_oracle_agreement(seed, kind):
    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    if table.n_entries < 2 and kind in ("adj_pow_2", "inv_additive_residue"):
        return
    model = fit(table, "rasturnat", kind)
    fast = predict(model, query)
    slow = naive_reference_predict(table, query, model.kernel)
    assert fast.winner == slow.winner
    for label in fast.scores:
        assert fast.scores[label] == pytest.approx(slow.scores[label], rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_naive_oracle_with_density(seed):
    from fieldpred import compute_density_model

    rng = np.random.default_rng(seed)
    table, query = random_categorical_instance(rng)
    kernel = make_kernel("newton", table.n_entries)
    density = compute_density_model(table, kernel)
    model = fit(table, "rasturnat", "newton", density=True)
    fast = predict(model, query)
    slow = naive_reference_predict(table, query, kernel, density)
    assert fast.winner == slow.winner
    for label in fast.scores:
        assert fast.scores[label] == pytest.approx(slow.scores[label], rel=1e-9)


def test_naive_oracle_single_row_chain():
    from fieldpred import AttributeSpec, Schema, TrainingTable

    schema = Schema(
        (AttributeSpec("a", "categorical"), AttributeSpec("b", "categorical")),
        ("A", "B"),
    )
    table = TrainingTable(schema, [("0", "1")], [1])
    kernel = make_kernel("pow_2", 1)
    p = naive_reference_predict(table, Query(("0", "0")), kernel)
    assert p.scores == {"A": 0.0, "B": 0.5}
    assert p.winner == "B"


def test_naive_oracle_neutral_density_is_identity():
    from fieldpred import DensityModel

    rng = np.random.default_rng(12)
    table, query = random_categorical_instance(rng)
    kernel = make_kernel("gauss", table.n_entries)
    neutral = DensityModel(table, np.ones(table._distinct_entry.size))
    assert list(neutral.dcf) == [1.0] * table.n_entries
    a = naive_reference_predict(table, query, kernel)
    b = naive_reference_predict(table, query, kernel, neutral)
    assert a.scores == b.scores
    assert a.winner == b.winner
