"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a single pass/fail
line per criterion. The slow entries (4 and 5) stay under a minute each;
the whole module is a few minutes of desk-scale compute.
"""

import math

import numpy as np
import pytest

from fieldpred import (
    bayes_optimal,
    certify_lead,
    compute_density_model,
    counterexample_spec,
    evaluate_accuracy,
    fit,
    generate_synthetic,
    make_kernel,
    make_spec,
    predict,
    run_convergence,
    save_spec,
    standard_spec,
    with_scale,
)
from fieldpred.cli import main
from fieldpred.harness import all_tuples, generate_point_test
from fieldpred.kernels import KERNEL_KINDS
from fieldpred.predictors import FittedModel

from .util import expected_tos_rates, naive_reference_predict, random_categorical_instance, random_continuous_instance

CERTIFIED_KINDS = ("bridge", "adj_pow_2", "newton", "spliced", "decay_a", "decay_b")
UNCERTIFIED_KINDS = ("pow_2", "pow_e", "gauss")
W = 9.0


def test_criterion_1_lead_certification():
    sizes = (2, 5, 10, 100, 1000)
    for m in sizes:
        for kind in CERTIFIED_KINDS:
            cert = certify_lead(make_kernel(kind, m, W), m)
            assert cert.certified is True, f"{kind} at m={m} must certify"
    for m in (s for s in sizes if s >= 4):
        for kind in UNCERTIFIED_KINDS:
            cert = certify_lead(make_kernel(kind, m, W), m)
            assert cert.certified is False, f"{kind} at m={m} must not certify"
    print(f"criterion 1: certification matrix over m={sizes} OK")


def test_criterion_2_construction_equivalence():
    from fieldpred import inverse_additive_residue

    for m in (2, 5, 100):
        built = inverse_additive_residue("pow_2", float(m), W)
        closed = make_kernel("adj_pow_2", m, W)
        adrez = -(m - 2.0) / (m - 1.0)
        assert built.adrez == pytest.approx(adrez, rel=1e-12)
        for d in range(9):
            expected = 1.0 / (2.0**d + adrez)
            assert float(built.evaluate(float(d))) == pytest.approx(expected, rel=1e-12)
            assert float(closed.evaluate(float(d))) == pytest.approx(expected, rel=1e-12)
    print("criterion 2: generic construction matches adj_pow_2 closed form")


N_INSTANCES = 1000


def test_criterion_3a_bridge_equals_delanga():
    rng = np.random.default_rng(301)
    for _ in range(N_INSTANCES):
        table, query = random_categorical_instance(rng)
        bridge = predict(fit(table, "rasturnat", "bridge"), query)
        delanga = predict(fit(table, "delanga"), query)
        assert bridge.winner == delanga.winner
    print(f"criterion 3a: bridge/delanga agreement on {N_INSTANCES}/{N_INSTANCES}")


def test_criterion_3b_rasturnat_matches_naive_oracle():
    rng = np.random.default_rng(302)
    for _ in range(N_INSTANCES):
        table, query = random_categorical_instance(rng)
        for kind in KERNEL_KINDS:
            model = fit(table, "rasturnat", kind)
            fast = predict(model, query)
            slow = naive_reference_predict(table, query, model.kernel)
            assert fast.winner == slow.winner, f"winner drift for {kind}"
            for label, value in fast.scores.items():
                assert value == pytest.approx(slow.scores[label], rel=1e-9), (
                    f"tos drift for {kind}/{label}"
                )
    print(f"criterion 3b: oracle agreement on {N_INSTANCES} instances x {len(KERNEL_KINDS)} kernels")


def test_criterion_3c_delanga_equals_one_nn_on_distinct_distances():
    rng = np.random.default_rng(303)
    for _ in range(N_INSTANCES):
        table, query = random_continuous_instance(rng)
        d = predict(fit(table, "delanga"), query)
        n = predict(fit(table, "nearest"), query)
        assert d.winner == n.winner
    print(f"criterion 3c: delanga/1-nn agreement on {N_INSTANCES}/{N_INSTANCES}")


def test_criterion_4_convergence_on_standard_spec():
    spec = standard_spec()
    arms = [("delanga", None)] + [("rasturnat", k) for k in CERTIFIED_KINDS]
    rows = run_convergence(spec, arms, [100, 10_000], trials=10, test_size=2000)
    mean_regret: dict[tuple[str, int], float] = {}
    for r in rows:
        arm = r.predictor if not r.kernel else f"{r.predictor}:{r.kernel}"
        mean_regret.setdefault((arm, r.m), []).append(r.regret)
    report = []
    for (arm, m), values in mean_regret.items():
        mean_regret[(arm, m)] = math.fsum(values) / len(values)
    for predictor, kernel in arms:
        arm = predictor if kernel is None else f"{predictor}:{kernel}"
        small, large = mean_regret[(arm, 100)], mean_regret[(arm, 10_000)]
        assert large <= 0.02, f"{arm}: mean regret {large:.4f} at m=10000 exceeds 0.02"
        assert large <= small, f"{arm}: regret grew from m=100 ({small:.4f}) to m=10000 ({large:.4f})"
        report.append(f"{arm}={large:+.4f}")
    print("criterion 4: final regrets " + " ".join(report))


def test_criterion_5_pow_2_non_convergence_counterexample():
    spec = counterexample_spec()
    focal = ("0", "0", "0")
    idx = spec.tuple_index(focal)
    bayes_at_focal = float(spec.conditionals[idx].max())
    assert bayes_at_focal == pytest.approx(0.9, rel=1e-12)

    # Analytic part first: per-row expected votes at the focal point.
    pow_2_rates = expected_tos_rates(spec, focal, [1.0, 0.5, 0.25, 0.125])
    assert pow_2_rates[1] > pow_2_rates[0], "pow_2 must favour B asymptotically"
    mld = 1e5
    bridge_rates = expected_tos_rates(spec, focal, [1.0, mld**-1, mld**-2, mld**-3])
    assert bridge_rates[0] > bridge_rates[1], "bridge must favour A asymptotically"

    # Empirical part: the uncertified kernel stays wrong at every scale,
    # the certified one converges.
    for m_index, m in enumerate((10**3, 10**4, 10**5)):
        train = generate_synthetic(spec, m, 2 * m_index)
        test = generate_point_test(spec, focal, 2000, 2 * m_index + 1)
        pow_2_acc = evaluate_accuracy(fit(train, "rasturnat", "pow_2"), test)
        assert pow_2_acc <= bayes_at_focal - 0.1, (
            f"pow_2 at m={m}: accuracy {pow_2_acc:.4f} is not >=0.1 below {bayes_at_focal}"
        )
        if m == 10**5:
            bridge_acc = evaluate_accuracy(fit(train, "rasturnat", "bridge"), test)
            assert bayes_at_focal - bridge_acc <= 0.05, (
                f"bridge at m={m}: regret {bayes_at_focal - bridge_acc:.4f} exceeds 0.05"
            )
    print("criterion 5: pow_2 pinned >=0.1 below bayes at the focal tuple; bridge within 0.05")


def test_criterion_6_density_identities():
    rng = np.random.default_rng(600)
    kinds = ("bridge", "newton", "pow_2", "gauss", "adj_pow_2")
    for i in range(200):
        table, _ = random_categorical_instance(rng)
        kernel = make_kernel(kinds[i % len(kinds)], table.n_entries, table.total_weight)
        density = compute_density_model(table, kernel)
        recovered = math.fsum(f * t for f, t in zip(density.dcf, density.tss))
        assert recovered == pytest.approx(density.sts, rel=1e-9)

    from fieldpred import AttributeSpec, Schema, TrainingTable

    schema = Schema(
        tuple(AttributeSpec(f"x{j}", "categorical") for j in range(4)), ("A", "B")
    )
    uniform = TrainingTable(schema, [("0",) * 4] * 5, [0, 1, 0, 1, 0])
    kernel = make_kernel("bridge", 5, uniform.total_weight)
    assert list(compute_density_model(uniform, kernel).dcf) == [1.0] * 5

    three = TrainingTable(schema, [("0",) * 4, ("0",) * 4, ("1",) * 4], [0, 0, 1])
    kernel = make_kernel("bridge", 3, three.total_weight)
    dcf = compute_density_model(three, kernel).dcf
    assert dcf[2] > dcf[0] and dcf[2] > dcf[1]
    print("criterion 6: density identities hold on 200 instances + constructions")


def test_criterion_7_scaling_invariance():
    rng = np.random.default_rng(700)
    factors = (1e-6, 1.0, 1e6)
    checked = 0
    for i in range(300):
        table, query = random_categorical_instance(rng)
        kind = KERNEL_KINDS[i % len(KERNEL_KINDS)]
        base = fit(table, "rasturnat", kind)
        reference = predict(base, query)
        for c in factors:
            scaled = FittedModel(table, "rasturnat", kernel=with_scale(base.kernel, c))
            p = predict(scaled, query)
            assert p.winner == reference.winner
            for label, value in reference.likelihoods.items():
                if value == 0.0:
                    assert p.likelihoods[label] == 0.0
                else:
                    assert p.likelihoods[label] == pytest.approx(value, rel=1e-9)
            checked += 1
    print(f"criterion 7: winner/likelihood invariance across {factors} on {checked} cases")


GOLDEN_TRAIN = """color,size,label
red,1.0,yes
red,2.0,yes
blue,3.0,no
blue,4.0,no
green,2.5,yes
"""

GOLDEN_FIT_OUTPUT = """entries=5 attributes=2
kernel: kind=bridge mld=5.000000
lead: sepm=1.000000 seap=0.200000 maxsap=0.800000 certified: true
"""

GOLDEN_PREDICT_OUTPUT = """winner=yes yes=0.920729 no=0.079271
winner=no yes=0.144679 no=0.855321
"""

GOLDEN_KERNELS_CHECK = """kind,sepm,seap,maxsap,certified
pow_2,1.000000,0.500000,49.500000,false
pow_e,1.000000,0.367879,36.420065,false
gauss,1.000000,0.367879,36.420065,false
bridge,1.000000,0.010000,0.990000,true
spliced,50.000000,0.500000,49.500000,true
inv_additive_residue,99.000000,0.990000,98.010000,true
adj_pow_2,99.000000,0.990000,98.010000,true
newton,100.000000,0.990099,98.019802,true
decay_a,1.000000,0.010000,0.990000,true
decay_b,1.000000,0.010000,0.990000,true
"""


def test_criterion_8_cli_golden_outputs(tmp_path, capsys):
    # The documented sample session (README "A full session") verbatim.
    train = tmp_path / "train.csv"
    train.write_text(GOLDEN_TRAIN)
    model = tmp_path / "model.json"

    assert main(["fit", "--train", str(train), "--predictor", "rasturnat",
                 "--kernel", "bridge", "--out", str(model)]) == 0
    fit_out = capsys.readouterr().out
    assert fit_out == GOLDEN_FIT_OUTPUT + f"model written to {model}\n"

    assert main(["predict", "--model", str(model),
                 "--query", "red,1.5", "--query", "blue,3.5"]) == 0
    assert capsys.readouterr().out == GOLDEN_PREDICT_OUTPUT

    assert main(["kernels", "check", "--m", "100"]) == 0
    first_check = capsys.readouterr().out
    assert first_check == GOLDEN_KERNELS_CHECK
    assert main(["kernels", "check", "--m", "100"]) == 0
    assert capsys.readouterr().out == first_check

    # Convergence reruns are byte-identical, report file included.
    cards = (2, 2)
    spec = make_spec(
        cards, ("+", "-"), 123,
        conditionals={t: [0.85, 0.15] for t in all_tuples(cards)},
    )
    spec_path = tmp_path / "spec.json"
    save_spec(spec, spec_path)
    outputs = []
    reports = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["converge", "--spec", str(spec_path),
                     "--arms", "delanga,rasturnat:bridge",
                     "--schedule", "10,50", "--trials", "3",
                     "--test-size", "100", "--out", str(out)]) == 0
        outputs.append(capsys.readouterr().out)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert outputs[0] == outputs[1]
    print("criterion 8: documented session and reruns reproduce byte-identically")
