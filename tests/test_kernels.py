import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldpred import (
    KERNEL_KINDS,
    Kernel,
    KernelError,
    certify_lead,
    make_kernel,
)
from fieldpred import kernels
from fieldpred.cli import main
from fieldpred.kernels import kernel_from_dict, kernel_to_dict

from .util import _naive_kernel_value

W = 6.0  # a convenient distance span for most tests


def harmonic_exponent(d: float, power: int) -> float:
    """Independent oracle for the fading exponents: partial sums of 1/k^power
    with linear interpolation between integers."""
    lo = math.floor(d)
    acc = 0.0
    for k in range(1, lo + 1):
        acc += 1.0 / k**power
    return acc + (d - lo) / (lo + 1) ** power


class TestFrozenValues:
    def test_bridge(self):
        k = make_kernel("bridge", 10)
        assert k.mld == 10.0
        assert k.evaluate(0.0) == 1.0
        assert float(k.evaluate(2.0)) == pytest.approx(0.01, rel=1e-15)

    def test_pow_2_exact_at_integers(self):
        k = make_kernel("pow_2", 4)
        assert k.evaluate(0.0) == 1.0
        assert k.evaluate(1.0) == 0.5
        assert k.evaluate(3.0) == 0.125

    def test_pow_e_and_gauss(self):
        pe = make_kernel("pow_e", 4)
        ga = make_kernel("gauss", 4)
        assert float(pe.evaluate(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert float(ga.evaluate(2.0)) == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert ga.evaluate(0.0) == 1.0

    def test_newton(self):
        k = make_kernel("newton", 4)
        assert float(k.evaluate(0.0)) == 4.0
        assert float(k.evaluate(1.0)) == 0.8

    def test_adj_pow_2_residue_closed_form(self):
        k = make_kernel("adj_pow_2", 5)
        assert k.adrez == -0.75
        assert float(k.evaluate(0.0)) == 4.0
        assert float(k.evaluate(1.0)) == 0.8

    def test_spliced_lifts_only_the_perfect_match(self):
        base = make_kernel("pow_2", 8)
        k = Kernel("spliced", 8.0, base=base)
        assert float(k.evaluate(0.0)) == 4.0
        assert float(k.evaluate(1.0)) == 0.5
        half = float(k.evaluate(0.5))
        assert half == pytest.approx(2.0**-0.5, rel=1e-15)
        assert half < float(k.evaluate(0.0))

    def test_make_kernel_spliced_defaults_to_pow_2_base(self):
        k = make_kernel("spliced", 8)
        assert k.base.kind == "pow_2"
        assert float(k.evaluate(0.0)) == 4.0

    def test_decay_integer_points(self):
        ka = make_kernel("decay_a", 10)
        kb = make_kernel("decay_b", 10)
        assert ka.evaluate(0.0) == 1.0
        assert kb.evaluate(0.0) == 1.0
        assert float(ka.evaluate(1.0)) == pytest.approx(0.1, rel=1e-15)
        assert float(kb.evaluate(1.0)) == pytest.approx(0.1, rel=1e-15)
        assert float(ka.evaluate(2.0)) == pytest.approx(10.0**-1.5, rel=1e-14)
        assert float(kb.evaluate(2.0)) == pytest.approx(10.0**-1.25, rel=1e-14)

    def test_decay_interpolates_between_integers(self):
        ka = make_kernel("decay_a", 10)
        kb = make_kernel("decay_b", 10)
        for d in (0.25, 1.5, 2.75, 3.125):
            assert float(ka.evaluate(d)) == pytest.approx(
                10.0 ** -harmonic_exponent(d, 1), rel=1e-13
            )
            assert float(kb.evaluate(d)) == pytest.approx(
                10.0 ** -harmonic_exponent(d, 2), rel=1e-13
            )

    @pytest.mark.parametrize("kind, power", [("decay_a", 1), ("decay_b", 2)])
    def test_decay_values_match_the_full_weight_table(self, kind, power, monkeypatch):
        # The sums are sized by the distances evaluated, and a longer table
        # replaces a shorter one; either way every value keeps the bits of
        # one long table built up front.
        long = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1.0, 1001.0) ** power)))
        k = make_kernel(kind, 7)
        d = np.array([0.0, 0.5, 1.0, 2.75, 3.0, 7.5, 63.0, 64.25, 129.0, 300.0, 300.5, 999.75])
        base = np.floor(d)
        idx = base.astype(np.int64)
        expected = np.power(k.mld, -(long[idx] + (d - base) / (idx + 1.0) ** power))
        monkeypatch.setattr(kernels, "_CUMSUMS", {})
        for x, want in zip(d, expected):
            assert k.evaluate(x).tobytes() == want.tobytes()
        monkeypatch.setattr(kernels, "_CUMSUMS", {})
        assert k.evaluate(d).tobytes() == expected.tobytes()
        assert k.evaluate(d[::-1]).tobytes() == expected[::-1].tobytes()

    @pytest.mark.parametrize("kind", ["decay_a", "decay_b"])
    def test_decay_values_past_the_table_weight(self, kind):
        # No table weight bounds the distances a decay kernel accepts; far
        # past any table built so far, values match the naive sums.
        k = make_kernel(kind, 10)
        for d in (5.0, 40.25, 1000.5):
            assert float(k.evaluate(d)) == pytest.approx(_naive_kernel_value(k, d), rel=1e-13)
        d = np.array([1.0, 5.0, 40.25, 1000.5])
        assert np.array_equal(k.evaluate(d), [k.evaluate(x) for x in d])

    @pytest.mark.parametrize("kind", ["decay_a", "decay_b"])
    def test_decay_table_is_sized_by_distance_not_weight(self, kind, monkeypatch, tmp_path):
        monkeypatch.setattr(kernels, "_CUMSUMS", {})
        schema, train = tmp_path / "schema.json", tmp_path / "train.csv"
        schema.write_text(json.dumps({"version": 1, "outcome_labels": ["p", "q"],
                                      "attributes": [{"name": "x", "kind": "categorical", "weight": 1e7}]}))
        train.write_text("x,label\na,p\na,q\n")
        assert main(["fit", "--train", str(train), "--schema", str(schema),
                     "--predictor", "rasturnat", "--kernel", kind]) == 0
        assert kernels._CUMSUMS and all(table.size <= 4 for table in kernels._CUMSUMS.values())

    @pytest.mark.parametrize("kind", ["decay_a", "decay_b"])
    @pytest.mark.parametrize("weight", [1e12, 1e300])
    def test_distance_past_the_decay_cap_is_an_input_error(self, kind, weight, tmp_path, capsys):
        # 1e12 would ask for a 7 TiB table; 1e300 wraps the int64 cast.
        schema, train, model = tmp_path / "schema.json", tmp_path / "train.csv", tmp_path / "model.json"
        schema.write_text(json.dumps({"version": 1, "outcome_labels": ["p", "q"],
                                      "attributes": [{"name": "x", "kind": "categorical", "weight": weight}]}))
        train.write_text("x,label\na,p\na,q\n")
        assert main(["fit", "--train", str(train), "--schema", str(schema),
                     "--predictor", "rasturnat", "--kernel", kind, "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--query", "b"]) == 1
        assert capsys.readouterr().err.startswith("error: decay kernels take distances up to 16777216")
        with pytest.raises(KernelError):
            Kernel(kind, 2.0).evaluate([1.0, 2.0**24 + 1.0])


class TestCertification:
    def test_bridge_100_worked_example(self):
        cert = certify_lead(make_kernel("bridge", 100), 100)
        assert cert.sepm == 1.0
        assert cert.seap == pytest.approx(0.01, rel=1e-15)
        assert cert.maxsap == pytest.approx(0.99, rel=1e-15)
        assert cert.certified is True

    def test_pow_2_fails_at_four_entries(self):
        cert = certify_lead(make_kernel("pow_2", 4), 4)
        assert (cert.sepm, cert.seap, cert.maxsap) == (1.0, 0.5, 1.5)
        assert cert.certified is False

    def test_newton_worked_example(self):
        cert = certify_lead(make_kernel("newton", 4), 4)
        assert cert.sepm == 4.0
        assert cert.seap == 0.8
        assert cert.maxsap == pytest.approx(2.4, rel=1e-15)
        assert cert.certified is True

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 100, 1000])
    def test_bridge_certified_for_every_table_size(self, m):
        cert = certify_lead(make_kernel("bridge", m), m)
        assert cert.certified is True

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 100, 1000])
    def test_adj_pow_2_lead_ratio_is_the_entry_count(self, m):
        cert = certify_lead(make_kernel("adj_pow_2", m), m)
        assert cert.certified is True
        assert cert.sepm / cert.seap == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize("kind", ["decay_a", "decay_b"])
    @pytest.mark.parametrize("m", [2, 5, 100])
    def test_decay_certified(self, kind, m):
        # H(1) = Q(1) = 1, so the first step drops by the full lead factor.
        cert = certify_lead(make_kernel(kind, m), m)
        assert cert.certified is True
        assert cert.sepm / cert.seap == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize("n_entries", [True, 0, 2.0, "4"], ids=repr)
    def test_an_entry_count_that_is_not_a_positive_integer_is_refused(self, n_entries):
        # True used to certify a table of one entry.
        with pytest.raises(KernelError, match="n_entries must be a positive integer"):
            certify_lead(make_kernel("bridge", 4), n_entries)

    def test_an_entry_count_past_the_float_range_is_refused(self):
        with pytest.raises(KernelError, match="n_entries is too large to certify a lead for"):
            certify_lead(make_kernel("bridge", 4), 10**400)

    def test_spliced_certified_at_its_own_lead(self):
        k = Kernel("spliced", 12.0, base=make_kernel("pow_2", 12))
        cert = certify_lead(k, 12)
        assert cert.certified is True
        assert cert.sepm / cert.seap == pytest.approx(12.0, rel=1e-12)

    def test_certificate_validates_its_fields(self):
        with pytest.raises(KernelError):
            from fieldpred.kernels import LeadCertificate

            LeadCertificate(sepm=0.5, seap=0.8, maxsap=1.0, certified=False)


class TestInverseAdditiveResidue:
    def test_pow_2_growth_reproduces_adj_pow_2(self):
        built = Kernel("inv_additive_residue", 5.0, grow_kind="pow_2")
        closed = make_kernel("adj_pow_2", 5)
        assert built.adrez == pytest.approx(-0.75, rel=1e-15)
        for d in range(7):
            assert float(built.evaluate(float(d))) == pytest.approx(
                float(closed.evaluate(float(d))), rel=1e-12
            )

    def test_square_growth_reproduces_newton(self):
        built = Kernel("inv_additive_residue", 5.0, grow_kind="square")
        newton = make_kernel("newton", 4)
        for d in (0.0, 1.0, 2.0, 3.0):
            assert float(built.evaluate(d)) == float(newton.evaluate(d))

    def test_lead_ratio_is_mld(self):
        for grow in ("pow_2", "pow_e", "square", "linear"):
            k = Kernel("inv_additive_residue", 7.0, grow_kind=grow)
            assert float(k.evaluate(0.0)) / float(k.evaluate(1.0)) == pytest.approx(
                7.0, rel=1e-12
            )

    def test_unknown_growth_rejected(self):
        with pytest.raises(KernelError, match="growth"):
            Kernel("inv_additive_residue", 5.0, grow_kind="cubic")

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(KernelError, match="denominator"):
            Kernel("inv_additive_residue", 1e17, grow_kind="pow_e")


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(KernelError, match="unknown kernel kind"):
            make_kernel("sinc", 4)

    def test_adj_pow_2_single_entry_degenerate(self):
        with pytest.raises(KernelError, match="single-entry"):
            make_kernel("adj_pow_2", 1)
        with pytest.raises(KernelError, match="single-entry"):
            make_kernel("inv_additive_residue", 1)

    def test_mld_override_must_exceed_one(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(KernelError, match="mld_override"):
                make_kernel("bridge", 10, mld_override=bad)

    def test_splice_mld_must_exceed_one(self):
        base = make_kernel("pow_2", 4)
        with pytest.raises(KernelError):
            Kernel("spliced", 1.0, base=base)

    @pytest.mark.parametrize("base", [None, 5, "pow_2"], ids=repr)
    def test_a_spliced_kernel_needs_a_kernel_as_its_base(self, base):
        with pytest.raises(KernelError, match="spliced kernel needs a base kernel"):
            Kernel("spliced", 4.0, base=base)

    def test_spliced_base_cannot_be_spliced(self):
        once = Kernel("spliced", 4.0, base=make_kernel("pow_2", 4))
        with pytest.raises(KernelError, match="spliced"):
            Kernel("spliced", 4.0, base=once)

    @pytest.mark.parametrize("n_entries, mld_override", [(5, "3"), ("5", None), (5.0, None), (True, None), (0, None),
                                                         (5, True), (5, [3.0]), (5, math.inf)], ids=repr)
    def test_arguments_of_the_wrong_type_are_refused(self, n_entries, mld_override):
        with pytest.raises(KernelError, match="positive integer n_entries and a finite real mld_override"):
            make_kernel("bridge", n_entries, mld_override=mld_override)

    def test_numpy_numbers_are_accepted(self):
        assert make_kernel("bridge", np.int64(5), np.float64(3.0)) == make_kernel("bridge", 5, 3)

    def test_single_row_table_still_gets_a_usable_bridge(self):
        k = make_kernel("bridge", 1)
        assert k.mld == 2.0
        assert float(k.evaluate(1.0)) == 0.5


kernel_kind = st.sampled_from(KERNEL_KINDS)
table_size = st.integers(2, 50)


@settings(max_examples=300, deadline=None)
@given(kernel_kind, table_size, st.integers(0, 2**32 - 1))
def test_strictly_decreasing_on_domain(kind, m, seed):
    rng = np.random.default_rng(seed)
    total = float(rng.integers(1, 9))
    k = make_kernel(kind, m)
    # Distances on a coarse grid so neighbouring values are separated by
    # far more than float noise.
    d = np.unique(np.round(rng.uniform(0.0, total, 12), 3))
    values = k.evaluate(d)
    assert np.all(np.diff(values) < 0.0)


@settings(max_examples=300, deadline=None)
@given(kernel_kind, table_size, st.integers(0, 2**32 - 1))
def test_strictly_positive_on_domain(kind, m, seed):
    rng = np.random.default_rng(seed)
    total = float(rng.integers(1, 9))
    k = make_kernel(kind, m)
    d = np.concatenate([[0.0, total], rng.uniform(0.0, total, 10)])
    assert np.all(k.evaluate(d) > 0.0)


@settings(max_examples=200, deadline=None)
@given(kernel_kind, table_size, st.integers(0, 2**32 - 1))
def test_vector_eval_matches_scalar_eval(kind, m, seed):
    rng = np.random.default_rng(seed)
    total = float(rng.integers(1, 9))
    k = make_kernel(kind, m)
    d = rng.uniform(0.0, total, 8)
    vec = k.evaluate(d)
    for i, di in enumerate(d):
        assert vec[i] == float(k.evaluate(float(di)))


@settings(max_examples=200, deadline=None)
@given(kernel_kind, table_size)
def test_certificate_reports_consistent_fields(kind, m):
    k = make_kernel(kind, m)
    cert = certify_lead(k, m)
    assert cert.sepm >= cert.seap > 0.0
    assert cert.maxsap == (m - 1) * cert.seap
    assert cert.certified == (cert.sepm > cert.maxsap)


@settings(max_examples=150, deadline=None)
@given(kernel_kind, table_size, st.floats(0.5, 64.0))
def test_descriptor_round_trip(kind, m, scale):
    k = make_kernel(kind, m)
    payload = json.loads(json.dumps(kernel_to_dict(k)))
    # Older files may carry a constant factor; loading ignores it.
    back = kernel_from_dict({**payload, "scale": scale})
    assert back == k
    d = np.linspace(0.0, W, 9)
    assert np.array_equal(back.evaluate(d), k.evaluate(d))


def test_descriptor_round_trip_nested_spliced():
    k = Kernel("spliced", 9.0, base=make_kernel("gauss", 9))
    back = kernel_from_dict(kernel_to_dict(k))
    assert back.base.kind == "gauss"
    d = np.linspace(0.0, W, 9)
    assert np.array_equal(back.evaluate(d), k.evaluate(d))


def test_descriptor_rejects_garbage():
    with pytest.raises(KernelError):
        kernel_from_dict({"mld": 3.0})
    with pytest.raises(KernelError):
        kernel_from_dict({"kind": "nope", "mld": 3.0})


@settings(max_examples=300, deadline=None)
@given(kernel_kind, table_size, st.floats(0.0, 308.0, exclude_min=True))
def test_any_lead_gives_a_finite_positive_perfect_match_or_an_error(kind, m, log_mld):
    # Near mld = 2^53 the residue kinds round their residue onto -grow(0);
    # such a kernel must be refused, never built with eval(0) = inf.
    try:
        k = make_kernel(kind, m, mld_override=10.0**log_mld)
    except KernelError:
        return
    sepm = float(k.evaluate(0.0))
    assert math.isfinite(sepm) and sepm > 0.0
