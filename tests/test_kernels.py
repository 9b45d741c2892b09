import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldpred import (
    KERNEL_KINDS,
    KernelError,
    certify_lead,
    inverse_additive_residue,
    make_kernel,
    splice,
    with_scale,
)
from fieldpred.kernels import kernel_from_dict, kernel_to_dict

W = 6.0  # a convenient total weight for most tests


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
        k = make_kernel("bridge", 10, W)
        assert k.mld == 10.0
        assert k.evaluate(0.0) == 1.0
        assert float(k.evaluate(2.0)) == pytest.approx(0.01, rel=1e-15)

    def test_pow_2_exact_at_integers(self):
        k = make_kernel("pow_2", 4, W)
        assert k.evaluate(0.0) == 1.0
        assert k.evaluate(1.0) == 0.5
        assert k.evaluate(3.0) == 0.125

    def test_pow_e_and_gauss(self):
        pe = make_kernel("pow_e", 4, W)
        ga = make_kernel("gauss", 4, W)
        assert float(pe.evaluate(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert float(ga.evaluate(2.0)) == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert ga.evaluate(0.0) == 1.0

    def test_newton(self):
        k = make_kernel("newton", 4, W)
        assert float(k.evaluate(0.0)) == 4.0
        assert float(k.evaluate(1.0)) == 0.8

    def test_adj_pow_2_residue_closed_form(self):
        k = make_kernel("adj_pow_2", 5, W)
        assert k.adrez == -0.75
        assert float(k.evaluate(0.0)) == 4.0
        assert float(k.evaluate(1.0)) == 0.8

    def test_spliced_lifts_only_the_perfect_match(self):
        base = make_kernel("pow_2", 8, W)
        k = splice(base, 8.0)
        assert float(k.evaluate(0.0)) == 4.0
        assert float(k.evaluate(1.0)) == 0.5
        half = float(k.evaluate(0.5))
        assert half == pytest.approx(2.0**-0.5, rel=1e-15)
        assert half < float(k.evaluate(0.0))

    def test_make_kernel_spliced_defaults_to_pow_2_base(self):
        k = make_kernel("spliced", 8, W)
        assert k.base.kind == "pow_2"
        assert float(k.evaluate(0.0)) == 4.0

    def test_decay_integer_points(self):
        ka = make_kernel("decay_a", 10, W)
        kb = make_kernel("decay_b", 10, W)
        assert ka.evaluate(0.0) == 1.0
        assert kb.evaluate(0.0) == 1.0
        assert float(ka.evaluate(1.0)) == pytest.approx(0.1, rel=1e-15)
        assert float(kb.evaluate(1.0)) == pytest.approx(0.1, rel=1e-15)
        assert float(ka.evaluate(2.0)) == pytest.approx(10.0**-1.5, rel=1e-14)
        assert float(kb.evaluate(2.0)) == pytest.approx(10.0**-1.25, rel=1e-14)

    def test_decay_interpolates_between_integers(self):
        ka = make_kernel("decay_a", 10, W)
        kb = make_kernel("decay_b", 10, W)
        for d in (0.25, 1.5, 2.75, 3.125):
            assert float(ka.evaluate(d)) == pytest.approx(
                10.0 ** -harmonic_exponent(d, 1), rel=1e-13
            )
            assert float(kb.evaluate(d)) == pytest.approx(
                10.0 ** -harmonic_exponent(d, 2), rel=1e-13
            )


class TestCertification:
    def test_bridge_100_worked_example(self):
        cert = certify_lead(make_kernel("bridge", 100, W), 100)
        assert cert.sepm == 1.0
        assert cert.seap == pytest.approx(0.01, rel=1e-15)
        assert cert.maxsap == pytest.approx(0.99, rel=1e-15)
        assert cert.certified is True

    def test_pow_2_fails_at_four_entries(self):
        cert = certify_lead(make_kernel("pow_2", 4, W), 4)
        assert (cert.sepm, cert.seap, cert.maxsap) == (1.0, 0.5, 1.5)
        assert cert.certified is False

    def test_newton_worked_example(self):
        cert = certify_lead(make_kernel("newton", 4, W), 4)
        assert cert.sepm == 4.0
        assert cert.seap == 0.8
        assert cert.maxsap == pytest.approx(2.4, rel=1e-15)
        assert cert.certified is True

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 100, 1000])
    def test_bridge_certified_for_every_table_size(self, m):
        cert = certify_lead(make_kernel("bridge", m, W), m)
        assert cert.certified is True

    @pytest.mark.parametrize("m", [2, 3, 5, 10, 100, 1000])
    def test_adj_pow_2_lead_ratio_is_the_entry_count(self, m):
        cert = certify_lead(make_kernel("adj_pow_2", m, W), m)
        assert cert.certified is True
        assert cert.sepm / cert.seap == pytest.approx(m, rel=1e-12)

    @pytest.mark.parametrize("kind", ["decay_a", "decay_b"])
    @pytest.mark.parametrize("m", [2, 5, 100])
    def test_decay_certified(self, kind, m):
        # H(1) = Q(1) = 1, so the first step drops by the full lead factor.
        cert = certify_lead(make_kernel(kind, m, W), m)
        assert cert.certified is True
        assert cert.sepm / cert.seap == pytest.approx(m, rel=1e-12)

    def test_spliced_certified_at_its_own_lead(self):
        k = splice(make_kernel("pow_2", 12, W), 12.0)
        cert = certify_lead(k, 12)
        assert cert.certified is True
        assert cert.sepm / cert.seap == pytest.approx(12.0, rel=1e-12)

    def test_certificate_validates_its_fields(self):
        with pytest.raises(KernelError):
            from fieldpred.kernels import LeadCertificate

            LeadCertificate(sepm=0.5, seap=0.8, maxsap=1.0, certified=False)


class TestInverseAdditiveResidue:
    def test_pow_2_growth_reproduces_adj_pow_2(self):
        built = inverse_additive_residue("pow_2", 5.0, W)
        closed = make_kernel("adj_pow_2", 5, W)
        assert built.adrez == pytest.approx(-0.75, rel=1e-15)
        for d in range(7):
            assert float(built.evaluate(float(d))) == pytest.approx(
                float(closed.evaluate(float(d))), rel=1e-12
            )

    def test_square_growth_reproduces_newton(self):
        built = inverse_additive_residue("square", 5.0, W)
        newton = make_kernel("newton", 4, W)
        for d in (0.0, 1.0, 2.0, 3.0):
            assert float(built.evaluate(d)) == float(newton.evaluate(d))

    def test_lead_ratio_is_mld(self):
        for grow in ("pow_2", "pow_e", "square", "linear"):
            k = inverse_additive_residue(grow, 7.0, W)
            assert float(k.evaluate(0.0)) / float(k.evaluate(1.0)) == pytest.approx(
                7.0, rel=1e-12
            )

    def test_unknown_growth_rejected(self):
        with pytest.raises(KernelError, match="growth"):
            inverse_additive_residue("cubic", 5.0, W)

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(KernelError, match="denominator"):
            inverse_additive_residue("pow_e", 1e17, W)


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(KernelError, match="unknown kernel kind"):
            make_kernel("sinc", 4, W)

    def test_adj_pow_2_single_entry_degenerate(self):
        with pytest.raises(KernelError, match="single-entry"):
            make_kernel("adj_pow_2", 1, W)
        with pytest.raises(KernelError, match="single-entry"):
            make_kernel("inv_additive_residue", 1, W)

    def test_mld_override_must_exceed_one(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(KernelError, match="mld_override"):
                make_kernel("bridge", 10, W, mld_override=bad)

    def test_splice_mld_must_exceed_one(self):
        base = make_kernel("pow_2", 4, W)
        with pytest.raises(KernelError):
            splice(base, 1.0)

    def test_spliced_base_cannot_be_spliced(self):
        once = splice(make_kernel("pow_2", 4, W), 4.0)
        with pytest.raises(KernelError, match="spliced"):
            splice(once, 4.0)

    def test_scale_must_be_positive(self):
        k = make_kernel("bridge", 10, W)
        with pytest.raises(KernelError):
            with_scale(k, 0.0)
        with pytest.raises(KernelError):
            with_scale(k, -3.0)

    def test_single_row_table_still_gets_a_usable_bridge(self):
        k = make_kernel("bridge", 1, W)
        assert k.mld == 2.0
        assert float(k.evaluate(1.0)) == 0.5


kernel_kind = st.sampled_from(KERNEL_KINDS)
table_size = st.integers(2, 50)


@settings(max_examples=300, deadline=None)
@given(kernel_kind, table_size, st.integers(0, 2**32 - 1))
def test_strictly_decreasing_on_domain(kind, m, seed):
    rng = np.random.default_rng(seed)
    total = float(rng.integers(1, 9))
    k = make_kernel(kind, m, total)
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
    k = make_kernel(kind, m, total)
    d = np.concatenate([[0.0, total], rng.uniform(0.0, total, 10)])
    assert np.all(k.evaluate(d) > 0.0)


@settings(max_examples=200, deadline=None)
@given(kernel_kind, table_size, st.integers(0, 2**32 - 1))
def test_vector_eval_matches_scalar_eval(kind, m, seed):
    rng = np.random.default_rng(seed)
    total = float(rng.integers(1, 9))
    k = make_kernel(kind, m, total)
    d = rng.uniform(0.0, total, 8)
    vec = k.evaluate(d)
    for i, di in enumerate(d):
        assert vec[i] == float(k.evaluate(float(di)))


@settings(max_examples=200, deadline=None)
@given(kernel_kind, table_size)
def test_certificate_reports_consistent_fields(kind, m):
    k = make_kernel(kind, m, W)
    cert = certify_lead(k, m)
    assert cert.sepm >= cert.seap > 0.0
    assert cert.maxsap == (m - 1) * cert.seap
    assert cert.certified == (cert.sepm > cert.maxsap)


@settings(max_examples=200, deadline=None)
@given(kernel_kind, table_size, st.floats(0.001, 1000.0))
def test_scaling_multiplies_pointwise(kind, m, factor):
    k = make_kernel(kind, m, W)
    scaled = with_scale(k, factor)
    d = np.linspace(0.0, W, 9)
    assert np.array_equal(scaled.evaluate(d), k.evaluate(d) * factor)


@settings(max_examples=150, deadline=None)
@given(kernel_kind, table_size, st.floats(0.5, 64.0))
def test_descriptor_round_trip(kind, m, scale):
    k = with_scale(make_kernel(kind, m, W), scale)
    payload = json.loads(json.dumps(kernel_to_dict(k)))
    back = kernel_from_dict(payload, W)
    assert back.kind == k.kind
    assert back.mld == k.mld
    assert back.adrez == k.adrez
    assert back.grow_kind == k.grow_kind
    assert back.scale == k.scale
    d = np.linspace(0.0, W, 9)
    assert np.array_equal(back.evaluate(d), k.evaluate(d))


def test_descriptor_round_trip_nested_spliced():
    k = splice(make_kernel("gauss", 9, W), 9.0)
    back = kernel_from_dict(kernel_to_dict(k), W)
    assert back.base.kind == "gauss"
    d = np.linspace(0.0, W, 9)
    assert np.array_equal(back.evaluate(d), k.evaluate(d))


def test_descriptor_rejects_garbage():
    with pytest.raises(KernelError):
        kernel_from_dict({"mld": 3.0}, W)
    with pytest.raises(KernelError):
        kernel_from_dict({"kind": "nope", "mld": 3.0}, W)


@settings(max_examples=300, deadline=None)
@given(kernel_kind, table_size, st.floats(0.0, 308.0, exclude_min=True))
def test_any_lead_gives_a_finite_positive_perfect_match_or_an_error(kind, m, log_mld):
    # Near mld = 2^53 the residue kinds round their residue onto -grow(0);
    # such a kernel must be refused, never built with eval(0) = inf.
    try:
        k = make_kernel(kind, m, W, mld_override=10.0**log_mld)
    except KernelError:
        return
    sepm = float(k.evaluate(0.0))
    assert math.isfinite(sepm) and sepm > 0.0
