"""Closed-form fading averages and the hypoexponential density they use."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fbrelay import (
    CANCELLATION_GUARD,
    DomainError,
    HypoexpParams,
    NumericError,
    TIE_TOLERANCE,
    hypoexp_cdf,
    hypoexp_pdf,
    mrc_pair_outage,
    rayleigh_outage,
)


class TestHypoexpParams:
    def test_tie_detection(self):
        assert HypoexpParams(10.0, 10.0).equal_means
        assert HypoexpParams(10.0, 10.0 * (1.0 + 0.5 * TIE_TOLERANCE)).equal_means
        assert not HypoexpParams(10.0, 10.0 * (1.0 + 10.0 * TIE_TOLERANCE)).equal_means

    @pytest.mark.parametrize("oz,oy", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (math.nan, 1.0)])
    def test_rejects_nonpositive_means(self, oz, oy):
        with pytest.raises(DomainError):
            HypoexpParams(oz, oy)


class TestHypoexpDensity:
    @pytest.mark.parametrize("params", [HypoexpParams(10.0, 10.0), HypoexpParams(10.0, 2.5)])
    def test_normalization_and_mean(self, params):
        total, _ = quad(lambda w: hypoexp_pdf(w, params), 0.0, math.inf)
        assert total == pytest.approx(1.0, abs=1e-9)
        mean, _ = quad(lambda w: w * hypoexp_pdf(w, params), 0.0, math.inf)
        assert mean == pytest.approx(params.omega_z + params.omega_y, rel=1e-8)

    @pytest.mark.parametrize("params", [HypoexpParams(10.0, 10.0), HypoexpParams(10.0, 2.5)])
    def test_cdf_matches_integrated_pdf(self, params):
        for w in (0.5, 3.0, 12.0, 40.0):
            integral, _ = quad(lambda t: hypoexp_pdf(t, params), 0.0, w)
            assert hypoexp_cdf(w, params) == pytest.approx(integral, abs=1e-10)

    def test_cdf_boundaries(self):
        params = HypoexpParams(10.0, 2.5)
        assert hypoexp_cdf(0.0, params) == 0.0
        assert hypoexp_cdf(1e4, params) == pytest.approx(1.0, abs=1e-12)

    def test_sum_is_never_tiny(self):
        # a sum of two positive draws has vanishing density at the origin
        assert hypoexp_pdf(0.0, HypoexpParams(10.0, 2.5)) == 0.0
        assert hypoexp_pdf(0.0, HypoexpParams(10.0, 10.0)) == 0.0

    def test_support_enforced(self):
        with pytest.raises(DomainError):
            hypoexp_pdf(-1.0, HypoexpParams(10.0, 2.5))
        with pytest.raises(DomainError):
            hypoexp_cdf(-1.0, HypoexpParams(10.0, 2.5))

    def test_equal_branch_is_continuous_in_the_means(self):
        # just outside the tie tolerance the distinct-means formula must agree
        # with the equal-means limit to many digits
        w = 7.0
        equal = hypoexp_cdf(w, HypoexpParams(10.0, 10.0))
        near = hypoexp_cdf(w, HypoexpParams(10.0, 10.0 * (1.0 + 1e-7)))
        assert near == pytest.approx(equal, rel=1e-6)


class TestRayleighOutage:
    def test_frozen_reference_values(self):
        assert rayleigh_outage(500, 0.5, 10.0, "nats") == pytest.approx(
            0.0405665829756156, rel=1e-13
        )
        assert rayleigh_outage(500, 0.5, 10.0, "bits") == pytest.approx(
            0.04057019130595359, rel=1e-13
        )

    def test_monotone_in_snr_rate_and_blocklength(self):
        snrs = [rayleigh_outage(500, 0.5, o) for o in (1.0, 3.0, 10.0, 30.0, 100.0)]
        assert all(b < a for a, b in zip(snrs, snrs[1:]))
        rates = [rayleigh_outage(500, r, 10.0) for r in (0.25, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        # at fixed rate the ramp half-width shrinks like 1/sqrt(n), and a
        # symmetric ramp against a falling density undershoots the step: the
        # outage climbs with n toward the quasi-static limit, never past it
        ns = [rayleigh_outage(n, 0.5, 10.0) for n in (100, 200, 500, 1000)]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert ns[-1] < 1.0 - math.exp(-(2.0 ** 0.5 - 1.0) / 10.0)

    def test_tiny_rate_stays_positive_and_tiny(self):
        eps = rayleigh_outage(10000, 1e-4, 10.0)
        assert eps == pytest.approx(6.931635648529307e-06, rel=1e-12)
        assert 0.0 < eps < 1e-4

    def test_surrogate_blowup_is_a_numeric_error(self):
        with pytest.raises(NumericError):
            rayleigh_outage(1, 20.0, 1e-6)


class TestMrcPairOutage:
    def test_frozen_reference_values(self):
        assert mrc_pair_outage(500, 0.5, HypoexpParams(10.0, 10.0)) == pytest.approx(
            0.0008428134189953432, rel=1e-13
        )
        assert mrc_pair_outage(500, 0.5, HypoexpParams(10.0, 2.5)) == pytest.approx(
            0.0032336813097553355, rel=1e-13
        )
        assert mrc_pair_outage(500, 0.5, HypoexpParams(10.0, 10.0), "bits") == pytest.approx(
            0.00083935451974914, rel=1e-13
        )
        assert mrc_pair_outage(500, 0.5, HypoexpParams(10.0, 2.5), "bits") == pytest.approx(
            0.0032214956767603552, rel=1e-13
        )

    def test_degenerate_rate_pairs(self):
        assert mrc_pair_outage(10000, 1e-4, HypoexpParams(10.0, 10.0)) == pytest.approx(
            6.668304306374869e-11, rel=1e-9
        )
        assert mrc_pair_outage(10000, 1e-4, HypoexpParams(10.0, 2.5)) == pytest.approx(
            3.06560347477595e-10, rel=1e-9
        )

    def test_guard_reroute_is_continuous(self):
        # the distinct-means branch just outside the cancellation guard must
        # line up with the midpoint equal-means value used just inside it
        base = 10.0
        outside = mrc_pair_outage(500, 0.5, HypoexpParams(base, base * (1.0 + 3.0 * CANCELLATION_GUARD)))
        inside = mrc_pair_outage(500, 0.5, HypoexpParams(base, base * (1.0 + 0.3 * CANCELLATION_GUARD)))
        equal = mrc_pair_outage(500, 0.5, HypoexpParams(base, base))
        assert inside == pytest.approx(equal, rel=1e-5)
        assert outside == pytest.approx(equal, rel=1e-4)

    def test_symmetric_in_the_branch_means(self):
        a = mrc_pair_outage(500, 0.5, HypoexpParams(10.0, 2.5))
        b = mrc_pair_outage(500, 0.5, HypoexpParams(2.5, 10.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_mu_family_variant_differs_but_stays_probabilistic(self):
        zeta = mrc_pair_outage(500, 0.5, HypoexpParams(10.0, 2.5))
        mu = mrc_pair_outage(500, 0.5, HypoexpParams(10.0, 2.5), ramp="mu")
        assert 0.0 <= mu <= 1.0
        assert mu != zeta

    @pytest.mark.parametrize("pair", [(0.005, 7e-7), (7e-7, 7e-7)], ids=["unequal", "equal"])
    def test_exp_overflow_is_a_numeric_error(self, pair):
        # a negative lower breakpoint over a tiny branch mean: exp(-lo/omega)
        # overflows double precision in either density branch
        with pytest.raises(NumericError, match="exp overflowed"):
            mrc_pair_outage(100, 0.01, HypoexpParams(*pair))

    def test_monotone_in_either_mean(self):
        vals = [mrc_pair_outage(500, 0.5, HypoexpParams(10.0, oy)) for oy in (1.0, 2.5, 10.0, 40.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


@settings(max_examples=60)
@given(
    st.integers(min_value=100, max_value=1000),
    st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=-5.0, max_value=25.0),
    st.floats(min_value=-12.0, max_value=0.0),
    st.sampled_from(["nats", "bits"]),
)
def test_pair_never_exceeds_its_stronger_branch(n, rate, db_z, rel_db_y, convention):
    """Adding a second branch can only help: eps_pair <= eps_single(stronger)."""
    omega_z = 10.0 ** (db_z / 10.0)
    omega_y = omega_z * 10.0 ** (rel_db_y / 10.0)
    pair = mrc_pair_outage(n, rate, HypoexpParams(omega_z, omega_y), convention)
    single = rayleigh_outage(n, rate, omega_z, convention)
    assert pair <= single + 1e-12


@settings(max_examples=40)
@given(
    st.integers(min_value=100, max_value=1000),
    st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    st.floats(min_value=-5.0, max_value=30.0),
)
def test_closed_forms_are_probabilities(n, rate, db):
    omega = 10.0 ** (db / 10.0)
    assert 0.0 <= rayleigh_outage(n, rate, omega) <= 1.0
    assert 0.0 <= mrc_pair_outage(n, rate, HypoexpParams(omega, 0.7 * omega)) <= 1.0
