"""Scalar primitives: capacity, dispersion, Q pair, rate/outage inverse pair."""

from __future__ import annotations

import math
import sys
import warnings

import pytest
from hypothesis import given, strategies as st

from fbrelay import (
    DomainError,
    LOG2_E,
    MIN_BLOCKLENGTH,
    RateSpec,
    SnrValue,
    awgn_outage,
    channel_dispersion,
    max_coding_rate,
    outage_given_snr,
    q_func,
    q_inv,
    shannon_capacity,
)


class TestSnrValue:
    def test_db_roundtrip(self):
        s = SnrValue.from_db(10.0)
        assert s.value == pytest.approx(10.0, rel=1e-15)
        assert s.to_db() == pytest.approx(10.0, rel=1e-15)
        assert float(s) == s.value

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(DomainError):
            SnrValue(-0.1)
        with pytest.raises(DomainError):
            SnrValue(math.inf)
        with pytest.raises(DomainError):
            SnrValue.from_db(math.nan)

    def test_zero_is_a_ratio_but_has_no_db(self):
        s = SnrValue(0.0)
        with pytest.raises(DomainError):
            s.to_db()


class TestRateSpec:
    def test_rate_is_exact_ratio(self):
        assert RateSpec(250, 500).rate == 0.5
        assert RateSpec(125, 1000).rate == 0.125

    def test_short_blocklength_gate(self):
        with pytest.raises(DomainError):
            RateSpec(10, MIN_BLOCKLENGTH - 1)
        with pytest.warns(UserWarning):
            spec = RateSpec(10, MIN_BLOCKLENGTH - 1, allow_short=True)
        assert spec.n == MIN_BLOCKLENGTH - 1

    @pytest.mark.parametrize("k,n", [(0, 500), (-1, 500), (250, 0), (2.5, 500), (True, 500)])
    def test_rejects_bad_integers(self, k, n):
        with pytest.raises(DomainError):
            RateSpec(k, n)

    @pytest.mark.parametrize("k,n", [(10 ** 400, 500), (250, 10 ** 400), (1, 2 ** 1024)],
                             ids=["k", "n", "n-2^1024"])
    def test_rejects_integers_past_the_largest_double(self, k, n):
        with pytest.raises(DomainError, match="exceeds the largest double"):
            RateSpec(k, n)
        largest = int(sys.float_info.max)
        assert RateSpec(min(k, largest), min(n, largest)).rate == min(k, largest) / min(n, largest)


class TestCapacityAndDispersion:
    def test_capacity_unit_point(self):
        assert shannon_capacity(1.0) == pytest.approx(1.0, rel=1e-15)
        assert shannon_capacity(0.0) == 0.0

    def test_dispersion_limits(self):
        assert channel_dispersion(0.0) == 0.0
        assert channel_dispersion(1e9) == pytest.approx(1.0, rel=1e-8)
        # V(1) = 3/4 exactly
        assert channel_dispersion(1.0) == pytest.approx(0.75, rel=1e-15)

    def test_dispersion_monotone_and_bounded(self):
        rhos = [10.0 ** (db / 10.0) for db in range(-20, 41, 2)]
        vals = [channel_dispersion(r) for r in rhos]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestQPair:
    def test_frozen_quantiles(self):
        assert q_inv(0.1) == pytest.approx(1.2815515655446004, rel=1e-13)
        assert q_inv(1e-3) == pytest.approx(3.0902323061678135, rel=1e-13)
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_center_and_symmetry(self):
        assert q_func(0.0) == 0.5
        for w in (0.3, 1.7, 4.2):
            assert q_func(-w) == pytest.approx(1.0 - q_func(w), rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_inverse_roundtrip(self, p):
        assert q_func(q_inv(p)) == pytest.approx(p, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_func(math.nan)
        for p in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(DomainError):
                q_inv(p)


class TestRateOutageInversePair:
    def test_frozen_operating_point(self):
        r = max_coding_rate(500, 1e-3, 10.0)
        assert r == pytest.approx(3.2608776357952487, rel=1e-13)
        assert awgn_outage(500, r, 10.0) == pytest.approx(1e-3, rel=1e-10)

    @given(
        st.integers(min_value=100, max_value=2000),
        st.floats(min_value=1e-6, max_value=0.4),
        st.floats(min_value=-5.0, max_value=30.0),
    )
    def test_inverse_identity(self, n, eps, db):
        rho = 10.0 ** (db / 10.0)
        r = max_coding_rate(n, eps, rho)
        if r <= 0.0:  # no positive rate meets the target; nothing to invert
            return
        assert awgn_outage(n, r, rho) == pytest.approx(eps, rel=1e-8)

    def test_rate_shrinks_with_target(self):
        rates = [max_coding_rate(500, e, 10.0) for e in (1e-6, 1e-4, 1e-2, 0.3)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_log2e_is_in_the_penalty_term(self):
        # at eps = Q(1) the rate penalty is exactly sqrt(V/n)*log2(e)
        eps = q_func(1.0)
        penalty = shannon_capacity(10.0) - max_coding_rate(500, eps, 10.0)
        assert penalty == pytest.approx(
            math.sqrt(channel_dispersion(10.0) / 500.0) * LOG2_E, rel=1e-12
        )


class TestOutageGivenSnr:
    def test_total_at_nonpositive_snr(self):
        assert outage_given_snr(500, 0.5, 0.0) == 1.0
        assert outage_given_snr(500, 0.5, -3.0) == 1.0

    def test_matches_strict_variant_inside_domain(self):
        for db in (0.0, 10.0, 20.0):
            rho = 10.0 ** (db / 10.0)
            assert outage_given_snr(500, 0.5, rho) == pytest.approx(
                awgn_outage(500, 0.5, rho), rel=1e-12
            )

    def test_monotone_decreasing_in_snr(self):
        vals = [outage_given_snr(500, 0.5, rho) for rho in (0.1, 0.3, 1.0, 3.0, 10.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_saturates_cleanly(self):
        assert outage_given_snr(500, 0.5, 1e12) == 0.0
        assert outage_given_snr(500, 8.0, 1e-12) == 1.0

    @pytest.mark.parametrize("rho", [1e160, 1e305])
    def test_huge_snr_past_the_product_overflow(self, rho):
        # rho * (2 + rho) is inf here; it read 0.5 at 1e160 and NaN at 1e305
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outage_given_snr(500, 0.5, rho) == 0.0
