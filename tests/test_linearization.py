"""The clipped-linear surrogate: parameter construction and both ramp families."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from fbrelay import (
    DomainError,
    LinConvention,
    LinearizationParams,
    NumericError,
    SnrValue,
    linearize,
    ramp_coefficients,
    ramp_eval,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)

# reference operating point: n=500, R=1/2, 10 dB
REF = dict(n=500, rate=0.5, power=10.0)


def ref_params(convention="nats"):
    return linearize(REF["n"], REF["rate"], REF["power"], convention)


class TestFrozenReferencePoint:
    """Pinned doubles for the reference surrogate, both conventions."""

    def test_nats(self):
        p = ref_params("nats")
        assert p.theta == pytest.approx(0.04142135623730951, rel=1e-15)
        assert p.mu == pytest.approx(6.805309311948881, rel=1e-14)
        assert p.zeta == pytest.approx(170.58380738940704, rel=1e-14)
        assert p.rho_lo == pytest.approx(-0.14274575209895807, rel=1e-13)
        assert p.rho_hi == pytest.approx(0.22558846457357706, rel=1e-13)

    def test_bits(self):
        p = ref_params("bits")
        assert p.mu == pytest.approx(8.920620580763856, rel=1e-14)
        # theta carries no convention: it is the capacity threshold
        assert p.theta == ref_params("nats").theta

    def test_zeta_identity_holds_exactly(self):
        for conv in ("nats", "bits"):
            p = ref_params(conv)
            assert p.zeta == p.power.value * SQRT_2PI * p.mu


class TestLinearize:
    def test_mu_grows_like_sqrt_n(self):
        mus = [linearize(n, 0.5, 10.0).mu for n in (100, 400, 1600)]
        assert mus[1] / mus[0] == pytest.approx(2.0, rel=1e-12)
        assert mus[2] / mus[1] == pytest.approx(2.0, rel=1e-12)

    def test_power_one_moves_theta_not_mu(self):
        p1 = linearize(500, 0.5, 1.0)
        p10 = linearize(500, 0.5, 10.0)
        assert p1.mu == p10.mu
        assert p1.theta == pytest.approx(10.0 * p10.theta, rel=1e-15)

    def test_convention_parse_accepts_enum_and_string(self):
        assert linearize(500, 0.5, 10.0, LinConvention.BITS).convention is LinConvention.BITS
        assert linearize(500, 0.5, 10.0, " BITS ").convention is LinConvention.BITS
        with pytest.raises(DomainError):
            linearize(500, 0.5, 10.0, "decimal")

    @pytest.mark.parametrize(
        "n,rate,power",
        [(0, 0.5, 10.0), (500, 0.0, 10.0), (500, -1.0, 10.0),
         (500, math.inf, 10.0), (500, 0.5, 0.0), (500, 0.5, -2.0)],
    )
    def test_domain_errors(self, n, rate, power):
        with pytest.raises(DomainError):
            linearize(n, rate, power)

    def test_window_absorption_is_a_numeric_error(self):
        # threshold ~7e15 swallows the ~4e-4 half-width in double precision
        with pytest.raises(NumericError):
            linearize(10000, 1e-4, SnrValue.from_db(-200.0))


class TestParamsValidation:
    def test_breakpoints_must_straddle(self):
        p = ref_params()
        with pytest.raises(DomainError):
            dataclasses.replace(p, rho_lo=p.theta + 0.01)

    def test_breakpoints_must_be_symmetric(self):
        p = ref_params()
        with pytest.raises(DomainError):
            dataclasses.replace(p, rho_hi=p.rho_hi + 1e-6)

    def test_zeta_identity_is_enforced(self):
        p = ref_params()
        with pytest.raises(DomainError):
            dataclasses.replace(p, zeta=p.zeta * (1.0 + 1e-9))


class TestRampFamilies:
    def test_slope_times_halfwidth_is_half(self):
        p = ref_params()
        for family in ("zeta", "mu"):
            m, lo, hi = ramp_coefficients(p, family)
            assert m * (hi - lo) / 2.0 == pytest.approx(0.5, rel=1e-12)

    def test_families_differ_by_power_times_sqrt_2pi(self):
        p = ref_params()
        mz, lo_z, hi_z = ramp_coefficients(p, "zeta")
        mm, lo_m, hi_m = ramp_coefficients(p, "mu")
        assert mz / mm == pytest.approx(p.power.value * SQRT_2PI, rel=1e-12)
        assert (hi_m - lo_m) / (hi_z - lo_z) == pytest.approx(
            p.power.value * SQRT_2PI, rel=1e-12
        )

    def test_mu_family_uses_stored_breakpoints(self):
        p = ref_params()
        _, lo, hi = ramp_coefficients(p, "mu")
        assert lo == pytest.approx(p.rho_lo, rel=1e-15)
        assert hi == pytest.approx(p.rho_hi, rel=1e-15)

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            ramp_coefficients(ref_params(), "sigma")

    def test_half_at_threshold_both_families(self):
        p = ref_params()
        assert ramp_eval(p.theta, p, "zeta") == 0.5
        assert ramp_eval(p.theta, p, "mu") == 0.5

    def test_clipping(self):
        p = ref_params()
        m, lo, hi = ramp_coefficients(p, "zeta")
        assert ramp_eval(lo - 1.0, p) == 1.0
        assert ramp_eval(hi + 1.0, p) == 0.0

    def test_breakpoint_continuity(self):
        p = ref_params()
        for family in ("zeta", "mu"):
            m, lo, hi = ramp_coefficients(p, family)
            for edge, plateau in ((lo, 1.0), (hi, 0.0)):
                inside = ramp_eval(edge + (1e-14 if edge is lo else -1e-14), p, family)
                assert abs(ramp_eval(edge, p, family) - plateau) <= 1e-12
                assert abs(inside - plateau) <= 1e-12


@given(
    st.integers(min_value=100, max_value=2000),
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=-10.0, max_value=30.0),
    st.sampled_from(["nats", "bits"]),
    st.sampled_from(["zeta", "mu"]),
)
def test_ramp_is_a_nonincreasing_probability(n, rate, db, convention, family):
    p = linearize(n, rate, SnrValue.from_db(db), convention)
    _, lo, hi = ramp_coefficients(p, family)
    ts = [lo - 1.0, lo, lo + 0.25 * (hi - lo), p.theta, hi - 0.25 * (hi - lo), hi, hi + 1.0]
    vals = [ramp_eval(t, p, family) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
