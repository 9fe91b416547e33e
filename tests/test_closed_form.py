"""Closed-form fading averages and the hypoexponential density they use."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from fbrelay import (
    CANCELLATION_GUARD,
    DomainError,
    ExponentialDensity,
    FbrelayError,
    HypoexpParams,
    NumericError,
    TIE_TOLERANCE,
    hypoexp_cdf,
    hypoexp_pdf,
    linearize,
    linearized_outage_quadrature,
    mrc_pair_outage,
    ramp_coefficients,
    rayleigh_outage,
)
from fbrelay.oracles import fading_outage_quadrature_fixed


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


@pytest.mark.xfail(strict=True, reason="ROADMAP 0d: the closed form breaks its own-surrogate "
                   "contract where the ramp's lower breakpoint is negative")
def test_own_surrogate_contract_below_a_negative_lower_breakpoint():
    """rayleigh_outage is the exact average of its own ramp (to 1e-8) also
    where that ramp starts below t = 0.  At n = 150, R = 7.5 and 0 dB it
    gives 0.5979 against the ramp's quadrature 0.9838."""
    params = linearize(150, 7.5, 1.0)
    assert ramp_coefficients(params)[1] < 0.0  # the lower breakpoint
    closed = rayleigh_outage(150, 7.5, 1.0)
    own = linearized_outage_quadrature(params, ExponentialDensity(1.0), abs_tol=1e-12).value
    assert closed == pytest.approx(own, abs=1e-8)


def _powers(lo: float, hi: float, ends):
    return st.one_of(st.sampled_from(ends), st.floats(lo, hi).map(lambda e: 10.0 ** e))


_N = st.one_of(st.sampled_from([1, 100, 500, 2 ** 53 + 1, 2 ** 1023]),
               st.integers(1, 2 ** 1023), st.floats(0.0, 1023.0).map(lambda e: int(2.0 ** e)))
_R = _powers(-6.0, math.log10(600.0), [1e-6, 0.5, 64.0, 510.0, 600.0])
_SNR = _powers(-300.0, 300.0, [1e-300, 1e-154, 1e300])
#: (z, y): equal means, pairs inside the tie band, and any pair.
_MEANS = st.one_of(
    st.builds(lambda z: (z, z), _SNR),
    st.builds(lambda z, t: (z, z * (1.0 + t)), _SNR, st.floats(-TIE_TOLERANCE, TIE_TOLERANCE)),
    st.tuples(_SNR, _SNR),
)
_W = st.one_of(st.just(0.0), st.floats(0.0, 1e300), _powers(-300.0, 300.0, [1e300]))

#: (w, means) of tied tiny means whose density or CDF was a bare
#: ZeroDivisionError or NaN.
_TIED_TINY = [
    (1.0, (1e-170, 1e-170)),
    (7.054786815096254e+161, (1.1456659546598967e-82, 1.1456659551284043e-82)),
    (2.2304069953528045e+206, (1.210710324708557e-154, 1.2107103246462733e-154)),
]


def _check(f, *args, high: float = 1.0) -> None:
    """f(*args) is a finite value in [0, high], or raises an FbrelayError."""
    try:
        value = f(*args)
    except FbrelayError:
        return
    assert 0.0 <= value <= high and math.isfinite(value), (f.__name__, args, value)


@pytest.mark.filterwarnings("ignore:blocklength n=")
class TestWholeInputRange:
    """Over n from 1 to 2^1023, R from 1e-6 to 600, SNRs and means over
    10^+-300 and w over [0, 1e300], each closed form, linearize, the
    hypoexponential density and CDF, and the fixed rule give a finite value
    in range (a probability, or a density >= 0) or raise an FbrelayError."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_N, _R, _SNR, _MEANS)
    def test_closed_forms(self, n, rate, snr, means):
        pair = HypoexpParams(*means)
        for convention in ("nats", "bits"):
            _check(rayleigh_outage, n, rate, snr, convention)
            for ramp in ("zeta", "mu"):
                _check(mrc_pair_outage, n, rate, pair, convention, ramp)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_N, _R, _SNR)
    def test_linearize(self, n, rate, snr):
        for convention in ("nats", "bits"):
            try:
                params = linearize(n, rate, snr, convention)
            except FbrelayError:
                continue
            for name in ("theta", "mu", "rho_lo", "rho_hi", "zeta"):
                assert math.isfinite(getattr(params, name)), (name, params)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_W, _MEANS)
    @example(*_TIED_TINY[0])
    @example(*_TIED_TINY[1])
    @example(*_TIED_TINY[2])
    def test_densities(self, w, means):
        params = HypoexpParams(*means)
        _check(hypoexp_pdf, w, params, high=math.inf)
        _check(hypoexp_cdf, w, params)

    # the rule's nodes are numpy floats, which warn where a tied density's
    # first form underflows or overflows
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(_N, _R, st.one_of(_SNR.map(lambda z: (z,)), _MEANS))
    @example(500, 0.5, (1e-170, 1e-170))
    @example(10 ** 300, 64.0, (2.938586904098445e-294, 2.9385869041013838e-294))
    def test_fixed_rule(self, n, rate, means):
        channel = means[0] if len(means) == 1 else HypoexpParams(*means)
        _check(fading_outage_quadrature_fixed, n, rate, channel)
