"""Oracle layer: adaptive/fixed quadrature and the seeded Monte Carlo sampler.

The Monte Carlo determinism tests pin exact doubles: the sampler is defined
to be bit-reproducible for a given (trials, seed, stream, partitions), with
a fixed-order partition combine that makes the worker count irrelevant.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import BLOCKLENGTHS, RATES
from fbrelay import (
    ConvergenceError,
    DomainError,
    EstimateMethod,
    ExponentialDensity,
    HypoexpParams,
    NumericError,
    OutageEstimate,
    fading_outage_mc,
    fading_outage_quadrature,
    fading_outage_quadrature_fixed,
    hypoexp_pdf,
    linearize,
    linearized_outage_quadrature,
    mrc_pair_outage,
    outage_given_snr,
    rayleigh_outage,
)
from fbrelay.oracles import (
    _GK21_NODES,
    _GK21_WEIGHTS,
    _PANEL_LIMIT,
    _conditional_outage_np,
    _density_pdf,
    _integrate_pieces,
)

TRUTH_SINGLE = 0.040768730966325335  # n=500 R=1/2 mean 10
TRUTH_PAIR_UNEQ = 0.0032688335666099812  # means (10, 2.5)
TRUTH_PAIR_EQ = 0.0008522397419654721  # means (10, 10)


class TestGaussKronrodRule:
    """The hand-entered qk21 table: a wrong digit breaks one of these."""

    @staticmethod
    def _moment_errors(weights, degrees):
        exact = [2.0 / (d + 1) if d % 2 == 0 else 0.0 for d in degrees]
        return [abs(float(np.dot(weights, _GK21_NODES**d)) - e) for d, e in zip(degrees, exact)]

    def test_kronrod_weights_exact_to_degree_31(self):
        assert max(self._moment_errors(_GK21_WEIGHTS[:, 0], range(32))) < 1e-15

    def test_gauss_weights_exact_to_degree_19(self):
        assert max(self._moment_errors(_GK21_WEIGHTS[:, 1], range(20))) < 1e-15
        # and no further: x^20 is where a 10-point Gauss rule first errs
        assert self._moment_errors(_GK21_WEIGHTS[:, 1], [20])[0] > 1e-6

    def test_weight_sums_and_symmetry(self):
        assert _GK21_WEIGHTS.sum(axis=0) == pytest.approx([2.0, 2.0], abs=1e-15)
        assert np.array_equal(_GK21_NODES, -_GK21_NODES[::-1])
        assert np.array_equal(_GK21_WEIGHTS, _GK21_WEIGHTS[::-1])
        gauss_nodes = _GK21_NODES[_GK21_WEIGHTS[:, 1] > 0]
        assert gauss_nodes == pytest.approx(np.polynomial.legendre.leggauss(10)[0], abs=1e-15)

    def test_smooth_integrand_over_several_cuts(self):
        value = _integrate_pieces(np.exp, [0.0, 0.5, 0.5, 3.0], 1e-13)
        assert value == pytest.approx(math.expm1(3.0), abs=1e-12)
        assert _integrate_pieces(np.exp, [1.0, 1.0], 1e-10) == 0.0

    def test_nan_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            _integrate_pieces(lambda x: np.full(x.shape, math.nan), [0.0, 1.0, 2.0], 1e-10)

    def test_noise_integrand_raises_within_the_cap(self):
        rng = np.random.default_rng(20_261_017)
        evaluated = []

        def noise(x):
            evaluated.append(x.size)
            return rng.standard_normal(x.shape)

        with pytest.raises(ConvergenceError):
            _integrate_pieces(noise, [0.0, 1.0, 5.0], 1e-10)
        # open panels at most double per pass and stop once the partition
        # outgrows the cap, so the rule evaluates fewer than 2 * cap panels
        assert sum(evaluated) < 2 * _PANEL_LIMIT * len(_GK21_NODES)


class TestArrayIntegrand:
    """The adaptive oracles' array integrand against the scalar functions
    the fixed rule uses."""

    W = np.concatenate((np.geomspace(1e-300, 1e-3, 200), np.geomspace(1e-3, 1e6, 4000)))

    def test_conditional_error_matches_outage_given_snr(self):
        for n in BLOCKLENGTHS:
            for rate in RATES:
                array = _conditional_outage_np(n, rate, self.W)
                scalar = np.array([outage_given_snr(n, rate, w) for w in self.W])
                # both saturated ends are on the grid and agree exactly
                assert array[0] == scalar[0] == 1.0 and array[-1] == scalar[-1] == 0.0
                # numpy's log1p may differ from libm's in the last bit; a
                # relative change of the Q argument is amplified ~arg^2 in Q
                arg = np.sqrt(n) * (np.log1p(self.W) - rate * math.log(2.0)) * (
                    1.0 + self.W) / np.sqrt(self.W * (2.0 + self.W))
                rel = 1e-13 * np.maximum(1.0, (arg / 10.0) ** 2)
                assert np.all(np.abs(array - scalar) <= rel * scalar)

    @pytest.mark.parametrize("mean", [0.01, 1.0, 10.0, 1000.0])
    def test_exponential_pdf(self, mean):
        d = ExponentialDensity(mean)
        scalar = np.array([d.pdf(w) for w in self.W])
        assert np.all(np.abs(_density_pdf(d, self.W) - scalar) <= 1e-13 * scalar)

    @pytest.mark.parametrize(
        "oz,oy", [(10.0, 10.0), (10.0, 2.5), (2.5, 10.0), (1.0, 10.0**-0.6), (10.0, 10.0 + 1e-6)]
    )
    def test_hypoexponential_pdf(self, oz, oy):
        params = HypoexpParams(oz, oy)
        array = _density_pdf(params, self.W)
        scalar = np.array([hypoexp_pdf(w, params) for w in self.W])
        # hypoexp_pdf subtracts two exponentials, each off by about
        # (1 + w/mean) ulps (its rounded argument); the difference keeps that
        # absolute error, which dominates near w = 0 and near equal means.
        # The array form does not cancel.
        def term_error(mean):
            return (1.0 + self.W / mean) * np.exp(-self.W / mean)

        slack = 0.0 if params.equal_means else (
            2.0 * np.finfo(float).eps * (term_error(oz) + term_error(oy)) / abs(oz - oy)
        )
        # subnormal values (w far out in the tail) have no relative precision
        assert np.all(np.abs(array - scalar) <= 1e-13 * array + slack + np.finfo(float).tiny)


class TestOutageEstimate:
    def test_value_range_enforced(self):
        with pytest.raises(Exception):
            OutageEstimate(value=1.2, method=EstimateMethod.CLOSED_FORM)

    def test_sampling_metadata_only_for_mc(self):
        with pytest.raises(DomainError):
            OutageEstimate(value=0.1, method=EstimateMethod.CLOSED_FORM, std_error=0.01)
        with pytest.raises(DomainError):
            OutageEstimate(value=0.1, method=EstimateMethod.MONTE_CARLO)


class TestExponentialDensity:
    def test_pdf_cdf_consistency(self):
        d = ExponentialDensity(10.0)
        assert d.cdf(0.0) == 0.0
        assert d.pdf(0.0) == pytest.approx(0.1, rel=1e-15)
        assert d.cdf(10.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_rejects_bad_mean_and_support(self):
        with pytest.raises(DomainError):
            ExponentialDensity(0.0)
        with pytest.raises(DomainError):
            ExponentialDensity(10.0).pdf(-0.5)


class TestTrueTailQuadrature:
    def test_frozen_truths(self):
        assert fading_outage_quadrature(500, 0.5, 10.0).value == pytest.approx(
            TRUTH_SINGLE, rel=1e-12
        )
        assert fading_outage_quadrature(500, 0.5, HypoexpParams(10.0, 2.5)).value == pytest.approx(
            TRUTH_PAIR_UNEQ, rel=1e-12
        )
        assert fading_outage_quadrature(500, 0.5, HypoexpParams(10.0, 10.0)).value == pytest.approx(
            TRUTH_PAIR_EQ, rel=1e-12
        )

    def test_channel_argument_forms_agree(self):
        a = fading_outage_quadrature(500, 0.5, 10.0).value
        b = fading_outage_quadrature(500, 0.5, ExponentialDensity(10.0)).value
        assert a == b

    def test_two_independent_schemes_agree(self):
        for channel in (10.0, HypoexpParams(10.0, 2.5), HypoexpParams(3.0, 3.0)):
            for n, rate in ((200, 0.25), (500, 0.5), (1000, 1.0)):
                adaptive = fading_outage_quadrature(n, rate, channel).value
                fixed = fading_outage_quadrature_fixed(n, rate, channel)
                assert fixed == pytest.approx(adaptive, abs=5e-14)

    # The weaker branch's density rises on the scale of its mean, far inside
    # the first cut interval.  References are 30-digit mpmath quadratures
    # with breakpoints on that scale.
    SEPARATED_MEANS = (
        ((200, 0.05, 0.01, 1e-6), 0.93964183705228577544),
        ((500, 0.5, 0.05, 1e-5), 0.99964882560855235886),
        ((1000, 0.3, 0.02, 4e-6), 0.99998358741431054955),
    )

    def test_widely_separated_branch_means(self):
        for (n, rate, oz, oy), truth in self.SEPARATED_MEANS:
            est = fading_outage_quadrature(n, rate, HypoexpParams(oz, oy))
            assert est.value == pytest.approx(truth, abs=1e-10)

    def test_fixed_rule_at_widely_separated_branch_means(self):
        # without a cut at the weaker branch's scale the fixed rule read
        # 0.99972978 at (500, 0.5, (0.05, 1e-5)), off by 8e-5
        for (n, rate, oz, oy), truth in self.SEPARATED_MEANS:
            fixed = fading_outage_quadrature_fixed(n, rate, HypoexpParams(oz, oy))
            assert fixed == pytest.approx(truth, abs=1e-13)

    def test_method_tag(self):
        est = fading_outage_quadrature(500, 0.5, 10.0)
        assert est.method is EstimateMethod.QUAD_TRUE_Q
        assert est.std_error is None

    def test_abs_tol_window(self):
        for bad in (1e-14, 1e-5, 0.0, -1e-9):
            with pytest.raises(DomainError):
                fading_outage_quadrature(500, 0.5, 10.0, abs_tol=bad)

    @pytest.mark.parametrize("n,rate", [(0, 0.5), (500, 0.0), (500, -0.5), (500, math.inf)])
    def test_domain_errors(self, n, rate):
        with pytest.raises(DomainError):
            fading_outage_quadrature(n, rate, 10.0)

    @pytest.mark.parametrize("oracle", [fading_outage_quadrature, fading_outage_quadrature_fixed])
    def test_window_overflow_is_a_numeric_error(self, oracle):
        # 2^(2 rate) - 1 overflows above 512 bits per use
        with pytest.raises(NumericError, match=r"\(n=1, rate=600\.0\)"):
            oracle(1, 600.0, 10.0)


class TestLinearizedQuadrature:
    """The defining oracle of the closed forms, spot-checked here; the full
    lattice comparison lives in the acceptance suite."""

    def test_single_link_matches_closed_form(self):
        params = linearize(500, 0.5, 10.0)
        est = linearized_outage_quadrature(params, ExponentialDensity(1.0))
        assert est.method is EstimateMethod.QUAD_LINEARIZED
        assert est.value == pytest.approx(rayleigh_outage(500, 0.5, 10.0), abs=1e-10)

    def test_pair_matches_closed_form_both_branches(self):
        params = linearize(500, 0.5, 1.0)
        for pair in (HypoexpParams(10.0, 10.0), HypoexpParams(10.0, 2.5)):
            est = linearized_outage_quadrature(params, pair)
            assert est.value == pytest.approx(
                mrc_pair_outage(500, 0.5, pair), abs=1e-10
            )

    def test_mu_family_pair_matches_its_own_closed_variant(self):
        params = linearize(500, 0.5, 1.0)
        pair = HypoexpParams(10.0, 2.5)
        est = linearized_outage_quadrature(params, pair, slope="mu")
        assert est.value == pytest.approx(
            mrc_pair_outage(500, 0.5, pair, ramp="mu"), abs=1e-10
        )

    def test_widely_separated_branch_means(self):
        # 30-digit mpmath reference, as in the true-tail test of the same name
        params = linearize(100, 0.01, 1.0)
        est = linearized_outage_quadrature(params, HypoexpParams(0.005, 7e-7))
        assert est.value == pytest.approx(0.5558602635303962011, abs=1e-10)

    def test_saturated_head_is_counted(self):
        # theta much larger than the mean: nearly the whole mass sits in the
        # saturated segment, so the integral must come out near 1
        params = linearize(500, 2.0, 0.05)
        est = linearized_outage_quadrature(params, ExponentialDensity(1.0))
        assert est.value > 0.999


class TestMonteCarlo:
    def test_bit_reproducible(self):
        kw = dict(trials=50_000, seed=7)
        a = fading_outage_mc(500, 0.5, 10.0, **kw)
        b = fading_outage_mc(500, 0.5, 10.0, **kw)
        assert (a.value, a.std_error) == (b.value, b.std_error)
        # pinned doubles: any drift in the draw pipeline is a contract break
        assert a.value == 0.03984247790818114
        assert a.std_error == 0.0008471165893462376

    def test_pair_channel_pinned(self):
        est = fading_outage_mc(500, 0.5, HypoexpParams(10.0, 2.5), 50_000, seed=11)
        assert est.value == 0.003391289219762197
        assert est.std_error == 0.00024169651313965721

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        baseline = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7)
        monkeypatch.setenv("FBRELAY_MAX_WORKERS", "1")
        serial = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7)
        assert (serial.value, serial.std_error) == (baseline.value, baseline.std_error)

    def test_streams_are_independent_draws(self):
        a = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7, stream=0)
        b = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7, stream=1)
        assert a.value != b.value  # same physics, different draws

    def test_estimates_carry_their_provenance(self):
        est = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7)
        assert est.method is EstimateMethod.MONTE_CARLO
        assert est.trials == 50_000 and est.seed == 7

    def test_agrees_with_quadrature_within_4_sigma(self):
        for channel, truth in (
            (10.0, TRUTH_SINGLE),
            (HypoexpParams(10.0, 2.5), TRUTH_PAIR_UNEQ),
        ):
            est = fading_outage_mc(500, 0.5, channel, 200_000, seed=123)
            assert abs(est.value - truth) <= 4.0 * est.std_error

    @pytest.mark.parametrize("mean", [1e160, 1e305])
    def test_huge_mean_snr_agrees_with_quadrature(self, mean):
        # Every draw is far past the transition, where w * (2 + w) overflows;
        # the true outage is about 4e-6 / mean.
        truth = fading_outage_quadrature(500, 0.5, mean).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fading_outage_mc(500, 0.5, mean, 20_000, seed=1)
        assert 0.0 < truth < 1e-150
        assert abs(est.value - truth) <= truth and est.std_error == 0.0

    def test_error_shrinks_like_sqrt_trials(self):
        small = fading_outage_mc(500, 0.5, 10.0, 100_000, seed=5)
        large = fading_outage_mc(500, 0.5, 10.0, 400_000, seed=5)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_bernoulli_variant(self):
        soft = fading_outage_mc(500, 0.5, 10.0, 200_000, seed=9)
        hard = fading_outage_mc(500, 0.5, 10.0, 200_000, seed=9, bernoulli=True)
        # same truth, noisier estimator: the indicator keeps none of the
        # conditional-probability smoothing
        assert abs(hard.value - TRUTH_SINGLE) <= 5.0 * hard.std_error
        assert hard.std_error > soft.std_error
        assert hard.value != soft.value

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fading_outage_mc(500, 0.5, 10.0, 9_999, seed=1)  # below the trials floor
        with pytest.raises(DomainError):
            fading_outage_mc(500, 0.5, 10.0, 50_000, seed=1, partitions=0)
        with pytest.raises(DomainError):
            fading_outage_mc(0, 0.5, 10.0, 50_000, seed=1)


def test_convergence_error_is_a_numeric_error():
    from fbrelay import NumericError

    assert issubclass(ConvergenceError, NumericError)
