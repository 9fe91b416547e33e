"""Independent evaluation backends: quadrature and seeded Monte Carlo.

Three ways to evaluate a fading-averaged error probability, none of which
share code with the closed forms they validate:

* fading_outage_quadrature — adaptive quadrature of the true Gaussian-tail
  conditional error against the channel's SNR density.  The axis is split
  at the argument's sign change and the saturated head (where the
  conditional error is 1 to double precision) is taken from the CDF.
* linearized_outage_quadrature — the same machinery applied to the
  clipped-linear surrogate; by construction this must match the closed
  forms to near machine precision, which is the central correctness check.
* fading_outage_mc — a seeded, partitioned Monte Carlo average.  The
  default estimator averages the smooth per-draw conditional error (the
  quantity the fading expectation is actually taken of), which has strictly
  smaller variance than thresholded packet outcomes; a Bernoulli mode is
  available for packet-level realism.

Both adaptive quadratures run a vectorized, globally budgeted 21-point Gauss-Kronrod
rule (QUADPACK's qk21 nodes and weights) on array integrands.  Every cut
interval starts as equal panels; each pass evaluates all open panels in one
array call of the integrand, accepts a panel once its Kronrod-minus-Gauss
difference is within abs_tol times its share of the total width, and
bisects the rest.  A panel cap bounds the work; reaching it, or a
non-finite panel sum, raises ConvergenceError.  The fixed-rule cross-check
fading_outage_quadrature_fixed keeps composite Gauss-Legendre on a scalar
integrand, so it shares neither scheme nor arithmetic with them.

Monte Carlo reproducibility contract: the estimate is a pure function of
(seed, trials, partitions, stream).  Each partition owns a counter-based
generator keyed by (seed, stream, partition index), and partial sums are
combined in partition order, so the result is bit-identical regardless of
how many threads actually ran.

The value types (OutageEstimate, EstimateMethod, ExponentialDensity) are
defined in ``_estimates``, which does not load scipy, and re-exported here.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import erfc

from ._estimates import EstimateMethod, ExponentialDensity, OutageEstimate
from .closed_form import HypoexpParams, hypoexp_cdf, hypoexp_pdf
from .errors import ConvergenceError, DomainError, NumericError
from .finite_blocklength import LN2, SnrValue, _check_code, outage_given_snr
from .linearization import LinearizationParams, RampSlope, ramp_coefficients

#: Environment variable capping worker threads for partitioned sampling.
MAX_WORKERS_ENV = "FBRELAY_MAX_WORKERS"

#: Beyond this many sigmas the Gaussian tail is exactly 0 or 1 in doubles.
_SATURATION_SIGMAS = 42.0

_ABS_TOL_RANGE = (1e-13, 1e-6)

#: QUADPACK qk21 on [-1, 1]: the Kronrod nodes from the edge inwards (the
#: odd-indexed ones are the 10-point Gauss nodes), their Kronrod weights,
#: and the Gauss weights of the odd-indexed nodes.
_QK21_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_QK21_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208745694460,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_QK21_GAUSS_WEIGHTS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _gk21_tables() -> "tuple[np.ndarray, np.ndarray]":
    """The 21 nodes on [-1, 1], ascending, and a (21, 2) matrix whose
    columns are the Kronrod weights and the embedded Gauss weights (zero at
    the Kronrod-only nodes)."""
    half = np.array(_QK21_NODES[:-1])
    nodes = np.concatenate((-half, [0.0], half[::-1]))
    gauss = np.zeros(11)
    gauss[1::2] = _QK21_GAUSS_WEIGHTS
    kronrod = np.array(_QK21_KRONROD_WEIGHTS)
    weights = np.stack(
        (np.concatenate((kronrod, kronrod[-2::-1])), np.concatenate((gauss, gauss[-2::-1]))),
        axis=1,
    )
    return nodes, weights


_GK21_NODES, _GK21_WEIGHTS = _gk21_tables()

#: Equal panels each cut interval starts with.
_START_PANELS = 8

#: Most panels a partition may hold (QUADPACK's limit is 400 subintervals).
_PANEL_LIMIT = 400

_MIN_TRIALS = 10_000


#: Channel descriptions accepted by the oracle backends: a single Rayleigh
#: link (exponential SNR) or a combined two-branch link (hypoexponential).
Density = "ExponentialDensity | HypoexpParams"


def _as_density(channel) -> "ExponentialDensity | HypoexpParams":
    if isinstance(channel, (ExponentialDensity, HypoexpParams)):
        return channel
    if isinstance(channel, SnrValue):
        return ExponentialDensity(channel.value)
    if isinstance(channel, (int, float)):
        return ExponentialDensity(float(channel))
    raise DomainError(f"cannot interpret {channel!r} as a channel density")


def _density_pdf(density, w: np.ndarray) -> np.ndarray:
    """Array twin of ExponentialDensity.pdf and hypoexp_pdf, for w >= 0.

    With big > small the two means, the distinct-means density is taken as
    exp(-w/big) * -expm1(-w * gap/(big*small)) / gap, gap = big - small: the
    value of hypoexp_pdf's difference of exponentials without its
    cancellation near w = 0 and near equal means.  That cancellation is
    rounding noise, which adaptive quadrature would try to resolve by
    subdivision.
    """
    if isinstance(density, ExponentialDensity):
        return np.exp(-w / density.mean) / density.mean
    oz, oy = density.omega_z, density.omega_y
    if density.equal_means:
        return (w / (oz * oz)) * np.exp(-w / oz)
    big, small = max(oz, oy), min(oz, oy)
    gap = big - small
    return np.exp(-w / big) * -np.expm1(-w * (gap / (big * small))) / gap


def _density_cdf(density, w: float) -> float:
    if isinstance(density, ExponentialDensity):
        return density.cdf(w)
    return hypoexp_cdf(w, density)


def _density_scale(density) -> float:
    if isinstance(density, ExponentialDensity):
        return density.mean
    return max(density.omega_z, density.omega_y)


def _check_abs_tol(abs_tol: float) -> float:
    lo, hi = _ABS_TOL_RANGE
    if not (lo <= abs_tol <= hi):
        raise DomainError(f"abs_tol must lie in [{lo}, {hi}], got {abs_tol!r}")
    return float(abs_tol)


def _integrate_pieces(integrand, cuts: "list[float]", abs_tol: float) -> float:
    """Adaptive Gauss-Kronrod quadrature over consecutive [cuts[i], cuts[i+1]].

    integrand maps an array of abscissae to an array of values.  The error
    budget is global: a panel is accepted once |K21 - G10| is at most abs_tol
    times its share of the total width, so the differences of all accepted
    panels add up to at most abs_tol.
    """
    edges = np.asarray(cuts, dtype=float)
    keep = edges[1:] > edges[:-1]
    lo, hi = edges[:-1][keep], edges[1:][keep]
    if lo.size == 0:
        return 0.0
    tol_per_width = abs_tol / float(np.sum(hi - lo))
    grid = lo[:, None] + (hi - lo)[:, None] * (np.arange(_START_PANELS + 1) / _START_PANELS)
    left, right = grid[:, :-1].ravel(), grid[:, 1:].ravel()
    mid, half = 0.5 * (left + right), 0.5 * (right - left)
    panels = mid.size
    total = 0.0
    while True:
        values = integrand(mid[:, None] + half[:, None] * _GK21_NODES)
        sums = (values @ _GK21_WEIGHTS) * half[:, None]  # columns: Kronrod, Gauss
        if not np.all(np.isfinite(sums)):
            raise ConvergenceError(
                f"quadrature over {cuts!r} hit a non-finite panel sum"
            )
        done = np.abs(sums[:, 0] - sums[:, 1]) <= tol_per_width * (2.0 * half)
        total += float(np.sum(sums[done, 0]))
        mid, half = mid[~done], 0.5 * half[~done]
        if mid.size == 0:
            return total
        panels += mid.size
        if panels > _PANEL_LIMIT:
            raise ConvergenceError(
                f"quadrature over {cuts!r} needs more than {_PANEL_LIMIT} panels "
                f"to reach abs_tol={abs_tol!r}"
            )
        mid, half = np.concatenate((mid - half, mid + half)), np.concatenate((half, half))


def _transition_window(n: int, rate: float) -> "tuple[float, float, float]":
    """(w0, w_lo, w_hi): the SNR where the conditional error crosses 1/2 and
    the points where its Gaussian argument saturates at ±42 sigma."""
    try:
        spread = math.expm1(2.0 * rate * LN2)  # 2^(2 rate) - 1, the first to overflow
    except OverflowError:
        raise NumericError(
            f"true-tail quadrature: transition window overflowed double precision "
            f"(n={n}, rate={rate!r})"
        ) from None
    w0 = math.expm1(rate * LN2)  # 2^rate - 1
    slope = math.sqrt(n / spread)  # d(argument)/dw at w0
    width = _SATURATION_SIGMAS / slope
    return w0, max(0.0, w0 - width), w0 + width


def _axis_cuts(n: int, rate: float, density) -> "tuple[float, list[float]]":
    """(head, cuts) for a true-tail quadrature: the density's mass below the
    saturated window, and the breakpoints to integrate over."""
    w0, w_lo, w_hi = _transition_window(n, rate)
    head = _density_cdf(density, w_lo) if w_lo > 0.0 else 0.0
    cuts = [w_lo, w0, w_hi]
    # If the density decays long before the transition, hint the mass scale
    # so the subdivision does not have to discover it on a huge interval.
    scale = 50.0 * _density_scale(density)
    if w_lo + scale < w0:
        cuts.insert(1, w_lo + scale)
    return head, cuts


def fading_outage_quadrature(
    n: int,
    rate: float,
    channel,
    abs_tol: float = 1e-10,
) -> OutageEstimate:
    """Average the true conditional error over the channel's SNR density.

    channel may be an average SNR (float or SnrValue, meaning one Rayleigh
    link), an ExponentialDensity, or HypoexpParams for the combined link.
    """
    abs_tol = _check_abs_tol(abs_tol)
    _check_code(n, rate)
    density = _as_density(channel)
    head, cuts = _axis_cuts(n, rate, density)

    def integrand(w: np.ndarray) -> np.ndarray:
        return _conditional_outage_np(n, rate, w) * _density_pdf(density, w)

    value = head + _integrate_pieces(integrand, cuts, abs_tol)
    value = min(max(value, 0.0), 1.0)  # round-off at the saturated ends
    return OutageEstimate(value=value, method=EstimateMethod.QUAD_TRUE_Q)


def fading_outage_quadrature_fixed(
    n: int,
    rate: float,
    channel,
    panels: int = 96,
    order: int = 16,
) -> float:
    """Fixed-rule cross-check for fading_outage_quadrature.

    Composite Gauss-Legendre on the same axis splits, with a deterministic
    panel layout and no adaptivity — an independent scheme used to pin
    regression constants (two schemes agreeing is the freeze criterion).
    A combined link's density rises from 0 on the scale of its weaker
    branch's mean, which can be far below a panel's width, so that rise
    gets a cut interval of its own.
    """
    if panels < 1 or order < 2:
        raise DomainError(f"need panels >= 1 and order >= 2, got {panels!r}, {order!r}")
    density = _as_density(channel)
    head, cuts = _axis_cuts(n, rate, density)
    if isinstance(density, ExponentialDensity):
        pdf = density.pdf
    else:
        rise = 50.0 * min(density.omega_z, density.omega_y)
        if cuts[0] < rise < cuts[-1]:
            cuts = sorted(cuts + [rise])

        def pdf(x: float) -> float:
            return hypoexp_pdf(x, density)

    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = head
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        edges = np.linspace(a, b, panels + 1)
        for left, right in zip(edges, edges[1:]):
            mid = 0.5 * (left + right)
            half = 0.5 * (right - left)
            for t, w in zip(nodes, weights):
                x = mid + half * t
                total += half * w * outage_given_snr(n, rate, x) * pdf(x)
    return float(min(max(total, 0.0), 1.0))


def linearized_outage_quadrature(
    params: LinearizationParams,
    density,
    abs_tol: float = 1e-10,
    slope: RampSlope = "zeta",
) -> OutageEstimate:
    """Integrate the clipped-linear surrogate against the given density.

    The saturated head is the CDF at the lower breakpoint (clipped to the
    support); only the linear segment is integrated numerically.  This is
    the defining oracle for the closed forms: they must agree with it to
    1e-8 absolute everywhere they are claimed valid.
    """
    abs_tol = _check_abs_tol(abs_tol)
    density = _as_density(density)
    m, lo, hi = ramp_coefficients(params, slope)
    a = max(lo, 0.0)
    head = _density_cdf(density, a) if a > 0.0 else 0.0

    theta = params.theta
    cuts = [a, theta, hi] if a < theta else [a, hi]

    def integrand(t: np.ndarray) -> np.ndarray:
        return (0.5 - m * (t - theta)) * _density_pdf(density, t)

    value = head + _integrate_pieces(integrand, cuts, abs_tol)
    value = min(max(value, 0.0), 1.0)
    return OutageEstimate(value=value, method=EstimateMethod.QUAD_LINEARIZED)


def _q_argument(n: int, rate: float, w: np.ndarray) -> np.ndarray:
    return np.sqrt(n) * (np.log1p(w) - rate * LN2) * (1.0 + w) / np.sqrt(w * (2.0 + w))


def _conditional_outage_np(n: int, rate: float, w: np.ndarray) -> np.ndarray:
    """Vectorized conditional error probability at instantaneous SNR w > 0.

    Where w * (2 + w) overflows (w above about 1.3e154), the factor
    (1 + w) / sqrt(w (2 + w)) is taken as (1 + w) / (sqrt(w) sqrt(2 + w)).
    """
    if w.max() <= 1e154:  # no w * (2 + w) can overflow
        return 0.5 * erfc(_q_argument(n, rate, w) / math.sqrt(2.0))
    with np.errstate(over="ignore", invalid="ignore"):
        arg = _q_argument(n, rate, w)
        huge = np.isinf(w * (2.0 + w))
        big = w[huge]
        arg[huge] = np.sqrt(n) * (np.log1p(big) - rate * LN2) * (
            (1.0 + big) / (np.sqrt(big) * np.sqrt(2.0 + big)))
    return 0.5 * erfc(arg / math.sqrt(2.0))


def _worker_count(partitions: int) -> int:
    cap = os.environ.get(MAX_WORKERS_ENV)
    available = os.cpu_count() or 1
    if cap is not None:
        try:
            available = max(1, min(available, int(cap)))
        except ValueError:
            raise DomainError(f"{MAX_WORKERS_ENV} must be an integer, got {cap!r}") from None
    return max(1, min(partitions, available))


def fading_outage_mc(
    n: int,
    rate: float,
    channel,
    trials: int,
    seed: int,
    *,
    partitions: int = 16,
    stream: int = 0,
    bernoulli: bool = False,
) -> OutageEstimate:
    """Seeded Monte Carlo estimate of the fading-averaged error probability.

    Draws instantaneous SNRs from the channel density (summing the two
    branch draws for a combined link) and averages the conditional error.
    std_error is the sample standard deviation of the per-draw values over
    sqrt(trials).  Distinct `stream` values give statistically independent
    runs from the same seed — the per-link streams of the protocol layer.
    """
    if trials < _MIN_TRIALS:
        raise DomainError(f"trials must be >= {_MIN_TRIALS}, got {trials!r}")
    if partitions < 1:
        raise DomainError(f"partitions must be >= 1, got {partitions!r}")
    _check_code(n, rate)
    density = _as_density(channel)

    base, extra = divmod(trials, partitions)
    chunk_sizes = [base + (1 if i < extra else 0) for i in range(partitions)]

    def run_partition(index: int) -> "tuple[float, float]":
        size = chunk_sizes[index]
        if size == 0:
            return 0.0, 0.0
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
        gen = np.random.Generator(np.random.Philox(ss))
        if isinstance(density, ExponentialDensity):
            w = gen.exponential(density.mean, size=size)
        else:
            w = gen.exponential(density.omega_z, size=size)
            w = w + gen.exponential(density.omega_y, size=size)
        values = _conditional_outage_np(n, rate, w)
        if bernoulli:
            values = (gen.random(size) < values).astype(float)
        return float(np.sum(values)), float(np.dot(values, values))

    workers = _worker_count(partitions)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_partition, range(partitions)))
    else:
        partials = [run_partition(i) for i in range(partitions)]

    # Fixed-order combination: bit-identical for a fixed partition count.
    total = 0.0
    total_sq = 0.0
    for s1, s2 in partials:
        total += s1
        total_sq += s2

    mean = total / trials
    var = max(total_sq - total * total / trials, 0.0) / max(trials - 1, 1)
    std_error = math.sqrt(var / trials)
    return OutageEstimate(
        value=min(max(mean, 0.0), 1.0),
        method=EstimateMethod.MONTE_CARLO,
        std_error=min(std_error, 0.5),
        trials=trials,
        seed=seed,
    )
