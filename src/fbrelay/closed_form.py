"""Closed-form fading-averaged outage probabilities.

Both results here are exact integrals of the clipped-linear surrogate from
the linearization module — not of the true Gaussian tail — so each one is
testable to near machine precision against direct quadrature of that ramp
(see oracles.linearized_outage_quadrature). Agreement with the true-tail
average is a separate, measured question (the convention report).

* rayleigh_outage: a single link whose channel gain is unit-mean
  exponential (Rayleigh envelope), transmit SNR absorbed into theta.
* mrc_pair_outage: the sum of two independent exponential SNRs (the
  combined two-branch receiver), whose density is hypoexponential.

Default ramp family is "zeta" — the one the single-link form integrates —
so the two functions are mutually consistent; the "mu" family is kept
behind a flag for cross-checking only.

Each closed form is written once, against the ``cells`` objects of
``_cells``: the public functions evaluate it at one point, and the
protocol layer evaluates it over whole grids of cells (``rayleigh_link``,
``pair_link``), bit for bit equal to the point values and failing per cell
with the exception the point evaluation raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._cells import INF, POINT, exp_or_inf
from ._estimates import as_mean, check_mean, exponential_cdf
from .errors import DomainError, NumericError
from .finite_blocklength import SnrValue, check_snr
from .linearization import (
    _RAMP_CHOICES,
    SQRT_2PI,
    SQRT_HALF_PI,
    LinConvention,
    RampSlope,
    check_request,
    check_window,
    linearize,  # noqa: F401  (bench/worker.py traces calls through this name)
    ramp,
    rate_terms,
)

#: Relative tolerance under which two branch means are treated as equal.
TIE_TOLERANCE = 1e-9

#: Relative window in which the difference branch is rerouted to the
#: equal-means branch: it divides by (omega_z - omega_y) and loses all
#: precision near equality, while the underlying integral is continuous.
CANCELLATION_GUARD = 1e-6

#: Probabilities may leave [0, 1] by at most this much before it is treated
#: as a formula/parameter bug rather than round-off.
ROUNDOFF_SLACK = 1e-12

MEAN_MESSAGE = "{} must be a positive finite mean, got {!r}"


@dataclass(frozen=True)
class HypoexpParams:
    """Means of two independent exponential summands (average branch SNRs).

    equal_means is derived, not chosen: true iff the means agree within
    TIE_TOLERANCE relative.  It selects the density branch; the outage
    evaluation additionally reroutes near-ties within CANCELLATION_GUARD.
    """

    omega_z: float
    omega_y: float
    equal_means: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("omega_z", "omega_y"):
            object.__setattr__(self, name, as_mean(getattr(self, name), MEAN_MESSAGE, name))
        object.__setattr__(self, "equal_means", tied_means(POINT, self.omega_z, self.omega_y))


def check_means(cells, omega_z, omega_y) -> None:
    """HypoexpParams' checks of its two means, for means given as plain floats."""
    check_mean(cells, omega_z, MEAN_MESSAGE, "omega_z")
    check_mean(cells, omega_y, MEAN_MESSAGE, "omega_y")


def tied_means(cells, omega_z, omega_y):
    """HypoexpParams.equal_means for means given as plain floats, at one
    point or per cell of a Grid (see ``_cells``); false where omega_y is NaN."""
    larger = cells.where(omega_z > omega_y, omega_z, omega_y)
    return abs(omega_z - omega_y) <= TIE_TOLERANCE * larger


def hypoexp_pdf(w: float, params: HypoexpParams) -> float:
    """Density of the sum of the two exponentials at w >= 0."""
    if w < 0.0 or not math.isfinite(w):
        raise DomainError(f"hypoexponential support is [0, inf), got {w!r}")
    oz, oy = params.omega_z, params.omega_y
    if params.equal_means:
        return (w / (oz * oz)) * math.exp(-w / oz)
    return (math.exp(-w / oz) - math.exp(-w / oy)) / (oz - oy)


def hypoexp_cdf(w: float, params: HypoexpParams) -> float:
    """P[sum <= w]; the closed tail used by the linearized quadrature."""
    if w < 0.0 or not math.isfinite(w):
        raise DomainError(f"hypoexponential support is [0, inf), got {w!r}")
    return means_cdf(w, params.omega_z, params.omega_y)


def means_cdf(w: float, omega_z: float, omega_y: float) -> float:
    """hypoexp_cdf, or ExponentialDensity.cdf where omega_y is NaN, for
    valid means given as plain floats and finite w >= 0."""
    oz, oy = omega_z, omega_y
    if oy != oy:
        return exponential_cdf(w, oz)
    if tied_means(POINT, oz, oy):
        return exponential_cdf(w, oz) - (w / oz) * math.exp(-w / oz)
    return 1.0 - (oz * math.exp(-w / oz) - oy * math.exp(-w / oy)) / (oz - oy)


def _finalize(cells, eps, what: str):
    """Clamp round-off excursions outside [0, 1]; reject anything larger."""
    cells.fail(eps != eps, NumericError, "{} produced NaN", what)
    cells.fail((eps < -ROUNDOFF_SLACK) | (eps > 1.0 + ROUNDOFF_SLACK), NumericError,
               "{} left [0, 1]: got {!r}", what, eps)
    return cells.where(eps < 0.0, 0.0, cells.where(eps > 1.0, 1.0, eps))


def _log_sinhc_asymptote(cells, delta):
    # sinh(x)/x = e^x/(2x) to double precision once e^(-2x) vanishes
    return delta - cells.each(math.log, 2.0 * delta)


def _log_sinhc(cells, delta):
    return cells.each(math.log, cells.each(math.sinh, delta) / delta)


def _rayleigh(cells, terms, omega, n, rate):
    """The single-link closed form from shared rate terms (see rayleigh_outage)."""
    pow2m1, mu, half = terms
    theta = pow2m1 / omega
    check_window(cells, theta, half)
    zeta = omega * SQRT_2PI * mu
    # At a huge average SNR zeta overflows, which would make delta 0.  It
    # cannot underflow to 0 once the window and the rate terms are sound.
    cells.fail(zeta == INF, NumericError,
               "rayleigh_outage: ramp slope zeta overflowed double precision "
               "(n={}, rate={}, avg_snr={!r})", n, rate, omega)
    delta = SQRT_HALF_PI / zeta
    log_sinhc = cells.branch(delta > 20.0, _log_sinhc_asymptote, _log_sinhc, delta)
    log_term = log_sinhc - theta
    # exp would overflow; the surrogate has no meaning here
    cells.fail(log_term > 700.0, NumericError,
               "rayleigh_outage: surrogate average diverged (n={}, rate={}, avg_snr={!r})",
               n, rate, omega)
    return _finalize(cells, -cells.each(math.expm1, log_term), "rayleigh_outage")


def rayleigh_link(cells, terms, n, rate, omega, convention: LinConvention):
    """Single-link outage at an average SNR given as a plain float.

    n and rate must be valid; ``terms`` are the shared ``rate_terms`` at
    (n, rate), or None to compute them here, after the SNR check, in the
    order ``linearize`` computes them.  Returns (outage, terms).
    """
    check_snr(cells, omega, positive=True)
    if terms is None:
        terms = rate_terms(cells, n, rate, convention)
    return _rayleigh(cells, terms, omega, n, rate), terms


def rayleigh_outage(
    n: int,
    rate: float,
    avg_snr: "SnrValue | float",
    convention: "LinConvention | str" = LinConvention.NATS,
) -> float:
    """Outage of one Rayleigh-faded link at blocklength n and the given rate.

    Averaging the ramp against the unit-mean exponential gain gives

        eps = 1 - exp(-theta) * sinh(delta)/delta,   delta = sqrt(pi/2)/zeta,

    since slope * (e^delta - e^(-delta)) == 2*slope*delta * sinh(delta)/delta
    and 2*slope*delta = 1 for any continuous ramp.  Evaluated in log space;
    the sinh form avoids the cancellation of the raw exponential difference
    at large zeta.
    """
    convention = LinConvention.parse(convention)
    p = check_request(n, rate, avg_snr)
    return _rayleigh(POINT, rate_terms(POINT, n, rate, convention), p, n, rate)


def _exps(cells, args, context):
    """exp of each argument; a finite argument whose exp overflows fails the
    cell with a NumericError naming ``context`` (n, rate, omega_z, omega_y)."""
    values = [cells.each(exp_or_inf, a) for a in args]
    overflow = False
    for a, e in zip(args, values):
        overflow = overflow | ((e == INF) & (a < INF))
    cells.fail(overflow, NumericError,
               "mrc_pair_outage: exp overflowed in the surrogate average "
               "(n={}, rate={}, omega_z={!r}, omega_y={!r})", *context)
    return values


def _unequal_lambdas(
    m: float, lo: float, hi: float, theta: float, omega_z: float, omega_y: float
) -> tuple[float, float, float, float]:
    """Corner coefficients of the distinct-means branch.

    Kept in their raw printed-out arithmetic (not the simplified
    lam1 = m*omega_z = -lam2 identities) so a sign slip in any term is
    observable by the quadrature cross-check.
    """
    lam1 = m * (hi + omega_z - theta) - 0.5
    lam2 = m * (theta - lo - omega_z) - 0.5
    lam3 = 0.5 - m * (hi + omega_y - theta)
    lam4 = 0.5 + m * (lo + omega_y - theta)
    return lam1, lam2, lam3, lam4


def _pair_outage_equal(cells, m, lo, hi, theta, omega_z, omega_y, n, rate):
    """Ramp averaged against the equal-means density (w/omega^2)e^(-w/omega),
    at the midpoint omega of the two means."""
    omega = 0.5 * (omega_z + omega_y)
    e_lo, e_hi = _exps(cells, (-lo / omega, -hi / omega), (n, rate, omega_z, omega_y))
    tau = hi * hi * e_hi - lo * lo * e_lo - theta * hi * e_hi + theta * lo * e_lo
    xi = hi * e_hi - lo * e_lo + omega * e_hi - omega * e_lo
    return (
        1.0
        - 0.5 * (e_lo + e_hi)
        - (lo / omega) * e_lo
        + (lo * e_lo - hi * e_hi) / (2.0 * omega)
        + m * theta * (e_lo - e_hi)
        + 2.0 * m * xi
        + m * tau / omega
    )


def _pair_outage_unequal(cells, m, lo, hi, theta, omega_z, omega_y, n, rate):
    """Ramp averaged against the distinct-means hypoexponential density."""
    lam1, lam2, lam3, lam4 = _unequal_lambdas(m, lo, hi, theta, omega_z, omega_y)
    oz, oy = omega_z, omega_y
    e1, e2, e3, e4 = _exps(cells, (-hi / oz, -lo / oz, -hi / oy, -lo / oy), (n, rate, oz, oy))
    bracket = (
        oz
        - oy
        + oz * e1 * lam1
        + oz * e2 * lam2
        + oy * e3 * lam3
        + oy * e4 * lam4
    )
    return bracket / (oz - oy)


def pair_link(cells, terms, n, rate, omega_z, omega_y, ramp_slope: RampSlope = "zeta"):
    """Combined-link outage from the shared rate terms at valid (n, rate),
    for valid branch means given as plain floats (see mrc_pair_outage)."""
    pow2m1, mu, half = terms
    theta = pow2m1  # power 1: (2^rate - 1)/1
    check_window(cells, theta, half)
    if ramp_slope not in _RAMP_CHOICES:
        raise DomainError(f"ramp slope must be one of {_RAMP_CHOICES}, got {ramp_slope!r}")
    m, lo, hi = ramp(SQRT_2PI * mu if ramp_slope == "zeta" else mu, theta)
    oz, oy = omega_z, omega_y
    spread = abs(oz - oy) / cells.where(oz > oy, oz, oy)
    # The difference branch divides by (oz - oy); inside the guard band
    # evaluate the equal-means branch at the midpoint instead.
    eps = cells.branch(spread <= CANCELLATION_GUARD, _pair_outage_equal, _pair_outage_unequal,
                       m, lo, hi, theta, oz, oy, n, rate)
    return _finalize(cells, eps, "mrc_pair_outage")


def mrc_pair_outage(
    n: int,
    rate: float,
    params: HypoexpParams,
    convention: "LinConvention | str" = LinConvention.NATS,
    ramp: RampSlope = "zeta",
) -> float:
    """Outage of the combined two-branch link at blocklength n and the given rate.

    The integration variable is the combined instantaneous SNR, so the
    surrogate is built with power = 1 (theta = 2^rate - 1) and averaged
    against the hypoexponential density of the branch-SNR sum.  The default
    "zeta" ramp keeps this consistent with rayleigh_outage — in particular
    the combined link can never be worse than its stronger branch alone.
    The "mu" ramp evaluates the same algebra on the wider, shallower family
    for cross-checking; it is meaningful only while its lower breakpoint
    stays nonnegative.  An exponential that overflows double precision
    raises NumericError.
    """
    convention = LinConvention.parse(convention)
    check_request(n, rate, 1.0)
    terms = rate_terms(POINT, n, rate, convention)
    return pair_link(POINT, terms, n, rate, params.omega_z, params.omega_y, ramp)
