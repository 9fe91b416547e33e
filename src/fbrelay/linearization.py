"""Clipped-linear surrogate for the Gaussian tail of the outage integrand.

The conditional error probability, viewed as a function of the channel
realization t, is a smooth sigmoid dropping from 1 to 0 around the
threshold theta where capacity meets the coding rate.  Replacing it with a
clipped ramp

    K(t) = 1                      for t <= rho_lo,
    K(t) = 1/2 - slope*(t-theta)  for rho_lo < t < rho_hi,
    K(t) = 0                      for t >= rho_hi,

makes the fading average integrable in closed form against exponential and
sum-of-exponential densities.  Any continuous such ramp satisfies
slope * half_width = 1/2.

Two independent knobs are kept explicit rather than silently resolved:

* convention — how the rate enters the slope parameter mu.  NATS uses
  (e^(2R) - 1)^(-1/2); BITS uses (2^(2R) - 1)^(-1/2), which makes the ramp
  the exact tangent of the true outage curve at theta when R is in bits
  per channel use.  The quadrature oracle arbitrates which tracks the true
  Gaussian-tail average better; neither is silently "fixed".

* ramp slope family — "zeta" uses slope zeta/sqrt(2*pi) with half-width
  sqrt(pi/2)/zeta (the family the closed forms in closed_form.py integrate
  exactly, and the one consistent with the tangent construction in every
  integration domain); "mu" uses slope mu/sqrt(2*pi) with half-width
  sqrt(pi/2)/mu, the surrogate in its defining form.  The stored breakpoints
  rho_lo/rho_hi are the "mu" family's; the "zeta" breakpoints are derived
  on demand.  The two coincide only when power*sqrt(2*pi) = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Literal

from ._cells import POINT, expm1_or_inf, pow2_or_inf
from .errors import DomainError, NumericError
from .finite_blocklength import LN2, SnrValue, _as_snr, check_code

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_TWO_PI = 2.0 * math.pi


class LinConvention(enum.Enum):
    """How the coding rate enters the ramp slope parameter mu."""

    NATS = "nats"  # slope factor (e^(2R) - 1)^(-1/2)
    BITS = "bits"  # slope factor (2^(2R) - 1)^(-1/2); exact tangent for R in bits

    @classmethod
    def parse(cls, name: "str | LinConvention") -> "LinConvention":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise DomainError(
                f"unknown convention {name!r}; expected one of "
                f"{[c.value for c in cls]}"
            ) from None


#: Which coefficient supplies the ramp slope: the power-scaled "zeta" family
#: (default; matches the closed forms) or the plain "mu" family (the
#: surrogate in its defining form, kept for cross-checks).
RampSlope = Literal["zeta", "mu"]

_RAMP_CHOICES = ("zeta", "mu")


@dataclass(frozen=True)
class LinearizationParams:
    """Frozen parameter set of one clipped-linear surrogate.

    theta is the threshold in the integration variable's own units (channel
    gain when power > 1 absorbs the transmit SNR, instantaneous SNR when
    power == 1).  rho_lo/rho_hi are the stored "mu"-family breakpoints,
    theta -/+ sqrt(pi/2)/mu.  zeta = power * sqrt(2*pi) * mu exactly.
    """

    theta: float
    mu: float
    rho_lo: float
    rho_hi: float
    zeta: float
    convention: LinConvention
    n: int
    rate: float
    power: SnrValue

    def __post_init__(self) -> None:
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise DomainError(f"slope parameter mu must be positive and finite, got {self.mu!r}")
        if not (self.rho_lo < self.theta < self.rho_hi):
            raise DomainError(
                f"breakpoints must straddle the threshold: "
                f"{self.rho_lo!r} < {self.theta!r} < {self.rho_hi!r} fails"
            )
        half = SQRT_HALF_PI / self.mu
        scale = max(abs(self.theta), half)
        if abs((self.rho_hi - self.theta) - half) > 1e-12 * scale or abs(
            (self.theta - self.rho_lo) - half
        ) > 1e-12 * scale:
            raise DomainError("breakpoints are not symmetric at sqrt(pi/2)/mu about theta")
        if self.zeta != self.power.value * SQRT_2PI * self.mu:
            raise DomainError("zeta must equal power * sqrt(2*pi) * mu exactly")


def rate_terms(cells, n, rate, convention: LinConvention):
    """The rate-only part of the surrogate: (2^rate - 1, mu, half-width).

    theta = (2^rate - 1)/power, and mu and the half-width sqrt(pi/2)/mu do
    not depend on the power at all.  Each closed-form link computes them
    at its own (n, rate); this is the one place where the convention
    enters.  ``cells`` is ``POINT`` or a ``Grid`` (see ``_cells``); n and
    rate must already be valid.  Rates of a few hundred bits per use
    overflow these terms, which fails the cell.
    """
    pow2m1 = cells.each(pow2_or_inf, rate) - 1.0
    if convention is LinConvention.NATS:
        spread = cells.each(expm1_or_inf, 2.0 * rate)  # e^(2R) - 1
    else:
        spread = cells.each(expm1_or_inf, 2.0 * rate * LN2)  # 2^(2R) - 1
    cells.fail((pow2m1 == math.inf) | (spread == math.inf), NumericError,
               "surrogate rate terms overflowed double precision (n={}, rate={!r})", n, rate)
    mu = cells.sqrt(n / _TWO_PI) / cells.sqrt(spread)
    return pow2m1, mu, SQRT_HALF_PI / mu


def check_window(cells, theta, half) -> None:
    """Fail where the ramp window is narrower than one ulp of the threshold:
    the surrogate cannot be represented at this scale, which is a numeric
    breakdown of a well-formed request, not a bad input."""
    cells.fail((theta - half == theta) | (theta + half == theta), NumericError,
               "ramp window collapsed: half-width {!r} is absorbed by "
               "threshold {!r} in double precision", half, theta)


def ramp(coeff, theta):
    """(slope m, lower breakpoint, upper breakpoint) of the ramp whose slope
    coefficient is ``coeff`` (zeta or mu); m * half-width = 1/2."""
    half = SQRT_HALF_PI / coeff
    return coeff / SQRT_2PI, theta - half, theta + half


def check_request(n, rate, power) -> float:
    """Validate one (n, rate, power) request; returns the linear power."""
    check_code(POINT, n, rate)
    return _as_snr(power, positive=True)


def linearize(
    n: int,
    rate: float,
    power: "SnrValue | float",
    convention: "LinConvention | str" = LinConvention.NATS,
) -> LinearizationParams:
    """Build the surrogate's parameter set for one (n, rate, power) point.

    theta = (2^rate - 1)/power; mu carries the convention-dependent rate
    factor and grows like sqrt(n).  Pass power = 1 to work in the
    instantaneous-SNR domain (combined-branch integrals); pass the average
    SNR to work in the unit-mean channel-gain domain (single links).
    """
    convention = LinConvention.parse(convention)
    p = check_request(n, rate, power)
    pow2m1, mu, half = rate_terms(POINT, n, rate, convention)
    theta = pow2m1 / p
    check_window(POINT, theta, half)
    zeta = p * SQRT_2PI * mu
    if zeta == math.inf:
        raise NumericError("linearize: ramp slope zeta overflowed double precision "
                           f"(n={n}, rate={rate}, power={p!r})")
    return LinearizationParams(
        theta=theta,
        mu=mu,
        rho_lo=theta - half,
        rho_hi=theta + half,
        zeta=zeta,
        convention=convention,
        n=n,
        rate=rate,
        power=SnrValue(p),
    )


def ramp_coefficients(
    params: LinearizationParams, slope: RampSlope = "zeta"
) -> tuple[float, float, float]:
    """Return (slope m, lower breakpoint, upper breakpoint) of the chosen family.

    Both families keep m * half_width = 1/2, so the ramp is continuous and
    hits 1 and 0 exactly at its breakpoints.
    """
    if slope not in _RAMP_CHOICES:
        raise DomainError(f"ramp slope must be one of {_RAMP_CHOICES}, got {slope!r}")
    return ramp(params.zeta if slope == "zeta" else params.mu, params.theta)


def ramp_eval(t: float, params: LinearizationParams, slope: RampSlope = "zeta") -> float:
    """Evaluate the chosen ramp family at t; always in [0, 1]."""
    m, lo, hi = ramp_coefficients(params, slope)
    if t <= lo:
        return 1.0
    if t >= hi:
        return 0.0
    return 0.5 - m * (t - params.theta)

