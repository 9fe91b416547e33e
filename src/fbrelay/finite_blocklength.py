"""Scalar finite-blocklength primitives for the AWGN channel.

The normal approximation ties blocklength n, error probability eps and SNR
rho together through

    R*(n, eps) = C(rho) - sqrt(V(rho)/n) * Qinv(eps) * log2(e),

with capacity C(rho) = log2(1 + rho) in bits per channel use and the
dimensionless dispersion V(rho) = rho(2 + rho)/(1 + rho)^2.  Everything in
this module is a pure scalar function; fading never appears here — higher
layers average these primitives over channel realizations.

All public rates are bits per channel use.  The log2(e) factor is applied
explicitly wherever a rate in bits meets the (nat-based) dispersion term,
so the pair max_coding_rate/awgn_outage is an exact inverse pair.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

from ._cells import INF, POINT
from ._estimates import lazy_binding
from .errors import DomainError

LOG2_E = math.log2(math.e)
LN2 = math.log(2.0)

# scipy.special costs most of a closed-form process's start and only the
# functions below need it, so each ufunc is imported on its first call.
erfc = lazy_binding(globals(), "scipy.special", "erfc")
ndtri = lazy_binding(globals(), "scipy.special", "ndtri")

#: Blocklengths below this make the normal approximation unreliable;
#: RateSpec refuses them unless explicitly overridden.
MIN_BLOCKLENGTH = 100

#: The largest double.  A blocklength or payload above it cannot be converted
#: to a float, which every formula here needs, so it is refused on entry.
_DOUBLE_MAX = sys.float_info.max

SNR_RANGE_MESSAGE = "SNR must be a finite nonnegative ratio, got {!r}"
SNR_ZERO_MESSAGE = "SNR must be strictly positive here"


def check_snr(cells, value, positive: bool = False, shown=None) -> None:
    """An SNR must be finite and nonnegative, and with ``positive`` nonzero,
    at one point or per cell of a Grid (see ``_cells``).  ``value`` is the
    SNR as a float; the message shows ``shown`` instead where it is given,
    the SNR as the caller gave it."""
    cells.fail((value != value) | (value < 0.0) | (value == INF), DomainError,
               SNR_RANGE_MESSAGE, value if shown is None else shown)
    if positive:
        cells.fail(value == 0.0, DomainError, SNR_ZERO_MESSAGE)


@dataclass(frozen=True)
class SnrValue:
    """A linear (dimensionless) signal-to-noise power ratio.

    dB is treated as a presentation format only: every computation in the
    package runs on the linear value.
    """

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _as_snr(self.value))

    @classmethod
    def from_db(cls, db: float) -> "SnrValue":
        if not math.isfinite(db):
            raise DomainError(f"dB value must be finite, got {db!r}")
        try:
            value = 10.0 ** (db / 10.0)
        except OverflowError:
            raise DomainError(_TOO_LARGE_MESSAGE.format(f"the linear SNR of {db!r} dB")) from None
        return cls(value)

    def to_db(self) -> float:
        if self.value <= 0.0:
            raise DomainError("zero SNR has no dB representation")
        return 10.0 * math.log10(self.value)

    def __float__(self) -> float:
        return self.value


def _as_snr(rho: "SnrValue | float", *, positive: bool = False) -> float:
    """Normalize an SNR argument to a validated linear float."""
    v = rho.value if isinstance(rho, SnrValue) else float(rho)
    check_snr(POINT, v, positive, shown=rho)
    return v


@dataclass(frozen=True)
class RateSpec:
    """A payload of k information bits carried in n channel uses.

    The coding rate is k/n bits per channel use, exact by construction.
    Blocklengths under MIN_BLOCKLENGTH are outside the approximation's
    comfort zone and require allow_short=True, which still warns.
    """

    k: int
    n: int
    allow_short: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise DomainError(f"k must be a positive integer, got {self.k!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if self.k > _DOUBLE_MAX or self.n > _DOUBLE_MAX:
            raise DomainError(_TOO_LARGE_MESSAGE.format("k" if self.k > _DOUBLE_MAX else "n"))
        if self.n < MIN_BLOCKLENGTH:
            if not self.allow_short:
                raise DomainError(
                    f"blocklength n={self.n} is below {MIN_BLOCKLENGTH}; the normal "
                    "approximation degrades there — pass allow_short=True to override"
                )
            warnings.warn(
                f"blocklength n={self.n} < {MIN_BLOCKLENGTH}: normal-approximation "
                "accuracy is not guaranteed",
                stacklevel=2,
            )

    @property
    def rate(self) -> float:
        """Coding rate in bits per channel use — exactly k/n."""
        return self.k / self.n


BLOCKLENGTH_MESSAGE = "blocklength must be >= 1, got {!r}"
RATE_MESSAGE = "rate must be a positive finite number, got {!r}"
# the value itself is left out: str() of an int past 4300 digits raises
_TOO_LARGE_MESSAGE = f"{{}} exceeds the largest double, {_DOUBLE_MAX!r}"


def check_code(cells, n, rate=None) -> None:
    """Reject n below 1 or above the largest double, then (when given) a rate
    that is not positive and finite, at one point or per cell of a Grid."""
    cells.fail(n < 1, DomainError, BLOCKLENGTH_MESSAGE, n)
    cells.fail(n > _DOUBLE_MAX, DomainError, _TOO_LARGE_MESSAGE, "blocklength")
    if rate is not None:
        cells.fail((rate != rate) | (rate <= 0.0) | (rate == INF), DomainError, RATE_MESSAGE, rate)


def shannon_capacity(rho: "SnrValue | float") -> float:
    """C(rho) = log2(1 + rho), bits per channel use."""
    return math.log2(1.0 + _as_snr(rho))


def channel_dispersion(rho: "SnrValue | float") -> float:
    """Dimensionless dispersion V(rho) = rho(2 + rho)/(1 + rho)^2.

    The ratio form is evaluated directly (not as 1 - (1+rho)^-2, which
    cancels catastrophically for small rho).  Lies in [0, 1).
    """
    r = _as_snr(rho)
    one_plus = 1.0 + r
    return r * (2.0 + r) / (one_plus * one_plus)


def q_func(w: float) -> float:
    """Gaussian tail probability Q(w) = P[N(0,1) > w] = erfc(w/sqrt(2))/2."""
    if not math.isfinite(w):
        raise DomainError(f"Q-function argument must be finite, got {w!r}")
    return 0.5 * float(erfc(w / math.sqrt(2.0)))


def q_inv(p: float) -> float:
    """Inverse of q_func on (0, 1); q_inv(0.5) = 0.

    Delegates to the normal quantile (accurate in both tails), negated
    because Q is the upper tail.
    """
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError(f"q_inv needs a probability strictly inside (0, 1), got {p!r}")
    return float(-ndtri(p))


def max_coding_rate(n: int, eps: float, rho: "SnrValue | float") -> float:
    """Largest rate (bits per channel use) meeting error target eps at blocklength n.

    May be negative for tiny eps at small n; returned as-is so callers can
    treat "no positive rate works" explicitly.
    """
    check_code(POINT, n)
    if not (0.0 < eps < 1.0):
        raise DomainError(f"target error probability must lie in (0, 1), got {eps!r}")
    r = _as_snr(rho, positive=True)
    c = shannon_capacity(r)
    v = channel_dispersion(r)
    return c - math.sqrt(v / n) * q_inv(eps) * LOG2_E


def awgn_outage(n: int, rate: float, rho: "SnrValue | float") -> float:
    """Error probability of rate (bits per channel use) over AWGN at blocklength n.

    Exact inverse of max_coding_rate: awgn_outage(n, max_coding_rate(n, e, rho), rho) == e.
    """
    check_code(POINT, n, rate)
    r = _as_snr(rho, positive=True)
    c = shannon_capacity(r)
    v = channel_dispersion(r)
    arg = math.sqrt(n) * (c - rate) / (math.sqrt(v) * LOG2_E)
    return q_func(arg)


def outage_given_snr(n: int, rate: float, rho: float) -> float:
    """Total variant of awgn_outage used by integrators and samplers.

    Handles the boundary cases the strict version rejects: rho <= 0 is a
    certain outage for any positive rate, and enormous rho drives the error
    to zero.  The Q argument is evaluated in nats as
    sqrt(n) * (log(1+rho) - rate*ln2) * (1+rho) / sqrt(rho(2+rho)),
    which is the bits form with log2(e) folded in.
    """
    if rho <= 0.0:
        return 1.0
    num = math.log1p(rho) - rate * LN2
    spread = rho * (2.0 + rho)
    if spread != math.inf:
        root = math.sqrt(spread)
    elif rho != math.inf:
        # above rho ~ 1.3e154 the product overflows; split the root only there
        root = math.sqrt(rho) * math.sqrt(2.0 + rho)
    else:
        return 0.0  # (1 + rho)/root tends to 1, so the Q argument to +inf
    arg = math.sqrt(n) * num * (1.0 + rho) / root
    # erfc underflows to 0 beyond ~±38 sigma, exactly the right limits here
    return 0.5 * float(erfc(arg / math.sqrt(2.0)))
