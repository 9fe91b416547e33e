"""Finite-blocklength outage analysis for relay-aided transmission.

Computes, optimizes and cross-validates outage probabilities of direct,
decode-and-forward, selection-combining and maximum-ratio-combining
transmission over quasi-static Rayleigh fading in the finite-blocklength
regime: closed forms built on a clipped-linear surrogate of the Gaussian
tail, adaptive-quadrature and Monte Carlo oracles to validate them, and
experiment drivers (power-split optimization, reliability regions, sweeps)
behind a CSV/JSON command-line front end.
"""

from .errors import ConvergenceError, DomainError, FbrelayError, NumericError
from .finite_blocklength import (
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
from .linearization import (
    LinConvention,
    LinearizationParams,
    linearize,
    ramp_coefficients,
    ramp_eval,
)
from .closed_form import (
    CANCELLATION_GUARD,
    TIE_TOLERANCE,
    HypoexpParams,
    hypoexp_cdf,
    hypoexp_pdf,
    mrc_pair_outage,
    rayleigh_outage,
)
from ._estimates import EstimateMethod, ExponentialDensity, OutageEstimate
from .protocols import (
    Backend,
    BackendKind,
    LinkOutages,
    ProtocolKind,
    TopologyConfig,
    link_outages,
    protocol_outage,
)
from .analysis import (
    EtaOptimum,
    RegionGrid,
    SweepRow,
    optimize_eta,
    reliability_region,
    sweep,
)

__version__ = "0.1.0"

#: Served by ``__getattr__``: the oracles load scipy, which ``import fbrelay``
#: and closed-form work do not need.
_ORACLES = frozenset({
    "fading_outage_mc",
    "fading_outage_quadrature",
    "fading_outage_quadrature_fixed",
    "linearized_outage_quadrature",
})


def __getattr__(name: str):
    if name not in _ORACLES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracles

    value = globals()[name] = getattr(oracles, name)
    return value


def __dir__() -> "list[str]":
    return sorted(globals().keys() | _ORACLES)


__all__ = [
    "Backend",
    "BackendKind",
    "CANCELLATION_GUARD",
    "ConvergenceError",
    "DomainError",
    "EstimateMethod",
    "EtaOptimum",
    "ExponentialDensity",
    "FbrelayError",
    "HypoexpParams",
    "LOG2_E",
    "LinConvention",
    "LinearizationParams",
    "LinkOutages",
    "MIN_BLOCKLENGTH",
    "NumericError",
    "OutageEstimate",
    "ProtocolKind",
    "RateSpec",
    "RegionGrid",
    "SnrValue",
    "SweepRow",
    "TIE_TOLERANCE",
    "TopologyConfig",
    "awgn_outage",
    "channel_dispersion",
    "fading_outage_mc",
    "fading_outage_quadrature",
    "fading_outage_quadrature_fixed",
    "hypoexp_cdf",
    "hypoexp_pdf",
    "linearize",
    "linearized_outage_quadrature",
    "link_outages",
    "max_coding_rate",
    "mrc_pair_outage",
    "optimize_eta",
    "outage_given_snr",
    "protocol_outage",
    "q_func",
    "q_inv",
    "ramp_coefficients",
    "ramp_eval",
    "rayleigh_outage",
    "reliability_region",
    "shannon_capacity",
    "sweep",
]
