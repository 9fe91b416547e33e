"""Topology bookkeeping and the four transmission-scheme compositions.

A relay sits between source and destination at normalized distance beta
(direct hop distance 1), and the total transmit SNR budget P is split as
eta*P for the source and (1-eta)*P for the relay.  Average link SNRs follow
as

    direct        omega_sd = eta*P * 1^(-alpha)
    source-relay  omega_sr = eta*P * beta^(-alpha)
    relay-dest    omega_rd = (1-eta)*P * (1-beta)^(-alpha)

with path-loss exponent alpha (default 0: position-independent gains, the
baseline configuration).  The combined two-branch receiver adds the direct
and relayed instantaneous SNRs.

Compositions of per-link outages:

    DT   single link at full power P
    DF   eps_sr + (1 - eps_sr) * eps_rd          (relay always forwards)
    SC   eps_sd * (eps_sr + (1 - eps_sr)*eps_rd) (relayed copy used on miss)
    MRC  eps_sd*eps_sr + (1 - eps_sr)*eps_srd    (branch SNRs added)

Every composition is available through three backends — closed form,
true-tail quadrature, and seeded Monte Carlo — so each number can always be
cross-examined by a slower, independent one.  The closed form is composed
once, over ``_cells`` objects: ``protocol_outage`` evaluates it at one
topology and ``closed_outages`` over a whole ``TopologyCells`` batch, with
the same values bit for bit and the same failure per cell.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._cells import INF, POINT, Grid
from ._estimates import EstimateMethod, ExponentialDensity, OutageEstimate, lazy_binding
from .closed_form import (
    MEAN_MESSAGE,
    HypoexpParams,
    mrc_pair_outage,
    pair_link,
    rayleigh_link,
    rayleigh_outage,
)
from .errors import DomainError, NumericError
from .finite_blocklength import RateSpec, SnrValue, _as_snr
from .linearization import LinConvention

# The oracles load scipy; the closed backend never calls them.
fading_outage_mc = lazy_binding(globals(), "fbrelay.oracles", "fading_outage_mc")
fading_outage_quadrature = lazy_binding(globals(), "fbrelay.oracles", "fading_outage_quadrature")

#: Per-link sampling streams: the Monte Carlo backend gives each link its
#: own generator family so composed estimates use independent draws.
_STREAM_SD, _STREAM_SR, _STREAM_RD, _STREAM_SRD = 0, 1, 2, 3

_MIXED_FRAMING = (
    "closed-form combined-branch outage is defined only for equal hop "
    "blocklengths; got n_s={}, n_r={} — use the quadrature "
    "or Monte Carlo backend for mixed framing"
)


class ProtocolKind(enum.Enum):
    DT = "dt"
    DF = "df"
    SC = "sc"
    MRC = "mrc"

    @classmethod
    def parse(cls, name: "str | ProtocolKind") -> "ProtocolKind":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise DomainError(
                f"unknown protocol {name!r}; expected one of {[p.value for p in cls]}"
            ) from None


class BackendKind(enum.Enum):
    CLOSED_FORM = "closed"
    QUAD_TRUE_Q = "quad"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class Backend:
    """Evaluation backend selector; Monte Carlo carries its trials and seed."""

    kind: BackendKind
    trials: "int | None" = None
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if self.kind is BackendKind.MONTE_CARLO:
            if self.trials is None or self.seed is None:
                raise DomainError("Monte Carlo backend requires trials and seed")
            if self.trials < 1:
                raise DomainError(f"trials must be positive, got {self.trials!r}")
        elif self.trials is not None or self.seed is not None:
            raise DomainError(f"{self.kind.value} backend takes no trials/seed")

    @classmethod
    def closed_form(cls) -> "Backend":
        return cls(BackendKind.CLOSED_FORM)

    @classmethod
    def quadrature(cls) -> "Backend":
        return cls(BackendKind.QUAD_TRUE_Q)

    @classmethod
    def monte_carlo(cls, trials: int, seed: int) -> "Backend":
        return cls(BackendKind.MONTE_CARLO, trials=int(trials), seed=int(seed))

    @property
    def label(self) -> str:
        return self.kind.value


def _omega_sd(total_snr, eta):
    return eta * total_snr  # d_sd = 1, so no distance gain


_GAIN_OVERFLOW = "{}: path-loss gain {!r} ** -{!r} overflows double precision"


def _omega_sr(total_snr, eta, beta, alpha):
    try:
        gain = beta ** -alpha
    except OverflowError:
        raise NumericError(_GAIN_OVERFLOW.format("omega_sr", beta, alpha)) from None
    return eta * total_snr * gain


def _omega_rd(total_snr, eta, beta, alpha):
    try:
        gain = (1.0 - beta) ** -alpha
    except OverflowError:
        raise NumericError(_GAIN_OVERFLOW.format("omega_rd", 1.0 - beta, alpha)) from None
    return (1.0 - eta) * total_snr * gain


@dataclass(frozen=True)
class TopologyConfig:
    """One relay topology: SNR budget, power split, relay position, framing.

    total_snr is the full budget P (linear).  eta in (0, 1] is the source's
    share; eta = 1 silences the relay.  beta in (0, 1) places the relay.
    n_s/n_r are the per-hop blocklengths (each hop sends a full codeword of
    its own), and k the information bits carried by either hop.
    """

    total_snr: SnrValue
    eta: float
    beta: float = 0.5
    path_loss_exp: float = 0.0
    n_s: int = 500
    n_r: int = 500
    k: int = 250
    allow_short: bool = False

    def __post_init__(self) -> None:
        snr = self.total_snr if isinstance(self.total_snr, SnrValue) else SnrValue(
            _as_snr(self.total_snr)
        )
        object.__setattr__(self, "total_snr", snr)
        if snr.value <= 0.0:
            raise DomainError("total_snr must be strictly positive")
        if not (0.0 < self.eta <= 1.0):
            raise DomainError(f"eta must lie in (0, 1], got {self.eta!r}")
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta!r}")
        if not (self.path_loss_exp >= 0.0 and math.isfinite(self.path_loss_exp)):
            raise DomainError(f"path_loss_exp must be finite and >= 0, got {self.path_loss_exp!r}")
        # RateSpec enforces positive integers and the short-blocklength gate
        RateSpec(self.k, self.n_s, allow_short=self.allow_short)
        RateSpec(self.k, self.n_r, allow_short=self.allow_short)

    @property
    def rate_s(self) -> float:
        return self.k / self.n_s

    @property
    def rate_r(self) -> float:
        return self.k / self.n_r

    @property
    def omega_sd(self) -> float:
        return _omega_sd(self.total_snr.value, self.eta)

    @property
    def omega_sr(self) -> float:
        return _omega_sr(self.total_snr.value, self.eta, self.beta, self.path_loss_exp)

    @property
    def omega_rd(self) -> float:
        return _omega_rd(self.total_snr.value, self.eta, self.beta, self.path_loss_exp)

    @property
    def relay_silent(self) -> bool:
        return self.omega_rd == 0.0


class TopologyCells:
    """A batch of topologies as columns, one entry per cell.

    Each keyword replaces the matching field of ``base`` by an array (``n``
    sets both hop blocklengths); beta and path_loss_exp stay the base's.
    The attributes mirror TopologyConfig's: n_s, n_r, rate_s, rate_r,
    total_snr (linear) and the link SNRs, computed by the same expressions.
    The path-loss gain in omega_sr and omega_rd can overflow; ``raised``
    keeps that NumericError under the SNR's name, and every cell fails with
    it at the step where the per-topology evaluation reads that SNR.  Integer
    columns must stay below 2**53, where numpy's k / n equals Python's.
    """

    def __init__(self, base: TopologyConfig, *, total_snr=None, eta=None, n=None, k=None):
        given = [c for c in (total_snr, eta, n, k) if c is not None]
        self.size = len(given[0]) if given else 1

        def column(values, default, dtype):
            values = default if values is None else values
            return np.broadcast_to(np.asarray(values, dtype=dtype), (self.size,))

        snr = column(total_snr, base.total_snr.value, float)
        share = column(eta, base.eta, float)
        self.n_s = column(n, base.n_s, np.int64)
        self.n_r = column(n, base.n_r, np.int64)
        k = column(k, base.k, np.int64)
        self.rate_s = k / self.n_s
        self.rate_r = k / self.n_r
        self.total_snr = snr
        self.omega_sd = _omega_sd(snr, share)
        self.raised: "dict[str, NumericError]" = {}
        for name, omega in (("omega_sr", _omega_sr), ("omega_rd", _omega_rd)):
            try:
                value = omega(snr, share, base.beta, base.path_loss_exp)
            except NumericError as exc:
                self.raised[name] = exc
                value = np.full(self.size, np.nan)
            setattr(self, name, value)


@dataclass(frozen=True)
class LinkOutages:
    """Per-link estimates for one topology: direct, broadcast, forward, combined."""

    sd: OutageEstimate
    sr: OutageEstimate
    rd: OutageEstimate
    srd: OutageEstimate

    @property
    def eps_sd(self) -> float:
        return self.sd.value

    @property
    def eps_sr(self) -> float:
        return self.sr.value

    @property
    def eps_rd(self) -> float:
        return self.rd.value

    @property
    def eps_srd(self) -> float:
        return self.srd.value


def _single_link(
    backend: Backend,
    convention: LinConvention,
    n: int,
    rate: float,
    omega: float,
    stream: int,
) -> OutageEstimate:
    if backend.kind is BackendKind.CLOSED_FORM:
        value = rayleigh_outage(n, rate, omega, convention)
        return OutageEstimate(value=value, method=EstimateMethod.CLOSED_FORM)
    if backend.kind is BackendKind.QUAD_TRUE_Q:
        return fading_outage_quadrature(n, rate, ExponentialDensity(omega))
    return fading_outage_mc(
        n, rate, ExponentialDensity(omega), backend.trials, backend.seed, stream=stream
    )


def _pair_link(
    backend: Backend,
    convention: LinConvention,
    cfg: TopologyConfig,
) -> OutageEstimate:
    # The combined-branch decode is framed by the source codeword: the relayed
    # copy contributes SNR, not extra channel uses, so (n_s, k/n_s) governs.
    # The closed form was derived for matched hops only and refuses anything
    # else; the integral and sampling backends accept the mixed case under
    # the source-framing reading.
    pair = HypoexpParams(cfg.omega_sd, cfg.omega_rd)
    if backend.kind is BackendKind.CLOSED_FORM:
        if cfg.n_s != cfg.n_r:
            raise DomainError(_MIXED_FRAMING.format(cfg.n_s, cfg.n_r))
        value = mrc_pair_outage(cfg.n_s, cfg.rate_s, pair, convention)
        return OutageEstimate(value=value, method=EstimateMethod.CLOSED_FORM)
    if backend.kind is BackendKind.QUAD_TRUE_Q:
        return fading_outage_quadrature(cfg.n_s, cfg.rate_s, pair)
    return fading_outage_mc(
        cfg.n_s,
        cfg.rate_s,
        pair,
        backend.trials,
        backend.seed,
        stream=_STREAM_SRD,
    )


def link_outages(
    cfg: TopologyConfig,
    backend: Backend,
    convention: "LinConvention | str" = LinConvention.NATS,
) -> LinkOutages:
    """Evaluate all four constituent links of one topology.

    With a silent relay (eta = 1) the forward hop is a certain outage and
    the combined link degenerates to the direct one — by the continuity
    rule, not by evaluating a zero-SNR density.
    """
    convention = LinConvention.parse(convention)
    sd = _single_link(backend, convention, cfg.n_s, cfg.rate_s, cfg.omega_sd, _STREAM_SD)
    sr = _single_link(backend, convention, cfg.n_s, cfg.rate_s, cfg.omega_sr, _STREAM_SR)
    if cfg.relay_silent:
        rd = OutageEstimate(
            value=1.0,
            method=sd.method,
            std_error=0.0 if sd.method is EstimateMethod.MONTE_CARLO else None,
            trials=sd.trials,
            seed=sd.seed,
        )
        srd = sd
    else:
        rd = _single_link(backend, convention, cfg.n_r, cfg.rate_r, cfg.omega_rd, _STREAM_RD)
        srd = _pair_link(backend, convention, cfg)
    return LinkOutages(sd=sd, sr=sr, rd=rd, srd=srd)


def _se(estimate: OutageEstimate) -> float:
    return estimate.std_error or 0.0


def _compose(protocol: ProtocolKind, sd, sr, rd, srd):
    """Protocol outage from link outages (DF, SC, MRC; floats or arrays)."""
    if protocol is ProtocolKind.DF:
        return sr + (1.0 - sr) * rd
    if protocol is ProtocolKind.SC:
        return sd * sr + (1.0 - sr) * sd * rd
    return sd * sr + (1.0 - sr) * srd


def _silent_pair(cells, sd, *_):
    return sd  # continuity: with the relay silent the combined link is the direct one


def _pair_stage(cells, sd, omega_sd, omega_rd, n_s, n_r, rate_s, pow2m1, mu, half):
    for name, omega in (("omega_z", omega_sd), ("omega_y", omega_rd)):
        cells.fail((omega != omega) | (omega <= 0.0) | (omega == INF), DomainError,
                   MEAN_MESSAGE, name, omega)
    cells.fail(n_s != n_r, DomainError, _MIXED_FRAMING, n_s, n_r)
    return pair_link(cells, (pow2m1, mu, half), n_s, rate_s, omega_sd, omega_rd)


def _silent_hop(cells, *_):
    return 1.0  # a silent relay's forward hop is a certain outage


def _hop_stage(cells, n_r, rate_r, omega_rd, pow2m1, mu, half, convention):
    terms = None if pow2m1 is None else (pow2m1, mu, half)
    return rayleigh_link(cells, terms, n_r, rate_r, omega_rd, convention)[0]


def _closed_outage(cells, protocol: ProtocolKind, t, total_snr, convention: LinConvention):
    """Closed-form outage of one scheme over ``cells``.

    ``t`` is a TopologyConfig (``cells`` is POINT) or a TopologyCells batch
    (``cells`` is a Grid).  Links are evaluated, checked and skipped in the
    order of the per-link backends, and the links at (n_s, rate_s) share
    one set of rate terms.
    """
    if protocol is ProtocolKind.DT:
        return rayleigh_link(cells, None, t.n_s, t.rate_s, total_snr, convention)[0]
    n_s, rate_s = t.n_s, t.rate_s
    sr, terms = rayleigh_link(cells, None, n_s, rate_s, cells.take(t, "omega_sr"), convention)
    sd = omega_sd = None
    if protocol is not ProtocolKind.DF:
        omega_sd = t.omega_sd
        sd, _ = rayleigh_link(cells, terms, n_s, rate_s, omega_sd, convention)
    omega_rd = cells.take(t, "omega_rd")
    silent = omega_rd == 0.0
    if protocol is ProtocolKind.MRC:
        srd = cells.branch(silent, _silent_pair, _pair_stage,
                           sd, omega_sd, omega_rd, n_s, t.n_r, rate_s, *terms)
        value = _compose(protocol, sd, sr, None, srd)
    else:
        shared = terms if cells.same(t.n_r, n_s) else (None, None, None)
        rd = cells.branch(silent, _silent_hop, _hop_stage,
                          t.n_r, t.rate_r, omega_rd, *shared, convention)
        value = _compose(protocol, sd, sr, rd, None)
    return cells.where(value < 0.0, 0.0, cells.where(value > 1.0, 1.0, value))


def closed_outages(
    protocol: "ProtocolKind | str",
    cells: TopologyCells,
    convention: "LinConvention | str" = LinConvention.NATS,
) -> "tuple[np.ndarray, dict[int, Exception]]":
    """Closed-form outage of one scheme over a batch of topologies.

    Returns the outage per cell, equal bit for bit to ``protocol_outage``
    with the closed backend, with NaN where that call raises; and, for each
    such cell, the exception it raises.
    """
    grid = Grid(cells.size)
    with np.errstate(all="ignore"):
        value = _closed_outage(grid, ProtocolKind.parse(protocol), cells, cells.total_snr,
                               LinConvention.parse(convention))
    return np.where(grid.alive, value, np.nan), grid.failures


def protocol_outage(
    protocol: "ProtocolKind | str",
    cfg: TopologyConfig,
    backend: Backend,
    convention: "LinConvention | str" = LinConvention.NATS,
) -> OutageEstimate:
    """Overall outage of one scheme, with first-order error propagation.

    For Monte Carlo backends the composition's std_error is the delta-method
    combination of the per-link standard errors; links use independent
    sampling streams, so the cross terms vanish (the eta = 1 degeneracy
    shares the direct-link estimate, making the combined figure slightly
    conservative there).
    """
    protocol = ProtocolKind.parse(protocol)
    convention = LinConvention.parse(convention)

    if backend.kind is BackendKind.CLOSED_FORM:
        value = _closed_outage(POINT, protocol, cfg, cfg.total_snr.value, convention)
        return OutageEstimate(value=value, method=EstimateMethod.CLOSED_FORM)

    if protocol is ProtocolKind.DT:
        omega = cfg.total_snr.value  # full budget, relay idle
        return _single_link(backend, convention, cfg.n_s, cfg.rate_s, omega, _STREAM_SD)

    # Evaluate only the links this composition reads.  The combined branch
    # belongs to MRC alone, so DF and SC stay available wherever the
    # single-link forms are — mixed per-hop framings included.
    sr = _single_link(backend, convention, cfg.n_s, cfg.rate_s, cfg.omega_sr, _STREAM_SR)
    sd = None
    if protocol is not ProtocolKind.DF:
        sd = _single_link(backend, convention, cfg.n_s, cfg.rate_s, cfg.omega_sd, _STREAM_SD)

    if protocol is ProtocolKind.MRC:
        srd = sd if cfg.relay_silent else _pair_link(backend, convention, cfg)
        value = _compose(protocol, sd.value, sr.value, None, srd.value)
        grads = (
            (sd, sr.value),
            (sr, sd.value - srd.value),
            (srd, 1.0 - sr.value),
        )
    else:
        if cfg.relay_silent:
            rd = OutageEstimate(
                value=1.0,
                method=sr.method,
                std_error=0.0 if sr.method is EstimateMethod.MONTE_CARLO else None,
                trials=sr.trials,
                seed=sr.seed,
            )
        else:
            rd = _single_link(
                backend, convention, cfg.n_r, cfg.rate_r, cfg.omega_rd, _STREAM_RD
            )
        value = _compose(protocol, None if sd is None else sd.value, sr.value, rd.value, None)
        if protocol is ProtocolKind.DF:
            grads = ((sr, 1.0 - rd.value), (rd, 1.0 - sr.value))
        else:  # SC
            grads = (
                (sd, sr.value + (1.0 - sr.value) * rd.value),
                (sr, sd.value * (1.0 - rd.value)),
                (rd, sd.value * (1.0 - sr.value)),
            )

    value = min(max(value, 0.0), 1.0)
    if backend.kind is BackendKind.MONTE_CARLO:
        var = sum((g * _se(est)) ** 2 for est, g in grads)
        return OutageEstimate(
            value=value,
            method=EstimateMethod.MONTE_CARLO,
            std_error=min(math.sqrt(var), 0.5),
            trials=backend.trials,
            seed=backend.seed,
        )
    return OutageEstimate(value=value, method=EstimateMethod.QUAD_TRUE_Q)


def dt_outage(cfg, backend, convention=LinConvention.NATS) -> float:
    """Direct transmission: one link at the full SNR budget; eta is ignored."""
    return protocol_outage(ProtocolKind.DT, cfg, backend, convention).value


def df_outage(cfg, backend, convention=LinConvention.NATS) -> float:
    """Always-forward relaying: fails iff either hop fails."""
    return protocol_outage(ProtocolKind.DF, cfg, backend, convention).value


def sc_outage(cfg, backend, convention=LinConvention.NATS) -> float:
    """Selection combining: the relayed copy rescues a failed direct copy."""
    return protocol_outage(ProtocolKind.SC, cfg, backend, convention).value


def mrc_outage(cfg, backend, convention=LinConvention.NATS) -> float:
    """Ratio combining: direct and relayed branch SNRs add at the receiver."""
    return protocol_outage(ProtocolKind.MRC, cfg, backend, convention).value
