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
cross-examined by a slower, independent one.  One table holds each
composition and its partial derivatives (for the Monte Carlo std_error),
and one evaluator reads a scheme's links; a backend supplies only its link
stage: the closed-form kernels or the true-tail quadrature, at one point or
over ``_cells`` grids, or Monte Carlo at one point.  ``outages`` evaluates a
whole ``TopologyCells`` batch on any backend, bit for bit as
``protocol_outage`` and failing per cell: the closed form in one grid call,
quadrature in one grid call that integrates each link of all the cells
together, Monte Carlo cell by cell.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._cells import POINT, Grid
from ._estimates import (
    EstimateMethod,
    ExponentialDensity,
    OutageEstimate,
    check_mean,
    check_seed,
    check_trials,
    lazy_binding,
)
from .closed_form import (
    HypoexpParams,
    check_means,
    mrc_pair_outage,  # noqa: F401  (bench/worker.py traces calls through this name)
    pair_link,
    rayleigh_link,
    rayleigh_outage,  # noqa: F401  (bench/worker.py traces calls through this name)
)
from .errors import DomainError, FbrelayError, NumericError
from .finite_blocklength import RateSpec, SnrValue
from .linearization import LinConvention

# The oracles load scipy; the closed backend never calls them.
fading_outage_mc = lazy_binding(globals(), "fbrelay.oracles", "fading_outage_mc")
fading_outage_quadrature = lazy_binding(globals(), "fbrelay.oracles", "fading_outage_quadrature")
true_tail_outages = lazy_binding(globals(), "fbrelay.oracles", "true_tail_outages")

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
    """Evaluation backend selector; Monte Carlo carries its trials, at least
    the oracle's minimum, and its nonnegative seed, each read as an int."""

    kind: BackendKind
    trials: "int | None" = None
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if self.kind is BackendKind.MONTE_CARLO:
            if self.trials is None or self.seed is None:
                raise DomainError("Monte Carlo backend requires trials and seed")
            object.__setattr__(self, "trials", check_trials(self.trials))
            object.__setattr__(self, "seed", check_seed(self.seed))
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
        return cls(BackendKind.MONTE_CARLO, trials=trials, seed=seed)

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
        snr = self.total_snr if isinstance(self.total_snr, SnrValue) else SnrValue(self.total_snr)
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


#: Integers below this convert to float exactly, so numpy's k / n rounds as
#: Python's does.
_EXACT_INT = 2 ** 53


class _Cell(TopologyConfig):
    """One topology of a batch, valid by the batch's contract: a
    TopologyConfig without its checks and warnings."""

    def __post_init__(self) -> None:
        pass


class TopologyCells:
    """A batch of topologies as columns, one entry per cell.

    Each keyword replaces the matching field of ``base`` by an array (``n``
    sets both hop blocklengths); beta and path_loss_exp stay the base's.
    The cells must be valid topologies: nothing is checked here.  The
    attributes mirror TopologyConfig's: n_s, n_r, rate_s, rate_r,
    total_snr (linear) and the link SNRs, computed by the same expressions.
    The path-loss gain in omega_sr and omega_rd can overflow; ``raised``
    keeps that NumericError under the SNR's name, and every cell fails with
    it at the step where the per-topology evaluation reads that SNR.
    ``big_ints`` says that a blocklength or payload is at or above 2**53,
    where numpy's k / n would round differently from Python's: the integer
    columns then hold Python ints, and the batch is evaluated per cell.
    ``refused`` maps the index of each cell that a driver refused before
    evaluation to the error it fails with; such a cell holds valid values
    but is never evaluated.
    """

    def __init__(self, base: TopologyConfig, *, total_snr=None, eta=None, n=None, k=None,
                 refused: "dict[int, FbrelayError] | None" = None):
        given = [c for c in (total_snr, eta, n, k) if c is not None]
        self.size = len(given[0]) if given else 1
        ints = ((base.n_s, base.n_r) if n is None else (n, n)) + (base.k if k is None else k,)

        def column(values, dtype=None):
            return np.broadcast_to(np.asarray(values, dtype=dtype), (self.size,))

        # int64 below 2**63; past it numpy infers uint64, float64 or object
        self.n_s, self.n_r, self.k = (column(c) for c in ints)
        self.big_ints = bool(max(c.max() for c in (self.n_s, self.n_r, self.k)) >= _EXACT_INT)
        if self.big_ints:
            self.n_s, self.n_r, self.k = (column(c, object) for c in ints)
        self.base = base
        self.refused = {} if refused is None else refused
        self.total_snr = column(base.total_snr.value if total_snr is None else total_snr, float)
        self.eta = column(base.eta if eta is None else eta, float)
        self.rate_s = self.k / self.n_s
        self.rate_r = self.k / self.n_r
        self.raised: "dict[str, NumericError]" = {}
        with np.errstate(over="ignore"):  # a link SNR may overflow to inf, as a float's does
            self.omega_sd = _omega_sd(self.total_snr, self.eta)
            for name, omega in (("omega_sr", _omega_sr), ("omega_rd", _omega_rd)):
                try:
                    value = omega(self.total_snr, self.eta, base.beta, base.path_loss_exp)
                except NumericError as exc:
                    self.raised[name] = exc
                    value = np.full(self.size, np.nan)
                setattr(self, name, value)

    def points(self):
        """The cells one by one, as topologies with plain Python scalars."""
        b = self.base
        for snr, eta, n_s, n_r, k in zip(self.total_snr.tolist(), self.eta.tolist(),
                                         self.n_s.tolist(), self.n_r.tolist(), self.k.tolist()):
            yield _Cell(SnrValue(snr), eta, b.beta, b.path_loss_exp, n_s, n_r, k)


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


#: Per scheme: the links it reads, in the order they are evaluated and
#: checked; its outage as a function of those link outages; and the partial
#: derivative in each link, in the order the delta method sums them.  The
#: partials are written out: differencing the composition would not
#: reproduce them bit for bit.  DT reads the direct link alone, at the full
#: budget, and keeps that link's own std_error.
_SCHEMES = {
    ProtocolKind.DT: (("sd",), lambda sd: sd, {}),
    ProtocolKind.DF: (
        ("sr", "rd"),
        lambda sr, rd: sr + (1.0 - sr) * rd,
        {"sr": lambda sr, rd: 1.0 - rd,
         "rd": lambda sr, rd: 1.0 - sr},
    ),
    ProtocolKind.SC: (
        ("sr", "sd", "rd"),
        lambda sd, sr, rd: sd * sr + (1.0 - sr) * sd * rd,
        {"sd": lambda sd, sr, rd: sr + (1.0 - sr) * rd,
         "sr": lambda sd, sr, rd: sd * (1.0 - rd),
         "rd": lambda sd, sr, rd: sd * (1.0 - sr)},
    ),
    ProtocolKind.MRC: (
        ("sr", "sd", "srd"),
        lambda sd, sr, srd: sd * sr + (1.0 - sr) * srd,
        {"sd": lambda sd, sr, srd: sr,
         "sr": lambda sd, sr, srd: sd - srd,
         "srd": lambda sd, sr, srd: 1.0 - sr},
    ),
}


def _compose(cells, compose, links):
    """A scheme's outage from its link outages, clipped to [0, 1]."""
    value = compose(**links)
    return cells.where(value < 0.0, 0.0, cells.where(value > 1.0, 1.0, value))


def _silent_pair(cells, sd, *_):
    return sd  # continuity: with the relay silent the combined link is the direct one


def _hop(cells, stage, n_r, rate_r, omega_rd, pow2m1, mu, half):
    terms = None if pow2m1 is None else (pow2m1, mu, half)
    return stage.link(cells, terms, n_r, rate_r, omega_rd, _STREAM_RD)[0]


class _ValueLinks:
    """A link stage whose links are plain values, at POINT or over a Grid."""

    method: EstimateMethod

    @staticmethod
    def silent_hop(cells, *_):
        return 1.0  # a silent relay's forward hop is a certain outage

    def outage(self, compose, _partials, links) -> OutageEstimate:
        return OutageEstimate(value=_compose(POINT, compose, links), method=self.method)


class _ClosedLinks(_ValueLinks):
    """The closed form's link stage: the kernels, at POINT or over a Grid."""

    method = EstimateMethod.CLOSED_FORM

    def __init__(self, convention: LinConvention) -> None:
        self.convention = convention

    def link(self, cells, terms, n, rate, omega, _stream):
        return rayleigh_link(cells, terms, n, rate, omega, self.convention)

    @staticmethod
    def pair(cells, _sd, omega_sd, omega_rd, n_s, n_r, rate_s, pow2m1, mu, half):
        check_means(cells, omega_sd, omega_rd)
        cells.fail(n_s != n_r, DomainError, _MIXED_FRAMING, n_s, n_r)
        return pair_link(cells, (pow2m1, mu, half), n_s, rate_s, omega_sd, omega_rd)


class _QuadLinks(_ValueLinks):
    """The true-tail quadrature link stage.  At POINT each link is one
    fading_outage_quadrature call; over a Grid each link of all the cells
    is one true_tail_outages call.  Either way a link fails where, and with
    the error that, fading_outage_quadrature raises."""

    method = EstimateMethod.QUAD_TRUE_Q

    @staticmethod
    def link(cells, _terms, n, rate, omega, _stream):
        if cells is POINT:
            value = fading_outage_quadrature(n, rate, ExponentialDensity(omega)).value
        else:
            check_mean(cells, omega)  # ExponentialDensity's check
            value = true_tail_outages(cells, n, rate, omega)
        return value, (None, None, None)

    @staticmethod
    def pair(cells, _sd, omega_sd, omega_rd, n_s, _n_r, rate_s, *_):
        # The combined-branch decode is framed by the source codeword: the
        # relayed copy contributes SNR, not channel uses, so (n_s, k/n_s)
        # governs, mixed framing included.
        if cells is POINT:
            return fading_outage_quadrature(n_s, rate_s, HypoexpParams(omega_sd, omega_rd)).value
        check_means(cells, omega_sd, omega_rd)
        return true_tail_outages(cells, n_s, rate_s, omega_sd, omega_rd)


class _MonteCarloLinks:
    """The Monte Carlo link stage, at POINT only.  Links come back as
    estimates; a composition's std_error follows by the delta method."""

    def __init__(self, backend: Backend) -> None:
        self.backend = backend

    def _oracle(self, n, rate, channel, stream) -> OutageEstimate:
        b = self.backend
        return fading_outage_mc(n, rate, channel, b.trials, b.seed, stream=stream)

    def link(self, cells, _terms, n, rate, omega, stream):
        return self._oracle(n, rate, ExponentialDensity(omega), stream), (None, None, None)

    def silent_hop(self, cells, *_):
        b = self.backend
        return OutageEstimate(value=1.0, method=EstimateMethod.MONTE_CARLO, std_error=0.0,
                              trials=b.trials, seed=b.seed)

    def pair(self, cells, _sd, omega_sd, omega_rd, n_s, _n_r, rate_s, *_):
        # framed by the source codeword, as in _QuadLinks.pair
        return self._oracle(n_s, rate_s, HypoexpParams(omega_sd, omega_rd), _STREAM_SRD)

    def outage(self, compose, partials, links) -> OutageEstimate:
        if len(links) == 1:
            return links["sd"]  # DT: one link, which is its own estimate
        values = {name: est.value for name, est in links.items()}
        value = _compose(POINT, compose, values)
        b = self.backend
        var = sum((partial(**values) * (links[name].std_error or 0.0)) ** 2
                  for name, partial in partials.items())
        return OutageEstimate(value=value, method=EstimateMethod.MONTE_CARLO,
                              std_error=min(math.sqrt(var), 0.5), trials=b.trials, seed=b.seed)


def _link_stage(backend: Backend, convention: LinConvention):
    if backend.kind is BackendKind.CLOSED_FORM:
        return _ClosedLinks(convention)
    if backend.kind is BackendKind.QUAD_TRUE_Q:
        return _QuadLinks()
    return _MonteCarloLinks(backend)


def _links(cells, reads: "tuple[str, ...]", t, total_snr, stage) -> dict:
    """The outage of each link named in ``reads``, by name.

    ``t`` is one topology (``cells`` is POINT) or a TopologyCells batch
    (``cells`` is a Grid, and ``stage`` closed).  sd and sr are evaluated
    in the order of ``reads``, then rd or srd; each link is checked where
    it is evaluated.  The links at (n_s, rate_s) share one set of rate
    terms.  Without a relay link (DT) the source has the full budget.  With
    a silent relay (eta = 1) the forward hop is a certain outage and the
    combined link is the direct one, by continuity.
    """
    n_s, rate_s = t.n_s, t.rate_s
    direct_only = len(reads) == 1
    omega_sd = total_snr if direct_only else t.omega_sd
    links, terms = {}, None
    for name in reads:
        if name == "sd":
            links[name], terms = stage.link(cells, terms, n_s, rate_s, omega_sd, _STREAM_SD)
        elif name == "sr":
            omega_sr = cells.take(t, "omega_sr")
            links[name], terms = stage.link(cells, terms, n_s, rate_s, omega_sr, _STREAM_SR)
    if direct_only:
        return links
    omega_rd = cells.take(t, "omega_rd")
    silent = omega_rd == 0.0
    if "rd" in reads:
        shared = terms if cells.same(t.n_r, n_s) else (None, None, None)
        links["rd"] = cells.branch(silent, stage.silent_hop, _hop,
                                   stage, t.n_r, t.rate_r, omega_rd, *shared)
    if "srd" in reads:
        links["srd"] = cells.branch(silent, _silent_pair, stage.pair, links["sd"],
                                    omega_sd, omega_rd, n_s, t.n_r, rate_s, *terms)
    return links


def link_outages(
    cfg: TopologyConfig,
    backend: Backend,
    convention: "LinConvention | str" = LinConvention.NATS,
) -> LinkOutages:
    """Evaluate all four constituent links of one topology."""
    stage = _link_stage(backend, LinConvention.parse(convention))
    # sd first: it decides the error raised when both sd and sr fail
    links = _links(POINT, ("sd", "sr", "rd", "srd"), cfg, cfg.total_snr.value, stage)
    if backend.kind is not BackendKind.MONTE_CARLO:
        links = {name: OutageEstimate(value=value, method=stage.method)
                 for name, value in links.items()}
    return LinkOutages(**links)


def _point_outage(scheme, stage, t) -> OutageEstimate:
    reads, compose, partials = scheme
    return stage.outage(compose, partials, _links(POINT, reads, t, t.total_snr.value, stage))


def outages(
    protocol: "ProtocolKind | str",
    cells: TopologyCells,
    backend: Backend,
    convention: "LinConvention | str" = LinConvention.NATS,
) -> "tuple[np.ndarray, list[float | None], dict[int, FbrelayError]]":
    """Outage of one scheme over a batch of topologies, on any backend.

    Returns the outage per cell, equal bit for bit to ``protocol_outage``
    of that cell's topology, with NaN where that call raises; each cell's
    std_error (None but for Monte Carlo); and, for each failed cell, the
    package error it raises, or for a refused cell its refusal, with no
    evaluation.  The closed form and quadrature evaluate the batch in one
    ``Grid`` call, quadrature with one batched integration per link; Monte
    Carlo, and a batch with ``big_ints``, evaluate the cells one by one.
    """
    scheme = _SCHEMES[ProtocolKind.parse(protocol)]
    stage = _link_stage(backend, LinConvention.parse(convention))
    std_error: "list[float | None]" = [None] * cells.size
    if backend.kind is not BackendKind.MONTE_CARLO and not cells.big_ints:
        reads, compose, _ = scheme
        grid = Grid(cells.size, failures=dict(cells.refused))
        grid.alive[list(cells.refused)] = False
        with np.errstate(all="ignore"):
            value = _compose(grid, compose, _links(grid, reads, cells, cells.total_snr, stage))
        return np.where(grid.alive, value, np.nan), std_error, grid.failures
    outage, failures = np.full(cells.size, np.nan), dict(cells.refused)
    for i, t in enumerate(cells.points()):
        if i in cells.refused:
            continue
        try:
            est = _point_outage(scheme, stage, t)
        except FbrelayError as exc:
            failures[i] = exc
        else:
            outage[i], std_error[i] = est.value, est.std_error
    return outage, std_error, failures


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
    return _point_outage(_SCHEMES[ProtocolKind.parse(protocol)],
                         _link_stage(backend, LinConvention.parse(convention)), cfg)
