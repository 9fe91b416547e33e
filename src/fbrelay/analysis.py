"""Parameter studies on top of the protocol layer.

Three instruments:

* ``sweep`` walks one axis (SNR budget, blocklength, or power split) across
  a set of protocols and backends and returns flat rows ready for CSV
  export, one per (value, protocol, backend) cell, with per-cell error
  capture so a single bad cell cannot kill a whole run.
* ``optimize_eta`` finds the outage-minimizing power split for a scheme by a
  coarse scan followed by golden-section refinement, reporting the scanned
  profile and whether it saw more than one local minimum.
* ``reliability_region`` maps outage over a (blocklength, payload) grid at
  fixed SNR, the raw material for "which (n, k) achieve 99.9%" contour
  questions.  It keeps the outage itself, which 1 - outage would round
  away in the ultra-reliable region.

Each instrument hands its grid to ``protocols.outages`` as one batch, on
every backend: a sweep once per protocol and backend, a power-split
search's coarse scan once, and a fixed-split region map once.  The values
are bit for bit those of per-cell evaluation, and so are the failed cells
and their messages.  How a batch is evaluated is the protocol layer's
business (the closed form in one grid call, quadrature in one batched
integration per link, Monte Carlo cell by cell).
The golden-section steps and per-cell split optimization stay per cell.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import DomainError, FbrelayError
from .finite_blocklength import _DOUBLE_MAX, _TOO_LARGE_MESSAGE, MIN_BLOCKLENGTH, RateSpec, SnrValue
from .linearization import LinConvention
from .protocols import (
    Backend,
    BackendKind,
    ProtocolKind,
    TopologyCells,
    TopologyConfig,
    outages,
    protocol_outage,
)

#: Schema tag stamped on every exported row; bump on any column change.
SCHEMA_VERSION = 1

_SWEEP_AXES = ("total_snr", "blocklength", "eta")

# Interior of the golden ratio: 2/(1+sqrt(5)) = 0.618..., the fraction of
# the bracket kept per golden-section step.
_GOLDEN = 2.0 / (1.0 + math.sqrt(5.0))

#: No code maps more than 8 bits onto one channel use in this package's
#: regime of interest; region grids beyond that are rejected outright.
MAX_BITS_PER_USE = 8.0


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid cell, flattened to exportable scalars.

    ``outage`` is NaN exactly when ``error`` is set; ``std_error`` is only
    meaningful for Monte Carlo backends and None otherwise.
    """

    protocol: str
    backend: str
    convention: str
    snr_db: float
    eta: float
    beta: float
    alpha: float
    n_s: int
    n_r: int
    k: int
    rate: float
    outage: float
    std_error: "float | None"
    error: "str | None"
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_cell(
        cls,
        protocol: ProtocolKind,
        cfg: TopologyConfig,
        backend: Backend,
        convention: LinConvention,
        outage: float,
        std_error: "float | None" = None,
        error: "str | None" = None,
    ) -> "SweepRow":
        """The row of one evaluated configuration."""
        return cls(
            protocol=protocol.value,
            backend=backend.label,
            convention=convention.value,
            snr_db=cfg.total_snr.to_db(),
            eta=cfg.eta,
            beta=cfg.beta,
            alpha=cfg.path_loss_exp,
            n_s=cfg.n_s,
            n_r=cfg.n_r,
            k=cfg.k,
            rate=cfg.rate_s,
            outage=outage,
            std_error=std_error,
            error=error,
        )


@dataclass(frozen=True)
class EtaOptimum:
    """Result of a power-split search.

    ``profile`` preserves the coarse scan (eta, outage) pairs so callers can
    plot the landscape the optimum came from.  ``multimodal`` is True when
    the coarse scan saw more than one interior local minimum; the reported
    optimum is then the best grid point, unrefined, since a bracketing line
    search is only trustworthy on a unimodal profile.
    """

    eta_star: float
    eps_star: float
    protocol: ProtocolKind
    profile: "tuple[tuple[float, float], ...]"
    multimodal: bool

    def __post_init__(self) -> None:
        if not (0.0 < self.eta_star <= 1.0):
            raise DomainError(f"eta_star must lie in (0, 1], got {self.eta_star!r}")
        if not (0.0 <= self.eps_star <= 1.0):
            raise DomainError(f"eps_star must be a probability, got {self.eps_star!r}")


@dataclass(frozen=True)
class RegionGrid:
    """Outage matrix over payload (columns) x blocklength (rows).

    ``outage[i][j]`` is the outage at n = n_values[i], k = k_values[j];
    NaN marks a cell whose evaluation failed.  ``errors`` holds exactly one
    ``"n=.. k=..: reason"`` per NaN cell, in row-major order (n, then k),
    so a walk over the matrix can take the reasons in turn.
    """

    protocol: ProtocolKind
    convention: LinConvention
    snr: SnrValue
    eta: float
    k_values: "tuple[int, ...]"
    n_values: "tuple[int, ...]"
    outage: "tuple[tuple[float, ...], ...]"
    errors: "tuple[str, ...]" = ()

    def __post_init__(self) -> None:
        if len(self.outage) != len(self.n_values):
            raise DomainError("outage must have one row per blocklength")
        for row in self.outage:
            if len(row) != len(self.k_values):
                raise DomainError("every outage row must have one entry per payload")
            for cell in row:
                if not math.isnan(cell) and not (0.0 <= cell <= 1.0):
                    raise DomainError(f"outage entries must be probabilities, got {cell!r}")

    @property
    def success(self) -> "tuple[tuple[float, ...], ...]":
        """Success probability 1 - outage per cell, NaN where it failed.
        Below an outage of about 1.1e-16 it rounds to 1."""
        return tuple(tuple(1.0 - eps for eps in row) for row in self.outage)


def _as_protocols(protocols) -> "tuple[ProtocolKind, ...]":
    if isinstance(protocols, (ProtocolKind, str)):
        protocols = [protocols]
    out = tuple(ProtocolKind.parse(p) for p in protocols)
    if not out:
        raise DomainError("protocol set must be non-empty")
    return out


def _as_backends(backends) -> "tuple[Backend, ...]":
    if isinstance(backends, Backend):
        backends = [backends]
    out = tuple(backends)
    if not out:
        raise DomainError("backend set must be non-empty")
    for b in out:
        if not isinstance(b, Backend):
            raise DomainError(f"expected a Backend, got {b!r}")
    return out


def sweep(
    protocols: "ProtocolKind | str | list | tuple",
    base: TopologyConfig,
    axis: str,
    values: "list[float] | tuple[float, ...]",
    backends: "Backend | list | tuple",
    convention: "LinConvention | str" = LinConvention.NATS,
) -> "list[SweepRow]":
    """Evaluate protocols x backends along one axis, the rest held at ``base``.

    ``axis`` is one of "total_snr" (values are linear SNR ratios; rows still
    report dB), "blocklength" (values set n_s = n_r jointly), or "eta".
    Values must be non-empty and sorted ascending.  Rows come out axis-major,
    then protocol, then backend.  Cells whose configuration or evaluation
    fails produce a row with NaN outage and the error message instead of
    aborting the sweep.
    """
    kinds = _as_protocols(protocols)
    bends = _as_backends(backends)
    convention = LinConvention.parse(convention)
    if axis not in _SWEEP_AXES:
        raise DomainError(f"axis must be one of {_SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise DomainError("sweep values must be non-empty")
    if any(b > a for a, b in zip(values[1:], values)):
        raise DomainError("sweep values must be sorted ascending")

    points: "list[tuple[TopologyConfig | None, str | None]]" = []
    for value in values:
        try:
            if axis == "total_snr":
                cfg = dataclasses.replace(base, total_snr=SnrValue(float(value)))
            elif axis == "blocklength":
                n = int(value)
                if n != value:
                    raise DomainError(f"blocklength values must be integers, got {value!r}")
                cfg = dataclasses.replace(base, n_s=n, n_r=n)
            else:
                cfg = dataclasses.replace(base, eta=float(value))
        except FbrelayError as exc:
            # the point itself is malformed; report it against the base config
            points.append((None, f"{axis}={value!r}: {exc}"))
            continue
        points.append((cfg, None))

    valid = [cfg for cfg, _msg in points if cfg is not None]
    results = []  # per (protocol, backend): (outage, std_error, failures) per valid point
    if valid:
        if axis == "total_snr":
            column = {"total_snr": [c.total_snr.value for c in valid]}
        elif axis == "blocklength":
            column = {"n": [c.n_s for c in valid]}
        else:
            column = {"eta": [c.eta for c in valid]}
        cells = TopologyCells(base, **column)
        for kind in kinds:
            for backend in bends:
                outage, std_error, failures = outages(kind, cells, backend, convention)
                results.append((kind, backend, outage.tolist(), std_error, failures))

    rows: "list[SweepRow]" = []
    j = 0  # index of the point among the valid ones
    for cfg, msg in points:
        if cfg is None:
            for kind in kinds:
                for backend in bends:
                    rows.append(SweepRow.from_cell(kind, base, backend, convention, math.nan,
                                                   error=msg))
            continue
        for kind, backend, outage, std_error, failures in results:
            exc = failures.get(j)  # outage is NaN where a cell failed
            rows.append(SweepRow.from_cell(kind, cfg, backend, convention, outage[j],
                                           std_error[j], None if exc is None else str(exc)))
        j += 1
    return rows


def _coarse_grid(step: float) -> "list[float]":
    count = round(1.0 / step)
    if abs(count * step - 1.0) > 1e-12:
        raise DomainError(f"coarse_step must divide 1 evenly, got {step!r}")
    return [i * step for i in range(1, count)] + [1.0]


def _local_minima(values: "list[float]") -> "list[int]":
    """Indices of local minima, endpoints included, plateaus counted once."""
    idx = []
    last = len(values) - 1
    for i, v in enumerate(values):
        left = values[i - 1] if i > 0 else math.inf
        right = values[i + 1] if i < last else math.inf
        if v < left and v <= right:
            idx.append(i)
    return idx


def optimize_eta(
    protocol: "ProtocolKind | str",
    cfg: TopologyConfig,
    backend: Backend,
    convention: "LinConvention | str" = LinConvention.NATS,
    *,
    coarse_step: float = 0.05,
    refine_tol: float = 1e-3,
) -> EtaOptimum:
    """Minimize outage over the power split eta in (0, 1].

    A coarse scan on {step, 2*step, ..., 1} locates the basin; a
    golden-section search then shrinks the bracket around the best point to
    width refine_tol.  The returned eps_star is never worse than the best
    coarse point.  Monte Carlo backends are rejected: their noise makes a
    bracketing search meaningless at these tolerances.
    """
    protocol = ProtocolKind.parse(protocol)
    convention = LinConvention.parse(convention)
    if backend.kind is BackendKind.MONTE_CARLO:
        raise DomainError("optimize_eta requires a deterministic backend")
    if not (0.0 < coarse_step <= 0.05):
        raise DomainError(f"coarse_step must lie in (0, 0.05], got {coarse_step!r}")
    if not (0.0 < refine_tol <= 1e-3):
        raise DomainError(f"refine_tol must lie in (0, 1e-3], got {refine_tol!r}")

    def f(eta: float) -> float:
        return protocol_outage(
            protocol, dataclasses.replace(cfg, eta=eta), backend, convention
        ).value

    grid = _coarse_grid(coarse_step)
    outage, _, failures = outages(protocol, TopologyCells(cfg, eta=grid), backend, convention)
    if failures:
        raise failures[min(failures)]  # where a point-by-point scan would stop
    values = outage.tolist()
    profile = list(zip(grid, values))
    best_i = min(range(len(values)), key=values.__getitem__)
    best_eta, best_eps = profile[best_i]

    multimodal = len(_local_minima(values)) > 1
    if not multimodal:
        # golden-section on the bracket spanning the best coarse point
        lo = grid[best_i - 1] if best_i > 0 else grid[0] / 2.0
        hi = grid[best_i + 1] if best_i < len(grid) - 1 else grid[-1]
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = f(x1), f(x2)
        while hi - lo > refine_tol:
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = f(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = f(x2)
            if f1 < best_eps:
                best_eta, best_eps = x1, f1
            if f2 < best_eps:
                best_eta, best_eps = x2, f2

    return EtaOptimum(
        eta_star=best_eta,
        eps_star=best_eps,
        protocol=protocol,
        profile=tuple(profile),
        multimodal=multimodal,
    )


def _ascending_ints(values, what: str) -> "tuple[int, ...]":
    out = tuple(int(v) for v in values)
    if not out:
        raise DomainError(f"{what} must be non-empty")
    if any(v < 1 for v in out):
        raise DomainError(f"{what} must be positive integers")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise DomainError(f"{what} must be strictly ascending")
    if out[-1] > _DOUBLE_MAX:
        raise DomainError(_TOO_LARGE_MESSAGE.format(f"the last of {what}"))
    return out


def reliability_region(
    protocol: "ProtocolKind | str",
    snr: "SnrValue | float",
    n_values: "list[int] | tuple[int, ...]",
    k_values: "list[int] | tuple[int, ...]",
    backend: Backend,
    convention: "LinConvention | str" = LinConvention.NATS,
    *,
    eta: float = 0.5,
    beta: float = 0.5,
    path_loss_exp: float = 0.0,
    allow_short: bool = False,
    optimize_power_split: bool = False,
) -> RegionGrid:
    """Outage over the (n, k) plane at fixed SNR.

    Grids must be non-empty ascending positive integers no larger than the
    largest double, and even the smallest blocklength must accommodate the
    largest payload under MAX_BITS_PER_USE.  Cells whose evaluation raises come back as NaN with
    the reason recorded in errors — the rest of the grid still fills in.
    The topology fields are validated once and each blocklength once (the
    payloads are positive integers already), in the order TopologyConfig
    checks them, so a refused cell carries the message its own
    TopologyConfig would raise; short blocklengths warn once each.  The
    other cells are evaluated in one batch at the fixed eta, or with
    optimize_power_split=True each by its own power-split search, which
    reports its best split's outage (deterministic backends only;
    noticeably slower).
    """
    protocol = ProtocolKind.parse(protocol)
    convention = LinConvention.parse(convention)
    snr = snr if isinstance(snr, SnrValue) else SnrValue(float(snr))
    ks = _ascending_ints(k_values, "k_values")
    ns = _ascending_ints(n_values, "n_values")
    if max(ks) >= MAX_BITS_PER_USE * min(ns):
        raise DomainError(
            f"k={max(ks)} at n={min(ns)} exceeds {MAX_BITS_PER_USE} bits per channel use"
        )
    if optimize_power_split and backend.kind is BackendKind.MONTE_CARLO:
        raise DomainError("optimize_power_split requires a deterministic backend")

    try:
        base = TopologyConfig(total_snr=snr, eta=eta, beta=beta, path_loss_exp=path_loss_exp,
                              n_s=MIN_BLOCKLENGTH, n_r=MIN_BLOCKLENGTH, k=1)
    except FbrelayError as exc:
        refused = {n: str(exc) for n in ns}
    else:
        refused = {}
        for n in ns:
            try:
                RateSpec(ks[0], n, allow_short=allow_short)
            except FbrelayError as exc:
                refused[n] = str(exc)
    kept = [n for n in ns if n not in refused]
    width = len(ks)
    n_col, k_col = [n for n in kept for _ in ks], list(ks) * len(kept)
    outage: "list[float]" = []
    failures: "dict[int, FbrelayError]" = {}
    if optimize_power_split:
        for i, (n, k) in enumerate(zip(n_col, k_col)):
            cfg = dataclasses.replace(base, n_s=n, n_r=n, k=k, allow_short=allow_short)
            try:
                outage.append(optimize_eta(protocol, cfg, backend, convention).eps_star)
            except FbrelayError as exc:
                failures[i] = exc
                outage.append(math.nan)
    elif kept:
        values, _, failures = outages(protocol, TopologyCells(base, n=n_col, k=k_col), backend,
                                      convention)
        outage = values.tolist()
    failed_in_row: "dict[int, list[int]]" = {}
    for i in sorted(failures):
        failed_in_row.setdefault(i // width, []).append(i)

    errors: "list[str]" = []
    matrix: "list[tuple[float, ...]]" = []
    r = 0  # row among the evaluated blocklengths
    for n in ns:
        if n in refused:
            errors.extend(f"n={n} k={k}: {refused[n]}" for k in ks)
            matrix.append((math.nan,) * width)
            continue
        for i in failed_in_row.get(r, ()):
            errors.append(f"n={n} k={ks[i - r * width]}: {failures[i]}")
        matrix.append(tuple(outage[r * width:(r + 1) * width]))
        r += 1
    return RegionGrid(
        protocol=protocol,
        convention=convention,
        snr=snr,
        eta=eta,
        k_values=ks,
        n_values=ns,
        outage=tuple(matrix),
        errors=tuple(errors),
    )
