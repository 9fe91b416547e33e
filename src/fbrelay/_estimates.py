"""The oracle layer's value types, importable without the oracles.

``OutageEstimate``, ``EstimateMethod`` and ``ExponentialDensity`` are what
every backend returns and accepts.  They live here, apart from
``oracles``, because the oracles load scipy, which closed-form work never
needs.  The layers above call the oracles through ``lazy_binding``
stand-ins, so a closed-form run imports neither.
"""

from __future__ import annotations

import enum
import importlib
import math
from dataclasses import dataclass

import numpy as np

from ._cells import INF, POINT
from .errors import DomainError, NumericError


def lazy_binding(namespace: dict, module: str, name: str):
    """A stand-in for ``module.name``, to be bound as ``name`` in ``namespace``.

    Its first call imports ``module`` and rebinds ``namespace[name]`` to the
    real function, so later calls reach it directly at no extra cost.  If
    the name has been rebound meanwhile (a tracer or a test wrapping it),
    the stand-in forwards the call and leaves that binding alone.
    """

    def stand_in(*args, **kwargs):
        real = getattr(importlib.import_module(module), name)
        if namespace.get(name) is stand_in:
            namespace[name] = real
        return real(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    stand_in.__doc__ = f"``{module}.{name}``, imported on first call."
    return stand_in


class EstimateMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUAD_TRUE_Q = "quad_true_q"
    QUAD_LINEARIZED = "quad_linearized"
    MONTE_CARLO = "monte_carlo"


def check_estimate(cells, value) -> None:
    """An estimate must lie in [0, 1], at one point or per cell of a Grid."""
    cells.fail((value != value) | (value < 0.0) | (value > 1.0), NumericError,
               "estimate {!r} lies outside [0, 1]", value)


@dataclass(frozen=True)
class OutageEstimate:
    """A probability plus the method that produced it.

    std_error, trials and seed are present exactly when the method is
    MONTE_CARLO.
    """

    value: float
    method: EstimateMethod
    std_error: "float | None" = None
    trials: "int | None" = None
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):  # the check's own test, kept inline for speed
            check_estimate(POINT, self.value)
        is_mc = self.method is EstimateMethod.MONTE_CARLO
        if is_mc:
            if self.std_error is None or self.trials is None or self.seed is None:
                raise DomainError("Monte Carlo estimates must carry std_error, trials and seed")
            if not (0.0 <= self.std_error <= 0.5):
                raise NumericError(f"std_error {self.std_error!r} outside [0, 0.5]")
        elif self.std_error is not None or self.trials is not None or self.seed is not None:
            raise DomainError(f"{self.method.value} estimates carry no sampling metadata")


def as_int(value, what: str, template: str = "{} must be integers, got {!r}") -> int:
    """value as an int, by the package's one integer rule: a bool (Python's or numpy's),
    or a non-integral, infinite or NaN value, fails with ``template`` filled with ``what``
    and the value."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    POINT.fail(n is None or n != value, DomainError, template, what, value)
    return n


#: The fewest trials a Monte Carlo estimate may use.
_MIN_TRIALS = 10_000

#: The most trials a Monte Carlo estimate may use.  A call's draws and
#: conditional errors peak near 2 bytes a trial per worker thread (measured
#: at 2e7 trials), so at most 3.2 GB with all 16 partitions in flight.
_MAX_TRIALS = 10 ** 8


def check_trials(trials) -> int:
    """The Monte Carlo trials rule, shared by the oracle and its backend."""
    trials = as_int(trials, "trials")
    if trials < _MIN_TRIALS:
        raise DomainError(f"trials must be >= {_MIN_TRIALS}, got {trials!r}")
    if trials > _MAX_TRIALS:
        raise DomainError(f"trials must be <= {_MAX_TRIALS}, got {trials!r}")
    return trials


def check_seed(seed) -> int:
    """The Monte Carlo seed rule: numpy's SeedSequence takes only nonnegative integers."""
    template = "{} must be a nonnegative integer, got {!r}"
    seed = as_int(seed, "seed", template)
    POINT.fail(seed < 0, DomainError, template, "seed", seed)
    return seed


EXPONENTIAL_MEAN_MESSAGE = "exponential mean must be positive and finite, got {!r}"


def check_mean(cells, mean, template: str = EXPONENTIAL_MEAN_MESSAGE, *names, shown=None) -> None:
    """A density's mean must be positive and finite, at one point or per
    cell of a Grid (see ``_cells``).  ``mean`` is a float.  The message is
    ``template`` (ExponentialDensity's by default) filled with ``names`` and
    the mean, or ``shown`` where it is given, the mean as the caller gave it."""
    cells.fail((mean != mean) | (mean <= 0.0) | (mean == INF), DomainError, template, *names,
               mean if shown is None else shown)


def as_mean(value, template: str = EXPONENTIAL_MEAN_MESSAGE, *names) -> float:
    """value as a float: an int or a float, not a bool, that check_mean
    accepts, or a refusal with ``template`` filled with ``names`` and value."""
    POINT.fail(not isinstance(value, (int, float)) or isinstance(value, bool), DomainError,
               template, *names, value)
    mean = float(value)
    check_mean(POINT, mean, template, *names, shown=value)
    return mean


def exponential_cdf(w: float, mean: float) -> float:
    """P[SNR <= w] for w >= 0 of the exponential density with this mean."""
    return -math.expm1(-w / mean)


@dataclass(frozen=True)
class ExponentialDensity:
    """Exponential SNR density with the given mean (one Rayleigh link)."""

    mean: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", as_mean(self.mean))

    def pdf(self, w: float) -> float:
        if w < 0.0:
            raise DomainError(f"exponential support is [0, inf), got {w!r}")
        return math.exp(-w / self.mean) / self.mean

    def cdf(self, w: float) -> float:
        if w < 0.0:
            raise DomainError(f"exponential support is [0, inf), got {w!r}")
        return exponential_cdf(w, self.mean)
