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

Both adaptive quadratures run one integrator, ``_integrate``: a vectorized
21-point Gauss-Kronrod rule (QUADPACK's qk21 nodes and weights) over a batch
of integrals, each with its own cuts and its own error budget; a single
oracle call is a batch of one.  Every cut interval starts as equal panels;
each pass evaluates the open panels of every integral in one array call of
the integrand, accepts a panel once its Kronrod-minus-Gauss difference is
within abs_tol times its share of its integral's total width, and bisects
the rest.  A panel cap per integral bounds the work; reaching it, or a
non-finite panel sum, fails that integral alone with ConvergenceError.  An
integral's value does not depend on the batch it is in, bit for bit.
true_tail_outages gives, for each cell of a ``_cells.Grid`` (the protocol
layer's batches), the bits of fading_outage_quadrature at that cell, with
the integrals of a fixed number of cells per integrator call.  The
fixed-rule cross-check fading_outage_quadrature_fixed keeps composite
Gauss-Legendre on a scalar integrand, so it shares neither scheme nor
arithmetic with them.

Below _as_density, the parser of the public channel argument, the oracles
read a channel as its branch means (omega_z, omega_y), omega_y NaN for one
Rayleigh link: two floats at a point, two columns in a batch.

The true-tail conditional error depends on (n, rate) alone; the fading
enters only through the density that multiplies it.  So the two true-tail
entry points share one per-process memo of the first pass: its panels and
the conditional error at their nodes, keyed by (sqrt(n), rate ln 2, cuts),
where cuts are the breakpoints from _axis_cuts (a density-scale hint cut
simply makes another key).  All the links at one (n, rate) of a power-split
search, a coarse scan or an SNR sweep then lay out and evaluate that pass
once.  Most integrals converge in their first pass, which is then one
multiplication by the density, handed to _integrate as evaluated; later
passes run as without the memo.  The memo keeps the _MEMO_SIZE keys used
last (about 1 MB of read-only arrays), and a batch fills all the keys it
lacks in one call; an entry shares that fill's arrays until it is first
reused.  A value is the same bits with the memo cold or warm.
linearized_outage_quadrature and the fixed rule do not use it.

Monte Carlo reproducibility contract: the estimate is a pure function of
(seed, trials, partitions, stream).  Each partition owns a counter-based
generator keyed by (seed, stream, partition index), and partial sums are
combined in partition order, so the result is bit-identical regardless of
how many threads actually ran.  The partitions of every call run on one
thread pool per process, built by the first call that needs more than one
worker and rebuilt only when the worker count changes.

The value types (OutageEstimate, EstimateMethod, ExponentialDensity) are
defined in ``_estimates``, which does not load scipy, and re-exported here.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
from scipy.special import erfc

from ._cells import INF, POINT, expm1_or_inf
from ._estimates import (EstimateMethod, ExponentialDensity, OutageEstimate, as_int, check_seed,
                         check_trials)
from .closed_form import HypoexpParams, hypoexp_pdf, means_cdf, tied_means
from .errors import ConvergenceError, DomainError, NumericError
from .finite_blocklength import LN2, SnrValue, check_code, outage_given_snr
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

#: Equal panels each cut interval starts with, and their edges on [0, 1].
_START_PANELS = 8
_START_STEPS = np.arange(_START_PANELS + 1) / _START_PANELS

#: Most panels a partition may hold (QUADPACK's limit is 400 subintervals).
_PANEL_LIMIT = 400

#: The fixed cross-check's rule: equal panels per cut interval, and
#: Gauss-Legendre nodes per panel.
_FIXED_PANELS = 96
_FIXED_ORDER = 16


def _as_density(channel) -> "tuple[float, float]":
    """(omega_z, omega_y): the branch means of the channel's SNR density,
    omega_y NaN for one link.  A bool is not an average SNR."""
    if isinstance(channel, HypoexpParams):
        return channel.omega_z, channel.omega_y
    if isinstance(channel, (int, float, SnrValue)) and not isinstance(channel, bool):
        channel = ExponentialDensity(float(channel))
    if isinstance(channel, ExponentialDensity):
        return channel.mean, math.nan
    raise DomainError(f"cannot interpret {channel!r} as a channel density")


def _exponential_pdf(mean, w: np.ndarray) -> np.ndarray:
    return np.exp(-w / mean) / mean


def _erlang_pdf(mean, w: np.ndarray) -> np.ndarray:
    return (w / (mean * mean)) * np.exp(-w / mean)


def _hypoexp_pdf_np(big, small, w: np.ndarray) -> np.ndarray:
    gap = big - small
    return np.exp(-w / big) * -np.expm1(-w * (gap / (big * small))) / gap


def _pdf(omega_z: float, omega_y: float):
    """(pdf, params): the array twin of ExponentialDensity.pdf and
    hypoexp_pdf for these branch means, as pdf(*params, w) for w >= 0.

    With big > small the two means, the distinct-means density is taken as
    exp(-w/big) * -expm1(-w * gap/(big*small)) / gap, gap = big - small: the
    value of hypoexp_pdf's difference of exponentials without its
    cancellation near w = 0 and near equal means.  That cancellation is
    rounding noise, which adaptive quadrature would try to resolve by
    subdivision.  The three formulas take their parameters as scalars or as
    columns, one row per panel, with the same arithmetic either way.
    """
    if omega_y != omega_y:
        return _exponential_pdf, (omega_z,)
    if tied_means(POINT, omega_z, omega_y):
        return _erlang_pdf, (omega_z,)
    return _hypoexp_pdf_np, (max(omega_z, omega_y), min(omega_z, omega_y))


def _check_abs_tol(abs_tol: float) -> float:
    lo, hi = _ABS_TOL_RANGE
    if not (lo <= abs_tol <= hi):
        raise DomainError(f"abs_tol must lie in [{lo}, {hi}], got {abs_tol!r}")
    return float(abs_tol)


#: Cells whose integrals true_tail_outages passes to one _integrate call:
#: a large batch runs in chunks of this many, which bounds its memory.
_CHUNK = 32

#: _integrate's outcome per integral.
_CONVERGED, _NON_FINITE, _CAPPED = 0, 1, 2


def _lengths(counts: np.ndarray) -> "list[int]":
    """The distinct positive entries of counts."""
    return sorted(set(counts.tolist()) - {0})


def _panel_sums(values: np.ndarray, owner: np.ndarray, size: int) -> np.ndarray:
    """The (Kronrod, Gauss) rule of each panel, on [-1, 1].

    BLAS gives a row of ``values @ _GK21_WEIGHTS`` bits that depend on the
    number of rows in the call, while a stack of equal shapes gives each
    slice the bits of its own call.  So the panels of the integrals with
    the same open-panel count go through one stacked matmul.
    """
    if owner[0] == owner[-1]:  # one integral
        return values @ _GK21_WEIGHTS
    counts = np.bincount(owner, minlength=size)
    lengths = _lengths(counts)
    if len(lengths) == 1:
        return (values.reshape(-1, lengths[0], values.shape[1]) @ _GK21_WEIGHTS).reshape(-1, 2)
    sums = np.empty((len(values), 2))
    for c in lengths:
        rows = (counts == c)[owner]
        sums[rows] = (values[rows].reshape(-1, c, values.shape[1]) @ _GK21_WEIGHTS).reshape(-1, 2)
    return sums


def _add_sums(totals: np.ndarray, values: np.ndarray, owner: np.ndarray) -> None:
    """Add to totals[j] the np.sum of owner j's values, which lie in owner
    order.  The owners with the same number of values are summed as the
    rows of one matrix: np.sum reduces each row of a matrix as it reduces
    that row alone, so every owner gets the bits of its own np.sum."""
    if not owner.size:
        return
    if owner[0] == owner[-1]:  # one owner
        totals[owner[0]] += values.sum()
        return
    counts = np.bincount(owner, minlength=totals.size)
    for m in _lengths(counts):
        rows = counts == m
        totals[rows] += values[rows[owner]].reshape(-1, m).sum(axis=1)


def _sum_in_order(values: "list[float]") -> float:
    """np.sum of the values, bit for bit: numpy adds fewer than 8 terms one
    by one, from the left, as Python's sum does."""
    return sum(values) if len(values) < 8 else float(np.sum(values))


def _first_panels(cuts: "list[list[float]]"):
    """(owner, mid, half, width): the panels of _integrate's first pass over
    a batch of integrals, and each integral's total width.

    Each nonempty interval of integral j's cuts becomes _START_PANELS equal
    panels, given by midpoint and half-width, with owner j; the panels lie
    in integral order.  width[j] is the np.sum of those intervals' widths
    (0.0 when there are none).  Every panel's arithmetic is its own, so a
    panel's bits do not depend on the batch it is in.
    """
    lo, hi, owner, width = [], [], [], []
    for j, edges in enumerate(cuts):
        widths = []
        for a, b in zip(edges, edges[1:]):
            if b > a:
                lo.append(a)
                hi.append(b)
                owner.append(j)
                widths.append(b - a)
        width.append(_sum_in_order(widths) if widths else 0.0)
    lo, hi = np.array((lo, hi), dtype=float).reshape(2, -1, 1)
    grid = lo + (hi - lo) * _START_STEPS
    left, right = grid[:, :-1], grid[:, 1:]
    owner = np.array(owner, dtype=np.intp).repeat(_START_PANELS)
    return owner, (0.5 * (left + right)).ravel(), (0.5 * (right - left)).ravel(), width


def _integrate(integrand, cuts: "list[list[float]]", abs_tol: float, first=None):
    """Adaptive Gauss-Kronrod quadrature of a batch of integrals.

    Integral j runs over the consecutive intervals [cuts[j][i],
    cuts[j][i+1]], empty ones skipped.  integrand(owner, x) maps abscissae x,
    one row per panel, to values, where owner[r] is the integral that row r
    belongs to.  The first pass is over the panels of _first_panels(cuts); a
    caller that has evaluated it (the true-tail oracles, from the memo)
    passes it as first = (owner, mid, half, width, values at their nodes).
    Each integral has its own error budget: a panel is accepted once
    |K21 - G10| is at most abs_tol times its share of that integral's total
    width, so the differences of its accepted panels add up to at most
    abs_tol.

    Returns (totals, status).  status[j] is _CONVERGED, _NON_FINITE (a
    panel sum was not finite) or _CAPPED (more than _PANEL_LIMIT panels
    were needed); totals[j] is meaningful only for _CONVERGED.  Each pass
    evaluates the open panels of all integrals in one integrand call, so a
    caller keeps a batch's arrays bounded by passing at most _CHUNK
    integrals.  An integral's arithmetic is the same in any batch, so its
    total is bit for bit what it is alone: its panels keep their order
    (after a bisection, the left halves and then the right halves), its
    panel sums come from a matmul of its own shape (see _panel_sums), and
    its accepted panels are summed in order, pass by pass.
    """
    size = len(cuts)
    totals, status = np.zeros(size), np.zeros(size, dtype=np.int8)
    owner, mid, half, width, values = first or (*_first_panels(cuts), None)
    if not owner.size:
        return totals, status
    tol_per_width = np.array([abs_tol / w if w else 0.0 for w in width])
    # opened holds every panel opened so far, as its integral's index.  No
    # integral has more panels than bound (the first pass's largest possible
    # count plus all panels opened since), so they are counted only past the
    # cap.
    opened = [owner]
    bound = _START_PANELS * (max(map(len, cuts)) - 1)
    while True:
        if values is None:
            values = integrand(owner, mid[:, None] + half[:, None] * _GK21_NODES)
        sums = _panel_sums(values, owner, size) * half[:, None]  # columns: Kronrod, Gauss
        values = None
        done = np.abs(sums[:, 0] - sums[:, 1]) <= tol_per_width[owner] * (2.0 * half)
        if not np.isfinite(sums).all():
            failed = np.zeros(size, dtype=bool)
            failed[owner[~np.isfinite(sums).all(axis=1)]] = True
            status[failed] = _NON_FINITE
            open_ = ~done & ~failed[owner]
            done &= ~failed[owner]
        elif done.all():  # the usual end: the pass accepted every panel
            _add_sums(totals, sums[:, 0], owner)
            return totals, status
        else:
            open_ = ~done
        _add_sums(totals, sums[done, 0], owner[done])
        owner, mid, half = owner[open_], mid[open_], 0.5 * half[open_]
        if not owner.size:
            return totals, status
        opened.append(owner)
        bound += owner.size
        if bound > _PANEL_LIMIT:
            capped = np.bincount(np.concatenate(opened), minlength=size) > _PANEL_LIMIT
            capped &= status == _CONVERGED
            if capped.any():
                status[capped] = _CAPPED
                open_ = ~capped[owner]
                owner, mid, half = owner[open_], mid[open_], half[open_]
                if not owner.size:
                    return totals, status
        mid, half = np.concatenate((mid - half, mid + half)), np.concatenate((half, half))
        if owner[0] != owner[-1]:  # more than one integral still open
            order = np.concatenate((owner, owner)).argsort(kind="stable")  # each one's
            mid, half = mid[order], half[order]  # left halves, then its right halves
        owner = owner.repeat(2)


def _integrate_one(integrand, cuts: "list[float]", abs_tol: float, first=None) -> float:
    """One integral of integrand(owner, x) over cuts: _integrate's batch of
    one, raising ConvergenceError where it gives up."""
    totals, status = _integrate(integrand, [cuts], abs_tol, first)
    _check_converged(POINT, status[0], cuts, abs_tol)
    return float(totals[0])


def _check_converged(cells, status, cuts, abs_tol: float) -> None:
    """Fail where _integrate gave up, naming the integral's cuts."""
    cells.fail(status == _NON_FINITE, ConvergenceError,
               "quadrature over {!r} hit a non-finite panel sum", cuts)
    cells.fail(status == _CAPPED, ConvergenceError,
               "quadrature over {!r} needs more than {} panels to reach abs_tol={!r}",
               cuts, _PANEL_LIMIT, abs_tol)


def _transition_window(cells, n, rate):
    """(w0, w_lo, w_hi): the SNR where the conditional error crosses 1/2 and
    the points where its Gaussian argument saturates at ±42 sigma, at one
    point or per cell of a Grid (see ``_cells``)."""
    spread = cells.each(expm1_or_inf, 2.0 * rate * LN2)  # 2^(2 rate) - 1, the first to overflow
    cells.fail(spread == INF, NumericError,
               "true-tail quadrature: transition window overflowed double precision "
               "(n={}, rate={!r})", n, rate)
    w0 = cells.each(math.expm1, rate * LN2)  # 2^rate - 1
    slope = cells.sqrt(n / spread)  # d(argument)/dw at w0
    width = _SATURATION_SIGMAS / slope
    w_lo = w0 - width
    return w0, cells.where(w_lo > 0.0, w_lo, 0.0), w0 + width


def _axis_cuts(window: "tuple[float, float, float]", omega_z: float,
               omega_y: float) -> "tuple[float, list[float]]":
    """(head, cuts) for a true-tail quadrature over one cell's window: the
    mass of the density with branch means (omega_z, omega_y) below the
    saturated window, and the breakpoints to integrate over."""
    w0, w_lo, w_hi = window
    head = means_cdf(w_lo, omega_z, omega_y) if w_lo > 0.0 else 0.0
    cuts = [w_lo, w0, w_hi]
    # If the density decays long before the transition, hint the mass scale
    # so the subdivision does not have to discover it on a huge interval.
    scale = 50.0 * (omega_z if omega_y != omega_y else max(omega_z, omega_y))
    if w_lo + scale < w0:
        cuts.insert(1, w_lo + scale)
    return head, cuts


#: Most keys the first-pass memo holds.  An entry is at most 3 intervals of
#: _START_PANELS panels, each 23 doubles (4.4 KB), and most hold 2
#: intervals, so the memo stays near 1 MB.  An entry of a fill of several
#: keys starts as slices of the fill's arrays and gets its own copies when
#: it is first reused.  An entry not yet reused has never moved, so every
#: key filled after it is still held: the fills such entries keep alive
#: hold at most _MEMO_SIZE + _CHUNK keys' panels.
_MEMO_SIZE = 256

_memo: "OrderedDict[tuple, tuple]" = OrderedDict()
_memo_lock = threading.Lock()


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _first_pass(keys: "list[tuple]", conditional):
    """(owner, mid, half, width, nodes, values): _first_panels of a batch
    of true-tail integrals, the node matrix mid[:, None] + half[:, None] *
    _GK21_NODES, and the conditional error at those nodes.

    Integral j's key is (sqrt(n), rate ln 2, cuts): the numbers the
    conditional error reads and the breakpoints that place the nodes, so
    equal keys give equal bits whatever the density and the numeric types
    of n and rate.  Each key's entry, read-only mid, half and values arrays
    and the width, comes from a memo of the _MEMO_SIZE keys used last,
    shared by the process.  The missing keys are filled together by one
    _first_panels call and one conditional(owner, x) call, as in a later
    pass; a fill of keys whose intervals are all empty has no node and
    makes no call.  mid and half may be the memo's read-only arrays, and so
    may values in a batch of one; nodes is a fresh array.  The call keeps
    the entries it found or filled, so no eviction, by its own fill or
    another thread's, can take them from it.
    """
    with _memo_lock:
        entries = list(map(_memo.get, keys))
        for key, found in zip(keys, entries):
            if found is not None:
                _memo.move_to_end(key)
                if found[2].base is not None:  # first reuse: stop keeping its fill alive
                    _memo[key] = (*_read_only(*(array.copy() for array in found[:3])), found[3])
    missing = {}  # key -> the first integral with it
    for j, (key, found) in enumerate(zip(keys, entries)):
        if found is None:
            missing.setdefault(key, j)
    if missing:
        owner, mid, half, width = _first_panels([key[2] for key in missing])
        x = mid[:, None] + half[:, None] * _GK21_NODES
        if not owner.size:  # no node to evaluate
            values = x
        elif len(missing) == len(keys):
            values = conditional(owner, x)
        else:
            values = conditional(np.array(list(missing.values()))[owner], x)
        kept = _read_only(mid, half, values.copy())
        if len(missing) == 1:
            filled = [(*kept, width[0])]
        else:
            ends = np.cumsum(np.bincount(owner, minlength=len(missing))).tolist()
            filled = [(*(array[start:end] for array in kept), w)
                      for start, end, w in zip([0] + ends, ends, width)]
        with _memo_lock:
            _memo.update(zip(missing, filled))
            for _ in range(len(_memo) - _MEMO_SIZE):
                _memo.popitem(last=False)
        if len(missing) == len(keys):  # the fill is the whole batch
            return owner, mid, half, width, x, values
        filled = dict(zip(missing, filled))
        entries = [filled[key] if found is None else found for key, found in zip(keys, entries)]
    mid, half, values, width = zip(*entries)
    if len(entries) == 1:
        owner, (mid,), (half,), (values,) = np.zeros(mid[0].size, np.intp), mid, half, values
    else:
        owner = np.arange(len(keys)).repeat([len(part) for part in mid])
        mid, half, values = np.concatenate(mid), np.concatenate(half), np.concatenate(values)
    return owner, mid, half, list(width), mid[:, None] + half[:, None] * _GK21_NODES, values


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
    check_code(POINT, n, rate)
    omega_z, omega_y = _as_density(channel)
    head, cuts = _axis_cuts(_transition_window(POINT, n, rate), omega_z, omega_y)
    pdf, params = _pdf(omega_z, omega_y)
    owner, mid, half, width, w, values = _first_pass(
        [(_sqrt_n(n), rate * LN2, tuple(cuts))],
        lambda _owner, w: _conditional_outage_np(n, rate, w))
    first = owner, mid, half, width, values * pdf(*params, w)
    value = head + _integrate_one(
        lambda _owner, w: _conditional_outage_np(n, rate, w) * pdf(*params, w),
        cuts, abs_tol, first)
    value = min(max(value, 0.0), 1.0)  # round-off at the saturated ends
    return OutageEstimate(value=value, method=EstimateMethod.QUAD_TRUE_Q)


def true_tail_outages(cells, n, rate, omega_z, omega_y=None, abs_tol: float = 1e-10):
    """fading_outage_quadrature over the live cells of a ``_cells.Grid``.

    Cell i's channel is the combined link with branch means (omega_z[i],
    omega_y[i]), or one Rayleigh link of mean SNR omega_z[i] where omega_y
    is None or omega_y[i] is NaN; the means must be valid.  Each cell is
    checked as that call checks it, and fails with the exception it
    raises.  The integrals of _CHUNK cells at a time run through one
    _integrate call, and each value is bit for bit the one that call
    returns.  Returns the values, meaningless at failed cells.
    """
    abs_tol = _check_abs_tol(abs_tol)
    check_code(cells, n, rate)
    window = _transition_window(cells, n, rate)
    if omega_y is None:
        omega_y = np.full(cells.alive.shape, np.nan)
    value = np.full(cells.alive.shape, np.nan)
    outcome = np.zeros(cells.alive.shape, dtype=np.int8)
    failed_cuts = np.empty(cells.alive.shape, dtype=object)
    live = np.flatnonzero(cells.alive)
    for start in range(0, live.size, _CHUNK):  # none when every cell has failed
        chunk = live[start:start + _CHUNK]
        failed, status, value[chunk] = _true_tail_chunk(
            cells, n[chunk], rate[chunk], omega_z[chunk], omega_y[chunk],
            [edge[chunk] for edge in window], abs_tol)
        outcome[chunk] = status
        for i, cut in zip(chunk[status != _CONVERGED].tolist(), failed):
            failed_cuts[i] = cut
    _check_converged(cells, outcome, failed_cuts, abs_tol)
    return value


def _true_tail_chunk(cells, n, rate, z, y, window, abs_tol):
    """(cuts of the failed integrals, status, values) of the true-tail
    integrals of a few live cells, given as columns (see true_tail_outages)."""
    windows = zip(*(edge.tolist() for edge in window))
    heads, cuts = zip(*map(_axis_cuts, windows, z.tolist(), y.tolist()))
    single = y != y
    equal = tied_means(cells, z, y)
    kinds = ((single, _exponential_pdf, (z,)),
             (equal, _erlang_pdf, (z,)),
             (~single & ~equal, _hypoexp_pdf_np, (np.maximum(z, y), np.minimum(z, y))))

    def weigh(owner: np.ndarray, w: np.ndarray, values: np.ndarray) -> np.ndarray:
        for rows, pdf, params in kinds:
            rows = rows[owner]
            if rows.all():
                return values * pdf(*(p[owner][:, None] for p in params), w)
            if rows.any():
                values[rows] *= pdf(*(p[owner[rows]][:, None] for p in params), w[rows])
        return values

    def conditional(owner: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _conditional_outage_np(n[owner][:, None], rate[owner][:, None], w)

    owner, mid, half, width, w, values = _first_pass(
        list(zip(_sqrt_n(n).tolist(), (rate * LN2).tolist(), map(tuple, cuts))), conditional)
    first = owner, mid, half, width, weigh(owner, w, values)
    totals, status = _integrate(lambda owner, w: weigh(owner, w, conditional(owner, w)), cuts,
                                abs_tol, first)
    failed = [cut for cut, s in zip(cuts, status.tolist()) if s != _CONVERGED]
    value = np.array(heads) + totals
    return failed, status, np.where(value < 0.0, 0.0, np.where(value > 1.0, 1.0, value))


def fading_outage_quadrature_fixed(n: int, rate: float, channel) -> float:
    """Fixed-rule cross-check for fading_outage_quadrature.

    Composite Gauss-Legendre on the same axis splits, with a deterministic
    panel layout and no adaptivity — an independent scheme used to pin
    regression constants (two schemes agreeing is the freeze criterion).
    A combined link's density rises from 0 on the scale of its weaker
    branch's mean, which can be far below a panel's width, so that rise
    gets a cut interval of its own.
    """
    check_code(POINT, n, rate)
    omega_z, omega_y = _as_density(channel)
    head, cuts = _axis_cuts(_transition_window(POINT, n, rate), omega_z, omega_y)
    if omega_y != omega_y:
        pdf = ExponentialDensity(omega_z).pdf
    else:
        pdf = partial(hypoexp_pdf, params=HypoexpParams(omega_z, omega_y))
        rise = 50.0 * min(omega_z, omega_y)
        if cuts[0] < rise < cuts[-1]:
            cuts = sorted(cuts + [rise])

    nodes, weights = np.polynomial.legendre.leggauss(_FIXED_ORDER)
    total = head
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        edges = np.linspace(a, b, _FIXED_PANELS + 1)
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
    omega_z, omega_y = _as_density(density)
    m, lo, hi = ramp_coefficients(params, slope)
    a = max(lo, 0.0)
    head = means_cdf(a, omega_z, omega_y) if a > 0.0 else 0.0
    pdf, pdf_params = _pdf(omega_z, omega_y)

    theta = params.theta
    cuts = [a, theta, hi] if a < theta else [a, hi]

    def integrand(_owner: np.ndarray, t: np.ndarray) -> np.ndarray:
        return (0.5 - m * (t - theta)) * pdf(*pdf_params, t)

    value = head + _integrate_one(integrand, cuts, abs_tol)
    value = min(max(value, 0.0), 1.0)
    return OutageEstimate(value=value, method=EstimateMethod.QUAD_LINEARIZED)


def _sqrt_n(n):
    """np.sqrt(n), also for a Python int past uint64, which numpy would hold
    as an object.  math.sqrt rounds an int to a double as numpy's int64 and
    uint64 conversions do, so below 2**64 the two agree bit for bit."""
    return math.sqrt(n) if isinstance(n, int) else np.sqrt(n)


def _q_argument(n: int, rate: float, w: np.ndarray) -> np.ndarray:
    return _sqrt_n(n) * (np.log1p(w) - rate * LN2) * (1.0 + w) / np.sqrt(w * (2.0 + w))


def _conditional_outage_np(n: int, rate: float, w: np.ndarray) -> np.ndarray:
    """Vectorized conditional error probability at instantaneous SNR w > 0.

    Where w * (2 + w) overflows (w above about 1.3e154), the factor
    (1 + w) / sqrt(w (2 + w)) is taken as (1 + w) / (sqrt(w) sqrt(2 + w)).
    """
    if np.maximum.reduce(w, axis=None) <= 1e154:  # no w * (2 + w) can overflow
        return 0.5 * erfc(_q_argument(n, rate, w) / math.sqrt(2.0))
    with np.errstate(over="ignore", invalid="ignore"):
        arg = _q_argument(n, rate, w)
        huge = np.isinf(w * (2.0 + w))
        big = w[huge]
        if np.ndim(n):  # one row of parameters per row of w
            n, rate = np.broadcast_to(n, w.shape)[huge], np.broadcast_to(rate, w.shape)[huge]
        arg[huge] = _sqrt_n(n) * (np.log1p(big) - rate * LN2) * (
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


_pool_lock = threading.Lock()
_pool: "ThreadPoolExecutor | None" = None
_pool_size = 0


def _pool_map(fn, count: int, workers: int):
    """fn(0), ..., fn(count - 1) on the process's Monte Carlo pool, in order.

    The pool is built by the first call and kept; a call with another
    worker count replaces it, once the old pool has run the work it was
    given and its threads have exited.  Work is submitted under the lock,
    so no caller submits to a pool that another has shut down.  Idle
    workers are joined at interpreter exit by concurrent.futures.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size != workers:
            if _pool is not None:
                _pool.shutdown()
            _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="fbrelay-mc")
            _pool_size = workers
        return _pool.map(fn, range(count))


def _forget_pool() -> None:
    """In a forked child: the parent's worker threads do not exist there,
    and a lock one of them held would stay held.  The memo's rows stay."""
    global _pool_lock, _pool, _pool_size, _memo_lock
    _pool_lock, _pool, _pool_size = threading.Lock(), None, 0
    _memo_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    trials, seed = check_trials(trials), check_seed(seed)
    partitions = as_int(partitions, "partitions")
    if partitions < 1:
        raise DomainError(f"partitions must be >= 1, got {partitions!r}")
    check_code(POINT, n, rate)
    omega_z, omega_y = _as_density(channel)

    base, extra = divmod(trials, partitions)
    chunk_sizes = [base + (1 if i < extra else 0) for i in range(partitions)]

    def run_partition(index: int) -> "tuple[float, float]":
        size = chunk_sizes[index]
        if size == 0:
            return 0.0, 0.0
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
        gen = np.random.Generator(np.random.Philox(ss))
        w = gen.exponential(omega_z, size=size)
        if omega_y == omega_y:  # the combined link: the sum of the two branch draws
            w = w + gen.exponential(omega_y, size=size)
        values = _conditional_outage_np(n, rate, w)
        if bernoulli:
            values = (gen.random(size) < values).astype(float)
        return float(np.sum(values)), float(np.dot(values, values))

    workers = _worker_count(partitions)
    if workers > 1:
        partials = list(_pool_map(run_partition, partitions, workers))
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
