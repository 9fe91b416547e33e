"""Oracle layer: adaptive/fixed quadrature and the seeded Monte Carlo sampler.

The Monte Carlo determinism tests pin exact doubles: the sampler is defined
to be bit-reproducible for a given (trials, seed, stream, partitions), with
a fixed-order partition combine that makes the worker count irrelevant.
"""

from __future__ import annotations

import functools
import math
import os
import select
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BLOCKLENGTHS, RATES
from fbrelay import (
    Backend,
    ConvergenceError,
    DomainError,
    EstimateMethod,
    ExponentialDensity,
    FbrelayError,
    HypoexpParams,
    NumericError,
    OutageEstimate,
    SnrValue,
    TIE_TOLERANCE,
    TopologyConfig,
    fading_outage_mc,
    fading_outage_quadrature,
    fading_outage_quadrature_fixed,
    hypoexp_pdf,
    linearize,
    linearized_outage_quadrature,
    mrc_pair_outage,
    outage_given_snr,
    protocol_outage,
    rayleigh_outage,
    sweep,
)
from fbrelay import oracles, protocols
from fbrelay._cells import POINT, Grid
from fbrelay.oracles import (
    LN2,
    MAX_WORKERS_ENV,
    _CAPPED,
    _CHUNK,
    _CONVERGED,
    _GK21_NODES,
    _GK21_WEIGHTS,
    _NON_FINITE,
    _PANEL_LIMIT,
    _check_converged,
    _conditional_outage_np,
    _integrate,
    _integrate_one,
    _pdf,
    _q_argument,
    _sqrt_n,
    _sum_in_order,
    true_tail_outages,
)

TRUTH_SINGLE = 0.040768730966325335  # n=500 R=1/2 mean 10
TRUTH_PAIR_UNEQ = 0.0032688335666099812  # means (10, 2.5)
TRUTH_PAIR_EQ = 0.0008522397419654721  # means (10, 10)


class TestGaussKronrodRule:
    """The hand-entered qk21 table: a wrong digit breaks one of these."""

    @staticmethod
    def _moment_errors(weights, degrees):
        exact = [2.0 / (d + 1) if d % 2 == 0 else 0.0 for d in degrees]
        return [abs(float(np.dot(weights, _GK21_NODES**d)) - e) for d, e in zip(degrees, exact)]

    def test_kronrod_weights_exact_to_degree_31(self):
        assert max(self._moment_errors(_GK21_WEIGHTS[:, 0], range(32))) < 1e-15

    def test_gauss_weights_exact_to_degree_19(self):
        assert max(self._moment_errors(_GK21_WEIGHTS[:, 1], range(20))) < 1e-15
        # and no further: x^20 is where a 10-point Gauss rule first errs
        assert self._moment_errors(_GK21_WEIGHTS[:, 1], [20])[0] > 1e-6

    def test_weight_sums_and_symmetry(self):
        assert _GK21_WEIGHTS.sum(axis=0) == pytest.approx([2.0, 2.0], abs=1e-15)
        assert np.array_equal(_GK21_NODES, -_GK21_NODES[::-1])
        assert np.array_equal(_GK21_WEIGHTS, _GK21_WEIGHTS[::-1])
        gauss_nodes = _GK21_NODES[_GK21_WEIGHTS[:, 1] > 0]
        assert gauss_nodes == pytest.approx(np.polynomial.legendre.leggauss(10)[0], abs=1e-15)

    def test_smooth_integrand_over_several_cuts(self):
        value = _integrate_one(lambda _owner, x: np.exp(x), [0.0, 0.5, 0.5, 3.0], 1e-13)
        assert value == pytest.approx(math.expm1(3.0), abs=1e-12)
        assert _integrate_one(lambda _owner, x: np.exp(x), [1.0, 1.0], 1e-10) == 0.0

    def test_nan_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            _integrate_one(lambda _owner, x: np.full(x.shape, math.nan), [0.0, 1.0, 2.0], 1e-10)

    def test_noise_integrand_raises_within_the_cap(self):
        rng = np.random.default_rng(20_261_017)
        evaluated = []

        def noise(_owner, x):
            evaluated.append(x.size)
            return rng.standard_normal(x.shape)

        with pytest.raises(ConvergenceError):
            _integrate_one(noise, [0.0, 1.0, 5.0], 1e-10)
        # open panels at most double per pass and stop once the partition
        # outgrows the cap, so the rule evaluates fewer than 2 * cap panels
        assert sum(evaluated) < 2 * _PANEL_LIMIT * len(_GK21_NODES)


class TestBatchIntegrator:
    """A batch of integrals gives each one the bits it gets alone, and a
    failing integral fails alone."""

    SIZE = 2 * _CHUNK + 5  # more integrals than true_tail_outages gives one call
    NAN, NOISE = _CHUNK - 1, _CHUNK

    @classmethod
    def family(cls):
        """(integrand(owner, x), cuts): Lorentzian peaks of widths 1 to 1e-4,
        some on a cut and some between, over two to four intervals."""
        rng = np.random.default_rng(20_261_018)
        sharp = 10.0 ** rng.uniform(0.0, 4.0, cls.SIZE)
        centre = rng.uniform(0.1, 0.9, cls.SIZE)
        cuts = [[0.0, float(c), 1.0] if j % 3 else [0.0, 0.25, 0.25, 0.5, 1.0, 2.0]
                for j, c in enumerate(centre)]
        noise = np.random.default_rng(5)

        def integrand(owner, x):
            values = 1.0 / (1.0 + (sharp[owner][:, None] * (x - centre[owner][:, None])) ** 2)
            values[owner == cls.NAN] = math.nan
            rows = owner == cls.NOISE
            values[rows] = noise.standard_normal(values[rows].shape)
            return values

        return integrand, cuts

    def test_each_member_as_alone(self):
        integrand, cuts = self.family()
        calls = []

        def recorded(owner, x):
            calls.append(np.bincount(owner, minlength=self.SIZE))
            return integrand(owner, x)

        totals, status = _integrate(recorded, cuts, 1e-10)
        open_counts = np.array(calls)
        # several bisection passes, with integrals of different open-panel
        # counts in one pass
        assert (np.count_nonzero(open_counts, axis=0) >= 3).sum() > 10
        assert any(len(set(row[row > 0].tolist())) > 2 for row in open_counts)

        grid = Grid(self.SIZE)
        per_cell = np.empty(self.SIZE, dtype=object)
        for j, cut in enumerate(cuts):
            per_cell[j] = cut
        _check_converged(grid, status, per_cell, 1e-10)
        for j, cut in enumerate(cuts):
            alone, alone_status = _integrate(lambda owner, x: integrand(owner + j, x), [cut], 1e-10)
            assert status[j] == alone_status[0]
            if j in (self.NAN, self.NOISE):
                with pytest.raises(ConvergenceError) as alone_error:
                    _check_converged(POINT, alone_status[0], cut, 1e-10)
                assert str(grid.failures[j]) == str(alone_error.value)
            else:
                assert status[j] == _CONVERGED and j not in grid.failures
                assert totals[j].hex() == alone[0].hex()
        assert sorted(grid.failures) == [self.NAN, self.NOISE]
        assert status[self.NAN] == _NON_FINITE and status[self.NOISE] == _CAPPED
        assert str(grid.failures[self.NAN]) == (
            f"quadrature over {cuts[self.NAN]!r} hit a non-finite panel sum")
        assert str(grid.failures[self.NOISE]) == (
            f"quadrature over {cuts[self.NOISE]!r} needs more than {_PANEL_LIMIT} panels "
            f"to reach abs_tol=1e-10")

    def test_widths_are_summed_as_np_sum_sums_them(self):
        rng = np.random.default_rng(11)
        for length in range(1, 20):
            for _ in range(200):
                widths = (rng.uniform(0.0, 1.0, length) * 10.0 ** rng.integers(-17, 3, length)).tolist()
                assert _sum_in_order(widths).hex() == float(np.sum(widths)).hex()

    def test_values_are_right(self):
        integrand, cuts = self.family()
        totals, status = _integrate(integrand, cuts, 1e-10)
        rng = np.random.default_rng(20_261_018)
        sharp = 10.0 ** rng.uniform(0.0, 4.0, self.SIZE)
        centre = rng.uniform(0.1, 0.9, self.SIZE)
        for j in np.flatnonzero(status == _CONVERGED):
            top = cuts[j][-1]
            exact = (math.atan(sharp[j] * (top - centre[j])) + math.atan(sharp[j] * centre[j])) / sharp[j]
            assert totals[j] == pytest.approx(exact, abs=1e-9)


class TestGridOracle:
    """true_tail_outages over a Grid is fading_outage_quadrature per cell."""

    @staticmethod
    def point(n, rate, z, y):
        channel = z if math.isnan(y) else HypoexpParams(z, y)
        try:
            return fading_outage_quadrature(n, rate, channel).value.hex()
        except (DomainError, NumericError) as exc:  # ConvergenceError is a NumericError
            return type(exc), str(exc)

    def test_cells_across_chunks_equal_point_calls(self):
        size = 3 * _CHUNK + 5  # four chunks, the last one short
        rng = np.random.default_rng(20_261_019)
        n = rng.choice([0, 1, 2, 100, 500, 3000], size)
        rate = rng.choice([0.0, 0.05, 0.5, 2.0, 7.5, 600.0], size)
        z = 10.0 ** rng.uniform(-2.0, 4.0, size)
        y = np.where(rng.random(size) < 0.4, np.nan, z * rng.choice([1.0, 1.0 + 1e-12, 0.25, 1e-5], size))
        edges = [cell for mean in (10.0, 2.5e-3, 777.0) for cell in _tie_edges(mean)]
        n, rate = np.append(n, [500] * len(edges)), np.append(rate, [0.5] * len(edges))
        z, y = (np.append(column, side) for column, side in zip((z, y), zip(*edges)))
        size += len(edges)
        grid = Grid(size)
        with np.errstate(all="ignore"):  # failed cells carry garbage, as in any Grid
            values = true_tail_outages(grid, n, rate, z, y)
        kinds = set()
        for i in range(size):
            exc = grid.failures.get(i)
            got = values[i].hex() if exc is None else (type(exc), str(exc))
            assert got == self.point(int(n[i]), float(rate[i]), float(z[i]), float(y[i]))
            kinds.add("ok" if exc is None else str(exc).split(" ")[0])
        assert kinds >= {"ok", "blocklength", "rate", "true-tail"}

    def test_a_batch_builds_no_density_objects(self, monkeypatch):
        built = []
        for kind in (ExponentialDensity, HypoexpParams):
            def spy(density, check=kind.__post_init__):
                built.append(type(density).__name__)
                check(density)

            monkeypatch.setattr(kind, "__post_init__", spy)
        oracles._fill.cache_clear()
        for _ in range(2):  # cold, then warm
            _batch(_MEMO_EXAMPLE)
        assert built == []
        HypoexpParams(10.0, 2.5)  # the spy sees what is built
        assert built == ["HypoexpParams"]


def _tie_edges(z):
    """Pairs of means (z, y) and (y, z), where y is the last double on one
    side of z that the equal-means tie rule still ties to z, and then the
    first double past it, which it does not: eight pairs, above z and below."""
    pairs = []
    for away in (math.inf, 0.0):
        y = z * (1.0 + math.copysign(TIE_TOLERANCE, away - z))
        while HypoexpParams(z, y).equal_means:
            y = math.nextafter(y, away)
        while not HypoexpParams(z, y).equal_means:
            y = math.nextafter(y, z)
        past = math.nextafter(y, away)
        assert not HypoexpParams(z, past).equal_means
        pairs += [(z, y), (y, z), (z, past), (past, z)]
    return pairs


def _batch(cells):
    """true_tail_outages over cells (n, rate, z, y): each value's hex, or
    its failure as (type, message)."""
    n, rate, z, y = (np.array(column) for column in zip(*cells))
    grid = Grid(len(cells))
    with np.errstate(all="ignore"):
        values = true_tail_outages(grid, n, rate, z, y)
    return [values[i].hex() if i not in grid.failures
            else (type(grid.failures[i]), str(grid.failures[i])) for i in range(len(cells))]


def _fill_bytes(fill):
    *arrays, width, nodes, values = fill
    return [array.tobytes() for array in (*arrays, nodes, values)], [w.hex() for w in width]


def _recording_memo(monkeypatch, bound):
    """Replace the memo with a fresh one of this bound around a _fill that
    records each set it fills and what it returned."""
    filled, cold = [], oracles._fill.__wrapped__

    def fill(keys):
        result = cold(keys)
        filled.append((keys, result))
        return result

    monkeypatch.setattr(oracles, "_fill", functools.lru_cache(bound)(fill))
    return filled


_MEANS = st.floats(1e-2, 1e4)
_CODES = st.tuples(st.sampled_from([1, 2, 100, 500, 2000]), st.sampled_from([0.05, 0.5, 1.5]))

#: True-tail cells (n, rate, z, y), y NaN for one link: single links,
#: equal and unequal pairs, cells whose mean sits far below 2^rate - 1 (so
#: the cuts get the density-scale hint), and cells at 510 bits per use,
#: whose nodes pass 1e154.
_MEMO_CELLS = st.one_of(
    st.builds(lambda c, z: (*c, z, math.nan), _CODES, _MEANS),
    st.builds(lambda c, z: (*c, z, z), _CODES, _MEANS),
    st.builds(lambda c, z, r: (*c, z, z * r), _CODES, _MEANS,
              st.sampled_from([0.25, 4.0, 1e-5, 1.0 + 1e-12])),
    st.builds(lambda n, rate, z, y: (n, rate, z, y), st.sampled_from([100, 500, 2000]),
              st.sampled_from([1.0, 2.0, 7.5]), st.floats(1e-6, 1e-3),
              st.sampled_from([math.nan, 1e-4, 2e-6])),
    st.builds(lambda n, z, y: (n, 510.0, z, y), st.sampled_from([1, 2, 3, 4]), _MEANS,
              st.sampled_from([math.nan, 5.0])),
)


#: One cell of each kind of _MEMO_CELLS.
_MEMO_EXAMPLE = [(500, 0.5, 10.0, math.nan), (500, 0.5, 10.0, 10.0), (500, 0.5, 10.0, 2.5),
                 (500, 2.0, 1e-4, math.nan), (2, 510.0, 10.0, math.nan), (2, 510.0, 10.0, 5.0)]


class TestFirstPassMemo:
    """The true-tail oracle memoizes its first pass's panels, nodes and the
    conditional error at the nodes per set of distinct keys (sqrt(n), rate
    ln 2, cuts); no value or failure depends on what the memo holds."""

    @pytest.fixture(autouse=True)
    def cold(self):
        oracles._fill.cache_clear()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(_MEMO_CELLS, min_size=1, max_size=6))
    @example(_MEMO_EXAMPLE)
    def test_cold_and_warm_give_the_same_bits(self, cells):
        cold_points = []
        for cell in cells:
            oracles._fill.cache_clear()
            cold_points.append(TestGridOracle.point(*cell))
        oracles._fill.cache_clear()
        assert _batch(cells) == cold_points  # a cold batch
        assert [TestGridOracle.point(*cell) for cell in cells] == cold_points  # warmed by it
        assert _batch(cells) == cold_points  # warm
        oracles._fill.cache_clear()
        assert [TestGridOracle.point(*cell) for cell in cells] == cold_points  # warmed in turn
        assert [TestGridOracle.point(*cell) for cell in cells[::-1]] == cold_points[::-1]

    @pytest.mark.filterwarnings("ignore:blocklength n=")
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(n_s=st.sampled_from([2, 100, 300]), n_r=st.sampled_from([2, 100, 500]),
           k=st.sampled_from([20, 60, 1020]), snr_db=st.floats(-40.0, 30.0),
           etas=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    def test_protocol_cells_cold_and_warm(self, n_s, n_r, k, snr_db, etas):
        # mixed framing when n_s != n_r; 510 bits per use at n = 2, k = 1020
        base = TopologyConfig(total_snr=SnrValue.from_db(snr_db), eta=0.5, n_s=n_s, n_r=n_r,
                              k=k, allow_short=True)
        cfgs = [TopologyConfig(total_snr=base.total_snr, eta=eta, n_s=n_s, n_r=n_r, k=k,
                               allow_short=True) for eta in etas]

        def points():
            got = []
            for cfg in cfgs:
                try:
                    got.append(protocol_outage(protocol, cfg, Backend.quadrature()).value.hex())
                except (DomainError, NumericError) as exc:
                    got.append((type(exc), str(exc)))
            return got

        def batch():
            outage, _, failures = protocols.outages(
                protocol, protocols.TopologyCells(base, eta=etas), Backend.quadrature())
            return [outage[i].item().hex() if i not in failures
                    else (type(failures[i]), str(failures[i])) for i in range(len(etas))]

        for protocol in ("df", "mrc"):
            oracles._fill.cache_clear()
            cold = points()
            assert batch() == cold and points() == cold
            oracles._fill.cache_clear()
            assert batch() == cold and points() == cold

    def test_the_example_has_hint_cuts_and_nodes_past_the_product_overflow(self):
        cuts = [oracles._axis_cuts(oracles._transition_window(POINT, n, rate),
                                   z, math.nan)[1] for n, rate, z, _ in _MEMO_EXAMPLE]
        assert [len(c) for c in cuts] == [3, 3, 3, 4, 4, 4]  # the last three hinted
        assert cuts[-1][-1] > 1e154

    def test_a_batch_of_cached_and_missing_keys_equals_each_cell(self):
        # mixed framing, and SNRs down to where every cell's cuts differ
        base = TopologyConfig(total_snr=SnrValue(10.0), eta=0.5, n_s=300, n_r=500, k=200)
        snrs = [10.0 ** (e / 2.0) for e in range(-12, 3)]
        for snr in snrs[::2]:  # half the cells' keys go into the memo first
            protocol_outage("mrc", TopologyConfig(total_snr=SnrValue(snr), eta=0.5, n_s=300,
                                                  n_r=500, k=200), Backend.quadrature())
        cells = protocols.TopologyCells(base, total_snr=snrs)
        outage, _, failures = protocols.outages("mrc", cells, Backend.quadrature())
        for i, snr in enumerate(snrs):
            cfg = TopologyConfig(total_snr=SnrValue(snr), eta=0.5, n_s=300, n_r=500, k=200)
            assert i not in failures
            point = protocol_outage("mrc", cfg, Backend.quadrature())
            assert outage[i].item().hex() == point.value.hex()

    def test_missing_keys_fill_in_one_call(self, monkeypatch):
        cuts = [[0.0, 1.0, 3.0], [0.0, 0.5, 2.0, 9.0], [0.0, 1.0, 3.0], [0.2, 0.2, 4.0]]
        n, rate = np.array([500, 200, 500, 100]), np.array([0.5, 0.25, 0.5, 1.0])
        keys = list(zip(np.sqrt(n).tolist(), (rate * oracles.LN2).tolist(), map(tuple, cuts)))
        calls = []

        def spy(sqrt_n, rate_ln2, w):
            calls.append(sqrt_n)
            return _conditional_outage_np(sqrt_n, rate_ln2, w)

        monkeypatch.setattr(oracles, "_conditional_outage_np", spy)
        owner, *panels, nodes, values = oracles._first_pass(keys)
        (sqrt_n,) = calls  # one call, for keys 0, 1 and 3: key 2 is key 0
        assert sorted(set(sqrt_n.ravel().tolist())) == sorted(np.sqrt([500, 200, 100]).tolist())
        whole, mid, half, width = oracles._first_panels(cuts)
        assert [a.tobytes() for a in (owner, *panels[:2])] == [a.tobytes() for a in (whole, mid, half)]
        assert panels[2] == width
        assert nodes.tobytes() == (mid[:, None] + half[:, None] * _GK21_NODES).tobytes()
        want = _conditional_outage_np(np.sqrt(n)[whole][:, None],
                                      (rate * oracles.LN2)[whole][:, None], nodes)
        assert values.tobytes() == want.tobytes()
        calls.clear()
        again = oracles._first_pass(keys)
        assert calls == [] and _fill_bytes(again) == _fill_bytes((owner, *panels, nodes, values))
        assert oracles._fill.cache_info().currsize == 1

    def test_memo_arrays_are_read_only(self):
        point, cells = (500, 0.5, 10.0, math.nan), [(200, 0.25, 3.0, math.nan), (300, 0.5, 2.0, 5.0)]
        fading_outage_quadrature(*point[:3])
        _batch(cells)
        assert oracles._fill.cache_info().currsize == 2
        keys = []
        for n, rate, z, y in [point, *cells]:
            cuts = oracles._axis_cuts(oracles._transition_window(POINT, n, rate), z, y)[1]
            keys.append((math.sqrt(n), rate * oracles.LN2, tuple(cuts)))
        for fill in (oracles._first_pass(keys[:1]), oracles._first_pass(keys[1:])):
            *arrays, width, nodes, values = fill
            for array in (*arrays, nodes, values):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.5
        assert oracles._fill.cache_info().hits == 2  # both sets came from the memo

    def test_an_integral_with_no_interval_is_its_head(self):
        # past n R of about 1e35 the ±42 sigma window is under half an ulp
        # of w0, so every cut interval is empty and no node is evaluated
        head, cuts = oracles._axis_cuts(oracles._transition_window(POINT, 10**40, 0.5),
                                        10.0, math.nan)
        assert cuts[0] == cuts[-1] and head > 0.0
        for _ in range(2):  # cold, then warm
            assert fading_outage_quadrature(10**40, 0.5, 10.0).value == head
        oracles._fill.cache_clear()
        hollow, full = (1e40, 0.5, 10.0, math.nan), (500.0, 0.5, 10.0, math.nan)
        for _ in range(2):
            assert _batch([hollow]) == [head.hex()]
        oracles._fill.cache_clear()
        want = [head.hex(), TestGridOracle.point(*full)]
        for _ in range(2):
            assert _batch([hollow, full]) == want

    def test_keys_repeating_apart_equal_point_calls(self):
        a, b, c = (500, 0.5, 10.0, math.nan), (300, 0.25, 4.0, 4.0), (700, 0.5, 10.0, 2.5)
        cells = [a, b, (500, 0.5, 3.0, math.nan), c, (300, 0.25, 4.0, 1.0)]  # keys A B A C B
        keys = [(math.sqrt(n), rate * oracles.LN2, tuple(oracles._axis_cuts(
            oracles._transition_window(POINT, n, rate), z, y)[1])) for n, rate, z, y in cells]
        assert keys[0] == keys[2] and keys[1] == keys[4] and len(set(keys)) == 3
        want = [TestGridOracle.point(*cell) for cell in cells]
        oracles._fill.cache_clear()
        for _ in range(2):  # cold, then warm
            assert _batch(cells) == want
        assert oracles._fill.cache_info().hits == 1

    def test_a_warm_batch_leaves_the_memo_arrays_as_they_were(self, monkeypatch):
        filled = _recording_memo(monkeypatch, oracles._MEMO_SIZE)
        # distinct keys, one cell each: single links, tied pairs and distinct pairs
        cells = [(n, 0.5, z, y) for n, (z, y) in zip(
            (100, 200, 300, 400, 500, 600),
            ((10.0, math.nan), (10.0, 10.0), (10.0, 2.5), (3.0, 3.0 * (1.0 + 1e-10)),
             (1e-4, math.nan), (20.0, 4.0)))]
        want = _batch(cells)
        ((keys, fill),) = filled
        assert len(keys) == len(cells)
        before = _fill_bytes(fill)
        assert _batch(cells) == want
        assert len(filled) == 1 and oracles._fill.cache_info().hits == 1
        assert _fill_bytes(fill) == before

    @pytest.mark.parametrize("bound", [3, None])
    def test_the_bound_holds_past_a_sweep_of_more_distinct_n(self, monkeypatch, bound):
        # a blocklength sweep fills one key set per chunk of _CHUNK n
        size = oracles._MEMO_SIZE if bound is None else bound
        _recording_memo(monkeypatch, size)
        ns = list(range(100, 100 + 5 * _CHUNK * (size + 3), 5))
        cfg = TopologyConfig(total_snr=SnrValue(10.0), eta=0.5, n_s=100, n_r=100, k=40)
        rows = sweep("dt", cfg, "blocklength", ns, Backend.quadrature())
        info = oracles._fill.cache_info()
        assert info.misses >= size + 3 and info.currsize == info.maxsize == size
        for n, row in list(zip(ns, rows))[::7 * size + 1]:
            point = protocol_outage("dt", TopologyConfig(total_snr=SnrValue(10.0), eta=0.5, n_s=n,
                                                         n_r=n, k=40), Backend.quadrature())
            assert row.outage.hex() == point.value.hex()
            assert oracles._fill.cache_info().currsize <= size

    @pytest.mark.parametrize("bound", [4, None])
    def test_threads_filling_at_once_get_equal_values(self, monkeypatch, bound):
        # more threads than cores, a short switch interval, and with a bound
        # of 4 the threads evict each other's sets as they fill
        cells = [(n, k / n, z, y) for n in (100, 300, 900) for k in (30, 90)
                 for z, y in ((3.0, math.nan), (20.0, 4.0), (1e-4, math.nan))]
        want = _batch(cells) + [TestGridOracle.point(*cell) for cell in cells]
        cold = oracles._fill.__wrapped__
        filled = _recording_memo(monkeypatch, oracles._MEMO_SIZE if bound is None else bound)
        start, got = threading.Barrier(4), []

        def run():
            start.wait()
            for _ in range(3):
                got.append(_batch(cells) + [TestGridOracle.point(*cell) for cell in cells])

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 12
        assert oracles._fill.cache_info().currsize <= oracles._fill.cache_info().maxsize
        assert filled
        for keys, fill in filled:  # every set the memo took is the cold fill
            assert _fill_bytes(fill) == _fill_bytes(cold(keys))


def _outcome(n, rate, z, y):
    """fading_outage_quadrature at a cell: its value's hex, which must lie
    in [0, 1], or its failure as (type, message), which must be an
    FbrelayError."""
    try:
        value = fading_outage_quadrature(n, rate, z if math.isnan(y) else HypoexpParams(z, y)).value
    except FbrelayError as exc:
        return type(exc), str(exc)
    assert 0.0 <= value <= 1.0
    return value.hex()


_ANY_MEAN = st.one_of(st.sampled_from([1e-300, 3e-294, 1e300]),
                     st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))

#: (z, y) over 10^±300: one link, equal means, pairs inside the tie band,
#: any pair, and pairs whose product underflows.
_ANY_MEANS = st.one_of(
    st.builds(lambda z: (z, math.nan), _ANY_MEAN),
    st.builds(lambda z: (z, z), _ANY_MEAN),
    st.builds(lambda z, t: (z, z * (1.0 + t)), _ANY_MEAN, st.floats(-TIE_TOLERANCE, TIE_TOLERANCE)),
    st.tuples(_ANY_MEAN, _ANY_MEAN),
    st.tuples(*[st.floats(-300.0, -154.0).map(lambda e: 10.0 ** e)] * 2),
)
_ANY_RATE = st.one_of(st.sampled_from([0.5, 64.0, 510.0, 600.0]),
                      st.floats(-6.0, math.log10(600.0)).map(lambda e: 10.0 ** e))

#: Cells found to break the point/batch agreement or the order of the means.
_RANGE_EXAMPLES = [
    (500.0, 0.5, 2.4641564391096757e-279, 1.3509889490117885e-51),  # big * small underflows
    (1e30, 0.02, 1.3977699271563728e-199, 1.970061595708329e-261),
    (1e300, 64.0, 2.938586904098445e-294, 2.9385869041013838e-294),  # a NaN head
    (500.0, 0.5, 10.0, 10.0 * (1.0 + 0.9e-9)),  # inside the tie band
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestWholeInputRange:
    """Over n from 1 to 1e300, R from 1e-6 to 600 and means over 10^±300,
    a point call is a value in [0, 1] or an FbrelayError, which a one-cell
    batch and a cell of a larger batch give too, cold and warm, and which
    does not depend on the order of the two means."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.lists(st.builds(lambda n, rate, means: (n, rate, *means),
                              st.one_of(st.sampled_from([1.0, 500.0, 1e300]),
                                        st.floats(0.0, 300.0).map(lambda e: 10.0 ** e)), _ANY_RATE,
                              _ANY_MEANS), min_size=1, max_size=5))
    @example(_RANGE_EXAMPLES)
    def test_points_and_batches_agree(self, cells):
        want = []
        for n, rate, z, y in cells:
            oracles._fill.cache_clear()
            cold = _outcome(n, rate, z, y)
            assert _outcome(n, rate, z, y) == cold  # warm
            assert _batch([(n, rate, z, y)]) == [cold]
            if not math.isnan(y):
                assert _outcome(n, rate, y, z) == cold
            want.append(cold)
        oracles._fill.cache_clear()
        for _ in range(2):  # cold, then warm
            assert _batch(cells) == want

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(1, 2 ** 1023), _ANY_RATE, _ANY_MEANS)
    def test_integer_blocklengths_at_a_point(self, n, rate, means):
        z, y = means
        oracles._fill.cache_clear()
        cold = _outcome(n, rate, z, y)
        assert _outcome(n, rate, z, y) == cold
        if not math.isnan(y):
            assert _outcome(n, rate, y, z) == cold


#: Means up to the largest double, where an exponential draw overflows to inf.
_MEAN_TO_MAX = st.one_of(st.sampled_from([1e-300, 1e300, 1.5e308, 1.79e308]),
                         st.floats(-300.0, 308.25).map(lambda e: 10.0 ** e))
#: One link's mean, or a pair (z, y): equal, inside the tie band, or any.
_CHANNEL_TO_MAX = st.one_of(
    _MEAN_TO_MAX,
    st.builds(lambda z: (z, z), _MEAN_TO_MAX),
    st.builds(lambda z, t: (z, z * (1.0 + t)), _MEAN_TO_MAX,
              st.floats(-TIE_TOLERANCE, TIE_TOLERANCE)),
    st.tuples(_MEAN_TO_MAX, _MEAN_TO_MAX),
)
_ANY_N = st.one_of(st.sampled_from([1.0, 500.0, 1e300]),
                   st.floats(0.0, 300.0).map(lambda e: 10.0 ** e), st.integers(1, 2 ** 1023))


def _in_range_or_typed(evaluate) -> None:
    """evaluate() gives an estimate whose value lies in [0, 1], or raises an
    FbrelayError."""
    try:
        value = evaluate().value
    except FbrelayError:
        return
    assert 0.0 <= value <= 1.0, value


class TestSampledAndSurrogateRange:
    """Over n from 1 to 2^1023, R from 1e-6 to 600 and means up to 1.79e308,
    fading_outage_mc (10,000 trials) and linearized_outage_quadrature give
    a value in [0, 1] or raise an FbrelayError, and warn of no overflow."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_ANY_N, _ANY_RATE, _CHANNEL_TO_MAX)
    @example(500, 0.5, 1.5e308)  # an inf draw's conditional error was NaN
    @example(500, 0.5, (1e308, 1e308))  # the sum of two draws overflowed
    def test_monte_carlo(self, n, rate, channel):
        _in_range_or_typed(lambda: fading_outage_mc(
            n, rate, HypoexpParams(*channel) if isinstance(channel, tuple) else channel,
            10_000, 1))

    # the Erlang density of tiny tied means divides by an underflowed
    # mean^2 on its way to a ConvergenceError (ROADMAP 0j), as in the
    # true-tail slice above
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_ANY_N, _ANY_RATE, _CHANNEL_TO_MAX, st.sampled_from(["nats", "bits"]),
           st.sampled_from(["zeta", "mu"]))
    @example(500, 0.5, 1.5e308, "nats", "zeta")
    @example(500, 0.5, (1e308, 1e308), "nats", "zeta")
    def test_linearized_quadrature(self, n, rate, channel, convention, slope):
        # a pair in the instantaneous-SNR domain, one link in the gain domain
        if isinstance(channel, tuple):
            _in_range_or_typed(lambda: linearized_outage_quadrature(
                linearize(n, rate, 1.0, convention), HypoexpParams(*channel), slope=slope))
        else:
            _in_range_or_typed(lambda: linearized_outage_quadrature(
                linearize(n, rate, channel, convention), ExponentialDensity(1.0), slope=slope))


class TestArrayIntegrand:
    """The adaptive oracles' array integrand against the scalar functions
    the fixed rule uses."""

    W = np.concatenate((np.geomspace(1e-300, 1e-3, 200), np.geomspace(1e-3, 1e6, 4000)))

    def test_conditional_error_matches_outage_given_snr(self):
        for n in BLOCKLENGTHS:
            for rate in RATES:
                array = _conditional_outage_np(_sqrt_n(n), rate * LN2, self.W)
                scalar = np.array([outage_given_snr(n, rate, w) for w in self.W])
                # both saturated ends are on the grid and agree exactly
                assert array[0] == scalar[0] == 1.0 and array[-1] == scalar[-1] == 0.0
                # numpy's log1p may differ from libm's in the last bit; a
                # relative change of the Q argument is amplified ~arg^2 in Q
                arg = np.sqrt(n) * (np.log1p(self.W) - rate * math.log(2.0)) * (
                    1.0 + self.W) / np.sqrt(self.W * (2.0 + self.W))
                rel = 1e-13 * np.maximum(1.0, (arg / 10.0) ** 2)
                assert np.all(np.abs(array - scalar) <= rel * scalar)

    @pytest.mark.parametrize("mean", [0.01, 1.0, 10.0, 1000.0])
    def test_exponential_pdf(self, mean):
        d = ExponentialDensity(mean)
        scalar = np.array([d.pdf(w) for w in self.W])
        pdf, params = _pdf(d.mean, math.nan)
        assert np.all(np.abs(pdf(*params, self.W) - scalar) <= 1e-13 * scalar)

    @pytest.mark.parametrize(
        "oz,oy", [(10.0, 10.0), (10.0, 2.5), (2.5, 10.0), (1.0, 10.0**-0.6), (10.0, 10.0 + 1e-6)]
    )
    def test_hypoexponential_pdf(self, oz, oy):
        params = HypoexpParams(oz, oy)
        pdf, args = _pdf(oz, oy)
        array = pdf(*args, self.W)
        scalar = np.array([hypoexp_pdf(w, params) for w in self.W])
        # hypoexp_pdf subtracts two exponentials, each off by about
        # (1 + w/mean) ulps (its rounded argument); the difference keeps that
        # absolute error, which dominates near w = 0 and near equal means.
        # The array form does not cancel.
        def term_error(mean):
            return (1.0 + self.W / mean) * np.exp(-self.W / mean)

        slack = 0.0 if params.equal_means else (
            2.0 * np.finfo(float).eps * (term_error(oz) + term_error(oy)) / abs(oz - oy)
        )
        # subnormal values (w far out in the tail) have no relative precision
        assert np.all(np.abs(array - scalar) <= 1e-13 * array + slack + np.finfo(float).tiny)


class TestOutageEstimate:
    def test_value_range_enforced(self):
        with pytest.raises(Exception):
            OutageEstimate(value=1.2, method=EstimateMethod.CLOSED_FORM)

    def test_sampling_metadata_only_for_mc(self):
        with pytest.raises(DomainError):
            OutageEstimate(value=0.1, method=EstimateMethod.CLOSED_FORM, std_error=0.01)
        with pytest.raises(DomainError):
            OutageEstimate(value=0.1, method=EstimateMethod.MONTE_CARLO)


class TestExponentialDensity:
    def test_pdf_cdf_consistency(self):
        d = ExponentialDensity(10.0)
        assert d.cdf(0.0) == 0.0
        assert d.pdf(0.0) == pytest.approx(0.1, rel=1e-15)
        assert d.cdf(10.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_rejects_bad_mean_and_support(self):
        with pytest.raises(DomainError):
            ExponentialDensity(0.0)
        with pytest.raises(DomainError):
            ExponentialDensity(10.0).pdf(-0.5)


class TestTrueTailQuadrature:
    def test_frozen_truths(self):
        assert fading_outage_quadrature(500, 0.5, 10.0).value == pytest.approx(
            TRUTH_SINGLE, rel=1e-12
        )
        assert fading_outage_quadrature(500, 0.5, HypoexpParams(10.0, 2.5)).value == pytest.approx(
            TRUTH_PAIR_UNEQ, rel=1e-12
        )
        assert fading_outage_quadrature(500, 0.5, HypoexpParams(10.0, 10.0)).value == pytest.approx(
            TRUTH_PAIR_EQ, rel=1e-12
        )

    def test_channel_argument_forms_agree(self):
        a = fading_outage_quadrature(500, 0.5, 10.0).value
        b = fading_outage_quadrature(500, 0.5, ExponentialDensity(10.0)).value
        assert a == b

    def test_two_independent_schemes_agree(self):
        for channel in (10.0, HypoexpParams(10.0, 2.5), HypoexpParams(3.0, 3.0)):
            for n, rate in ((200, 0.25), (500, 0.5), (1000, 1.0)):
                adaptive = fading_outage_quadrature(n, rate, channel).value
                fixed = fading_outage_quadrature_fixed(n, rate, channel)
                assert fixed == pytest.approx(adaptive, abs=5e-14)

    # The weaker branch's density rises on the scale of its mean, far inside
    # the first cut interval.  References are 30-digit mpmath quadratures
    # with breakpoints on that scale.
    SEPARATED_MEANS = (
        ((200, 0.05, 0.01, 1e-6), 0.93964183705228577544),
        ((500, 0.5, 0.05, 1e-5), 0.99964882560855235886),
        ((1000, 0.3, 0.02, 4e-6), 0.99998358741431054955),
    )

    def test_widely_separated_branch_means(self):
        for (n, rate, oz, oy), truth in self.SEPARATED_MEANS:
            est = fading_outage_quadrature(n, rate, HypoexpParams(oz, oy))
            assert est.value == pytest.approx(truth, abs=1e-10)

    def test_fixed_rule_at_widely_separated_branch_means(self):
        # without a cut at the weaker branch's scale the fixed rule read
        # 0.99972978 at (500, 0.5, (0.05, 1e-5)), off by 8e-5
        for (n, rate, oz, oy), truth in self.SEPARATED_MEANS:
            fixed = fading_outage_quadrature_fixed(n, rate, HypoexpParams(oz, oy))
            assert fixed == pytest.approx(truth, abs=1e-13)

    def test_method_tag(self):
        est = fading_outage_quadrature(500, 0.5, 10.0)
        assert est.method is EstimateMethod.QUAD_TRUE_Q
        assert est.std_error is None

    def test_abs_tol_window(self):
        for bad in (1e-14, 1e-5, 0.0, -1e-9):
            with pytest.raises(DomainError):
                fading_outage_quadrature(500, 0.5, 10.0, abs_tol=bad)

    @pytest.mark.parametrize("n,rate", [(0, 0.5), (500, 0.0), (500, -0.5), (500, math.inf)])
    def test_domain_errors(self, n, rate):
        with pytest.raises(DomainError):
            fading_outage_quadrature(n, rate, 10.0)

    @pytest.mark.parametrize("oracle", [fading_outage_quadrature, fading_outage_quadrature_fixed])
    def test_window_overflow_is_a_numeric_error(self, oracle):
        # 2^(2 rate) - 1 overflows above 512 bits per use
        with pytest.raises(NumericError, match=r"\(n=1, rate=600\.0\)"):
            oracle(1, 600.0, 10.0)


class TestLinearizedQuadrature:
    """The defining oracle of the closed forms, spot-checked here; the full
    lattice comparison lives in the acceptance suite."""

    def test_single_link_matches_closed_form(self):
        params = linearize(500, 0.5, 10.0)
        est = linearized_outage_quadrature(params, ExponentialDensity(1.0))
        assert est.method is EstimateMethod.QUAD_LINEARIZED
        assert est.value == pytest.approx(rayleigh_outage(500, 0.5, 10.0), abs=1e-10)

    def test_pair_matches_closed_form_both_branches(self):
        params = linearize(500, 0.5, 1.0)
        for pair in (HypoexpParams(10.0, 10.0), HypoexpParams(10.0, 2.5)):
            est = linearized_outage_quadrature(params, pair)
            assert est.value == pytest.approx(
                mrc_pair_outage(500, 0.5, pair), abs=1e-10
            )

    def test_mu_family_pair_matches_its_own_closed_variant(self):
        params = linearize(500, 0.5, 1.0)
        pair = HypoexpParams(10.0, 2.5)
        est = linearized_outage_quadrature(params, pair, slope="mu")
        assert est.value == pytest.approx(
            mrc_pair_outage(500, 0.5, pair, ramp="mu"), abs=1e-10
        )

    def test_widely_separated_branch_means(self):
        # 30-digit mpmath reference, as in the true-tail test of the same name
        params = linearize(100, 0.01, 1.0)
        est = linearized_outage_quadrature(params, HypoexpParams(0.005, 7e-7))
        assert est.value == pytest.approx(0.5558602635303962011, abs=1e-10)

    def test_saturated_head_is_counted(self):
        # theta much larger than the mean: nearly the whole mass sits in the
        # saturated segment, so the integral must come out near 1
        params = linearize(500, 2.0, 0.05)
        est = linearized_outage_quadrature(params, ExponentialDensity(1.0))
        assert est.value > 0.999


class TestMonteCarlo:
    def test_bit_reproducible(self):
        kw = dict(trials=50_000, seed=7)
        a = fading_outage_mc(500, 0.5, 10.0, **kw)
        b = fading_outage_mc(500, 0.5, 10.0, **kw)
        assert (a.value, a.std_error) == (b.value, b.std_error)
        # pinned doubles: any drift in the draw pipeline is a contract break
        assert a.value == 0.03984247790818114
        assert a.std_error == 0.0008471165893462376

    def test_pair_channel_pinned(self):
        est = fading_outage_mc(500, 0.5, HypoexpParams(10.0, 2.5), 50_000, seed=11)
        assert est.value == 0.003391289219762197
        assert est.std_error == 0.00024169651313965721

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        baseline = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7)
        monkeypatch.setenv("FBRELAY_MAX_WORKERS", "1")
        serial = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7)
        assert (serial.value, serial.std_error) == (baseline.value, baseline.std_error)

    @staticmethod
    def three_calls():
        """(value, std_error) of a single link, a pair and a Bernoulli run."""
        return [(e.value, e.std_error) for e in (
            fading_outage_mc(500, 0.5, 10.0, 20_000, seed=7),
            fading_outage_mc(500, 0.5, HypoexpParams(10.0, 2.5), 20_000, seed=11),
            fading_outage_mc(500, 0.5, 10.0, 20_000, seed=9, bernoulli=True),
        )]

    def test_pool_rebuilds_keep_every_bit(self, monkeypatch):
        # On four cpus, caps 2, 3 and none are three pool sizes, so each
        # change of the cap rebuilds the pool; a cap of 1 runs serially.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        want = self.three_calls()
        for cap in ("2", "3", None, "1", "3", "2", None):
            if cap is None:
                monkeypatch.delenv(MAX_WORKERS_ENV)
            else:
                monkeypatch.setenv(MAX_WORKERS_ENV, cap)
            assert self.three_calls() == want, cap
            if cap != "1":  # the kept pool has the capped size: asking for it is a cache hit
                hits = oracles._pool.cache_info().hits
                oracles._pool(int(cap or 4))
                assert oracles._pool.cache_info().hits == hits + 1, cap

    def test_concurrent_callers_across_rebuilds(self):
        # Four callers ask for pool sizes 2, 3 and 4 in turn, so the pool is
        # rebuilt under them again and again; every caller must still get
        # all its results, as no pool is shut down while one submits to it.
        done, errors = [], []

        def caller(offset):
            try:
                for i in range(40):
                    size = 2 + (offset + i) % 3
                    got = list(oracles._pool(size).map(lambda j: (size, j * j), range(16)))
                    if got != [(size, j * j) for j in range(16)]:
                        raise AssertionError(got)
                done.append(offset)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and sorted(done) == [0, 1, 2, 3]

    @staticmethod
    def pool_threads():
        return {t for t in threading.enumerate() if t.name.startswith("fbrelay-mc")}

    def test_pool_rebuilds_leave_no_threads_behind(self, monkeypatch):
        # Each change of the cap replaces the pool; the threads of a dropped
        # pool must exit, leaving at most the largest pool's four.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for i in range(12):
            monkeypatch.setenv(MAX_WORKERS_ENV, str(2 + i % 3))
            fading_outage_mc(500, 0.5, 10.0, 20_000, seed=i)
        deadline = time.monotonic() + 5.0
        while len(self.pool_threads()) > 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(self.pool_threads()) <= 4

    def test_calls_reuse_the_pool_threads(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        for seed in range(5):
            fading_outage_mc(500, 0.5, 10.0, 200_000, seed=seed)
        workers, before = self.pool_threads(), threading.active_count()
        assert 1 <= len(workers) <= 2
        for seed in range(50):
            fading_outage_mc(500, 0.5, 10.0, 20_000, seed=seed)
            assert threading.active_count() <= before
        assert self.pool_threads() == workers

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="os.fork on Linux only")
    def test_forked_child_gets_the_parent_bits(self, monkeypatch):
        # The parent's pool threads do not exist in the child, which must
        # build its own instead of waiting on them forever.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        want = repr(self.three_calls())
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                os.write(write, repr(self.three_calls()).encode())
            finally:
                os._exit(0)
        os.close(write)
        try:
            ready, _, _ = select.select([read], [], [], 60.0)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            got = os.read(read, 4096).decode() if ready else "child hung"
        finally:
            os.close(read)
            os.waitpid(pid, 0)
        assert got == want

    def test_streams_are_independent_draws(self):
        a = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7, stream=0)
        b = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7, stream=1)
        assert a.value != b.value  # same physics, different draws

    def test_estimates_carry_their_provenance(self):
        est = fading_outage_mc(500, 0.5, 10.0, 50_000, seed=7)
        assert est.method is EstimateMethod.MONTE_CARLO
        assert est.trials == 50_000 and est.seed == 7

    def test_agrees_with_quadrature_within_4_sigma(self):
        for channel, truth in (
            (10.0, TRUTH_SINGLE),
            (HypoexpParams(10.0, 2.5), TRUTH_PAIR_UNEQ),
        ):
            est = fading_outage_mc(500, 0.5, channel, 200_000, seed=123)
            assert abs(est.value - truth) <= 4.0 * est.std_error

    @pytest.mark.parametrize("mean", [1e160, 1e305, 1.5e308, (1e308, 1e308)])
    def test_huge_mean_snr_agrees_with_quadrature(self, mean):
        # Every draw is far past the transition, where w * (2 + w) overflows;
        # the true outage is about 4e-6 / mean.  Near the largest double a
        # draw, or the sum of a pair's two draws, is inf, whose error is 0.
        channel = HypoexpParams(*mean) if isinstance(mean, tuple) else mean
        truth = fading_outage_quadrature(500, 0.5, channel).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fading_outage_mc(500, 0.5, channel, 20_000, seed=1)
        # the pair's outage, about 4e-6 / mean^2, underflows to 0
        assert truth < 1e-150 and (truth > 0.0) == (channel is mean)
        assert abs(est.value - truth) <= truth and est.std_error == 0.0
        assert outage_given_snr(500, 0.5, math.inf) == 0.0

    def test_error_shrinks_like_sqrt_trials(self):
        small = fading_outage_mc(500, 0.5, 10.0, 100_000, seed=5)
        large = fading_outage_mc(500, 0.5, 10.0, 400_000, seed=5)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_bernoulli_variant(self):
        soft = fading_outage_mc(500, 0.5, 10.0, 200_000, seed=9)
        hard = fading_outage_mc(500, 0.5, 10.0, 200_000, seed=9, bernoulli=True)
        # same truth, noisier estimator: the indicator keeps none of the
        # conditional-probability smoothing
        assert abs(hard.value - TRUTH_SINGLE) <= 5.0 * hard.std_error
        assert hard.std_error > soft.std_error
        assert hard.value != soft.value

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fading_outage_mc(500, 0.5, 10.0, 9_999, seed=1)  # below the trials floor
        with pytest.raises(DomainError):
            fading_outage_mc(500, 0.5, 10.0, 50_000, seed=1, partitions=0)
        with pytest.raises(DomainError):
            fading_outage_mc(0, 0.5, 10.0, 50_000, seed=1)


class TestHugeBlocklength:
    def test_q_argument_keeps_numpy_bits_below_2_to_the_64(self):
        rng = np.random.default_rng(3)
        w = rng.exponential(10.0, 64)
        ns = [2 ** b + d for b in range(10, 64) for d in (-1, 0, 1)] + [2 ** 64 - 1]
        for n in ns:
            want = np.sqrt(n) * (np.log1p(w) - 0.5 * math.log(2.0)) * (1.0 + w) / np.sqrt(
                w * (2.0 + w))
            assert _q_argument(_sqrt_n(n), 0.5 * LN2, w).tobytes() == want.tobytes(), n

    def test_past_uint64_both_oracles_run(self):
        # sqrt(2**64 + 7) rounds to sqrt(2**64 - 1) in doubles
        n = 2 ** 64 + 7
        for oracle, args in ((fading_outage_quadrature, ()),
                             (fading_outage_mc, (20_000, 1))):
            assert oracle(n, 0.5, 10.0, *args) == oracle(2 ** 64 - 1, 0.5, 10.0, *args)

    @pytest.mark.parametrize("call", [
        lambda n: linearize(n, 0.5, 10.0),
        lambda n: rayleigh_outage(n, 0.5, 10.0),
        lambda n: mrc_pair_outage(n, 0.5, HypoexpParams(10.0, 5.0)),
        lambda n: fading_outage_quadrature(n, 0.5, 10.0),
        lambda n: fading_outage_quadrature_fixed(n, 0.5, 10.0),
        lambda n: fading_outage_mc(n, 0.5, 10.0, 20_000, 1),
    ], ids=["linearize", "rayleigh", "pair", "quad", "quad-fixed", "mc"])
    def test_past_the_largest_double_is_a_domain_error(self, call):
        # float(n) would raise a bare OverflowError
        with pytest.raises(DomainError, match="blocklength exceeds the largest double"):
            call(10 ** 400)


def test_convergence_error_is_a_numeric_error():
    from fbrelay import NumericError

    assert issubclass(ConvergenceError, NumericError)
