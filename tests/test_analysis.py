"""Sweeps, power-split optimization, and reliability regions."""

from __future__ import annotations

import dataclasses
import math
import warnings

import pytest

from fbrelay import (
    Backend,
    DomainError,
    EtaOptimum,
    FbrelayError,
    LinConvention,
    ProtocolKind,
    RegionGrid,
    SnrValue,
    SweepRow,
    TopologyConfig,
    optimize_eta,
    protocol_outage,
    reliability_region,
    sweep,
)
from fbrelay import oracles, protocols
from fbrelay.analysis import SCHEMA_VERSION, _coarse_grid, _local_minima

TEN_DB = SnrValue.from_db(10.0)
REF_CFG = TopologyConfig(total_snr=TEN_DB, eta=0.5, beta=0.5, path_loss_exp=3.0)
BASE_CFG = TopologyConfig(total_snr=TEN_DB, eta=0.5)


class TestSweep:
    def test_row_order_is_axis_major(self):
        rows = sweep(
            ["dt", "mrc"], BASE_CFG, "total_snr", [1.0, 10.0],
            [Backend.closed_form(), Backend.quadrature()],
        )
        key = [(r.snr_db, r.protocol, r.backend) for r in rows]
        assert key == [
            (0.0, "dt", "closed"), (0.0, "dt", "quad"),
            (0.0, "mrc", "closed"), (0.0, "mrc", "quad"),
            (10.0, "dt", "closed"), (10.0, "dt", "quad"),
            (10.0, "mrc", "closed"), (10.0, "mrc", "quad"),
        ]

    def test_rows_carry_schema_and_config(self):
        (row,) = sweep("dt", BASE_CFG, "eta", [0.5], Backend.closed_form())
        assert row.schema_version == SCHEMA_VERSION
        assert (row.convention, row.eta, row.beta, row.k) == ("nats", 0.5, 0.5, 250)
        assert row.error is None and row.std_error is None

    def test_single_protocol_string_accepted(self):
        rows = sweep("mrc", BASE_CFG, "blocklength", [200, 500], Backend.closed_form())
        assert [r.n_s for r in rows] == [200, 500]
        assert all(r.n_r == r.n_s for r in rows)

    def test_matches_direct_evaluation(self):
        rows = sweep("sc", BASE_CFG, "eta", [0.3, 0.7], Backend.closed_form())
        for row in rows:
            cfg = dataclasses.replace(BASE_CFG, eta=row.eta)
            assert row.outage == protocol_outage("sc", cfg, Backend.closed_form()).value

    def test_values_must_ascend_and_exist(self):
        with pytest.raises(DomainError):
            sweep("dt", BASE_CFG, "eta", [], Backend.closed_form())
        with pytest.raises(DomainError):
            sweep("dt", BASE_CFG, "eta", [0.7, 0.3], Backend.closed_form())

    def test_unknown_axis_rejected(self):
        with pytest.raises(DomainError):
            sweep("dt", BASE_CFG, "beta", [0.5], Backend.closed_form())

    def test_bad_cell_becomes_error_row(self):
        rows = sweep("dt", BASE_CFG, "blocklength", [50, 500], Backend.closed_form())
        assert math.isnan(rows[0].outage) and rows[0].error is not None
        assert "blocklength" in rows[0].error
        assert rows[1].error is None and rows[1].outage > 0.0

    @pytest.mark.parametrize("value, shown", [(250.7, "250.7"), (math.inf, "inf"),
                                              (math.nan, "nan")])
    def test_non_integral_blocklength_becomes_error_row(self, value, shown):
        rows = sweep("dt", BASE_CFG, "blocklength", [value], Backend.closed_form())
        assert [r.error for r in rows] == [
            f"blocklength={shown}: blocklength values must be integers, got {shown}"]
        assert math.isnan(rows[0].outage)

    def test_quadrature_overflow_becomes_error_row(self):
        with pytest.warns(UserWarning, match="n=1"):
            cfg = TopologyConfig(total_snr=TEN_DB, eta=0.5, n_s=1, n_r=1, k=600,
                                 allow_short=True)
            (row,) = sweep("dt", cfg, "eta", [0.5], Backend.quadrature())
        assert math.isnan(row.outage)
        assert row.error == ("true-tail quadrature: transition window overflowed double "
                             "precision (n=1, rate=600.0)")

    def test_empty_protocols_rejected(self):
        with pytest.raises(DomainError):
            sweep([], BASE_CFG, "eta", [0.5], Backend.closed_form())
        with pytest.raises(DomainError):
            sweep("dt", BASE_CFG, "eta", [0.5], [])


class TestCoarseGridHelpers:
    def test_grid_spans_step_to_one(self):
        grid = _coarse_grid(0.05)
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == 1.0

    def test_step_must_divide_one(self):
        with pytest.raises(DomainError):
            _coarse_grid(0.03)

    def test_local_minima_indexing(self):
        assert _local_minima([3.0, 1.0, 2.0]) == [1]
        assert _local_minima([1.0, 2.0, 3.0]) == [0]
        assert _local_minima([3.0, 2.0, 1.0]) == [2]
        assert _local_minima([3.0, 1.0, 2.0, 0.5, 4.0]) == [1, 3]
        # plateau counts once, at its left edge
        assert _local_minima([2.0, 1.0, 1.0, 2.0]) == [1]


class TestOptimizeEta:
    def test_frozen_optima_with_geometry(self):
        backend = Backend.closed_form()
        df = optimize_eta("df", REF_CFG, backend)
        assert df.eta_star == pytest.approx(0.5, abs=1e-3)
        assert df.eps_star == pytest.approx(0.020496583408331694, rel=1e-10)
        sc = optimize_eta("sc", REF_CFG, backend)
        assert sc.eta_star == pytest.approx(0.6644345223742746, abs=2e-3)
        assert sc.eps_star == pytest.approx(0.0013867900367871815, rel=1e-6)
        mrc = optimize_eta("mrc", REF_CFG, backend)
        assert mrc.eta_star == pytest.approx(0.7165631459994952, abs=2e-3)
        assert mrc.eps_star == pytest.approx(0.0009204293078794828, rel=1e-6)
        assert not any(r.multimodal for r in (df, sc, mrc))

    def test_refinement_never_loses_to_the_coarse_scan(self):
        for proto in ("df", "sc", "mrc"):
            result = optimize_eta(proto, REF_CFG, Backend.closed_form())
            coarse_best = min(eps for _, eps in result.profile)
            assert result.eps_star <= coarse_best

    def test_profile_matches_a_plain_eta_sweep(self):
        result = optimize_eta("df", REF_CFG, Backend.closed_form(), coarse_step=0.05)
        etas = [eta for eta, _ in result.profile]
        rows = sweep("df", REF_CFG, "eta", etas, Backend.closed_form())
        for (eta, eps), row in zip(result.profile, rows):
            assert row.eta == eta and row.outage == eps

    def test_protocol_tag_round_trips(self):
        result = optimize_eta("dt", REF_CFG, Backend.closed_form())
        assert result.protocol is ProtocolKind.DT
        # DT ignores eta entirely: flat profile, optimum at the scan floor
        eps_values = {eps for _, eps in result.profile}
        assert len(eps_values) == 1

    def test_monte_carlo_backend_rejected(self):
        with pytest.raises(DomainError):
            optimize_eta("df", REF_CFG, Backend.monte_carlo(100_000, 1))

    def test_tolerance_caps(self):
        with pytest.raises(DomainError):
            optimize_eta("df", REF_CFG, Backend.closed_form(), coarse_step=0.1)
        with pytest.raises(DomainError):
            optimize_eta("df", REF_CFG, Backend.closed_form(), refine_tol=0.01)

    @pytest.mark.parametrize("refine_tol", [1e-17, 1e-300, 0.0, -1e-3, math.nan])
    def test_refine_tol_below_the_floor_is_refused(self, refine_tol):
        # a bracket narrower than a few ulps of eta is never reached
        with pytest.raises(DomainError) as info:
            optimize_eta("mrc", BASE_CFG, Backend.closed_form(), refine_tol=refine_tol)
        assert str(info.value) == f"refine_tol must lie in [1e-15, 1e-3], got {refine_tol!r}"

    @pytest.mark.parametrize("protocol", ["df", "sc", "mrc"])
    def test_refine_tol_at_the_floor_ends(self, protocol):
        result = optimize_eta(protocol, REF_CFG, Backend.closed_form(), refine_tol=1e-15)
        coarse = optimize_eta(protocol, REF_CFG, Backend.closed_form())
        assert result.eps_star <= coarse.eps_star
        assert abs(result.eta_star - coarse.eta_star) < 1e-3

    def test_result_validation(self):
        with pytest.raises(DomainError):
            EtaOptimum(eta_star=1.5, eps_star=0.1, protocol=ProtocolKind.DF,
                       profile=(), multimodal=False)
        with pytest.raises(DomainError):
            EtaOptimum(eta_star=0.5, eps_star=1.1, protocol=ProtocolKind.DF,
                       profile=(), multimodal=False)


class TestReliabilityRegion:
    def test_success_is_one_minus_outage(self):
        grid = reliability_region("mrc", TEN_DB, [200], [31], Backend.closed_form(),
                                  path_loss_exp=3.0)
        cfg = TopologyConfig(total_snr=TEN_DB, eta=0.5, beta=0.5, path_loss_exp=3.0,
                             n_s=200, n_r=200, k=31)
        eps = protocol_outage("mrc", cfg, Backend.closed_form()).value
        assert grid.success[0][0] == pytest.approx(1.0 - eps, rel=1e-14)

    @pytest.mark.parametrize("protocol", ["dt", "df", "sc", "mrc"])
    def test_outage_is_each_cell_bit_for_bit_in_the_ur_region(self, protocol):
        """The map keeps the outage itself: at 90 and 150 dB, where 1 - outage
        keeps few digits or none, each cell is ``protocol_outage`` exactly,
        and ``success`` is 1 - outage."""
        for db in (90.0, 150.0):
            snr = SnrValue.from_db(db)
            grid = reliability_region(protocol, snr, [500], [10, 100], Backend.closed_form())
            for k, eps, success in zip(grid.k_values, grid.outage[0], grid.success[0]):
                cfg = TopologyConfig(total_snr=snr, eta=0.5, n_s=500, n_r=500, k=k)
                want = protocol_outage(protocol, cfg, Backend.closed_form()).value
                assert eps.hex() == want.hex()
                assert success.hex() == (1.0 - want).hex()
        if protocol == "dt":
            assert grid.outage[0][0] == 1.3959479790029094e-17
            assert grid.success[0][0] == 1.0

    def test_success_monotone_in_payload_and_blocklength(self):
        grid = reliability_region(
            "mrc", TEN_DB, [200, 400, 800], [20, 40, 80, 160], Backend.closed_form(),
            path_loss_exp=3.0,
        )
        for row in grid.success:  # more payload at fixed n: success falls
            assert all(b < a for a, b in zip(row, row[1:]))
        for col in zip(*grid.success):  # more blocklength at fixed k: success rises
            assert all(b > a for a, b in zip(col, col[1:]))

    def test_grid_must_ascend(self):
        with pytest.raises(DomainError):
            reliability_region("mrc", TEN_DB, [500, 200], [10], Backend.closed_form())
        with pytest.raises(DomainError):
            reliability_region("mrc", TEN_DB, [200], [40, 40], Backend.closed_form())
        with pytest.raises(DomainError):
            reliability_region("mrc", TEN_DB, [], [40], Backend.closed_form())

    def test_integers_past_the_largest_double_are_domain_errors(self):
        for ns, ks in (([10 ** 400], [10]), ([500], [10 ** 400])):
            with pytest.raises(DomainError, match="exceeds the largest double"):
                reliability_region("dt", TEN_DB, ns, ks, Backend.closed_form())

    @pytest.mark.parametrize("value, shown", [(250.7, "250.7"), (math.inf, "inf"),
                                              (math.nan, "nan")])
    def test_non_integral_grid_values_are_refused(self, value, shown):
        # the sweep's integer rule: nothing is truncated or escapes untyped
        for ns, ks, what in (([value], [10], "n_values"), ([500], [value], "k_values")):
            with pytest.raises(DomainError) as info:
                reliability_region("dt", TEN_DB, ns, ks, Backend.closed_form())
            assert str(info.value) == f"{what} must be integers, got {shown}"

    def test_rate_ceiling_is_an_entry_precondition(self):
        with pytest.raises(DomainError, match="bits per channel use"):
            reliability_region("mrc", TEN_DB, [100, 500], [150, 800], Backend.closed_form())

    def test_mc_with_per_cell_optimization_rejected(self):
        with pytest.raises(DomainError):
            reliability_region("mrc", TEN_DB, [200], [31], Backend.monte_carlo(50_000, 1),
                               optimize_power_split=True)

    def test_per_cell_optimization_only_improves(self):
        fixed = reliability_region("sc", TEN_DB, [300], [60, 120], Backend.closed_form(),
                                   path_loss_exp=3.0)
        tuned = reliability_region("sc", TEN_DB, [300], [60, 120], Backend.closed_form(),
                                   path_loss_exp=3.0, optimize_power_split=True)
        for j in range(2):
            assert tuned.success[0][j] >= fixed.success[0][j] - 1e-12

    def test_overflowing_cell_is_reported_not_raised(self):
        # eta near 1 leaves the relay branch 1e5 times weaker; at n = 20 the
        # combined link's exponential overflows for k = 80, not for k = 60
        with pytest.warns(UserWarning, match="n=20"):
            grid = reliability_region("mrc", TEN_DB, [20], [60, 80], Backend.closed_form(),
                                      eta=0.99999, allow_short=True)
        ok, bad = grid.success[0]
        assert 0.0 <= ok <= 1.0 and math.isnan(bad)
        (message,) = grid.errors
        assert message.startswith("n=20 k=80: mrc_pair_outage: exp overflowed")

    @pytest.mark.filterwarnings("ignore:blocklength n=")
    @pytest.mark.parametrize("protocol", ["df", "mrc"])
    @pytest.mark.parametrize("db, ns, ks, kw, failed", [
        (10.0, [50, 100, 150], [10, 300], dict(path_loss_exp=2.0), 2),  # a short row refused
        (10.0, [1, 2, 5, 40, 150], [1, 3, 7], dict(allow_short=True), 0),
        (3000.0, [100, 150], [10, 300], dict(path_loss_exp=30.0), 4),  # relay-link means of inf
        (10.0, [100, 150], [10, 300], dict(path_loss_exp=2000.0), 4),  # path-loss gain overflows
    ], ids=["short", "allow-short", "infinite-mean", "gain-overflow"])
    def test_quadrature_map_equals_each_cell(self, protocol, db, ns, ks, kw, failed):
        """Each cell of a quadrature map is ``protocol_outage`` of its topology
        bit for bit, and each failed cell carries that call's error, in
        order.  (A map refuses 8 bits per use at entry, so the window
        overflow at 512 is met in sweeps, not maps.)"""
        snr = SnrValue.from_db(db)
        grid = reliability_region(protocol, snr, ns, ks, Backend.quadrature(), eta=0.7, **kw)
        errors = iter(grid.errors)
        seen = 0
        for row, n in zip(grid.success, ns):
            for success, k in zip(row, ks):
                try:
                    cfg = TopologyConfig(total_snr=snr, eta=0.7, n_s=n, n_r=n, k=k, **kw)
                    est = protocol_outage(protocol, cfg, Backend.quadrature())
                except FbrelayError as exc:
                    seen += 1
                    assert math.isnan(success)
                    assert next(errors) == f"n={n} k={k}: {exc}"
                else:
                    assert success.hex() == (1.0 - est.value).hex()
        assert next(errors, None) is None
        assert seen == failed

    def test_validation_of_the_grid_dataclass(self):
        from fbrelay import LinConvention

        common = dict(protocol=ProtocolKind.MRC, convention=LinConvention.NATS,
                      snr=TEN_DB, eta=0.5, k_values=(10,), n_values=(200,))
        with pytest.raises(DomainError):
            RegionGrid(outage=((0.5, 0.6),), **common)  # row wider than k_values
        with pytest.raises(DomainError):
            RegionGrid(outage=((1.5,),), **common)  # not a probability
        with pytest.raises(DomainError):
            RegionGrid(outage=(), **common)  # no row for the one blocklength

    def test_eta_continuity_at_the_reference_config(self):
        # the curve is steep near eta -> 0, so flat step caps misfire; probe
        # smoothness by refinement instead: halving an interval shrinks a
        # smooth curve's midpoint-vs-chord deviation about 4x (measured worst
        # 0.31x here), while a kink or branch glitch keeps it pinned near 1x
        backend = Backend.closed_form()

        def f(eta: float) -> float:
            cfg = dataclasses.replace(REF_CFG, eta=eta)
            return protocol_outage("mrc", cfg, backend).value

        def chord_dev(a: float, b: float) -> float:
            return abs(f(0.5 * (a + b)) - 0.5 * (f(a) + f(b)))

        etas = [0.05 + 0.9 * i / 60 for i in range(61)]
        for a, b in zip(etas, etas[1:]):
            dev = chord_dev(a, b)
            if dev <= 1e-7:
                continue
            mid = 0.5 * (a + b)
            child = max(chord_dev(a, mid), chord_dev(mid, b))
            assert child <= 0.4 * dev, f"kink near eta={mid}"


SHORT = "blocklength n={} is below 100; the normal approximation degrades there — " \
        "pass allow_short=True to override"
DETERMINISTIC = [Backend.closed_form(), Backend.quadrature()]


class TestRefusedCells:
    """Points and map rows refused before evaluation: each fails with its
    own message, holds the base configuration, and costs no evaluation."""

    @pytest.mark.parametrize("axis, values, reasons", [
        ("eta", [1.5, 2.0], ["eta must lie in (0, 1], got 1.5", "eta must lie in (0, 1], got 2.0"]),
        ("blocklength", [40, 10 ** 400],
         [SHORT.format(40), "n exceeds the largest double, 1.7976931348623157e+308"]),
    ], ids=["eta", "blocklength"])
    def test_sweep_with_every_point_refused(self, axis, values, reasons):
        backends = DETERMINISTIC + [Backend.monte_carlo(20_000, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sweep(["dt", "mrc"], BASE_CFG, axis, values, backends)
        want = [SweepRow.from_cell(ProtocolKind.parse(p), BASE_CFG, b, LinConvention.NATS,
                                   math.nan, error=f"{axis}={value!r}: {reason}")
                for value, reason in zip(values, reasons) for p in ("dt", "mrc") for b in backends]
        assert [repr(r) for r in rows] == [repr(r) for r in want]

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("backend", DETERMINISTIC, ids=lambda b: b.label)
    def test_map_with_every_blocklength_refused(self, backend, optimize):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = reliability_region("mrc", TEN_DB, [20, 50], [5, 10], backend,
                                      optimize_power_split=optimize)
        assert repr(grid.outage) == repr(((math.nan,) * 2,) * 2)
        assert grid.errors == tuple(f"n={n} k={k}: {SHORT.format(n)}"
                                    for n in (20, 50) for k in (5, 10))

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("backend", DETERMINISTIC, ids=lambda b: b.label)
    def test_map_with_its_base_refused(self, backend, optimize):
        grid = reliability_region("df", TEN_DB, [200, 500], [10, 20], backend, eta=1.5,
                                  optimize_power_split=optimize)
        assert repr(grid.outage) == repr(((math.nan,) * 2,) * 2)
        assert grid.errors == tuple(f"n={n} k={k}: eta must lie in (0, 1], got 1.5"
                                    for n in (200, 500) for k in (10, 20))

    def test_map_with_a_refused_row_on_monte_carlo(self):
        grid = reliability_region("dt", TEN_DB, [50, 200], [10], Backend.monte_carlo(20_000, 3))
        cfg = TopologyConfig(total_snr=TEN_DB, eta=0.5, n_s=200, n_r=200, k=10)
        want = protocol_outage("dt", cfg, Backend.monte_carlo(20_000, 3)).value
        assert repr(grid.outage) == repr(((math.nan,), (want,)))
        assert grid.errors == (f"n=50 k=10: {SHORT.format(50)}",)

    @pytest.mark.parametrize("axis, values, valid", [
        ("eta", [0.3, 0.7, 1.5, 2.0], 2),
        ("blocklength", [40, 300, 10 ** 400], 1),
    ], ids=["eta", "blocklength"])
    def test_monte_carlo_evaluates_only_the_valid_points(self, monkeypatch, axis, values, valid):
        inner = protocols.fading_outage_mc
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return inner(*args, **kwargs)

        monkeypatch.setattr(protocols, "fading_outage_mc", counted)
        backend = Backend.monte_carlo(20_000, 3)
        rows = sweep(["dt", "mrc"], BASE_CFG, axis, values, backend)
        assert len(calls) == (1 + 3) * valid  # dt reads one link, mrc three
        assert sum(r.error is None for r in rows) == 2 * valid

    def test_quadrature_integrates_only_the_valid_cells(self, monkeypatch):
        inner = oracles._integrate
        sizes = []

        def counted(integrand, cuts, abs_tol, first=None):
            sizes.append(len(cuts))
            return inner(integrand, cuts, abs_tol, first)

        monkeypatch.setattr(oracles, "_integrate", counted)
        reliability_region("mrc", TEN_DB, [20, 50], [5, 10], Backend.quadrature())
        assert sizes == []
        reliability_region("mrc", TEN_DB, [50, 200], [5, 10], Backend.quadrature())
        assert sizes == [2, 2, 2]  # mrc's three links over the two cells of n = 200
