"""End-to-end acceptance gate.

One test per shipping criterion, each printable as a single pass/fail line
under ``pytest -v``.  Two tests in this file assert targets the implemented
model family measurably does not meet; they are kept red on purpose rather
than loosened, and reports/ documents the measurements.  See README.md.
"""

from __future__ import annotations

import csv
import math
import random
import time
from pathlib import Path

import pytest
from scipy.integrate import quad as scipy_quad

from conftest import BLOCKLENGTHS, SNR_DBS, standard_cells
from fbrelay import (
    Backend,
    HypoexpParams,
    LinConvention,
    ProtocolKind,
    SnrValue,
    TopologyConfig,
    awgn_outage,
    fading_outage_mc,
    fading_outage_quadrature,
    hypoexp_pdf,
    linearize,
    linearized_outage_quadrature,
    link_outages,
    max_coding_rate,
    mrc_pair_outage,
    optimize_eta,
    protocol_outage,
    ramp_coefficients,
    ramp_eval,
    rayleigh_outage,
)

REPORTS = Path(__file__).resolve().parent.parent / "reports"

REF_CFG = dict(total_snr=SnrValue.from_db(10.0), beta=0.5, path_loss_exp=3.0,
               n_s=500, n_r=500, k=250)


def _closed_cell(kind, n, rate, oz, oy, convention):
    if kind == "single":
        return rayleigh_outage(n, rate, oz, convention)
    return mrc_pair_outage(n, rate, HypoexpParams(oz, oy), convention)


def _linearized_cell(kind, n, rate, oz, oy, convention):
    from fbrelay import ExponentialDensity

    if kind == "single":
        params = linearize(n, rate, oz, convention)
        return linearized_outage_quadrature(params, ExponentialDensity(1.0)).value
    params = linearize(n, rate, 1.0, convention)
    return linearized_outage_quadrature(params, HypoexpParams(oz, oy)).value


def test_closed_forms_match_linearized_quadrature():
    """Every closed form equals direct integration of its own surrogate."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for kind, n, rate, oz, oy in standard_cells():
        for convention in (LinConvention.NATS, LinConvention.BITS):
            closed = _closed_cell(kind, n, rate, oz, oy, convention)
            numeric = _linearized_cell(kind, n, rate, oz, oy, convention)
            gap = abs(closed - numeric)
            worst = max(worst, gap)
            assert gap <= 1e-8, (
                f"{kind} n={n} rate={rate} snr={oz:.4g}/{oy:.4g} "
                f"{convention.value}: closed {closed!r} vs quadrature {numeric!r}"
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1536
    assert elapsed < 30.0, f"lattice comparison took {elapsed:.1f}s"


def test_closed_forms_track_monte_carlo():
    """Closed-form protocol outages sit within 4 sigma of seeded 1e6-trial
    Monte Carlo along a 20-point SNR sweep; at most one excursion per
    protocol is tolerated (a 4-sigma event among 20 cells is unremarkable,
    a cluster is a bug)."""
    start = time.perf_counter()
    etas = {ProtocolKind.DT: 0.5, ProtocolKind.DF: 0.5,
            ProtocolKind.SC: 0.6, ProtocolKind.MRC: 0.7}
    dbs = [20.0 * i / 19 for i in range(20)]
    failures = {}
    for protocol, eta in etas.items():
        misses = []
        for i, db in enumerate(dbs):
            cfg = TopologyConfig(total_snr=SnrValue.from_db(db), eta=eta,
                                 beta=0.5, path_loss_exp=3.0,
                                 n_s=500, n_r=500, k=250)
            closed = protocol_outage(protocol, cfg, Backend.closed_form()).value
            mc = protocol_outage(
                protocol, cfg, Backend.monte_carlo(1_000_000, 4242 + i)
            )
            if abs(closed - mc.value) > 4.0 * mc.std_error:
                misses.append(
                    f"{db:.1f} dB: closed {closed:.3e} vs mc {mc.value:.3e} "
                    f"+/- {mc.std_error:.1e}"
                )
        failures[protocol.value] = misses
    for name, misses in failures.items():
        assert len(misses) <= 1, f"{name} strayed from Monte Carlo: {misses}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"Monte Carlo tracking took {elapsed:.1f}s"


def test_power_split_optima_at_10db():
    """Optimal power splits and outage floors at the reference operating point."""
    results = {
        p: optimize_eta(p, TopologyConfig(eta=0.5, **REF_CFG), Backend.closed_form())
        for p in (ProtocolKind.DF, ProtocolKind.SC, ProtocolKind.MRC)
    }
    df, sc, mrc = results[ProtocolKind.DF], results[ProtocolKind.SC], results[ProtocolKind.MRC]
    assert abs(df.eta_star - 0.5) <= 0.05, f"df eta* {df.eta_star}"
    assert 0.0075 <= df.eps_star <= 0.03, f"df eps* {df.eps_star}"
    assert abs(mrc.eta_star - 0.7) <= 0.05, f"mrc eta* {mrc.eta_star}"
    assert 5e-4 <= mrc.eps_star <= 2e-3, f"mrc eps* {mrc.eps_star}"
    assert 1e-3 <= sc.eps_star <= 4e-3, f"sc eps* {sc.eps_star}"
    assert not any(r.multimodal for r in results.values())


def test_sc_power_split_band():
    """Selection combining's optimal split is required to land in
    [0.55, 0.65].  The implemented model places it just outside, at
    ~0.664 (the first-order optimum of the composition is 2/3); the
    measured value is asserted anyway rather than widening the band."""
    sc = optimize_eta(
        ProtocolKind.SC, TopologyConfig(eta=0.5, **REF_CFG), Backend.closed_form()
    )
    assert 0.55 <= sc.eta_star <= 0.65, (
        f"sc eta* = {sc.eta_star:.6f} outside the required band "
        "(see reports/ and README for the analysis)"
    )


def _report_rows():
    path = REPORTS / "convention_accuracy.csv"
    assert path.exists(), "run scripts/convention_report.py to regenerate"
    with path.open() as fh:
        return list(csv.DictReader(fh))


def test_convention_report_is_current():
    """The committed accuracy report matches the code that ships: spot
    recomputation reproduces the stored numbers and the declared winner."""
    rows = _report_rows()
    assert len(rows) == len(SNR_DBS) * len(BLOCKLENGTHS) * 4 * 3 == 768

    sample = random.Random(20_260_819).sample(rows, 12)
    for row in sample:
        kind, n, rate = row["kind"], int(row["n"]), float(row["rate"])
        oz, oy = float(row["omega_z"]), float(row["omega_y"])
        channel = oz if kind == "single" else HypoexpParams(oz, oy)
        truth = fading_outage_quadrature(n, rate, channel, abs_tol=1e-12).value
        assert truth == pytest.approx(float(row["eps_true"]), abs=1e-12)
        for conv in ("nats", "bits"):
            eps = _closed_cell(kind, n, rate, oz, oy, conv)
            assert eps == pytest.approx(float(row[f"eps_{conv}"]), abs=1e-15)

    region = [r for r in rows if r["in_pass_region"] == "1"]
    assert region, "pass region must be non-empty"
    worst_nats = max(float(r["relerr_nats"]) for r in region)
    worst_bits = max(float(r["relerr_bits"]) for r in region)
    assert worst_nats < worst_bits, "default convention must be the better one"

    summary = (REPORTS / "convention_accuracy.md").read_text()
    assert "Better convention: `nats`" in summary


def test_true_tail_quadrature_reproduces_every_report_row():
    """The adaptive true-tail oracle reproduces every committed eps_true of
    the 768-cell lattice, the numbers the accuracy report was made with."""
    start = time.perf_counter()
    rows = _report_rows()
    assert len(rows) == 768
    worst = 0.0
    for row in rows:
        kind, n, rate = row["kind"], int(row["n"]), float(row["rate"])
        oz, oy = float(row["omega_z"]), float(row["omega_y"])
        channel = oz if kind == "single" else HypoexpParams(oz, oy)
        truth = fading_outage_quadrature(n, rate, channel, abs_tol=1e-12).value
        worst = max(worst, abs(truth - float(row["eps_true"])))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst |delta| {worst:.3g} over the 768 rows"
    assert elapsed < 5.0, f"768 quadratures took {elapsed:.1f}s"


def test_one_quadrature_batch_reproduces_every_report_row():
    """One batched true-tail call over the 768 cells, in chunks and with
    single links and both pair branches mixed, reproduces every committed
    eps_true exactly: the batch changes no bit of the oracle's values."""
    import numpy as np

    from fbrelay._cells import Grid
    from fbrelay.oracles import true_tail_outages

    rows = _report_rows()
    grid = Grid(len(rows))
    values = true_tail_outages(
        grid,
        np.array([int(r["n"]) for r in rows]),
        np.array([float(r["rate"]) for r in rows]),
        np.array([float(r["omega_z"]) for r in rows]),
        np.array([float(r["omega_y"]) for r in rows]),  # NaN: a single link
        abs_tol=1e-12,
    )
    assert not grid.failures
    assert [v.hex() for v in values.tolist()] == [float(r["eps_true"]).hex() for r in rows]


def test_better_convention_within_10_percent():
    """The better convention's closed form is required to stay within 10%
    of the true-Q quadrature wherever the true outage is >= 1e-3.  Measured:
    it misses by up to ~25% in the rate-0.1, n <= 200 corner (21 cells),
    documented in reports/convention_accuracy.md.  Kept red; the offending
    cells are a surrogate-family limit, not a tolerance artifact."""
    region = [r for r in _report_rows() if r["in_pass_region"] == "1"]
    offenders = [r for r in region if float(r["relerr_nats"]) > 0.10]
    worst = max(float(r["relerr_nats"]) for r in region)
    assert not offenders, (
        f"{len(offenders)} cells exceed 10% (worst {worst:.1%}); "
        "all at rate 0.1 with n <= 200 — see reports/convention_accuracy.md"
    )


def test_success_probability_spot_checks():
    """Payload sizes that hold the target reliabilities at n = 200, 10 dB."""
    def success(protocol: ProtocolKind, k: int, eta: float = 0.5) -> float:
        cfg = TopologyConfig(total_snr=SnrValue.from_db(10.0), eta=eta,
                             beta=0.5, path_loss_exp=3.0, n_s=200, n_r=200, k=k)
        return 1.0 - protocol_outage(protocol, cfg, Backend.closed_form()).value

    assert success(ProtocolKind.MRC, 31) >= 0.999
    assert success(ProtocolKind.SC, 25) >= 0.999
    assert 0.97 <= success(ProtocolKind.DT, 19) <= 0.999
    assert 0.97 <= success(ProtocolKind.DF, 67) <= 0.999


def test_invariant_bundle():
    """Structural invariants, re-asserted in one sweep: monotonicity,
    surrogate continuity, inverse identities, density normalization,
    combining dominance, and Monte Carlo statistics."""
    start = time.perf_counter()

    # outage falls with SNR and rises with rate
    by_snr = [rayleigh_outage(500, 0.5, 10 ** (db / 10)) for db in range(0, 31, 3)]
    assert all(a > b for a, b in zip(by_snr, by_snr[1:])), "not falling in SNR"
    by_rate = [rayleigh_outage(500, r, 10.0) for r in (0.25, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(by_rate, by_rate[1:])), "not rising in rate"

    # the clipped ramp is continuous at both breakpoints, both families
    params = linearize(500, 0.5, 10.0)
    for family in ("zeta", "mu"):
        _, lo_edge, hi_edge = ramp_coefficients(params, family)
        for edge in (lo_edge, hi_edge):
            below = ramp_eval(edge - 1e-12, params, family)
            above = ramp_eval(edge + 1e-12, params, family)
            assert abs(below - above) < 1e-9, f"{family} ramp jumps at {edge}"

    # rate-outage inverse pair
    for eps in (1e-4, 1e-2, 0.3):
        r = max_coding_rate(500, eps, 4.0)
        assert awgn_outage(500, r, 4.0) == pytest.approx(eps, rel=1e-9)

    # combined-branch densities integrate to one
    for pair in (HypoexpParams(10.0, 10.0), HypoexpParams(10.0, 2.5)):
        mass, _ = scipy_quad(lambda w: hypoexp_pdf(w, pair), 0.0, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-9)

    # adding the relayed branch never hurts the direct link
    for eta in (0.3, 0.5, 0.8):
        cfg = TopologyConfig(eta=eta, **REF_CFG)
        links = link_outages(cfg, Backend.closed_form())
        assert links.srd.value <= links.sd.value + 1e-12

    # Monte Carlo: bit-stable under reruns, error bar halves at 4x trials
    mc_a = fading_outage_mc(500, 0.5, 10.0, trials=100_000, seed=99)
    mc_b = fading_outage_mc(500, 0.5, 10.0, trials=100_000, seed=99)
    assert mc_a.value == mc_b.value and mc_a.std_error == mc_b.std_error
    mc_4x = fading_outage_mc(500, 0.5, 10.0, trials=400_000, seed=99)
    assert mc_a.std_error / mc_4x.std_error == pytest.approx(2.0, rel=0.2)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"invariant bundle took {elapsed:.1f}s"


def test_degenerate_inputs_stay_finite():
    """Boundary inputs evaluate to in-range numbers instead of raising."""
    # silent relay: every backend degrades gracefully to the direct link
    silent = TopologyConfig(total_snr=SnrValue.from_db(10.0), eta=1.0,
                            beta=0.5, path_loss_exp=3.0, n_s=500, n_r=500, k=250)
    backends = (Backend.closed_form(), Backend.quadrature(),
                Backend.monte_carlo(100_000, 3))
    for backend in backends:
        links = link_outages(silent, backend)
        assert links.rd.value == 1.0
        assert links.srd.value == links.sd.value
        for protocol in ProtocolKind:
            est = protocol_outage(protocol, silent, backend)
            assert 0.0 <= est.value <= 1.0 and math.isfinite(est.value)

    # one-bit payload at a huge blocklength: deep saturation, still finite
    tiny_rate = 1 / 10_000
    for value in (
        rayleigh_outage(10_000, tiny_rate, 10.0),
        mrc_pair_outage(10_000, tiny_rate, HypoexpParams(10.0, 10.0)),
        mrc_pair_outage(10_000, tiny_rate, HypoexpParams(10.0, 2.5)),
    ):
        assert 0.0 <= value <= 1.0 and math.isfinite(value)

    # equal branch means sit exactly on the tie-handling switch
    tie = mrc_pair_outage(500, 0.5, HypoexpParams(5.0, 5.0))
    near = mrc_pair_outage(500, 0.5, HypoexpParams(5.0, 5.0 * (1 + 1e-7)))
    assert tie == pytest.approx(near, rel=1e-5)
