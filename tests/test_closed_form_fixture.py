"""The closed backend against a bit-for-bit record of the per-cell path.

``tests/data/closed_form_fixture.json`` was written by
``scripts/closed_form_fixture.py``, which evaluates every cell one point at
a time through the scalar entry points.  Values are compared as exact
doubles and failures by exception type and message.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fbrelay import (
    Backend,
    FbrelayError,
    HypoexpParams,
    LinConvention,
    NumericError,
    SnrValue,
    TopologyConfig,
    mrc_pair_outage,
    optimize_eta,
    protocol_outage,
    rayleigh_outage,
    reliability_region,
    sweep,
)
from fbrelay._cells import Grid
from fbrelay.closed_form import pair_link, rayleigh_link

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "closed_form_fixture.json").read_text(encoding="utf-8")
)
CLOSED = Backend.closed_form()
OVERFLOW = "mrc_pair_outage: exp overflowed in the surrogate average"


def expected(recorded):
    """(value, None) or (None, (type name, message))."""
    if isinstance(recorded, str):
        return float.fromhex(recorded), None
    return None, tuple(recorded)


def matches(recorded, value=None, exc=None) -> bool:
    want_value, want_error = expected(recorded)
    if want_error is None:
        return exc is None and value == want_value
    return exc is not None and (type(exc).__name__, str(exc)) == want_error


def outcome(thunk):
    try:
        return thunk(), None
    except Exception as exc:  # compared against the recorded exception
        return None, exc


def quietly(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def region_cfg(spec, n, k):
    return TopologyConfig(total_snr=SnrValue.from_db(spec["snr_db"]), eta=spec["eta"],
                          beta=spec["beta"], path_loss_exp=spec["alpha"], n_s=n, n_r=n, k=k,
                          allow_short=True)


class TestLattice:
    """The 768 report cells, both conventions, through both evaluation modes."""

    @pytest.mark.parametrize("conv", ["nats", "bits"])
    def test_scalar_wrappers(self, conv):
        for row in FIXTURE["lattice"]:
            n, rate, oz, oy = row["n"], row["rate"], row["omega_z"], row["omega_y"]
            if oy is None:
                got = outcome(lambda: rayleigh_outage(n, rate, oz, conv))
            else:
                got = outcome(lambda: mrc_pair_outage(n, rate, HypoexpParams(oz, oy), conv))
            assert matches(row[conv], *got), row

    @pytest.mark.parametrize("conv", ["nats", "bits"])
    @pytest.mark.parametrize("kind", ["single", "pair_equal", "pair_unequal"])
    def test_grid_kernels(self, conv, kind):
        rows = [r for r in FIXTURE["lattice"] if r["kind"] == kind]
        n = np.array([r["n"] for r in rows])
        rate = np.array([r["rate"] for r in rows])
        oz = np.array([r["omega_z"] for r in rows])
        convention = LinConvention.parse(conv)
        cells = Grid(len(rows))
        with np.errstate(all="ignore"):
            if kind == "single":
                eps = rayleigh_link(cells, n, rate, oz, convention)
            else:
                oy = np.array([r["omega_y"] for r in rows])
                eps = pair_link(cells, n, rate, oz, oy, convention)
        for i, row in enumerate(rows):
            assert matches(row[conv], eps[i].item(), cells.failures.get(i)), row


@pytest.mark.parametrize("spec", FIXTURE["maps"], ids=lambda s: s["name"])
def test_region_maps(spec):
    grid = quietly(reliability_region, spec["protocol"], SnrValue.from_db(spec["snr_db"]),
                   spec["n_values"], spec["k_values"], CLOSED, eta=spec["eta"],
                   beta=spec["beta"], path_loss_exp=spec["alpha"], allow_short=True)
    errors = dict(msg.split(": ", 1) for msg in grid.errors)
    assert len(errors) == len(grid.errors)
    for i, n in enumerate(spec["n_values"]):
        for j, k in enumerate(spec["k_values"]):
            recorded = spec["cells"][i][j]
            want_value, want_error = expected(recorded)
            outage = grid.outage[i][j]
            if want_error is None:
                assert outage == want_value and f"n={n} k={k}" not in errors, (n, k)
            else:
                assert math.isnan(outage), (n, k)
                assert errors[f"n={n} k={k}"] == want_error[1], (n, k)


@pytest.mark.parametrize("spec", FIXTURE["maps"], ids=lambda s: s["name"])
def test_region_maps_point_by_point(spec):
    for i, n in enumerate(spec["n_values"][::3]):
        for j, k in enumerate(spec["k_values"]):
            got = outcome(lambda: quietly(
                lambda: protocol_outage(spec["protocol"], region_cfg(spec, n, k), CLOSED).value))
            assert matches(spec["cells"][3 * i][j], *got), (n, k)


@pytest.mark.parametrize("spec", FIXTURE["sweeps"], ids=lambda s: s["name"])
def test_sweeps(spec):
    base = TopologyConfig(total_snr=SnrValue.from_db(spec["snr_db"]), **spec["base"])
    rows = quietly(sweep, ["dt", "df", "sc", "mrc"], base, spec["axis"], spec["values"], CLOSED)
    got = [[r.protocol, None if math.isnan(r.outage) else r.outage.hex(), r.error] for r in rows]
    assert got == spec["rows"]


@pytest.mark.parametrize("spec", FIXTURE["searches"],
                         ids=lambda s: f"{s['protocol']}-{s['snr_db']:g}dB")
def test_searches(spec):
    cfg = TopologyConfig(total_snr=SnrValue.from_db(spec["snr_db"]), eta=0.5, **spec["cfg"])
    res = optimize_eta(spec["protocol"], cfg, CLOSED)
    assert res.eta_star.hex() == spec["eta_star"]
    assert res.eps_star.hex() == spec["eps_star"]
    assert res.multimodal is spec["multimodal"]
    assert [[eta.hex(), eps.hex()] for eta, eps in res.profile] == spec["profile"]


@pytest.mark.parametrize("case", FIXTURE["cases"], ids=lambda c: c["name"])
def test_single_cases(case):
    args = list(case["args"])
    if case["func"] == "mrc_pair_outage":
        args[2] = HypoexpParams(*args[2])
        got = outcome(lambda: mrc_pair_outage(*args))
    else:
        got = outcome(lambda: rayleigh_outage(*args))
    assert matches(case["outcome"], *got)


class TestErrorParity:
    """A map of the golden-lattice shape, from n = 20, whose combined link
    overflows in some cells: the batch fails exactly the cells the scalar
    path fails, with the same messages and the same short-n warnings."""

    SPEC = next(m for m in FIXTURE["maps"] if m["name"] == "golden_overflow")

    def region(self, allow_short):
        s = self.SPEC
        return reliability_region(s["protocol"], SnrValue.from_db(s["snr_db"]), s["n_values"],
                                  s["k_values"], CLOSED, eta=s["eta"], beta=s["beta"],
                                  path_loss_exp=s["alpha"], allow_short=allow_short)

    def scalar_errors(self, allow_short):
        s = self.SPEC
        out = []
        for n in s["n_values"]:
            for k in s["k_values"]:
                try:
                    cfg = TopologyConfig(total_snr=SnrValue.from_db(s["snr_db"]), eta=s["eta"],
                                         beta=s["beta"], path_loss_exp=s["alpha"], n_s=n, n_r=n,
                                         k=k, allow_short=allow_short)
                    protocol_outage(s["protocol"], cfg, CLOSED)
                except FbrelayError as exc:
                    out.append(f"n={n} k={k}: {exc}")
        return out

    @pytest.mark.parametrize("allow_short", [True, False])
    def test_failed_cells_match_the_scalar_wrapper(self, allow_short):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = self.region(allow_short)
            assert list(grid.errors) == self.scalar_errors(allow_short)
        # the RegionGrid contract: one reason per NaN cell, in row-major order
        nan = [f"n={n} k={k}" for i, n in enumerate(grid.n_values)
               for j, k in enumerate(grid.k_values) if math.isnan(grid.success[i][j])]
        assert [e.split(": ")[0] for e in grid.errors] == nan
        assert any(OVERFLOW in e for e in grid.errors) is allow_short

    def test_failed_cells_match_the_fixture(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = self.region(True)
        s = self.SPEC
        want = [(f"n={n} k={k}", expected(s["cells"][i][j])[1][1])
                for i, n in enumerate(s["n_values"]) for j, k in enumerate(s["k_values"])
                if isinstance(s["cells"][i][j], list)]
        assert [tuple(e.split(": ", 1)) for e in grid.errors] == want

    def test_short_blocklength_warnings_unchanged(self):
        s = self.SPEC
        short = [n for n in s["n_values"] if n < 100]

        def key(w):
            return str(w.message), w.category, w.filename, w.lineno

        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            self.region(True)
        with warnings.catch_warnings(record=True) as ref:
            warnings.simplefilter("always")
            for n in short:  # what each cell's own TopologyConfig warns
                TopologyConfig(total_snr=SnrValue.from_db(s["snr_db"]), eta=s["eta"],
                               beta=s["beta"], path_loss_exp=s["alpha"], n_s=n, n_r=n,
                               k=s["k_values"][0], allow_short=True)
        assert {key(w) for w in got} == {key(w) for w in ref}
        assert {str(w.message) for w in got} == {
            f"blocklength n={n} < 100: normal-approximation accuracy is not guaranteed"
            for n in short
        }


class TestArithmeticEscapes:
    """Inputs where the point path used to raise a bare ZeroDivisionError or
    OverflowError now raise NumericError, and a batch records the same
    message against the cell.  No fixture cell reaches these inputs."""

    @pytest.mark.parametrize("n,rate,snr,conv,message", [
        # zeta overflows at a huge SNR, which made delta 0
        (500, 0.5, 1e308, "nats", "rayleigh_outage: ramp slope zeta overflowed double "
                                  "precision (n=500, rate=0.5, avg_snr=1e+308)"),
        # expm1(2R) overflows above about 355 bits per use, 2^R at 1024
        (1, 400.0, 10.0, "nats", "surrogate rate terms overflowed double precision "
                                 "(n=1, rate=400.0)"),
        (1, 2000.0, 10.0, "bits", "surrogate rate terms overflowed double precision "
                                  "(n=1, rate=2000.0)"),
    ])
    def test_single_link(self, n, rate, snr, conv, message):
        with pytest.raises(NumericError) as point:
            rayleigh_outage(n, rate, snr, conv)
        assert str(point.value) == message
        # the failing cell between two good ones
        cells = Grid(3)
        with np.errstate(all="ignore"):
            eps = rayleigh_link(cells, np.array([500, n, 500]),
                                np.array([0.5, rate, 0.5]), np.array([10.0, snr, 10.0]),
                                LinConvention.parse(conv))
        assert list(cells.failures) == [1]
        assert type(cells.failures[1]) is NumericError and str(cells.failures[1]) == message
        assert eps[0] == eps[2] == rayleigh_outage(500, 0.5, 10.0, conv)

    def test_combined_link_rate_terms(self):
        with pytest.raises(NumericError, match="surrogate rate terms overflowed"):
            mrc_pair_outage(100, 400.0, HypoexpParams(10.0, 2.5))

    @pytest.mark.parametrize("protocol", ["dt", "df", "sc", "mrc"])
    def test_path_gain_overflow(self, protocol):
        # 0.5 ** -2000 overflows; direct transmission never reads that gain
        kwargs = dict(eta=0.5, beta=0.5, path_loss_exp=2000.0)
        cfg = TopologyConfig(total_snr=SnrValue(10.0), n_s=100, n_r=100, k=10, **kwargs)
        grid = reliability_region(protocol, SnrValue(10.0), [100], [10], CLOSED, **kwargs)
        if protocol == "dt":
            assert grid.errors == ()
            assert grid.success[0][0] == 1.0 - protocol_outage(protocol, cfg, CLOSED).value
            return
        message = "omega_sr: path-loss gain 0.5 ** -2000.0 overflows double precision"
        for backend in (CLOSED, Backend.quadrature()):
            with pytest.raises(NumericError) as point:
                protocol_outage(protocol, cfg, backend)
            assert str(point.value) == message
        assert grid.errors == (f"n=100 k=10: {message}",)
        assert math.isnan(grid.success[0][0])
