#!/usr/bin/env python3
"""Record the closed-form outputs, bit for bit, as a regression fixture.

Evaluates the closed backend one point at a time through the public scalar
entry points and writes every value as ``float.hex``, every failure as its
exception type and message:

* the 768 cells of the standard validation lattice (the convention
  report's): ``rayleigh_outage`` for single links and ``mrc_pair_outage``
  for combined links, in both conventions;
* one 40 x 30 (n, k) map per protocol through ``protocol_outage``, from
  n = 20 with ``allow_short``;
* an ``allow_short`` mrc map of the golden-lattice shape of
  ``bench/gate.py`` (n = 20..380, k = 10..150) whose weak relay branch makes
  the combined link's exponentials overflow in some cells;
* sweeps through ``sweep`` on each axis, with eta reaching 1 (silent relay),
  one of them with mixed hop framing;
* power-split searches through ``optimize_eta``;
* single cases for the guard band, equal means, the ``delta > 20``
  asymptote, a collapsed ramp window and a diverging surrogate average.

``tests/test_closed_form_fixture.py`` checks that the grid kernels and the
scalar wrappers reproduce the file exactly.  Regenerating it from a later
commit records that commit's path, so do so only on purpose, from the
repository root:

    python3 scripts/closed_form_fixture.py
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fbrelay import (  # noqa: E402
    Backend,
    HypoexpParams,
    SnrValue,
    TopologyConfig,
    mrc_pair_outage,
    optimize_eta,
    protocol_outage,
    rayleigh_outage,
    sweep,
)

PROTOCOLS = ("dt", "df", "sc", "mrc")
CONVENTIONS = ("nats", "bits")
SNR_DBS = tuple(float(db) for db in range(0, 31, 2))
BLOCKLENGTHS = (100, 200, 500, 1000)
RATES = (0.1, 0.5, 1.0, 2.0)
UNEQUAL_OFFSET = 10.0 ** -0.6  # second branch mean 6 dB below the first

#: Maps: protocol, SNR (dB), eta, beta, alpha, n values, k values.
MAPS = [
    {"name": f"map_{p}", "protocol": p, "snr_db": 8.0, "eta": 0.6, "beta": 0.4, "alpha": 2.0,
     "n_values": list(range(20, 820, 20)), "k_values": list(range(4, 124, 4))}
    for p in PROTOCOLS
] + [
    # eta close to 1 leaves the relay branch 1e5 times weaker than the direct
    # one; where the lower ramp breakpoint is negative (n = 20, high rates)
    # the combined link's exp(-lo/omega_y) overflows
    {"name": "golden_overflow", "protocol": "mrc", "snr_db": 10.0, "eta": 0.99999,
     "beta": 0.5, "alpha": 0.0, "n_values": list(range(20, 400, 20)),
     "k_values": list(range(10, 160, 10))},
]

#: Sweeps: protocol set, axis, values, base topology keywords.
SWEEPS = [
    {"name": "snr", "axis": "total_snr",
     "values": [10.0 ** ((-10.0 + 40.0 * i / 29) / 10.0) for i in range(30)],
     "base": {"eta": 0.6, "beta": 0.4, "path_loss_exp": 2.0, "n_s": 300, "n_r": 300, "k": 150}},
    {"name": "snr_silent", "axis": "total_snr",
     "values": [10.0 ** ((-10.0 + 40.0 * i / 29) / 10.0) for i in range(30)],
     "base": {"eta": 1.0, "beta": 0.4, "path_loss_exp": 2.0, "n_s": 300, "n_r": 300, "k": 150}},
    {"name": "snr_mixed", "axis": "total_snr",
     "values": [10.0 ** ((-5.0 + 30.0 * i / 19) / 10.0) for i in range(20)],
     "base": {"eta": 0.6, "beta": 0.5, "path_loss_exp": 3.0, "n_s": 500, "n_r": 200, "k": 180}},
    {"name": "blocklength", "axis": "blocklength", "values": list(range(40, 1240, 40)),
     "base": {"eta": 0.7, "beta": 0.5, "path_loss_exp": 2.0, "n_s": 500, "n_r": 500, "k": 90}},
    {"name": "blocklength_silent", "axis": "blocklength", "values": list(range(100, 1300, 40)),
     "base": {"eta": 1.0, "beta": 0.5, "path_loss_exp": 2.0, "n_s": 500, "n_r": 500, "k": 90}},
    {"name": "eta", "axis": "eta", "values": [0.05 + 0.95 * i / 29 for i in range(30)],
     "base": {"eta": 0.5, "beta": 0.3, "path_loss_exp": 3.0, "n_s": 800, "n_r": 800, "k": 600}},
    {"name": "eta_mixed", "axis": "eta", "values": [0.05 + 0.95 * i / 19 for i in range(20)],
     "base": {"eta": 0.5, "beta": 0.6, "path_loss_exp": 0.0, "n_s": 400, "n_r": 250, "k": 100}},
]
SWEEP_SNR_DB = 10.0

#: Searches: protocol, SNR (dB), topology keywords.
SEARCHES = [
    {"protocol": p, "snr_db": snr_db, "cfg": cfg}
    for p in PROTOCOLS
    for snr_db, cfg in (
        (10.0, {"beta": 0.5, "path_loss_exp": 3.0, "n_s": 500, "n_r": 500, "k": 250}),
        (3.0, {"beta": 0.3, "path_loss_exp": 2.0, "n_s": 200, "n_r": 200, "k": 240}),
        (20.0, {"beta": 0.7, "path_loss_exp": 0.0, "n_s": 1000, "n_r": 1000, "k": 400}),
    )
]

#: Single cases: name, function, positional arguments.
CASES = [
    ("guard_band", "mrc_pair_outage", (500, 0.5, (10.0, 10.0 * (1.0 + 0.3e-6)), "nats")),
    ("just_outside_guard", "mrc_pair_outage", (500, 0.5, (10.0, 10.0 * (1.0 + 3e-6)), "nats")),
    ("equal_means", "mrc_pair_outage", (500, 0.5, (10.0, 10.0), "nats")),
    ("mu_ramp", "mrc_pair_outage", (500, 0.5, (10.0, 2.5), "nats", "mu")),
    ("asymptote", "rayleigh_outage", (100, 1.0, 0.01, "nats")),
    ("asymptote_edge", "rayleigh_outage", (100, 1.0, 0.0158, "bits")),
    ("collapsed_window", "rayleigh_outage", (10000, 0.5, 1e-20, "nats")),
    ("collapsed_pair_window", "mrc_pair_outage", (10 ** 40, 0.5, (10.0, 2.5), "nats")),
    ("pair_overflow_high_rate", "mrc_pair_outage", (100, 60.0, (10.0, 2.5), "nats")),
    ("diverged", "rayleigh_outage", (1, 20.0, 1e-6, "nats")),
    ("pair_overflow", "mrc_pair_outage", (100, 0.01, (0.005, 7e-7), "nats")),
    ("tiny_rate", "rayleigh_outage", (10000, 1e-4, 10.0, "nats")),
    ("tiny_rate_pair", "mrc_pair_outage", (10000, 1e-4, (10.0, 2.5), "nats")),
]


def outcome(thunk) -> "str | list[str]":
    """float.hex of the value, or [exception type, message]."""
    try:
        return float(thunk()).hex()
    except Exception as exc:  # recorded, whatever it is
        return [type(exc).__name__, str(exc)]


def lattice() -> "list[dict]":
    rows = []
    for db in SNR_DBS:
        omega = 10.0 ** (db / 10.0)
        for n in BLOCKLENGTHS:
            for rate in RATES:
                for kind, oy in (("single", None), ("pair_equal", omega),
                                 ("pair_unequal", omega * UNEQUAL_OFFSET)):
                    row = {"kind": kind, "n": n, "rate": rate, "omega_z": omega, "omega_y": oy}
                    for conv in CONVENTIONS:
                        if oy is None:
                            row[conv] = outcome(lambda: rayleigh_outage(n, rate, omega, conv))
                        else:
                            pair = HypoexpParams(omega, oy)
                            row[conv] = outcome(lambda: mrc_pair_outage(n, rate, pair, conv))
                    rows.append(row)
    return rows


def region_cells(spec: dict) -> "list[list]":
    closed = Backend.closed_form()
    snr = SnrValue.from_db(spec["snr_db"])
    out = []
    for n in spec["n_values"]:
        row = []
        for k in spec["k_values"]:
            def cell():
                cfg = TopologyConfig(total_snr=snr, eta=spec["eta"], beta=spec["beta"],
                                     path_loss_exp=spec["alpha"], n_s=n, n_r=n, k=k,
                                     allow_short=True)
                return protocol_outage(spec["protocol"], cfg, closed).value
            row.append(outcome(cell))
        out.append(row)
    return out


def sweep_rows(spec: dict) -> "list[list]":
    base = TopologyConfig(total_snr=SnrValue.from_db(SWEEP_SNR_DB), **spec["base"])
    rows = sweep(list(PROTOCOLS), base, spec["axis"], spec["values"], Backend.closed_form())
    return [[r.protocol, None if math.isnan(r.outage) else r.outage.hex(), r.error] for r in rows]


def search(spec: dict) -> dict:
    cfg = TopologyConfig(total_snr=SnrValue.from_db(spec["snr_db"]), eta=0.5, **spec["cfg"])
    res = optimize_eta(spec["protocol"], cfg, Backend.closed_form())
    return {**spec, "eta_star": res.eta_star.hex(), "eps_star": res.eps_star.hex(),
            "multimodal": res.multimodal,
            "profile": [[eta.hex(), eps.hex()] for eta, eps in res.profile]}


def case(name: str, func: str, args: tuple) -> dict:
    fn = {"rayleigh_outage": rayleigh_outage, "mrc_pair_outage": mrc_pair_outage}[func]
    call = list(args)
    if func == "mrc_pair_outage":
        call[2] = HypoexpParams(*args[2])
    return {"name": name, "func": func, "args": list(args), "outcome": outcome(lambda: fn(*call))}


def build() -> dict:
    warnings.simplefilter("ignore")
    return {
        "lattice": lattice(),
        "maps": [{**spec, "cells": region_cells(spec)} for spec in MAPS],
        "sweeps": [{**spec, "snr_db": SWEEP_SNR_DB, "rows": sweep_rows(spec)} for spec in SWEEPS],
        "searches": [search(spec) for spec in SEARCHES],
        "cases": [case(*c) for c in CASES],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "tests" / "data" / "closed_form_fixture.json"))
    args = ap.parse_args()
    doc = build()
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    failed = sum(isinstance(c, list) for m in doc["maps"] for row in m["cells"] for c in row)
    print(f"wrote {path}: {len(doc['lattice'])} lattice cells, {len(doc['maps'])} maps "
          f"({failed} failed cells), {len(doc['sweeps'])} sweeps, "
          f"{len(doc['searches'])} searches, {len(doc['cases'])} cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
