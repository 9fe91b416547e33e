#!/usr/bin/env python3
"""Record the protocol layer's and the drivers' outputs, bit for bit.

Evaluates ``protocol_outage`` for the four schemes and ``link_outages``
on a small set of topologies, with the closed form (both conventions),
true-tail quadrature and seeded Monte Carlo, and writes each estimate's
value and std_error as ``float.hex`` with its method, trials and seed, and
each failure as its exception type and message.  The topologies cover the
reference split, path loss, a silent relay (eta = 1), mixed hop framing
(n_r != n_s), a short blocklength, a near-certain outage, and cells that
fail: a path-loss gain that overflows on either hop, and a broadcast SNR
that overflows.

It also records the drivers on those backends: ``sweep`` rows along each
axis (eta up to 1, mixed framing, refused points, path-loss overflow),
``reliability_region`` maps (their outage, which 1 - outage would round
away below about 1.1e-16) at a fixed split and with per-cell split
optimization (short blocklengths with and without ``allow_short``,
overflowing cells), ``optimize_eta`` searches (one fails in its coarse
scan), closed and quadrature sweeps and maps whose blocklength or
payload reaches 2**53 and 2**63, quadrature and Monte Carlo sweeps past
2**64, and a sweep on each backend to a blocklength past the largest
double.  Floats are written as ``float.hex``;
a driver call that raises is written as its exception type and message.

``tests/test_protocol_fixture.py`` checks that the package reproduces the
file exactly.  Regenerating it from a later commit records
that commit's behaviour, so do so only on purpose, from the repository
root:

    python3 scripts/protocol_fixture.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fbrelay import (  # noqa: E402
    Backend,
    SnrValue,
    TopologyConfig,
    link_outages,
    optimize_eta,
    protocol_outage,
    reliability_region,
    sweep,
)

PROTOCOLS = ("dt", "df", "sc", "mrc")
MC_TRIALS = 20_000

#: Topologies: name, total SNR (dB), TopologyConfig keywords, Monte Carlo seed.
TOPOLOGIES = [
    ("reference", 10.0, {"eta": 0.5, "beta": 0.5, "path_loss_exp": 0.0,
                         "n_s": 500, "n_r": 500, "k": 250}, 1),
    ("path_loss", 6.0, {"eta": 0.35, "beta": 0.6, "path_loss_exp": 2.0,
                        "n_s": 300, "n_r": 300, "k": 150}, 2),
    ("silent", 10.0, {"eta": 1.0, "beta": 0.4, "path_loss_exp": 2.0,
                      "n_s": 300, "n_r": 300, "k": 150}, 3),
    ("silent_mixed", 8.0, {"eta": 1.0, "beta": 0.5, "path_loss_exp": 3.0,
                           "n_s": 500, "n_r": 250, "k": 125}, 4),
    ("mixed_framing", 8.0, {"eta": 0.6, "beta": 0.5, "path_loss_exp": 3.0,
                            "n_s": 500, "n_r": 250, "k": 125}, 5),
    ("short", 3.0, {"eta": 0.7, "beta": 0.3, "path_loss_exp": 2.0,
                    "n_s": 40, "n_r": 40, "k": 20, "allow_short": True}, 6),
    ("near_certain", -5.0, {"eta": 0.5, "beta": 0.5, "path_loss_exp": 0.0,
                            "n_s": 200, "n_r": 200, "k": 400}, 7),
    ("gain_overflow", 10.0, {"eta": 0.5, "beta": 0.5, "path_loss_exp": 2000.0,
                             "n_s": 500, "n_r": 500, "k": 250}, 8),
    ("hop_gain_overflow", 10.0, {"eta": 0.5, "beta": 0.999, "path_loss_exp": 200.0,
                                 "n_s": 500, "n_r": 500, "k": 250}, 10),
    ("broadcast_inf", 3000.0, {"eta": 0.5, "beta": 0.01, "path_loss_exp": 10.0,
                               "n_s": 500, "n_r": 500, "k": 250}, 9),
]

#: Backends by label; Monte Carlo is built per topology with its seed.
BACKENDS = ("closed_nats", "closed_bits", "quad", "mc")


#: Short-blocklength warnings, which the records leave out.
SHORT_WARNING = "blocklength n="

_REF = {"eta": 0.5, "beta": 0.5, "path_loss_exp": 0.0, "n_s": 500, "n_r": 500, "k": 250}
_MIXED = {"eta": 0.6, "beta": 0.4, "path_loss_exp": 2.0, "n_s": 500, "n_r": 250, "k": 125}
_OVERFLOW = {**_REF, "path_loss_exp": 2000.0}
_BIG = {**_REF, "n_s": 2 ** 63 + 5, "n_r": 2 ** 63 + 5, "k": 2 ** 62 + 1}
_BIG_K = {**_REF, "n_s": 2 ** 54, "n_r": 2 ** 54, "k": 2 ** 53 + 1}

#: Driver calls: name, driver, arguments.  Backends are labels as in
#: BACKENDS; a call's convention is given with its arguments.
DRIVERS = [
    *((f"sweep_{axis}_{base}_{labels}", "sweep", {
        "protocols": list(PROTOCOLS), "snr_db": 10.0, "cfg": cfg, "axis": axis,
        "values": values, "backends": labels.split("+"),
        "convention": "bits" if "closed_bits" in labels else "nats", "seed": 11})
      for axis, values, base, cfg in (
          ("total_snr", [0.0, 0.5, 10.0, 1e3], "ref", _REF),
          ("blocklength", [40, 100, 150.5, 300], "ref", _REF),
          ("eta", [0.2, 0.5, 1.0, 1.5], "ref", _REF),
          ("eta", [0.3, 0.7, 1.0], "mixed", _MIXED),
          ("total_snr", [1.0, 20.0], "mixed", _MIXED),
          ("eta", [0.4, 1.0], "overflow", _OVERFLOW))
      for labels in ("quad", "mc", "closed_bits+quad+mc")),
    *((f"sweep_{axis}_{base}_{labels}", "sweep", {
        "protocols": list(PROTOCOLS), "snr_db": 12.0, "cfg": cfg, "axis": axis,
        "values": values, "backends": [labels], "convention": "nats", "seed": 12})
      for axis, values, base, cfg in (
          ("blocklength", [2 ** 53 - 1, 2 ** 53, 2 ** 63 + 1], "big", {**_REF, "k": 2 ** 51 + 3}),
          # numpy's k / n differs from Python's in the last bit at n = 2**53 + 1
          ("blocklength", [2 ** 53 + 1, 2 ** 53 + 3], "odd", _REF),
          ("eta", [0.25, 1.0], "big", _BIG),
          ("total_snr", [3.0, 30.0], "big_k", _BIG_K))
      for labels in ("closed_nats", "quad")),
    *((f"region_{p}_{label}_{'short' if short else 'strict'}{'_opt' if opt else ''}", "region", {
        "protocol": p, "snr_db": 8.0, "n_values": [40, 60, 100, 200], "k_values": [10, 30],
        "backend": label, "convention": "nats", "eta": 0.6, "beta": 0.4,
        "path_loss_exp": 2.0, "allow_short": short, "optimize_power_split": opt, "seed": 13})
      for p, label, short, opt in (
          ("sc", "quad", False, False), ("mrc", "quad", True, False),
          ("df", "mc", False, False), ("mrc", "mc", True, False),
          ("mrc", "mc", True, True))),
    *((f"region_opt_{p}_{label}_{'short' if short else 'strict'}", "region", {
        "protocol": p, "snr_db": 6.0, "n_values": [60, 120], "k_values": [20, 40],
        "backend": label, "convention": conv, "eta": 0.5, "beta": 0.5,
        "path_loss_exp": 0.0, "allow_short": short, "optimize_power_split": True, "seed": 14})
      for p, label, conv, short in (
          ("mrc", "quad", "nats", True), ("sc", "quad", "nats", False),
          ("mrc", "closed_bits", "bits", True))),
    *((f"region_overflow_{p}_{label}{'_opt' if opt else ''}", "region", {
        "protocol": p, "snr_db": 10.0, "n_values": [100, 200], "k_values": [20, 50],
        "backend": label, "convention": "nats", "eta": 0.5, "beta": 0.5,
        "path_loss_exp": 2000.0, "allow_short": False, "optimize_power_split": opt, "seed": 15})
      for p, label, opt in (
          ("dt", "quad", False), ("df", "quad", False), ("mrc", "mc", False),
          ("sc", "quad", True))),
    ("region_refused_quad", "region", {
        "protocol": "sc", "snr_db": 10.0, "n_values": [100, 200], "k_values": [20, 50],
        "backend": "quad", "convention": "nats", "eta": 1.5, "beta": 0.5,
        "path_loss_exp": 0.0, "allow_short": False, "optimize_power_split": False, "seed": 16}),
    *((f"region_big_{p}_{label}", "region", {
        "protocol": p, "snr_db": 10.0, "n_values": [2 ** 53, 2 ** 63 + 1],
        "k_values": [2 ** 52, 2 ** 55 + 1], "backend": label, "convention": "nats",
        "eta": 0.5, "beta": 0.5, "path_loss_exp": 0.0, "allow_short": False,
        "optimize_power_split": False, "seed": 17})
      for p, label in (("mrc", "closed_nats"), ("sc", "closed_nats"), ("df", "quad"),
                       ("mrc", "quad"))),
    *((f"region_odd_{p}_{label}", "region", {
        "protocol": p, "snr_db": 10.0, "n_values": [2 ** 53 + 1], "k_values": [3, 250],
        "backend": label, "convention": "nats", "eta": 0.5, "beta": 0.5, "path_loss_exp": 0.0,
        "allow_short": False, "optimize_power_split": False, "seed": 17})
      for p, label in (("dt", "closed_nats"), ("df", "closed_nats"), ("sc", "quad"))),
    ("region_big_opt_closed", "region", {
        "protocol": "sc", "snr_db": 10.0, "n_values": [2 ** 53, 2 ** 63 + 1],
        "k_values": [2 ** 52], "backend": "closed_nats", "convention": "nats",
        "eta": 0.5, "beta": 0.5, "path_loss_exp": 0.0, "allow_short": False,
        "optimize_power_split": True, "seed": 18}),
    *((f"search_{p}_{name}_{label}", "search", {
        "protocol": p, "snr_db": db, "cfg": cfg, "backend": label, "convention": "nats",
        "seed": 19})
      for p, name, db, cfg, label in (
          ("dt", "reference", 10.0, _REF, "quad"),
          ("df", "reference", 10.0, _REF, "quad"),
          ("sc", "reference", 10.0, _REF, "quad"),
          ("mrc", "mixed", 8.0, _MIXED, "quad"),
          ("mrc", "short", 6.0, {**_REF, "n_s": 60, "n_r": 60, "k": 30, "allow_short": True},
           "quad"),
          ("df", "overflow", 10.0, _OVERFLOW, "quad"),
          ("mrc", "reference", 10.0, _REF, "mc"),
          ("sc", "big", 10.0, _BIG, "closed_nats"),
          ("mrc", "big", 10.0, _BIG, "quad"))),
    # past uint64, where numpy's sqrt of a Python int would be an object
    *((f"sweep_blocklength_huge_{label}", "sweep", {
        "protocols": list(PROTOCOLS), "snr_db": 10.0, "cfg": {**_REF, "k": 2 ** 63},
        "axis": "blocklength", "values": [2 ** 64 - 1, 2 ** 64 + 7], "backends": [label],
        "convention": "nats", "seed": 20})
      for label in ("quad", "mc")),
    # past the largest double, where float(n) would raise: a refused point
    *((f"sweep_blocklength_past_double_{label}", "sweep", {
        "protocols": list(PROTOCOLS), "snr_db": 10.0, "cfg": _REF, "axis": "blocklength",
        "values": [500, 10 ** 400], "backends": [label], "convention": "nats", "seed": 21})
      for label in ("closed_nats", "quad", "mc")),
]


def topology(snr_db: float, cfg: dict) -> TopologyConfig:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=SHORT_WARNING)
        return TopologyConfig(total_snr=SnrValue.from_db(snr_db), **cfg)


def backend(label: str, seed: int) -> "tuple[Backend, str]":
    """(backend, convention) for a label."""
    if label == "quad":
        return Backend.quadrature(), "nats"
    if label == "mc":
        return Backend.monte_carlo(MC_TRIALS, seed), "nats"
    return Backend.closed_form(), label.split("_")[1]


def estimate(est) -> dict:
    return {
        "value": est.value.hex(),
        "std_error": None if est.std_error is None else est.std_error.hex(),
        "method": est.method.value,
        "trials": est.trials,
        "seed": est.seed,
    }


def outcome(thunk) -> "dict | list":
    """The record ``thunk`` returns, or [exception type, message]."""
    try:
        return thunk()
    except Exception as exc:  # recorded, whatever it is
        return [type(exc).__name__, str(exc)]


def _hexed(value):
    return value.hex() if isinstance(value, float) else value


def _sweep(a: dict) -> list:
    rows = sweep(a["protocols"], topology(a["snr_db"], a["cfg"]), a["axis"], a["values"],
                 [backend(label, a["seed"])[0] for label in a["backends"]], a["convention"])
    return {"rows": [{k: _hexed(v) for k, v in dataclasses.asdict(row).items()}
                     for row in rows]}


def _region(a: dict) -> dict:
    grid = reliability_region(
        a["protocol"], SnrValue.from_db(a["snr_db"]), a["n_values"], a["k_values"],
        backend(a["backend"], a["seed"])[0], a["convention"], eta=a["eta"], beta=a["beta"],
        path_loss_exp=a["path_loss_exp"], allow_short=a["allow_short"],
        optimize_power_split=a["optimize_power_split"])
    return {"outage": [[x.hex() for x in row] for row in grid.outage],
            "errors": list(grid.errors)}


def _search(a: dict) -> dict:
    opt = optimize_eta(a["protocol"], topology(a["snr_db"], a["cfg"]),
                       backend(a["backend"], a["seed"])[0], a["convention"])
    return {"eta_star": opt.eta_star.hex(), "eps_star": opt.eps_star.hex(),
            "profile": [[eta.hex(), eps.hex()] for eta, eps in opt.profile],
            "multimodal": opt.multimodal}


def run_driver(driver: str, args: dict) -> "dict | list":
    """The record of one driver call, short-blocklength warnings aside."""
    run = {"sweep": _sweep, "region": _region, "search": _search}[driver]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=SHORT_WARNING)
        return outcome(lambda: run(args))


def record(spec) -> dict:
    cfg = topology(spec[1], spec[2])
    out = {"name": spec[0], "snr_db": spec[1], "cfg": spec[2], "seed": spec[3],
           "protocols": {}, "links": {}}
    for label in BACKENDS:
        be, conv = backend(label, spec[3])
        out["protocols"][label] = {
            p: outcome(lambda: estimate(protocol_outage(p, cfg, be, conv))) for p in PROTOCOLS
        }
        out["links"][label] = outcome(lambda: links_record(cfg, be, conv))
    return out


def links_record(cfg, be, conv) -> dict:
    links = link_outages(cfg, be, conv)
    return {name: estimate(getattr(links, name)) for name in ("sd", "sr", "rd", "srd")}


def build() -> dict:
    warnings.simplefilter("ignore")
    return {
        "mc_trials": MC_TRIALS,
        "topologies": [record(spec) for spec in TOPOLOGIES],
        "drivers": [{"name": name, "driver": driver, "args": args,
                     "result": run_driver(driver, args)} for name, driver, args in DRIVERS],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "tests" / "data" / "protocol_fixture.json"))
    args = ap.parse_args()
    doc = build()
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    records = [r for t in doc["topologies"]
               for r in [*(x for b in t["protocols"].values() for x in b.values()),
                         *t["links"].values()]]
    failed = sum(isinstance(r, list) for r in records)
    drivers_failed = sum(isinstance(d["result"], list) for d in doc["drivers"])
    print(f"wrote {path}: {len(doc['topologies'])} topologies, {len(records)} records "
          f"({failed} failures), {len(doc['drivers'])} driver calls ({drivers_failed} raise)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
