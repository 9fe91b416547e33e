#!/usr/bin/env python3
"""Record the protocol layer's outputs on every backend, bit for bit.

Evaluates ``protocol_outage`` for the four schemes and ``link_outages``
on a small set of topologies, with the closed form (both conventions),
true-tail quadrature and seeded Monte Carlo, and writes each estimate's
value and std_error as ``float.hex`` with its method, trials and seed, and
each failure as its exception type and message.  The topologies cover the
reference split, path loss, a silent relay (eta = 1), mixed hop framing
(n_r != n_s), a short blocklength, a near-certain outage, and cells that
fail: a path-loss gain that overflows on either hop, and a broadcast SNR
that overflows.

``tests/test_protocol_fixture.py`` checks that the protocol layer
reproduces the file exactly.  Regenerating it from a later commit records
that commit's behaviour, so do so only on purpose, from the repository
root:

    python3 scripts/protocol_fixture.py
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fbrelay import Backend, SnrValue, TopologyConfig, link_outages, protocol_outage  # noqa: E402

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


def topology(spec) -> TopologyConfig:
    _name, snr_db, kw, _seed = spec
    return TopologyConfig(total_snr=SnrValue.from_db(snr_db), **kw)


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


def outcome(thunk) -> "dict | list[str]":
    """The estimate's record, or [exception type, message]."""
    try:
        return thunk()
    except Exception as exc:  # recorded, whatever it is
        return [type(exc).__name__, str(exc)]


def record(spec) -> dict:
    cfg = topology(spec)
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
    return {"mc_trials": MC_TRIALS, "topologies": [record(spec) for spec in TOPOLOGIES]}


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
    print(f"wrote {path}: {len(doc['topologies'])} topologies, {len(records)} records "
          f"({failed} failures)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
