"""The protocol layer on every backend against a bit-for-bit record.

``tests/data/protocol_fixture.json`` was written by
``scripts/protocol_fixture.py`` from the commit before the closed form,
quadrature and Monte Carlo compositions were merged into one evaluator.
Each ``protocol_outage`` and ``link_outages`` estimate must reproduce its
recorded value and std_error as exact doubles, with the same method,
trials and seed; each failure its exception type and message.  Monte
Carlo must do so whatever the worker count.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from fbrelay import Backend, SnrValue, TopologyConfig, link_outages, protocol_outage

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "protocol_fixture.json").read_text(encoding="utf-8")
)
TOPOLOGIES = FIXTURE["topologies"]


def topology(rec) -> TopologyConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TopologyConfig(total_snr=SnrValue.from_db(rec["snr_db"]), **rec["cfg"])


def backend(label: str, seed: int) -> "tuple[Backend, str]":
    if label == "quad":
        return Backend.quadrature(), "nats"
    if label == "mc":
        return Backend.monte_carlo(FIXTURE["mc_trials"], seed), "nats"
    return Backend.closed_form(), label.split("_")[1]


def as_record(est) -> dict:
    return {
        "value": est.value.hex(),
        "std_error": None if est.std_error is None else est.std_error.hex(),
        "method": est.method.value,
        "trials": est.trials,
        "seed": est.seed,
    }


def outcome(thunk):
    try:
        return thunk()
    except Exception as exc:  # compared against the recorded exception
        return [type(exc).__name__, str(exc)]


def links_record(cfg, be, conv) -> dict:
    links = link_outages(cfg, be, conv)
    return {name: as_record(getattr(links, name)) for name in ("sd", "sr", "rd", "srd")}


@pytest.mark.parametrize("label", ["closed_nats", "closed_bits", "quad", "mc"])
@pytest.mark.parametrize("rec", TOPOLOGIES, ids=lambda r: r["name"])
def test_protocol_outage(rec, label):
    cfg = topology(rec)
    be, conv = backend(label, rec["seed"])
    for protocol, want in rec["protocols"][label].items():
        got = outcome(lambda: as_record(protocol_outage(protocol, cfg, be, conv)))
        assert got == want, (protocol, label)


@pytest.mark.parametrize("label", ["closed_nats", "closed_bits", "quad", "mc"])
@pytest.mark.parametrize("rec", TOPOLOGIES, ids=lambda r: r["name"])
def test_link_outages(rec, label):
    cfg = topology(rec)
    be, conv = backend(label, rec["seed"])
    assert outcome(lambda: links_record(cfg, be, conv)) == rec["links"][label]


@pytest.mark.parametrize("rec", TOPOLOGIES[:4], ids=lambda r: r["name"])
def test_monte_carlo_with_one_worker(rec, monkeypatch):
    monkeypatch.setenv("FBRELAY_MAX_WORKERS", "1")
    cfg = topology(rec)
    be, conv = backend("mc", rec["seed"])
    for protocol, want in rec["protocols"]["mc"].items():
        assert outcome(lambda: as_record(protocol_outage(protocol, cfg, be, conv))) == want
    assert outcome(lambda: links_record(cfg, be, conv)) == rec["links"]["mc"]
