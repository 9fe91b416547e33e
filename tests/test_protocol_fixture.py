"""The protocol layer and the drivers on every backend against a bit-for-bit record.

``tests/data/protocol_fixture.json`` was written by
``scripts/protocol_fixture.py``: the protocol records from the commit
before the closed form, quadrature and Monte Carlo compositions were merged
into one evaluator, and the driver records from the commit before the
drivers' batched and per-cell paths were merged into one batch entry.  The
``sweep_blocklength_past_double_*`` records were appended when blocklengths
past the largest double became a refused point instead of an
``OverflowError``.  The ``region_*`` records hold each map's outage; they
were re-recorded from its success 1 - outage, which they reproduce, to pin
the cells below an outage of about 1.1e-16 at full precision.
Each ``protocol_outage`` and ``link_outages`` estimate must reproduce its
recorded value and std_error as exact doubles, with the same method,
trials and seed; each failure its exception type and message.  Monte
Carlo must do so whatever the worker count.  Each ``sweep``,
``reliability_region`` and ``optimize_eta`` call must reproduce its
recorded rows, map, errors or optimum exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from protocol_fixture import (  # noqa: E402
    BACKENDS,
    backend,
    estimate,
    links_record,
    outcome,
    run_driver,
    topology,
)

from fbrelay import protocol_outage  # noqa: E402

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "protocol_fixture.json").read_text(encoding="utf-8")
)
TOPOLOGIES = FIXTURE["topologies"]


@pytest.mark.parametrize("label", BACKENDS)
@pytest.mark.parametrize("rec", TOPOLOGIES, ids=lambda r: r["name"])
def test_protocol_outage(rec, label):
    cfg = topology(rec["snr_db"], rec["cfg"])
    be, conv = backend(label, rec["seed"])
    for protocol, want in rec["protocols"][label].items():
        got = outcome(lambda: estimate(protocol_outage(protocol, cfg, be, conv)))
        assert got == want, (protocol, label)


@pytest.mark.parametrize("label", BACKENDS)
@pytest.mark.parametrize("rec", TOPOLOGIES, ids=lambda r: r["name"])
def test_link_outages(rec, label):
    cfg = topology(rec["snr_db"], rec["cfg"])
    be, conv = backend(label, rec["seed"])
    assert outcome(lambda: links_record(cfg, be, conv)) == rec["links"][label]


@pytest.mark.parametrize("rec", TOPOLOGIES[:4], ids=lambda r: r["name"])
def test_monte_carlo_with_one_worker(rec, monkeypatch):
    monkeypatch.setenv("FBRELAY_MAX_WORKERS", "1")
    cfg = topology(rec["snr_db"], rec["cfg"])
    be, conv = backend("mc", rec["seed"])
    for protocol, want in rec["protocols"]["mc"].items():
        assert outcome(lambda: estimate(protocol_outage(protocol, cfg, be, conv))) == want
    assert outcome(lambda: links_record(cfg, be, conv)) == rec["links"]["mc"]


@pytest.mark.parametrize("case", FIXTURE["drivers"], ids=lambda c: c["name"])
def test_driver(case):
    assert run_driver(case["driver"], case["args"]) == case["result"]
