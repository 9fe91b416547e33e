"""The CLI's output against a byte-for-byte record.

``tests/data/cli_fixture.json`` was written by ``scripts/cli_fixture.py``
from the commit before the oracles and scipy were imported lazily; the
``region_failed_cells_*`` and ``config_*`` cases were added from the commit
before the config file went through click's default map.  ``region_csv``
was re-recorded when region maps began to print the outage they computed
instead of 1 - (1 - outage); only its outage column moved, by at most
5.6e-17.  Every recorded
invocation must give the same exit code, the same stdout, the same
``--output`` file and, where recorded, the same stderr, byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from cli_fixture import run_case  # noqa: E402

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "cli_fixture.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case", FIXTURE["cases"], ids=lambda c: c["name"])
def test_output_matches_the_record(case):
    code, stdout, stderr, written = run_case(case["argv"], case.get("files"))
    assert code == case["exit_code"]
    assert stdout == case["stdout"].encode("utf-8")
    if "stderr" in case:
        assert stderr == case["stderr"].encode("utf-8")
    recorded = case["output_file"]
    assert written == (None if recorded is None else recorded.encode("utf-8"))
