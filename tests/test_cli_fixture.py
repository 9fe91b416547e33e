"""The CLI's output against a byte-for-byte record.

``tests/data/cli_fixture.json`` was written by ``scripts/cli_fixture.py``
from the commit before the oracles and scipy were imported lazily.  Every
recorded invocation must give the same exit code, the same stdout and the
same ``--output`` file, byte for byte.
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
    code, stdout, written = run_case(case["argv"])
    assert code == case["exit_code"]
    assert stdout == case["stdout"].encode("utf-8")
    recorded = case["output_file"]
    assert written == (None if recorded is None else recorded.encode("utf-8"))
