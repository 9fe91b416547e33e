"""Run the Tier-1 suite and accept exactly its known outcome.

Tier-1 is ``python -m pytest -q --continue-on-collection-errors`` from the
repository root with ``src`` on ``PYTHONPATH``.  It must end with exactly
two failures, the tests that fail by design (README, "Two tests fail by
design"), and exactly one xfail, the strict marker on ROADMAP item 0d.
This script runs the suite with ``--junitxml`` and exits 0 only then: a new
failure or error, a red test turning green, and any change in the xfailed
set each exit 1.  Run it from anywhere:

    python3 scripts/tier1.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (classname, name) of each test, as the JUnit report names it.
FAILED_BY_DESIGN = {
    ("tests.test_acceptance", "test_sc_power_split_band"),
    ("tests.test_acceptance", "test_better_convention_within_10_percent"),
}
XFAILED = {
    ("tests.test_closed_form", "test_own_surrogate_contract_below_a_negative_lower_breakpoint"),
}


def outcomes(report: Path) -> "dict[str, set[tuple[str, str]]]":
    """The tests of a JUnit report by outcome: failed (failures and errors,
    collection errors included), xfailed, skipped and passed."""
    out: "dict[str, set[tuple[str, str]]]" = {
        "failed": set(), "xfailed": set(), "skipped": set(), "passed": set()}
    for case in ET.parse(report).getroot().iter("testcase"):
        key = (case.get("classname", ""), case.get("name", ""))
        if case.find("failure") is not None or case.find("error") is not None:
            out["failed"].add(key)
        elif (skipped := case.find("skipped")) is not None:
            out["xfailed" if skipped.get("type") == "pytest.xfail" else "skipped"].add(key)
        else:
            out["passed"].add(key)
    return out


def _show(keys) -> str:
    return ", ".join(sorted(f"{cls}::{name}" for cls, name in keys)) or "none"


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             f"--junitxml={report}"], cwd=ROOT, env=env)
        if code not in (0, 1) or not report.exists():
            print(f"tier1: FAIL (pytest exited {code} without a full report)")
            return 1
        seen = outcomes(report)
    problems = []
    for what, want in (("failed", FAILED_BY_DESIGN), ("xfailed", XFAILED)):
        if seen[what] - want:
            problems.append(f"unexpected {what}: {_show(seen[what] - want)}")
        if want - seen[what]:
            problems.append(f"expected {what} but not: {_show(want - seen[what])}")
    if seen["skipped"]:
        problems.append(f"skipped: {_show(seen['skipped'])}")
    summary = (f"{len(seen['passed'])} passed, {len(seen['failed'])} failed, "
               f"{len(seen['xfailed'])} xfailed, {len(seen['skipped'])} skipped")
    if problems:
        print(f"tier1: FAIL ({summary})")
        for line in problems:
            print(f"  {line}")
        return 1
    print(f"tier1: OK ({summary}; the failures are the two that fail by design)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
