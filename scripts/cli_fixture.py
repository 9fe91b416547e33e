#!/usr/bin/env python3
"""Record the CLI's output, byte for byte, as a regression fixture.

Runs a fixed set of ``fbrelay`` invocations in-process through click's test
runner, each in an empty working directory, and writes per invocation its
argv, exit code, stdout and, where it writes one, the ``--output`` file to
``tests/data/cli_fixture.json`` (or the file that ``--out`` names):

* ``outage`` for every protocol, as commented CSV and as JSON, on the
  closed backend;
* ``outage`` on the quadrature and Monte Carlo backends;
* ``sweep`` as JSON and as CSV with a refused cell;
* ``optimize-eta`` as JSON and as CSV;
* a small ``region`` map written to a CSV file, with refused cells;
* a ``region`` map with a refused row and failed cells in several rows, as
  CSV and as JSON;
* ``validate``, and one malformed request (exit code 2, empty stdout);
* ``--config`` files: options set from a file (CSV and JSON), a flag over a
  file entry, a dashed key, a scalar for a repeatable option, and an
  unknown key, a value of the wrong type, a missing file, a non-object file
  and malformed JSON (each exit code 2).

A case that reads files writes them into its directory first; the fixture
records them, and for such a case the stderr too, since a config file's
error messages are part of its contract.  ``tests/test_cli_fixture.py``
replays the recorded argv and compares every recorded output exactly.
Regenerating the file from a later commit records that commit's output, so
do so only on purpose, from the repository root:

    python3 scripts/cli_fixture.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from fbrelay.cli import main as fbrelay  # noqa: E402

#: The file that ``--output`` names, relative to the invocation's directory.
OUTPUT = "table.csv"
#: The file that ``--config`` names in the config cases.
CONFIG = "conf.json"

CASES = [
    *((f"outage_{p}_csv", ["outage", "--protocol", p]) for p in ("dt", "df", "sc", "mrc")),
    *((f"outage_{p}_json", ["outage", "--protocol", p, "--json", "--snr-db", "6",
                            "--beta", "0.3", "--alpha", "2"]) for p in ("dt", "df", "sc", "mrc")),
    ("outage_quad", ["outage", "--backend", "quad"]),
    ("outage_quad_mixed_json", ["outage", "--backend", "quad", "--n-relay", "300", "--json"]),
    ("outage_mc_json", ["outage", "--backend", "mc", "--protocol", "sc", "--trials", "20000",
                        "--seed", "5", "--json"]),
    ("sweep_json", ["sweep", "--json", "--axis", "eta", "--start", "0.1", "--stop", "1",
                    "--points", "10", "--n", "300", "--k", "150"]),
    ("sweep_csv", ["sweep", "--axis", "blocklength", "--start", "50", "--stop", "500",
                   "--points", "4"]),
    ("optimize_eta_json", ["optimize-eta", "--json", "--snr-db", "8", "--beta", "0.4",
                           "--alpha", "2"]),
    ("optimize_eta_csv", ["optimize-eta", "--protocol", "sc", "--protocol", "mrc"]),
    ("region_csv", ["region", "--protocol", "sc", "--k-min", "10", "--k-max", "200",
                    "--k-step", "10", "--n-min", "50", "--n-max", "400", "--n-step", "50",
                    "--output", OUTPUT]),
    ("validate", ["validate"]),
    ("usage_error", ["outage", "--eta", "2"]),
    *((f"region_failed_cells_{fmt}", ["region", "--protocol", "dt", "--snr-db", "-100",
                                      "--k-min", "1", "--k-max", "10", "--k-step", "3",
                                      "--n-min", "50", "--n-max", "250", "--n-step", "50",
                                      *flags])
      for fmt, flags in (("csv", []), ("json", ["--json"]))),
    *((f"config_outage_{fmt}", ["outage", "--snr-db", "8", "--config", CONFIG, *flags],
       {CONFIG: '{"protocol": "dt", "eta": 0.7, "k": 100, "allow_short": false}'})
      for fmt, flags in (("csv", []), ("json", ["--json"]))),
    ("config_flag_wins", ["outage", "--eta", "0.3", "--config", CONFIG, "--n", "400"],
     {CONFIG: '{"eta": 0.7, "n": 300, "alpha": 2}'}),
    ("config_dashed_key", ["outage", "--protocol", "df", "--config", CONFIG, "--json"],
     {CONFIG: '{"snr-db": 6, "n-relay": 300}'}),
    ("config_scalar_repeatable", ["sweep", "--config", CONFIG, "--start", "0", "--stop", "10",
                                  "--points", "3", "--json"],
     {CONFIG: '{"protocol": "dt", "backend": ["closed"]}'}),
    ("config_unknown_key", ["outage", "--config", CONFIG], {CONFIG: '{"snr": 10}'}),
    ("config_bad_value", ["outage", "--config", CONFIG], {CONFIG: '{"n": "abc"}'}),
    ("config_missing_file", ["outage", "--config", "missing.json"], {}),
    ("config_not_an_object", ["outage", "--config", CONFIG], {CONFIG: '[1, 2]'}),
    ("config_malformed_json", ["outage", "--config", CONFIG], {CONFIG: '{"eta": 0.7'}),
]


def run_case(
    argv: "list[str]", files: "dict[str, str] | None" = None
) -> "tuple[int, bytes, bytes, bytes | None]":
    """(exit code, stdout, stderr, --output file contents or None) of one
    invocation, after writing ``files`` (name to text) into its directory."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in (files or {}).items():
            Path(name).write_text(text, encoding="utf-8")
        result = runner.invoke(fbrelay, argv, prog_name="fbrelay")
        path = Path(OUTPUT)
        written = path.read_bytes() if path.exists() else None
    return result.exit_code, result.stdout_bytes, result.stderr_bytes, written


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "tests" / "data" / "cli_fixture.json"))
    args = ap.parse_args()
    cases = []
    for name, argv, *files in CASES:
        code, stdout, stderr, written = run_case(argv, *files)
        case = {
            "name": name,
            "argv": argv,
            "exit_code": code,
            "stdout": stdout.decode("utf-8"),
            "output_file": None if written is None else written.decode("utf-8"),
        }
        if files:
            case.update(files=files[0], stderr=stderr.decode("utf-8"))
        cases.append(case)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(cases)} invocations)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
