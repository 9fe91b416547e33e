"""Command-line surface: schemas, config plumbing, exit codes, validation."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import fbrelay.closed_form
from fbrelay.cli import CSV_FIELDS, main

HEADER = "schema_version,protocol,backend,convention,snr_db,eta,beta,alpha,n_s,n_r,k,rate,outage,std_error,error"


@pytest.fixture()
def runner():
    return CliRunner()


def parse_csv(output: str):
    """(comment_lines, rows-as-dicts) from a commented-CSV payload."""
    comments = [l for l in output.splitlines() if l.startswith("#")]
    body = "\n".join(l for l in output.splitlines() if not l.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    return comments, rows


def echo_tags(comments):
    """{option: source tag} from the echo block's ``# name = value (tag)`` lines."""
    tags = {}
    for line in comments:
        if " = " in line and "(" in line:
            name = line[2:].split(" = ")[0]
            tags[name] = line.rsplit("(", 1)[1].rstrip(")")
    return tags


class TestOutage:
    def test_happy_path_schema(self, runner):
        result = runner.invoke(main, ["outage", "--protocol", "dt"])
        assert result.exit_code == 0
        comments, rows = parse_csv(result.output)
        header_line = next(l for l in result.output.splitlines() if not l.startswith("#"))
        assert header_line == HEADER
        assert len(rows) == 1
        row = rows[0]
        assert row["protocol"] == "dt" and row["backend"] == "closed"
        assert float(row["outage"]) == pytest.approx(0.0405665829756156, rel=1e-13)
        assert row["std_error"] == "" and row["error"] == ""

    def test_echo_block_tags_sources(self, runner, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"eta": 0.7, "k": 100}))
        result = runner.invoke(
            main, ["outage", "--protocol", "dt", "--snr-db", "12", "--config", str(conf)]
        )
        assert result.exit_code == 0
        comments, rows = parse_csv(result.output)
        tags = echo_tags(comments)
        assert tags["snr_db"] == "flag"
        assert tags["eta"] == "config"
        assert tags["k"] == "config"
        assert tags["beta"] == "default"
        assert rows[0]["eta"] == "0.7" and rows[0]["k"] == "100"

    def test_flag_beats_config(self, runner, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"eta": 0.7}))
        result = runner.invoke(
            main, ["outage", "--protocol", "dt", "--eta", "0.3", "--config", str(conf)]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows[0]["eta"] == "0.3"

    def test_unknown_config_key(self, runner, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"snr": 10}))
        result = runner.invoke(main, ["outage", "--config", str(conf)])
        assert result.exit_code == 2
        assert "unknown key" in result.output

    def test_json_document_mirrors_config(self, runner):
        result = runner.invoke(
            main, ["outage", "--protocol", "mrc", "--alpha", "3", "--json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema_version"] == 1
        assert doc["config"]["protocol"] == "mrc"
        assert doc["config"]["alpha"] == 3.0
        assert set(doc["rows"][0]) == set(CSV_FIELDS)
        assert doc["rows"][0]["std_error"] is None

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "row.csv"
        result = runner.invoke(main, ["outage", "--protocol", "dt", "--output", str(target)])
        assert result.exit_code == 0
        assert result.output.strip() == f"wrote {target} (1 rows)"
        assert HEADER in target.read_text()

    def test_domain_problem_exits_2(self, runner):
        result = runner.invoke(main, ["outage", "--protocol", "dt", "--eta", "1.5"])
        assert result.exit_code == 2
        assert "eta" in result.output

    def test_numeric_breakdown_exits_3(self, runner):
        result = runner.invoke(
            main,
            ["outage", "--protocol", "dt", "--snr-db", "-200", "--k", "1", "--n", "10000"],
        )
        assert result.exit_code == 3
        assert "NumericError" in result.output

    def test_exp_overflow_exits_3(self, runner):
        with pytest.warns(UserWarning, match="n=20"):
            result = runner.invoke(main, ["outage", "--protocol", "mrc", "--snr-db", "10",
                                          "--eta", "0.99999", "--alpha", "0", "--n", "20",
                                          "--k", "80", "--allow-short"])
        assert result.exit_code == 3
        assert "NumericError: mrc_pair_outage: exp overflowed" in result.output

    def test_quadrature_overflow_exits_3(self, runner):
        with pytest.warns(UserWarning, match="n=1"):
            result = runner.invoke(main, ["outage", "--backend", "quad", "--protocol", "dt",
                                          "--n", "1", "--k", "600", "--allow-short"])
        assert result.exit_code == 3
        assert "NumericError: true-tail quadrature: transition window overflowed" in result.output

    def test_mc_backend_round_trips_exactly(self, runner):
        args = ["outage", "--protocol", "df", "--backend", "mc",
                "--trials", "1e5", "--seed", "42"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
        _, rows = parse_csv(first.output)
        assert float(rows[0]["outage"]) == 0.15362646991270612
        assert float(rows[0]["std_error"]) == 0.0010799786337094685

    def test_counts_read_exactly_past_2_to_the_53(self, runner):
        result = runner.invoke(main, ["outage", "--protocol", "dt", "--n", "9007199254740993"])
        assert result.exit_code == 0
        comments, rows = parse_csv(result.output)
        assert "# n = 9007199254740993 (flag)" in comments
        assert rows[0]["n_s"] == rows[0]["n_r"] == "9007199254740993"

    @pytest.mark.parametrize("trials, seed, message", [
        ("20000", "-1", "seed must be a nonnegative integer, got -1"),
        ("20000", "1.5", "Invalid value for '--seed': '1.5' is not an integer"),
        ("20000.5", "1", "Invalid value for '--trials': '20000.5' is not an integer"),
        ("1e400", "1", "Invalid value for '--trials': '1e400' exceeds the largest double"),
        ("1e999999999", "1", "Invalid value for '--trials': '1e999999999'"),
        ("1e20", "1", "Error: trials must be <= 100000000, got 100000000000000000000\n"),
        ("100000001", "1", "Error: trials must be <= 100000000, got 100000001\n"),
    ])
    def test_bad_monte_carlo_counts_exit_2(self, runner, trials, seed, message):
        result = runner.invoke(main, ["outage", "--backend", "mc", "--trials", trials,
                                      "--seed", seed])
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_trials_without_mc_backend(self, runner):
        result = runner.invoke(main, ["outage", "--protocol", "dt", "--trials", "1000"])
        assert result.exit_code == 2
        assert "--trials" in result.output


class TestCountCaps:
    """A sweep's points, a region map's cells and validate's SNR points past
    their caps are refused with exit 2 before any grid is built (the trials'
    cap is tested with the other Monte Carlo counts)."""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--start", "0", "--stop", "10", "--points", "1e12"],
         "--points must be <= 100000, got 1000000000000"),
        (["sweep", "--start", "0", "--stop", "10", "--points", "100001"],
         "--points must be <= 100000, got 100001"),
        (["region", "--n-min", "100", "--n-max", "2099", "--k-min", "1", "--k-max", "1001"],
         "a region map holds at most 2000000 (n, k) cells, got 2002000"),
        (["region", "--n-min", "1", "--n-max", "1e300", "--n-step", "1e280",
          "--k-min", "1", "--k-max", "1e20"],
         f"a region map holds at most 2000000 (n, k) cells, got {10 ** 40}"),
        (["validate", "--full", "--snr-points", "10001"],
         "--snr-points must be <= 10000, got 10001"),
    ], ids=["points-1e12", "points", "region", "region-1e300", "snr-points"])
    def test_past_the_cap_exits_2(self, runner, argv, message):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert f"Error: {message}\n" in result.output


class TestSweep:
    def test_axis_walk_row_count(self, runner):
        result = runner.invoke(
            main, ["sweep", "--axis", "snr_db", "--start", "0", "--stop", "10",
                   "--points", "3"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 12  # 3 points x 4 default protocols
        assert [r["snr_db"] for r in rows[:4]] == ["0.0"] * 4

    def test_descending_range_rejected(self, runner):
        result = runner.invoke(
            main, ["sweep", "--axis", "eta", "--start", "0.9", "--stop", "0.1",
                   "--points", "3"]
        )
        assert result.exit_code == 2
        assert "ascend" in result.output

    def test_multi_backend_rows(self, runner):
        result = runner.invoke(
            main, ["sweep", "--protocol", "dt", "--backend", "closed", "--backend", "quad",
                   "--axis", "snr_db", "--start", "10", "--stop", "10", "--points", "1"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert [r["backend"] for r in rows] == ["closed", "quad"]
        closed, quad = (float(r["outage"]) for r in rows)
        assert closed == pytest.approx(quad, rel=0.01)

    def test_blocklength_axis(self, runner):
        result = runner.invoke(
            main, ["sweep", "--protocol", "mrc", "--axis", "blocklength",
                   "--start", "200", "--stop", "600", "--points", "3", "--alpha", "3"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert [r["n_s"] for r in rows] == ["200", "400", "600"]

    def test_too_few_trials_refused_before_any_row(self, runner):
        result = runner.invoke(
            main, ["sweep", "--backend", "mc", "--trials", "5000", "--seed", "1",
                   "--start", "0", "--stop", "10", "--points", "3"]
        )
        assert result.exit_code == 2
        assert "trials must be >= 10000, got 5000" in result.output

    def test_blocklength_axis_refuses_n_relay(self, runner):
        result = runner.invoke(
            main, ["sweep", "--axis", "blocklength", "--n-relay", "300",
                   "--start", "200", "--stop", "600", "--points", "3"]
        )
        assert result.exit_code == 2
        assert "--n-relay does not apply to a blocklength sweep" in result.output


class TestSnrDbPastTheLargestDouble:
    """A dB value whose linear SNR overflows is a bad input: exit 2, not a
    traceback."""

    MESSAGE = "the linear SNR of 4000.0 dB exceeds the largest double"

    @pytest.mark.parametrize("argv", [
        ["outage", "--snr-db", "4000"],
        ["region", "--snr-db", "4000", "--k-min", "10", "--k-max", "10",
         "--n-min", "500", "--n-max", "500"],
        ["sweep", "--axis", "snr_db", "--start", "0", "--stop", "4000", "--points", "3"],
    ], ids=["outage", "region", "sweep"])
    def test_exits_2(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert self.MESSAGE in result.output


class TestOptimizeEta:
    def test_summary_lines_and_rows(self, runner):
        result = runner.invoke(
            main, ["optimize-eta", "--protocol", "df", "--protocol", "mrc",
                   "--alpha", "3"]
        )
        assert result.exit_code == 0
        comments, rows = parse_csv(result.output)
        assert any(c.startswith("# df_optimum = eta_star=") for c in comments)
        assert any(c.startswith("# mrc_optimum = eta_star=") for c in comments)
        # per protocol: 20 coarse points + 1 refined optimum
        assert len(rows) == 42
        df_rows = [r for r in rows if r["protocol"] == "df"]
        assert float(df_rows[-1]["outage"]) == min(float(r["outage"]) for r in df_rows)

    def test_json_summaries(self, runner):
        result = runner.invoke(
            main, ["optimize-eta", "--protocol", "mrc", "--alpha", "3", "--json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        (summary,) = doc["summaries"]
        assert summary["protocol"] == "mrc"
        assert summary["eta_star"] == pytest.approx(0.7165631459994952, abs=2e-3)
        assert summary["multimodal"] is False


    def test_refine_tol_below_the_floor_exits_2(self, runner):
        result = runner.invoke(main, ["optimize-eta", "--protocol", "mrc",
                                      "--refine-tol", "1e-17"])
        assert result.exit_code == 2
        assert "refine_tol must lie in [1e-15, 1e-3], got 1e-17" in result.output

    def test_trials_and_seed_refused_as_elsewhere(self, runner):
        result = runner.invoke(main, ["optimize-eta", "--trials", "1e5", "--seed", "3"])
        assert result.exit_code == 2
        assert "--trials/--seed only apply when an mc backend is selected" in result.output


class TestRegion:
    def test_grid_rows(self, runner):
        result = runner.invoke(
            main, ["region", "--protocol", "mrc", "--alpha", "3",
                   "--k-min", "20", "--k-max", "40", "--k-step", "10",
                   "--n-min", "200", "--n-max", "200"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert [(r["n_s"], r["k"]) for r in rows] == [("200", "20"), ("200", "30"), ("200", "40")]
        outages = [float(r["outage"]) for r in rows]
        assert all(b > a for a, b in zip(outages, outages[1:]))

    @pytest.mark.parametrize("db, want", [
        ("90", "1.3959479789931662e-11"),
        ("150", "1.3959479790029094e-17"),  # 1 - outage rounds to 1 here
    ])
    def test_ultra_reliable_cell_prints_the_outage(self, runner, db, want):
        """A map cell prints the outage ``outage`` prints, not 1 - (1 - outage)."""
        grid = ["--n-min", "500", "--n-max", "500", "--k-min", "10", "--k-max", "10"]
        printed = []
        for argv in (["region", *grid], ["outage", "--n", "500", "--k", "10"]):
            result = runner.invoke(main, [*argv, "--protocol", "dt", "--snr-db", db])
            assert result.exit_code == 0, result.output
            (row,) = parse_csv(result.output)[1]
            printed.append(row["outage"])
        assert printed == [want, want]

    def test_empty_grid_rejected(self, runner):
        result = runner.invoke(
            main, ["region", "--k-min", "50", "--k-max", "40",
                   "--n-min", "200", "--n-max", "200"]
        )
        assert result.exit_code == 2
        assert "empty" in result.output

    def test_rate_ceiling_rejected(self, runner):
        result = runner.invoke(
            main, ["region", "--k-min", "900", "--k-max", "900",
                   "--n-min", "100", "--n-max", "100"]
        )
        assert result.exit_code == 2

    def test_n_relay_refused(self, runner):
        result = runner.invoke(
            main, ["region", "--protocol", "df", "--n-relay", "300", "--k-min", "10",
                   "--k-max", "10", "--n-min", "500", "--n-max", "500"]
        )
        assert result.exit_code == 2
        assert "--n-relay does not apply to region" in result.output

    def test_n_and_k_still_accepted(self, runner):
        # a map takes n and k from its grid; --n and --k are echoed and kept
        # for scripts that pass one topology to every command
        result = runner.invoke(
            main, ["region", "--n", "300", "--k", "20", "--k-min", "10", "--k-max", "10",
                   "--n-min", "500", "--n-max", "500"]
        )
        assert result.exit_code == 0, result.output
        (row,) = parse_csv(result.output)[1]
        assert (row["n_s"], row["n_r"], row["k"]) == ("500", "500", "10")


class TestValidate:
    def test_quick_run_passes(self, runner):
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 0, result.output
        assert "deterministic: PASS" in result.output
        assert "stochastic: PASS" in result.output
        assert "all validation suites passed" in result.output

    def test_full_run_passes(self, runner):
        # Monte Carlo is compared with quadrature of the same true tail, so
        # the allowed 4 sigma covers the whole gap; the surrogate's bias
        # (3.22e-3 at n=200, 0 dB) is the deterministic suite's business
        result = runner.invoke(main, ["validate", "--full"])
        assert result.exit_code == 0, result.output
        assert "stochastic: PASS (7 cases" in result.output
        assert "at fading_outage_quadrature n=200 k=100" in result.output

    def test_snr_points_floor(self, runner):
        result = runner.invoke(main, ["validate", "--snr-points", "0"])
        assert result.exit_code == 2

    def test_fault_injection_is_caught(self, runner, monkeypatch):
        # flip one corner coefficient's sign: validation must fail loudly,
        # name the broken function, and exit 1 (not crash with exit 3)
        real = fbrelay.closed_form._unequal_lambdas

        def sabotaged(m, lo, hi, theta, omega_z, omega_y):
            lam1, lam2, lam3, lam4 = real(m, lo, hi, theta, omega_z, omega_y)
            return lam1, -lam2, lam3, lam4

        monkeypatch.setattr(fbrelay.closed_form, "_unequal_lambdas", sabotaged)
        result = runner.invoke(main, ["validate"])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "worst offender: mrc_pair_outage" in result.output

    def test_bits_convention_also_validates(self, runner):
        result = runner.invoke(main, ["validate", "--convention", "bits", "--snr-points", "3"])
        assert result.exit_code == 0, result.output


class TestGroupPlumbing:
    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "fbrelay" in result.output
        assert fbrelay.__version__ in result.output

    def test_int_count_accepts_scientific_notation(self, runner):
        result = runner.invoke(
            main, ["sweep", "--protocol", "dt", "--axis", "snr_db",
                   "--start", "0", "--stop", "10", "--points", "2e0"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 2

    def test_fractional_count_rejected(self, runner):
        result = runner.invoke(
            main, ["sweep", "--protocol", "dt", "--axis", "snr_db",
                   "--start", "0", "--stop", "10", "--points", "2.5"]
        )
        assert result.exit_code == 2

    def test_required_options_from_config_alone(self, runner, tmp_path):
        required = {
            "sweep": {"start": 0, "stop": 10, "points": 3, "protocol": "dt"},
            "region": {"k_min": 20, "k_max": 40, "k_step": 10, "n-min": 200, "n-max": 300,
                       "n-step": 100},
        }
        for command, values in required.items():
            conf = tmp_path / f"{command}.json"
            conf.write_text(json.dumps(values))
            result = runner.invoke(main, [command, "--config", str(conf)])
            assert result.exit_code == 0, result.output
            comments, rows = parse_csv(result.output)
            tags = echo_tags(comments)
            assert all(tags[key.replace("-", "_")] == "config" for key in values)
            assert tags["snr_db"] == "default"
            assert len(rows) == (3 if command == "sweep" else 6)

    def test_null_config_value_rejected(self, runner, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"eta": None}))
        result = runner.invoke(main, ["outage", "--config", str(conf)])
        assert result.exit_code == 2
        assert "--config: 'eta' must not be null" in result.output

    def test_nan_outage_becomes_null_in_json(self, runner):
        result = runner.invoke(
            main, ["sweep", "--protocol", "dt", "--axis", "blocklength",
                   "--start", "50", "--stop", "500", "--points", "2", "--json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        bad, good = doc["rows"]
        assert bad["outage"] is None and bad["error"]
        assert isinstance(good["outage"], float) and not math.isnan(good["outage"])

    def test_import_leaves_scipy_integrate_unloaded(self):
        # Every CLI process pays its imports; quadrature needs no scipy.integrate.
        src = os.path.dirname(os.path.dirname(os.path.abspath(fbrelay.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        probe = (
            "import sys, fbrelay.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_decimal_loads_only_for_scientific_notation(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(fbrelay.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        probe = (
            "import sys, fbrelay.cli\n"
            "from click.testing import CliRunner\n"
            "for n in sys.argv[1:]:\n"
            "    code = CliRunner().invoke(fbrelay.cli.main, ['outage', '--n', n]).exit_code\n"
            "    print(n, code, 'decimal' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, "500", "5e2"], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert done.stdout.splitlines() == ["500 0 False", "5e2 0 True"]

    def test_closed_form_work_leaves_scipy_unloaded(self):
        # The oracles and scipy load on the first quadrature or Monte Carlo
        # call; importing the package and the closed-form commands need neither.
        src = os.path.dirname(os.path.dirname(os.path.abspath(fbrelay.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        probe = (
            "import json, sys\n"
            "def heavy():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('scipy') or m == 'fbrelay.oracles')\n"
            "seen = {}\n"
            "import fbrelay\n"
            "seen['import fbrelay'] = heavy()\n"
            "import fbrelay.cli\n"
            "from click.testing import CliRunner\n"
            "seen['import fbrelay.cli'] = heavy()\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    result = CliRunner().invoke(fbrelay.cli.main, argv)\n"
            "    seen[' '.join(argv)] = [result.exit_code, heavy()]\n"
            "print(json.dumps(seen))\n"
        )
        closed = [
            ["outage"],
            ["sweep", "--start", "0", "--stop", "10", "--points", "3"],
            ["optimize-eta", "--json"],
            ["region", "--k-min", "10", "--k-max", "50", "--k-step", "10",
             "--n-min", "100", "--n-max", "200", "--n-step", "50"],
        ]
        oracle = [["outage", "--backend", "quad"], ["validate"]]
        done = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(closed + oracle)], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seen = json.loads(done.stdout)
        assert seen.pop("import fbrelay") == []
        assert seen.pop("import fbrelay.cli") == []
        for argv in closed:
            assert seen.pop(" ".join(argv)) == [0, []], argv
        for argv in oracle:
            code, heavy = seen.pop(" ".join(argv))
            assert code == 0 and "scipy.special" in heavy and "fbrelay.oracles" in heavy

    @pytest.mark.parametrize("argv", [
        ["outage", "--backend", "mc", "--trials", "2e5", "--seed", "1"],
        ["validate"],
    ], ids=["outage-mc", "validate"])
    def test_monte_carlo_commands_exit_cleanly(self, argv):
        # The Monte Carlo pool outlives each call; its idle workers must be
        # joined at interpreter exit, not hold the process up.  atexit hooks
        # run after that join, so this one lists the threads still alive.
        src = os.path.dirname(os.path.dirname(os.path.abspath(fbrelay.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        env.pop("FBRELAY_MAX_WORKERS", None)
        probe = (
            "import atexit, sys, threading\n"
            "atexit.register(lambda: print('alive at exit:', sorted(\n"
            "    t.name for t in threading.enumerate() if t is not threading.main_thread()),\n"
            "    file=sys.stderr))\n"
            "from fbrelay.cli import main\n"
            "main(sys.argv[1:], prog_name='fbrelay')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1] == "alive at exit: []"

    def test_oracle_names_resolve_on_access(self):
        import fbrelay.oracles

        names = ("fading_outage_mc", "fading_outage_quadrature",
                 "fading_outage_quadrature_fixed", "linearized_outage_quadrature")
        for name in names:
            assert name in fbrelay.__all__ and name in dir(fbrelay)
            assert getattr(fbrelay, name) is getattr(fbrelay.oracles, name)
        namespace = {}
        exec("from fbrelay import *", namespace)
        assert set(fbrelay.__all__) <= namespace.keys() and len(fbrelay.__all__) == 47
        with pytest.raises(AttributeError):
            fbrelay.no_such_name  # noqa: B018
