"""Re-measure the rows of ROADMAP's "Measured baseline" table.

    python3 bench/roadmap_rows.py > rows.json

Each in-process row is the best of ``REPEATS`` warm timings of one call,
which is how the table was measured; CLI rows are the median wall time of
three fresh processes.  Inputs the table leaves open use the package's
defaults: 10 dB, eta 0.5, beta 0.5, alpha 0, n = 500, k = 250.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from ops import child_env  # noqa: E402

REPEATS = 20


def best(fn, repeats=REPEATS) -> float:
    fn()
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return min(runs)


def wall(argv, repeats=3) -> float:
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=child_env(SRC), capture_output=True, check=True, timeout=120)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def main() -> None:
    from fbrelay import (Backend, ExponentialDensity, HypoexpParams, SnrValue, TopologyConfig,
                         fading_outage_mc, fading_outage_quadrature, fading_outage_quadrature_fixed,
                         mrc_pair_outage, optimize_eta, protocol_outage, rayleigh_outage,
                         reliability_region)

    cfg = TopologyConfig(total_snr=SnrValue.from_db(10.0), eta=0.5)
    pair = HypoexpParams(10.0, 2.5)
    link = ExponentialDensity(10.0)
    closed, quad = Backend.closed_form(), Backend.quadrature()
    ns, ks = list(range(100, 700, 100)), list(range(10, 65, 5))
    cli = [sys.executable, "-m", "fbrelay.cli"]
    rows = {
        "rayleigh_outage(500, 0.5, 10) [us]": best(lambda: rayleigh_outage(500, 0.5, 10.0)) * 1e6,
        "mrc_pair_outage(500, 0.5, (10, 2.5)) [us]": best(lambda: mrc_pair_outage(500, 0.5, pair)) * 1e6,
        "protocol_outage(mrc), closed [us]": best(lambda: protocol_outage("mrc", cfg, closed)) * 1e6,
        "protocol_outage(mrc), quad [ms]": best(lambda: protocol_outage("mrc", cfg, quad)) * 1e3,
        "fading_outage_quadrature, single link [ms]": best(
            lambda: fading_outage_quadrature(500, 0.5, link)) * 1e3,
        "fading_outage_quadrature_fixed [ms]": best(
            lambda: fading_outage_quadrature_fixed(500, 0.5, link), 5) * 1e3,
        "fading_outage_mc, 1e6 trials, one link [ms]": best(
            lambda: fading_outage_mc(500, 0.5, link, 1_000_000, 7), 5) * 1e3,
        "protocol_outage(mrc), MC 1e6 [ms]": best(
            lambda: protocol_outage("mrc", cfg, Backend.monte_carlo(1_000_000, 7)), 5) * 1e3,
        "optimize_eta(mrc), closed [ms]": best(lambda: optimize_eta("mrc", cfg, closed)) * 1e3,
        "optimize_eta(mrc), quad [ms]": best(lambda: optimize_eta("mrc", cfg, quad), 5) * 1e3,
        "region 6x11, closed [ms]": best(
            lambda: reliability_region("mrc", cfg.total_snr, ns, ks, closed)) * 1e3,
        "region 6x11, per-cell eta optimization [ms]": best(
            lambda: reliability_region("mrc", cfg.total_snr, ns, ks, closed,
                                       optimize_power_split=True), 5) * 1e3,
        "CLI fbrelay outage (closed) [s]": wall(cli + ["outage"]),
        "CLI import fbrelay.cli [s]": wall([sys.executable, "-c", "import fbrelay.cli"]),
        "bare interpreter [s]": wall([sys.executable, "-c", "pass"]),
        "CLI fbrelay region, 35,581 cells, to file [s]": wall(
            cli + ["region", "--n-min", "100", "--n-max", "3080", "--n-step", "10",
                   "--k-min", "10", "--k-max", "600", "--k-step", "5",
                   "--output", os.devnull]),
    }
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
