"""fbrelay benchmark: one command, every workload's metrics, outputs checked.

    python3 bench/run.py --workload quad_search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing needs installing.  The load is a closed loop: one client
in one process issues the seeded operations back to back (cli_cold starts
one CLI process per operation).  Steps:

1. set-up: ``SETUP_SAMPLES`` fresh interpreters each import the package and
   run the workload's warm-up operation, some before the measurement and
   some after it; ``setup_s`` is their median;
2. one of them goes on to the output gate (gate.py), which checks a
   seeded sample of results against independent references;
3. ``--trace 0`` times the workload for ``--seconds`` and reports the
   end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
   over the whole operation pool and reports the per-layer metrics, with
   the tracing overhead.

Before the last line it prints a table of every metric with its unit and
sample count, and the run environment.  The last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  A run whose gate or
operations fail still prints it, with ``correct`` false; a run that cannot
start (no package sources) exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from ops import child_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
#: Hard cap on one worker process, inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170.0

END_TO_END = ("setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "cells_per_s",
              "search_p50_ms", "search_p90_ms", "peak_rss_mb")


def start_worker(args, setup_only: bool) -> "tuple[subprocess.Popen, float]":
    """Start a worker and wait for READY; returns it and the set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(os.path.join(ROOT, "src")), cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up (exit {proc.returncode})")
    return proc, elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fbrelay", "__init__.py")):
        print(f"bench: no package sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    def setup_probes(count: int) -> None:
        for _ in range(count):
            probe, elapsed = start_worker(args, setup_only=True)
            probe.communicate(timeout=60)
            if probe.returncode != 0:
                raise SystemExit(f"set-up worker exited {probe.returncode}")
            setup.append(elapsed)

    setup = []
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setup_probes(probes // 2)
    proc, elapsed = start_worker(args, setup_only=False)
    setup.append(elapsed)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out") from None
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited {proc.returncode} without a result")
    res = json.loads(lines[-1][len("RESULT "):])
    setup_probes(probes - probes // 2)

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
        missing = set(END_TO_END) - set(metrics)
        if missing:
            raise SystemExit(f"worker did not report {sorted(missing)}")
    attempted = res["attempted"] + res["gate_checks"]
    failed = res["failed"] + len(res["gate_misses"])

    tag = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"# {tag}: {res['pool_size']} ops in the pool, {res['gate_checks']} gate checks")
    for name, (value, unit, samples) in sorted(metrics.items()) + sorted(res["extra"].items()):
        print(f"{name:44s} {value:14.6g} {unit:6s} n={samples}")
    print(f"{'failed_frac':44s} {failed / attempted:14.6g} {'':6s} n={attempted}")
    for miss in (res["gate_misses"] + res["misses"])[:20]:
        print(f"MISS {miss}")
    print(json.dumps({"environment": res["environment"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
