"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/seeds.py --workload quad_search --seeds 1-10 --seconds 30
    python3 bench/seeds.py --workload all --seeds 1-10 --seconds 30 --json out.json

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  The JSON summary
also keeps each run's reference-loop timings, to show how fast the host
was.  Compare two commits by running this on each with the same seeds and
settings.
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
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> "list[int]":
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    result["reference_loop_ms"] = json.loads(env_line)["environment"]["reference_loop_ms"]
    return result


def summarise(results: "list[dict]") -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    report = {}
    for workload in workloads:
        t0 = time.perf_counter()
        results = [run(workload, seed, args.seconds, args.trace) for seed in parse_seeds(args.seeds)]
        summary = summarise(results)
        report[workload] = {"correct": all(r["correct"] for r in results),
                            "failed": sum(r["failed"] for r in results), "metrics": summary,
                            "reference_loop_ms": [r["reference_loop_ms"] for r in results]}
        print(f"{workload}: {len(results)} runs in {time.perf_counter() - t0:.0f} s, "
              f"all correct: {report[workload]['correct']}")
        for name, m in summary.items():
            print(f"  {name:44s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
