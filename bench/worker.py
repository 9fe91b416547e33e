"""One benchmark process: import the package, warm up, gate, then measure.

Started by run.py in a fresh interpreter.  It prints ``READY`` once the
import and the workload's warm-up operation have returned (run.py times the
interval from process start to that line as set-up), then, unless started
with ``--setup-only``, runs the output gate and either the timed closed loop
(``--trace 0``) or the traced passes (``--trace 1``), and prints one line
``RESULT {json}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate as gate_mod  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_pool  # noqa: E402

def load_package(src: str, with_cli: bool):
    """Import fbrelay from the checkout's sources, never from elsewhere."""
    sys.path.insert(0, src)
    import fbrelay
    if not os.path.abspath(fbrelay.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"fbrelay imported from {fbrelay.__file__}, not from {src}")
    from fbrelay import analysis, closed_form, errors, finite_blocklength, linearization, oracles, protocols
    fb = types.SimpleNamespace(
        analysis=analysis, closed_form=closed_form, errors=errors,
        finite_blocklength=finite_blocklength, linearization=linearization,
        oracles=oracles, protocols=protocols, cli=None,
    )
    if with_cli:
        import fbrelay.cli
        fb.cli = fbrelay.cli
    return fb


def warm_up(fb, workload: str, ctx: dict) -> None:
    """One fixed small operation of the workload's kind."""
    cfg = {"snr_db": 10.0, "eta": 0.6, "beta": 0.5, "alpha": 2.0, "n_s": 500, "n_r": 500, "k": 250}
    if workload == "closed_grid":
        ops.run_op(fb, {"kind": "search", "protocol": "mrc", "backend": "closed", "cfg": cfg}, ctx)
    elif workload == "quad_search":
        ops.run_op(fb, {"kind": "search", "protocol": "mrc", "backend": "quad", "cfg": cfg}, ctx)
    elif workload == "mc_protocol":
        ops.run_op(fb, {"kind": "mc", "protocol": "mrc", "cfg": cfg, "trials": 200_000, "seed": 1}, ctx)
    else:
        run_cli_inprocess(fb, {"argv": ["outage"], "out": "stdout"}, ctx)


def run_cli_inprocess(fb, op: dict, ctx: dict) -> str:
    """The CLI's own entry point in this process; returns the table it wrote
    (the same text a CLI process gives for this op)."""
    path = os.path.join(ctx["tmp"], "cli_inproc.csv")
    argv = op["argv"] + (["--output", path] if op["out"] == "file" else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fb.cli.main.main(args=argv, prog_name="fbrelay", standalone_mode=False)
    if code:
        raise RuntimeError(f"fbrelay {argv[0]} returned {code}")
    if op["out"] != "file":
        return buf.getvalue()
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return text


def fingerprint(value) -> bytes:
    text = value if isinstance(value, str) else repr(value)
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def quantile(values, q: float) -> float:
    """Inclusive-method quantile; the median for q = 0.5."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# --- timed closed loop --------------------------------------------------------

def _block_rates(recs) -> dict:
    """Rates of one block of (latency, search, cells, link-trials) records."""
    cell_time = sum(r[0] for r in recs if r[2])
    return {
        "ops_per_s": len(recs) / sum(r[0] for r in recs),
        "cells_per_s": sum(r[2] for r in recs) / cell_time if cell_time else 0.0,
    }


def timed_loop(fb, pool, seconds, ctx, known, block):
    """Issue the pool's ops back to back, in order, for ``seconds``.

    Latency percentiles are taken over every op of the run.  Rates are
    computed per block of ``block`` consecutive ops (whole rounds, so each
    block has the same mix; ``None``: the whole run is one block) and
    reported as the median over the blocks, which a stall of a few seconds
    does not move.
    """
    recs = []  # (latency s, is search, cells, link trials)
    failed, misses = 0, []
    clock = time.perf_counter
    t_start = clock()
    i = 0
    while clock() - t_start < seconds:
        idx = i % len(pool)
        op = pool[idx]
        i += 1
        t0 = clock()
        try:
            out = ops.run_op(fb, op, ctx)
        except Exception as exc:  # counted as a failed op; the loop goes on
            recs.append((clock() - t0, ops.is_search(op), 0, 0))
            failed += 1
            misses.append(f"op {idx} raised {type(exc).__name__}: {exc}")
            continue
        dt = clock() - t0 if out.elapsed is None else out.elapsed
        recs.append((dt, ops.is_search(op), out.cells, out.link_trials))
        fp = fingerprint(out.value)
        reason = ops.check_outcome(op, out)
        if reason is None and known.setdefault(idx, fp) != fp:
            reason = "result differs from the first execution of the same op"
        if reason is not None:
            failed += 1
            misses.append(f"op {idx}: {reason}")
    wall = clock() - t_start

    ms = [r[0] * 1e3 for r in recs]
    sms = [r[0] * 1e3 for r in recs if r[1]] or [0.0]
    size = min(block or len(recs), len(recs))
    blocks = [_block_rates(recs[j:j + size]) for j in range(0, len(recs) - size + 1, size)]
    metrics = {
        "op_p50_ms": (quantile(ms, 0.5), "ms", len(ms)),
        "op_p90_ms": (quantile(ms, 0.9), "ms", len(ms)),
        "search_p50_ms": (quantile(sms, 0.5), "ms", sum(r[1] for r in recs)),
        "search_p90_ms": (quantile(sms, 0.9), "ms", sum(r[1] for r in recs)),
        "ops_per_s": (statistics.median(b["ops_per_s"] for b in blocks), "1/s", len(recs)),
        "cells_per_s": (statistics.median(b["cells_per_s"] for b in blocks), "1/s",
                        sum(r[2] for r in recs)),
    }
    mc_time = sum(r[0] for r in recs if r[3])
    extra = {
        "mc_link_trials_per_s": (sum(r[3] for r in recs) / mc_time if mc_time else 0.0, "1/s",
                                 sum(r[3] for r in recs)),
        "blocks": (len(blocks), "count", size),
        "loop_wall_s": (wall, "s", 1),
    }
    return metrics, extra, len(recs), failed, misses


# --- traced passes ----------------------------------------------------------

def install_tracing(fb, tr: Tracer) -> None:
    """Wrap each public name as bound in the module that calls it."""
    a, p, cf, o = fb.analysis, fb.protocols, fb.closed_form, fb.oracles
    for owner, attr, name in (
        (a, "reliability_region", "analysis.reliability_region"),
        (a, "sweep", "analysis.sweep"),
        (a, "optimize_eta", "analysis.optimize_eta"),
        (a, "protocol_outage", "protocols.protocol_outage"),
        (p, "protocol_outage", "protocols.protocol_outage"),
        (p.TopologyConfig, "__init__", "protocols.TopologyConfig"),
        (p, "rayleigh_outage", "closed_form.rayleigh_outage"),
        (p, "mrc_pair_outage", "closed_form.mrc_pair_outage"),
        (p, "fading_outage_quadrature", "oracles.fading_outage_quadrature"),
        (cf, "linearize", "linearization.linearize"),
    ):
        tr.patch(owner, attr, name)
    trials = lambda args: args[3]  # noqa: E731  fading_outage_mc(n, rate, channel, trials, ...)
    tr.patch(p, "fading_outage_mc", "oracles.fading_outage_mc.trials", count_only=True, weight=trials)
    tr.patch(p, "fading_outage_mc", "oracles.fading_outage_mc")
    tr.patch(o, "outage_given_snr", "finite_blocklength.outage_given_snr", count_only=True, keep=20_000)
    tr.patch(o, "hypoexp_pdf", "closed_form.hypoexp_pdf", count_only=True)
    if fb.cli is not None:
        c = fb.cli
        for attr, name in (
            ("reliability_region", "analysis.reliability_region"),
            ("sweep", "analysis.sweep"),
            ("optimize_eta", "analysis.optimize_eta"),
            ("protocol_outage", "protocols.protocol_outage"),
            ("rayleigh_outage", "closed_form.rayleigh_outage"),
            ("mrc_pair_outage", "closed_form.mrc_pair_outage"),
            ("linearize", "linearization.linearize"),
            ("linearized_outage_quadrature", "oracles.linearized_outage_quadrature"),
        ):
            tr.patch(c, attr, name)
        tr.patch(c, "fading_outage_mc", "oracles.fading_outage_mc.trials", count_only=True, weight=trials)
        tr.patch(c, "fading_outage_mc", "oracles.fading_outage_mc")


def cli_import_s(ctx: dict, repeats: int = 3) -> float:
    """Median time to import fbrelay.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import fbrelay.cli; "
            "print(time.perf_counter() - t)")
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=ctx["env"], capture_output=True,
                              text=True, timeout=60, check=True)
        runs.append(float(proc.stdout.strip()))
    return statistics.median(runs)


def traced_run(fb, workload, pool, seconds, ctx, known):
    """Alternate untraced and traced passes over the whole pool."""
    tr = Tracer()
    cli = workload == "cli_cold"
    clock = time.perf_counter
    failed, misses = 0, []

    def one_pass(traced: bool) -> float:
        nonlocal failed
        if traced:
            install_tracing(fb, tr)
        t0 = clock()
        try:
            for idx, op in enumerate(pool):
                try:
                    if cli:
                        run = tr.span("cli." + op["argv"][0], run_cli_inprocess) if traced else run_cli_inprocess
                        fp = fingerprint(run(fb, op, ctx))
                    else:
                        fp = fingerprint(ops.run_op(fb, op, ctx).value)
                    if known.setdefault(idx, fp) != fp:
                        raise RuntimeError("result differs from the first execution of the same op")
                except Exception as exc:  # counted as a failed op; the pass goes on
                    failed += 1
                    misses.append(f"op {idx} ({'traced' if traced else 'untraced'}) {type(exc).__name__}: {exc}")
        finally:
            if traced:
                tr.restore()
        return clock() - t0

    plain, traced = [], []
    t_start = clock()
    while not plain or clock() - t_start + plain[-1] + traced[-1] <= seconds:
        plain.append(one_pass(False))
        traced.append(one_pass(True))
    passes = len(traced)

    s = tr.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}}
    g = lambda name: s.get(name, zero)  # noqa: E731

    def per_call(name, field, scale):
        rec = g(name)
        return rec[field] / rec["calls"] * scale if rec["calls"] else 0.0

    def calls(name):
        return g(name)["calls"] / passes

    def count(name):
        return tr.counts.get(name, [0])[0] / passes

    opt = g("analysis.optimize_eta")
    mc_trials = tr.counts.get("oracles.fading_outage_mc.trials", [0])[0]
    region_dur, region_self = tr.spans_of("cli.region")
    up = statistics.median(plain)
    metrics = {
        "linearization.linearize.calls": (calls("linearization.linearize"), "count"),
        "linearization.linearize.us": (per_call("linearization.linearize", "total_s", 1e6), "us"),
        "closed_form.rayleigh_outage.calls": (calls("closed_form.rayleigh_outage"), "count"),
        "closed_form.rayleigh_outage.self_us": (per_call("closed_form.rayleigh_outage", "self_s", 1e6), "us"),
        "closed_form.mrc_pair_outage.calls": (calls("closed_form.mrc_pair_outage"), "count"),
        "closed_form.mrc_pair_outage.self_us": (per_call("closed_form.mrc_pair_outage", "self_s", 1e6), "us"),
        "protocols.protocol_outage.calls": (calls("protocols.protocol_outage"), "count"),
        "protocols.protocol_outage.self_us": (per_call("protocols.protocol_outage", "self_s", 1e6), "us"),
        "protocols.TopologyConfig.us": (per_call("protocols.TopologyConfig", "total_s", 1e6), "us"),
        "analysis.optimize_eta.evals": (
            opt["children"].get("protocols.protocol_outage", 0) / opt["calls"] if opt["calls"] else 0.0,
            "count"),
        "analysis.reliability_region.self_ms": (per_call("analysis.reliability_region", "self_s", 1e3), "ms"),
        "analysis.sweep.self_ms": (per_call("analysis.sweep", "self_s", 1e3), "ms"),
        "oracles.fading_outage_quadrature.calls": (calls("oracles.fading_outage_quadrature"), "count"),
        "oracles.fading_outage_quadrature.ms": (per_call("oracles.fading_outage_quadrature", "total_s", 1e3), "ms"),
        "oracles.quad.integrand_evals": (count("finite_blocklength.outage_given_snr"), "count"),
        "finite_blocklength.outage_given_snr.us": (tr.replay_us("finite_blocklength.outage_given_snr"), "us"),
        "closed_form.hypoexp_pdf.calls": (count("closed_form.hypoexp_pdf"), "count"),
        "oracles.fading_outage_mc.calls": (calls("oracles.fading_outage_mc"), "count"),
        "oracles.fading_outage_mc.ms_per_1e6_trials": (
            g("oracles.fading_outage_mc")["total_s"] * 1e3 / (mc_trials / 1e6) if mc_trials else 0.0, "ms"),
        "cli.import_s": (cli_import_s(ctx) if cli else 0.0, "s"),
        "cli.compute_s": (float((region_dur - region_self).mean()) if len(region_dur) else 0.0, "s"),
        "cli.self_s": (float(region_self.mean()) if len(region_dur) else 0.0, "s"),
        "trace.overhead_pct": ((statistics.median(traced) - up) / up * 100.0, "%"),
    }
    os.makedirs(ctx["out"], exist_ok=True)
    tr.save(os.path.join(ctx["out"], f"spans-{workload}-seed{ctx['seed']}.npz"))
    extra = {
        "passes": (passes, "count", passes),
        "untraced_pass_s": (up, "s", len(plain)),
        "traced_pass_s": (statistics.median(traced), "s", len(traced)),
    }
    attempted = 2 * passes * len(pool)
    return {k: (v, u, passes) for k, (v, u) in metrics.items()}, extra, attempted, failed, misses


# --- environment ------------------------------------------------------------

def reference_loop_ms(repeats: int = 20) -> float:
    """Median time of a fixed pure-Python loop that does not touch the
    package: recorded at the start and end of a run, it shows how fast the
    host was while the run measured."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        runs.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(runs)


def environment(fb, root: str, src: str, reference_ms: "list[float]") -> dict:
    import inspect

    import numpy
    import scipy
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    threads = None
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="utf-8") as fh:
            threads = next((int(ln.split()[1]) for ln in fh if ln.startswith("Threads:")), None)
    partitions = inspect.signature(fb.oracles.fading_outage_mc).parameters["partitions"].default
    digest = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mc_workers_effective": fb.oracles._worker_count(partitions),
        "threads_in_process": threads,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "reference_loop_ms": reference_ms,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    out_dir = os.path.join(args.root, ".bench_out")
    ctx = {"tmp": os.path.join(out_dir, f"tmp-{os.getpid()}"), "out": out_dir,
           "env": ops.child_env(src), "seed": args.seed}
    os.makedirs(ctx["tmp"], exist_ok=True)
    # allow_short maps warn once per short blocklength; keep stderr readable
    warnings.filterwarnings("ignore", message="blocklength n=", category=UserWarning)
    try:
        fb = load_package(src, with_cli=args.workload == "cli_cold")
        warm_up(fb, args.workload, ctx)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        reference_ms = [reference_loop_ms()]
        pool = make_pool(args.workload, args.seed)
        head = make_pool(args.workload, args.seed, trace=True)  # a prefix of pool
        gate, outcomes = gate_mod.run_gate(fb, args.workload, head, args.seed, ctx)
        known = {i: fingerprint(out.value) for i, out in outcomes.items()}
        if args.trace:
            metrics, extra, attempted, failed, misses = traced_run(
                fb, args.workload, head, args.seconds, ctx, known)
        else:
            metrics, extra, attempted, failed, misses = timed_loop(
                fb, pool, args.seconds, ctx, known, WORKLOADS[args.workload][3])
        reference_ms.append(reference_loop_ms())
        # on cli_cold, the largest CLI child; elsewhere, this process
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        rss = resource.getrusage(who).ru_maxrss
        if not args.trace:
            metrics["peak_rss_mb"] = (rss / 1024.0, "MB", 1)
        result = {
            "metrics": metrics,
            "extra": extra,
            "gate_checks": gate.checks,
            "gate_misses": gate.misses,
            "attempted": attempted,
            "failed": failed,
            "misses": misses[:20],
            "pool_size": len(head if args.trace else pool),
            "environment": environment(fb, args.root, src, reference_ms),
        }
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        with contextlib.suppress(OSError):
            for name in os.listdir(ctx["tmp"]):
                os.remove(os.path.join(ctx["tmp"], name))
            os.rmdir(ctx["tmp"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
