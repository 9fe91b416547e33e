"""Execute one generated operation against the package's public API or CLI.

Every call goes through a module attribute looked up at call time
(``fb.analysis.sweep``, ``fb.protocols.protocol_outage``), so the traced run
can wrap those names without the timed code knowing about it.

``run_op`` returns an ``Outcome``: the op's result in a comparable form, the
protocol cells it returned, and the Monte Carlo link-trials it cost.
``check_outcome`` is the cheap validity check applied to every timed
execution; the strict comparison against reference oracles is in gate.py.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time

from workloads import LINKS

#: Process environment for CLI children: the checkout's sources, one BLAS
#: thread, and the Monte Carlo worker count left at its default.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(src: str) -> "dict[str, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("FBRELAY_MAX_WORKERS", None)
    for var in _BLAS_VARS:
        env[var] = "1"
    return env


@dataclasses.dataclass
class Outcome:
    value: object  # hashable summary of the result, for determinism checks
    cells: int  # protocol cells the op returned (0 for searches)
    link_trials: int = 0  # Monte Carlo trials x links evaluated
    elapsed: "float | None" = None  # CLI ops: wall time of the child process alone


def topology(fb, cfg: dict):
    return fb.protocols.TopologyConfig(
        total_snr=fb.finite_blocklength.SnrValue.from_db(cfg["snr_db"]),
        eta=cfg["eta"],
        beta=cfg["beta"],
        path_loss_exp=cfg["alpha"],
        n_s=cfg["n_s"],
        n_r=cfg["n_r"],
        k=cfg["k"],
    )


def backend(fb, name: str):
    Backend = fb.protocols.Backend
    return Backend.closed_form() if name == "closed" else Backend.quadrature()


def _run_search(fb, op):
    res = fb.analysis.optimize_eta(op["protocol"], topology(fb, op["cfg"]), backend(fb, op["backend"]))
    return Outcome((res.eta_star, res.eps_star, res.multimodal, res.profile), 0)


def _run_sweep(fb, op):
    rows = fb.analysis.sweep(op["protocols"], topology(fb, op["cfg"]), op["axis"],
                             op["values"], [backend(fb, op["backend"])])
    return Outcome(tuple((r.protocol, r.outage, r.error) for r in rows), len(rows))


def _run_region(fb, op):
    grid = fb.analysis.reliability_region(
        op["protocol"], fb.finite_blocklength.SnrValue.from_db(op["snr_db"]),
        op["n_values"], op["k_values"], backend(fb, op["backend"]),
        eta=op["eta"], beta=op["beta"], path_loss_exp=op["alpha"],
        allow_short=op["allow_short"], optimize_power_split=op["optimize"],
    )
    cells = len(op["n_values"]) * len(op["k_values"])
    return Outcome((grid.success, grid.errors), cells)


def _run_mc(fb, op):
    be = fb.protocols.Backend.monte_carlo(op["trials"], op["seed"])
    est = fb.protocols.protocol_outage(op["protocol"], topology(fb, op["cfg"]), be)
    return Outcome((est.value, est.std_error), 1, op["trials"] * LINKS[op["protocol"]])


def cli_argv(op: dict, out_path: str) -> "list[str]":
    argv = [sys.executable, "-m", "fbrelay.cli"] + op["argv"]
    return argv + ["--output", out_path] if op["out"] == "file" else argv


def is_search(op: dict) -> bool:
    return op["kind"] == "search" or (op["kind"] == "cli" and op["argv"][0] == "optimize-eta")


def _run_cli(fb, op, ctx):
    out_path = os.path.join(ctx["tmp"], "cli_out.csv")
    t0 = time.perf_counter()
    proc = subprocess.run(cli_argv(op, out_path), env=ctx["env"], capture_output=True,
                          text=True, timeout=120, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fbrelay {op['argv'][0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    text = proc.stdout
    if op["out"] == "file":
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_path)
    tabular = op["argv"][0] in ("outage", "sweep", "region")
    return Outcome(text, len(cli_rows(op, text)) if tabular else 0, elapsed=elapsed)


_RUNNERS = {"search": _run_search, "sweep": _run_sweep, "region": _run_region, "mc": _run_mc}


def run_op(fb, op: dict, ctx: dict) -> Outcome:
    if op["kind"] == "cli":
        return _run_cli(fb, op, ctx)
    return _RUNNERS[op["kind"]](fb, op)


def _prob(x) -> bool:
    return isinstance(x, float) and 0.0 <= x <= 1.0


def cli_rows(op: dict, text: str) -> "list[dict]":
    """Parse a CLI table (commented CSV or JSON) into row dicts."""
    if "--json" in op["argv"]:
        return json.loads(text)["rows"]
    body = "".join(ln for ln in io.StringIO(text) if not ln.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def check_outcome(op: dict, out: Outcome) -> "str | None":
    """Cheap validity check of one result; returns a reason when it fails."""
    kind = op["kind"]
    if kind == "search":
        eta, eps, _multi, profile = out.value
        if not (0.0 < eta <= 1.0 and _prob(eps)):
            return f"search optimum out of range: eta={eta!r} eps={eps!r}"
        if eps > min(v for _, v in profile):
            return "search optimum worse than its own coarse scan"
    elif kind == "sweep":
        for proto, outage, error in out.value:
            if (error is None) != _prob(outage):
                return f"sweep row {proto}: outage {outage!r} with error {error!r}"
    elif kind == "region":
        success, errors = out.value
        nan_cells = sum(math.isnan(c) for row in success for c in row)
        if nan_cells != len(errors):
            return f"region: {nan_cells} NaN cells but {len(errors)} errors"
        if any(not (math.isnan(c) or 0.0 <= c <= 1.0) for row in success for c in row):
            return "region: success outside [0, 1]"
    elif kind == "mc":
        value, se = out.value
        if not (_prob(value) and 0.0 <= se <= 0.5):
            return f"mc estimate out of range: {value!r} +- {se!r}"
    elif kind == "cli":
        if op["argv"][0] == "validate":
            if "all validation suites passed" not in out.value:
                return "validate did not pass"
        elif not cli_rows(op, out.value):
            return "CLI printed no rows"
    return None
