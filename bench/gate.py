"""Output gate: checks a seeded sample of each workload's results against
independent references before anything is timed.

Tolerances (absolute, on an outage probability):

* closed form vs quadrature of its own surrogate
  (``linearized_outage_quadrature``): the package's 1e-8 per link, so
  ``LIN_TOL`` = 3e-8 on a composed protocol cell of up to three links.
  The contract is claimed from n = MIN_BLOCKLENGTH (100) up; below it
  (``allow_short``) the surrogate's lower breakpoint can fall below zero and
  the closed form no longer equals that quadrature (e.g. dt, n = 40,
  k = 278: 0.433 against 0.524), so short cells are not compared;
* adaptive true-tail quadrature vs the fixed Gauss-Legendre rule
  (``fading_outage_quadrature_fixed``): the adaptive oracle's own 1e-10 per
  link, so ``QUAD_TOL`` = 3e-10 per cell (the two agree to ~3e-15 at the
  seed commit);
* Monte Carlo vs true-tail quadrature: ``MC_SIGMAS`` = 5 standard errors
  (plus 1e-9 for the quadrature's tolerance), with the standard error
  bounded from the quadrature's link values (see ``_bernoulli_sigma``);
  Monte Carlo must also be bit-identical with one worker and with the
  default worker count;
* CLI table vs the in-process library value for the same request:
  ``CLI_TOL`` = 4.5e-16, two ulps of 1, which admits ``1 - (1 - eps)``;
* per-cell error sets: the cells a region map reports as failed must be
  exactly the cells whose scalar evaluation raises, and on a fixed lattice
  exactly the cells listed in ``golden_errors.json``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random

import ops
from workloads import PROTOCOLS

LIN_TOL = 3e-8
QUAD_TOL = 3e-10
MC_SIGMAS = 5.0
CLI_TOL = 4.5e-16

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_errors.json")


class Gate:
    """Counts checks and keeps the first few misses for the report."""

    def __init__(self) -> None:
        self.checks = 0
        self.misses: "list[str]" = []

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.misses.append(what)

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        self.check(abs(got - want) <= tol, f"{what}: got {got!r}, reference {want!r}, tol {tol:g}")


# --- references -------------------------------------------------------------

def _compose(protocol: str, cfg, link, pair) -> float:
    """Protocol outage from per-link reference values, written out here
    independently of the package's composition code."""
    P = cfg.total_snr.value
    if protocol == "dt":
        return link(cfg.n_s, cfg.rate_s, P)
    silent = cfg.omega_rd == 0.0
    sr = link(cfg.n_s, cfg.rate_s, cfg.omega_sr)
    rd = 1.0 if silent else link(cfg.n_r, cfg.rate_r, cfg.omega_rd)
    if protocol == "df":
        return sr + (1.0 - sr) * rd
    sd = link(cfg.n_s, cfg.rate_s, cfg.omega_sd)
    if protocol == "sc":
        return sd * sr + (1.0 - sr) * sd * rd
    srd = sd if silent else pair(cfg.n_s, cfg.rate_s, cfg.omega_sd, cfg.omega_rd)
    return sd * sr + (1.0 - sr) * srd


def ref_surrogate(fb, protocol: str, cfg) -> float:
    """Closed-form reference: quadrature of the clipped-linear surrogate."""
    SnrValue = fb.finite_blocklength.SnrValue
    lin = fb.oracles.linearized_outage_quadrature

    def link(n, rate, omega):
        params = fb.linearization.linearize(n, rate, SnrValue(omega))
        return lin(params, fb.oracles.ExponentialDensity(1.0)).value

    def pair(n, rate, oz, oy):
        params = fb.linearization.linearize(n, rate, SnrValue(1.0))
        return lin(params, fb.closed_form.HypoexpParams(oz, oy)).value

    return _compose(protocol, cfg, link, pair)


def ref_fixed_quadrature(fb, protocol: str, cfg) -> float:
    """True-tail reference: the fixed Gauss-Legendre rule."""
    fixed = fb.oracles.fading_outage_quadrature_fixed

    def link(n, rate, omega):
        return fixed(n, rate, fb.oracles.ExponentialDensity(omega))

    def pair(n, rate, oz, oy):
        return fixed(n, rate, fb.closed_form.HypoexpParams(oz, oy))

    return _compose(protocol, cfg, link, pair)


def _sweep_cfgs(fb, op):
    """The configuration of every sweep row, in row order (axis-major)."""
    base = ops.topology(fb, op["cfg"])
    SnrValue = fb.finite_blocklength.SnrValue
    for value in op["values"]:
        if op["axis"] == "total_snr":
            cfg = dataclasses.replace(base, total_snr=SnrValue(float(value)))
        elif op["axis"] == "blocklength":
            cfg = dataclasses.replace(base, n_s=int(value), n_r=int(value))
        else:
            cfg = dataclasses.replace(base, eta=float(value))
        for protocol in op["protocols"]:
            yield protocol, cfg


def _region_cfg(fb, op, n, k):
    return fb.protocols.TopologyConfig(
        total_snr=fb.finite_blocklength.SnrValue.from_db(op["snr_db"]),
        eta=op["eta"], beta=op["beta"],
        path_loss_exp=op["alpha"], n_s=n, n_r=n, k=k, allow_short=op["allow_short"],
    )


# --- per-kind checks ----------------------------------------------------------

def _check_search(fb, gate, op, out, ref) -> None:
    eta, eps, _multi, _profile = out.value
    cfg = dataclasses.replace(ops.topology(fb, op["cfg"]), eta=eta)
    tol = LIN_TOL if op["backend"] == "closed" else QUAD_TOL
    gate.close(f"search {op['protocol']}/{op['backend']} at eta*={eta:.6f}", eps,
               ref(fb, op["protocol"], cfg), tol)


def _check_sweep(fb, gate, rng, op, out, ref, samples) -> None:
    tol = LIN_TOL if op["backend"] == "closed" else QUAD_TOL
    rows = list(zip(_sweep_cfgs(fb, op), out.value))
    for (protocol, cfg), (_p, outage, error) in rng.sample(rows, min(samples, len(rows))):
        gate.check(error is None, f"sweep {protocol} cell failed: {error}")
        if error is None:
            gate.close(f"sweep {op['axis']} {protocol}", outage, ref(fb, protocol, cfg), tol)


def _scalar_region_cell(fb, op, n, k):
    """The cell through the scalar public path; None when it raises."""
    try:
        cfg = _region_cfg(fb, op, n, k)
        if op["optimize"]:
            return fb.analysis.optimize_eta(op["protocol"], cfg, ops.backend(fb, "closed")).eps_star
        return fb.protocols.protocol_outage(op["protocol"], cfg, ops.backend(fb, "closed")).value
    except fb.errors.FbrelayError:
        return None


def _check_region(fb, gate, rng, op, out, samples) -> None:
    success, errors = out.value
    cells = [(n, k, success[i][j]) for i, n in enumerate(op["n_values"])
             for j, k in enumerate(op["k_values"])]
    if not op["optimize"]:
        failed = {tuple(c) for c in _failed_cells(errors)}
        scalar_failed = {(n, k) for n, k, _s in cells if _scalar_region_cell(fb, op, n, k) is None}
        gate.check(failed == scalar_failed,
                   f"region {op['protocol']}: error cells {sorted(failed ^ scalar_failed)[:5]} "
                   "differ from the scalar path")
    # the 1e-8 contract is claimed from MIN_BLOCKLENGTH up; below it (allow_short)
    # only the failed-cell sets are checked
    good = [c for c in cells if not math.isnan(c[2]) and c[0] >= fb.finite_blocklength.MIN_BLOCKLENGTH]
    for n, k, s in rng.sample(good, min(samples, len(good))):
        if op["optimize"]:
            eps = _scalar_region_cell(fb, op, n, k)
            gate.check(eps is not None and abs((1.0 - s) - eps) <= CLI_TOL,
                       f"optimized region n={n} k={k}: {1.0 - s!r} vs search {eps!r}")
        else:
            gate.close(f"region {op['protocol']} n={n} k={k}", 1.0 - s,
                       ref_surrogate(fb, op["protocol"], _region_cfg(fb, op, n, k)), LIN_TOL)


def _failed_cells(errors) -> "list[list[int]]":
    """[[n, k], ...] from a region's "n=.. k=..: reason" messages."""
    return sorted([int(t.split("=")[1]) for t in msg.split(": ", 1)[0].split()] for msg in errors)


def golden_lattice() -> "list[dict]":
    """Fixed region maps reaching below n = 100, with and without allow_short."""
    return [
        {"kind": "region", "protocol": p, "backend": "closed", "snr_db": snr_db,
         "eta": 0.6, "beta": 0.5, "alpha": 2.0, "allow_short": short, "optimize": False,
         "n_values": list(range(20, 400, 20)), "k_values": list(range(10, 160, 10))}
        for p in PROTOCOLS for short in (False, True) for snr_db in (0.0, 10.0)
    ]


def check_golden_errors(fb, gate) -> None:
    """Failed-cell sets on the fixed lattice must match the committed record."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for op, want in zip(golden_lattice(), golden):
        got = _failed_cells(ops.run_op(fb, op, {}).value[1])
        gate.check(got == want, f"error cells of {op['protocol']} snr={op['snr_db']} "
                   f"allow_short={op['allow_short']}: {len(got)}, recorded {len(want)}")


def _bernoulli_sigma(fb, protocol: str, cfg, trials: int) -> float:
    """Standard error bound for a Monte Carlo protocol estimate.

    Each draw's conditional error lies in [0, 1], so a link with true outage
    p has per-draw variance at most p(1 - p); the links use independent
    streams and combine by the first-order rule.  The estimate's own
    std_error cannot stand in: when the trials resolve no event of a rare
    link (a 2e-6 combined-link outage at 2e5 trials) it reports ~1e-48.
    """
    if protocol == "dt":
        p = fb.protocols.protocol_outage("dt", cfg, ops.backend(fb, "quad")).value
        return math.sqrt(p * (1.0 - p) / trials)
    q = fb.protocols.link_outages(cfg, ops.backend(fb, "quad"))
    sd, sr, rd, srd = q.eps_sd, q.eps_sr, q.eps_rd, q.eps_srd
    grads = {
        "df": ((sr, 1.0 - rd), (rd, 1.0 - sr)),
        "sc": ((sd, sr + (1.0 - sr) * rd), (sr, sd * (1.0 - rd)), (rd, sd * (1.0 - sr))),
        "mrc": ((sd, sr), (sr, sd - srd), (srd, 1.0 - sr)),
    }[protocol]
    return math.sqrt(sum(g * g * p * (1.0 - p) for p, g in grads) / trials)


def _check_mc(fb, gate, op, out) -> None:
    value, se = out.value
    cfg = ops.topology(fb, op["cfg"])
    quad = fb.protocols.protocol_outage(op["protocol"], cfg, ops.backend(fb, "quad")).value
    sigma = _bernoulli_sigma(fb, op["protocol"], cfg, op["trials"])
    gate.check(abs(value - quad) <= MC_SIGMAS * sigma + 1e-9,
               f"mc {op['protocol']} {op['trials']:.0e}: {value!r} (reports +- {se!r}) vs quad "
               f"{quad!r}, bound sigma {sigma!r}")


def check_mc_workers(fb, gate, op, out) -> None:
    """Same estimate, bit for bit, with a single worker thread."""
    env = fb.oracles.MAX_WORKERS_ENV
    saved = os.environ.get(env)
    os.environ[env] = "1"
    try:
        single = ops.run_op(fb, op, {})
    finally:
        if saved is None:
            del os.environ[env]
        else:
            os.environ[env] = saved
    gate.check(single.value == out.value,
               f"mc {op['protocol']} differs between 1 and default workers: "
               f"{single.value!r} vs {out.value!r}")


# --- CLI --------------------------------------------------------------------

def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _cli_topology(fb, argv):
    return fb.protocols.TopologyConfig(
        total_snr=fb.finite_blocklength.SnrValue.from_db(float(_opt(argv, "--snr-db"))),
        eta=float(_opt(argv, "--eta")), beta=float(_opt(argv, "--beta")),
        path_loss_exp=float(_opt(argv, "--alpha")),
        n_s=int(_opt(argv, "--n")), n_r=int(_opt(argv, "--n")), k=int(_opt(argv, "--k")),
    )


def cli_library_values(fb, op) -> "list[float]":
    """The outage column the CLI request should print, computed in-process
    through the library call the documented CLI options map onto."""
    argv = op["argv"]
    cmd = argv[0]
    be = ops.backend(fb, _opt(argv, "--backend", "closed"))
    if cmd == "outage":
        return [fb.protocols.protocol_outage(_opt(argv, "--protocol"), _cli_topology(fb, argv), be).value]
    if cmd == "sweep":
        start, stop, points = float(_opt(argv, "--start")), float(_opt(argv, "--stop")), int(_opt(argv, "--points"))
        step = (stop - start) / (points - 1)
        values = [10.0 ** ((start + i * step) / 10.0) for i in range(points)]
        rows = fb.analysis.sweep(list(PROTOCOLS), _cli_topology(fb, argv),
                                 "total_snr", values, [be])
        return [r.outage for r in rows]
    if cmd == "optimize-eta":
        protocols = [v for flag, v in zip(argv, argv[1:]) if flag == "--protocol"] or list(PROTOCOLS)
        out = []
        for p in protocols:
            res = fb.analysis.optimize_eta(p, _cli_topology(fb, argv), be)
            out += [eps for _, eps in res.profile] + [res.eps_star]
        return out
    # region
    ns = range(int(_opt(argv, "--n-min")), int(_opt(argv, "--n-max")) + 1, int(_opt(argv, "--n-step")))
    ks = range(int(_opt(argv, "--k-min")), int(_opt(argv, "--k-max")) + 1, int(_opt(argv, "--k-step")))
    cfg = _cli_topology(fb, argv)
    grid = fb.analysis.reliability_region(
        _opt(argv, "--protocol"), cfg.total_snr, list(ns), list(ks), be,
        eta=cfg.eta, beta=cfg.beta, path_loss_exp=cfg.path_loss_exp)
    return [1.0 - s for row in grid.success for s in row]


def _check_cli(fb, gate, op, out) -> None:
    rows = ops.cli_rows(op, out.value)
    want = cli_library_values(fb, op)
    gate.check(len(rows) == len(want),
               f"CLI {op['argv'][0]}: {len(rows)} rows, library gives {len(want)}")

    def as_float(v):
        return math.nan if v in (None, "") else float(v)

    got = [as_float(r["outage"]) for r in rows]
    bad = [(g, w) for g, w in zip(got, want)
           if not (math.isnan(g) and math.isnan(w)) and not abs(g - w) <= CLI_TOL]
    gate.check(not bad, f"CLI {op['argv'][0]} outage column differs from library: {bad[:3]}")
    errors = sum(1 for r in rows if r.get("error"))
    gate.check(errors == sum(math.isnan(w) for w in want),
               f"CLI {op['argv'][0]}: {errors} error cells, library has "
               f"{sum(math.isnan(w) for w in want)}")


# --- entry point ------------------------------------------------------------

def run_gate(fb, workload: str, pool: "list[dict]", seed: int, ctx: dict):
    """Run a seeded sample of the pool, check it, and return
    (gate, {pool index: outcome}) so the timed loop can require the same
    results."""
    rng = random.Random(f"gate-{workload}-{seed}")
    gate = Gate()
    outcomes = {}

    def sample(kind, count, pred=lambda op: True):
        idx = [i for i, op in enumerate(pool) if op["kind"] == kind and pred(op)]
        return rng.sample(idx, min(count, len(idx)))

    def run(i):
        try:
            out = ops.run_op(fb, pool[i], ctx)
        except Exception as exc:  # a raising op is a gate miss, not a crash
            gate.check(False, f"op {i} ({pool[i]['kind']}) raised {type(exc).__name__}: {exc}")
            return None
        outcomes[i] = out
        reason = ops.check_outcome(pool[i], out)
        gate.check(reason is None, f"op {i}: {reason}")
        return out

    if workload == "closed_grid":
        for i in sample("search", 4):
            if (out := run(i)):
                _check_search(fb, gate, pool[i], out, ref_surrogate)
        for i in sample("sweep", 2):
            if (out := run(i)):
                _check_sweep(fb, gate, rng, pool[i], out, ref_surrogate, 8)
        # one map of each kind: clean, refused below n = 100, short allowed
        for start, short in ((100, False), (40, False), (40, True)):
            for i in sample("region", 1, lambda op: not op["optimize"] and op["allow_short"] is short
                            and (op["n_values"][0] < 100) == (start < 100)):
                if (out := run(i)):
                    _check_region(fb, gate, rng, pool[i], out, 6)
        for i in sample("region", 1, lambda op: op["optimize"]):
            if (out := run(i)):
                _check_region(fb, gate, rng, pool[i], out, 2)
    elif workload == "quad_search":
        for i in sample("search", 3):
            if (out := run(i)):
                _check_search(fb, gate, pool[i], out, ref_fixed_quadrature)
        for i in sample("sweep", 1):
            if (out := run(i)):
                _check_sweep(fb, gate, rng, pool[i], out, ref_fixed_quadrature, 4)
    elif workload == "mc_protocol":
        for i in sample("search", 1):
            if (out := run(i)):
                _check_search(fb, gate, pool[i], out, ref_surrogate)
        picked = [rng.choice([i for i, op in enumerate(pool)
                              if op["kind"] == "mc" and op["protocol"] == p])
                  for p in ("dt", "df", "sc", "mrc")]
        for i in picked:
            if (out := run(i)):
                _check_mc(fb, gate, pool[i], out)
        i = rng.choice(picked)
        if i in outcomes:
            check_mc_workers(fb, gate, pool[i], outcomes[i])
    else:  # cli_cold
        for cmd in ("outage", "sweep", "optimize-eta", "region"):
            i = rng.choice([i for i, op in enumerate(pool) if op["argv"][0] == cmd])
            if (out := run(i)):
                _check_cli(fb, gate, pool[i], out)
    check_golden_errors(fb, gate)
    return gate, outcomes


if __name__ == "__main__":
    # Rewrite golden_errors.json from the package under ../src.
    import sys
    import warnings
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import fbrelay.analysis as analysis
    import fbrelay.finite_blocklength as finite_blocklength
    import fbrelay.protocols as protocols
    import types
    warnings.simplefilter("ignore")
    fb = types.SimpleNamespace(analysis=analysis, finite_blocklength=finite_blocklength, protocols=protocols)
    cells = [_failed_cells(ops.run_op(fb, op, {}).value[1]) for op in golden_lattice()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cells, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {GOLDEN}: {sum(map(len, cells))} failed cells in {len(cells)} maps")
