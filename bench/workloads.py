"""Seeded workload generators.

Each workload is a pool of operations built only from ``random.Random(seed)``:
the same seed gives the same pool, and the package under test receives only
these generated inputs.  An operation is a plain dict; ``ops.py`` executes it.

A pool is a list of *rounds*.  Every round has the same mix of operation
kinds in the same order, and only the drawn parameters differ, so the share
of each kind in a run does not depend on the seed.  The timed loop runs the
rounds in order; there are more than a run gets through at the seed
commit's speed, so every timed op is a fresh draw and a run's figures rest
on hundreds of draws, not on a few repeated ones.  (A faster program wraps
around to the first round.)  The traced run makes whole passes over the
first ``trace_rounds`` rounds.

The reason for each workload is kept beside its generator in ``WORKLOADS``
and repeated in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random

PROTOCOLS = ("dt", "df", "sc", "mrc")

#: Link evaluations per protocol cell (dt 1, df 2, sc and mrc 3).
LINKS = {"dt": 1, "df": 2, "sc": 3, "mrc": 3}


def _topology(rng: random.Random, *, mixed: bool = False) -> dict:
    """A relay topology drawn from the ranges every backend accepts."""
    n_s = rng.choice((200, 300, 500, 800, 1000))
    n_r = rng.choice((200, 300, 500, 800, 1000)) if mixed else n_s
    return {
        "snr_db": round(rng.uniform(0.0, 25.0), 3),
        "eta": round(rng.uniform(0.3, 0.9), 4),
        "beta": round(rng.uniform(0.25, 0.75), 4),
        "alpha": rng.choice((0.0, 2.0, 3.0, 4.0)),
        "n_s": n_s,
        "n_r": n_r,
        "k": max(1, round(rng.uniform(0.25, 1.5) * n_s)),
    }


def _search(rng, protocol, backend, *, mixed=False) -> dict:
    return {"kind": "search", "protocol": protocol, "backend": backend,
            "cfg": _topology(rng, mixed=mixed)}


def _sweep(rng, protocols, axis, points, backend, *, mixed=False) -> dict:
    cfg = _topology(rng, mixed=mixed and axis != "blocklength")
    if axis == "total_snr":
        lo = rng.uniform(-5.0, 10.0)
        values = [10.0 ** ((lo + 20.0 * i / (points - 1)) / 10.0) for i in range(points)]
    elif axis == "blocklength":
        lo = rng.choice((100, 150, 200))
        step = rng.choice((25, 50))
        values = [lo + step * i for i in range(points)]
        cfg["k"] = max(1, round(rng.uniform(0.2, 0.8) * lo))
    else:  # eta, up to the silent relay at eta = 1
        values = [0.05 + 0.95 * i / (points - 1) for i in range(points)]
    return {"kind": "sweep", "protocols": list(protocols), "axis": axis,
            "values": values, "backend": backend, "cfg": cfg}


def _region(rng, protocol, *, rows, cols, short=None, optimize=False) -> dict:
    """An (n, k) map; ``short`` in (False, True) starts at n = 40 so that
    some cells fail (refused as too short, or numerically out of range)."""
    cfg = _topology(rng)
    if short is None:
        n_lo = rng.choice((100, 120, 150))
        n_step = rng.choice((20, 30))
        k_lo, k_step = rng.choice(((10, 10), (10, 20), (20, 15)))
    else:
        n_lo, n_step, k_lo, k_step = 40, 20, 8, 10
    return {
        "kind": "region", "protocol": protocol, "backend": "closed",
        "snr_db": cfg["snr_db"], "eta": cfg["eta"], "beta": cfg["beta"],
        "alpha": cfg["alpha"],
        "n_values": [n_lo + n_step * i for i in range(rows)],
        "k_values": [k_lo + k_step * j for j in range(cols)],
        "allow_short": bool(short), "optimize": optimize,
    }


# Every round below has the same operations in the same slots, with fresh
# parameters.  The slots are chosen so that each reported percentile falls
# inside a group of operations of similar cost, not on the edge between two
# groups far apart: there, a small change in the draws would flip it.

def closed_grid(rng: random.Random, r: int) -> "list[dict]":
    # 5 searches, 9 sweeps, 6 maps: the median op is a sweep, the 90th
    # percentile one of the two sc maps; the median search is sc, the 90th mrc
    searches = [_search(rng, p, "closed") for p in ("dt", "df", "sc", "sc", "mrc")]
    sweeps = [_sweep(rng, PROTOCOLS, axis, 40, "closed")
              for axis in ("total_snr", "blocklength", "eta") * 3]
    regions = [
        _region(rng, "dt", rows=30, cols=32),
        _region(rng, "df", rows=30, cols=32, short=r % 2 == 1),
        _region(rng, "sc", rows=30, cols=32),
        _region(rng, "mrc", rows=30, cols=32),
        _region(rng, "sc", rows=30, cols=32),
        _region(rng, "mrc", rows=6, cols=8, optimize=True),
    ]
    return [op for i in range(3)
            for op in searches[2 * i:2 * i + 2] + sweeps[3 * i:3 * i + 3] + regions[2 * i:2 * i + 2]]


def quad_search(rng: random.Random, r: int) -> "list[dict]":
    searches = [_search(rng, p, "quad", mixed=i % 2 == 1)
                for i, p in enumerate(("dt", "df", "sc", "mrc", "mrc"))]
    return searches[:3] + [_sweep(rng, ("df", "mrc"), "total_snr", 10, "quad", mixed=True)] + \
        searches[3:] + [_sweep(rng, ("dt", "sc"), "blocklength", 10, "quad")]


def mc_protocol(rng: random.Random, r: int) -> "list[dict]":
    # pick the split with the closed form, then confirm the topology by
    # Monte Carlo for every protocol, twice at 2e5 trials and once at 1e6.
    # Of the 13 ops, the four sc and mrc calls at 2e5 (ranks 6-9 by cost)
    # hold the median op, and the two sc and mrc calls at 1e6 the 90th
    # percentile.  The search is always mrc: with one search per round, a
    # mix of protocols of different cost would put its median between two
    # groups.
    search = _search(rng, "mrc", "closed")
    return [search] + [
        {"kind": "mc", "protocol": protocol, "cfg": search["cfg"], "trials": trials,
         "seed": rng.randrange(2**31)}
        for trials in (200_000, 200_000, 1_000_000) for protocol in PROTOCOLS
    ]


def _cli_topology(rng: random.Random) -> "list[str]":
    cfg = _topology(rng)
    return ["--snr-db", repr(cfg["snr_db"]), "--eta", repr(cfg["eta"]),
            "--beta", repr(cfg["beta"]), "--alpha", repr(cfg["alpha"]),
            "--n", str(cfg["n_s"]), "--k", str(cfg["k"])]


def cli_cold(rng: random.Random, r: int) -> "list[dict]":
    def cli(*argv, out="stdout"):
        return {"kind": "cli", "argv": list(argv), "out": out}

    def small(t):
        p = PROTOCOLS[(r + t) % 4]
        if t == 0:
            return cli("outage", "--protocol", p, "--backend", "closed", *_cli_topology(rng))
        if t == 1:
            return cli("outage", "--protocol", p, "--backend", "quad", *_cli_topology(rng))
        if t == 2:
            return cli("sweep", "--json", "--axis", "snr_db",
                       "--start", repr(round(rng.uniform(-5.0, 5.0), 3)),
                       "--stop", repr(round(rng.uniform(15.0, 25.0), 3)),
                       "--points", "40", *_cli_topology(rng))
        return cli("validate")

    def region(protocol):
        # one size (191 x 99 = 18,909 cells), so the op tail is one group of maps
        return cli("region", "--protocol", protocol, *_cli_topology(rng),
                   "--n-min", "100", "--n-max", "2000", "--n-step", "10",
                   "--k-min", "10", "--k-max", "600", "--k-step", "6", out="file")

    # four trios of (small command, power-split search, ~19k-cell map); the
    # maps alternate between the two protocols of similar cost per cell
    return [op for t in range(4)
            for op in (small(t), cli("optimize-eta", "--json", *_cli_topology(rng)),
                       region(("mrc", "sc")[t % 2]))]


#: name -> (round generator, rounds in the timed pool, rounds per traced
#: pass, ops per block of the timed loop's rates (one round; None: the
#: whole run, for cli_cold's few slow ops), why the workload is in the
#: benchmark; BENCHMARK.json repeats it)
WORKLOADS = {
    # run by hand only, not listed in BENCHMARK.json: its figures swing with
    # the host's busy stretches by more than the bounds (see README.md)
    "closed_grid": (
        closed_grid, 300, 4, 20,
        "closed-form maps, sweeps and power-split searches: time is in the "
        "closed-form kernels, linearization, protocols and analysis; no oracle runs",
    ),
    "quad_search": (
        quad_search, 600, 6, 7,
        "true-tail quadrature searches and sweeps, some with mixed framing: "
        "time is in the adaptive quadrature and its scalar integrand",
    ),
    "mc_protocol": (
        mc_protocol, 100, 3, 13,
        "a closed-form split search, then seeded Monte Carlo of all four protocols at 2e5 "
        "and 1e6 trials: time is in sampling, conditional error and the per-call thread pool",
    ),
    "cli_cold": (
        cli_cold, 6, 1, None,
        "one fresh fbrelay CLI process per operation: the only workload "
        "that pays import time and CSV/JSON formatting",
    ),
}


def make_pool(workload: str, seed: int, *, trace: bool = False) -> "list[dict]":
    """The workload's operations for this seed, round after round."""
    make_round, rounds, trace_rounds, _block, _why = WORKLOADS[workload]
    rng = random.Random(seed)
    count = trace_rounds if trace else rounds
    return [op for r in range(count) for op in make_round(rng, r)]

