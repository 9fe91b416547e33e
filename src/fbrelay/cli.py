"""Command-line front end.

Five subcommands under one ``fbrelay`` group:

* ``outage``        one configuration, one number
* ``sweep``         walk one axis across protocols and backends, CSV rows
* ``optimize-eta``  best power split per protocol plus the scanned profiles
* ``region``        outage over an (n, k) grid
* ``validate``      cross-check the closed forms and the true-tail quadrature

Table commands share one flat CSV schema (see ``CSV_FIELDS``, the fields
of ``SweepRow``); resolved configuration is echoed first as ``#``-prefixed
comment lines, each tagged ``flag``, ``config`` or ``default`` by where
click found the value, so every output file is self-describing.
``--config`` names a JSON object of option values, keyed by option name
with dashes or underscores; it becomes the command's default map, so it can
set any option, required ones included, and flags still win.  ``--json``
switches any table command to a JSON document carrying the same records
plus the resolved config object; ``--output`` writes the table to a file
and prints the path and row count instead of flooding the terminal.

Exit codes: 0 success, 1 validation found disagreement, 2 malformed input,
3 numeric failure inside an otherwise valid computation.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math

import click
from click.core import ParameterSource

from . import __version__
from ._estimates import ExponentialDensity, as_int, lazy_binding
from .analysis import (
    SCHEMA_VERSION,
    SweepRow,
    optimize_eta,
    reliability_region,
    sweep,
)
from .closed_form import HypoexpParams, mrc_pair_outage, rayleigh_outage
from .errors import DomainError, NumericError
from .finite_blocklength import _DOUBLE_MAX, _TOO_LARGE_MESSAGE, SnrValue
from .linearization import LinConvention, linearize
from .protocols import Backend, BackendKind, ProtocolKind, TopologyConfig, protocol_outage

# Only ``validate`` calls the oracles, which load scipy.
fading_outage_mc = lazy_binding(globals(), "fbrelay.oracles", "fading_outage_mc")
fading_outage_quadrature = lazy_binding(globals(), "fbrelay.oracles", "fading_outage_quadrature")
linearized_outage_quadrature = lazy_binding(
    globals(), "fbrelay.oracles", "linearized_outage_quadrature"
)

CSV_FIELDS = ("schema_version",) + tuple(
    f.name for f in dataclasses.fields(SweepRow) if f.name != "schema_version"
)

#: The leading columns, which hold one value across a whole region map.
_HEAD = CSV_FIELDS.index("n_s")

_ALL_PROTOCOLS = tuple(p.value for p in ProtocolKind)
_BACKEND_CHOICES = tuple(b.value for b in BackendKind)

#: The most points a sweep walks.  A closed-form sweep of the four
#: protocols peaks near 3.7 KB a point and one over two backends near
#: 7.6 KB (measured at 1e4 and 1e5 points), so about 1 GB at the cap.
_MAX_POINTS = 100_000

#: The most (n, k) cells a region map holds.  A closed-form map peaks near
#: 0.44 KB a cell and a quadrature map near 0.74 KB (measured up to 187,347
#: cells), so about 1.5 GB at the cap.
_MAX_REGION_CELLS = 2_000_000

#: The most SNR points a validate suite walks.  ``validate --full`` takes
#: about 22 ms and 2.2 KB a point (0.24 ms and 0.6 KB without ``--full``;
#: measured at 1,000 and 20,000 points), so about 4 minutes and 22 MB at
#: the cap, over a grid already finer than 0.002 dB.
_MAX_SNR_POINTS = 10_000

#: Parameters that configure output plumbing, not the computation.
_ECHO_SKIP = frozenset({"as_json", "output"})

#: Echo tag of each value's origin; anything else is a built-in default.
_SOURCE_TAGS = {ParameterSource.COMMANDLINE: "flag", ParameterSource.DEFAULT_MAP: "config"}


class _IntCount(click.ParamType):
    """An integer, read exactly and through the package's integer rule.
    Text may also use scientific notation, such as 1e6."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            try:
                number = int(value) if isinstance(value, str) else value
            except ValueError:
                from decimal import Decimal  # only text such as 1e5 needs it
                number = Decimal(value)
            # the double range, and abs() past Decimal's exponent range, keep
            # text such as 1e999999999 from becoming a billion-digit int
            if abs(number) > _DOUBLE_MAX:
                self.fail(_TOO_LARGE_MESSAGE.format(repr(value)), param, ctx)
            return as_int(number, "count")
        except (TypeError, ArithmeticError, DomainError):
            self.fail(f"{value!r} is not an integer", param, ctx)


INT_COUNT = _IntCount()


class _NumericFailure(click.ClickException):
    """A well-formed request whose computation broke down numerically."""

    exit_code = 3


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericError as exc:  # ConvergenceError included
            raise _NumericFailure(f"{type(exc).__name__}: {exc}") from exc
        except DomainError as exc:
            raise click.UsageError(str(exc)) from exc

    return wrapper


def _load_config(ctx: click.Context, param: click.Parameter, path: "str | None") -> None:
    """Make a JSON config file the command's default map (flags still win).

    Unknown keys in the file are an error, not a silent no-op.
    """
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"--config: cannot read {path!r}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise click.UsageError("--config: file must contain a JSON object")
    options = {option.name: option for option in ctx.command.params if option.expose_value}
    defaults = {}
    for key, value in loaded.items():
        name = key.replace("-", "_")
        if name not in options:
            raise click.UsageError(f"--config: unknown key {key!r}")
        if value is None:
            raise click.UsageError(f"--config: {key!r} must not be null")
        if options[name].multiple and not isinstance(value, list):
            value = [value]
        defaults[name] = value
    ctx.default_map = defaults


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _fields(row: SweepRow) -> tuple:
    return tuple(getattr(row, field) for field in CSV_FIELDS)


def _csv_line(values) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(map(_fmt, values))
    return buf.getvalue()


def _emit(
    rows: "list[tuple]", ctx: click.Context, extra: "dict[str, object] | None" = None
) -> None:
    """Render rows (tuples in CSV_FIELDS order) as commented CSV or JSON,
    to stdout or --output."""
    p = ctx.params
    echoed = [param.name for param in ctx.command.params
              if param.expose_value and param.name not in _ECHO_SKIP]
    if p.get("as_json"):
        config = {name: (list(v) if isinstance(v := p[name], tuple) else v) for name in echoed}
        doc: "dict[str, object]" = {"schema_version": SCHEMA_VERSION, "config": config}
        if extra:
            doc.update(extra)
        doc["rows"] = [
            {
                field: (None if isinstance(v, float) and not math.isfinite(v) else v)
                for field, v in zip(CSV_FIELDS, row)
            }
            for row in rows
        ]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# schema_version = {SCHEMA_VERSION}\n")
        for name in echoed:
            source = _SOURCE_TAGS.get(ctx.get_parameter_source(name), "default")
            buf.write(f"# {name} = {_fmt(p[name])} ({source})\n")
        if extra:
            for key, value in extra.items():
                buf.write(f"# {key} = {_fmt(value)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        heads: "dict[tuple, str]" = {}  # leading columns, rendered once per distinct value
        for row in rows:
            key = row[:_HEAD]
            head = heads.get(key)
            if head is None:
                head = heads[key] = _csv_line(key)[:-1] + ","
            buf.write(head)
            writer.writerow(map(_fmt, row[_HEAD:]))
        text = buf.getvalue()

    output = p.get("output")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {output} ({len(rows)} rows)")
    else:
        click.echo(text, nl=False)


def _build_topology(p: "dict[str, object]") -> TopologyConfig:
    n_s = p["n"]
    n_r = p["n_relay"] if p.get("n_relay") is not None else n_s
    return TopologyConfig(
        total_snr=SnrValue.from_db(float(p["snr_db"])),
        eta=float(p["eta"]),
        beta=float(p["beta"]),
        path_loss_exp=float(p["alpha"]),
        n_s=n_s,
        n_r=n_r,
        k=p["k"],
        allow_short=bool(p["allow_short"]),
    )


def _build_backend(kind: str, p: "dict[str, object]") -> Backend:
    if kind == "mc":
        if p.get("trials") is None or p.get("seed") is None:
            raise click.UsageError("--backend mc requires --trials and --seed")
        return Backend.monte_carlo(p["trials"], p["seed"])
    return Backend(BackendKind(kind))


def _build_backends(p: "dict[str, object]") -> "list[Backend]":
    kinds = p["backend"]
    if isinstance(kinds, str):
        kinds = (kinds,)
    if (p.get("trials") is not None or p.get("seed") is not None) and "mc" not in kinds:
        raise click.UsageError("--trials/--seed only apply when an mc backend is selected")
    return [_build_backend(k, p) for k in kinds]


def _refuse_n_relay(p: "dict[str, object]", where: str) -> None:
    """--n-relay is meaningless where every cell has n_s = n_r = n."""
    if p.get("n_relay") is not None:
        raise click.UsageError(f"--n-relay does not apply to {where}, which sets n_s = n_r = n")


def _config_options(fn):
    decorators = [
        click.option("--convention", type=click.Choice([c.value for c in LinConvention]),
                     default="nats", help="Ramp-slope rate convention."),
        click.option("--snr-db", type=float, default=10.0, help="Total SNR budget in dB."),
        click.option("--eta", type=float, default=0.5, help="Source share of the SNR budget."),
        click.option("--beta", type=float, default=0.5, help="Relay position on the unit path."),
        click.option("--alpha", type=float, default=0.0, help="Path-loss exponent."),
        click.option("--n", type=INT_COUNT, default=500, help="Blocklength of each hop."),
        click.option("--n-relay", type=INT_COUNT, default=None,
                     help="Relay-hop blocklength when it differs from --n."),
        click.option("--k", type=INT_COUNT, default=250, help="Information bits per codeword."),
        click.option("--trials", type=INT_COUNT, default=None,
                     help="Monte Carlo trials (mc backend)."),
        click.option("--seed", type=INT_COUNT, default=None, help="Monte Carlo seed (mc backend)."),
        click.option("--allow-short", is_flag=True, default=False,
                     help="Permit blocklengths under 100 (accuracy degrades)."),
        click.option("--config", type=click.Path(), is_eager=True, expose_value=False,
                     callback=_load_config,
                     help="JSON file of option defaults (flags still win)."),
        click.option("--json", "as_json", is_flag=True, default=False,
                     help="Emit a JSON document instead of commented CSV."),
        click.option("--output", type=click.Path(), default=None,
                     help="Write the table to this file and print path + row count."),
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="fbrelay")
def main() -> None:
    """Finite-blocklength outage tools for two-hop relay topologies."""


@main.command("outage")
@click.option("--protocol", type=click.Choice(_ALL_PROTOCOLS), default="mrc",
              help="Transmission scheme.")
@click.option("--backend", type=click.Choice(_BACKEND_CHOICES), default="closed",
              help="Evaluation backend.")
@_config_options
@click.pass_context
@_guarded
def cmd_outage(ctx: click.Context, **_kw) -> None:
    """Evaluate one configuration and print a single record."""
    p = ctx.params
    cfg = _build_topology(p)
    backend = _build_backends(p)[0]
    protocol = ProtocolKind.parse(str(p["protocol"]))
    convention = LinConvention.parse(str(p["convention"]))
    # one-shot evaluation surfaces failures as exit codes, not NaN rows
    est = protocol_outage(protocol, cfg, backend, convention)
    row = SweepRow.from_cell(protocol, cfg, backend, convention, est.value, est.std_error)
    _emit([_fields(row)], ctx)


@main.command("sweep")
@click.option("--protocol", type=click.Choice(_ALL_PROTOCOLS), multiple=True,
              default=_ALL_PROTOCOLS, help="Scheme(s) to evaluate; repeatable.")
@click.option("--backend", type=click.Choice(_BACKEND_CHOICES), multiple=True,
              default=("closed",), help="Backend(s) to evaluate; repeatable.")
@_config_options
@click.option("--axis", type=click.Choice(["snr_db", "blocklength", "eta"]),
              default="snr_db", help="Which parameter the sweep walks.")
@click.option("--start", type=float, required=True, help="First axis value (dB for snr_db).")
@click.option("--stop", type=float, required=True, help="Last axis value, inclusive.")
@click.option("--points", type=INT_COUNT, required=True, help="Number of grid points.")
@click.pass_context
@_guarded
def cmd_sweep(ctx: click.Context, **_kw) -> None:
    """Walk one axis and print a record per (value, protocol, backend) cell."""
    p = ctx.params
    points = p["points"]
    if points < 1:
        raise click.UsageError(f"--points must be >= 1, got {points}")
    if points > _MAX_POINTS:
        raise DomainError(f"--points must be <= {_MAX_POINTS}, got {points}")
    start, stop = float(p["start"]), float(p["stop"])
    if stop < start:
        raise click.UsageError("--stop must not be below --start (values must ascend)")
    if points == 1:
        values = [start]
    else:
        step = (stop - start) / (points - 1)
        values = [start + i * step for i in range(points)]

    axis = str(p["axis"])
    if axis == "blocklength":
        _refuse_n_relay(p, "a blocklength sweep")
    base = _build_topology(p)
    backends = _build_backends(p)
    if axis == "snr_db":
        lib_axis, lib_values = "total_snr", [SnrValue.from_db(v).value for v in values]
    elif axis == "blocklength":
        lib_axis, lib_values = "blocklength", [round(v) for v in values]
    else:
        lib_axis, lib_values = "eta", values

    rows = sweep(list(p["protocol"]), base, lib_axis, lib_values, backends,
                 str(p["convention"]))
    _emit([_fields(row) for row in rows], ctx)


@main.command("optimize-eta")
@click.option("--protocol", type=click.Choice(_ALL_PROTOCOLS), multiple=True,
              default=_ALL_PROTOCOLS, help="Scheme(s) to optimize; repeatable.")
@click.option("--backend", type=click.Choice(["closed", "quad"]), default="closed",
              help="Deterministic backend for the search.")
@_config_options
@click.option("--coarse-step", type=float, default=0.05, help="Coarse scan spacing in eta.")
@click.option("--refine-tol", type=float, default=1e-3, help="Final bracket width in eta.")
@click.pass_context
@_guarded
def cmd_optimize_eta(ctx: click.Context, **_kw) -> None:
    """Search the power split; per protocol, print the profile plus the optimum row."""
    p = ctx.params
    cfg = _build_topology(p)
    backend = _build_backends(p)[0]
    convention = LinConvention.parse(str(p["convention"]))

    def as_row(protocol: ProtocolKind, eta: float, eps: float) -> SweepRow:
        return dataclasses.replace(SweepRow.from_cell(protocol, cfg, backend, convention, eps),
                                   eta=eta)

    rows: "list[SweepRow]" = []
    summaries: "list[dict[str, object]]" = []
    for name in p["protocol"]:
        result = optimize_eta(
            name, cfg, backend, convention,
            coarse_step=float(p["coarse_step"]), refine_tol=float(p["refine_tol"]),
        )
        rows.extend(as_row(result.protocol, eta, eps) for eta, eps in result.profile)
        # final row per protocol is the refined optimum itself
        rows.append(as_row(result.protocol, result.eta_star, result.eps_star))
        summaries.append({"protocol": result.protocol.value, "eta_star": result.eta_star,
                          "eps_star": result.eps_star, "multimodal": result.multimodal})
    extra = {"summaries": summaries} if p.get("as_json") else {
        f"{summary['protocol']}_optimum": " ".join(
            f"{key}={summary[key]!r}" for key in ("eta_star", "eps_star", "multimodal"))
        for summary in summaries
    }
    _emit([_fields(row) for row in rows], ctx, extra)


@main.command("region")
@click.option("--protocol", type=click.Choice(_ALL_PROTOCOLS), default="mrc",
              help="Transmission scheme.")
@click.option("--backend", type=click.Choice(_BACKEND_CHOICES), default="closed",
              help="Evaluation backend.")
@_config_options
@click.option("--k-min", type=INT_COUNT, required=True, help="Smallest payload (bits).")
@click.option("--k-max", type=INT_COUNT, required=True, help="Largest payload, inclusive.")
@click.option("--k-step", type=INT_COUNT, default=1, help="Payload stride.")
@click.option("--n-min", type=INT_COUNT, required=True, help="Smallest blocklength.")
@click.option("--n-max", type=INT_COUNT, required=True, help="Largest blocklength, inclusive.")
@click.option("--n-step", type=INT_COUNT, default=1, help="Blocklength stride.")
@click.option("--optimize-power-split", is_flag=True, default=False,
              help="Optimize eta per cell instead of holding it fixed.")
@click.pass_context
@_guarded
def cmd_region(ctx: click.Context, **_kw) -> None:
    """Map outage over an (n, k) grid; one record per cell."""
    p = ctx.params
    _refuse_n_relay(p, "region")
    if p["k_step"] < 1 or p["n_step"] < 1:
        raise click.UsageError("--k-step and --n-step must be >= 1")
    ks = range(p["k_min"], p["k_max"] + 1, p["k_step"])
    ns = range(p["n_min"], p["n_max"] + 1, p["n_step"])
    if not ks:
        raise click.UsageError("--k-min/--k-max describe an empty payload grid")
    if not ns:
        raise click.UsageError("--n-min/--n-max describe an empty blocklength grid")
    # len() of a range raises OverflowError past sys.maxsize; this does not
    cells = ((ns[-1] - ns[0]) // ns.step + 1) * ((ks[-1] - ks[0]) // ks.step + 1)
    if cells > _MAX_REGION_CELLS:
        raise DomainError(f"a region map holds at most {_MAX_REGION_CELLS} (n, k) cells, "
                          f"got {cells}")

    backend = _build_backends(p)[0]
    grid = reliability_region(
        str(p["protocol"]), SnrValue.from_db(float(p["snr_db"])), list(ns), list(ks), backend,
        str(p["convention"]),
        eta=float(p["eta"]), beta=float(p["beta"]), path_loss_exp=float(p["alpha"]),
        allow_short=bool(p["allow_short"]),
        optimize_power_split=bool(p["optimize_power_split"]),
    )
    # grid.errors holds one reason per NaN cell, in row-major order
    reasons = iter(grid.errors)
    head = (SCHEMA_VERSION, grid.protocol.value, backend.label, grid.convention.value,
            grid.snr.to_db(), grid.eta, float(p["beta"]), float(p["alpha"]))
    rows = []
    for n, row in zip(grid.n_values, grid.outage):
        for k, eps in zip(grid.k_values, row):
            reason = next(reasons).partition(": ")[2] if math.isnan(eps) else None
            rows.append(head + (n, n, k, k / n, eps, None, reason))
    _emit(rows, ctx)


# --- validate -------------------------------------------------------------

_LIN_TOL = 1e-8  # closed form vs. quadrature of its own surrogate: tight
_MC_SIGMAS = 4.0


def _checked(suite, func, detail, value_thunk, ref_thunk, allowed):
    """Build one case record; a numeric blow-up counts as an infinite miss.

    The whole point of validation is diagnosing a broken estimate, so the
    run must survive one and report it rather than crash.
    """
    try:
        value = value_thunk()
        ref = ref_thunk()
        return (suite, func, detail, abs(value - ref), allowed)
    except NumericError as exc:
        return (suite, func, f"{detail} ({exc})", math.inf, allowed)


def _validate_cases(convention: LinConvention, snr_points: int, full: bool):
    """Yield (suite, function_name, detail, |delta|, allowed) tuples."""
    if full:
        dbs = [0.0 + 20.0 * i / max(snr_points - 1, 1) for i in range(snr_points)]
        frames = [(200, 100), (500, 250), (1000, 500)]
        trials = 400_000
    else:
        dbs = [6.0 + 12.0 * i / max(snr_points - 1, 1) for i in range(snr_points)]
        frames = [(500, 250)]
        trials = 50_000

    # deterministic suite: closed form against quadrature of its own surrogate
    for n, k in frames:
        rate = k / n
        for db in dbs:
            omega = SnrValue.from_db(db).value
            yield _checked(
                "deterministic", "rayleigh_outage", f"n={n} k={k} snr={db:g}dB",
                lambda: rayleigh_outage(n, rate, omega, convention),
                lambda: linearized_outage_quadrature(
                    linearize(n, rate, SnrValue(omega), convention),
                    ExponentialDensity(1.0),
                ).value,
                _LIN_TOL,
            )
            for oz, oy in ((omega, omega), (omega, omega / 4.0)):
                pair = HypoexpParams(oz, oy)
                tag = "equal" if oz == oy else "unequal"
                yield _checked(
                    "deterministic", "mrc_pair_outage",
                    f"n={n} k={k} snr={db:g}dB {tag}",
                    lambda pair=pair: mrc_pair_outage(n, rate, pair, convention),
                    lambda pair=pair: linearized_outage_quadrature(
                        linearize(n, rate, SnrValue(1.0), convention), pair
                    ).value,
                    _LIN_TOL,
                )

    # stochastic suite: true-tail quadrature against seeded sampling of the
    # same true tail, so the only gap is sampling error (the closed forms
    # average a surrogate, whose bias the deterministic suite leaves out)
    mid = dbs[len(dbs) // 2]
    mc_points = dbs if full else [dbs[0], mid, dbs[-1]]
    n, k = frames[0]
    rate = k / n
    omega = SnrValue.from_db(mid).value
    channels = [(f"snr={db:g}dB", ExponentialDensity(SnrValue.from_db(db).value), 77_000 + i)
                for i, db in enumerate(mc_points)]
    channels += [(f"snr={mid:g}dB {tag}", pair, 78_000)
                 for tag, pair in (("equal", HypoexpParams(omega, omega)),
                                   ("unequal", HypoexpParams(omega, omega / 4.0)))]
    for detail, channel, seed in channels:
        est = fading_outage_mc(n, rate, channel, trials, seed=seed)
        yield _checked(
            "stochastic", "fading_outage_quadrature", f"n={n} k={k} {detail}",
            lambda channel=channel: fading_outage_quadrature(n, rate, channel).value,
            lambda est=est: est.value,
            _MC_SIGMAS * (est.std_error or 0.0),
        )


@main.command("validate")
@click.option("--convention", type=click.Choice([c.value for c in LinConvention]),
              default="nats", help="Ramp-slope rate convention under test.")
@click.option("--snr-points", type=INT_COUNT, default=5, help="SNR grid size per suite.")
@click.option("--full", is_flag=True, default=False,
              help="Wider grids and more Monte Carlo trials (slower).")
@click.pass_context
@_guarded
def cmd_validate(ctx: click.Context, convention: str, snr_points: int, full: bool) -> None:
    """Cross-check the closed forms against quadrature of their own surrogate,
    and true-tail quadrature against Monte Carlo."""
    if snr_points < 1:
        raise click.UsageError(f"--snr-points must be >= 1, got {snr_points}")
    if snr_points > _MAX_SNR_POINTS:
        raise DomainError(f"--snr-points must be <= {_MAX_SNR_POINTS}, got {snr_points}")
    conv = LinConvention.parse(convention)

    suites: "dict[str, list[tuple[str, str, float, float]]]" = {}
    failures = []
    for suite, func, detail, delta, allowed in _validate_cases(conv, snr_points, full):
        suites.setdefault(suite, []).append((func, detail, delta, allowed))
        if delta > allowed:
            failures.append((suite, func, detail, delta, allowed))

    for suite, cases in suites.items():
        worst = max(cases, key=lambda c: c[2] / c[3] if c[3] > 0 else math.inf)
        bad = [c for c in cases if c[2] > c[3]]
        verdict = "FAIL" if bad else "PASS"
        click.echo(
            f"{suite}: {verdict} ({len(cases)} cases, worst |delta| {worst[2]:.3e} "
            f"vs allowed {worst[3]:.3e} at {worst[0]} {worst[1]})"
        )
    if failures:
        worst = max(failures, key=lambda f: f[3] / f[4] if f[4] > 0 else math.inf)
        click.echo(
            f"worst offender: {worst[1]} ({worst[2]}) |delta|={worst[3]:.6e} "
            f"allowed={worst[4]:.6e}"
        )
        ctx.exit(1)
    click.echo("all validation suites passed")


if __name__ == "__main__":  # pragma: no cover
    main()
