"""Input rules written once and shared by the point and the batch paths.

The SNR, blocklength/rate and density-mean checks each have one definition
against ``_cells``.  These tests pin the messages the value types and the
quadrature oracle raise for int, float and numpy inputs, and check that a
``Grid`` fails each cell with the error its point evaluation raises.  The
integer rule, ``_estimates.as_int``, is likewise one definition read by the
drivers' grids, the Monte Carlo backend and oracle, and the CLI's counts.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from fbrelay import (
    Backend,
    DomainError,
    ExponentialDensity,
    FbrelayError,
    HypoexpParams,
    SnrValue,
    TopologyConfig,
    reliability_region,
    sweep,
)
from fbrelay._cells import POINT, Grid
from fbrelay._estimates import as_int, check_mean
from fbrelay.cli import main
from fbrelay.closed_form import check_means
from fbrelay.finite_blocklength import check_code, check_snr
from fbrelay.oracles import fading_outage_mc, fading_outage_quadrature

SNR = "SNR must be a finite nonnegative ratio, got "
EXP = "exponential mean must be positive and finite, got "
BIG = 10 ** 400

PINNED = [
    (SnrValue, -1, SNR + "-1"),
    (SnrValue, -1.0, SNR + "-1.0"),
    (SnrValue, math.nan, SNR + "nan"),
    (SnrValue, math.inf, SNR + "inf"),
    (SnrValue, np.int64(-1), SNR + "np.int64(-1)"),
    (SnrValue, np.float64(-1.0), SNR + "np.float64(-1.0)"),
    (SnrValue, np.float64(math.nan), SNR + "np.float64(nan)"),
    (SnrValue, np.float32(-1.0), SNR + "np.float32(-1.0)"),
    (ExponentialDensity, 0, EXP + "0"),
    (ExponentialDensity, -1, EXP + "-1"),
    (ExponentialDensity, 0.0, EXP + "0.0"),
    (ExponentialDensity, math.nan, EXP + "nan"),
    (ExponentialDensity, math.inf, EXP + "inf"),
    (ExponentialDensity, np.int64(3), EXP + "np.int64(3)"),
    (ExponentialDensity, np.float64(0.0), EXP + "np.float64(0.0)"),
    (ExponentialDensity, np.float64(math.inf), EXP + "np.float64(inf)"),
    (ExponentialDensity, np.float32(2.0), EXP + "np.float32(2.0)"),
    (ExponentialDensity, None, EXP + "None"),
    (lambda v: HypoexpParams(v, 2.0), 0, "omega_z must be a positive finite mean, got 0"),
    (lambda v: HypoexpParams(v, 2.0), -1.0, "omega_z must be a positive finite mean, got -1.0"),
    (lambda v: HypoexpParams(v, 2.0), math.nan, "omega_z must be a positive finite mean, got nan"),
    (lambda v: HypoexpParams(v, 2.0), np.int64(2),
     "omega_z must be a positive finite mean, got np.int64(2)"),
    (lambda v: HypoexpParams(v, 2.0), np.float64(-2.0),
     "omega_z must be a positive finite mean, got np.float64(-2.0)"),
    (lambda v: HypoexpParams(v, 2.0), np.float32(1.0),
     "omega_z must be a positive finite mean, got np.float32(1.0)"),
    (lambda v: HypoexpParams(2.0, v), 0, "omega_y must be a positive finite mean, got 0"),
    (lambda v: HypoexpParams(2.0, v), math.inf, "omega_y must be a positive finite mean, got inf"),
    (lambda v: HypoexpParams(2.0, v), np.float64(0.0),
     "omega_y must be a positive finite mean, got np.float64(0.0)"),
    (lambda v: HypoexpParams(v, v), -1, "omega_z must be a positive finite mean, got -1"),
    (lambda v: fading_outage_quadrature(v, 0.5, 10.0), 0, "blocklength must be >= 1, got 0"),
    (lambda v: fading_outage_quadrature(v, 0.5, 10.0), -5, "blocklength must be >= 1, got -5"),
    (lambda v: fading_outage_quadrature(v, 0.5, 10.0), np.int64(0),
     "blocklength must be >= 1, got np.int64(0)"),
    (lambda v: fading_outage_quadrature(v, 0.5, 10.0), 0.0, "blocklength must be >= 1, got 0.0"),
    (lambda v: fading_outage_quadrature(v, 0.5, 10.0), BIG,
     "blocklength exceeds the largest double, 1.7976931348623157e+308"),
    (lambda v: fading_outage_quadrature(500, v, 10.0), 0,
     "rate must be a positive finite number, got 0"),
    (lambda v: fading_outage_quadrature(500, v, 10.0), -1.0,
     "rate must be a positive finite number, got -1.0"),
    (lambda v: fading_outage_quadrature(500, v, 10.0), math.nan,
     "rate must be a positive finite number, got nan"),
    (lambda v: fading_outage_quadrature(500, v, 10.0), math.inf,
     "rate must be a positive finite number, got inf"),
    (lambda v: fading_outage_quadrature(500, v, 10.0), np.float64(-0.5),
     "rate must be a positive finite number, got np.float64(-0.5)"),
    (lambda v: fading_outage_quadrature(500, v, 10.0), np.int64(0),
     "rate must be a positive finite number, got np.int64(0)"),
    (lambda v: fading_outage_quadrature(500, 0.5, v), -1, EXP + "-1.0"),
    (lambda v: fading_outage_quadrature(500, 0.5, v), np.float64(math.inf), EXP + "inf"),
    (lambda v: fading_outage_quadrature(500, 0.5, v), np.int64(-1),
     "cannot interpret np.int64(-1) as a channel density"),
    (ExponentialDensity, True, EXP + "True"),
    (ExponentialDensity, np.True_, EXP + "np.True_"),
    (lambda v: HypoexpParams(v, 2.0), True, "omega_z must be a positive finite mean, got True"),
    (lambda v: HypoexpParams(2.0, v), False, "omega_y must be a positive finite mean, got False"),
    (lambda v: HypoexpParams(2.0, v), np.False_,
     "omega_y must be a positive finite mean, got np.False_"),
    (lambda v: fading_outage_quadrature(500, 0.5, v), True,
     "cannot interpret True as a channel density"),
    (lambda v: fading_outage_quadrature(500, 0.5, v), np.True_,
     "cannot interpret np.True_ as a channel density"),
    (lambda v: fading_outage_mc(500, 0.5, v, 20000, 1), False,
     "cannot interpret False as a channel density"),
]


@pytest.mark.parametrize("make, value, message", PINNED)
def test_message_as_the_caller_gave_the_value(make, value, message):
    with pytest.raises(DomainError) as info:
        make(value)
    assert str(info.value) == message


@pytest.mark.parametrize("make", [SnrValue, ExponentialDensity,
                                  lambda v: HypoexpParams(v, 2.0)])
def test_ints_past_the_largest_double_do_not_convert(make):
    # converted to float before the check, as the value types always have
    for value in (BIG, -BIG):
        with pytest.raises(OverflowError):
            make(value)


def _grid_messages(rule, *columns):
    grid = Grid(len(columns[0]))
    rule(grid, *(np.asarray(c) for c in columns))
    return [str(grid.failures[i]) if i in grid.failures else None for i in range(grid.alive.size)]


def _point_messages(rule, *columns):
    out = []
    for values in zip(*columns):
        try:
            rule(POINT, *values)
        except DomainError as exc:
            out.append(str(exc))
        else:
            out.append(None)
    return out


FLOATS = [1.0, 0.0, -0.0, -2.5, math.nan, math.inf, -math.inf, 5e-324, 1e308]


@pytest.mark.parametrize("rule, columns", [
    (lambda cells, v: check_snr(cells, v), [FLOATS]),
    (lambda cells, v: check_snr(cells, v, positive=True), [FLOATS]),
    (check_mean, [FLOATS]),
    (check_means, [FLOATS, FLOATS[::-1]]),
    (check_code, [[500, 0, -3, 1, 2, 100, 7, 8, 9], FLOATS]),
], ids=["snr", "snr-positive", "mean", "means", "code"])
def test_grid_fails_each_cell_as_its_point_does(rule, columns):
    assert _grid_messages(rule, *columns) == _point_messages(rule, *columns)


def test_each_message_is_read_only_where_it_is_defined():
    # a rule's message is formatted by the one check that owns it, so no
    # other module needs the constant to keep a copy of the rule in step
    src = Path(__file__).resolve().parent.parent / "src" / "fbrelay"
    texts = {path.name: path.read_text(encoding="utf-8") for path in src.glob("*.py")}
    owners = {name: module for module, text in texts.items()
              for name in re.findall(r"^([A-Z][A-Z_]*_MESSAGE) = ", text, re.MULTILINE)}
    assert len(owners) == 6
    for name, owner in owners.items():
        readers = [module for module, text in texts.items() if re.search(rf"\b{name}\b", text)]
        assert readers == [owner], name


TEN_DB = SnrValue.from_db(10.0)
CFG = TopologyConfig(total_snr=TEN_DB, eta=0.5)
SEED = "seed must be a nonnegative integer, got "


@pytest.mark.parametrize("trials, seed, message", [
    (20000.9, 7, "trials must be integers, got 20000.9"),
    (20000, 7.9, SEED + "7.9"),
    (20000, -1, SEED + "-1"),
    (20000, True, SEED + "True"),
    (True, 7, "trials must be integers, got True"),
])
def test_monte_carlo_backend_refuses_what_it_once_truncated(trials, seed, message):
    with pytest.raises(DomainError) as info:
        Backend.monte_carlo(trials, seed)
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 20000.5, "seed": 1}, "trials must be integers, got 20000.5"),
    ({"trials": 20000, "seed": 1.5}, SEED + "1.5"),
    ({"trials": 20000, "seed": -3}, SEED + "-3"),
    ({"trials": 20000, "seed": np.int64(-3)}, SEED + "-3"),
    ({"trials": 20000, "seed": 1, "partitions": 2.5}, "partitions must be integers, got 2.5"),
    ({"trials": 20000, "seed": 1, "partitions": 0}, "partitions must be >= 1, got 0"),
])
def test_monte_carlo_oracle_refuses_before_drawing(kwargs, message):
    with pytest.raises(DomainError) as info:
        fading_outage_mc(500, 0.5, 10.0, **kwargs)
    assert str(info.value) == message


def test_integral_counts_read_as_their_ints():
    # an integral float or numpy scalar is the int it equals, bit for bit
    want = fading_outage_mc(500, 0.5, 10.0, 20000, 7, partitions=4)
    got = fading_outage_mc(500, 0.5, 10.0, 20000.0, np.int64(7), partitions=np.float64(4.0))
    assert got == want and type(got.trials) is int and type(got.seed) is int
    mc = Backend.monte_carlo(np.float64(20000.0), np.uint16(7))
    assert (mc.trials, mc.seed) == (20000, 7)
    assert (type(mc.trials), type(mc.seed)) == (int, int)


def test_numpy_bools_are_refused_as_bools_are():
    with pytest.raises(DomainError) as info:
        Backend.monte_carlo(20000, np.True_)
    assert str(info.value) == SEED + repr(np.True_)
    with pytest.raises(DomainError, match=r"^partitions must be integers, got "):
        fading_outage_mc(500, 0.5, 10.0, 20000, 1, partitions=np.True_)
    (row,) = sweep("dt", CFG, "blocklength", [np.True_], Backend.closed_form())
    shown = repr(np.True_)
    assert row.error == f"blocklength={shown}: blocklength values must be integers, got {shown}"
    with pytest.raises(DomainError, match=r"^n_values must be integers, got "):
        reliability_region("dt", TEN_DB, [np.False_], [1], Backend.closed_form())


def test_drivers_refuse_bools_as_integers():
    (row,) = sweep("dt", CFG, "blocklength", [True], Backend.closed_form())
    assert row.error == "blocklength=True: blocklength values must be integers, got True"
    with pytest.raises(DomainError, match=r"^n_values must be integers, got True$"):
        reliability_region("dt", TEN_DB, [True], [1], Backend.closed_form())


#: Every kind of value a caller may pass for an integer.
VALUES = st.one_of(
    st.sampled_from([
        True, False, np.True_, np.False_,
        0, 1, -1, -3, 2 ** 53 - 1, 2 ** 53 + 1, 10 ** 20, -(10 ** 20),
        0.5, 2.5, -1.0, 20000.0, 20000.5, 1e5, math.inf, -math.inf, math.nan,
        np.int64(20000), np.int32(-3), np.uint8(7), np.float64(20000.0), np.float64(1.5),
        np.float32(math.nan), "20000", "1e5", "-1", "2.5", "nan",
    ]),
    st.integers(-(10 ** 6), 10 ** 6),
    st.floats(),
)


def _at_most(limit):
    """VALUES, less the valid integers above limit: no draw allocates in
    proportion to a huge count."""
    def small(value):
        try:
            return as_int(value, "value") <= limit
        except DomainError:
            return True
    return VALUES.filter(small)


def _returns_or_refuses(call) -> None:
    try:
        call()
    except FbrelayError:
        pass


@settings(max_examples=150, derandomize=True, deadline=None)
@given(trials=VALUES, seed=VALUES, small_trials=_at_most(20000), mc_seed=VALUES,
       partitions=_at_most(8), n=VALUES, k=VALUES)
def test_integer_inputs_return_or_raise_typed_errors(trials, seed, small_trials, mc_seed,
                                                     partitions, n, k):
    for value in (trials, seed, n, k):
        if isinstance(value, (bool, np.bool_)):
            with pytest.raises(DomainError):
                as_int(value, "value")
    _returns_or_refuses(lambda: Backend.monte_carlo(trials, seed))
    _returns_or_refuses(lambda: fading_outage_mc(500, 0.5, 10.0, small_trials, mc_seed,
                                                 partitions=partitions))
    _returns_or_refuses(lambda: sweep("dt", CFG, "blocklength", [n], Backend.closed_form()))
    _returns_or_refuses(lambda: reliability_region("dt", TEN_DB, [n], [k],
                                                   Backend.closed_form()))


def _cli_at_most(limit):
    """Option texts, less those that read as a count above limit."""
    def small(text):
        try:
            return not abs(float(text)) > limit
        except ValueError:
            return True
    return VALUES.map(str).filter(small)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=VALUES.map(str), k=VALUES.map(str), seed=VALUES.map(str),
       trials=_cli_at_most(20000), points=_cli_at_most(5), k_max=_cli_at_most(40))
def test_cli_counts_exit_0_2_or_3(n, k, seed, trials, points, k_max):
    runner = CliRunner()
    for argv in (
        ["outage", "--protocol", "dt", "--n", n, "--k", k],
        ["outage", "--protocol", "dt", "--backend", "mc", "--trials", trials, "--seed", "1"],
        ["outage", "--protocol", "dt", "--backend", "mc", "--trials", "20000", "--seed", seed],
        ["sweep", "--protocol", "dt", "--start", "0", "--stop", "10", "--points", points],
        ["region", "--protocol", "dt", "--k-min", "10", "--k-max", k_max, "--n-min", "100",
         "--n-max", "100"],
    ):
        result = runner.invoke(main, argv)
        assert result.exit_code in (0, 2, 3), (argv, result.output, result.exception)
