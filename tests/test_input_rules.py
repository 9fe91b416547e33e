"""Input rules written once and shared by the point and the batch paths.

The SNR, blocklength/rate and density-mean checks each have one definition
against ``_cells``.  These tests pin the messages the value types and the
quadrature oracle raise for int, float and numpy inputs, and check that a
``Grid`` fails each cell with the error its point evaluation raises.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest

from fbrelay import DomainError, ExponentialDensity, HypoexpParams, SnrValue
from fbrelay._cells import POINT, Grid
from fbrelay._estimates import check_mean
from fbrelay.closed_form import check_means
from fbrelay.finite_blocklength import check_code, check_snr
from fbrelay.oracles import fading_outage_quadrature

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
