"""One code path for a single point and for a grid of cells.

The closed forms are written once against a *cells* object, which supplies
the few operations whose behaviour differs between one point (``POINT``)
and a grid (``Grid``):

* ``each(f, x)`` applies a ``math`` function element-wise.  A Python float
  goes straight to ``f``.  A grid calls ``f`` per live cell, because
  numpy's own ``exp``/``expm1``/``sinh``/``log1p`` differ from libm in the
  last bit on a few percent of inputs; +, -, *, / and sqrt stay vectorized,
  since IEEE rounds them exactly either way.  So a grid reproduces the
  point values bit for bit.
* ``fail(mask, exc_type, template, *args)`` is a check: a point raises at
  once; a grid records the exception against every live cell in ``mask``
  and drops those cells from every later step.  A grid cell therefore
  fails exactly where, and with exactly the exception, that the point
  evaluation of the same inputs raises.  Arithmetic errors that ``math``
  raises (``OverflowError``) are recorded the same way.
* ``branch(cond, if_true, if_false, *args)`` evaluates each side on its own
  cells only.

Code written against these objects must not use ``and``/``or``/``not``/``~``
or ``if`` on values that can be arrays: masks combine with ``&`` and ``|``,
which work on Python bools too.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


class _Point:
    """One point: plain floats, and a failed check raises."""

    sqrt = staticmethod(math.sqrt)

    @staticmethod
    def each(f, x):
        return f(x)

    @staticmethod
    def fail(mask, exc_type, template, *args) -> None:
        if mask:
            raise exc_type(template.format(*args))

    @staticmethod
    def take(obj, name: str):
        return getattr(obj, name)

    def branch(self, cond, if_true, if_false, *args):
        return if_true(self, *args) if cond else if_false(self, *args)

    @staticmethod
    def where(cond, a, b):
        return a if cond else b

    @staticmethod
    def same(a, b) -> bool:
        return a == b


POINT = _Point()


def _item(value, i: int):
    return value[i].item() if isinstance(value, np.ndarray) else value


class Grid:
    """A batch of cells evaluated together; failures stay per cell.

    ``failures`` maps a cell's index in the top-level grid to the exception
    its point evaluation raises; ``alive`` marks the cells still evaluated.
    Run grid arithmetic under ``np.errstate(all="ignore")``: failed cells
    carry garbage through the array steps that follow.
    """

    sqrt = staticmethod(np.sqrt)

    def __init__(self, size: int, index: "np.ndarray | None" = None,
                 failures: "dict[int, Exception] | None" = None) -> None:
        self.alive = np.ones(size, dtype=bool)
        self.index = np.arange(size) if index is None else index
        self.failures = {} if failures is None else failures

    def _drop(self, i: int, exc: Exception) -> None:
        self.failures[int(self.index[i])] = exc
        self.alive[i] = False

    def each(self, f, x: np.ndarray) -> np.ndarray:
        out = np.full(self.alive.shape, np.nan)
        live = np.flatnonzero(self.alive)
        values = x[live].tolist()
        try:
            out[live] = np.fromiter(map(f, values), float, len(values))
        except (ArithmeticError, ValueError):
            for i, v in zip(live.tolist(), values):
                try:
                    out[i] = f(v)
                except (ArithmeticError, ValueError) as exc:
                    self._drop(i, exc)
        return out

    def fail(self, mask, exc_type, template, *args) -> None:
        for i in np.flatnonzero(mask & self.alive).tolist():
            self._drop(i, exc_type(template.format(*(_item(a, i) for a in args))))

    def take(self, obj, name: str):
        """An attribute of a batch of topologies; when computing it raised,
        every live cell fails with that exception."""
        exc = obj.raised.get(name)
        if exc is not None:
            for i in np.flatnonzero(self.alive).tolist():
                self._drop(i, exc)
        return getattr(obj, name)

    def branch(self, cond, if_true, if_false, *args) -> np.ndarray:
        out = np.full(self.alive.shape, np.nan)
        for f, mask in ((if_true, cond), (if_false, ~cond)):
            sel = np.flatnonzero(mask & self.alive)
            if sel.size:
                sub = Grid(sel.size, self.index[sel], self.failures)
                out[sel] = f(sub, *(a[sel] if isinstance(a, np.ndarray) else a for a in args))
                self.alive[sel] = sub.alive
        return out

    @staticmethod
    def where(cond, a, b) -> np.ndarray:
        return np.where(cond, a, b)

    @staticmethod
    def same(a, b) -> bool:
        return bool(np.array_equal(a, b))
