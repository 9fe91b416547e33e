"""In-memory spans and counts at the package's module boundaries.

The tracer replaces a public name *as bound in the calling module* (for
example ``fbrelay.protocols.rayleigh_outage``, the name ``protocol_outage``
calls) with a wrapper, and puts the original back on ``restore``.  Nothing in
the package changes.

* A span wrapper records (name, start, end, parent) into flat arrays.  Self
  time is derived afterwards as the span's duration minus the durations of
  its direct children; one thread calls every wrapped name, so children nest.
* A counting wrapper only increments a counter, for callees of about a
  microsecond (the quadrature integrand) where a span would cost more than
  the call.  It can keep the first arguments it sees, so the callee's own
  cost can be measured afterwards by replaying them unwrapped.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._ids: "dict[str, int]" = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: "dict[str, list[int]]" = {}
        self.kept: "dict[str, tuple[object, list]]" = {}
        self._patches: "list[tuple[object, str, object]]" = []

    # --- wrappers ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def counter(self, name: str, fn, keep: int = 0, weight=None):
        """Count calls, or sum ``weight(args)`` over calls when given."""
        cell = self.counts.setdefault(name, [0])
        kept = self.kept.setdefault(name, (fn, []))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1 if weight is None else weight(args)
            if len(kept) < keep:
                kept.append(args)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: str, *, count_only: bool = False,
              keep: int = 0, weight=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if count_only:
            wrapped = self.counter(name, original, keep, weight)
        else:
            wrapped = self.span(name, original)
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- analysis -----------------------------------------------------------

    def replay_us(self, name: str, repeats: int = 5) -> float:
        """Median over repeats of the mean cost per call, in microseconds, of
        the unwrapped callee on the arguments the counter kept."""
        fn, kept = self.kept.get(name, (None, []))
        if not kept:
            return 0.0
        clock = time.perf_counter
        runs = []
        for _ in range(repeats):
            t0 = clock()
            for args in kept:
                fn(*args)
            runs.append((clock() - t0) / len(kept) * 1e6)
        return statistics.median(runs)

    def _durations(self):
        """(name id, parent index, duration, self time) of every span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return ids, parent, dur, dur - child_time

    def summary(self) -> "dict[str, dict[str, object]]":
        """Per span name: calls, total seconds, self seconds, and the number
        of direct children per child name."""
        ids, parent, dur, self_time = self._durations()
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selfs = np.bincount(ids, weights=self_time, minlength=k)
        nested = parent >= 0
        edge = np.bincount(ids[parent[nested]] * k + ids[nested], minlength=k * k).reshape(k, k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
                "children": {self.names[j]: int(edge[i, j]) for j in range(k) if edge[i, j]},
            }
            for i, name in enumerate(self.names)
        }

    def spans_of(self, name: str) -> "tuple[np.ndarray, np.ndarray]":
        """(duration, self time) of every span with this name, in order."""
        ids, _parent, dur, self_time = self._durations()
        mask = ids == self._ids.get(name, -1)
        return dur[mask], self_time[mask]

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
