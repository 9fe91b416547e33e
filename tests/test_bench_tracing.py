"""The benchmark's tracer still finds every name it wraps.

``bench/worker.py --trace 1`` wraps package functions by the names their
callers bind.  A name the package no longer binds would fail only in the
benchmark's traced run; this loads the worker and installs its tracing
against the sources under test, then takes it off again.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_install_tracing_binds_and_restores():
    saved_path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        fb = worker.load_package(str(ROOT / "src"), with_cli=True)
        modules = (fb.analysis, fb.protocols, fb.closed_form, fb.oracles, fb.cli)
        before = [dict(vars(m)) for m in modules]
        init = fb.protocols.TopologyConfig.__init__

        tracer = worker.Tracer()
        worker.install_tracing(fb, tracer)
        assert fb.protocols.protocol_outage is not before[1]["protocol_outage"]
        tracer.restore()

        for module, names in zip(modules, before):
            for name, value in names.items():
                assert vars(module)[name] is value, f"{module.__name__}.{name}"
        assert fb.protocols.TopologyConfig.__init__ is init
    finally:
        sys.path[:] = saved_path
        for name, module in list(sys.modules.items()):
            if str(getattr(module, "__file__", "") or "").startswith(str(BENCH)):
                del sys.modules[name]
