"""The benchmark harness in ``perfbench/`` traces the program by replacing
functions at the names their callers look them up by (``cli.fuse``,
``model.conv2d``, ``fusion.lowpass``, ...).  A refactor that removes or
renames one of those names breaks every traced benchmark run, so this
guard installs the harness's wrappers and takes them off again."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
BINDING_SITES = 37


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_binding_site_resolves_and_restores(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)  # AttributeError names a missing site
        saved = list(tracer._saved)
        assert all(getattr(module, attr) is not original
                   for module, attr, original in saved)
    finally:
        tracer.restore()
    sites = [f"{module.__name__}.{attr}" for module, attr, _ in saved]
    assert len(sites) == BINDING_SITES, sites
    assert all(callable(original) for _, _, original in saved)
    assert all(getattr(module, attr) is original
               for module, attr, original in saved)
