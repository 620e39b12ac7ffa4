"""The benchmark harness in ``perfbench/`` traces the program by replacing
functions at the names their callers look them up by (``cli.fuse``,
``model.conv2d``, ``fusion.lowpass``, ...).  A refactor that removes or
renames one of those names breaks every traced benchmark run, so this
guard installs the harness's wrappers and takes them off again."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from pansharp import model
from pansharp.grad import Tensor

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


def test_traced_convs_name_their_layer_and_padding(monkeypatch):
    """The per-layer conv metrics take each ``grad.conv2d`` call's layer
    from its weight's registered name and its padding from the call, 0
    when the call passes none: a call that stopped passing ``padding=``
    would silently shrink ``grad.conv2d.gflop`` and ``im2col_mib``.  The
    PAN is taller than ``_BAND_ROWS``, so the banded calls, which pad their
    rows by ``pad_rows``, are traced too."""
    tracing = _load_tracing(monkeypatch)
    config = model.TdnetConfig(bands=4, feature_width=4, mscb_width=2)
    params = model.init_params(config, seed=0)
    rows = 2 * model._BAND_ROWS
    lrms = Tensor(np.full((1, 4, rows // 4, 8), 0.5, np.float32))
    pan = Tensor(np.full((1, 1, rows, 32), 0.5, np.float32))
    tracer = tracing.Tracer()
    tracer.register_params(params)
    try:
        tracing.instrument(tracer)
        model.tdnet_forward(lrms, pan, params, config)
    finally:
        tracer.restore()
    convs = [span.attrs for span in tracer.spans if span.name == "grad.conv2d"]
    layers = {key[:-2] for key in params if key.endswith(".w")}
    assert len(convs) > len(layers)  # the banded layers run once per band
    assert {attrs["layer"] for attrs in convs} == layers
    for attrs in convs:
        assert attrs["padding"] == attrs["w"][2] // 2, attrs
