"""Gradient verification harness: registry coverage, a clean sweep over
every op plus the full network, and proof that the harness actually
catches deliberately corrupted gradients and forward passes."""

import time

import numpy as np
import pytest

import pansharp.grad
import pansharp.model
from pansharp.errors import NumericError
from pansharp.gradcheck import (
    GradCheckRow,
    OP_CHECKS,
    THRESHOLD,
    model_gradient_error,
    run_gradcheck,
)
from pansharp.grad.tensor import Tape, Tensor
from pansharp.model import TdnetConfig


EXPECTED_OPS = [
    "add", "mul", "scale", "tensor_sum", "relu", "sigmoid", "concat",
    "l1_loss", "conv2d", "conv2d_edge_rows", "conv2d_transpose", "maxpool2d",
    "avgpool2d",
    "pixel_shuffle", "bilinear_upsample",
    "divide_by_constant",
]


class TestRegistry:
    def test_covers_every_differentiable_op(self):
        """One check per backward-capable op, in a stable report order."""
        assert list(OP_CHECKS) == EXPECTED_OPS

    def test_registered_names_exist_in_engine(self):
        """Each row checks an engine op; ``conv2d_edge_rows`` checks conv2d
        with one edge's row padding left out."""
        for name in EXPECTED_OPS:
            op = name.removesuffix("_edge_rows")
            assert callable(getattr(pansharp.grad, op))

    def test_row_pass_logic(self):
        assert GradCheckRow("x", 9e-3).passed
        assert not GradCheckRow("x", 2e-2).passed
        assert not GradCheckRow("x", float("nan")).passed


class TestCleanSweep:
    def test_all_rows_pass(self):
        """Fresh engine: every op and the full network stay under 1e-2."""
        start = time.monotonic()
        rows = run_gradcheck(seed=0)
        elapsed = time.monotonic() - start
        assert [r.name for r in rows] == EXPECTED_OPS + ["tdnet_forward"]
        for row in rows:
            assert row.max_rel_error < THRESHOLD, (row.name, row.max_rel_error)
        assert elapsed < 60.0

    def test_sweep_is_deterministic(self):
        a = run_gradcheck()
        b = run_gradcheck()
        assert [(r.name, r.max_rel_error) for r in a] == \
               [(r.name, r.max_rel_error) for r in b]


class TestModelRow:
    def test_default_model_under_threshold(self):
        assert model_gradient_error(seed=0) < THRESHOLD

    def test_tiny_config_under_threshold(self):
        cfg = TdnetConfig(bands=2, feature_width=4, mscb_kernels=(3,),
                          mscb_width=3)
        assert model_gradient_error(cfg, seed=1) < THRESHOLD


class TestSabotage:
    """The harness must flag gradients and forwards that are wrong."""

    def test_corrupted_relu_backward_is_caught(self, monkeypatch):
        real_relu = pansharp.grad.relu

        def crooked_relu(a):
            out = Tensor(np.maximum(a.data, 0.0).astype(a.data.dtype))
            tape = Tape.active()
            if tape is not None and a.requires_grad:
                def backward_fn(g):
                    # wrong slope on the active side
                    a.accumulate_grad(g * (a.data > 0) * 1.5)
                tape.record(out, backward_fn)
            return out

        monkeypatch.setattr(pansharp.grad, "relu", crooked_relu)
        assert OP_CHECKS["relu"]() > THRESHOLD
        monkeypatch.setattr(pansharp.grad, "relu", real_relu)
        assert OP_CHECKS["relu"]() < THRESHOLD

    def test_corrupted_conv_backward_is_caught(self, monkeypatch):
        real_conv = pansharp.grad.conv2d

        def crooked_conv(x, w, b, padding=0):
            # true forward, but the cotangent reaching it is inflated so
            # every input gradient comes out 1.5x too large
            inner = real_conv(x, w, b, padding)
            out = Tensor(inner.data)
            tape = Tape.active()
            if tape is not None:
                def backward_fn(g):
                    inner.accumulate_grad(g * 1.5)
                tape.record(out, backward_fn)
            return out

        monkeypatch.setattr(pansharp.grad, "conv2d", crooked_conv)
        assert OP_CHECKS["conv2d"]() > THRESHOLD

    def test_shifted_forward_trips_parity_guard(self, monkeypatch):
        """If the engine forward drifts from the double-precision
        reference, the model row refuses to report a number."""
        real_forward = pansharp.model.tdnet_forward

        def shifted_forward(*args, **kwargs):
            out = real_forward(*args, **kwargs)
            out.ms_hat.data[...] += 0.01
            return out

        monkeypatch.setattr(pansharp.model, "tdnet_forward", shifted_forward)
        with pytest.raises(NumericError, match="disagree"):
            model_gradient_error(seed=0)
