"""Spatial layers vs. loop-based oracles and finite differences."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import pansharp.grad.layers as layers
from pansharp.grad import (
    Tape,
    Tensor,
    avgpool2d,
    bilinear_upsample,
    conv2d,
    conv2d_transpose,
    maxpool2d,
    pixel_shuffle,
)
from helpers import (
    check_op_gradient,
    conv2d_naive,
    conv2d_transpose_naive,
    max_rel_error,
    numeric_gradient,
)


class TestConv2d:
    def test_matches_naive_oracle(self):
        """Vectorized conv equals the quadruple-loop reference."""
        rng = np.random.default_rng(21)
        for k, pad in [(1, 0), (3, 1), (5, 2), (7, 3), (3, 0)]:
            x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
            w = rng.normal(size=(4, 3, k, k)).astype(np.float32)
            b = rng.normal(size=4).astype(np.float32)
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=pad).data
            want = conv2d_naive(x, w, b, pad)
            np.testing.assert_allclose(got, want, rtol=2e-5, atol=2e-5)

    def test_identity_kernel(self):
        """A centered delta kernel reproduces the input."""
        x = np.random.default_rng(1).normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = np.zeros((2, 2, 3, 3), np.float32)
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), None, padding=1).data
        np.testing.assert_array_equal(out, x)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32) * 0.5
        b = rng.normal(size=3).astype(np.float32)
        op = lambda t: conv2d(t[0], t[1], t[2], padding=1)
        for wrt in range(3):
            assert check_op_gradient(op, [x, w, b], wrt=wrt) < 1e-2

    def test_shape_errors_name_dimension(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ValueError, match="3 channels but weight expects 2"):
            conv2d(x, w, None, padding=1)
        with pytest.raises(ValueError, match="odd"):
            conv2d(x, Tensor(np.zeros((4, 3, 4, 4))), None, padding=1)
        with pytest.raises(ValueError, match="too small"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))),
                   None, padding=0)


def _corr2d_reference(x, w, padding, stride):
    """float64 einsum over every window of the padded input."""
    k = w.shape[-1]
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.astype(np.float64), pad)
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("bchwij,ocij->bohw", win, w.astype(np.float64))


class TestCorr2dTiling:
    """The column buffer is cut into chunks of whole images or bands of
    output rows; every cut must give the untiled result."""

    @pytest.mark.parametrize("mode", ["images", "bands", "sub_row"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1), (5, 0),
                                           (5, 2), (7, 0), (7, 3), (4, 1)])
    def test_chunks_match_reference(self, monkeypatch, mode, stride, k, padding):
        rng = np.random.default_rng(31)
        batch, cin, cout = 3, 2, 4
        x = rng.normal(size=(batch, cin, 15, 11)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        ho = (15 + 2 * padding - k) // stride + 1
        wo = (11 + 2 * padding - k) // stride + 1
        per_row = cin * k * k * wo
        rows = {"images": ho, "bands": ho // 2 + 1, "sub_row": 1}[mode]
        budget = {"images": 2 * per_row * ho, "bands": rows * per_row,
                  "sub_row": per_row - 1}[mode]
        monkeypatch.setattr(layers, "_COL_BUDGET", budget)
        bands = []

        def recording_view(band, *args, **kwargs):
            bands.append(band.shape)
            return sliding_window_view(band, *args, **kwargs)

        monkeypatch.setattr(layers, "sliding_window_view", recording_view)
        got = layers._corr2d(x, w, padding, stride)

        np.testing.assert_allclose(got, _corr2d_reference(x, w, padding, stride),
                                   rtol=1e-5, atol=1e-5)
        out_rows = [(shape[2] - k) // stride + 1 for shape in bands]
        if mode == "images":
            assert [shape[0] for shape in bands] == [2, 1]
            assert out_rows == [ho, ho]
        else:
            assert all(shape[0] == 1 for shape in bands)
            per_image = [rows] * (ho // rows) + ([ho % rows] if ho % rows else [])
            assert out_rows == per_image * batch
            if mode == "bands":
                assert ho % rows, "the band case must leave a remainder band"

    def test_column_scratch_is_bounded(self, monkeypatch):
        """One 7x7 layer on a 192^2 image allocates at most two column
        budgets beyond its padded input and output; its untiled columns
        would take 115 MB."""
        monkeypatch.setattr(layers, "_COL_BUDGET", 1 << 20)
        rng = np.random.default_rng(32)
        x = rng.normal(size=(1, 16, 192, 192)).astype(np.float32)
        w = rng.normal(size=(16, 16, 7, 7)).astype(np.float32)
        padded_bytes = 16 * 198 * 198 * 4
        tracemalloc.start()
        try:
            out = layers._corr2d(x, w, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 16, 192, 192)
        scratch = peak - padded_bytes - out.nbytes
        assert scratch < 2 * layers._COL_BUDGET * 4, scratch


def _weight_grad_reference(x, g, k, padding, stride):
    """float64 einsum of every window of the padded input with g."""
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.astype(np.float64), pad)
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("bchwij,bohw->ocij", win, g.astype(np.float64))


class TestCorr2dWeightGrad:
    """The weight gradient multiplies g against the forward's column
    chunks; every cut must give the unchunked float64 result."""

    @pytest.mark.parametrize("mode", ["images", "bands", "sub_row"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1), (4, 0),
                                           (4, 1), (5, 0), (5, 2), (7, 0),
                                           (7, 3)])
    def test_chunks_match_reference(self, monkeypatch, mode, stride, k, padding):
        rng = np.random.default_rng(33)
        batch, cin, cout = 3, 2, 4
        x = rng.normal(size=(batch, cin, 15, 11)).astype(np.float32)
        ho = (15 + 2 * padding - k) // stride + 1
        wo = (11 + 2 * padding - k) // stride + 1
        g = rng.normal(size=(batch, cout, ho, wo)).astype(np.float32)
        per_row = cin * k * k * wo
        rows = {"images": ho, "bands": ho // 2 + 1, "sub_row": 1}[mode]
        budget = {"images": 2 * per_row * ho, "bands": rows * per_row,
                  "sub_row": per_row - 1}[mode]
        monkeypatch.setattr(layers, "_COL_BUDGET", budget)
        images = []

        def recording_view(band, *args, **kwargs):
            images.append(band.shape[0])
            return sliding_window_view(band, *args, **kwargs)

        monkeypatch.setattr(layers, "sliding_window_view", recording_view)
        got = layers._corr2d_weight_grad(x, g, k, padding, stride)

        assert got.shape == (cout, cin, k, k) and got.dtype == np.float32
        np.testing.assert_allclose(
            got, _weight_grad_reference(x, g, k, padding, stride),
            rtol=1e-5, atol=1e-5)
        bands_per_image = -(-ho // rows)
        assert images == ([2, 1] if mode == "images"
                          else [1] * (batch * bands_per_image))
        if mode == "bands":
            assert ho % rows, "the band case must leave a remainder band"

    def test_column_scratch_is_bounded(self, monkeypatch):
        """The weight gradient of one 7x7 layer on a 192^2 image allocates
        at most two column budgets beyond its padded input; its unchunked
        columns would take 115 MB."""
        monkeypatch.setattr(layers, "_COL_BUDGET", 1 << 20)
        rng = np.random.default_rng(34)
        x = rng.normal(size=(1, 16, 192, 192)).astype(np.float32)
        g = rng.normal(size=(1, 16, 192, 192)).astype(np.float32)
        padded_bytes = 16 * 198 * 198 * 4
        tracemalloc.start()
        try:
            gw = layers._corr2d_weight_grad(x, g, 7, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gw.shape == (16, 16, 7, 7)
        scratch = peak - padded_bytes
        assert scratch < 2 * layers._COL_BUDGET * 4, scratch


class TestConv2dTranspose:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 4, 4, 4)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        got = conv2d_transpose(Tensor(x), Tensor(w), Tensor(b)).data
        want = conv2d_transpose_naive(x, w, b, stride=2, padding=1)
        assert got.shape == (2, 4, 10, 10)
        np.testing.assert_allclose(got, want, rtol=2e-5, atol=2e-5)

    def test_gradients_match_oracle_finite_differences(self):
        """Backward pass vs float64 central differences of the naive oracle."""
        rng = np.random.default_rng(24)
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        w = rng.normal(size=(2, 3, 4, 4)).astype(np.float32) * 0.5
        b = rng.normal(size=3).astype(np.float32)
        tx = Tensor(x, requires_grad=True)
        tw = Tensor(w, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        with Tape():
            loss = conv2d_transpose(tx, tw, tb).sum()
        loss.backward()
        for tensor, arr in [(tx, x), (tw, w), (tb, b)]:
            a64 = arr.astype(np.float64)
            probe = {"x": a64 if tensor is tx else x.astype(np.float64),
                     "w": a64 if tensor is tw else w.astype(np.float64),
                     "b": a64 if tensor is tb else b.astype(np.float64)}
            f = lambda: conv2d_transpose_naive(
                probe["x"], probe["w"], probe["b"], stride=2, padding=1).sum()
            numeric = numeric_gradient(f, a64, h=1e-5)
            assert max_rel_error(tensor.grad, numeric) < 1e-4


class TestPooling:
    def test_maxpool_values_and_first_tie_wins(self):
        x = np.array([[[[1.0, 1.0, 0.0, 2.0],
                        [1.0, 0.5, 2.0, 1.0],
                        [0.0, 0.0, 3.0, 3.0],
                        [0.0, 0.0, 3.0, 3.0]]]], np.float32)
        t = Tensor(x, requires_grad=True)
        with Tape():
            y = maxpool2d(t, 2)
            loss = y.sum()
        loss.backward()
        np.testing.assert_array_equal(y.data[0, 0], [[1.0, 2.0], [0.0, 3.0]])
        # Ties route all gradient to the first window entry in scan order.
        expect = np.array([[1, 0, 0, 1],
                           [0, 0, 0, 0],
                           [1, 0, 1, 0],
                           [0, 0, 0, 0]], np.float32)
        np.testing.assert_array_equal(t.grad[0, 0], expect)

    def test_maxpool_divisibility_error(self):
        with pytest.raises(ValueError, match="divisible"):
            maxpool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)

    def test_maxpool_gradient_matches_finite_differences(self):
        # Distinct values so the argmax is stable under the probe step.
        rng = np.random.default_rng(25)
        x = (rng.permutation(64).reshape(1, 1, 8, 8) * 0.1).astype(np.float32)
        assert check_op_gradient(lambda t: maxpool2d(t[0], 2), [x], wrt=0) < 1e-2

    def test_avgpool_is_box_mean(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        got = avgpool2d(Tensor(x), 2).data
        want = x.reshape(2, 3, 3, 2, 3, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(got, want, atol=1e-6)
        assert check_op_gradient(lambda t: avgpool2d(t[0], 3), [x], wrt=0) < 1e-2


class TestPixelShuffle:
    def test_index_formula(self):
        """out[b, c, s*y+dy, s*x+dx] == in[b, c*s*s + dy*s + dx, y, x]"""
        rng = np.random.default_rng(27)
        s = 2
        x = rng.normal(size=(2, 8, 3, 4)).astype(np.float32)
        y = pixel_shuffle(Tensor(x), s).data
        assert y.shape == (2, 2, 6, 8)
        for b in range(2):
            for c in range(2):
                for yy in range(3):
                    for xx in range(4):
                        for dy in range(s):
                            for dx in range(s):
                                assert (y[b, c, s * yy + dy, s * xx + dx]
                                        == x[b, c * s * s + dy * s + dx, yy, xx])

    def test_channel_divisibility_error(self):
        with pytest.raises(ValueError, match="divisible"):
            pixel_shuffle(Tensor(np.zeros((1, 6, 2, 2))), 2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(1, 8, 3, 3)).astype(np.float32)
        assert check_op_gradient(lambda t: pixel_shuffle(t[0], 2), [x], wrt=0) < 1e-2


class TestBilinearUpsample:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 4, 4), 0.7, np.float32))
        y = bilinear_upsample(x, 2).data
        np.testing.assert_allclose(y, 0.7, rtol=1e-6)
        assert y.shape == (1, 2, 8, 8)

    def test_linear_ramp_preserved_in_interior(self):
        """Bilinear interpolation reproduces a linear ramp away from edges."""
        ramp = np.arange(8, dtype=np.float32).reshape(1, 1, 1, 8).repeat(8, axis=2)
        y = bilinear_upsample(Tensor(ramp), 2).data[0, 0]
        # Interior output x=3 sits at source coord 1.25 -> value 1.25.
        assert y[4, 3] == pytest.approx(1.25, abs=1e-6)
        assert y[4, 4] == pytest.approx(1.75, abs=1e-6)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        for s in (2, 4):
            assert check_op_gradient(
                lambda t: bilinear_upsample(t[0], s), [x], wrt=0) < 1e-2
