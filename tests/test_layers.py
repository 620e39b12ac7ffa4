"""Spatial layers vs. loop-based oracles and finite differences."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import pansharp.grad.layers as layers
from pansharp.grad.tensor import Concat
from pansharp.grad import (
    Tape,
    Tensor,
    avgpool2d,
    bilinear_upsample,
    concat,
    conv2d,
    conv2d_transpose,
    maxpool2d,
    mul,
    pixel_shuffle,
    tensor_sum,
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
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(2, np.float32)),
                     padding=1).data
        np.testing.assert_array_equal(out, x)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32) * 0.5
        b = rng.normal(size=3).astype(np.float32)
        op = lambda t: conv2d(t[0], t[1], t[2], padding=1)
        for wrt in range(3):
            assert check_op_gradient(op, [x, w, b], wrt=wrt) < 1e-2

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("width", [16, 37])
    def test_rows_cut_from_a_taller_map(self, k, width):
        """A band of rows, zero-padded only at the map's own top or bottom,
        gives the rows of the whole map's conv that it holds, bit for bit,
        whether 16 divides the width or not."""
        p = k // 2
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 3, 40, width)).astype(np.float32)
        w = rng.normal(size=(4, 3, k, k)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        whole = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=p).data
        for lo, hi, pad_rows in [(0, 20, (p, 0)), (10, 30, (0, 0)),
                                 (17, 40, (0, p)), (0, 40, (p, p))]:
            got = conv2d(Tensor(x[:, :, lo:hi]), Tensor(w), Tensor(b), padding=p,
                         pad_rows=pad_rows).data
            first = lo + p - pad_rows[0]  # the whole map's row of got's first
            assert got.shape == (2, 4, hi - lo + sum(pad_rows) - 2 * p, width)
            np.testing.assert_array_equal(got, whole[:, :, first:first + got.shape[2]])

    @pytest.mark.parametrize("pad_rows", [(0, 1), (1, 0), (0, 0), (2, 1)])
    def test_edge_row_padding_gradients(self, pad_rows):
        """The backward pads each edge's rows by k - 1 - p for a forward
        padding p there, input and weight gradients alike.  The conv is
        linear in each argument, so a wide step, as the gradient sweep takes
        for linear ops, has no truncation error and less float32 rounding."""
        rng = np.random.default_rng(25)
        x = rng.normal(size=(2, 2, 6, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32) * 0.5
        b = rng.normal(size=3).astype(np.float32)
        op = lambda t: conv2d(t[0], t[1], t[2], padding=1, pad_rows=pad_rows)
        for wrt in range(3):
            assert check_op_gradient(op, [x, w, b], wrt=wrt, h=5e-2) < 1e-2

    def test_shape_errors_name_dimension(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        b4, b1 = Tensor(np.zeros(4)), Tensor(np.zeros(1))
        with pytest.raises(ValueError, match="3 channels but weight expects 2"):
            conv2d(x, w, b4, padding=1)
        with pytest.raises(ValueError, match="odd"):
            conv2d(x, Tensor(np.zeros((4, 3, 4, 4))), b4, padding=1)
        with pytest.raises(ValueError, match="too small"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))),
                   b1, padding=0)

    def test_negative_padding_rejected(self):
        x = Tensor(np.zeros((1, 1, 6, 6)))
        with pytest.raises(ValueError, match="padding must be >= 0, got -1"):
            conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)),
                   padding=-1)
        with pytest.raises(ValueError, match=r"padding must be >= 0, got 1 \(rows 0, -1\)"):
            conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)),
                   padding=1, pad_rows=(0, -1))


def _corr2d_reference(x, w, padding, pad_rows=None):
    """float64 einsum over every window of the padded input."""
    k = w.shape[-1]
    pad = ((0, 0), (0, 0), pad_rows or (padding, padding), (padding, padding))
    xp = np.pad(x.astype(np.float64), pad)
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.einsum("bchwij,ocij->bohw", win, w.astype(np.float64))


def _chunk_budget(mode, cin, k, ho, wo, reserve):
    """(padded rows per band, ``_COL_BUDGET``) that makes ``_columns`` cut
    an image's ho + k - 1 padded rows as ``mode`` asks.  A lowered padded
    row holds Ci*k*Wo values, and the budget also holds the caller's
    ``reserve`` values per row and output column (the forward's k*Co
    product rows; none for the weight gradient).  ``sub_row`` is a budget
    below one row, so every chunk is one row."""
    per_row = (cin * k + reserve) * wo
    total = ho + k - 1
    rows = {"images": total, "bands": total // 2 + 1, "sub_row": 1}[mode]
    budget = {"images": 2 * per_row * total,
              "bands": per_row * rows,
              "sub_row": per_row - 1}[mode]
    return rows, budget


def _record_chunks(monkeypatch):
    """Patch ``_columns`` to record each chunk's (b0, b1, q0, q1) after
    checking that its lowered matrix holds one column per padded row,
    image and output column, then zero columns up to a multiple of 16, and
    that the spare block holds ``reserve`` values per column of that."""
    chunks = []
    real = layers._columns

    def recording(xs, k, padding, pad_rows, reserve=0):
        wo = xs[0].shape[3] + 2 * padding - k + 1
        cin = sum(x.shape[1] for x in xs)
        for b0, b1, q0, q1, cols, spare in real(xs, k, padding, pad_rows, reserve):
            used = (b1 - b0) * (q1 - q0) * wo
            assert cols.shape == (cin * k, -(-used // 16) * 16)
            assert not cols[:, used:].any()
            assert spare.size >= reserve * cols.shape[1]
            chunks.append((b0, b1, q0, q1))
            yield b0, b1, q0, q1, cols, spare

    monkeypatch.setattr(layers, "_columns", recording)
    return chunks


def _expected_chunks(mode, batch, total, rows):
    if mode == "images":
        return [(0, 2, 0, total), (2, 3, 0, total)]
    return [(b, b + 1, q0, min(q0 + rows, total))
            for b in range(batch) for q0 in range(0, total, rows)]


class TestCorr2dTiling:
    """The lowered padded rows are cut into chunks of whole images or
    bands of rows; every cut must give the untiled result.  The input is
    one array, or two channel groups that ``_columns`` copies into their
    own slabs, as it does for a channel ``concat``."""

    @pytest.mark.parametrize("mode", ["images", "bands", "sub_row"])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1), (5, 0),
                                           (5, 2), (7, 0), (7, 3), (4, 1)])
    def test_chunks_match_reference(self, monkeypatch, mode, groups, k, padding):
        rng = np.random.default_rng(31)
        batch, cin, cout = 3, 2, 4
        x = rng.normal(size=(batch, cin, 15, 11)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        ho, wo = 15 + 2 * padding - k + 1, 11 + 2 * padding - k + 1
        rows, budget = _chunk_budget(mode, cin, k, ho, wo, k * cout)
        monkeypatch.setattr(layers, "_COL_BUDGET", budget)
        chunks = _record_chunks(monkeypatch)
        got = layers._corr2d(np.split(x, groups, axis=1), w, padding, (padding,) * 2)

        np.testing.assert_allclose(got, _corr2d_reference(x, w, padding),
                                   rtol=1e-5, atol=1e-5)
        total = ho + k - 1
        assert chunks == _expected_chunks(mode, batch, total, rows)
        if mode == "bands":
            assert total % rows, "the band case must leave a remainder band"

    @pytest.mark.parametrize("mode", ["images", "bands", "sub_row"])
    @pytest.mark.parametrize("k,pad_rows", [(3, (0, 1)), (5, (2, 0)), (7, (0, 0)),
                                            (7, (1, 3))])
    def test_edge_rows_chunks_match_reference(self, monkeypatch, mode, k, pad_rows):
        """Rows padded per edge are cut into chunks as the symmetric ones."""
        rng = np.random.default_rng(37)
        batch, cin, cout, padding = 3, 2, 4, k // 2
        x = rng.normal(size=(batch, cin, 15, 11)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        ho, wo = 15 + sum(pad_rows) - k + 1, 11 + 2 * padding - k + 1
        rows, budget = _chunk_budget(mode, cin, k, ho, wo, k * cout)
        monkeypatch.setattr(layers, "_COL_BUDGET", budget)
        chunks = _record_chunks(monkeypatch)
        got = layers._corr2d([x], w, padding, pad_rows)

        np.testing.assert_allclose(got, _corr2d_reference(x, w, padding, pad_rows),
                                   rtol=1e-5, atol=1e-5)
        assert chunks == _expected_chunks(mode, batch, ho + k - 1, rows)

    @pytest.mark.parametrize("batch,cin,size,cout,k", [
        (1, 64, 256, 38, 7),   # scene scale: level2.mix.k7
        (1, 114, 256, 8, 3),   # scene scale: level2.mix.blend
        (1, 64, 256, 64, 3),   # scene scale: pan.res1
        (32, 16, 16, 6, 7),    # smoke scale: level2.mix.k7
        (1, 1, 256, 64, 3),    # scene scale: pan.entry
        (4, 8, 64, 32, 3),     # a deconv stage's sub-pixel conv, 8 -> 4*8
        (1, 114, 37, 8, 3),    # widths 16 does not divide
        (1, 114, 100, 8, 3),
        (1, 64, 37, 38, 7),
        (1, 64, 100, 38, 7),
    ])
    def test_bit_identical_across_budgets(self, monkeypatch, batch, cin, size,
                                          cout, k):
        """The network's own layer shapes give the same bits whether their
        padded rows are cut into bands, whole images or one chunk, also at
        widths 16 does not divide: each GEMM runs on whole 16-column
        blocks, and without them the blend's 114 -> 8 conv at width 100
        moved bits under every cut."""
        padding = k // 2
        rng = np.random.default_rng(35)
        x = rng.normal(size=(batch, cin, size, size)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        outs = []
        for budget in (1 << 16, 1 << 18, 1 << 21, 1 << 28):
            monkeypatch.setattr(layers, "_COL_BUDGET", budget)
            outs.append(layers._corr2d([x], w, padding, (padding,) * 2))
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])

    def test_column_scratch_is_bounded(self, monkeypatch):
        """One 7x7 layer on a 192^2 image allocates at most two column
        budgets besides its output, with no padded copy of its input; its
        untiled im2col columns would take 115 MB."""
        monkeypatch.setattr(layers, "_COL_BUDGET", 1 << 20)
        rng = np.random.default_rng(32)
        x = rng.normal(size=(1, 16, 192, 192)).astype(np.float32)
        w = rng.normal(size=(16, 16, 7, 7)).astype(np.float32)
        tracemalloc.start()
        try:
            out = layers._corr2d([x], w, 3, (3, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 16, 192, 192)
        scratch = peak - out.nbytes
        assert scratch < 2 * layers._COL_BUDGET * 4, scratch


def _conv_and_grads(make_x, w, b, r, padding):
    """conv2d of ``make_x()``, made on the tape, then the backward of
    sum(out * r): the output and the weight and bias gradients."""
    wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape():
        out = conv2d(make_x(), wt, bt, padding=padding)
        loss = tensor_sum(mul(out, Tensor(r)))
    loss.backward()
    return [out.data, wt.grad, bt.grad]


class TestConv2dOverConcat:
    """conv2d lowers a channel concat straight from its parts; that must
    give the bits of conv2d over the concatenated array, forward and
    backward, and never build the concat's array."""

    @pytest.mark.parametrize("mode", ["images", "bands"])
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("widths", [(3, 5), (2, 4, 1)], ids=["3+5", "2+4+1"])
    def test_bit_identical_to_the_concatenated_input(self, monkeypatch, mode, k, widths):
        rng = np.random.default_rng(36)
        batch, cout, padding = 3, 4, k // 2
        parts = [rng.normal(size=(batch, c, 13, 9)).astype(np.float32) for c in widths]
        cin = sum(widths)
        w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        r = rng.normal(size=(batch, cout, 13, 9)).astype(np.float32)
        _, budget = _chunk_budget(mode, cin, k, 13, 9, k * cout)
        monkeypatch.setattr(layers, "_COL_BUDGET", budget)

        whole = Tensor(np.concatenate(parts, axis=1), requires_grad=True)
        bounds = np.cumsum((0,) + widths)
        want = _conv_and_grads(lambda: whole, w, b, r, padding)
        want += [whole.grad[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]

        def unbuilt(self):
            raise AssertionError("the concat's array was built")

        monkeypatch.setattr(Concat, "data", property(unbuilt))
        leaves = [Tensor(p, requires_grad=True) for p in parts]
        got = _conv_and_grads(lambda: concat(leaves), w, b, r, padding)
        got += [t.grad for t in leaves]
        assert len(got) == len(want) == 3 + len(widths)
        for g, wnt in zip(got, want):
            np.testing.assert_array_equal(g, wnt)


def _weight_grad_reference(x, g, k, padding):
    """float64 einsum of every window of the padded input with g."""
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.astype(np.float64), pad)
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.einsum("bchwij,bohw->ocij", win, g.astype(np.float64))


class TestCorr2dWeightGrad:
    """The weight gradient multiplies g against the forward's column
    chunks; every cut must give the unchunked float64 result.  The input
    is one array, or two channel groups, as for a channel ``concat``."""

    @pytest.mark.parametrize("mode", ["images", "bands", "sub_row"])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("k,padding", [(1, 0), (3, 0), (3, 1), (4, 0),
                                           (4, 1), (5, 0), (5, 2), (7, 0),
                                           (7, 3)])
    def test_chunks_match_reference(self, monkeypatch, mode, groups, k, padding):
        rng = np.random.default_rng(33)
        batch, cin, cout = 3, 2, 4
        x = rng.normal(size=(batch, cin, 15, 11)).astype(np.float32)
        ho, wo = 15 + 2 * padding - k + 1, 11 + 2 * padding - k + 1
        g = rng.normal(size=(batch, cout, ho, wo)).astype(np.float32)
        rows, budget = _chunk_budget(mode, cin, k, ho, wo, 0)
        monkeypatch.setattr(layers, "_COL_BUDGET", budget)
        chunks = _record_chunks(monkeypatch)
        got = layers._corr2d_weight_grad(np.split(x, groups, axis=1), g, k,
                                         padding, (padding,) * 2)

        assert got.shape == (cout, cin, k, k) and got.dtype == np.float32
        np.testing.assert_allclose(
            got, _weight_grad_reference(x, g, k, padding),
            rtol=1e-5, atol=1e-5)
        total = ho + k - 1
        assert chunks == _expected_chunks(mode, batch, total, rows)
        if mode == "bands":
            assert total % rows, "the band case must leave a remainder band"

    def test_column_scratch_is_bounded(self, monkeypatch):
        """The weight gradient of one 7x7 layer on a 192^2 image allocates
        at most two column budgets, with no padded copy of its input; its
        unchunked im2col columns would take 115 MB."""
        monkeypatch.setattr(layers, "_COL_BUDGET", 1 << 20)
        rng = np.random.default_rng(34)
        x = rng.normal(size=(1, 16, 192, 192)).astype(np.float32)
        g = rng.normal(size=(1, 16, 192, 192)).astype(np.float32)
        tracemalloc.start()
        try:
            gw = layers._corr2d_weight_grad([x], g, 7, 3, (3, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gw.shape == (16, 16, 7, 7)
        assert peak < 2 * layers._COL_BUDGET * 4, peak


class TestConv2dTranspose:
    def test_matches_naive_oracle(self):
        """One stage, then the single-stage x4 upsampler (``up1`` then
        ``up2``), on a small odd shape and the network's 8-band deconv
        shapes at batch 4."""
        rng = np.random.default_rng(23)
        for shape, cout, stages in [((2, 3, 5, 5), 4, 1), ((4, 8, 16, 16), 8, 1),
                                    ((4, 8, 32, 32), 8, 1), ((4, 8, 16, 16), 8, 2)]:
            got = x = rng.normal(size=shape).astype(np.float32)
            want = x.astype(np.float64)
            for _ in range(stages):
                w = rng.normal(size=(got.shape[1], cout, 4, 4)).astype(np.float32)
                b = rng.normal(size=cout).astype(np.float32)
                got = conv2d_transpose(Tensor(got), Tensor(w), Tensor(b)).data
                want = conv2d_transpose_naive(want, w, b, stride=2, padding=1)
            scale = 2 ** stages
            assert got.shape == (shape[0], cout, scale * shape[2], scale * shape[3])
            np.testing.assert_allclose(got, want, rtol=2e-5, atol=2e-5)

    def test_gradients_match_oracle_finite_differences(self):
        """Backward pass vs float64 central differences of the naive oracle,
        under a random cotangent r (loss = sum(out * r)) on a batch of two
        non-square inputs, so a shifted or transposed subsampling of the
        output gradient cannot cancel out as it can under sum()."""
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 2, 3, 5)).astype(np.float32)
        w = rng.normal(size=(2, 3, 4, 4)).astype(np.float32) * 0.5
        b = rng.normal(size=3).astype(np.float32)
        r = rng.normal(size=(2, 3, 6, 10)).astype(np.float32)
        tx = Tensor(x, requires_grad=True)
        tw = Tensor(w, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        with Tape():
            loss = tensor_sum(mul(conv2d_transpose(tx, tw, tb), Tensor(r)))
        loss.backward()
        for tensor, arr in [(tx, x), (tw, w), (tb, b)]:
            a64 = arr.astype(np.float64)
            probe = {"x": a64 if tensor is tx else x.astype(np.float64),
                     "w": a64 if tensor is tw else w.astype(np.float64),
                     "b": a64 if tensor is tb else b.astype(np.float64)}
            f = lambda: (conv2d_transpose_naive(
                probe["x"], probe["w"], probe["b"], stride=2, padding=1)
                * r).sum()
            numeric = numeric_gradient(f, a64, h=1e-5)
            assert max_rel_error(tensor.grad, numeric) < 1e-4

    def test_kernel_not_4x4_rejected(self):
        """The layer is the network's fixed 4x4, stride-2 upsampler; any
        other kernel is refused with one message."""
        x = Tensor(np.zeros((1, 1, 3, 3)))
        for kh, kw in [(1, 1), (3, 3), (5, 5), (4, 3)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"weight must be (Cin, Cout, 4, 4), got shape (1, 1, {kh}, {kw})")):
                conv2d_transpose(x, Tensor(np.zeros((1, 1, kh, kw))),
                                 Tensor(np.zeros(1)))

    def test_bias_shape_rejected(self):
        """A bias that is not one value per output channel raises in the
        forward, not later in the backward."""
        x = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match=r"bias shape \(1,\) != \(2,\)"):
            conv2d_transpose(x, Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros(1)))


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

    @pytest.mark.parametrize("k", [2, 3])
    def test_maxpool_keeps_first_maximum_bits(self, k):
        """The forward holds the bits of each window's first maximal entry,
        as the argmax over the window does: NaN wins, and of tied +0.0 and
        -0.0 the earlier one is kept."""
        rng = np.random.default_rng(26)
        values = np.array([-0.0, 0.0, 1.0, -1.0, np.nan], np.float32)
        x = rng.choice(values, size=(2, 3, 6 * k, 6 * k))
        windows = x.reshape(2, 3, 6, k, 6, k).transpose(0, 1, 2, 4, 3, 5)
        windows = windows.reshape(2, 3, 6, 6, k * k)
        first = np.take_along_axis(windows, windows.argmax(-1)[..., None], -1)
        got = maxpool2d(Tensor(x), k).data
        assert got.tobytes() == first[..., 0].tobytes()

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
