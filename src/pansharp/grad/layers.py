"""Spatial network layers on B x C x H x W float32 tensors.

Convolutions lower onto matrix multiplies by row lowering, the
memory-efficient convolution (MEC) of Cho & Brand 2017 (arXiv
1706.06873): ``_columns`` lowers each zero-padded input row along x
only, Ci*k values per output column, so kernel row dy's im2col matrix
(Ci*k rows, one column per output pixel) is a view of the same buffer,
shifted by dy rows.  That writes k times fewer column values per pixel
than a Ci*k*k im2col buffer for the same FLOPs.  The buffer is rebuilt
per chunk of whole images or, for large images, per band of padded input
rows, so its size is bounded by ``_COL_BUDGET`` whatever the image size,
and every padded row is lowered once.  Every lowered correlation has
stride 1.  The forward multiplies all k kernel rows stacked, (k*Co,
Ci*k), by the whole chunk in one GEMM and adds the k row blocks of the
product into the output, each shifted by its kernel row; the weight
gradient multiplies each kernel row's view against the matching rows of
the output gradient.  The input-gradient pass and the transposed
convolution reuse the forward kernel with swapped/flipped weights, so
everything heavy runs through BLAS.
"""

from __future__ import annotations

import numpy as np

from .tensor import DTYPE, Tensor, _record

# Ceiling per chunk on its lowered rows plus the caller's block kept
# alongside them (the forward's product), in float32 elements (8 MiB).  A
# chunk is several whole images when their padded rows fit, otherwise a
# band of padded rows of one image; a single padded row is never split, so
# a row wider than the budget makes a one-row chunk.  Of 1M, 2M, 4M and
# 8M, 2M was fastest on the 256^2 layers of the default-width network for
# the im2col and the row lowering; for the stacked GEMM 2M and 4M were
# level (296 vs 287 ms over six layer shapes) and 4M holds twice the memory.
_COL_BUDGET = 2 << 20


def _out_size(shape: tuple, k: int, padding: int) -> tuple:
    """(Ho, Wo) of a k x k correlation over a (B,C,H,W) input."""
    h, wid = shape[2:]
    ho = h + 2 * padding - k + 1
    wo = wid + 2 * padding - k + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"conv2d: spatial input {h}x{wid} too small for kernel {k} "
            f"with padding {padding}"
        )
    return ho, wo


def _span(lo: int, n: int, size: int) -> tuple:
    """[i0, i1): the i in [0, n) with lo + i inside [0, size)."""
    i0 = min(n, max(0, -lo))
    i1 = max(i0, min(n, size - lo))
    return i0, i1


def _columns(x: np.ndarray, k: int, padding: int, reserve: int = 0):
    """Yield ``(b0, b1, q0, q1, low, spare)``: the row lowering of padded
    rows [q0, q1) of images [b0, b1) of x (B,Ci,H,W).

    Padded row q is input row ``q - padding`` of x zero-padded by
    ``padding``; output row r reads kernel row dy from padded row r + dy,
    so an image has ``Ho + k - 1`` padded rows.  ``low`` is (Ci*k,
    rows*n*Wo): each padded row lowered along x only, Ci*k values per
    output column, in (row, image, column) order.  Kernel row dy's im2col
    matrix for output rows [r0, r1) is the column range of padded rows
    [r0 + dy, r1 + dy).  The zero border is written here; x is not padded.
    A chunk is several whole images when their padded rows fit
    ``_COL_BUDGET``, else a band of padded rows of one image; every padded
    row is lowered once.  The budget also holds ``spare``: ``reserve``
    values per padded row, image and output column of the largest chunk,
    for a block the caller keeps beside each chunk (the forward's
    product).  The chunks and ``spare`` share one buffer allocated per
    call (a fresh multi-MiB array per chunk costs as much again in page
    faults), so ``low`` is overwritten by the next chunk: use it before
    advancing.
    """
    batch, cin, h, wid = x.shape
    ho, wo = _out_size(x.shape, k, padding)
    total = ho + k - 1  # padded rows per image
    per_row = cin * k * wo
    fit = _COL_BUDGET // (per_row + reserve * wo)  # padded rows per chunk
    rows = max(1, min(total, fit))
    images = max(1, min(batch, fit // total))
    buf = np.empty((per_row + reserve * wo) * rows * images, dtype=x.dtype)
    spare = buf[per_row * rows * images:]
    for b0 in range(0, batch, images):
        b1 = min(b0 + images, batch)
        n = b1 - b0
        for q0 in range(0, total, rows):
            q1 = min(q0 + rows, total)
            low = buf[:per_row * (q1 - q0) * n].reshape(cin, k, q1 - q0, n, wo)
            s0, s1 = _span(q0 - padding, q1 - q0, h)
            for dx in range(k):
                c0, c1 = _span(dx - padding, wo, wid)
                dst = low[:, dx]  # (Ci, rows, n, Wo)
                dst[:, :s0] = 0
                dst[:, s1:] = 0
                dst[:, s0:s1, :, :c0] = 0
                dst[:, s0:s1, :, c1:] = 0
                if s0 < s1 and c0 < c1:
                    y0, x0 = q0 + s0 - padding, c0 + dx - padding
                    src = x[b0:b1, :, y0:y0 + s1 - s0, x0:x0 + c1 - c0]
                    np.copyto(dst[:, s0:s1, :, c0:c1], src.transpose(1, 2, 0, 3))
            yield b0, b1, q0, q1, low.reshape(cin * k, -1), spare


def _corr2d(x: np.ndarray, w: np.ndarray, padding: int) -> np.ndarray:
    """Raw stride-1 cross-correlation of x (B,Ci,H,W) with w (Co,Ci,k,k).

    Each chunk of padded rows runs one GEMM: the kernel rows stacked, Co
    matrix rows each, times the chunk's lowered rows, so the product holds
    k row blocks, one per kernel row.  Block dy, shifted by dy rows, is
    kernel row dy's share of every output row whose window reaches the
    chunk.  The blocks dy > 0 are added in order of dy into block 0 for
    the rows whose windows start in the chunk, which is then copied into
    the output, and into the output for the rows whose windows started in
    an earlier chunk.  So every output value is summed from dy = 0 upwards
    whatever the chunking, and the same bits come out for any
    ``_COL_BUDGET``.
    """
    cout, cin, k, _ = w.shape
    ho, wo = _out_size(x.shape, k, padding)
    stack = np.ascontiguousarray(w.transpose(2, 0, 1, 3)).reshape(k * cout, cin * k)
    out = np.empty((x.shape[0], cout, ho, wo), dtype=DTYPE)
    for b0, b1, q0, q1, low, spare in _columns(x, k, padding, k * cout):
        prod = spare[:k * cout * low.shape[1]].reshape(k * cout, -1)
        np.matmul(stack, low, out=prod)
        prod = prod.reshape(k, cout, q1 - q0, b1 - b0, wo)
        head = prod[0]  # kernel row 0, one padded row per output row from q0
        rows = min(q1, ho) - q0  # output rows whose windows start in the chunk
        for dy in range(1, k):
            part = prod[dy]
            m = min(rows, q1 - q0 - dy)
            if m > 0:
                head[:, :m] += part[:, dy:dy + m]
            # Rows whose windows started in an earlier chunk.
            r0, r1 = max(0, q0 - dy), min(q0, ho, q1 - dy)
            if r0 < r1:
                dst = out[b0:b1, :, r0:r1]
                np.add(dst, part[:, r0 + dy - q0:r1 + dy - q0].transpose(2, 0, 1, 3),
                       out=dst)
        if rows > 0:
            out[b0:b1, :, q0:q0 + rows] = head[:, :rows].transpose(2, 0, 1, 3)
    return out


def _corr2d_weight_grad(x: np.ndarray, g: np.ndarray, k: int, padding: int) -> np.ndarray:
    """Gradient wrt conv weights: correlate input with the output gradient.

    Returns (g channels, x channels, k, k), one stride-1 window of the
    padded ``x`` per position of ``g``.  Each chunk adds, per kernel row
    dy, its im2col matrix for the output rows whose dy-th window row lies
    in the chunk times the matching rows of g, in the columns' order.  A
    GEMM of all kernel rows stacked would need g copied once per kernel
    row, zero-padded to the chunk's rows; it gave no steady gain and moved
    the gradient's bits (``BENCH_12.json``).
    """
    cin = x.shape[1]
    cout, ho = g.shape[1:3]
    acc = np.zeros((k, cin * k, cout), dtype=DTYPE)
    for b0, b1, q0, q1, low, _ in _columns(x, k, padding):
        lo, hi = max(0, q0 - k + 1), min(ho, q1)  # output rows reading the chunk
        span = (b1 - b0) * g.shape[3]  # columns per row
        gmat = np.ascontiguousarray(g[b0:b1, :, lo:hi].transpose(1, 2, 0, 3))
        gmat = gmat.reshape(cout, -1).T
        for dy in range(k):
            r0, r1 = max(lo, q0 - dy), min(hi, q1 - dy)
            if r0 < r1:
                c0 = (r0 + dy - q0) * span
                cols = low[:, c0:c0 + (r1 - r0) * span]
                acc[dy] += cols @ gmat[(r0 - lo) * span:(r1 - lo) * span]
    return np.ascontiguousarray(acc.reshape(k, cin, k, cout).transpose(3, 1, 0, 2))


def conv2d(x: Tensor, w: Tensor, b: Tensor, padding: int) -> Tensor:
    """2-D convolution, stride 1, odd square kernel, zero padding.

    x: (B, Cin, H, W); w: (Cout, Cin, k, k); b: (Cout,).
    """
    if x.data.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-D (B,C,H,W), got shape {x.shape}")
    if w.data.ndim != 4:
        raise ValueError(f"conv2d: weight must be 4-D (Cout,Cin,k,k), got shape {w.shape}")
    cout, cin_w, kh, kw = w.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"conv2d: kernel must be square with odd size, got {kh}x{kw}")
    if x.shape[1] != cin_w:
        raise ValueError(
            f"conv2d: input channel axis has {x.shape[1]} channels but weight "
            f"expects {cin_w}"
        )
    if b.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {b.shape} != ({cout},)")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")

    out_data = _corr2d(x.data, w.data, padding)
    out_data += b.data[None, :, None, None]
    out = Tensor(out_data)
    k = kh

    def backward_fn(g: np.ndarray) -> None:
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            w.accumulate_grad(_corr2d_weight_grad(x.data, g, k, padding))
        if x.requires_grad:
            # Full correlation with channel-swapped, spatially flipped weights.
            w_swap = np.ascontiguousarray(w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
            x.accumulate_grad(_corr2d(g, w_swap, k - 1 - padding))

    return _record(out, (x, w, b), backward_fn)


def conv2d_transpose(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Transposed convolution (learned upsampling), stride 2, padding 1.

    x: (B, Cin, H, W); w: (Cin, Cout, k, k) with k >= 2; b: (Cout,);
    output is 2*H - 4 + k per spatial axis (2x for k=4).  The forward
    correlates the zero-dilated input ``xd`` with flipped swapped weights;
    the backward runs at stride 1 too: the input gradient is every second
    pixel of the correlation of g with w, and the weight gradient
    correlates g with ``xd``, whose zeros add nothing.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d_transpose: input and weight must be 4-D")
    cin_w, cout, k, kw = w.shape
    if k != kw:
        raise ValueError(f"conv2d_transpose: kernel must be square, got {k}x{kw}")
    if k < 2:
        raise ValueError(
            f"conv2d_transpose: kernel must be at least 2x2 to cover padding 1, "
            f"got {k}x{k}")
    if x.shape[1] != cin_w:
        raise ValueError(
            f"conv2d_transpose: input channel axis has {x.shape[1]} channels "
            f"but weight expects {cin_w}"
        )
    if b.shape != (cout,):
        raise ValueError(f"conv2d_transpose: bias shape {b.shape} != ({cout},)")
    batch, _, h, wid = x.shape
    if min(h, wid) * 2 - 4 + k <= 0:
        raise ValueError("conv2d_transpose: output size would be empty")

    xd = np.zeros((batch, cin_w, 2 * h - 1, 2 * wid - 1), DTYPE)
    xd[:, :, ::2, ::2] = x.data
    w_conv = np.ascontiguousarray(w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    out_data = _corr2d(xd, w_conv, k - 2)
    out_data += b.data[None, :, None, None]
    out = Tensor(out_data)

    def backward_fn(g: np.ndarray) -> None:
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x.accumulate_grad(_corr2d(g, w.data, 1)[:, :, ::2, ::2])
        if w.requires_grad:
            w.accumulate_grad(_corr2d_weight_grad(g, xd, k, 1))

    return _record(out, (x, w, b), backward_fn)


def _window_split(data: np.ndarray, k: int) -> np.ndarray:
    """(B,C,H,W) -> (B,C,Ho,Wo,k*k) non-overlapping windows, row-major."""
    batch, ch, h, w = data.shape
    v = data.reshape(batch, ch, h // k, k, w // k, k)
    return v.transpose(0, 1, 2, 4, 3, 5).reshape(batch, ch, h // k, w // k, k * k)


def maxpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pooling; ties keep the first window entry.

    The forward is a running maximum over the k*k strided views of x, one
    per window entry in scan order.  ``np.maximum`` propagates NaN and, of
    two equal values (+0.0 and -0.0), returns its second operand, so the
    running maximum goes second and keeps the earlier entry, as argmax
    does.  The first-max index the gradient routes through is found only
    when a backward runs.
    """
    batch, ch, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"maxpool2d: spatial dims {h}x{w} not divisible by {k}")
    out_data = x.data[:, :, ::k, ::k].copy()
    for i in range(k):
        for j in range(k):
            if i or j:
                np.maximum(x.data[:, :, i::k, j::k], out_data, out=out_data)
    out = Tensor(out_data)

    def backward_fn(g: np.ndarray) -> None:
        idx = _window_split(x.data, k).argmax(axis=-1)  # the first maximal entry
        gw = np.zeros((batch, ch, h // k, w // k, k * k), DTYPE)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gw = gw.reshape(batch, ch, h // k, w // k, k, k)
        x.accumulate_grad(
            gw.transpose(0, 1, 2, 4, 3, 5).reshape(batch, ch, h, w))

    return _record(out, (x,), backward_fn)


def avgpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k mean pooling (the box degrade used in ablations)."""
    batch, ch, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"avgpool2d: spatial dims {h}x{w} not divisible by {k}")
    out = Tensor(_window_split(x.data, k).mean(axis=-1))
    inv = DTYPE(1.0 / (k * k))

    def backward_fn(g: np.ndarray) -> None:
        gx = np.repeat(np.repeat(g * inv, k, axis=2), k, axis=3)
        x.accumulate_grad(gx)

    return _record(out, (x,), backward_fn)


def pixel_shuffle(x: Tensor, s: int) -> Tensor:
    """Rearrange (B, C*s^2, H, W) -> (B, C, H*s, W*s).

    output[b, c, s*y+dy, s*x+dx] = input[b, c*s^2 + dy*s + dx, y, x]
    """
    batch, ch, h, w = x.shape
    if ch % (s * s):
        raise ValueError(f"pixel_shuffle: {ch} channels not divisible by s^2={s * s}")
    c_out = ch // (s * s)
    v = x.data.reshape(batch, c_out, s, s, h, w)
    out = Tensor(v.transpose(0, 1, 4, 2, 5, 3).reshape(batch, c_out, h * s, w * s))

    def backward_fn(g: np.ndarray) -> None:
        gv = g.reshape(batch, c_out, h, s, w, s)
        x.accumulate_grad(
            np.ascontiguousarray(gv.transpose(0, 1, 3, 5, 2, 4)).reshape(x.shape))

    return _record(out, (x,), backward_fn)


def _bilinear_matrix(n_in: int, scale: int) -> np.ndarray:
    """Dense (n_in*scale, n_in) interpolation matrix, half-pixel centers."""
    n_out = n_in * scale
    mat = np.zeros((n_out, n_in), DTYPE)
    for o in range(n_out):
        src = (o + 0.5) / scale - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        t = src - i0
        mat[o, i0] += 1.0 - t
        mat[o, i1] += t
    return mat


def bilinear_upsample(x: Tensor, s: int) -> Tensor:
    """Fixed (non-learned) bilinear interpolation by integer factor s."""
    if s < 1:
        raise ValueError(f"bilinear_upsample: scale must be >= 1, got {s}")
    _, _, h, w = x.shape
    mh = _bilinear_matrix(h, s)
    mw = _bilinear_matrix(w, s)
    out = Tensor(np.einsum("ph,bchw,qw->bcpq", mh, x.data, mw, optimize=True))

    def backward_fn(g: np.ndarray) -> None:
        x.accumulate_grad(
            np.einsum("ph,bcpq,qw->bchw", mh, g, mw, optimize=True).astype(DTYPE))

    return _record(out, (x,), backward_fn)
