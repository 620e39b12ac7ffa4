"""Spatial network layers on B x C x H x W float32 tensors.

Convolutions lower onto matrix multiplies by row lowering, the
memory-efficient convolution (MEC) of Cho & Brand 2017 (arXiv
1706.06873): ``_columns`` lowers each zero-padded input row along x
only, Ci*k values per output column, so kernel row dy's im2col matrix
(Ci*k rows, one column per output pixel) is a strided view of the same
buffer, shifted by dy rows.  That writes k times fewer column values per
pixel than a Ci*k*k im2col buffer for the same FLOPs.  The buffer is
rebuilt per chunk of whole images or, for large images, per band of
output rows, so its size is bounded by ``_COL_BUDGET`` whatever the image
size.  The forward sums ``w[:, :, dy] @ cols[dy]`` over the kernel rows;
the weight gradient multiplies each kernel row's view against the
matching chunk of the output gradient.  The input-gradient pass and the
transposed convolution reuse the forward kernel with swapped/flipped
weights, so everything heavy runs through BLAS.
"""

from __future__ import annotations

import numpy as np

from .tensor import DTYPE, Tensor, _record

# Column-buffer ceiling per chunk, in float32 elements (8 MiB).  A chunk is
# several whole images when their lowered rows fit, otherwise a band of
# output rows of one image; a single output row is never split, so a row
# wider than the budget makes a one-row chunk.  Of 1M, 2M, 4M and 8M, 2M
# was fastest on the 256^2 layers of the default-width network, for the
# im2col lowering and again for the row lowering.
_COL_BUDGET = 2 << 20


def _out_size(shape: tuple, k: int, padding: int, stride: int) -> tuple:
    """(Ho, Wo) of a k x k correlation over a (B,C,H,W) input."""
    h, wid = shape[2:]
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wid + 2 * padding - k) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"conv2d: spatial input {h}x{wid} too small for kernel {k} "
            f"with padding {padding}"
        )
    return ho, wo


def _span(lo: int, n: int, step: int, size: int) -> tuple:
    """[i0, i1): the i in [0, n) with lo + i*step inside [0, size)."""
    i0 = min(n, max(0, -(lo // step)))
    i1 = max(i0, min(n, (size - 1 - lo) // step + 1))
    return i0, i1


def _columns(x: np.ndarray, k: int, padding: int, stride: int = 1):
    """Yield ``(b0, b1, r0, r1, cols)``: the row lowering of x (B,Ci,H,W)
    for images [b0, b1) and output rows [r0, r1).

    ``cols[dy]`` is kernel row dy's im2col matrix, (Ci*k, rows*n*Wo), one
    column per output pixel of the chunk in (row, image, column) order, for
    the windows of step ``stride`` over x zero-padded by ``padding``.  Each
    padded input row the chunk reads is lowered along x only, Ci*k values
    per output column, and stored phase by phase (padded row ``stride*q +
    phase`` at slot (phase, q)), so the k matrices are strided views of one
    buffer: kernel row dy reads phase ``dy % stride`` from slot
    ``dy // stride`` on.  The zero border is written here; x is not padded.
    A chunk is several whole images when their lowered rows fit
    ``_COL_BUDGET``, else a band of output rows of one image.  Every chunk
    is written into one buffer allocated per call (a fresh multi-MiB array
    per chunk costs as much again in page faults), so ``cols`` is
    overwritten by the next chunk: use it before advancing.
    """
    batch, cin, h, wid = x.shape
    ho, wo = _out_size(x.shape, k, padding, stride)
    halo = -(-k // stride) - 1  # slots per phase beyond one per output row
    per_slot = cin * k * stride * wo
    rows = max(1, min(ho, _COL_BUDGET // per_slot - halo))
    images = max(1, min(batch, _COL_BUDGET // (per_slot * (ho + halo))))
    buf = np.empty(per_slot * (rows + halo) * images, dtype=x.dtype)
    for b0 in range(0, batch, images):
        b1 = min(b0 + images, batch)
        n = b1 - b0
        for r0 in range(0, ho, rows):
            r1 = min(r0 + rows, ho)
            slots = r1 - r0 + halo
            low = buf[:per_slot * slots * n].reshape(cin, k, stride, slots, n, wo)
            for dx in range(k):
                c0, c1 = _span(dx - padding, wo, stride, wid)
                x0 = c0 * stride + dx - padding
                for phase in range(stride):
                    y_lo = r0 * stride + phase - padding
                    q0, q1 = _span(y_lo, slots, stride, h)
                    dst = low[:, dx, phase]  # (Ci, slots, n, Wo)
                    dst[:, :q0] = 0
                    dst[:, q1:] = 0
                    dst[:, q0:q1, :, :c0] = 0
                    dst[:, q0:q1, :, c1:] = 0
                    if q0 < q1 and c0 < c1:
                        y0 = y_lo + q0 * stride
                        src = x[b0:b1, :, y0:y0 + (q1 - q0 - 1) * stride + 1:stride,
                                x0:x0 + (c1 - c0 - 1) * stride + 1:stride]
                        np.copyto(dst[:, q0:q1, :, c0:c1], src.transpose(1, 2, 0, 3))
            yield b0, b1, r0, r1, [
                low[:, :, dy % stride, dy // stride:dy // stride + r1 - r0]
                .reshape(cin * k, -1) for dy in range(k)]


def _corr2d(x: np.ndarray, w: np.ndarray, padding: int, stride: int = 1) -> np.ndarray:
    """Raw cross-correlation of x (B,Ci,H,W) with w (Co,Ci,k,k): each chunk
    sums ``w[:, :, dy] @ cols[dy]`` over the kernel rows dy, in order, into
    one scratch block per call."""
    cout, cin, k, _ = w.shape
    ho, wo = _out_size(x.shape, k, padding, stride)
    wrows = np.ascontiguousarray(w.transpose(2, 0, 1, 3)).reshape(k, cout, cin * k)
    out = np.empty((x.shape[0], cout, ho, wo), dtype=DTYPE)
    scratch = None
    for b0, b1, r0, r1, cols in _columns(x, k, padding, stride):
        size = cols[0].shape[1]
        if scratch is None:  # the first chunk is the largest
            scratch = np.empty((2, cout * size), dtype=DTYPE)
        part, prod = scratch[:, :cout * size].reshape(2, cout, size)
        np.matmul(wrows[0], cols[0], out=part)
        for dy in range(1, k):
            np.matmul(wrows[dy], cols[dy], out=prod)
            part += prod
        part = part.reshape(cout, r1 - r0, b1 - b0, wo)
        out[b0:b1, :, r0:r1] = part.transpose(2, 0, 1, 3)
    return out


def _corr2d_weight_grad(x: np.ndarray, g: np.ndarray, k: int, padding: int,
                        stride: int = 1) -> np.ndarray:
    """Gradient wrt conv weights: correlate input with the output gradient.

    Returns (g channels, x channels, k, k); ``stride`` is the step of the
    windows over the padded ``x``, one per position of ``g``.  Each chunk
    adds ``cols[dy] @ gmat.T`` to kernel row dy, where gmat is g's matching
    chunk in the columns' order, (Co, rows*n*Wo).
    """
    cin = x.shape[1]
    cout = g.shape[1]
    acc = np.zeros((k, cin * k, cout), dtype=DTYPE)
    for b0, b1, r0, r1, cols in _columns(x, k, padding, stride):
        gmat = np.ascontiguousarray(g[b0:b1, :, r0:r1].transpose(1, 2, 0, 3))
        gmat = gmat.reshape(cout, -1).T
        for dy in range(k):
            acc[dy] += cols[dy] @ gmat
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


def conv2d_transpose(x: Tensor, w: Tensor, b: Tensor,
                     stride: int = 2, padding: int = 1) -> Tensor:
    """Transposed convolution (learned upsampling).

    x: (B, Cin, H, W); w: (Cin, Cout, k, k); b: (Cout,); output is
    (H-1)*stride - 2*padding + k per spatial axis (2x for k=4, s=2, p=1).
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d_transpose: input and weight must be 4-D")
    cin_w, cout, k, kw = w.shape
    if k != kw:
        raise ValueError(f"conv2d_transpose: kernel must be square, got {k}x{kw}")
    if x.shape[1] != cin_w:
        raise ValueError(
            f"conv2d_transpose: input channel axis has {x.shape[1]} channels "
            f"but weight expects {cin_w}"
        )
    if b.shape != (cout,):
        raise ValueError(f"conv2d_transpose: bias shape {b.shape} != ({cout},)")
    if stride < 1:
        raise ValueError(f"conv2d_transpose: stride must be >= 1, got {stride}")
    if not 0 <= padding <= k - 1:
        raise ValueError(
            f"conv2d_transpose: padding must be in [0, {k - 1}] for kernel {k}, "
            f"got {padding}"
        )
    batch, _, h, wid = x.shape
    out_h = (h - 1) * stride - 2 * padding + k
    out_w = (wid - 1) * stride - 2 * padding + k
    if out_h <= 0 or out_w <= 0:
        raise ValueError("conv2d_transpose: output size would be empty")

    # Zero-dilate the input, then correlate with flipped swapped weights.
    xd = np.zeros((batch, cin_w, (h - 1) * stride + 1, (wid - 1) * stride + 1), DTYPE)
    xd[:, :, ::stride, ::stride] = x.data
    w_conv = np.ascontiguousarray(w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    out_data = _corr2d(xd, w_conv, k - 1 - padding)
    out_data += b.data[None, :, None, None]
    out = Tensor(out_data)

    def backward_fn(g: np.ndarray) -> None:
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x.accumulate_grad(_corr2d(g, w.data, padding, stride=stride))
        if w.requires_grad:
            w.accumulate_grad(_corr2d_weight_grad(g, x.data, k, padding, stride))

    return _record(out, (x, w, b), backward_fn)


def _window_split(data: np.ndarray, k: int) -> np.ndarray:
    """(B,C,H,W) -> (B,C,Ho,Wo,k*k) non-overlapping windows, row-major."""
    batch, ch, h, w = data.shape
    v = data.reshape(batch, ch, h // k, k, w // k, k)
    return v.transpose(0, 1, 2, 4, 3, 5).reshape(batch, ch, h // k, w // k, k * k)


def maxpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pooling; ties keep the first window entry."""
    batch, ch, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"maxpool2d: spatial dims {h}x{w} not divisible by {k}")
    windows = _window_split(x.data, k)
    idx = windows.argmax(axis=-1)  # argmax takes the first maximal entry
    out = Tensor(np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0])

    def backward_fn(g: np.ndarray) -> None:
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
