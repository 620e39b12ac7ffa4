"""Spatial network layers on B x C x H x W float32 tensors.

Convolutions lower onto matrix multiplies via a channel-major im2col
buffer (Ci*k*k rows, one column per output pixel) that ``_columns``
rebuilds per chunk of whole images or, for large images, per band of
output rows, so its size is bounded by ``_COL_BUDGET`` whatever the image
size.  The forward multiplies the weights against each chunk; the weight
gradient multiplies the same chunk against the matching chunk of the
output gradient, one GEMM per chunk.  The input-gradient pass and the
transposed convolution reuse the forward kernel with swapped/flipped
weights, so everything heavy runs through BLAS.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import DTYPE, Tensor, _record

# Column-buffer ceiling per chunk, in float32 elements (8 MiB).  A chunk is
# several whole images when one image's columns fit, otherwise a band of
# output rows of one image; a single output row is never split, so a row
# wider than the budget makes a one-row chunk.  Of 1M, 2M, 4M and 8M, 2M
# was fastest on the 256^2 layers of the default-width network.
_COL_BUDGET = 2 << 20


def _zero_pad(x: np.ndarray, padding: int) -> np.ndarray:
    """x (B,C,H,W) with ``padding`` zeros around both spatial axes.

    One zero-filled buffer and one slice copy: the same values as
    ``np.pad``, without its per-axis passes.
    """
    if not padding:
        return x
    batch, chans, h, wid = x.shape
    xp = np.zeros((batch, chans, h + 2 * padding, wid + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + wid] = x
    return xp


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


def _columns(x: np.ndarray, k: int, padding: int, stride: int = 1):
    """Yield ``(b0, b1, r0, r1, cols)``: the channel-major lowering of x
    (B,Ci,H,W) for images [b0, b1) and output rows [r0, r1).

    ``cols`` is (Ci*k*k, n*rows*Wo), one column per output pixel of the
    chunk in (image, row, column) order, for the windows of step
    ``stride`` over x zero-padded by ``padding``.  A chunk is several whole
    images when one image's columns fit ``_COL_BUDGET``, else a band of
    output rows of one image; the copy that builds it runs along image rows.
    Every chunk is written into one buffer allocated per call (a fresh
    multi-MiB array per chunk costs as much again in page faults), so
    ``cols`` is overwritten by the next chunk: use it before advancing.
    """
    batch, cin = x.shape[:2]
    ho, wo = _out_size(x.shape, k, padding, stride)
    xp = _zero_pad(x, padding)
    rows = max(1, min(ho, _COL_BUDGET // (cin * k * k * wo)))
    images = max(1, min(batch, _COL_BUDGET // (cin * k * k * wo * ho)))
    buf = np.empty(cin * k * k * images * rows * wo, dtype=xp.dtype)
    for b0 in range(0, batch, images):
        b1 = min(b0 + images, batch)
        for r0 in range(0, ho, rows):
            r1 = min(r0 + rows, ho)
            # Output rows [r0, r1) read padded rows [r0*stride, (r1-1)*stride + k).
            band = xp[b0:b1, :, r0 * stride:(r1 - 1) * stride + k]
            win = sliding_window_view(band, (k, k), axis=(2, 3))
            win = win[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)
            cols = buf[:win.size].reshape(win.shape)  # (Ci, k, k, n, rows, Wo)
            np.copyto(cols, win)
            yield b0, b1, r0, r1, cols.reshape(cin * k * k, -1)


def _corr2d(x: np.ndarray, w: np.ndarray, padding: int, stride: int = 1) -> np.ndarray:
    """Raw cross-correlation of x (B,Ci,H,W) with w (Co,Ci,k,k): each
    chunk of columns is multiplied as ``wmat @ cols``."""
    cout, cin, k, _ = w.shape
    ho, wo = _out_size(x.shape, k, padding, stride)
    wmat = w.reshape(cout, cin * k * k)
    out = np.empty((x.shape[0], cout, ho, wo), dtype=DTYPE)
    for b0, b1, r0, r1, cols in _columns(x, k, padding, stride):
        prod = (wmat @ cols).reshape(cout, b1 - b0, r1 - r0, wo)
        out[b0:b1, :, r0:r1] = prod.transpose(1, 0, 2, 3)
    return out


def _corr2d_weight_grad(x: np.ndarray, g: np.ndarray, k: int, padding: int,
                        stride: int = 1) -> np.ndarray:
    """Gradient wrt conv weights: correlate input with the output gradient.

    Returns (g channels, x channels, k, k); ``stride`` is the step of the
    windows over the padded ``x``, one per position of ``g``.  Each chunk
    adds ``cols @ gmat.T``, where gmat is g's matching chunk channel-major,
    (Co, n*rows*Wo).
    """
    cin = x.shape[1]
    cout = g.shape[1]
    acc = np.zeros((cin * k * k, cout), dtype=DTYPE)
    for b0, b1, r0, r1, cols in _columns(x, k, padding, stride):
        gmat = np.ascontiguousarray(g[b0:b1, :, r0:r1].transpose(1, 0, 2, 3))
        acc += cols @ gmat.reshape(cout, -1).T
    return np.ascontiguousarray(acc.T).reshape(cout, cin, k, k)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None, padding: int) -> Tensor:
    """2-D convolution, stride 1, odd square kernel, zero padding.

    x: (B, Cin, H, W); w: (Cout, Cin, k, k); b: (Cout,) or None.
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
    if b is not None and b.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {b.shape} != ({cout},)")

    out_data = _corr2d(x.data, w.data, padding)
    if b is not None:
        out_data += b.data[None, :, None, None]
    out = Tensor(out_data)
    k = kh

    def backward_fn(g: np.ndarray) -> None:
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            w.accumulate_grad(_corr2d_weight_grad(x.data, g, k, padding))
        if x.requires_grad:
            # Full correlation with channel-swapped, spatially flipped weights.
            w_swap = np.ascontiguousarray(w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
            x.accumulate_grad(_corr2d(g, w_swap, k - 1 - padding))

    inputs = (x, w) if b is None else (x, w, b)
    return _record(out, inputs, backward_fn)


def conv2d_transpose(x: Tensor, w: Tensor, b: Tensor | None,
                     stride: int = 2, padding: int = 1) -> Tensor:
    """Transposed convolution (learned upsampling).

    x: (B, Cin, H, W); w: (Cin, Cout, k, k); output is
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
    if b is not None:
        out_data += b.data[None, :, None, None]
    out = Tensor(out_data)

    def backward_fn(g: np.ndarray) -> None:
        if b is not None and b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            x.accumulate_grad(_corr2d(g, w.data, padding, stride=stride))
        if w.requires_grad:
            w.accumulate_grad(_corr2d_weight_grad(g, x.data, k, padding, stride))

    inputs = (x, w) if b is None else (x, w, b)
    return _record(out, inputs, backward_fn)


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
