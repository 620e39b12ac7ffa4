"""Spatial network layers on B x C x H x W float32 tensors.

Convolutions lower onto matrix multiplies by row lowering, the
memory-efficient convolution (MEC) of Cho & Brand 2017 (arXiv
1706.06873): ``_columns`` lowers each zero-padded input row along x
only, Ci*k values per output column, so kernel row dy's im2col matrix
(Ci*k rows, one column per output pixel) is a strided view of the same
buffer, shifted by dy rows.  That writes k times fewer column values per
pixel than a Ci*k*k im2col buffer for the same FLOPs.  The buffer is
rebuilt per chunk of whole images or, for large images, per band of
padded input rows, so its size is bounded by ``_COL_BUDGET`` whatever the
image size, and every padded row is lowered once.  The forward multiplies
all k kernel rows stacked, (k*Co, Ci*k), by the whole chunk in one GEMM
and adds the k row blocks of the product into the output, each shifted by
its kernel row; the weight gradient multiplies each kernel row's view
against the matching rows of the output gradient.  The input-gradient
pass and the transposed convolution reuse the forward kernel with
swapped/flipped weights, so everything heavy runs through BLAS.
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


def _columns(x: np.ndarray, k: int, padding: int, stride: int = 1,
             reserve: int = 0):
    """Yield ``(b0, b1, q0, q1, phases, spare)``: the row lowering of slots
    [q0, q1) of images [b0, b1) of x (B,Ci,H,W).

    Slot q holds the ``stride`` padded input rows ``stride*q + phase``;
    output row r of the windows of step ``stride`` over x zero-padded by
    ``padding`` reads kernel row dy from slot ``r + dy // stride``, phase
    ``dy % stride``, so an image has ``Ho + ceil(k/stride) - 1`` slots.
    ``phases[p]`` is phase p's lowered rows, (Ci*k, slots*n*Wo): each
    padded row lowered along x only, Ci*k values per output column, in
    (slot, image, column) order.  Kernel row dy's im2col matrix for output
    rows [r0, r1) is the column range of slots [r0 + dy//stride, r1 +
    dy//stride) of its phase.  The zero border is written here; x is not
    padded.  A chunk is several whole images when their slots fit
    ``_COL_BUDGET``, else a band of slots of one image; every slot is
    lowered once.  The budget also holds ``spare``: ``reserve`` values per
    slot, image and output column of the largest chunk, for a block the
    caller keeps beside each chunk (the forward's product).  The chunks
    and ``spare`` share one buffer allocated per call (a fresh multi-MiB
    array per chunk costs as much again in page faults), so ``phases`` is
    overwritten by the next chunk: use it before advancing.
    """
    batch, cin, h, wid = x.shape
    ho, wo = _out_size(x.shape, k, padding, stride)
    total = ho - 1 + -(-k // stride)  # slots per image
    per_slot = cin * k * stride * wo
    fit = _COL_BUDGET // (per_slot + reserve * wo)  # slots per chunk
    slots = max(1, min(total, fit))
    images = max(1, min(batch, fit // total))
    buf = np.empty((per_slot + reserve * wo) * slots * images, dtype=x.dtype)
    spare = buf[per_slot * slots * images:]
    for b0 in range(0, batch, images):
        b1 = min(b0 + images, batch)
        n = b1 - b0
        for q0 in range(0, total, slots):
            q1 = min(q0 + slots, total)
            low = buf[:per_slot * (q1 - q0) * n].reshape(cin, k, stride, q1 - q0, n, wo)
            for dx in range(k):
                c0, c1 = _span(dx - padding, wo, stride, wid)
                x0 = c0 * stride + dx - padding
                for phase in range(stride):
                    y_lo = q0 * stride + phase - padding
                    s0, s1 = _span(y_lo, q1 - q0, stride, h)
                    dst = low[:, dx, phase]  # (Ci, slots, n, Wo)
                    dst[:, :s0] = 0
                    dst[:, s1:] = 0
                    dst[:, s0:s1, :, :c0] = 0
                    dst[:, s0:s1, :, c1:] = 0
                    if s0 < s1 and c0 < c1:
                        y0 = y_lo + s0 * stride
                        src = x[b0:b1, :, y0:y0 + (s1 - s0 - 1) * stride + 1:stride,
                                x0:x0 + (c1 - c0 - 1) * stride + 1:stride]
                        np.copyto(dst[:, s0:s1, :, c0:c1], src.transpose(1, 2, 0, 3))
            yield b0, b1, q0, q1, [low[:, :, phase].reshape(cin * k, -1)
                                   for phase in range(stride)], spare


def _corr2d(x: np.ndarray, w: np.ndarray, padding: int, stride: int = 1) -> np.ndarray:
    """Raw cross-correlation of x (B,Ci,H,W) with w (Co,Ci,k,k).

    Each chunk of slots runs one GEMM per phase (one at stride 1): the
    phase's kernel rows stacked, Co matrix rows each, times its lowered
    rows, so the products hold k row blocks, one per kernel row.  Block dy, shifted by ``dy // stride``
    slots, is kernel row dy's share of every output row whose window
    reaches the chunk.  The blocks dy > 0 are added in order of dy into
    block 0 for the rows whose windows start in the chunk, which is then
    copied into the output, and into the output for the rows whose windows
    started in an earlier chunk.  So every output value is summed from
    dy = 0 upwards whatever the chunking, and the same bits come out for
    any ``_COL_BUDGET``.
    """
    cout, cin, k, _ = w.shape
    ho, wo = _out_size(x.shape, k, padding, stride)
    wrows = w.transpose(2, 0, 1, 3).reshape(k, cout, cin * k)
    stacks = [np.ascontiguousarray(wrows[phase::stride]).reshape(-1, cin * k)
              for phase in range(stride)]
    out = np.empty((x.shape[0], cout, ho, wo), dtype=DTYPE)
    for b0, b1, q0, q1, phases, spare in _columns(x, k, padding, stride, k * cout):
        size = phases[0].shape[1]
        prods, start = [], 0
        for wphase, low in zip(stacks, phases):
            block = spare[start:start + wphase.shape[0] * size]
            block = block.reshape(wphase.shape[0], size)
            np.matmul(wphase, low, out=block)
            prods.append(block.reshape(-1, cout, q1 - q0, b1 - b0, wo))
            start += block.size
        head = prods[0][0]  # kernel row 0, one slot per output row from q0
        rows = min(q1, ho) - q0  # output rows whose windows start in the chunk
        for dy in range(1, k):
            shift = dy // stride
            part = prods[dy % stride][shift]
            m = min(rows, q1 - q0 - shift)
            if m > 0:
                head[:, :m] += part[:, shift:shift + m]
            # Rows whose windows started in an earlier chunk.
            r0, r1 = max(0, q0 - shift), min(q0, ho, q1 - shift)
            if r0 < r1:
                dst = out[b0:b1, :, r0:r1]
                np.add(dst, part[:, r0 + shift - q0:r1 + shift - q0].transpose(2, 0, 1, 3),
                       out=dst)
        if rows > 0:
            out[b0:b1, :, q0:q0 + rows] = head[:, :rows].transpose(2, 0, 1, 3)
    return out


def _corr2d_weight_grad(x: np.ndarray, g: np.ndarray, k: int, padding: int,
                        stride: int = 1) -> np.ndarray:
    """Gradient wrt conv weights: correlate input with the output gradient.

    Returns (g channels, x channels, k, k); ``stride`` is the step of the
    windows over the padded ``x``, one per position of ``g``.  Each chunk
    adds, per kernel row dy, its im2col matrix for the output rows whose
    dy-th window row lies in the chunk times the matching rows of g, in
    the columns' order.  A GEMM of all kernel rows stacked would need g
    copied once per kernel row, zero-padded to the chunk's slots; it gave
    no steady gain and moved the gradient's bits (``BENCH_12.json``).
    """
    cin = x.shape[1]
    cout, ho = g.shape[1:3]
    taps = -(-k // stride)
    acc = np.zeros((k, cin * k, cout), dtype=DTYPE)
    for b0, b1, q0, q1, phases, _ in _columns(x, k, padding, stride):
        lo, hi = max(0, q0 - taps + 1), min(ho, q1)  # output rows reading the chunk
        span = (b1 - b0) * g.shape[3]  # columns per row
        gmat = np.ascontiguousarray(g[b0:b1, :, lo:hi].transpose(1, 2, 0, 3))
        gmat = gmat.reshape(cout, -1).T
        for dy in range(k):
            shift = dy // stride
            r0, r1 = max(lo, q0 - shift), min(hi, q1 - shift)
            if r0 < r1:
                c0 = (r0 + shift - q0) * span
                cols = phases[dy % stride][:, c0:c0 + (r1 - r0) * span]
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
