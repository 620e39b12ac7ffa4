"""Spatial network layers on B x C x H x W float32 tensors.

Convolutions lower onto matrix multiplies by row lowering, the
memory-efficient convolution (MEC) of Cho & Brand 2017 (arXiv
1706.06873): ``_columns`` lowers each zero-padded input row along x
only, Ci*k values per output column, so kernel row dy's im2col matrix
(Ci*k rows, one column per output pixel) is a view of the same buffer,
shifted by dy rows.  That writes k times fewer column values per pixel
than a Ci*k*k im2col buffer for the same FLOPs.  The buffer is rebuilt
per chunk of whole images or, for large images, per band of padded input
rows, so its size is bounded by ``_COL_BUDGET`` (plus at most 15 spare
columns) whatever the image size, and every padded row is lowered once.
It is the calling thread's column workspace, kept from call to call and
grown to the largest chunk asked for, so a conv allocates no columns of
its own: a fresh multi-MiB buffer per call cost a banded forward ~20k
minor page faults.  The input comes as channel groups, each copied into
its own slab of the buffer, and each group as row pieces, each copied
into its own rows of the slab.  So ``conv2d`` over a channel ``concat``
lowers the concat's parts in place and no concatenated feature map is
built, forward or backward, and over a ``Rows`` (the rows a band of the
network held from the previous band, then its own) it lowers the pieces
in place and no joined map is built.  Every lowered correlation has
stride 1.  The zero padding of the rows is set per edge (top, bottom),
so a band of rows cut from a taller map can leave it out where the map
goes on and compute only the output rows its own rows hold; the input
gradient pads each edge by k - 1 - p for a forward padding p.  The
forward multiplies all k kernel rows stacked, (k*Co, Ci*k), by the whole
chunk in one GEMM and adds the k row blocks of the product into the
output, each shifted by its kernel row; the weight gradient multiplies
each kernel row's view against the matching rows of the output gradient.  Each forward GEMM runs on whole
16-column blocks, a chunk's columns then at most 15 zero ones (the
weight gradient's products read only the real columns): OpenBLAS gives
a product column the same bits wherever it falls only then
(``_GEMM_COLUMNS``), and that makes the output the same bits for any
chunking and any cut of the rows.  The input-gradient pass reuses the
forward kernel with swapped, flipped weights, and the transposed
convolution is a 3x3 ``conv2d`` followed by ``pixel_shuffle``, so
everything heavy runs through BLAS.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from .tensor import DTYPE, Tensor, _grad_slot, _record, row_pieces

# Ceiling per chunk on its lowered rows plus the caller's block kept
# alongside them (the forward's product), in float32 elements (8 MiB).  A
# chunk is several whole images when their padded rows fit, otherwise a
# band of padded rows of one image; a single padded row is never split, so
# a row wider than the budget makes a one-row chunk.  Of 1M, 2M, 4M and
# 8M, 2M was fastest on the 256^2 layers of the default-width network for
# the im2col and the row lowering; for the stacked GEMM 2M and 4M were
# level (296 vs 287 ms over six layer shapes) and 4M holds twice the memory.
_COL_BUDGET = 2 << 20

# Every forward GEMM's column count is a multiple of this: a chunk's
# columns, then at most 15 zero columns whose products are dropped.
# OpenBLAS's sgemm (Haswell kernels) can give the last <= 8 columns of a
# product whose column count is not a multiple of 16 other bits than the
# same columns inside a wider product.  Over 550 products of the
# network's GEMM shapes, each a random run of a 2048-column product's
# columns, 39 moved some column's bits; padded to whole 16-column blocks,
# none did.  So a column's bits do not depend on where a chunk, or a
# band of rows, cuts the image.
_GEMM_COLUMNS = 16

# Each thread's column workspace, ``buffer``: the one array ``_columns``
# lowers into, kept from call to call.  A thread runs one lowering at a
# time, so one buffer serves all its convs; threads each get their own.
_workspace = threading.local()


def _out_size(xs, k: int, padding: int, pad_rows: tuple) -> tuple:
    """(Ho, Wo) of a k x k correlation over the input x given as
    ``_columns`` takes it, its rows zero-padded by ``pad_rows`` = (top,
    bottom) and its columns by ``padding`` each side."""
    h, wid = sum(piece.shape[2] for piece in xs[0]), xs[0][0].shape[3]
    ho = h + sum(pad_rows) - k + 1
    wo = wid + 2 * padding - k + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"conv2d: spatial input {h}x{wid} too small for kernel {k} "
            f"with padding {padding} (rows {pad_rows[0]}, {pad_rows[1]})"
        )
    return ho, wo


def _span(lo: int, n: int, size: int) -> tuple:
    """[i0, i1): the i in [0, n) with lo + i inside [0, size)."""
    i0 = min(n, max(0, -lo))
    i1 = max(i0, min(n, size - lo))
    return i0, i1


def _scratch(size: int) -> np.ndarray:
    """``size`` float32 values of the calling thread's column workspace,
    grown, the old buffer freed first, when a chunk asks for more than it
    holds.  A lowering overwrites what the previous one left there."""
    buf = getattr(_workspace, "buffer", None)
    if buf is None or buf.size < size:
        _workspace.buffer = None
        _workspace.buffer = buf = np.empty(size, DTYPE)
    return buf[:size]


def _columns(xs, k: int, padding: int, pad_rows: tuple, reserve: int = 0):
    """Yield ``(b0, b1, q0, q1, cols, spare)``: the row lowering of padded
    rows [q0, q1) of images [b0, b1) of the input x (B,Ci,H,W).

    x comes as ``xs``, a sequence of channel groups that concatenated along
    the channel axis make it, each a sequence of row pieces (B,Ci_g,H_i,W)
    that concatenated along the rows make the group.  Each piece is copied
    into its own rows of its group's slab of channel rows, so neither a
    concatenated x nor a joined group is ever built.
    x is zero-padded by ``pad_rows`` = (top, bottom) rows and ``padding``
    columns each side: padded row q is input row ``q - top``; output row r
    reads kernel row dy from padded row r + dy, so an image has ``Ho + k -
    1`` padded rows.  ``cols`` is (Ci*k, n) and then zero columns up to the
    next multiple of :data:`_GEMM_COLUMNS`, for a GEMM of whole column
    blocks: each padded row lowered along x only, Ci*k values per output
    column, in (row, image, column) order.  Kernel row dy's im2col matrix
    for output rows [r0, r1) is the column range of padded rows [r0 + dy,
    r1 + dy).
    The zero border is written here; x is not padded.  A chunk is several
    whole images when their padded rows fit ``_COL_BUDGET``, else a band
    of padded rows of one image; every padded row is lowered once.  The
    budget also holds ``spare``: ``reserve`` values per column of the
    largest ``cols``, for a block the caller keeps beside each chunk (the
    forward's product).  The chunks and ``spare`` share one buffer, the
    thread's workspace (a fresh multi-MiB array per call cost as much
    again in page faults), so ``cols`` is overwritten by the next chunk:
    use it before advancing, and run one lowering at a time per thread.
    A padded row wider than the budget gets a buffer of its own, so the
    workspace stays within the budget and 15 columns.
    """
    batch, _, _, wid = xs[0][0].shape
    ho, wo = _out_size(xs, k, padding, pad_rows)
    top = pad_rows[0]
    # Each group's slab of channel rows, and each piece's first input row.
    slabs = list(itertools.accumulate((pieces[0].shape[1] for pieces in xs), initial=0))
    starts = [list(itertools.accumulate((piece.shape[2] for piece in pieces), initial=0))
              for pieces in xs]
    cin, h = slabs[-1], starts[0][-1]
    total = ho + k - 1  # padded rows per image
    per_row = cin * k * wo
    fit = _COL_BUDGET // (per_row + reserve * wo)  # padded rows per chunk
    rows = max(1, min(total, fit))
    images = max(1, min(batch, fit // total))
    most = -(-rows * images * wo // _GEMM_COLUMNS) * _GEMM_COLUMNS
    size = (cin * k + reserve) * most
    buf = _scratch(size) if fit else np.empty(size, DTYPE)
    spare = buf[cin * k * most:]
    for b0 in range(0, batch, images):
        b1 = min(b0 + images, batch)
        n = b1 - b0
        for q0 in range(0, total, rows):
            q1 = min(q0 + rows, total)
            used = (q1 - q0) * n * wo
            ncols = -(-used // _GEMM_COLUMNS) * _GEMM_COLUMNS
            cols = buf[:cin * k * ncols].reshape(cin * k, ncols)
            cols[:, used:] = 0
            view = cols[:, :used].reshape(cin, k, q1 - q0, n, wo)
            s0, s1 = _span(q0 - top, q1 - q0, h)
            y0 = q0 + s0 - top  # the input row of chunk row s0
            runs = []  # (slab, a piece's rows in the chunk, those rows' chunk rows)
            for pieces, at, g0, g1 in zip(xs, starts, slabs, slabs[1:]):
                for piece, p0 in zip(pieces, at):
                    a, z = max(y0, p0), min(y0 + s1 - s0, p0 + piece.shape[2])
                    if a < z:
                        runs.append((g0, g1, piece[b0:b1, :, a - p0:z - p0],
                                     s0 + a - y0, s0 + z - y0))
            for dx in range(k):
                c0, c1 = _span(dx - padding, wo, wid)
                dst = view[:, dx]  # (Ci, rows, n, Wo)
                dst[:, :s0] = 0
                dst[:, s1:] = 0
                dst[:, s0:s1, :, :c0] = 0
                dst[:, s0:s1, :, c1:] = 0
                if c0 < c1:
                    x0 = c0 + dx - padding
                    for g0, g1, src, d0, d1 in runs:
                        np.copyto(dst[g0:g1, d0:d1, :, c0:c1],
                                  src[:, :, :, x0:x0 + c1 - c0].transpose(1, 2, 0, 3))
            yield b0, b1, q0, q1, cols, spare


def _corr2d(xs, w: np.ndarray, padding: int, pad_rows: tuple) -> np.ndarray:
    """Raw stride-1 cross-correlation of x (B,Ci,H,W) with w (Co,Ci,k,k),
    x given as ``_columns`` takes it: a sequence of channel groups, each a
    sequence of row pieces, zero-padded by ``pad_rows`` = (top, bottom)
    rows and ``padding`` columns each side.

    Each chunk of padded rows runs one GEMM: the kernel rows stacked, Co
    matrix rows each, times the chunk's lowered rows, so the product holds
    k row blocks, one per kernel row.  Block dy, shifted by dy rows, is
    kernel row dy's share of every output row whose window reaches the
    chunk.  The blocks dy > 0 are added in order of dy into block 0 for
    the rows whose windows start in the chunk, which is then copied into
    the output, and into the output for the rows whose windows started in
    an earlier chunk.  So every output value is summed from dy = 0 upwards
    whatever the chunking, and with a GEMM of whole 16-column blocks each
    product column has the same bits wherever it falls: the same bits
    come out for any ``_COL_BUDGET``, and for any cut of the input's rows.
    """
    cout, cin, k, _ = w.shape
    ho, wo = _out_size(xs, k, padding, pad_rows)
    stack = np.ascontiguousarray(w.transpose(2, 0, 1, 3)).reshape(k * cout, cin * k)
    out = np.empty((xs[0][0].shape[0], cout, ho, wo), dtype=DTYPE)
    for b0, b1, q0, q1, cols, spare in _columns(xs, k, padding, pad_rows, k * cout):
        n, m = b1 - b0, q1 - q0
        prod = spare[:k * cout * cols.shape[1]].reshape(k * cout, -1)
        np.matmul(stack, cols, out=prod)
        prod = prod[:, :m * n * wo].reshape(k, cout, m, n, wo)
        head = prod[0]  # kernel row 0, one padded row per output row from q0
        rows = min(q1, ho) - q0  # output rows whose windows start in the chunk
        for dy in range(1, k):
            part = prod[dy]
            c = min(rows, m - dy)
            if c > 0:
                head[:, :c] += part[:, dy:dy + c]
            # Rows whose windows started in an earlier chunk.
            r0, r1 = max(0, q0 - dy), min(q0, ho, q1 - dy)
            if r0 < r1:
                dst = out[b0:b1, :, r0:r1]
                np.add(dst, part[:, r0 + dy - q0:r1 + dy - q0].transpose(2, 0, 1, 3),
                       out=dst)
        if rows > 0:
            out[b0:b1, :, q0:q0 + rows] = head[:, :rows].transpose(2, 0, 1, 3)
    return out


def _corr2d_weight_grad(xs, g: np.ndarray, k: int, padding: int,
                        pad_rows: tuple) -> np.ndarray:
    """Gradient wrt conv weights: correlate the input, given as channel
    groups of row pieces ``xs`` and padded as for ``_corr2d``, with the
    output gradient.

    Returns (g channels, x channels, k, k), one stride-1 window of the
    padded ``x`` per position of ``g``.  Each chunk adds, per kernel row
    dy, its im2col matrix for the output rows whose dy-th window row lies
    in the chunk times the matching rows of g, in the columns' order.  A
    GEMM of all kernel rows stacked would need g copied once per kernel
    row, zero-padded to the chunk's rows; it gave no steady gain and moved
    the gradient's bits (``BENCH_12.json``).
    """
    cin = sum(pieces[0].shape[1] for pieces in xs)
    cout, ho = g.shape[1:3]
    acc = np.zeros((k, cin * k, cout), dtype=DTYPE)
    for b0, b1, q0, q1, cols, _ in _columns(xs, k, padding, pad_rows):
        lo, hi = max(0, q0 - k + 1), min(ho, q1)  # output rows reading the chunk
        span = (b1 - b0) * g.shape[3]  # columns per row
        gmat = np.ascontiguousarray(g[b0:b1, :, lo:hi].transpose(1, 2, 0, 3))
        gmat = gmat.reshape(cout, -1).T
        for dy in range(k):
            r0, r1 = max(lo, q0 - dy), min(hi, q1 - dy)
            if r0 < r1:
                c0 = (r0 + dy - q0) * span
                acc[dy] += (cols[:, c0:c0 + (r1 - r0) * span]
                            @ gmat[(r0 - lo) * span:(r1 - lo) * span])
    return np.ascontiguousarray(acc.reshape(k, cin, k, cout).transpose(3, 1, 0, 2))


def conv2d(x: Tensor, w: Tensor, b: Tensor, padding: int, *,
           pad_rows: tuple | None = None) -> Tensor:
    """2-D convolution, stride 1, odd square kernel, zero padding.

    x: (B, Cin, H, W); w: (Cout, Cin, k, k); b: (Cout,).  ``padding``
    zero-pads every side; ``pad_rows`` = (top, bottom), if given, pads
    the rows by those counts instead, so a band of rows cut from a taller
    input can leave out the padding at an edge where the input goes on
    and compute only the output rows its own rows hold.  A ``concat`` is
    lowered straight from its parts, and a ``Rows`` (alone or as a part)
    from its row pieces, in the forward and in the weight gradient, so
    neither joined array is ever built.
    """
    if len(x.shape) != 4:
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
    top, bottom = (padding, padding) if pad_rows is None else pad_rows
    if min(padding, top, bottom) < 0:
        raise ValueError(
            f"conv2d: padding must be >= 0, got {padding} (rows {top}, {bottom})")

    xs = row_pieces(x)
    out_data = _corr2d(xs, w.data, padding, (top, bottom))
    out_data += b.data[None, :, None, None]
    out = Tensor(out_data)
    k, w_data = kh, w.data
    sx, sw, sb = _grad_slot(x), _grad_slot(w), _grad_slot(b)

    def backward_fn(g: np.ndarray) -> None:
        if sb is not None:
            sb.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if sw is not None:
            sw.accumulate_grad(_corr2d_weight_grad(xs, g, k, padding, (top, bottom)))
        if sx is not None:
            # Full correlation with channel-swapped, spatially flipped weights.
            w_swap = np.ascontiguousarray(w_data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
            sx.accumulate_grad(_corr2d([[g]], w_swap, k - 1 - padding,
                                       (k - 1 - top, k - 1 - bottom)))

    return _record(out, (x, w, b), backward_fn)


# Per axis, the taps of a 4-tap, stride-2, padding-1 transposed conv that
# output phase 0 and phase 1 read at input offsets -1, 0 and +1; tap 4 is
# no tap, a zero.
_PHASE_TAPS = np.array([[3, 1, 4], [4, 2, 0]])


def _gather(t: Tensor, index: np.ndarray) -> Tensor:
    """t's values at the flat ``index``, where index ``t.size`` reads 0.
    The backward scatter-adds g back onto the entries read."""
    out = Tensor(np.append(t.data.ravel(), DTYPE(0))[index])
    st, size, shape = t.slot, t.size, t.shape

    def backward_fn(g: np.ndarray) -> None:
        acc = np.zeros(size + 1, DTYPE)
        np.add.at(acc, index, g)
        st.accumulate_grad(acc[:-1].reshape(shape))

    return _record(out, (t,), backward_fn)


def conv2d_transpose(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Transposed convolution (learned x2 upsampling): kernel 4, stride 2,
    padding 1.

    x: (B, Cin, H, W); w: (Cin, Cout, 4, 4); b: (Cout,); output (B, Cout,
    2H, 2W).  Output pixel (2y + dy, 2x + dx) reads input rows y - 1, y and
    y + 1 through taps ``_PHASE_TAPS[dy]`` of w, and likewise along x.  So
    the layer is a sub-pixel convolution (Shi et al. 2016): a 3x3,
    padding-1 ``conv2d`` with 4*Cout outputs, channel c*4 + dy*2 + dx
    gathering w's taps for phase (dy, dx), then ``pixel_shuffle(., 2)``.
    """
    if w.shape[2:] != (4, 4):
        raise ValueError(
            f"conv2d_transpose: weight must be (Cin, Cout, 4, 4), got shape {w.shape}")
    cin, cout = w.shape[:2]
    if b.shape != (cout,):
        raise ValueError(f"conv2d_transpose: bias shape {b.shape} != ({cout},)")
    taps = np.pad(np.arange(w.size).reshape(w.shape), ((0, 0), (0, 0), (0, 1), (0, 1)),
                  constant_values=w.size)
    taps = taps[:, :, _PHASE_TAPS[:, None, :, None], _PHASE_TAPS[None, :, None, :]]
    stack = _gather(w, taps.transpose(1, 2, 3, 0, 4, 5).reshape(4 * cout, cin, 3, 3))
    bias = _gather(b, np.repeat(np.arange(cout), 4))
    return pixel_shuffle(conv2d(x, stack, bias, padding=1), 2)


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
    sx, x_data = x.slot, x.data

    def backward_fn(g: np.ndarray) -> None:
        idx = _window_split(x_data, k).argmax(axis=-1)  # the first maximal entry
        gw = np.zeros((batch, ch, h // k, w // k, k * k), DTYPE)
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        gw = gw.reshape(batch, ch, h // k, w // k, k, k)
        sx.accumulate_grad(
            gw.transpose(0, 1, 2, 4, 3, 5).reshape(batch, ch, h, w))

    return _record(out, (x,), backward_fn)


def avgpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k mean pooling (the box degrade used in ablations)."""
    batch, ch, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"avgpool2d: spatial dims {h}x{w} not divisible by {k}")
    out = Tensor(_window_split(x.data, k).mean(axis=-1))
    inv = DTYPE(1.0 / (k * k))
    sx = x.slot

    def backward_fn(g: np.ndarray) -> None:
        gx = np.repeat(np.repeat(g * inv, k, axis=2), k, axis=3)
        sx.accumulate_grad(gx)

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
    sx = x.slot

    def backward_fn(g: np.ndarray) -> None:
        gv = g.reshape(batch, c_out, h, s, w, s)
        sx.accumulate_grad(
            np.ascontiguousarray(gv.transpose(0, 1, 3, 5, 2, 4)).reshape(batch, ch, h, w))

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
    sx = x.slot

    def backward_fn(g: np.ndarray) -> None:
        sx.accumulate_grad(
            np.einsum("ph,bcpq,qw->bchw", mh, g, mw, optimize=True).astype(DTYPE))

    return _record(out, (x,), backward_fn)
