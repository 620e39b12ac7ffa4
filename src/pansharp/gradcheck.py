"""Finite-difference verification of the autodiff engine and the network.

Two layers of checking:

* **Per-op sweep** — every differentiable operation is exercised on a small
  fixed fixture and its analytic gradients are compared coordinate-by-
  coordinate against central finite differences of the op itself.
* **Full-model sweep** — the network's parameter gradients are compared
  against finite differences of :func:`reference_forward`, an independent
  double-precision re-implementation of the forward pass. Differencing the
  float32 forward directly cannot resolve a 1e-2 relative tolerance: loss
  quantization and relu/maxpool kink crossings produce apparent errors of
  0.1+ that are artifacts of the probe, not of the gradients.

Ops are looked up through their modules at call time, so a monkeypatched
(deliberately corrupted) rule is picked up by the sweep — that is what the
sabotage fixture in the test suite relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grad as _engine
from .errors import NumericError
from .fusion import HPM_EPSILON
from .grad import Tape, Tensor
from .imaging import RATIO

THRESHOLD = 1e-2
FD_STEP = 1e-3
# Ops that are linear (or bilinear) in every input have zero central-
# difference truncation error, so a much larger step is strictly better:
# it divides the float32 loss-quantization noise without adding bias.
FD_STEP_LINEAR = 5e-2
# The model row differences the float64 reference forward. Its step must be
# small: at feature width 64 a 1e-3 probe shifts thousands of relu inputs
# and several cross zero inside the probe interval, so central differences
# at that step measure averaged slopes (errors look like 0.03-0.27). At
# 1e-5 the probes stay inside one linear region and errors converge to
# ~5e-5 for every variant.
FD_STEP_MODEL = 1e-5
REL_FLOOR = 1e-3
# Coordinates probed per parameter tensor by the model row.
MODEL_SAMPLES_PER_TENSOR = 2


@dataclass(frozen=True)
class GradCheckRow:
    """One line of the report: an op (or the full model) and its worst error."""

    name: str
    max_rel_error: float
    threshold: float = THRESHOLD

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.threshold


# -- generic finite-difference runner --------------------------------------


def _rel_error(analytic: float, numeric: float, floor: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def _op_fd_error(build, arrays: list[np.ndarray], h: float = FD_STEP,
                 floor: float = REL_FLOOR) -> float:
    """Worst relative disagreement over every coordinate of every input.

    ``build`` maps a list of Tensors to one output Tensor; the check reduces
    it with sum() so each input coordinate has a scalar response.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        loss = build(tensors).sum()
    loss.backward()

    def run() -> float:
        return float(build([Tensor(a) for a in arrays]).sum().data)

    worst = 0.0
    for tensor, arr in zip(tensors, arrays):
        grad = (np.zeros_like(arr) if tensor.grad is None else tensor.grad)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = run()
            flat[i] = orig - h
            fm = run()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            worst = max(worst, _rel_error(float(gflat[i]), numeric, floor))
    return worst


def _gauss(seed: int, shape: tuple[int, ...], spread: float = 1.0) -> np.ndarray:
    return (np.random.default_rng(seed).standard_normal(shape)
            * spread).astype(np.float32)


def _uniform(seed: int, shape: tuple[int, ...], low: float,
             high: float) -> np.ndarray:
    return np.random.default_rng(seed).uniform(low, high, shape).astype(np.float32)


# -- per-op registry -------------------------------------------------------
# Exactly one entry per differentiable operation; backward/adam_step are
# the propagation mechanism and the optimizer, not differentiable ops
# themselves.


def _check_add() -> float:
    return _op_fd_error(lambda t: _engine.add(t[0], t[1]),
                        [_gauss(10, (2, 3, 4, 4)), _gauss(11, (2, 3, 4, 4))],
                        h=FD_STEP_LINEAR)


def _check_mul() -> float:
    return _op_fd_error(lambda t: _engine.mul(t[0], t[1]),
                        [_gauss(12, (2, 3, 4, 4)), _gauss(13, (2, 3, 4, 4))],
                        h=FD_STEP_LINEAR)


def _check_scale() -> float:
    return _op_fd_error(lambda t: _engine.scale(t[0], -1.7),
                        [_gauss(14, (3, 5))], h=FD_STEP_LINEAR)


def _check_tensor_sum() -> float:
    return _op_fd_error(lambda t: _engine.tensor_sum(t[0]),
                        [_gauss(15, (2, 3, 4))], h=FD_STEP_LINEAR)


def _check_relu() -> float:
    # Fixture verified to keep every coordinate away from the kink at 0
    # by more than the FD step, so both probes stay on one slope.
    arr = _gauss(16, (2, 3, 5, 5))
    assert np.abs(arr).min() > 2 * FD_STEP
    return _op_fd_error(lambda t: _engine.relu(t[0]), [arr])


def _check_sigmoid() -> float:
    # small fixture keeps the summed loss small, and with it the float32
    # quantization noise that the finite differences must divide out
    return _op_fd_error(lambda t: _engine.sigmoid(t[0]), [_gauss(17, (1, 2, 3, 3))])


def _check_concat() -> float:
    return _op_fd_error(
        lambda t: _engine.concat(t),
        [_gauss(18, (1, 2, 3, 3)), _gauss(19, (1, 4, 3, 3)),
         _gauss(20, (1, 1, 3, 3))], h=FD_STEP_LINEAR)


def _check_l1_loss() -> float:
    pred = _gauss(21, (2, 3, 4, 4))
    target = _gauss(22, (2, 3, 4, 4))
    # keep every residual away from the |.| kink over the FD step
    assert np.abs(pred - target).min() > 2 * FD_STEP
    return _op_fd_error(lambda t: _engine.l1_loss(t[0], t[1]), [pred, target])


def _check_conv2d() -> float:
    return _op_fd_error(
        lambda t: _engine.conv2d(t[0], t[1], t[2], padding=1),
        [_gauss(23, (2, 2, 5, 5)), _gauss(24, (3, 2, 3, 3), 0.5),
         _gauss(25, (3,))], h=FD_STEP_LINEAR)


def _check_conv2d_edge_rows() -> float:
    """conv2d with no zero row above the input, as a band of rows cut below
    the top of its map runs it."""
    return _op_fd_error(
        lambda t: _engine.conv2d(t[0], t[1], t[2], padding=1, pad_rows=(0, 1)),
        [_gauss(36, (2, 2, 5, 5)), _gauss(37, (3, 2, 3, 3), 0.5),
         _gauss(38, (3,))], h=FD_STEP_LINEAR)


def _check_conv2d_transpose() -> float:
    return _op_fd_error(
        lambda t: _engine.conv2d_transpose(t[0], t[1], t[2]),
        [_gauss(26, (1, 2, 4, 4)), _gauss(27, (2, 3, 4, 4), 0.5),
         _gauss(28, (3,))], h=FD_STEP_LINEAR)


def _check_maxpool2d() -> float:
    arr = _gauss(29, (1, 3, 6, 6))
    # verify no pooling window has a near-tie that an FD step could flip
    windows = arr.reshape(1, 3, 3, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5)
    windows = np.sort(windows.reshape(-1, 4), axis=1)
    assert (windows[:, 3] - windows[:, 2]).min() > 2 * FD_STEP
    return _op_fd_error(lambda t: _engine.maxpool2d(t[0], 2), [arr])


def _check_avgpool2d() -> float:
    return _op_fd_error(lambda t: _engine.avgpool2d(t[0], 2),
                        [_gauss(30, (2, 2, 6, 6))], h=FD_STEP_LINEAR)


def _check_pixel_shuffle() -> float:
    return _op_fd_error(lambda t: _engine.pixel_shuffle(t[0], 2),
                        [_gauss(31, (1, 8, 3, 3))], h=FD_STEP_LINEAR)


def _check_bilinear_upsample() -> float:
    return _op_fd_error(lambda t: _engine.bilinear_upsample(t[0], 2),
                        [_gauss(33, (1, 2, 4, 4))], h=FD_STEP_LINEAR)


def _check_divide_by_constant() -> float:
    denom = _uniform(34, (2, 3, 4, 4), 0.5, 1.5).astype(np.float64)
    return _op_fd_error(lambda t: _engine.divide_by_constant(t[0], denom),
                        [_gauss(35, (2, 3, 4, 4))], h=FD_STEP_LINEAR)


OP_CHECKS = {
    "add": _check_add,
    "mul": _check_mul,
    "scale": _check_scale,
    "tensor_sum": _check_tensor_sum,
    "relu": _check_relu,
    "sigmoid": _check_sigmoid,
    "concat": _check_concat,
    "l1_loss": _check_l1_loss,
    "conv2d": _check_conv2d,
    "conv2d_edge_rows": _check_conv2d_edge_rows,
    "conv2d_transpose": _check_conv2d_transpose,
    "maxpool2d": _check_maxpool2d,
    "avgpool2d": _check_avgpool2d,
    "pixel_shuffle": _check_pixel_shuffle,
    "bilinear_upsample": _check_bilinear_upsample,
    "divide_by_constant": _check_divide_by_constant,
}


# -- double-precision reference forward ------------------------------------


def _conv_ref(x: np.ndarray, w: np.ndarray, b: np.ndarray,
              pad: int) -> np.ndarray:
    """Windowed einsum cross-correlation (float64); allows even kernels."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    out = np.einsum("bchwij,ocij->bohw", win, w, optimize=True)
    return out + b[None, :, None, None]


def _deconv_ref(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-2, padding-1 transposed conv via zero-stuffing +
    flipped-kernel correlation."""
    bsz, cin, h, wid = x.shape
    stuffed = np.zeros((bsz, cin, 2 * h - 1, 2 * wid - 1))
    stuffed[:, :, ::2, ::2] = x
    flipped = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return _conv_ref(stuffed, flipped, b, w.shape[2] - 2)


def _maxpool_ref(x: np.ndarray, k: int) -> np.ndarray:
    bsz, c, h, w = x.shape
    return x.reshape(bsz, c, h // k, k, w // k, k).max(axis=(3, 5))


def _avgpool_ref(x: np.ndarray, k: int) -> np.ndarray:
    bsz, c, h, w = x.shape
    return x.reshape(bsz, c, h // k, k, w // k, k).mean(axis=(3, 5))


def _shuffle_ref(x: np.ndarray, s: int) -> np.ndarray:
    bsz, cs2, h, w = x.shape
    c = cs2 // (s * s)
    return (x.reshape(bsz, c, s, s, h, w).transpose(0, 1, 4, 2, 5, 3)
            .reshape(bsz, c, h * s, w * s))


def _interp_matrix_ref(n_in: int, s: int) -> np.ndarray:
    """Half-pixel-center linear interpolation weights, edges clamped."""
    mat = np.zeros((n_in * s, n_in))
    for o in range(n_in * s):
        src = min(max((o + 0.5) / s - 0.5, 0.0), n_in - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_in - 1)
        t = src - i0
        mat[o, i0] += 1.0 - t
        mat[o, i1] += t
    return mat


def _bilinear_ref(x: np.ndarray, s: int) -> np.ndarray:
    mh = _interp_matrix_ref(x.shape[2], s)
    mw = _interp_matrix_ref(x.shape[3], s)
    return np.einsum("ph,bchw,qw->bcpq", mh, x, mw, optimize=True)


def reference_forward(lrms: np.ndarray, pan: np.ndarray, params,
                      config) -> tuple[np.ndarray | None, np.ndarray]:
    """Double-precision forward of the same architecture as tdnet_forward.

    ``params`` maps names to Tensors or arrays. Returns (half-resolution
    output or None, full output) as float64 arrays. Written without the
    autodiff engine so it can serve as an independent differencing and
    parity oracle.
    """
    vals = {name: np.asarray(getattr(t, "data", t), dtype=np.float64)
            for name, t in params.items()}
    lrms = np.asarray(lrms, dtype=np.float64)
    pan = np.asarray(pan, dtype=np.float64)
    c = config.bands
    relu = lambda v: np.maximum(v, 0.0)
    sigmoid = lambda v: 0.5 * (1.0 + np.tanh(v / 2.0))

    def cv(name: str, x: np.ndarray) -> np.ndarray:
        w = vals[f"{name}.w"]
        return _conv_ref(x, w, vals[f"{name}.b"], w.shape[2] // 2)

    if config.use_pan_branch:
        feats = relu(cv("pan.entry", pan))
        shared = relu(feats + cv("pan.res2", relu(cv("pan.res1", feats))))
        d_full = cv("pan.detail_full", shared)
        d_half = (cv("pan.detail_half", _maxpool_ref(shared, 2))
                  if config.levels == 2 else None)
    else:
        d_full = np.repeat(pan, c, axis=1)
        d_half = (np.repeat(_avgpool_ref(pan, 2), c, axis=1)
                  if config.levels == 2 else None)

    if config.gain_mode == "tmra_hpm":
        if config.levels == 1:
            pan_lows = {"level1": _bilinear_ref(_avgpool_ref(pan, RATIO),
                                                RATIO)}
        else:
            half = _avgpool_ref(pan, 2)
            pan_lows = {"level1": _bilinear_ref(_avgpool_ref(half, 2), 2),
                        "level2": _bilinear_ref(_avgpool_ref(pan, 2), 2)}
    else:
        pan_lows = {}

    s = config.stage_scale

    def upsample(x: np.ndarray, level: str) -> np.ndarray:
        if config.upsample_mode == "bilinear":
            return _bilinear_ref(x, s)
        if config.upsample_mode == "deconv":
            if s == 2:
                return _deconv_ref(x, vals[f"{level}.up.w"], vals[f"{level}.up.b"])
            mid = _deconv_ref(x, vals[f"{level}.up1.w"], vals[f"{level}.up1.b"])
            return _deconv_ref(mid, vals[f"{level}.up2.w"], vals[f"{level}.up2.b"])
        return _shuffle_ref(cv(f"{level}.up", x), s)

    def inject(x: np.ndarray, d: np.ndarray, level: str) -> np.ndarray:
        up = upsample(x, level)
        if not config.use_mrab:
            return up + d
        if config.gain_mode == "tmra_hpm":
            low = pan_lows[level]
            if low.shape[1] == 1:
                low = np.repeat(low, c, axis=1)
            return up + (up / np.maximum(low, HPM_EPSILON)) * d
        gate = sigmoid(cv(f"{level}.gate2",
                          relu(cv(f"{level}.gate1", np.concatenate([up, d], axis=1)))))
        return up + gate * d

    def refine(x: np.ndarray, d: np.ndarray, level: str) -> np.ndarray:
        h = relu(cv(f"{level}.mix.entry", np.concatenate([x, d], axis=1)))
        branches = [cv(f"{level}.mix.k{k}", h) for k in config.mscb_kernels]
        return cv(f"{level}.mix.blend", np.concatenate(branches, axis=1)) + x

    if config.levels == 1:
        return None, refine(inject(lrms, d_full, "level1"), d_full, "level1")
    ms_hat_d = refine(inject(lrms, d_half, "level1"), d_half, "level1")
    ms_hat = refine(inject(ms_hat_d, d_full, "level2"), d_full, "level2")
    return ms_hat_d, ms_hat


# -- full-model check ------------------------------------------------------


def model_gradient_error(config=None, seed: int = 0) -> float:
    """Worst relative error of the engine's parameter gradients against
    central finite differences of the double-precision reference forward.

    The scalar under test is a fixed random projection of both outputs, so
    every output element (and therefore every parameter path) contributes.
    Raises NumericError if the engine and reference forwards disagree —
    differencing a mismatched reference would be meaningless.
    """
    from . import model as _model
    if config is None:
        config = _model.TdnetConfig(bands=8)
    params = _model.init_params(config, seed)
    probe_seed = seed * 2 + 1
    rng = np.random.default_rng(probe_seed)
    c, r = config.bands, RATIO
    lrms_np = rng.random((1, c, 2, 2)).astype(np.float32)
    pan_np = rng.random((1, 1, 2 * r, 2 * r)).astype(np.float32)
    proj_full = rng.standard_normal((1, c, 2 * r, 2 * r))
    proj_half = rng.standard_normal((1, c, r, r))

    lrms, pan = Tensor(lrms_np), Tensor(pan_np)
    with Tape():
        out = _model.tdnet_forward(lrms, pan, params, config)
        loss = (out.ms_hat * Tensor(proj_full)).sum()
        if out.ms_hat_d is not None:
            loss = loss + (out.ms_hat_d * Tensor(proj_half)).sum()
    loss.backward()

    vals = {name: t.data.astype(np.float64) for name, t in params.items()}
    ref_d, ref_y = reference_forward(lrms_np, pan_np, vals, config)
    gap = float(np.max(np.abs(ref_y - out.ms_hat.data)))
    if out.ms_hat_d is not None:
        gap = max(gap, float(np.max(np.abs(ref_d - out.ms_hat_d.data))))
    if gap > 1e-3:
        raise NumericError(
            f"engine and reference forwards disagree by {gap:.2e}; "
            f"the gradient check has no valid baseline"
        )

    def run() -> float:
        d, y = reference_forward(lrms_np, pan_np, vals, config)
        total = float((y * proj_full).sum())
        if d is not None:
            total += float((d * proj_half).sum())
        return total

    worst = 0.0
    pick = np.random.default_rng(probe_seed + 1)
    for name, tensor in params.items():
        flat = vals[name].reshape(-1)
        gflat = tensor.grad.reshape(-1)
        n_pick = min(MODEL_SAMPLES_PER_TENSOR, flat.size)
        for i in pick.choice(flat.size, size=n_pick, replace=False):
            orig = flat[i]
            flat[i] = orig + FD_STEP_MODEL
            fp = run()
            flat[i] = orig - FD_STEP_MODEL
            fm = run()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * FD_STEP_MODEL)
            worst = max(worst, _rel_error(float(gflat[i]), numeric, REL_FLOOR))
    return worst


def run_gradcheck(seed: int = 0) -> list[GradCheckRow]:
    """Sweep every registered op, then the full model; one row each."""
    rows = [GradCheckRow(name, check()) for name, check in OP_CHECKS.items()]
    rows.append(GradCheckRow("tdnet_forward", model_gradient_error(seed=seed)))
    return rows
