"""Two-level detail-injection fusion network and its ablation variants.

The network upsamples a low-resolution multispectral stack in stages, two
×2 stages by default, listed coarsest first by :attr:`TdnetConfig.stages`.
A shared PAN branch extracts a 64-channel feature map and projects it to a
per-band detail map on each stage's output grid. Each stage upsamples its
input, injects that detail map through a learned sigmoid gate (MRAB), then
refines the result with a multi-scale convolution block (MSCB) that mixes
3/5/7 kernels and adds the stage input back as a residual.

Everything is expressed over :class:`~pansharp.grad.Tensor`, so a forward
pass run under an active :class:`~pansharp.grad.Tape` is differentiable in
every parameter. Without a tape, the blocks whose maps are 64 channels
wide at full resolution (the PAN branch, the gates and the MSCBs) run in
row bands, with the same bits as one pass. Parameters live in a flat
``{name: Tensor}`` dict whose canonical order is fixed by
:func:`parameter_plan`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fusion import HPM_EPSILON
from .grad import (
    DTYPE,
    SplitMix64,
    Tape,
    Tensor,
    avgpool2d,
    bilinear_upsample,
    concat,
    conv2d,
    conv2d_transpose,
    derive_seed,
    divide_by_constant,
    kaiming_uniform,
    l1_loss,
    maxpool2d,
    pixel_shuffle,
    relu,
    scale,
    sigmoid,
)
from .imaging import RATIO

UPSAMPLE_MODES = ("pixel_shuffle", "bilinear", "deconv")
GAIN_MODES = ("learned_attention", "tmra_hpm")

_CKPT_MAGIC = b"PSC1"
_CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sI8x")
_U32 = struct.Struct("<I")

#: PAN-branch projection producing the detail map of a stage, by its pooling.
_DETAIL_LAYERS = {1: "pan.detail_full", 2: "pan.detail_half"}

# Output rows per band of a block whose intermediates are wide maps, when
# no tape records; a multiple of every stage pool.  Each layer of a band
# computes only the rows that reach the band's output, so the overlap
# between bands shrinks layer by layer.  On a 256^2 PAN a default-width
# forward in 64-row bands does 3.0% more conv work than one pass (128-row
# bands with the whole halo recomputed at every layer did 3.4%) and peaks
# at 27.6 MiB traced, against 57.7 MiB in one pass (512^2: 60.2 against
# 205.5 MiB).  32 rows peak at 21.8 MiB for 7.2% more conv work.
_BAND_ROWS = 64


@dataclass(frozen=True)
class TdnetConfig:
    """Architecture hyperparameters and variant switches.

    ``mscb_width`` is the per-kernel channel count inside the multi-scale
    block; the default of 38 puts the 8-band parameter count near 5.5e5.
    ``levels=1`` collapses the model to a single ×:data:`RATIO` stage
    driven by the full-resolution detail map only. Code that differs by
    level reads :attr:`stages`.
    """

    bands: int
    feature_width: int = 64
    mscb_kernels: tuple[int, ...] = (3, 5, 7)
    mscb_width: int = 38
    upsample_mode: str = "pixel_shuffle"
    use_mrab: bool = True
    use_pan_branch: bool = True
    levels: int = 2
    gain_mode: str = "learned_attention"

    def __post_init__(self):
        object.__setattr__(self, "mscb_kernels", tuple(self.mscb_kernels))
        if self.bands < 1:
            raise ValueError(f"bands must be >= 1, got {self.bands}")
        if self.levels not in (1, 2):
            raise ValueError(f"levels must be 1 or 2, got {self.levels}")
        if not self.mscb_kernels:
            raise ValueError("mscb_kernels must be nonempty")
        for k in self.mscb_kernels:
            if k < 1 or k % 2 == 0:
                raise ValueError(f"mscb kernel sizes must be odd, got {k}")
        if self.feature_width < 1:
            raise ValueError(f"feature_width must be >= 1, got {self.feature_width}")
        if self.mscb_width < 1:
            raise ValueError(f"mscb_width must be >= 1, got {self.mscb_width}")
        if self.upsample_mode not in UPSAMPLE_MODES:
            raise ValueError(
                f"unknown upsample_mode {self.upsample_mode!r} "
                f"(expected one of {UPSAMPLE_MODES})"
            )
        if self.gain_mode not in GAIN_MODES:
            raise ValueError(
                f"unknown gain_mode {self.gain_mode!r} (expected one of {GAIN_MODES})"
            )

    @property
    def stage_scale(self) -> int:
        """Upsampling factor of each stage (2 for two stages, else
        :data:`RATIO`)."""
        return 2 if self.levels == 2 else RATIO

    @property
    def stages(self) -> tuple[tuple[str, int], ...]:
        """One (level name, PAN pooling of the stage's output grid) pair
        per stage, coarsest first: ``(("level1", 2), ("level2", 1))`` for
        two levels, ``(("level1", 1),)`` for one."""
        return tuple((f"level{i + 1}", self.stage_scale ** (self.levels - 1 - i))
                     for i in range(self.levels))


@dataclass
class TdnetOutput:
    """Half-resolution and full-resolution fused stacks.

    ``ms_hat_d`` is ``None`` for a single-level model.
    """

    ms_hat_d: Tensor | None
    ms_hat: Tensor


def config_to_dict(config: TdnetConfig) -> dict:
    """The checkpoint's config record; it also names the ratio, always
    :data:`RATIO`."""
    payload = dataclasses.asdict(config)
    payload["mscb_kernels"] = list(config.mscb_kernels)
    payload["ratio"] = RATIO
    return payload


def config_from_dict(payload: dict) -> TdnetConfig:
    kwargs = dict(payload)
    ratio = kwargs.pop("ratio", RATIO)
    if ratio != RATIO:
        raise ValueError(f"ratio is {ratio!r}, not {RATIO}")
    known = {f.name for f in dataclasses.fields(TdnetConfig)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise ValueError(f"unknown model config keys: {', '.join(unknown)}")
    if "mscb_kernels" in kwargs:
        kwargs["mscb_kernels"] = tuple(int(k) for k in kwargs["mscb_kernels"])
    return TdnetConfig(**kwargs)


# -- parameters ------------------------------------------------------------


def parameter_plan(config: TdnetConfig) -> list[tuple[str, tuple[int, ...], int | None]]:
    """Canonical layer inventory: (name, shape, fan_in; None means zeros).

    The order here fixes both the initialization stream layout and the
    checkpoint serialization order.
    """
    c = config.bands
    fw = config.feature_width
    plan: list[tuple[str, tuple[int, ...], int | None]] = []

    def conv(name: str, cin: int, cout: int, k: int) -> None:
        plan.append((f"{name}.w", (cout, cin, k, k), cin * k * k))
        plan.append((f"{name}.b", (cout,), None))

    def deconv(name: str, cin: int, cout: int) -> None:
        plan.append((f"{name}.w", (cin, cout, 4, 4), cin * 16))
        plan.append((f"{name}.b", (cout,), None))

    if config.use_pan_branch:
        conv("pan.entry", 1, fw, 3)
        conv("pan.res1", fw, fw, 3)
        conv("pan.res2", fw, fw, 3)
        for _, pool in reversed(config.stages):  # the checkpoint's order
            conv(_DETAIL_LAYERS[pool], fw, c, 3)

    s = config.stage_scale
    for level, _ in config.stages:
        if config.upsample_mode == "pixel_shuffle":
            conv(f"{level}.up", c, c * s * s, 3)
        elif config.upsample_mode == "deconv":
            if s == 2:
                deconv(f"{level}.up", c, c)
            else:
                deconv(f"{level}.up1", c, c)
                deconv(f"{level}.up2", c, c)
        if config.use_mrab and config.gain_mode == "learned_attention":
            conv(f"{level}.gate1", 2 * c, fw, 3)
            conv(f"{level}.gate2", fw, c, 3)
        conv(f"{level}.mix.entry", 2 * c, fw, 3)
        for k in config.mscb_kernels:
            conv(f"{level}.mix.k{k}", fw, config.mscb_width, k)
        conv(f"{level}.mix.blend", len(config.mscb_kernels) * config.mscb_width, c, 3)
    return plan


def init_params(config: TdnetConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic parameter dict: Kaiming-uniform weights, zero biases.

    Each layer draws from its own seed stream keyed by the layer name, so
    the values of one layer do not depend on the presence of another.
    """
    params: dict[str, Tensor] = {}
    for name, shape, fan_in in parameter_plan(config):
        if fan_in is None:
            data = np.zeros(shape, dtype=DTYPE)
        else:
            rng = SplitMix64(derive_seed(seed, "params", name))
            data = kaiming_uniform(rng, shape, fan_in)
        params[name] = Tensor(data, requires_grad=True)
    return params


# -- forward blocks --------------------------------------------------------


def _conv_layer(params: dict[str, Tensor], name: str, x: Tensor,
                pad_rows: tuple | None = None) -> Tensor:
    w = params[f"{name}.w"]
    return conv2d(x, w, params[f"{name}.b"], padding=w.shape[2] // 2,
                  pad_rows=pad_rows)


def _reach(params: dict[str, Tensor], *names: str) -> int:
    """Rows a chain of the named conv layers reads beyond an output row."""
    return sum(params[f"{name}.w"].shape[2] // 2 for name in names)


def _in_row_bands(block, inputs: tuple[Tensor, ...], halo: int):
    """``block(conv, crop, *inputs)``, computed over row bands when no
    tape records.

    The inputs share one grid of H rows; ``block`` returns a Tensor or a
    list of them, each on that grid pooled by a factor dividing
    :data:`_BAND_ROWS`.  Bands start on multiples of ``_BAND_ROWS`` and
    read ``halo`` more rows each side, clipped at the image edge; ``halo``
    is the block's reach, exactly.  The block builds its layers with two
    helpers.  ``conv(params, name, x)`` is ``_conv_layer`` with the rows
    zero-padded only at an image edge: at an interior edge a layer
    computes only the rows its input holds, so each layer's overlap with
    the next band shrinks by its own reach, and only rows that reach the
    band's output are computed.  ``crop(x, n)`` drops n rows at each
    interior edge, to put a map that skips layers (a residual term, a
    narrower branch, a finer pool) on the rows of the maps it meets.  The
    band's outputs then hold its own rows, or run on to the image edge
    where it meets one, and are written into one output per result.  Every
    output row is summed from the windows of one whole pass, and the conv
    engine sums a value alike wherever its rows are cut, so the bits are
    the same.  Under a tape, or when one band holds every row, the helpers
    are ``_conv_layer`` and the identity and the block runs whole: under a
    tape the closures would keep every band's activations, and the weight
    gradients would be summed band by band.
    """
    height = inputs[0].shape[2]
    if Tape.active() is not None or height <= _BAND_ROWS:
        return block(_conv_layer, lambda x, rows: x, *inputs)
    # Bands cut every input to the first one's rows, so rows a taller
    # input holds beyond them would go unread.
    if any(x.shape[2] != height for x in inputs):
        raise ValueError(
            f"row bands: inputs differ in height: {[x.shape for x in inputs]}")
    outs = None
    for r0 in range(0, height, _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, height)
        lo, hi = max(0, r0 - halo), min(height, r1 + halo)
        top, bottom = lo == 0, hi == height  # the band meets the image edge

        def conv(params, name, x):
            pad = params[f"{name}.w"].shape[2] // 2
            return _conv_layer(params, name, x, (pad * top, pad * bottom))

        def crop(x, rows):
            return Tensor(x.data[:, :, rows * (not top):x.shape[2] - rows * (not bottom)])

        result = block(conv, crop, *(Tensor(x.data[:, :, lo:hi]) for x in inputs))
        parts = [result] if isinstance(result, Tensor) else result
        first, last = (lo if top else r0), (hi if bottom else r1)  # rows held
        if outs is None:
            pools = [(last - first) // part.shape[2] for part in parts]
            outs = [np.empty(part.shape[:2] + (height // pool,) + part.shape[3:],
                             DTYPE) for part, pool in zip(parts, pools)]
        for out, part, pool in zip(outs, parts, pools):
            out[:, :, r0 // pool:r1 // pool] = \
                part.data[:, :, (r0 - first) // pool:(r1 - first) // pool]
    tensors = [Tensor(out) for out in outs]
    return tensors[0] if isinstance(result, Tensor) else tensors


def pan_details(pan: Tensor, params: dict[str, Tensor],
                config: TdnetConfig) -> list[Tensor]:
    """One per-band detail map per stage, on that stage's output grid.

    With the PAN branch: shared features, max-pooled to the stage's grid
    and projected to the bands, in row bands of the PAN when no tape
    records. Without it: the PAN block-averaged to the grid and repeated
    across bands.
    """
    if not config.use_pan_branch:
        return [Tensor(np.repeat(avgpool2d(pan, pool).data, config.bands, axis=1))
                for _, pool in config.stages]

    # PAN rows of shared the projections read beyond a detail row.
    read = max(pool * _reach(params, _DETAIL_LAYERS[pool]) for _, pool in config.stages)

    def trunk(conv, crop, pan: Tensor) -> Tensor:
        feats = relu(conv(params, "pan.entry", pan))
        return crop(feats, _reach(params, "pan.res1", "pan.res2")) + conv(
            params, "pan.res2", relu(conv(params, "pan.res1", feats)))

    def branch(conv, crop, pan: Tensor) -> list[Tensor]:
        # The residual sum outlives its terms, so the relu holds two wide
        # maps, not four, and the projections only shared.
        shared = relu(trunk(conv, crop, pan))
        # Finest first, as parameter_plan orders them; on a 256^2 PAN the
        # other order gives the same traced peak, in bands or in one.  A
        # projection at pool p reads p rows of shared per row of its reach
        # beyond the band, so the pooling windows start on the band's.
        finest_first = []
        for _, pool in reversed(config.stages):
            name = _DETAIL_LAYERS[pool]
            x = crop(shared, read - pool * _reach(params, name))
            finest_first.append(conv(params, name, maxpool2d(x, pool) if pool > 1 else x))
        return finest_first[::-1]

    return _in_row_bands(
        branch, (pan,), _reach(params, "pan.entry", "pan.res1", "pan.res2") + read)


def _upsample(x: Tensor, params: dict[str, Tensor], level: str, s: int,
              config: TdnetConfig) -> Tensor:
    if config.upsample_mode == "bilinear":
        return bilinear_upsample(x, s)
    if config.upsample_mode == "deconv":
        if s == 2:
            return conv2d_transpose(x, params[f"{level}.up.w"],
                                    params[f"{level}.up.b"])
        mid = conv2d_transpose(x, params[f"{level}.up1.w"], params[f"{level}.up1.b"])
        return conv2d_transpose(mid, params[f"{level}.up2.w"],
                                params[f"{level}.up2.b"])
    return pixel_shuffle(_conv_layer(params, f"{level}.up", x), s)


def tmra_injection(ms_up: Tensor, pan_l: Tensor, d: Tensor) -> Tensor:
    """Ratio-gain injection: ms_up + (ms_up / max(pan_l, HPM_EPSILON)) * d.

    ``pan_l`` is the smoothed PAN raster, one channel (B, 1, H, W) that
    broadcasts across the bands, held constant. Gradients flow through
    both ``ms_up`` factors and ``d``.
    """
    b, _, h, w = ms_up.shape
    if pan_l.shape != (b, 1, h, w):
        raise ValueError(
            f"tmra_injection: pan_l shape {pan_l.shape} does not match "
            f"{(b, 1, h, w)}, the 4-D single channel of ms_up {ms_up.shape}")
    gain = divide_by_constant(ms_up, np.maximum(pan_l.data, DTYPE(HPM_EPSILON)))
    return ms_up + gain * d


def mrab(ms_low: Tensor, d: Tensor, params: dict[str, Tensor],
         config: TdnetConfig, level: str, *,
         pan_low: Tensor | None = None) -> Tensor:
    """Upsample by the stage scale and inject the detail map through a gain.

    The learned gain is a sigmoid gate over the concatenated inputs. With
    ``use_mrab`` off the detail map is added directly; in ``tmra_hpm``
    mode the gain is the band-to-PAN ratio.
    """
    ms_up = _upsample(ms_low, params, level, config.stage_scale, config)
    if not config.use_mrab:
        return ms_up + d
    if config.gain_mode == "tmra_hpm":
        if pan_low is None:
            raise ValueError("mrab: tmra_hpm mode needs the smoothed PAN raster")
        return tmra_injection(ms_up, pan_low, d)

    reach = _reach(params, f"{level}.gate1", f"{level}.gate2")

    def gated(conv, crop, ms_up: Tensor, d: Tensor) -> Tensor:
        hidden = relu(conv(params, f"{level}.gate1", concat([ms_up, d])))
        gain = sigmoid(conv(params, f"{level}.gate2", hidden))
        return crop(ms_up, reach) + gain * crop(d, reach)

    return _in_row_bands(gated, (ms_up, d), reach)


def mscb(x: Tensor, d: Tensor, params: dict[str, Tensor],
         config: TdnetConfig, level: str) -> Tensor:
    """Multi-scale refinement: parallel odd kernels over shared features.

    concat(x, d) -> entry conv + relu -> one conv per kernel size ->
    concat -> blend conv back to the band count -> + x (residual).
    """
    widest = max(config.mscb_kernels)
    halo = _reach(params, f"{level}.mix.entry", f"{level}.mix.blend") + widest // 2

    def refined(conv, crop, x: Tensor, d: Tensor) -> Tensor:
        h = relu(conv(params, f"{level}.mix.entry", concat([x, d])))
        # A narrower kernel reads h on the rows the widest one leaves.
        branches = [conv(params, f"{level}.mix.k{k}", crop(h, (widest - k) // 2))
                    for k in config.mscb_kernels]
        del h  # the blend reads only the branches
        return conv(params, f"{level}.mix.blend", concat(branches)) + crop(x, halo)

    return _in_row_bands(refined, (x, d), halo)


def tdnet_forward(lrms: Tensor, pan: Tensor, params: dict[str, Tensor],
                  config: TdnetConfig) -> TdnetOutput:
    """Run the full network: PAN details, then one injection+refine stage
    per entry of ``config.stages``, coarsest first.
    """
    if lrms.data.ndim != 4 or pan.data.ndim != 4:
        raise ValueError("tdnet_forward: inputs must be 4-D (B,C,H,W)")
    if lrms.shape[1] != config.bands:
        raise ValueError(
            f"tdnet_forward: input has {lrms.shape[1]} bands but the model "
            f"expects {config.bands}"
        )
    if pan.shape[0] != lrms.shape[0] or pan.shape[1] != 1:
        raise ValueError(
            f"tdnet_forward: pan shape {pan.shape} does not pair with "
            f"lrms shape {lrms.shape}"
        )
    if (pan.shape[2] != RATIO * lrms.shape[2]
            or pan.shape[3] != RATIO * lrms.shape[3]):
        raise ValueError(
            f"tdnet_forward: pan dims {pan.shape[2:]} must be {RATIO}x the "
            f"lrms dims {lrms.shape[2:]}"
        )

    s = config.stage_scale
    outputs = []
    x = lrms
    for (level, pool), d in zip(config.stages, pan_details(pan, params, config)):
        pan_low = (bilinear_upsample(avgpool2d(avgpool2d(pan, pool), s), s)
                   if config.gain_mode == "tmra_hpm" else None)
        x = mscb(mrab(x, d, params, config, level, pan_low=pan_low),
                 d, params, config, level)
        outputs.append(x)
    return TdnetOutput(ms_hat_d=outputs[0] if len(outputs) == 2 else None,
                       ms_hat=x)


def tdnet_loss(out: TdnetOutput, gt: Tensor, gt_d: Tensor | None,
               gamma: float) -> Tensor:
    """gamma * l1(half-res output, gt_d) + (1 - gamma) * l1(full output, gt);
    a single-level output has only the full term, whatever gamma and gt_d."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if out.ms_hat_d is None:
        return l1_loss(out.ms_hat, gt)
    if gt_d is None:
        raise ValueError("tdnet_loss: a two-level model needs the gt_d target")
    return (scale(l1_loss(out.ms_hat_d, gt_d), gamma)
            + scale(l1_loss(out.ms_hat, gt), 1.0 - gamma))


# -- rasters ---------------------------------------------------------------


def network_batch(rasters) -> Tensor:
    """H x W x C rasters, or H x W PAN planes, as one (B, C, H, W) batch,
    each cast once into the preallocated float32 array."""
    first = np.atleast_3d(rasters[0])
    batch = np.empty((len(rasters), first.shape[2]) + first.shape[:2], DTYPE)
    for image, raster in zip(batch, rasters):
        image[...] = np.atleast_3d(raster).transpose(2, 0, 1)
    return Tensor(batch)


def fused_raster(t: Tensor) -> np.ndarray:
    """Image 0 of a network output as the H x W x C float64 raster that
    ``pansharp fuse`` writes: clipped to the radiometric range [0, 1]."""
    fused = t.data[0].transpose(1, 2, 0).astype(np.float64)
    return np.clip(fused, 0.0, 1.0, out=fused)


# -- variants --------------------------------------------------------------


def ablation_configs(base: TdnetConfig) -> dict[str, TdnetConfig]:
    """The full model plus its eight named single-change variants.

    ``tdnet-minus`` shrinks the multi-scale width to a third (38 -> 12 at
    the default width).
    """
    replace = dataclasses.replace
    return {
        "tdnet": base,
        "wo-mrab": replace(base, use_mrab=False),
        "sscb": replace(base, mscb_kernels=(5,)),
        "wo-pan-branch": replace(base, use_pan_branch=False),
        "single-stage": replace(base, levels=1),
        "bilinear": replace(base, upsample_mode="bilinear"),
        "deconv": replace(base, upsample_mode="deconv"),
        "tdnet-minus": replace(base, mscb_width=max(1, base.mscb_width // 3)),
        "tdnet-tmra": replace(base, gain_mode="tmra_hpm"),
    }


# -- checkpoints -----------------------------------------------------------


def save_checkpoint(path, params: dict[str, Tensor], config: TdnetConfig) -> None:
    """Write config + named f32 parameter blobs; round-trips bit-exactly."""
    config_bytes = json.dumps(config_to_dict(config), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION))
        fh.write(_U32.pack(len(config_bytes)))
        fh.write(config_bytes)
        fh.write(_U32.pack(len(params)))
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            fh.write(_U32.pack(len(encoded)))
            fh.write(encoded)
            fh.write(_U32.pack(tensor.data.ndim))
            for dim in tensor.data.shape:
                fh.write(_U32.pack(dim))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read n bytes, refusing a declared size the rest of the file lacks."""
    if n > _bytes_left(fh):
        raise DataError(f"checkpoint truncated while reading {what}")
    return fh.read(n)


def load_checkpoint(path) -> tuple[dict[str, Tensor], TdnetConfig]:
    """Read a checkpoint back into (params, config); validates the layout
    and that every parameter value is finite."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        magic, version = _CKPT_HEADER.unpack(_read_exact(fh, _CKPT_HEADER.size,
                                                         "header"))
        if magic != _CKPT_MAGIC:
            raise DataError(f"not a checkpoint file: bad magic {magic!r}")
        if version != _CKPT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        (config_len,) = _U32.unpack(_read_exact(fh, 4, "config length"))
        try:
            payload = json.loads(_read_exact(fh, config_len, "config"))
            config = config_from_dict(payload)
        except (ValueError, TypeError) as exc:
            raise DataError(f"malformed checkpoint config: {exc}") from exc
        (n_params,) = _U32.unpack(_read_exact(fh, 4, "parameter count"))
        # A parameter record holds at least a name length, a rank and a value.
        if 12 * n_params > _bytes_left(fh):
            raise DataError(
                f"checkpoint truncated: it declares {n_params} parameters")
        params: dict[str, Tensor] = {}
        for _ in range(n_params):
            (name_len,) = _U32.unpack(_read_exact(fh, 4, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"checkpoint parameter name is not UTF-8: {exc}") from exc
            (ndim,) = _U32.unpack(_read_exact(fh, 4, "rank"))
            if ndim > 4:  # no layer of the network has more axes
                raise DataError(f"checkpoint parameter {name} has rank {ndim}")
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "dims"))
            raw = _read_exact(fh, 4 * math.prod(shape), f"data for {name}")
            data = np.frombuffer(raw, dtype="<f4").reshape(shape)
            if not np.isfinite(data).all():
                raise DataError(f"checkpoint parameter {name} has non-finite values")
            params[name] = Tensor(data.astype(DTYPE), requires_grad=True)
        if fh.read(1):
            raise DataError("checkpoint has trailing bytes")

    expected = {(name, shape) for name, shape, _ in parameter_plan(config)}
    actual = {(name, tensor.data.shape) for name, tensor in params.items()}
    if expected != actual:
        raise DataError(
            "checkpoint parameters do not match the architecture its config "
            "declares"
        )
    return params, config
