"""Sensor models and resampling primitives shared by simulation and fusion.

Rasters live as float64 numpy arrays scaled to [0, 1]: multispectral as
H x W x C, panchromatic as H x W. All filters run with mirrored boundaries
so edge statistics stay unbiased. Resampling uses offset-0 alignment
throughout: pixel centers of the two grids coincide at even offsets and
no half-pixel phase shift is introduced by upsampling or decimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import DataError

#: PAN/MS resolution ratio of every supported sensor (WorldView-3,
#: QuickBird, GaoFen-2) and of the reduced-resolution protocol.
RATIO = 4


@dataclass(frozen=True)
class SensorSpec:
    """Acquisition model: band count, MTF gains, bit depth."""

    name: str
    bands: int
    ms_nyquist_gains: tuple[float, ...]
    pan_nyquist_gain: float
    bit_depth: int

    def __post_init__(self):
        if self.bands not in (4, 8):
            raise ValueError(f"SensorSpec: bands must be 4 or 8, got {self.bands}")
        if len(self.ms_nyquist_gains) != self.bands:
            raise ValueError(
                f"SensorSpec: {len(self.ms_nyquist_gains)} MS gains for "
                f"{self.bands} bands")
        for g in (*self.ms_nyquist_gains, self.pan_nyquist_gain):
            if not 0.0 < g < 1.0:
                raise ValueError(f"SensorSpec: Nyquist gain {g} outside (0, 1)")
        if not 8 <= self.bit_depth <= 16:
            raise ValueError(f"SensorSpec: bit depth {self.bit_depth} outside 8..16")


def _uniform(g: float, bands: int) -> tuple[float, ...]:
    return (g,) * bands

SENSORS: dict[str, SensorSpec] = {
    "wv3": SensorSpec("wv3", 8, _uniform(0.35, 8), 0.15, 11),
    "gf2": SensorSpec("gf2", 4, _uniform(0.30, 4), 0.15, 10),
    "qb": SensorSpec("qb", 4, _uniform(0.34, 4), 0.15, 11),
}


def get_sensor(name: str) -> SensorSpec:
    try:
        return SENSORS[name]
    except KeyError:
        raise DataError(
            f"unknown sensor {name!r}; known: {sorted(SENSORS)}") from None


def check_unit_range(what, data: np.ndarray) -> None:
    """Refuse samples that are not finite or leave [0, 1], the radiometric
    range; ``what`` names the raster in the message."""
    # NaN propagates through min and max, so these two also refuse NaN and
    # the infinities, and neither warns on a signalling NaN.
    low, high = data.min(), data.max()
    if not 0.0 <= low <= high <= 1.0:
        raise DataError(f"{what}: samples must be finite and in [0, 1] "
                        f"(min {low:.4g}, max {high:.4g})")


@dataclass
class MsImage:
    """Multispectral raster (H x W x C in [0, 1]) tied to a sensor."""

    data: np.ndarray
    sensor: SensorSpec

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise DataError(f"MsImage: expected H x W x C data, got shape {self.data.shape}")
        if self.data.shape[2] != self.sensor.bands:
            raise DataError(
                f"MsImage: {self.data.shape[2]} bands but sensor "
                f"{self.sensor.name!r} has {self.sensor.bands}")
        check_unit_range("MsImage", self.data)


@dataclass
class PanImage:
    """Panchromatic raster (H x W in [0, 1]) tied to a sensor."""

    data: np.ndarray
    sensor: SensorSpec

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DataError(f"PanImage: expected H x W data, got shape {self.data.shape}")
        check_unit_range("PanImage", self.data)


def check_aligned(ms: MsImage, pan: PanImage) -> None:
    """Require a PAN raster :data:`RATIO` times the MS grid, from the same
    sensor."""
    expected = (ms.data.shape[0] * RATIO, ms.data.shape[1] * RATIO)
    if pan.data.shape != expected:
        raise DataError(
            f"pan shape {pan.data.shape} does not match MS shape "
            f"{ms.data.shape[:2]} at ratio {RATIO} (expected {expected})")
    if pan.sensor.name != ms.sensor.name:
        raise DataError(
            f"sensor mismatch ({ms.sensor.name!r} vs {pan.sensor.name!r})")


# -- MTF-matched Gaussian low-pass ----------------------------------------


def mtf_sigma(nyquist_gain: float, ratio: int) -> float:
    """Std-dev (in samples) whose frequency response hits nyquist_gain at
    the scale-ratio cutoff: sigma = sqrt(-2 ln(gain) (ratio/pi)^2) / 2."""
    if not 0.0 < nyquist_gain < 1.0:
        raise ValueError(f"nyquist gain {nyquist_gain} outside (0, 1)")
    return math.sqrt(-2.0 * math.log(nyquist_gain) * (ratio / math.pi) ** 2) / 2.0


def mtf_gaussian_taps(nyquist_gain: float, ratio: int, support: int = 41) -> np.ndarray:
    """1-D Gaussian low-pass taps matched to a sensor MTF gain.

    Returns ``support`` unit-sum taps; the 2-D filter is their outer
    product, which :func:`lowpass` applies one axis at a time. Smaller
    gains give wider kernels (stronger blur). At the sensors' sigmas
    (0.46-1.24 samples) most of the 41 default taps are below float64
    resolution of the peak; :func:`sensor_taps` cuts them off.
    """
    if support < 3 or support % 2 == 0:
        raise ValueError(f"kernel support must be odd and >= 3, got {support}")
    sigma = mtf_sigma(nyquist_gain, ratio)
    n = np.arange(support) - support // 2
    taps = np.exp(-0.5 * (n / sigma) ** 2)
    return taps / taps.sum()


@lru_cache(maxsize=64)
def sensor_taps(sensor: SensorSpec, factor: int) -> tuple:
    """The sensor-MTF blur of a ``factor`` degrade: the PAN row and the
    (C, K) stack of band rows, built once per (sensor, factor) and
    read-only, because every caller shares them.

    Each row is the 41-tap :func:`mtf_gaussian_taps` row cut to its
    central run of taps at or above ``eps`` times the peak, with the kept
    taps' values unchanged (not renormalised); the band stack is cut to
    its widest band's run. Each dropped tap weighs less than one float64
    ulp of the peak, so the cut moves a blur of data in [0, 1] by a few
    eps at most while its cost falls with its width: for wv3 the PAN row
    at x4 keeps 21 taps, the band rows 15 at x4 and 7 at x2.
    """
    pan_taps = _cut_to_eps(mtf_gaussian_taps(sensor.pan_nyquist_gain, factor))
    band_taps = _cut_to_eps(np.stack([mtf_gaussian_taps(gain, factor)
                                      for gain in sensor.ms_nyquist_gains]))
    pan_taps.flags.writeable = False
    band_taps.flags.writeable = False
    return pan_taps, band_taps


def _cut_to_eps(taps: np.ndarray) -> np.ndarray:
    """The central columns of symmetric tap rows out to the outermost tap
    of any row that reaches ``eps`` times its row's peak."""
    kept = taps >= np.finfo(np.float64).eps * taps.max(axis=-1, keepdims=True)
    centre = taps.shape[-1] // 2
    half = centre - int(np.argmax(np.atleast_2d(kept).any(axis=0)))
    return taps[..., centre - half:centre + half + 1].copy()


#: Bytes of padded planes that one group of :func:`lowpass` holds. A
#: 64x64 patch's 8 bands share one group (426 KB with 41 taps, 319 KB
#: with the 15 of a wv3 band), while each band of a 256x256 or larger
#: raster (512 KiB and up whatever the taps) has its own, so a scene
#: keeps the working set of one band at a time.
_LOWPASS_BUDGET = 512 << 10


def lowpass(image: np.ndarray, taps: np.ndarray, step: int = 1) -> np.ndarray:
    """Per-band separable convolution with ``outer(taps, taps)`` under a
    symmetric (edge-repeating) mirror boundary, keeping every ``step``-th
    sample along both spatial axes from offset 0.

    ``taps`` is one odd-length row for every band, or, for an H x W x C
    image, one row per band with shape (C, K). The result equals the
    full-size filtered image sliced ``[::step, ::step]``, but only the
    kept samples are computed, so a blur-and-decimate costs about
    ``1/step`` of a full-size blur.

    The bands are filtered band-major (C x H x W) in groups whose padded
    planes fit ``_LOWPASS_BUDGET``: a small patch's bands take one pad and
    one product per axis, a scene's go one at a time. Every output sample
    is the same sequential float64 sum over the taps, whatever the group.
    """
    taps = np.asarray(taps, dtype=np.float64)
    if step < 1:
        raise ValueError(f"lowpass: step must be >= 1, got {step}")
    data = np.asarray(image, dtype=np.float64)
    if data.ndim not in (2, 3):
        raise ValueError(f"lowpass: expected 2-D or 3-D image, got shape {data.shape}")
    if (taps.ndim not in (1, 2) or taps.shape[-1] % 2 == 0
            or taps.ndim == 2 and taps.shape[:1] != data.shape[2:]):
        raise ValueError(
            f"lowpass: taps must be one odd-length row, or one per band of an "
            f"H x W x C image; got {taps.shape} for image {data.shape}")
    if data.ndim == 2:
        return _lowpass_planes(data, taps, step)
    height, width, bands = data.shape
    half = taps.shape[-1] // 2
    rows, cols = -(-height // step), -(-width // step)
    plane_bytes = 8 * max((height + 2 * half) * width, rows * (width + 2 * half))
    group = max(1, _LOWPASS_BUDGET // plane_bytes)
    planes = np.moveaxis(data, 2, 0)
    out = np.empty((rows, cols, bands))
    for start in range(0, bands, group):
        kept = slice(start, start + group)
        group_taps = taps if taps.ndim == 1 else taps[kept, None, None]
        out[:, :, kept] = np.moveaxis(
            _lowpass_planes(planes[kept], group_taps, step), 0, -1)
    return out


def _lowpass_planes(planes: np.ndarray, taps: np.ndarray, step: int) -> np.ndarray:
    """Filter and decimate the last two axes of ``planes``; the leading
    axes of ``taps`` broadcast against the leading axes of ``planes``."""
    for axis in (-2, -1):
        planes = _lowpass_axis(planes, taps, axis, step)
    return planes


def _lowpass_axis(data: np.ndarray, taps: np.ndarray, axis: int, step: int) -> np.ndarray:
    """Filter ``data`` along ``axis`` (-2 or -1) with a symmetric mirror
    boundary, keeping every ``step``-th output.

    The padded plane has ``np.pad(mode="symmetric")``'s values and memory
    order, and the kept windows are one strided view of it with the tap
    index last, the operands that ``np.pad`` and ``sliding_window_view``
    would give: the einsum's summation order follows the strides, so
    matching them keeps every output's bits.
    """
    size = taps.shape[-1]
    padded = _mirror_pad(data, size // 2, axis)
    shape, strides = list(padded.shape), list(padded.strides)
    shape[axis] = -(-data.shape[axis] // step)
    strides[axis] *= step
    windows = as_strided(padded, (*shape, size),
                         (*strides, padded.strides[axis]), writeable=False)
    # Convolution flips the taps; the window index is the last axis.
    return np.einsum("...k,...k->...", windows, taps[..., ::-1])


def _mirror_pad(data: np.ndarray, half: int, axis: int) -> np.ndarray:
    """``np.pad(data, half, mode="symmetric")`` along ``axis`` alone, in
    the memory order ``np.pad`` picks, filled by slicing.

    Each pass mirrors the filled run about both its ends, which lie a
    whole number of axis lengths from the data, so a halo longer than the
    axis repeats the mirrored data as ``np.pad`` does.
    """
    length = data.shape[axis]
    if half and not length:
        raise ValueError(f"lowpass: cannot mirror an empty axis of {data.shape}")
    shape = list(data.shape)
    shape[axis] += 2 * half
    padded = np.empty(shape, order="F" if data.flags.fnc else "C")

    def along(start, stop):
        return (..., slice(start, stop)) + (slice(None),) * (-1 - axis)

    lo, hi = half, half + length
    padded[along(lo, hi)] = data
    while lo:
        run = min(lo, hi - lo)
        padded[along(lo - run, lo)] = np.flip(padded[along(lo, lo + run)], axis)
        padded[along(hi, hi + run)] = np.flip(padded[along(hi - run, hi)], axis)
        lo, hi = lo - run, hi + run
    return padded


# -- 23-tap interpolation --------------------------------------------------


def interp23_taps() -> np.ndarray:
    """Half-band windowed-sinc taps for one x2 stage.

    h[n] = sinc(n/2) * hamming(n), n = -11..11; even taps are exactly zero
    except the unit center, and the odd taps are renormalized to sum to 1
    so constants survive interpolation.
    """
    n = np.arange(23) - 11
    taps = np.sinc(n / 2.0) * np.hamming(23)
    taps[(n % 2 == 0) & (n != 0)] = 0.0
    taps[n == 0] = 1.0
    odd = n % 2 != 0
    taps[odd] /= taps[odd].sum()
    return taps


#: Fewest samples per axis that :func:`interp23` can mirror its taps over.
INTERP23_MIN_SIZE = 6


def _upsample2_axis(arr: np.ndarray, axis: int, taps: np.ndarray) -> np.ndarray:
    shape = list(arr.shape)
    if shape[axis] < INTERP23_MIN_SIZE:
        raise ValueError(
            f"interp23: axis {axis} has {shape[axis]} samples; "
            f"need >= {INTERP23_MIN_SIZE}")
    shape[axis] *= 2
    out = np.empty(shape, dtype=np.float64)
    x = np.moveaxis(arr, axis, -1)
    y = np.moveaxis(out, axis, -1)
    # Polyphase form of zero-interleaving then filtering with the taps:
    # the even outputs are the input samples (the only nonzero even tap is
    # the unit center) and the odd outputs are the odd taps applied on the
    # input grid. Mirroring the interleaved signal about its edge samples
    # reflects the input about its first sample and repeats its last one.
    y[..., ::2] = x
    padded = np.concatenate((x[..., 5:0:-1], x, x[..., :-7:-1]), axis=-1)
    y[..., 1::2] = sliding_window_view(padded, 12, axis=-1) @ taps[::2]
    return out


#: Values of one band's upsampled plane from which :func:`interp23`
#: upsamples a stack band by band.  Against whole-stack stages on 8-band
#: stacks, one band at a time took 2.5x the time at MS 16x16, 1.45x at
#: 32x32, 1.0x at 48x48, 0.87x at 64x64 and 0.85x at 128x128 (paired
#: runs, ``BENCH_26.json``): below the bar the stack runs whole.
_INTERP23_BAND_VALUES = 1 << 16


def interp23(image: np.ndarray) -> np.ndarray:
    """Upsample by :data:`RATIO` as two x2 stages.

    Each stage zero-interleaves (samples at even offsets) then applies the
    separable 23-tap half-band filter along both spatial axes, computed
    as its two polyphase branches.  A 3-D stack whose upsampled band
    holds at least ``_INTERP23_BAND_VALUES`` values is upsampled band by
    band into one preallocated output: a scene's stages hold one band's
    intermediates, so its traced peak is ~1.3x the output, not ~2.5x, and
    every value is summed as for the whole stack.
    """
    data = np.asarray(image, dtype=np.float64)
    if data.ndim not in (2, 3):
        raise ValueError(f"interp23: expected 2-D or 3-D image, got shape {data.shape}")
    taps = interp23_taps()

    def upsample(part: np.ndarray) -> np.ndarray:
        for _ in range(RATIO.bit_length() - 1):  # RATIO = 2 ** stages
            part = _upsample2_axis(part, 0, taps)
            part = _upsample2_axis(part, 1, taps)
        return part

    height, width = data.shape[:2]
    if data.ndim == 2 or RATIO ** 2 * height * width < _INTERP23_BAND_VALUES:
        return upsample(data)
    out = np.empty((RATIO * height, RATIO * width, data.shape[2]), dtype=np.float64)
    for band in range(data.shape[2]):
        out[:, :, band:band + 1] = upsample(data[:, :, band:band + 1])
    return out
