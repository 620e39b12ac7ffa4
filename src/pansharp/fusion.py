"""Classical detail-injection fusion.

Every method here is one instance of the same resolution-pyramid recipe:
upsample the multispectral image, extract the panchromatic detail plane
P - P_L with some low-pass P_L, scale it by a per-band gain G, and add:

    fused_k = ms_up_k + G_k * (P - P_L)

Choosing P_L and G yields the familiar family: plain upsampling (EXP),
box-smoothed intensity modulation (SFIM), and the sensor-matched Gaussian
pyramid with unit, ratio, or regression gains.  A band's gain and match
read only that band and the shared P_L, so one loop adds each band's
detail into the upsampled MS in place, a strip of rows at a time: every
method peaks where plain upsampling does.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .imaging import (
    INTERP23_MIN_SIZE,
    RATIO,
    MsImage,
    PanImage,
    check_aligned,
    interp23,
    lowpass,
    sensor_taps,
)

PAN_LOWPASS_MODES = ("mtf_glp", "box")
GAIN_MODES = ("unit", "hpm", "regression")

#: Floor on the low-pass plane in the high-pass-modulation gain
#: ``ms_up / max(P_L, HPM_EPSILON)``, shared with the network's ratio gain.
HPM_EPSILON = 1e-4

# Values per row strip of the injection loop (32 KiB of float64): the
# strip's low-pass, detail and gain planes are its only temporaries, so
# the loop holds no full-size plane beside P_L.  Whole planes, even
# formed in place, peak at 1.23x exp's peak for glp-hpm and 1.14x for
# sfim and glp-reg (MS 64x64x8).  Against whole planes, a fuse with the
# strips took 0.99-1.09x the time at MS 16x16 to 48x48 (BENCH_26.json).
_STRIP_VALUES = 1 << 12


@dataclass(frozen=True)
class MraConfig:
    """Selects the low-pass estimator and the injection-gain rule.

    ``equalize`` radiometrically matches the panchromatic plane to each
    band (global mean/std affine, estimated against the band's low-pass)
    before extracting details and computing the gain, whatever the gain
    rule.  Without it, multiplicative injection
    rescales every band by the same per-pixel factor and so cannot move
    the spectral angle; matching makes the modulation band-aware, which
    is what lets the Gaussian-pyramid method improve on plain
    upsampling spectrally.  Pure intensity modulation (SFIM) keeps it
    off to preserve its classical ratio form.
    """

    pan_lowpass_mode: str = "mtf_glp"
    gain_mode: str = "unit"
    equalize: bool = False

    def __post_init__(self):
        if self.pan_lowpass_mode not in PAN_LOWPASS_MODES:
            raise ValueError(
                f"pan_lowpass_mode must be one of {PAN_LOWPASS_MODES}, "
                f"got {self.pan_lowpass_mode!r}")
        if self.gain_mode not in GAIN_MODES:
            raise ValueError(
                f"gain_mode must be one of {GAIN_MODES}, got {self.gain_mode!r}")


# Named method presets selectable from the CLI.
METHODS: dict[str, MraConfig | None] = {
    "exp": None,  # upsample only
    "mra-unit": MraConfig("mtf_glp", "unit"),
    "sfim": MraConfig("box", "hpm"),
    "glp-hpm": MraConfig("mtf_glp", "hpm", equalize=True),
    "glp-reg": MraConfig("mtf_glp", "regression"),
}


def pan_lowpass(pan: PanImage, config: MraConfig) -> np.ndarray:
    """Low-resolution estimate P_L of the panchromatic plane, full size.

    mtf_glp: sensor-matched Gaussian blur, decimate by the ratio, then
    23-tap interpolation back up (so P_L sees exactly the resampling the
    MS image went through). box: plain uniform smoothing over 2 * RATIO + 1
    taps.
    """
    if config.pan_lowpass_mode == "box":
        side = 2 * RATIO + 1
        return lowpass(pan.data, np.full(side, 1.0 / side))
    taps = sensor_taps(pan.sensor, RATIO)[0]
    return interp23(lowpass(pan.data, taps, RATIO))


def band_match(pan_l: np.ndarray, band: np.ndarray) -> tuple[float, float]:
    """Affine map ``(scale, offset)`` matching the PAN plane to one band:
    std(band) / std(P_L) and the offset that aligns the means, estimated
    against the low-pass so the matched P_L shares the band's radiometry.
    A (near-)constant low-pass gives ``(1.0, 0.0)``: no detail to rescale."""
    mu_p = pan_l.mean()
    dev = pan_l - mu_p
    var_p = np.mean(np.square(dev, out=dev))
    del dev
    if var_p < 1e-12:
        return 1.0, 0.0
    scale = band.std() / np.sqrt(var_p)
    return scale, band.mean() - scale * mu_p


def injection_gain(band: np.ndarray, pan_l: np.ndarray,
                   config: MraConfig) -> float | np.ndarray:
    """Gain G applied to one band's detail plane: ``1.0`` (unit), the
    plane ``band / max(P_L, HPM_EPSILON)`` (hpm) or the band's global
    least-squares slope on P_L (regression)."""
    if config.gain_mode == "unit":
        return 1.0
    if config.gain_mode == "hpm":
        # High-pass modulation: gain proportional to local band intensity.
        return band / np.maximum(pan_l, HPM_EPSILON)
    # mean(p_c * (m - mean(m))) / mean(p_c ** 2), p_c = P_L - mean(P_L),
    # with one full-size array at a time: each product is formed in place
    # and the centered P_L a strip at a time.
    p = pan_l.ravel()
    mu_p = pan_l.mean()
    dev = p - mu_p
    var = np.mean(np.square(dev, out=dev))
    del dev
    if var < 1e-12:
        warnings.warn(
            "injection_gain: pan low-pass is constant; falling back to "
            "unit gain for regression", RuntimeWarning, stacklevel=2)
        return 1.0
    m = band.flatten()
    m -= m.mean()
    for i in range(0, m.size, _STRIP_VALUES):
        m[i:i + _STRIP_VALUES] *= p[i:i + _STRIP_VALUES] - mu_p
    return np.mean(m) / var


def mra_fuse(ms: MsImage, pan: PanImage, config: MraConfig) -> np.ndarray:
    """Detail-injection fusion of a reduced MS image with its PAN plane.

    Returns the raw float64 H x W x C stack ``ms_up + G * (P - P_L)``,
    which may leave [0, 1]; :func:`fuse` clips it.
    """
    check_aligned(ms, pan)
    fused = interp23(ms.data)
    p_l = pan_lowpass(pan, config)
    rows = max(1, _STRIP_VALUES // p_l.shape[1])
    for k in range(fused.shape[2]):
        band = fused[:, :, k]
        scale, offset = band_match(p_l, band) if config.equalize else (1.0, 0.0)
        gain = None
        if config.gain_mode == "regression":  # one gain from the whole band
            gain = injection_gain(band, scale * p_l + offset if config.equalize
                                  else p_l, config)
        for r in range(0, band.shape[0], rows):
            strip, low, pan_strip = band[r:r + rows], p_l[r:r + rows], pan.data[r:r + rows]
            if config.equalize:
                low = scale * low + offset
                pan_strip = scale * pan_strip + offset
            d = pan_strip - low
            strip += (injection_gain(strip, low, config) if gain is None else gain) * d
    return fused


def fuse(method: str, ms: MsImage, pan: PanImage) -> MsImage:
    """Run one of the named classical methods (see METHODS), clipped to the
    radiometric range [0, 1].  An MS grid below ``INTERP23_MIN_SIZE`` on
    either axis, or a PAN raster not aligned with it, is a DataError."""
    if method not in METHODS:
        raise DataError(f"unknown fusion method {method!r}; known: {sorted(METHODS)}")
    height, width = ms.data.shape[:2]
    if min(height, width) < INTERP23_MIN_SIZE:
        raise DataError(
            f"MS raster is {height}x{width}; the 23-tap interpolator needs at "
            f"least {INTERP23_MIN_SIZE}x{INTERP23_MIN_SIZE}")
    check_aligned(ms, pan)
    config = METHODS[method]
    fused = interp23(ms.data) if config is None else mra_fuse(ms, pan, config)
    return MsImage(np.clip(fused, 0.0, 1.0, out=fused), ms.sensor)
