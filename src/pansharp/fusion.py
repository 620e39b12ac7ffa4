"""Classical detail-injection fusion.

Every method here is one instance of the same resolution-pyramid recipe:
upsample the multispectral image, extract the panchromatic detail plane
P - P_L with some low-pass P_L, scale it by a per-band gain G, and add:

    fused_k = ms_up_k + G_k * (P - P_L)

Choosing P_L and G yields the familiar family: plain upsampling (EXP),
box-smoothed intensity modulation (SFIM), and the sensor-matched Gaussian
pyramid with unit, ratio, or regression gains.
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
    box_taps,
    check_aligned,
    interp23,
    lowpass,
    mtf_gaussian_taps,
)

PAN_LOWPASS_MODES = ("mtf_glp", "box")
GAIN_MODES = ("unit", "hpm", "regression")

#: Floor on the low-pass plane in the high-pass-modulation gain
#: ``ms_up / max(P_L, HPM_EPSILON)``, shared with the network's ratio gain.
HPM_EPSILON = 1e-4


@dataclass(frozen=True)
class MraConfig:
    """Selects the low-pass estimator and the injection-gain rule.

    ``equalize`` radiometrically matches the panchromatic plane to each
    band (global mean/std affine, estimated against the band's low-pass)
    before extracting details.  Without it, multiplicative injection
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
    MS image went through). box: plain uniform smoothing.
    """
    if config.pan_lowpass_mode == "box":
        return lowpass(pan.data, box_taps(RATIO))
    taps = mtf_gaussian_taps(pan.sensor.pan_nyquist_gain, RATIO)
    return interp23(lowpass(pan.data, taps, RATIO), RATIO)


def band_match(pan_data: np.ndarray, pan_l: np.ndarray,
               ms_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine-match the PAN plane and its low-pass to each band.

    Per band the scale is std(band) / std(P_L) and the offset aligns the
    means, estimated against the low-pass so the matched P_L shares the
    band's radiometry.  A (near-)constant low-pass leaves the planes
    unchanged: there is no detail to rescale.

    Returns matched (P, P_L) stacks shaped H x W x C.
    """
    h, w = pan_data.shape
    c = ms_up.shape[2]
    matched = np.empty((h, w, c))
    matched_low = np.empty((h, w, c))
    mu_p = pan_l.mean()
    var_p = np.mean((pan_l - mu_p) ** 2)
    for k in range(c):
        if var_p < 1e-12:
            scale, offset = 1.0, 0.0
        else:
            band = ms_up[:, :, k]
            scale = band.std() / np.sqrt(var_p)
            offset = band.mean() - scale * mu_p
        matched[:, :, k] = scale * pan_data + offset
        matched_low[:, :, k] = scale * pan_l + offset
    return matched, matched_low


def injection_gain(ms_up: np.ndarray, pan_l: np.ndarray,
                   config: MraConfig) -> np.ndarray:
    """Per-band, per-pixel gain G applied to the detail plane.

    ``pan_l`` is the low-pass plane, either a single H x W raster or a
    per-band H x W x C stack (after :func:`band_match`).
    """
    h, w, c = ms_up.shape
    if config.gain_mode == "unit":
        return np.ones((h, w, c))
    if config.gain_mode == "hpm":
        # High-pass modulation: gain proportional to local band intensity.
        low = pan_l if pan_l.ndim == 3 else pan_l[:, :, None]
        return ms_up / np.maximum(low, HPM_EPSILON)
    # Global per-band least-squares slope of ms_up on pan_l.
    gains = np.empty((h, w, c))
    p = pan_l.ravel()
    p_centered = p - p.mean()
    var = np.mean(p_centered ** 2)
    for k in range(c):
        if var < 1e-12:
            warnings.warn(
                "injection_gain: pan low-pass is constant; falling back to "
                "unit gain for regression", RuntimeWarning, stacklevel=2)
            slope = 1.0
        else:
            m = ms_up[:, :, k].ravel()
            slope = np.mean(p_centered * (m - m.mean())) / var
        gains[:, :, k] = slope
    return gains


def exp_baseline(ms: MsImage) -> np.ndarray:
    """Plain 23-tap upsampling to the panchromatic grid (no injection)."""
    return interp23(ms.data, RATIO)


def mra_fuse(ms: MsImage, pan: PanImage, config: MraConfig) -> np.ndarray:
    """Detail-injection fusion of a reduced MS image with its PAN plane.

    Returns the raw float64 H x W x C stack ``ms_up + G * (P - P_L)``,
    which may leave [0, 1]; :func:`fuse` clips it.
    """
    check_aligned(ms, pan)
    ms_up = interp23(ms.data, RATIO)
    p_l = pan_lowpass(pan, config)
    if config.equalize and config.gain_mode == "hpm":
        p_bands, p_l_bands = band_match(pan.data, p_l, ms_up)
        detail = p_bands - p_l_bands
        gain_source = p_l_bands
    else:
        detail = (pan.data - p_l)[:, :, None]
        gain_source = p_l
    return ms_up + injection_gain(ms_up, gain_source, config) * detail


def fuse(method: str, ms: MsImage, pan: PanImage) -> MsImage:
    """Run one of the named classical methods (see METHODS), clipped to
    the radiometric range [0, 1].  An MS grid below ``INTERP23_MIN_SIZE``
    on either axis is a :class:`DataError`."""
    if method not in METHODS:
        raise DataError(f"unknown fusion method {method!r}; known: {sorted(METHODS)}")
    height, width = ms.data.shape[:2]
    if min(height, width) < INTERP23_MIN_SIZE:
        raise DataError(
            f"MS raster is {height}x{width}; the 23-tap interpolator needs at "
            f"least {INTERP23_MIN_SIZE}x{INTERP23_MIN_SIZE}")
    config = METHODS[method]
    fused = exp_baseline(ms) if config is None else mra_fuse(ms, pan, config)
    return MsImage(np.clip(fused, 0.0, 1.0), ms.sensor)
