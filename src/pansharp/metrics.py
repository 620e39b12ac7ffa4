"""Fusion quality metrics and the evaluation report container.

Reference metrics (reduced resolution, ground truth available):

* :func:`sam`    -- mean spectral angle in degrees.
* :func:`ergas`  -- relative global dimensionless synthesis error.
* :func:`scc`    -- spatial correlation of high-pass detail planes.
* :func:`uiqi`   -- universal image quality index, single band.
* :func:`q2n`    -- hypercomplex extension of UIQI to 4/8-band stacks.

No-reference metrics (full resolution):

* :func:`d_lambda` -- spectral distortion from inter-band UIQI drift.
* :func:`d_s`      -- spatial distortion versus the panchromatic plane.
* :func:`qnr`      -- combined quality-with-no-reference score.

All metrics take float arrays shaped ``(H, W)`` or ``(H, W, C)``; image
wrapper objects with a ``.data`` attribute are unwrapped automatically.
Identical inputs score exactly 0.0 (sam, ergas) or exactly 1.0 (scc,
uiqi, q2n): the expressions are grouped so the ideal value is reached
without floating-point residue.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .imaging import RATIO, lowpass, mtf_gaussian_taps

METRIC_NAMES = ("sam", "ergas", "scc", "q2n", "d_lambda", "d_s", "qnr")

#: 3x3 high-pass kernel used by :func:`scc` to isolate spatial detail.
LAPLACIAN_KERNEL = np.array(
    [[-1.0, -1.0, -1.0], [-1.0, 8.0, -1.0], [-1.0, -1.0, -1.0]])


def _as_bands(image) -> np.ndarray:
    """Return image data as a float64 ``(H, W, C)`` array."""
    data = getattr(image, "data", image)
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3:
        raise DataError(f"expected a 2-D or 3-D image, got shape {data.shape}")
    return data


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DataError(f"image shapes differ: {a.shape} vs {b.shape}")


def sam(reference, estimate) -> float:
    """Mean per-pixel spectral angle between band vectors, in degrees.

    Pixels where either spectrum is the zero vector contribute an angle
    of zero.  Identical inputs give exactly 0.0.
    """
    x = _as_bands(reference)
    y = _as_bands(estimate)
    _check_same_shape(x, y)
    dot = np.sum(x * y, axis=2)
    sx = np.sum(x * x, axis=2)
    sy = np.sum(y * y, axis=2)
    valid = (sx > 0.0) & (sy > 0.0)
    cosine = np.ones_like(dot)
    np.divide(dot, np.sqrt(sx * sy), out=cosine, where=valid)
    angles = np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0)))
    return float(np.mean(angles))


def ergas(reference, estimate, ratio: int) -> float:
    """Relative global synthesis error for a given resolution ratio.

    Averages per-band mean squared error normalised by the squared band
    mean of the reference, then scales by ``100 / ratio``.
    """
    x = _as_bands(reference)
    y = _as_bands(estimate)
    _check_same_shape(x, y)
    means = x.mean(axis=(0, 1))
    if np.any(means == 0.0):
        raise DataError("reference has a zero-mean band; ergas is undefined")
    mse = np.mean((x - y) ** 2, axis=(0, 1))
    return float(100.0 / ratio * np.sqrt(np.mean(mse / means ** 2)))


def scc(reference, estimate) -> float:
    """Mean per-band correlation of high-pass filtered detail planes.

    Both images are filtered with :data:`LAPLACIAN_KERNEL`; correlation
    is computed over the interior (boundary rows/columns excluded) and
    averaged across bands.  Identical inputs give exactly 1.0.
    """
    x = _as_bands(reference)
    y = _as_bands(estimate)
    _check_same_shape(x, y)
    if x.shape[0] < 3 or x.shape[1] < 3:
        raise DataError(f"image {x.shape[:2]} too small for the 3x3 high-pass")
    # One contiguous row of detail per band, so every reduction runs along
    # the last axis.
    hx = np.ascontiguousarray(_highpass(x).reshape(-1, x.shape[2]).T)
    hy = np.ascontiguousarray(_highpass(y).reshape(-1, y.shape[2]).T)
    xc = hx - hx.mean(axis=1, keepdims=True)
    yc = hy - hy.mean(axis=1, keepdims=True)
    cov = np.mean(xc * yc, axis=1)
    var_x = np.mean(xc * xc, axis=1)
    var_y = np.mean(yc * yc, axis=1)
    # A band whose detail plane is flat scores 1.0 iff the planes match.
    flat = (var_x == 0.0) | (var_y == 0.0)
    values = np.empty_like(cov)
    np.divide(cov, np.sqrt(var_x * var_y), out=values, where=~flat)
    values[flat] = np.all(hx[flat] == hy[flat], axis=1)
    return float(np.mean(values))


def _highpass(z: np.ndarray) -> np.ndarray:
    """Interior of the :data:`LAPLACIAN_KERNEL` correlation of every band,
    summed over the taps in row-major order."""
    h, w = z.shape[:2]
    out = 0.0
    for (i, j), weight in np.ndenumerate(LAPLACIAN_KERNEL):
        out = out + weight * z[i:h - 2 + i, j:w - 2 + j]
    return out


def _windows(z: np.ndarray, window: int) -> np.ndarray:
    """The non-overlapping full windows of an ``(H, W, C)`` stack, shaped
    ``(n_windows, C, window * window)`` in row-major window order.

    Windows are tiled with stride equal to the window size; partial windows
    at the right/bottom edges are dropped.
    """
    if window < 1:
        raise DataError(f"window must be at least 1, got {window}")
    height, width, bands = z.shape
    if height < window or width < window:
        raise DataError(
            f"image {z.shape[:2]} has no complete {window}x{window} window")
    rows, cols = height // window, width // window
    tiles = z[:rows * window, :cols * window].reshape(
        rows, window, cols, window, bands)
    return tiles.transpose(0, 2, 4, 1, 3).reshape(
        rows * cols, bands, window * window)


def _centred(windows: np.ndarray):
    """Per-window band means ``(n, C)`` and the windows minus them."""
    mu = windows.mean(axis=2)
    return mu, windows - mu[:, :, None]


def _cross_moments(xc: np.ndarray, yc: np.ndarray) -> np.ndarray:
    """Window mean of ``xc[:, i] * yc[:, j]`` for every band pair:
    ``(n, C, C)`` from two ``(n, C, pixels)`` stacks."""
    return np.einsum("nip,njp->nij", xc, yc) / xc.shape[2]


def _band_pair_uiqi(z: np.ndarray, window: int) -> np.ndarray:
    """Per-window UIQI of every ordered band pair of ``z``: ``(n, C, C)``.

    A window pair with zero denominator scores 1.0 when the two windows
    are bitwise identical and 0.0 otherwise.
    """
    windows = _windows(z, window)
    mu, centred = _centred(windows)
    cov = _cross_moments(centred, centred)
    var = np.diagonal(cov, axis1=1, axis2=2)
    msq = mu * mu
    mu_prod = mu[:, :, None] * mu[:, None, :]
    denominator = ((var[:, :, None] + var[:, None, :])
                   * (msq[:, :, None] + msq[:, None, :]))
    quality = np.empty_like(cov)
    zero = denominator == 0.0
    np.divide(4.0 * cov * mu_prod, denominator, out=quality, where=~zero)
    n, i, j = np.nonzero(zero)
    quality[n, i, j] = np.all(windows[n, i] == windows[n, j], axis=1)
    return quality


def uiqi(reference, estimate, window: int = 32) -> float:
    """Universal image quality index over non-overlapping windows.

    Operates on a single band.  Windows are tiled with stride equal to
    the window size; partial windows at the right/bottom edges are
    dropped.  Moments are population moments.  A window with zero
    denominator scores 1.0 when the two windows are bitwise identical
    and 0.0 otherwise.  Identical inputs give exactly 1.0.
    """
    a = np.asarray(getattr(reference, "data", reference), dtype=np.float64)
    b = np.asarray(getattr(estimate, "data", estimate), dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DataError("uiqi expects single-band 2-D arrays")
    _check_same_shape(a, b)
    quality = _band_pair_uiqi(np.stack([a, b], axis=2), window)
    return float(np.mean(quality[:, 0, 1]))


def cd_conjugate(x: np.ndarray) -> np.ndarray:
    """Hypercomplex conjugate: negate every non-real component."""
    out = -x
    out[..., 0] = x[..., 0]
    return out


def cd_multiply(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cayley-Dickson product of hypercomplex arrays.

    The last axis holds the components and must be a power of two with
    at most 8 entries (real, complex, quaternion, octonion).  The
    doubling rule is ``(a, b)(c, d) = (ac - conj(d) b, da + b conj(c))``,
    which reduces to ordinary complex multiplication for two components.
    """
    n = x.shape[-1]
    if n != y.shape[-1]:
        raise DataError(f"component counts differ: {n} vs {y.shape[-1]}")
    if n == 1:
        return x * y
    if n & (n - 1) or n > 8:
        raise DataError(f"component count must be 1, 2, 4 or 8, got {n}")
    half = n // 2
    a, b = x[..., :half], x[..., half:]
    c, d = y[..., :half], y[..., half:]
    real = cd_multiply(a, c) - cd_multiply(cd_conjugate(d), b)
    imag = cd_multiply(d, a) + cd_multiply(b, cd_conjugate(c))
    return np.concatenate([real, imag], axis=-1)


@functools.cache
def _cd_structure(n: int) -> np.ndarray:
    """``T[i, j] = e_i * conj(e_j)`` over the ``n`` basis units, so that
    ``x * conj(y) = sum_ij x_i y_j T[i, j]``: ``(n, n, n)``."""
    basis = np.eye(n)
    structure = cd_multiply(basis[:, None, :], cd_conjugate(basis)[None, :, :])
    structure.flags.writeable = False   # one cached array serves every call
    return structure


def q2n(reference, estimate, window: int = 32) -> float:
    """Hypercomplex quality index for multiband stacks.

    Each pixel's band vector is treated as one hypercomplex number; the
    UIQI structure (correlation, luminance and contrast terms) is
    evaluated per non-overlapping window and averaged.  The band count
    is zero-padded up to the next power of two and may not exceed 8.
    Identical inputs give exactly 1.0.
    """
    x = _as_bands(reference)
    y = _as_bands(estimate)
    _check_same_shape(x, y)
    bands = x.shape[2]
    padded = 1 << max(bands - 1, 0).bit_length()
    if padded > 8:
        raise DataError(f"q2n supports at most 8 bands, got {bands}")
    if padded != bands:
        pad = ((0, 0), (0, 0), (0, padded - bands))
        x = np.pad(x, pad)
        y = np.pad(y, pad)
    wx = _windows(x, window)
    wy = _windows(y, window)
    mu_x, xc = _centred(wx)
    mu_y, yc = _centred(wy)
    structure = _cd_structure(padded)

    def covariance(a, b):
        """Window mean of ``a * conj(b)``, one hypercomplex number each."""
        return np.einsum("nij,ijk->nk", _cross_moments(a, b), structure)

    sigma_xy = covariance(xc, yc)
    # The variances are component 0 of the same contraction as sigma_xy,
    # so identical inputs score exactly 1.0.
    var_x = covariance(xc, xc)[:, 0]
    var_y = covariance(yc, yc)[:, 0]
    msq_x = np.sum(mu_x * mu_x, axis=1)
    msq_y = np.sum(mu_y * mu_y, axis=1)
    denominator = (var_x + var_y) * (msq_x + msq_y)
    modulus = np.sqrt(np.sum(sigma_xy * sigma_xy, axis=1))
    quality = np.empty_like(denominator)
    zero = denominator == 0.0
    np.divide(4.0 * modulus * np.sqrt(msq_x * msq_y), denominator,
              out=quality, where=~zero)
    quality[zero] = np.all(wx[zero] == wy[zero], axis=(1, 2))
    return float(np.mean(quality))


def _fusion_ratio(fused: np.ndarray, lrms: np.ndarray, window: int) -> int:
    if fused.shape[2] != lrms.shape[2]:
        raise DataError(
            f"band counts differ: {fused.shape[2]} vs {lrms.shape[2]}")
    ratio, rem = divmod(fused.shape[0], lrms.shape[0])
    if rem or fused.shape[1] != lrms.shape[1] * ratio:
        raise DataError(
            f"fused shape {fused.shape[:2]} is not an integer multiple "
            f"of the low-resolution shape {lrms.shape[:2]}")
    if window % ratio:
        raise DataError(
            f"window {window} is not divisible by the ratio {ratio}")
    return ratio


def d_lambda(fused, lrms, window: int = 32, p: float = 1.0) -> float:
    """Spectral distortion: drift of inter-band UIQI across scales.

    Compares the UIQI of every ordered band pair of the fused image
    (windows of ``window``) against the same pair of the original
    low-resolution bands (windows scaled down by the ratio), averaging
    ``|difference| ** p`` and taking the ``1/p`` root.
    """
    f = _as_bands(fused)
    m = _as_bands(lrms)
    ratio = _fusion_ratio(f, m, window)
    bands = f.shape[2]
    if bands < 2:
        raise DataError("spectral distortion needs at least two bands")
    q_f = _band_pair_uiqi(f, window).mean(axis=0)
    q_m = _band_pair_uiqi(m, window // ratio).mean(axis=0)
    drift = np.abs(q_f - q_m)[np.triu_indices(bands, 1)]
    total = np.sum(2.0 * drift ** p)
    return float((total / (bands * (bands - 1))) ** (1.0 / p))


def d_s(fused, lrms, pan, window: int = 32, q: float = 1.0) -> float:
    """Spatial distortion: drift of band-to-pan UIQI across scales.

    The panchromatic plane is degraded to the low resolution with its
    sensor's modulation-transfer-function blur followed by decimation;
    each fused band is compared against the full pan, each original band
    against the degraded pan, and ``|difference| ** q`` is averaged.
    ``pan`` must be a pan image wrapper so the sensor blur is known.
    """
    f = _as_bands(fused)
    m = _as_bands(lrms)
    ratio = _fusion_ratio(f, m, window)
    pan_data = np.asarray(pan.data, dtype=np.float64)
    if pan_data.shape != f.shape[:2]:
        raise DataError(
            f"pan shape {pan_data.shape} does not match fused {f.shape[:2]}")
    taps = mtf_gaussian_taps(pan.sensor.pan_nyquist_gain, ratio)
    pan_low = lowpass(pan_data, taps, ratio)
    total = 0.0
    for k in range(f.shape[2]):
        q_f = uiqi(f[:, :, k], pan_data, window)
        q_m = uiqi(m[:, :, k], pan_low, window // ratio)
        total += abs(q_f - q_m) ** q
    return float((total / f.shape[2]) ** (1.0 / q))


def qnr(d_lambda_value: float, d_s_value: float,
        alpha: float = 1.0, beta: float = 1.0) -> float:
    """Quality with no reference: ``(1 - D_lambda)^a * (1 - D_s)^b``."""
    return float((1.0 - d_lambda_value) ** alpha * (1.0 - d_s_value) ** beta)


def reference_metrics(reference, estimate, window: int = 32) -> dict:
    """All reduced-resolution scores of an estimate against ground truth,
    ERGAS at :data:`~pansharp.imaging.RATIO`; ``window`` is the Q2^n block
    size."""
    return {
        "sam": sam(reference, estimate),
        "ergas": ergas(reference, estimate, RATIO),
        "scc": scc(reference, estimate),
        "q2n": q2n(reference, estimate, window),
    }


def no_reference_metrics(fused, lrms, pan, window: int = 32) -> dict:
    """All full-resolution scores of a fused product, no ground truth."""
    dl = d_lambda(fused, lrms, window)
    ds = d_s(fused, lrms, pan, window)
    return {"d_lambda": dl, "d_s": ds, "qnr": qnr(dl, ds)}


@dataclass
class EvalReport:
    """Accumulates per-method, per-image metric rows and writes CSV.

    The CSV layout is ``method,image`` followed by the metric columns in
    :data:`METRIC_NAMES` order.  Values are formatted with six
    significant digits; metrics absent from a row are left empty.
    Provenance key/value pairs are emitted as leading ``#`` comment
    lines.  :meth:`add_aggregates` appends ``__mean`` and ``__std``
    pseudo-image rows per method (population standard deviation).
    """

    rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add(self, method: str, image: str, **values) -> None:
        unknown = set(values) - set(METRIC_NAMES)
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")
        row = {"method": str(method), "image": str(image)}
        row.update({name: float(value) for name, value in values.items()})
        self.rows.append(row)

    def methods(self) -> list:
        seen = []
        for row in self.rows:
            if row["method"] not in seen:
                seen.append(row["method"])
        return seen

    def add_aggregates(self) -> None:
        """Append per-method mean and std rows over the plain image rows."""
        aggregates = []
        for method in self.methods():
            plain = [row for row in self.rows
                     if row["method"] == method
                     and not row["image"].startswith("__")]
            mean_row = {"method": method, "image": "__mean"}
            std_row = {"method": method, "image": "__std"}
            for name in METRIC_NAMES:
                values = [row[name] for row in plain if name in row]
                if values:
                    mean_row[name] = float(np.mean(values))
                    std_row[name] = float(np.std(values))
            aggregates.extend([mean_row, std_row])
        self.rows.extend(aggregates)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            for key, value in self.provenance.items():
                handle.write(f"# {key}: {value}\n")
            writer = csv.writer(handle)
            writer.writerow(("method", "image") + METRIC_NAMES)
            for row in self.rows:
                writer.writerow(
                    [row["method"], row["image"]]
                    + [format(row[name], ".6g") if name in row else ""
                       for name in METRIC_NAMES])
