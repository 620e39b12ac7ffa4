"""Reduced-resolution dataset simulation and deterministic splitting.

The reduced-resolution protocol degrades both inputs by the sensor's
scale ratio so that the original multispectral patch can serve as the
ground-truth reference:

* ``gt``    -- 64x64xC patch cut from the original MS image;
* ``lrms``  -- ``gt`` blurred with the per-band sensor MTF and decimated
  by 4: the simulated low-resolution input;
* ``pan``   -- the co-located 256x256 original PAN patch degraded by 4
  with the PAN MTF;
* ``gt_d``  -- ``gt`` degraded by 2: the intermediate-scale target for
  the two-level network loss.

Also provides a deterministic synthetic scene generator (band-correlated
smooth random fields) so datasets can be simulated without any external
imagery, and a plain-file dataset directory layout:
``manifest.json`` plus one raster per role named ``{id}_{role}.psr1``
with role in ``{pan, lrms, gt, gtd}``.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .container import read_psr1, write_psr1
from .errors import DataError
from .grad.rng import SplitMix64, derive_seed
from .imaging import (
    RATIO,
    MsImage,
    PanImage,
    SensorSpec,
    check_aligned,
    get_sensor,
    lowpass,
    mtf_gaussian_taps,
    sensor_taps,
)

SPLIT_NAMES = ("train", "val", "test")
_MANIFEST_FIELDS = {"seed": int, "sensor": str, "bands": int, "ratio": int,
                    "splits": dict}
SAMPLE_ROLES = ("pan", "lrms", "gt", "gtd")
#: Train/val/test fractions of :func:`split`.
SPLIT_RATIOS = (0.7, 0.2, 0.1)


def degrade(image: np.ndarray, sensor: SensorSpec, factor: int) -> np.ndarray:
    """Blur with the sensor's MTF-matched Gaussian, then decimate.

    2-D input uses the PAN Nyquist gain; 3-D input uses the per-band
    gains and must carry exactly the sensor's band count.  Either way
    the raster takes one :func:`lowpass` call, with one tap row per band.
    The blur sigma is matched to the requested ``factor``, so a x2
    degrade uses a narrower kernel than a x4 one.  The taps are
    :func:`~pansharp.imaging.sensor_taps`: the 41-tap rows cut to the
    taps float64 can see next to the peak.
    """
    data = np.asarray(image, dtype=np.float64)
    if data.ndim not in (2, 3):
        raise DataError(f"expected a 2-D or 3-D raster, got shape {data.shape}")
    if data.shape[0] % factor or data.shape[1] % factor:
        raise DataError(
            f"raster dims {data.shape[:2]} are not divisible by {factor}")
    if data.ndim == 3 and data.shape[2] != sensor.bands:
        raise DataError(
            f"raster has {data.shape[2]} bands but sensor "
            f"'{sensor.name}' expects {sensor.bands}")
    pan_taps, band_taps = sensor_taps(sensor, factor)
    return lowpass(data, pan_taps if data.ndim == 2 else band_taps, factor)


@dataclass
class SamplePair:
    """One training sample of the reduced-resolution protocol.

    All rasters are float32 in [0, 1].  ``lrms`` and ``pan`` are the
    network inputs, ``gt`` the final target and ``gt_d`` the half-scale
    target.
    """

    id: int
    pan: np.ndarray
    lrms: np.ndarray
    gt: np.ndarray
    gt_d: np.ndarray

    def __post_init__(self):
        patch = self.gt.shape[0]
        expected = {
            "pan": (patch, patch),
            "lrms": (patch // RATIO, patch // RATIO, self.gt.shape[2]),
            "gt_d": (patch // 2, patch // 2, self.gt.shape[2]),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise DataError(
                    f"sample {self.id}: {name} has shape "
                    f"{getattr(self, name).shape}, expected {shape}")


def make_samples(ms_full: MsImage, pan_full: PanImage, patch: int,
                 stride: int) -> list:
    """Cut ground-truth patches and derive their degraded companions.

    Patches are taken from the original MS image on a stride grid (only
    patches fully inside the bounds); each sample's low-resolution input
    and targets are produced by :func:`degrade`.
    """
    sensor = ms_full.sensor
    check_aligned(ms_full, pan_full)
    height, width = ms_full.data.shape[:2]
    if patch > height or patch > width:
        raise DataError(
            f"patch {patch} exceeds image bounds {height}x{width}")
    if patch % RATIO:
        raise DataError(f"patch size {patch} must be divisible by {RATIO}")
    samples = []
    for i in range(0, height - patch + 1, stride):
        for j in range(0, width - patch + 1, stride):
            gt = ms_full.data[i:i + patch, j:j + patch]
            pan_patch = pan_full.data[i * RATIO:(i + patch) * RATIO,
                                      j * RATIO:(j + patch) * RATIO]
            samples.append(SamplePair(
                id=len(samples),
                pan=degrade(pan_patch, sensor, RATIO).astype(np.float32),
                lrms=degrade(gt, sensor, RATIO).astype(np.float32),
                gt=gt.astype(np.float32),
                gt_d=degrade(gt, sensor, 2).astype(np.float32),
            ))
    return samples


def split(ids, seed: int) -> dict:
    """Deterministic shuffled split into train/val/test id lists.

    The id list is shuffled by the portable RNG, then cut contiguously at
    :data:`SPLIT_RATIOS`; validation and test sizes are floored and the
    remainder goes to training, so 12580 ids yield 8806/2516/1258.
    """
    ids = list(ids)
    if not ids:
        raise DataError("cannot split an empty id list")
    shuffled = list(ids)
    SplitMix64(derive_seed(seed, "split")).shuffle(shuffled)
    n_val = int(len(ids) * SPLIT_RATIOS[1])
    n_test = int(len(ids) * SPLIT_RATIOS[2])
    n_train = len(ids) - n_val - n_test
    return {
        "train": shuffled[:n_train],
        "val": shuffled[n_train:n_train + n_val],
        "test": shuffled[n_train + n_val:],
    }


@dataclass
class DatasetManifest:
    """Replay record for a simulated dataset directory.

    Its JSON also records the resolution ratio, always :data:`RATIO`.
    """

    seed: int
    sensor: str
    bands: int
    splits: dict
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for name in SPLIT_NAMES:
            if name not in self.splits:
                raise DataError(f"manifest is missing the '{name}' split")
            ids = self.splits[name]
            if len(set(ids)) != len(ids):
                twice = sorted(i for i, count in Counter(ids).items() if count > 1)
                raise DataError(f"split '{name}' lists ids {twice[:5]} more than once")
            overlap = seen & set(ids)
            if overlap:
                raise DataError(f"splits overlap on ids {sorted(overlap)[:5]}")
            seen |= set(ids)

    @property
    def all_ids(self) -> list:
        return [i for name in SPLIT_NAMES for i in self.splits[name]]

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "sensor": self.sensor,
            "bands": self.bands,
            "ratio": RATIO,
            "splits": {name: list(map(int, self.splits[name]))
                       for name in SPLIT_NAMES},
            "provenance": self.provenance,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed manifest: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataError("malformed manifest: expected a JSON object")
        for key, kind in _MANIFEST_FIELDS.items():
            if key not in payload:
                raise DataError(f"malformed manifest: missing {key!r}")
            # JSON true and false are Python bools, which are ints too.
            if not isinstance(payload[key], kind) or (
                    kind is int and isinstance(payload[key], bool)):
                raise DataError(
                    f"malformed manifest: {key!r} is a "
                    f"{type(payload[key]).__name__}, not a {kind.__name__}")
        bands, ratio = payload["bands"], payload["ratio"]
        if ratio != RATIO:
            raise DataError(
                f"malformed manifest: 'ratio' is {ratio}, not {RATIO}")
        sensor = get_sensor(payload["sensor"])
        if bands != sensor.bands:
            raise DataError(
                f"malformed manifest: 'bands' is {bands}, but a "
                f"{sensor.name} raster has {sensor.bands}")
        for name, ids in payload["splits"].items():
            if not (isinstance(ids, list) and all(
                    isinstance(i, int) and not isinstance(i, bool) for i in ids)):
                raise DataError(
                    f"malformed manifest: split {name!r} must be a list of "
                    f"sample ids")
        return cls(seed=payload["seed"], sensor=payload["sensor"],
                   bands=payload["bands"], splits=payload["splits"],
                   provenance=payload.get("provenance", {}))


def write_dataset(directory, samples, manifest: DatasetManifest) -> None:
    """Write ``manifest.json`` and one PSR1 raster per sample role."""
    sensor = get_sensor(manifest.sensor)
    os.makedirs(directory, exist_ok=True)
    known = set(manifest.all_ids)
    missing = known - {sample.id for sample in samples}
    if missing:
        raise DataError(f"manifest references absent ids {sorted(missing)[:5]}")
    for sample in samples:
        if sample.id not in known:
            continue
        arrays = {"pan": sample.pan, "lrms": sample.lrms,
                  "gt": sample.gt, "gtd": sample.gt_d}
        for role, data in arrays.items():
            write_psr1(_raster_path(directory, sample.id, role),
                       data, sensor.name, sensor.bit_depth)
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        handle.write(manifest.to_json())


def read_manifest(directory) -> DatasetManifest:
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as handle:
            return DatasetManifest.from_json(handle.read())
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc


def load_sample(directory, sample_id: int, sensor: SensorSpec) -> SamplePair:
    """Read one sample's rasters; each header must name ``sensor`` at its
    bit depth and hold its band count, one channel for the PAN."""
    arrays = {}
    for role in SAMPLE_ROLES:
        path = _raster_path(directory, sample_id, role)
        data, name, bit_depth = read_psr1(path)
        channels = 1 if role == "pan" else sensor.bands
        if (name, data.shape[2], bit_depth) != (sensor.name, channels,
                                                sensor.bit_depth):
            raise DataError(
                f"{path}: header reads {name!r} with {data.shape[2]} channels "
                f"at {bit_depth} bits, not {sensor.name!r} with {channels} at "
                f"{sensor.bit_depth}")
        arrays[role] = data[:, :, 0] if role == "pan" else data
    return SamplePair(id=sample_id, pan=arrays["pan"], lrms=arrays["lrms"],
                      gt=arrays["gt"], gt_d=arrays["gtd"])


def _raster_path(directory, sample_id: int, role: str) -> str:
    return os.path.join(directory, f"{sample_id}_{role}.psr1")


#: (MTF gain, ratio, amplitude) triples for the octaves of the synthetic
#: scene's shared spatial structure, coarsest first.
SCENE_OCTAVES = ((0.1, 16, 1.0), (0.2, 8, 0.55), (0.3, 4, 0.3), (0.5, 2, 0.15))


def _scene_taps(gain: float, ratio: int) -> np.ndarray:
    """MTF-matched Gaussian taps for a synthetic-scene blur, cut to the
    support whose outermost taps reach 1e-10 of the peak and renormalised
    to unit sum: at sigma 0.43, 36 of the 41 default taps are below it
    and only cost time.  This looser rule is the scene's own; the sensor
    blurs keep every tap that float64 can see
    (:func:`~pansharp.imaging.sensor_taps`)."""
    taps = mtf_gaussian_taps(gain, ratio)
    half = taps.size // 2 - int(np.argmax(taps >= 1e-10 * taps.max()))
    return mtf_gaussian_taps(gain, ratio, support=2 * half + 1)


def synthetic_scene(seed: int, sensor: SensorSpec, ms_size: int) -> tuple:
    """Deterministic synthetic aligned (MS, PAN) pair at full resolution.

    A shared spatial structure is built from smoothed noise octaves at
    PAN resolution; each band maps it through its own random radiometric
    response (plus a faint band-specific texture), and the PAN plane is
    the band average of that high-resolution world.  The MS image is the
    world degraded by :data:`RATIO` (the taps of :func:`degrade`), so
    the pair behaves like an aligned acquisition with genuine PAN-only
    detail.

    The world is never stacked: each band is added to a running PAN sum
    and degraded as soon as it is made, so the scene holds a handful of
    PAN-sized float64 planes whatever the band count.  The octave and
    texture blurs keep only the taps above 1e-10 of their peak
    (:func:`_scene_taps`); the MS degrade keeps the taps at or above
    float64 eps of the peak, unrenormalised (15 of 41 for wv3).
    """
    if ms_size % 4:
        raise DataError(f"ms_size {ms_size} must be divisible by 4")
    plane = (ms_size * RATIO, ms_size * RATIO)
    rng = SplitMix64(derive_seed(seed, "scene"))
    structure = np.zeros(plane)
    for gain, octave_ratio, amplitude in SCENE_OCTAVES:
        layer = lowpass(rng.uniform_array(plane).astype(np.float64),
                        _scene_taps(gain, octave_ratio))
        layer -= layer.mean()
        scale = np.abs(layer).max()
        if scale > 0:
            layer /= scale
        structure += amplitude * layer
    # Each spent plane is dropped at once (here and in the band loop
    # below): the scene's memory is a count of live planes.
    del layer
    structure -= structure.min()
    structure /= structure.max()

    band_taps = sensor_taps(sensor, RATIO)[1]
    texture_taps = _scene_taps(0.4, 2)
    pan = np.zeros(plane)
    ms = np.empty((ms_size, ms_size, sensor.bands))
    for k in range(sensor.bands):
        offset = rng.uniform(0.05, 0.15)
        slope = rng.uniform(0.5, 0.8)
        curve = rng.uniform(-0.25, 0.25)
        texture = lowpass(rng.uniform_array(plane).astype(np.float64),
                          texture_taps)
        texture -= texture.mean()
        texture *= 0.02
        # clip(offset + slope*s + curve*s*(1 - s) + 0.02*texture, 0, 1),
        # in place, one operation at a time in the expression's order.
        band = slope * structure
        band += offset
        bend = curve * structure
        bend *= 1.0 - structure
        band += bend
        del bend
        band += texture
        del texture
        np.clip(band, 0.0, 1.0, out=band)
        pan += band
        ms[:, :, k] = lowpass(band, band_taps[k], RATIO)
        del band
    pan /= sensor.bands
    return MsImage(ms, sensor), PanImage(pan, sensor)
