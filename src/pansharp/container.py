"""PSR1 raster container and 8-bit preview export.

PSR1 layout (all integers little-endian):
  bytes 0..3   magic b"PSR1"
  bytes 4..7   format version (u32, currently 1)
  bytes 8..15  reserved, zero
  u32 height, width, channels, bit_depth, sensor-name byte length
  sensor name (utf-8)
  height*width*channels float32 samples, band-interleaved by pixel
Writing the result of a read reproduces the file byte for byte.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .imaging import SENSORS, MsImage, PanImage, SensorSpec, generic_sensor

MAGIC = b"PSR1"
VERSION = 1
_HEADER = struct.Struct("<4sI8x")
_DIMS = struct.Struct("<IIIII")


def write_psr1(path: str | Path, data: np.ndarray, sensor_name: str,
               bit_depth: int) -> None:
    """Write an H x W (x C) raster; 2-D input is stored with one channel."""
    data = np.asarray(data)
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3:
        raise DataError(f"write_psr1: expected 2-D or 3-D raster, got {data.shape}")
    h, w, c = data.shape
    name = sensor_name.encode("utf-8")
    payload = np.ascontiguousarray(data, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION))
        fh.write(_DIMS.pack(h, w, c, bit_depth, len(name)))
        fh.write(name)
        fh.write(payload)


def read_psr1(path: str | Path) -> tuple[np.ndarray, str, int]:
    """Read a PSR1 file; returns (H x W x C float32 data, sensor name, bit depth).

    Every sample must be finite and in [0, 1], the radiometric range."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(blob) < _HEADER.size + _DIMS.size:
        raise DataError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    h, w, c, bit_depth, name_len = _DIMS.unpack_from(blob, _HEADER.size)
    if not 8 <= bit_depth <= 16:
        raise DataError(f"{path}: bit depth {bit_depth} outside 8..16")
    if 0 in (h, w, c):
        raise DataError(f"{path}: empty raster ({h}x{w}x{c})")
    offset = _HEADER.size + _DIMS.size
    if len(blob) < offset + name_len:
        raise DataError(f"{path}: truncated sensor name")
    try:
        name = blob[offset:offset + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: sensor name is not UTF-8: {exc}") from exc
    offset += name_len
    expected = h * w * c * 4
    if len(blob) != offset + expected:
        raise DataError(
            f"{path}: payload is {len(blob) - offset} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f4", count=h * w * c, offset=offset)
    # NaN propagates through min and max, so these two also refuse NaN and
    # the infinities, on the float32 payload, before a cast could warn.
    low, high = data.min(), data.max()
    if not 0.0 <= low <= high <= 1.0:
        raise DataError(f"{path}: samples must be finite and in [0, 1] "
                        f"(min {low:.4g}, max {high:.4g})")
    return data.reshape(h, w, c).copy(), name, bit_depth


def _sensor_for(name: str, bands: int, bit_depth: int) -> SensorSpec:
    spec = SENSORS.get(name)
    if spec is not None and spec.bands == bands and spec.bit_depth == bit_depth:
        return spec
    return generic_sensor(bands, bit_depth, name=name or "generic")


def save_ms(path: str | Path, image: MsImage) -> None:
    write_psr1(path, image.data, image.sensor.name, image.sensor.bit_depth)


def load_ms(path: str | Path) -> MsImage:
    data, name, bit_depth = read_psr1(path)
    if data.shape[2] not in (4, 8):
        raise DataError(
            f"{path}: {data.shape[2]} channels is not a supported MS band count")
    sensor = _sensor_for(name, data.shape[2], bit_depth)
    return MsImage(data.astype(np.float64), sensor)


def load_pan(path: str | Path, sensor: SensorSpec) -> PanImage:
    """Read a PAN raster that belongs to ``sensor``'s multispectral image."""
    data, _, _ = read_psr1(path)
    if data.shape[2] != 1:
        raise DataError(f"{path}: expected single-channel data, got {data.shape[2]}")
    return PanImage(data[:, :, 0].astype(np.float64), sensor)


# -- previews -------------------------------------------------------------


def percentile_stretch(band: np.ndarray) -> np.ndarray:
    """Clip to the 2nd-98th percentile range and rescale to [0, 1]."""
    low, high = np.percentile(band, [2.0, 98.0])
    if high <= low:
        return np.zeros_like(band, dtype=np.float64)
    return np.clip((band - low) / (high - low), 0.0, 1.0)


def export_ppm(path: str | Path, rgb01: np.ndarray) -> None:
    """8-bit binary PPM (P6) from a [0, 1] H x W x 3 array."""
    rgb01 = np.asarray(rgb01, dtype=np.float64)
    if rgb01.ndim != 3 or rgb01.shape[2] != 3:
        raise DataError(f"export_ppm: expected H x W x 3 data, got {rgb01.shape}")
    pixels = np.rint(np.clip(rgb01, 0, 1) * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{rgb01.shape[1]} {rgb01.shape[0]}\n255\n".encode())
        fh.write(np.ascontiguousarray(pixels).tobytes())
