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

import contextlib
import os
import shutil
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .imaging import SENSORS, MsImage, PanImage, SensorSpec, check_unit_range

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
    check_unit_range(path, data)  # on the float32 payload, before any cast
    return data.reshape(h, w, c).copy(), name, bit_depth


def check_header(path, raster: tuple, sensor: SensorSpec | None,
                 pan: bool = False) -> np.ndarray:
    """Return the data of ``raster``, a :func:`read_psr1` result for
    ``path``, if its header names ``sensor`` at that sensor's bit depth
    with its band count, or with one channel when ``pan`` is set (the data
    then comes back as an H x W plane).  A ``sensor`` of None stands for a
    header name that is not registered, which is refused too."""
    data, name, bit_depth = raster
    if sensor is None:
        raise DataError(f"{path}: header names sensor {name!r}, which is not "
                        f"registered; known: {sorted(SENSORS)}")
    channels = 1 if pan else sensor.bands
    if (name, data.shape[2], bit_depth) != (sensor.name, channels,
                                            sensor.bit_depth):
        raise DataError(
            f"{path}: header reads {name!r} with {data.shape[2]} channels "
            f"at {bit_depth} bits, not {sensor.name!r} with {channels} at "
            f"{sensor.bit_depth}")
    return data[:, :, 0] if pan else data


def save_ms(path: str | Path, image: MsImage) -> None:
    write_psr1(path, image.data, image.sensor.name, image.sensor.bit_depth)


def load_ms(path: str | Path) -> MsImage:
    """Read an MS raster of the registered sensor its header names."""
    raster = read_psr1(path)
    sensor = SENSORS.get(raster[1])
    return MsImage(check_header(path, raster, sensor).astype(np.float64), sensor)


def load_pan(path: str | Path, sensor: SensorSpec) -> PanImage:
    """Read a PAN raster that belongs to ``sensor``'s multispectral image."""
    plane = check_header(path, read_psr1(path), sensor, pan=True)
    return PanImage(plane.astype(np.float64), sensor)


@contextlib.contextmanager
def run_output(directory):
    """Make ``directory`` for a run's output, and leave nothing of the
    run's own there if it fails.

    Yields a list to which the block adds each path it writes, before the
    file is opened.  If the block raises, ``directory`` goes whole when it
    did not exist on entry, and otherwise only the listed files go."""
    made, written = not os.path.exists(directory), []
    try:
        os.makedirs(directory, exist_ok=True)
        yield written
    except BaseException:
        if made:
            shutil.rmtree(directory, ignore_errors=True)
        else:
            for path in written:
                # Best effort, as the rmtree: the run's own error is the one
                # to report.  A path whose open failed may name a directory.
                with contextlib.suppress(OSError):
                    os.remove(path)
        raise


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
