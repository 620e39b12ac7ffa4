"""PSR1 container round-trips and preview export."""

import numpy as np
import pytest

from pansharp.container import (
    export_ppm,
    load_ms,
    load_pan,
    percentile_stretch,
    read_psr1,
    save_ms,
    write_psr1,
)
from pansharp.errors import DataError
from pansharp.imaging import SENSORS, MsImage, PanImage


class TestPsr1:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(41)
        data = rng.uniform(0, 1, (6, 5, 8)).astype(np.float32)
        p1, p2 = tmp_path / "a.psr1", tmp_path / "b.psr1"
        write_psr1(p1, data, "wv3", 11)
        back, name, depth = read_psr1(p1)
        assert (name, depth) == ("wv3", 11)
        np.testing.assert_array_equal(back, data)
        write_psr1(p2, back, name, depth)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.psr1"
        write_psr1(path, np.zeros((2, 3, 4), np.float32), "gf2", 10)
        blob = path.read_bytes()
        assert blob[:4] == b"PSR1"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert blob[8:16] == b"\x00" * 8
        h, w, c, depth, nlen = np.frombuffer(blob[16:36], dtype="<u4")
        assert (h, w, c, depth, nlen) == (2, 3, 4, 10, 3)
        assert blob[36:39] == b"gf2"
        assert len(blob) == 39 + 2 * 3 * 4 * 4

    def test_band_interleaved_by_pixel(self, tmp_path):
        """Sample order on disk is pixel-major: all bands of (0,0) first."""
        data = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
        path = tmp_path / "x.psr1"
        write_psr1(path, data, "", 8)
        payload = np.frombuffer(path.read_bytes()[36:], dtype="<f4")
        np.testing.assert_array_equal(payload[:3], data[0, 0])
        np.testing.assert_array_equal(payload[3:6], data[0, 1])

    def test_corrupt_files_rejected(self, tmp_path):
        path = tmp_path / "bad.psr1"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            read_psr1(path)
        good = tmp_path / "good.psr1"
        write_psr1(good, np.zeros((2, 2, 1), np.float32), "qb", 11)
        truncated = tmp_path / "trunc.psr1"
        truncated.write_bytes(good.read_bytes()[:-5])
        with pytest.raises(DataError, match="payload"):
            read_psr1(truncated)
        with pytest.raises(DataError, match="cannot read"):
            read_psr1(tmp_path / "missing.psr1")

    def test_ms_pan_wrappers(self, tmp_path):
        rng = np.random.default_rng(42)
        ms = MsImage(rng.uniform(0, 1, (8, 8, 4)), SENSORS["gf2"])
        pan = PanImage(rng.uniform(0, 1, (32, 32)), SENSORS["gf2"])
        save_ms(tmp_path / "ms.psr1", ms)
        write_psr1(tmp_path / "pan.psr1", pan.data, pan.sensor.name,
                   pan.sensor.bit_depth)
        ms2 = load_ms(tmp_path / "ms.psr1")
        pan2 = load_pan(tmp_path / "pan.psr1", ms2.sensor)
        assert ms2.sensor is SENSORS["gf2"]
        assert pan2.sensor is SENSORS["gf2"]
        np.testing.assert_array_equal(ms2.data, ms.data.astype(np.float32))
        np.testing.assert_array_equal(pan2.data, pan.data.astype(np.float32))

    def test_unknown_sensor_gets_generic_spec(self, tmp_path):
        path = tmp_path / "ms.psr1"
        write_psr1(path, np.zeros((4, 4, 8), np.float32), "mystery", 12)
        img = load_ms(path)
        assert img.sensor.name == "mystery"
        assert img.sensor.bands == 8 and img.sensor.bit_depth == 12


class TestPreviews:
    def test_percentile_stretch_clips_tails(self):
        band = np.concatenate([[-100.0], np.linspace(0, 1, 98), [100.0]])
        out = percentile_stretch(band)
        assert out.min() == 0.0 and out.max() == 1.0
        assert np.all((out >= 0) & (out <= 1))

    def test_pgm_ppm_headers(self, tmp_path):
        export_ppm(tmp_path / "c.ppm", np.zeros((2, 2, 3)))
        blob = (tmp_path / "c.ppm").read_bytes()
        assert blob.startswith(b"P6\n2 2\n255\n") and len(blob) == 11 + 12
