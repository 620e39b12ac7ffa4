"""Dataset simulation: degradation, patching, splits, directory layout."""

import json
import tracemalloc

import numpy as np
import pytest

from pansharp import wald
from pansharp.errors import DataError
from pansharp.grad.rng import SplitMix64, derive_seed
from pansharp.imaging import (
    RATIO,
    SENSORS,
    lowpass,
    mtf_gaussian_taps,
    sensor_taps,
)
from pansharp.wald import (
    SCENE_OCTAVES,
    DatasetManifest,
    SamplePair,
    degrade,
    load_sample,
    make_samples,
    read_manifest,
    split,
    synthetic_scene,
    write_dataset,
)
from pansharp.wald import _scene_taps


def _rms(a, b):
    return float(np.sqrt(np.mean((np.asarray(a, np.float64) - b) ** 2)))


class TestDegrade:
    def test_constant_stays_constant(self):
        out = degrade(np.full((64, 64), 0.375), SENSORS["gf2"], 4)
        assert out.shape == (16, 16)
        np.testing.assert_allclose(out, 0.375, atol=1e-12)

    def test_matches_composition_bit_for_bit(self):
        sensor = SENSORS["gf2"]
        pan_taps, band_taps = sensor_taps(sensor, 4)
        rng = np.random.default_rng(100)
        pan = rng.uniform(0, 1, (64, 64))
        want = lowpass(pan, pan_taps)[::4, ::4]
        np.testing.assert_array_equal(degrade(pan, sensor, 4), want)
        ms = rng.uniform(0, 1, (64, 64, 4))
        got = degrade(ms, sensor, 4)
        for k in range(4):
            want = lowpass(ms[:, :, k], band_taps[k])[::4, ::4]
            np.testing.assert_array_equal(got[:, :, k], want)

    @pytest.mark.parametrize("side", [512, 256])
    def test_scene_is_filtered_one_band_at_a_time(self, side):
        """A scene-size raster keeps the per-band working set: the traced
        peak of an 8-band x4 degrade is its output plus one band's padded
        plane and row pass, as when each band took its own call."""
        sensor = SENSORS["wv3"]
        scene = np.random.default_rng(102).uniform(0, 1, (side, side, 8))
        degrade(scene, sensor, 4)
        tracemalloc.start()
        try:
            degrade(scene, sensor, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = 8 * (side // 4) ** 2 * 8
        band = 8 * (side + 40) * side + 8 * (side // 4) * side
        assert peak <= out + band + (64 << 10), (peak, out + band)

    def test_taps_are_built_once_and_read_only(self):
        """degrade's tap rows are cached per (sensor, factor): the cached
        rows equal the central taps of fresh 41-tap rows, and no caller
        can write to them."""
        sensor = SENSORS["wv3"]
        for factor in (2, 4):
            pan_taps, band_taps = sensor_taps(sensor, factor)
            assert sensor_taps(sensor, factor)[1] is band_taps
            for taps, full in (
                    (pan_taps, mtf_gaussian_taps(sensor.pan_nyquist_gain, factor)),
                    (band_taps, np.stack([mtf_gaussian_taps(g, factor)
                                          for g in sensor.ms_nyquist_gains]))):
                half = taps.shape[-1] // 2
                np.testing.assert_array_equal(taps, full[..., 20 - half:21 + half])
            for taps in (pan_taps, band_taps):
                with pytest.raises(ValueError, match="read-only"):
                    taps[..., 0] = 0.0

    def test_factor_scales_blur(self):
        # A x2 degrade uses a narrower kernel than x4, so it keeps more
        # variance per output pixel.
        sensor = SENSORS["gf2"]
        rng = np.random.default_rng(101)
        field = lowpass(rng.uniform(0, 1, (128, 128)),
                        mtf_gaussian_taps(0.4, 2))
        by2 = degrade(field, sensor, 2)
        by4 = degrade(field, sensor, 4)
        assert by2.shape == (64, 64) and by4.shape == (32, 32)
        assert by2.std() > by4.std()

    def test_pan_sized_example(self):
        assert degrade(np.zeros((256, 256)), SENSORS["wv3"], 4).shape == (64, 64)

    def test_errors(self):
        sensor = SENSORS["gf2"]
        with pytest.raises(DataError, match="divisible"):
            degrade(np.zeros((30, 30)), sensor, 4)
        with pytest.raises(DataError, match="bands"):
            degrade(np.zeros((16, 16, 3)), sensor, 4)


class TestMakeSamples:
    def test_single_tile(self):
        ms, pan = synthetic_scene(7, SENSORS["gf2"], ms_size=64)
        samples = make_samples(ms, pan, patch=64, stride=64)
        assert len(samples) == 1
        sample = samples[0]
        assert sample.pan.shape == (64, 64)
        assert sample.lrms.shape == (16, 16, 4)
        assert sample.gt.shape == (64, 64, 4)
        assert sample.gt_d.shape == (32, 32, 4)
        assert all(arr.dtype == np.float32 for arr in
                   (sample.pan, sample.lrms, sample.gt, sample.gt_d))

    def test_tiling_counts(self):
        ms, pan = synthetic_scene(8, SENSORS["gf2"], ms_size=128)
        assert len(make_samples(ms, pan, patch=64, stride=64)) == 4
        # Patches must lie fully inside the bounds: stride 48 fits twice.
        assert len(make_samples(ms, pan, patch=64, stride=48)) == 4

    @pytest.mark.parametrize("name", ["wv3", "gf2"])
    def test_samples_match_the_full_kernel_bytes(self, name, monkeypatch):
        """The taps below float64 eps of the peak that degrade drops do
        not move one float32 sample: the 41-tap rows give the same
        bytes."""
        ms, pan = synthetic_scene(10, SENSORS[name], ms_size=96)
        cut = make_samples(ms, pan, patch=64, stride=32)

        def full_taps(sensor, factor):
            return (mtf_gaussian_taps(sensor.pan_nyquist_gain, factor),
                    np.stack([mtf_gaussian_taps(g, factor)
                              for g in sensor.ms_nyquist_gains]))

        monkeypatch.setattr(wald, "sensor_taps", full_taps)
        full = make_samples(ms, pan, patch=64, stride=32)
        assert len(cut) == len(full) == 4
        for a, b in zip(cut, full):
            for role in ("pan", "lrms", "gt", "gt_d"):
                assert getattr(a, role).tobytes() == getattr(b, role).tobytes()

    def test_invariants_hold_at_storage_precision(self):
        ms, pan = synthetic_scene(9, SENSORS["gf2"], ms_size=128)
        sensor = ms.sensor
        for sample in make_samples(ms, pan, patch=64, stride=64):
            assert _rms(degrade(sample.gt, sensor, 2), sample.gt_d) < 1e-6
            assert _rms(degrade(sample.gt, sensor, 4), sample.lrms) < 1e-6

    def test_ids_are_sequential(self):
        ms, pan = synthetic_scene(10, SENSORS["gf2"], ms_size=128)
        samples = make_samples(ms, pan, patch=64, stride=64)
        assert [sample.id for sample in samples] == [0, 1, 2, 3]

    def test_patch_exceeding_bounds(self):
        ms, pan = synthetic_scene(11, SENSORS["gf2"], ms_size=64)
        with pytest.raises(DataError, match="exceeds image bounds"):
            make_samples(ms, pan, patch=128, stride=128)

    def test_sample_shape_validation(self):
        good = dict(pan=np.zeros((64, 64), np.float32),
                    lrms=np.zeros((16, 16, 4), np.float32),
                    gt=np.zeros((64, 64, 4), np.float32),
                    gt_d=np.zeros((32, 32, 4), np.float32))
        SamplePair(id=0, **good)
        bad = dict(good, gt_d=np.zeros((16, 16, 4), np.float32))
        with pytest.raises(DataError, match="gt_d"):
            SamplePair(id=0, **bad)


class TestSplit:
    def test_published_sizes(self):
        parts = split(range(12580), seed=3)
        assert [len(parts[n]) for n in ("train", "val", "test")] == \
            [8806, 2516, 1258]

    def test_floor_remainder_to_train(self):
        parts = split(range(10), seed=3)
        assert [len(parts[n]) for n in ("train", "val", "test")] == [7, 2, 1]

    def test_disjoint_and_exhaustive(self):
        parts = split(range(101), seed=4)
        joined = parts["train"] + parts["val"] + parts["test"]
        assert sorted(joined) == list(range(101))

    def test_deterministic_replay(self):
        assert split(range(500), seed=5) == split(range(500), seed=5)
        assert split(range(500), seed=5) != split(range(500), seed=6)

    def test_shuffles(self):
        parts = split(range(500), seed=7)
        assert parts["train"] != list(range(len(parts["train"])))

    def test_errors(self):
        with pytest.raises(DataError, match="empty"):
            split([], seed=1)


class TestManifest:
    def _manifest(self, n=8, seed=21):
        return DatasetManifest(seed=seed, sensor="gf2", bands=4,
                               splits=split(range(n), seed=seed),
                               provenance={"scene": "synthetic"})

    def test_json_roundtrip(self):
        manifest = self._manifest()
        back = DatasetManifest.from_json(manifest.to_json())
        assert back == manifest

    def test_rejects_overlapping_splits(self):
        with pytest.raises(DataError, match="overlap"):
            DatasetManifest(seed=0, sensor="gf2", bands=4,
                            splits={"train": [0, 1], "val": [1], "test": [2]})

    def test_rejects_missing_split(self):
        with pytest.raises(DataError, match="missing"):
            DatasetManifest(seed=0, sensor="gf2", bands=4,
                            splits={"train": [0], "val": [1]})

    def test_malformed_json(self):
        for text in ("{not json", "[1, 2, 3]"):
            with pytest.raises(DataError, match="malformed"):
                DatasetManifest.from_json(text)

    @pytest.mark.parametrize("edit, problem", [
        (lambda payload: payload.pop("seed"), "missing 'seed'"),
        (lambda payload: payload.update(ratio="4"), "'ratio' is a str"),
        (lambda payload: payload.update(ratio=0), "'ratio' is 0"),
        (lambda payload: payload.update(ratio=2), "'ratio' is 2, not 4"),
        (lambda payload: payload.update(splits=[1, 2]), "'splits' is a list"),
        (lambda payload: payload["splits"].update(train=5), "split 'train'"),
        (lambda payload: payload["splits"].update(val=[[1]]), "split 'val'"),
        (lambda payload: payload.update(bands=True), "'bands' is a bool, not a int"),
        (lambda payload: payload.update(seed=False), "'seed' is a bool, not a int"),
        (lambda payload: payload["splits"].update(test=[True]), "split 'test'"),
        (lambda payload: payload.update(bands=8), "'bands' is 8, but a gf2 raster has 4"),
        (lambda payload: payload.update(sensor="pleiades"), "unknown sensor 'pleiades'"),
    ], ids=["missing-key", "str-ratio", "zero-ratio", "two-ratio",
            "array-splits", "int-split", "nested-split", "bool-bands",
            "bool-seed", "bool-id", "bands-not-sensor", "unknown-sensor"])
    def test_corrupt_payload_is_data_error(self, edit, problem):
        payload = json.loads(self._manifest().to_json())
        edit(payload)
        with pytest.raises(DataError, match=problem):
            DatasetManifest.from_json(json.dumps(payload))


class TestDatasetDirectory:
    def _build(self, tmp_path, seed=22):
        ms, pan = synthetic_scene(seed, SENSORS["gf2"], ms_size=128)
        samples = make_samples(ms, pan, patch=64, stride=64)
        manifest = DatasetManifest(
            seed=seed, sensor="gf2", bands=4,
            splits=split([sample.id for sample in samples], seed=seed),
            provenance={"scene": "synthetic", "ms_size": "128"})
        write_dataset(tmp_path / "data", samples, manifest)
        return samples, manifest

    def test_layout_and_roundtrip(self, tmp_path):
        samples, manifest = self._build(tmp_path)
        root = tmp_path / "data"
        assert (root / "manifest.json").exists()
        assert (root / "0_pan.psr1").exists()
        assert (root / "3_gtd.psr1").exists()
        assert read_manifest(root) == manifest
        back = load_sample(root, 2, SENSORS["gf2"])
        np.testing.assert_array_equal(back.pan, samples[2].pan)
        np.testing.assert_array_equal(back.lrms, samples[2].lrms)
        np.testing.assert_array_equal(back.gt, samples[2].gt)
        np.testing.assert_array_equal(back.gt_d, samples[2].gt_d)

    def test_manifest_bytes_reproducible(self, tmp_path):
        self._build(tmp_path / "a", seed=23)
        self._build(tmp_path / "b", seed=23)
        first = (tmp_path / "a" / "data" / "manifest.json").read_bytes()
        second = (tmp_path / "b" / "data" / "manifest.json").read_bytes()
        assert first == second

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="cannot read manifest"):
            read_manifest(tmp_path)

    def test_unknown_sensor_writes_nothing(self, tmp_path):
        manifest = DatasetManifest(seed=0, sensor="pleiades", bands=4,
                                   splits=split(range(4), seed=0))
        with pytest.raises(DataError, match="unknown sensor 'pleiades'"):
            write_dataset(tmp_path / "data", [], manifest)
        assert not (tmp_path / "data").exists()


def _stacked_scene(seed, sensor, ms_size, blur_taps):
    """The synthetic scene built whole: the H x W x C world stacked, the
    PAN its band mean and the MS its :func:`degrade`.  ``blur_taps(gain,
    ratio)`` gives the taps of the octave and texture blurs."""
    plane = (ms_size * RATIO,) * 2
    rng = SplitMix64(derive_seed(seed, "scene"))
    structure = np.zeros(plane)
    for gain, octave_ratio, amplitude in SCENE_OCTAVES:
        layer = lowpass(rng.uniform_array(plane).astype(np.float64),
                        blur_taps(gain, octave_ratio))
        layer -= layer.mean()
        layer /= np.abs(layer).max()
        structure += amplitude * layer
    structure = structure - structure.min()
    structure /= structure.max()
    world = np.empty(plane + (sensor.bands,))
    for k in range(sensor.bands):
        offset = rng.uniform(0.05, 0.15)
        slope = rng.uniform(0.5, 0.8)
        curve = rng.uniform(-0.25, 0.25)
        texture = lowpass(rng.uniform_array(plane).astype(np.float64),
                          blur_taps(0.4, 2))
        texture -= texture.mean()
        band = offset + slope * structure + curve * structure * (1.0 - structure)
        world[:, :, k] = np.clip(band + 0.02 * texture, 0.0, 1.0)
    return degrade(world, sensor, RATIO), world.mean(axis=2)


class TestSyntheticScene:
    @pytest.mark.parametrize("name", ["wv3", "gf2"])
    def test_matches_full_tap_reference(self, name):
        """Trimming the scene blurs to their taps above 1e-10 of the peak
        moves the scene by at most 1e-10 from the 41-tap one."""
        sensor = SENSORS[name]
        ms, pan = synthetic_scene(36, sensor, ms_size=32)
        want_ms, want_pan = _stacked_scene(36, sensor, 32, mtf_gaussian_taps)
        assert np.abs(ms.data - want_ms).max() <= 1e-10
        assert np.abs(pan.data - want_pan).max() <= 1e-10

    @pytest.mark.parametrize("name", ["wv3", "gf2"])
    def test_band_at_a_time_matches_stacked_world(self, name):
        """With the same blur taps, degrading each band as it is made gives
        the stacked world's degrade bit for bit; the PAN's running sum
        differs from the band mean only in summation order."""
        sensor = SENSORS[name]
        ms, pan = synthetic_scene(37, sensor, ms_size=32)
        want_ms, want_pan = _stacked_scene(37, sensor, 32, _scene_taps)
        np.testing.assert_array_equal(ms.data, want_ms)
        np.testing.assert_allclose(pan.data, want_pan, rtol=0,
                                   atol=4 * np.finfo(np.float64).eps)

    def test_scene_taps_keep_those_above_the_floor(self):
        """Each scene blur keeps exactly its taps above 1e-10 of the peak:
        the octaves 41, 31, 13 and 5 of 41, the 0.43-sigma texture 5."""
        blurs = [(g, r) for g, r, _ in SCENE_OCTAVES] + [(0.4, 2)]
        for gain, ratio in blurs:
            full = mtf_gaussian_taps(gain, ratio)
            kept = full[full >= 1e-10 * full.max()]
            np.testing.assert_allclose(_scene_taps(gain, ratio),
                                       kept / kept.sum(), rtol=1e-15)
        assert [_scene_taps(*blur).size for blur in blurs] == [41, 31, 13, 5, 5]

    def test_memory_is_a_few_planes_whatever_the_band_count(self):
        """The scene holds a handful of full-resolution float64 planes, not
        a stacked H x W x C world: the traced peak stays under 7 planes,
        and 8 bands cost at most one plane more than 4."""
        plane = 8 * (128 * 4) ** 2
        peaks = {}
        for name in ("gf2", "wv3"):
            tracemalloc.start()
            try:
                synthetic_scene(38, SENSORS[name], ms_size=128)
                peaks[name] = tracemalloc.get_traced_memory()[1] / plane
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < 7.0, peaks
        assert abs(peaks["wv3"] - peaks["gf2"]) <= 1.0, peaks

    def test_shapes_and_range(self):
        ms, pan = synthetic_scene(30, SENSORS["wv3"], ms_size=64)
        assert ms.data.shape == (64, 64, 8)
        assert pan.data.shape == (256, 256)
        assert ms.data.min() >= 0.0 and ms.data.max() <= 1.0
        assert pan.data.min() >= 0.0 and pan.data.max() <= 1.0

    def test_deterministic(self):
        a_ms, a_pan = synthetic_scene(31, SENSORS["gf2"], ms_size=64)
        b_ms, b_pan = synthetic_scene(31, SENSORS["gf2"], ms_size=64)
        np.testing.assert_array_equal(a_ms.data, b_ms.data)
        np.testing.assert_array_equal(a_pan.data, b_pan.data)
        c_ms, _ = synthetic_scene(32, SENSORS["gf2"], ms_size=64)
        assert not np.array_equal(a_ms.data, c_ms.data)

    def test_pan_carries_extra_detail(self):
        from pansharp.imaging import interp23
        from pansharp.metrics import LAPLACIAN_KERNEL
        from scipy import ndimage
        ms, pan = synthetic_scene(33, SENSORS["gf2"], ms_size=64)
        hp_pan = ndimage.correlate(pan.data, LAPLACIAN_KERNEL)[1:-1, 1:-1]
        smooth = interp23(pan.data[::4, ::4])
        hp_smooth = ndimage.correlate(smooth, LAPLACIAN_KERNEL)[1:-1, 1:-1]
        assert hp_pan.std() > 2.0 * hp_smooth.std()

    def test_bands_share_structure(self):
        ms, _ = synthetic_scene(34, SENSORS["gf2"], ms_size=64)
        flat = ms.data.reshape(-1, 4)
        corr = np.corrcoef(flat.T)
        assert corr[np.triu_indices(4, 1)].min() > 0.8

    def test_size_validation(self):
        with pytest.raises(DataError, match="divisible by 4"):
            synthetic_scene(35, SENSORS["gf2"], ms_size=66)
