"""Dataset simulation: degradation, patching, splits, directory layout."""

import json

import numpy as np
import pytest

from pansharp.errors import DataError
from pansharp.imaging import (
    SENSORS,
    lowpass,
    mtf_gaussian_taps,
)
from pansharp.wald import (
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


def _rms(a, b):
    return float(np.sqrt(np.mean((np.asarray(a, np.float64) - b) ** 2)))


class TestDegrade:
    def test_constant_stays_constant(self):
        out = degrade(np.full((64, 64), 0.375), SENSORS["gf2"], 4)
        assert out.shape == (16, 16)
        np.testing.assert_allclose(out, 0.375, atol=1e-12)

    def test_matches_composition_bit_for_bit(self):
        sensor = SENSORS["gf2"]
        rng = np.random.default_rng(100)
        pan = rng.uniform(0, 1, (64, 64))
        want = lowpass(pan, mtf_gaussian_taps(sensor.pan_nyquist_gain, 4))[::4, ::4]
        np.testing.assert_array_equal(degrade(pan, sensor, 4), want)
        ms = rng.uniform(0, 1, (64, 64, 4))
        got = degrade(ms, sensor, 4)
        for k in range(4):
            want = lowpass(
                ms[:, :, k],
                mtf_gaussian_taps(sensor.ms_nyquist_gains[k], 4))[::4, ::4]
            np.testing.assert_array_equal(got[:, :, k], want)

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

    def test_invariants_hold_at_storage_precision(self):
        ms, pan = synthetic_scene(9, SENSORS["gf2"], ms_size=128)
        sensor = ms.sensor
        for sample in make_samples(ms, pan):
            assert _rms(degrade(sample.gt, sensor, 2), sample.gt_d) < 1e-6
            assert _rms(degrade(sample.gt, sensor, 4), sample.lrms) < 1e-6

    def test_ids_are_sequential(self):
        ms, pan = synthetic_scene(10, SENSORS["gf2"], ms_size=128)
        samples = make_samples(ms, pan)
        assert [sample.id for sample in samples] == [0, 1, 2, 3]

    def test_patch_exceeding_bounds(self):
        ms, pan = synthetic_scene(11, SENSORS["gf2"], ms_size=64)
        with pytest.raises(DataError, match="exceeds image bounds"):
            make_samples(ms, pan, patch=128)

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
        return DatasetManifest(seed=seed, sensor="gf2", bands=4, ratio=4,
                               splits=split(range(n), seed=seed),
                               provenance={"scene": "synthetic"})

    def test_json_roundtrip(self):
        manifest = self._manifest()
        back = DatasetManifest.from_json(manifest.to_json())
        assert back == manifest

    def test_rejects_overlapping_splits(self):
        with pytest.raises(DataError, match="overlap"):
            DatasetManifest(seed=0, sensor="gf2", bands=4, ratio=4,
                            splits={"train": [0, 1], "val": [1], "test": [2]})

    def test_rejects_missing_split(self):
        with pytest.raises(DataError, match="missing"):
            DatasetManifest(seed=0, sensor="gf2", bands=4, ratio=4,
                            splits={"train": [0], "val": [1]})

    def test_malformed_json(self):
        for text in ("{not json", "[1, 2, 3]"):
            with pytest.raises(DataError, match="malformed"):
                DatasetManifest.from_json(text)

    @pytest.mark.parametrize("edit, problem", [
        (lambda payload: payload.pop("seed"), "missing 'seed'"),
        (lambda payload: payload.update(ratio="4"), "'ratio' is a str"),
        (lambda payload: payload.update(ratio=0), "'ratio' is 0"),
        (lambda payload: payload.update(splits=[1, 2]), "'splits' is a list"),
        (lambda payload: payload["splits"].update(train=5), "split 'train'"),
        (lambda payload: payload["splits"].update(val=[[1]]), "split 'val'"),
    ], ids=["missing-key", "str-ratio", "zero-ratio", "array-splits",
            "int-split", "nested-split"])
    def test_corrupt_payload_is_data_error(self, edit, problem):
        payload = json.loads(self._manifest().to_json())
        edit(payload)
        with pytest.raises(DataError, match=problem):
            DatasetManifest.from_json(json.dumps(payload))


class TestDatasetDirectory:
    def _build(self, tmp_path, seed=22):
        ms, pan = synthetic_scene(seed, SENSORS["gf2"], ms_size=128)
        samples = make_samples(ms, pan)
        manifest = DatasetManifest(
            seed=seed, sensor="gf2", bands=4, ratio=4,
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
        back = load_sample(root, 2)
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


class TestSyntheticScene:
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
        smooth = interp23(pan.data[::4, ::4], 4)
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
