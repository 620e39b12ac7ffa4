"""Classical fusion family: formula checks, degeneracies, gain oracles."""

import tracemalloc
from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest

import pansharp.fusion
from pansharp.errors import DataError
from pansharp.fusion import (
    HPM_EPSILON,
    METHODS,
    band_match,
    MraConfig,
    fuse,
    injection_gain,
    mra_fuse,
    pan_lowpass,
)
from pansharp.imaging import (
    RATIO,
    SENSORS,
    MsImage,
    PanImage,
    interp23,
    lowpass,
    mtf_gaussian_taps,
)


def _smooth_pair(seed=50, h=16, w=16, sensor=SENSORS["gf2"]):
    """Reduced-resolution MS (h x w x c) plus a correlated PAN at 4x."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 1, (4 * h, 4 * w))
    base = lowpass(base, mtf_gaussian_taps(0.2, 8))
    base = 0.1 + 0.8 * (base - base.min()) / (base.max() - base.min())
    bands = np.stack([np.clip(base * s, 0, 1) for s in (0.9, 1.0, 0.8, 0.7)], axis=2)
    ms = MsImage(bands[::4, ::4], sensor)
    pan = PanImage(bands.mean(axis=2), sensor)
    return ms, pan


class TestMraConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="pan_lowpass_mode"):
            MraConfig(pan_lowpass_mode="wavelet")
        with pytest.raises(ValueError, match="gain_mode"):
            MraConfig(gain_mode="pca")

    def test_method_registry(self):
        assert set(METHODS) == {"exp", "mra-unit", "sfim", "glp-hpm", "glp-reg"}
        assert METHODS["sfim"].pan_lowpass_mode == "box"
        assert METHODS["glp-reg"].gain_mode == "regression"


class TestPanLowpass:
    def test_box_is_local_mean(self):
        ms, pan = _smooth_pair()
        p_l = pan_lowpass(pan, MraConfig("box", "unit"))
        i, j = 20, 30
        half = RATIO
        want = pan.data[i - half:i + half + 1, j - half:j + half + 1].mean()
        assert p_l[i, j] == pytest.approx(want, abs=1e-12)

    def test_glp_removes_detail_but_keeps_mean(self):
        ms, pan = _smooth_pair()
        p_l = pan_lowpass(pan, MraConfig("mtf_glp", "unit"))
        assert p_l.shape == pan.data.shape
        assert p_l.mean() == pytest.approx(pan.data.mean(), rel=0.02)
        assert p_l.std() < pan.data.std() + 1e-12


class TestBandMatch:
    def test_moments_align_with_band(self):
        rng = np.random.default_rng(54)
        pan = rng.uniform(0.1, 0.9, (24, 24))
        p_l = rng.uniform(0.1, 0.9, (24, 24))
        ms_up = rng.uniform(0.05, 0.6, (24, 24, 4))
        for k in range(4):
            band = ms_up[:, :, k]
            scale, offset = band_match(p_l, band)
            matched, matched_low = scale * pan + offset, scale * p_l + offset
            assert matched_low.mean() == pytest.approx(band.mean(), abs=1e-12)
            assert matched_low.std() == pytest.approx(band.std(), rel=1e-12)
            # Both planes get the same affine map, so details rescale
            # linearly: (P - P_L) * std(band) / std(P_L).
            expect = (pan - p_l) * band.std() / p_l.std()
            np.testing.assert_allclose(matched - matched_low, expect, atol=1e-12)

    def test_constant_lowpass_leaves_planes_unchanged(self):
        pan = np.full((8, 8), 0.5)
        ms_up = np.random.default_rng(55).uniform(0, 1, (8, 8, 4))
        for k in range(4):
            assert band_match(pan, ms_up[:, :, k]) == (1.0, 0.0)


class TestInjectionGain:
    def test_unit(self):
        assert injection_gain(np.zeros((4, 4)), np.zeros((4, 4)), MraConfig()) == 1.0

    def test_hpm_formula(self):
        rng = np.random.default_rng(51)
        ms_up = rng.uniform(0.2, 0.9, (5, 5, 4))
        p_l = rng.uniform(0.1, 0.9, (5, 5))
        p_l[0, 0] = 1e-7  # below epsilon: denominator is clamped
        for k in range(4):
            g = injection_gain(ms_up[:, :, k], p_l, MraConfig(gain_mode="hpm"))
            for i in range(5):
                for j in range(5):
                    want = ms_up[i, j, k] / max(p_l[i, j], 1e-4)
                    assert g[i, j] == pytest.approx(want, rel=1e-12)

    def test_regression_matches_polyfit(self):
        rng = np.random.default_rng(52)
        p_l = rng.uniform(0, 1, (16, 16))
        ms_up = np.stack([0.5 * p_l + 0.1 * rng.uniform(0, 1, (16, 16)),
                          -0.3 * p_l + 0.4], axis=2)
        ms_up = np.concatenate([ms_up, ms_up], axis=2)  # 4 bands
        for k in range(4):
            g = injection_gain(ms_up[:, :, k], p_l,
                               MraConfig(gain_mode="regression"))
            slope = np.polyfit(p_l.ravel(), ms_up[:, :, k].ravel(), 1)[0]
            np.testing.assert_allclose(g, slope, rtol=1e-8)

    def test_regression_degenerate_falls_back_to_unit(self):
        ms_up = np.random.default_rng(53).uniform(0, 1, (8, 8, 4))
        for k in range(4):
            with pytest.warns(RuntimeWarning, match="unit gain"):
                g = injection_gain(ms_up[:, :, k], np.full((8, 8), 0.5),
                                   MraConfig(gain_mode="regression"))
            assert g == 1.0


class TestMraFuse:
    def test_all_methods_shapes_and_range(self):
        ms, pan = _smooth_pair()
        for name in METHODS:
            out = fuse(name, ms, pan)
            assert out.data.shape == (64, 64, 4)
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_raw_flag_skips_clamp(self):
        """mra_fuse returns the raw pyramid; fuse only clips it."""
        ms, pan = _smooth_pair()
        raw = mra_fuse(ms, pan, METHODS["glp-hpm"])
        assert isinstance(raw, np.ndarray)
        clamped = fuse("glp-hpm", ms, pan).data
        np.testing.assert_array_equal(clamped, np.clip(raw, 0, 1))

    def test_exp_is_plain_interp(self):
        ms, pan = _smooth_pair()
        np.testing.assert_array_equal(
            fuse("exp", ms, pan).data, np.clip(interp23(ms.data), 0, 1))

    def test_constant_pan_degenerates_to_exp(self, monkeypatch):
        """When P equals P_L the detail plane vanishes for every method."""
        ms, _ = _smooth_pair()
        pan = PanImage(np.full((64, 64), 0.5), ms.sensor)
        expect = fuse("exp", ms, pan).data
        for name, config in METHODS.items():
            if config is None:
                continue
            warns = (partial(pytest.warns, RuntimeWarning)
                     if config.gain_mode == "regression" else nullcontext)
            with monkeypatch.context() as patch, warns():
                patch.setattr(pansharp.fusion, "pan_lowpass",
                              lambda pan, config: pan.data)
                exact = mra_fuse(ms, pan, config)
            np.testing.assert_array_equal(np.clip(exact, 0.0, 1.0), expect)
            # The computed low-pass of a constant plane is constant too, so
            # the unforced pipeline agrees to rounding.
            with warns():
                close = mra_fuse(ms, pan, config)
            np.testing.assert_allclose(np.clip(close, 0.0, 1.0), expect,
                                       atol=1e-12)

    def test_zero_gain_degenerates_to_interp(self, monkeypatch):
        ms, pan = _smooth_pair()
        monkeypatch.setattr(pansharp.fusion, "injection_gain",
                            lambda band, pan_l, config: 0.0)
        raw = mra_fuse(ms, pan, MraConfig("mtf_glp", "hpm"))
        np.testing.assert_array_equal(raw, interp23(ms.data))

    def test_equalize_applies_to_unit_gain(self):
        """Matching the PAN to each band rescales its detail by the band's
        std(band) / std(P_L), whatever the gain rule."""
        ms, pan = _smooth_pair()
        config = MraConfig("mtf_glp", "unit", equalize=True)
        got = mra_fuse(ms, pan, config)
        ms_up, p_l = interp23(ms.data), pan_lowpass(pan, config)
        for k in range(ms_up.shape[2]):
            scale = ms_up[:, :, k].std() / p_l.std()
            np.testing.assert_allclose(
                got[:, :, k], ms_up[:, :, k] + scale * (pan.data - p_l),
                atol=1e-12)

    @pytest.mark.parametrize("n", [64, 128])
    def test_memory_peaks_where_plain_upsampling_does(self, n):
        """Each band's detail is added into the upsampled MS in place, a
        strip of rows at a time, so no MRA method builds an H x W x C
        stack, or a full-size plane besides P_L, beside its output: every
        one peaks within 5% of plain upsampling (exp).  Whole-stack
        matched planes, details and gains put glp-hpm at 2.4x exp.  And
        interp23 upsamples band by band into its output, so exp peaks at
        1.32x the fused float64 stack (whole-stack stages: 2.52x); the
        bound leaves a 6% margin."""
        sensor = SENSORS["wv3"]
        rng = np.random.default_rng(n)
        ms = MsImage(rng.uniform(0, 1, (n, n, sensor.bands)), sensor)
        pan = PanImage(rng.uniform(0, 1, (RATIO * n, RATIO * n)), sensor)
        peaks = {}
        for name in METHODS:
            tracemalloc.start()
            try:
                fused = fuse(name, ms, pan).data
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(peak <= 1.05 * peaks["exp"] for peak in peaks.values()), \
            {name: round(peak / peaks["exp"], 2) for name, peak in peaks.items()}
        assert peaks["exp"] <= 1.4 * fused.nbytes, peaks["exp"] / fused.nbytes

    def test_sfim_equals_intensity_modulation(self):
        """SFIM in MRA form equals ms_up * P / P_box when P_box > epsilon."""
        ms, pan = _smooth_pair()
        config = METHODS["sfim"]
        got = mra_fuse(ms, pan, config)
        p_box = pan_lowpass(pan, config)
        assert p_box.min() > HPM_EPSILON
        want = interp23(ms.data) * (pan.data / p_box)[:, :, None]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matched_pyramid_method_beats_plain_upsampling(self):
        """The equalized Gaussian-pyramid method must improve on EXP in
        both spectral angle and global error on simulated data."""
        from pansharp.metrics import ergas, sam
        from pansharp.wald import make_samples, synthetic_scene

        scene_ms, scene_pan = synthetic_scene(58, SENSORS["wv3"], ms_size=64)
        sample = make_samples(scene_ms, scene_pan)[0]
        lr = MsImage(sample.lrms.astype(np.float64), scene_ms.sensor)
        pan = PanImage(sample.pan.astype(np.float64), scene_ms.sensor)
        fused = fuse("glp-hpm", lr, pan).data
        baseline = fuse("exp", lr, pan).data
        assert sam(sample.gt, fused) < sam(sample.gt, baseline)
        assert ergas(sample.gt, fused) < ergas(sample.gt, baseline)

    def test_shape_and_sensor_mismatch(self):
        ms, pan = _smooth_pair()
        small = PanImage(pan.data[:32, :32], pan.sensor)
        with pytest.raises(DataError, match="does not match"):
            mra_fuse(ms, small, MraConfig())
        other = PanImage(pan.data, SENSORS["qb"])
        with pytest.raises(DataError, match="sensor mismatch"):
            mra_fuse(ms, other, MraConfig())
        with pytest.raises(DataError, match="unknown fusion method"):
            fuse("pca", ms, pan)

