"""Sensor model, MTF taps, the decimating low-pass, and the 23-tap interpolator."""

import numpy as np
import pytest

from pansharp import imaging
from pansharp.errors import DataError
from pansharp.imaging import (
    RATIO,
    MsImage,
    PanImage,
    SENSORS,
    SensorSpec,
    get_sensor,
    interp23,
    interp23_taps,
    lowpass,
    mtf_gaussian_taps,
    mtf_sigma,
    sensor_taps,
)

EPS = np.finfo(np.float64).eps


def lowpass_naive(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Loop-based convolution oracle with symmetric padding."""
    ph, pw = kernel.shape[0] // 2, kernel.shape[1] // 2
    padded = np.pad(image, ((ph, ph), (pw, pw)), mode="symmetric")
    out = np.zeros_like(image, dtype=np.float64)
    kf = kernel[::-1, ::-1]  # true convolution flips the kernel
    for i in range(image.shape[0]):
        for j in range(image.shape[1]):
            acc = 0.0
            for di in range(kernel.shape[0]):
                for dj in range(kernel.shape[1]):
                    acc += padded[i + di, j + dj] * kf[di, dj]
            out[i, j] = acc
    return out


def lowpass_sequential(image: np.ndarray, taps: np.ndarray, step: int) -> np.ndarray:
    """Float64 oracle for one band that fixes the summation order: along
    each axis, ``acc += window_k * tap_k`` over the flipped taps in order."""
    half = taps.size // 2
    out = np.asarray(image, dtype=np.float64)
    for axis in (0, 1):
        moved = np.moveaxis(out, axis, 0)
        padded = np.pad(moved, [(half, half), (0, 0)], mode="symmetric")
        acc = np.zeros_like(moved[::step])
        for k, tap in enumerate(taps[::-1]):
            acc += padded[k:k + moved.shape[0]:step] * tap
        out = np.moveaxis(acc, 0, axis)
    return out


def per_band_taps(bands: int, ratio: int) -> np.ndarray:
    """One distinct 41-tap MTF row per band."""
    gains = np.linspace(0.15, 0.45, bands)
    return np.stack([mtf_gaussian_taps(gain, ratio) for gain in gains])


class TestSensorSpec:
    def test_presets(self):
        assert SENSORS["wv3"].bands == 8 and SENSORS["wv3"].bit_depth == 11
        assert SENSORS["gf2"].bands == 4 and SENSORS["gf2"].bit_depth == 10
        assert SENSORS["qb"].bands == 4 and SENSORS["qb"].bit_depth == 11
        for spec in SENSORS.values():
            assert spec.pan_nyquist_gain == 0.15
        assert RATIO == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="bands"):
            SensorSpec("x", 3, (0.3,) * 3, 0.15, 11)
        with pytest.raises(ValueError, match="gain"):
            SensorSpec("x", 4, (0.3, 0.3, 1.5, 0.3), 0.15, 11)
        with pytest.raises(DataError, match="unknown sensor"):
            get_sensor("landsat")

    def test_image_wrappers_validate(self):
        wv3 = SENSORS["wv3"]
        MsImage(np.zeros((8, 8, 8)), wv3)
        with pytest.raises(DataError, match="bands"):
            MsImage(np.zeros((8, 8, 4)), wv3)
        with pytest.raises(DataError, match="outside"):
            PanImage(np.full((4, 4), 1.5), wv3)
        with pytest.raises(DataError, match="non-finite"):
            PanImage(np.full((4, 4), np.nan), wv3)


class TestMtfKernel:
    def test_unit_sum(self):
        taps = mtf_gaussian_taps(0.3, 4)
        assert taps.shape == (41,)
        assert abs(taps.sum() - 1.0) < 1e-12

    def test_dft_hits_gain_at_cutoff(self):
        """The taps' DFT at normalized frequency 1/ratio equals the
        requested Nyquist gain (within 2%; measured 0.30002 for 0.3)."""
        taps = mtf_gaussian_taps(0.3, 4)
        n = np.arange(41) - 20
        response = abs(np.sum(taps * np.exp(-2j * np.pi * (1 / 4) * n)))
        assert response == pytest.approx(0.3, rel=0.02)

    def test_smaller_gain_blurs_more(self):
        assert mtf_sigma(0.15, 4) > mtf_sigma(0.35, 4)
        assert mtf_sigma(0.3, 2) < mtf_sigma(0.3, 4)

    def test_invalid_gain(self):
        with pytest.raises(ValueError, match="gain"):
            mtf_gaussian_taps(0.0, 4)


class TestSensorTaps:
    """The sensor blurs keep the central taps of the 41-tap rows that reach
    float64 eps of the peak, with their values unchanged."""

    @staticmethod
    def _full(sensor, factor):
        return (mtf_gaussian_taps(sensor.pan_nyquist_gain, factor),
                np.stack([mtf_gaussian_taps(g, factor)
                          for g in sensor.ms_nyquist_gains]))

    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize("name", sorted(SENSORS))
    def test_kept_taps_are_the_full_rows_central_taps(self, name, factor):
        sensor = SENSORS[name]
        for cut, full in zip(sensor_taps(sensor, factor),
                             self._full(sensor, factor)):
            half = cut.shape[-1] // 2
            np.testing.assert_array_equal(cut, cut[..., ::-1])
            np.testing.assert_array_equal(cut, full[..., 20 - half:21 + half])
            peak = full.max(axis=-1, keepdims=True)
            dropped = np.concatenate(
                [full[..., :20 - half], full[..., 21 + half:]], axis=-1)
            assert np.all(dropped < EPS * peak)
            # The cut is the tightest: some row's outermost kept tap counts.
            assert np.any(cut[..., 0] >= EPS * peak[..., 0])

    def test_wv3_sizes(self):
        wv3 = SENSORS["wv3"]
        assert sensor_taps(wv3, 4)[0].shape == (21,)
        assert sensor_taps(wv3, 4)[1].shape == (8, 15)
        assert sensor_taps(wv3, 2)[1].shape == (8, 7)

    @pytest.mark.parametrize("shape", [(64, 64, 8), (5, 7, 8)])
    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize("name", sorted(SENSORS))
    def test_lowpass_within_a_few_eps_of_the_full_rows(self, name, factor,
                                                       shape):
        """Cut and 41-tap rows blur data in [0, 1] to within 4 eps, also
        on a 5x7 raster, shorter than the 20-sample halo of 41 taps."""
        sensor = SENSORS[name]
        img = np.random.default_rng(37).uniform(0, 1, shape[:2] + (sensor.bands,))
        (pan_cut, band_cut), (pan_full, band_full) = (
            sensor_taps(sensor, factor), self._full(sensor, factor))
        for step in (1, factor):
            for data, cut, full in ((img[:, :, 0], pan_cut, pan_full),
                                    (img, band_cut, band_full)):
                np.testing.assert_allclose(lowpass(data, cut, step),
                                           lowpass(data, full, step),
                                           rtol=0, atol=4 * EPS)


class TestMirrorPad:
    """The padded plane of each low-pass pass equals np.pad's symmetric
    mode in values and in strides, so the einsum sees the same operands."""

    @staticmethod
    def _arrays():
        stack = np.random.default_rng(38).uniform(0, 1, (9, 6, 4))
        return {
            "contiguous": stack[:, :, 0].copy(),
            "fortran": np.asfortranarray(stack[:, :, 0]),
            "band view": stack[:, :, 1],
            "band-major view": np.moveaxis(stack, 2, 0),
            "band group view": np.moveaxis(stack, 2, 0)[1:3],
            "short": stack[:2, :1, 0].copy(),
            "short band view": stack[:2, :1, 2],
        }

    @pytest.mark.parametrize("half", [1, 4, 10, 20])
    @pytest.mark.parametrize("axis", [-2, -1])
    def test_matches_np_pad(self, axis, half):
        for name, data in self._arrays().items():
            widths = [(0, 0)] * data.ndim
            widths[axis] = (half, half)
            want = np.pad(data, widths, mode="symmetric")
            got = imaging._mirror_pad(data, half, axis)
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert got.strides == want.strides, name

    def test_halo_longer_than_the_axis(self):
        """A (2, 1) raster at half-width 4 repeats its mirror."""
        data = np.array([[1.0], [2.0]])
        got = imaging._mirror_pad(data, 4, -2)
        assert got[:, 0].tolist() == [1, 2, 2, 1, 1, 2, 2, 1, 1, 2]
        assert imaging._mirror_pad(data, 4, -1).tolist() == [
            [1.0] * 9, [2.0] * 9]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty axis"):
            lowpass(np.zeros((0, 4)), mtf_gaussian_taps(0.3, 4))


class TestLowpass:
    def test_matches_naive_oracle(self):
        """Separable filtering equals the 2-D loop on outer(taps, taps)."""
        rng = np.random.default_rng(32)
        img = rng.uniform(0, 1, (9, 9))
        taps = rng.uniform(0, 1, 5)
        taps /= taps.sum()
        got = lowpass(img, taps)
        want = lowpass_naive(img, np.outer(taps, taps))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_step_keeps_every_step_th_sample(self):
        rng = np.random.default_rng(35)
        taps = mtf_gaussian_taps(0.3, 4)
        for shape in ((64, 48), (32, 32, 3)):
            img = rng.uniform(0, 1, shape)
            for step in (2, 4):
                np.testing.assert_array_equal(
                    lowpass(img, taps, step), lowpass(img, taps)[::step, ::step])

    def test_image_smaller_than_halo(self):
        """The 20-sample halo of 41 taps mirrors repeatedly over 8x8 and 5x7."""
        rng = np.random.default_rng(36)
        taps = mtf_gaussian_taps(0.15, 4)
        kernel = np.outer(taps, taps)
        for shape in ((8, 8), (5, 7)):
            img = rng.uniform(0, 1, shape)
            want = lowpass_naive(img, kernel)
            np.testing.assert_allclose(lowpass(img, taps), want, atol=1e-12)
            np.testing.assert_allclose(lowpass(img, taps, 4), want[::4, ::4],
                                       atol=1e-12)

    def test_constant_field_preserved(self):
        taps = mtf_gaussian_taps(0.35, 4)
        out = lowpass(np.full((16, 16, 2), 0.5), taps)
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_box_kernel_is_mean(self):
        taps = np.full(5, 1.0 / 5)
        img = np.arange(49, dtype=np.float64).reshape(7, 7)
        got = lowpass(img, taps)
        assert got[3, 3] == pytest.approx(img[1:6, 1:6].mean())


class TestLowpassPerBandTaps:
    """One tap row per band: the bands are filtered together, band-major,
    in groups, and every band equals its own 2-D call bit for bit."""

    @staticmethod
    def _per_band(img, taps, step):
        return np.stack([lowpass(img[:, :, k], taps[k], step)
                         for k in range(img.shape[2])], axis=2)

    @pytest.mark.parametrize("step", [4, 2])
    def test_matches_per_band_calls(self, step):
        img = np.random.default_rng(40).uniform(0, 1, (64, 64, 8))
        taps = per_band_taps(8, step)
        got = lowpass(img, taps, step)
        assert got.shape == (64 // step, 64 // step, 8)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, self._per_band(img, taps, step))

    @pytest.mark.parametrize("group", [1, 3])
    @pytest.mark.parametrize("step", [4, 2])
    def test_group_size_does_not_move_bits(self, group, step, monkeypatch):
        """Groups of 1, and of 3 with a remainder of 2, equal one group."""
        img = np.random.default_rng(41).uniform(0, 1, (64, 64, 8))
        taps = per_band_taps(8, step)
        whole = lowpass(img, taps, step)
        plane_bytes = 8 * (64 + 40) * 64  # the row pass's padded plane
        monkeypatch.setattr(imaging, "_LOWPASS_BUDGET", group * plane_bytes)
        np.testing.assert_array_equal(lowpass(img, taps, step), whole)

    @pytest.mark.parametrize("shape", [(8, 8, 4), (5, 7, 3)])
    def test_image_smaller_than_halo(self, shape):
        img = np.random.default_rng(42).uniform(0, 1, shape)
        taps = per_band_taps(shape[2], 4)
        for step in (1, 4):
            np.testing.assert_array_equal(lowpass(img, taps, step),
                                          self._per_band(img, taps, step))

    @pytest.mark.parametrize("shape", [(64, 64), (5, 7)])
    def test_2d_input_unchanged(self, shape):
        """A 2-D image gives the same bits as the band of a 3-D image."""
        img = np.random.default_rng(43).uniform(0, 1, shape)
        taps = mtf_gaussian_taps(0.15, 4)
        for step in (1, 4):
            got = lowpass(img, taps, step)
            assert got.shape == img[::step, ::step].shape
            band = lowpass(img[:, :, None], taps[None], step)[:, :, 0]
            np.testing.assert_array_equal(got, band)
            np.testing.assert_array_equal(got, lowpass_sequential(img, taps, step))

    @pytest.mark.parametrize("step", [1, 2, 4])
    def test_sequential_float64_oracle(self, step, monkeypatch):
        """Every band is the in-order mul-then-add over its taps, in one
        group and in groups of one."""
        img = np.random.default_rng(44).uniform(0, 1, (32, 24, 8))
        taps = per_band_taps(8, 4)
        want = np.stack([lowpass_sequential(img[:, :, k], taps[k], step)
                         for k in range(8)], axis=2)
        np.testing.assert_array_equal(lowpass(img, taps, step), want)
        monkeypatch.setattr(imaging, "_LOWPASS_BUDGET", 1)
        np.testing.assert_array_equal(lowpass(img, taps, step), want)

    def test_shared_row_equals_repeated_rows(self):
        img = np.random.default_rng(45).uniform(0, 1, (16, 16, 4))
        taps = mtf_gaussian_taps(0.3, 4)
        np.testing.assert_array_equal(lowpass(img, taps, 4),
                                      lowpass(img, np.stack([taps] * 4), 4))

    def test_rejects_mismatched_rows(self):
        taps = per_band_taps(4, 4)
        for img, bad in ((np.zeros((8, 8, 3)), taps),
                         (np.zeros((8, 8)), taps),
                         (np.zeros((8, 8, 4)), taps[:, :-1])):
            with pytest.raises(ValueError, match="taps"):
                lowpass(img, bad)


class TestInterp23:
    def test_taps_halfband_structure(self):
        taps = interp23_taps()
        n = np.arange(23) - 11
        assert taps[11] == 1.0
        assert np.all(taps[(n % 2 == 0) & (n != 0)] == 0.0)
        assert abs(taps[n % 2 != 0].sum() - 1.0) < 1e-12

    def test_constant_preserved(self):
        out = interp23(np.full((8, 8), 0.25))
        np.testing.assert_allclose(out, 0.25, atol=1e-12)

    def test_roundtrip_exact_on_grid(self):
        """interp23(x)[::4, ::4] reproduces x bit for bit."""
        rng = np.random.default_rng(33)
        x = rng.uniform(0, 1, (16, 16, 3))
        up = interp23(x)
        assert up.shape == (64, 64, 3)
        np.testing.assert_array_equal(up[::4, ::4], x)

    def test_smooth_field_roundtrip_under_one_percent(self):
        """Band-limited field: decimate then interp back, rel RMS < 1%."""
        rng = np.random.default_rng(34)
        field = rng.uniform(0, 1, (128, 128))
        smooth = lowpass(field, mtf_gaussian_taps(0.05, 16, support=81))
        smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min())
        rec = interp23(smooth[::4, ::4])
        rel_rms = np.sqrt(np.mean((rec - smooth) ** 2) / np.mean(smooth ** 2))
        assert rel_rms < 0.01

    def test_short_axis_rejected(self):
        with pytest.raises(ValueError, match="need >= 6"):
            interp23(np.zeros((8, 5)))

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "float32"])
    @pytest.mark.parametrize("bar", [48 * 40, 48 * 40 + 1])
    def test_band_by_band_gives_the_whole_stack_bits(self, monkeypatch, layout, bar):
        """Upsampling band by band into one output (an upsampled band of
        48 x 40 values at a bar of as many) gives the bits of running each
        stage over the whole stack at once (a bar one value higher)."""
        monkeypatch.setattr(imaging, "_INTERP23_BAND_VALUES", bar)
        x = np.random.default_rng(36).uniform(0, 1, (12, 10, 6))
        x = {"C": x, "F": np.asfortranarray(x), "strided": x[:, :, ::2],
             "float32": x.astype(np.float32)}[layout]
        want = np.asarray(x, dtype=np.float64)
        for _ in range(2):
            for axis in (0, 1):
                want = imaging._upsample2_axis(want, axis, interp23_taps())
        got = interp23(x)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(6, 6), (7, 9, 4), (16, 16, 8), (64, 64)])
    def test_matches_zero_stuffed_mirror_filter(self, shape):
        """Each x2 stage equals zero-interleaving followed by the 23-tap
        correlation with mirrored edges (scipy as the oracle)."""
        from scipy.ndimage import correlate1d

        x = np.random.default_rng(35).uniform(0, 1, shape)
        want = x
        for _ in range(2):
            for axis in (0, 1):
                index = [slice(None)] * want.ndim
                index[axis] = slice(0, None, 2)
                up_shape = list(want.shape)
                up_shape[axis] *= 2
                up = np.zeros(up_shape)
                up[tuple(index)] = want
                want = correlate1d(up, interp23_taps(), axis=axis, mode="mirror")
        np.testing.assert_allclose(interp23(x), want, rtol=0, atol=1e-14)
