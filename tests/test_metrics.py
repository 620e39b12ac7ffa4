"""Quality metrics: loop-based oracles, exact identities, report I/O."""

import math

import numpy as np
import pytest

from pansharp.errors import DataError
from pansharp.imaging import SENSORS, PanImage, lowpass, mtf_gaussian_taps
from pansharp.metrics import (
    LAPLACIAN_KERNEL,
    METRIC_NAMES,
    EvalReport,
    _highpass,
    cd_conjugate,
    cd_multiply,
    d_lambda,
    d_s,
    ergas,
    no_reference_metrics,
    q2n,
    qnr,
    reference_metrics,
    sam,
    scc,
    uiqi,
)
from helpers import read_eval_csv


def _fixture(seed, shape):
    return np.random.default_rng(seed).uniform(0.05, 0.95, shape)


def sam_oracle(x, y):
    """Per-pixel spectral angle via scalar math, averaged."""
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            dot = float(np.dot(x[i, j], y[i, j]))
            nx = math.sqrt(float(np.dot(x[i, j], x[i, j])))
            ny = math.sqrt(float(np.dot(y[i, j], y[i, j])))
            if nx > 0 and ny > 0:
                cosine = min(1.0, max(-1.0, dot / (nx * ny)))
                total += math.degrees(math.acos(cosine))
    return total / (x.shape[0] * x.shape[1])


def uiqi_window_oracle(a, b):
    """Textbook quality index of one window via scalar statistics."""
    n = a.size
    mu_a = float(a.sum()) / n
    mu_b = float(b.sum()) / n
    var_a = float(((a - mu_a) ** 2).sum()) / n
    var_b = float(((b - mu_b) ** 2).sum()) / n
    cov = float(((a - mu_a) * (b - mu_b)).sum()) / n
    den = (var_a + var_b) * (mu_a ** 2 + mu_b ** 2)
    if den == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return 4.0 * cov * mu_a * mu_b / den


def uiqi_oracle(a, b, window):
    values = []
    for i in range(0, a.shape[0] - window + 1, window):
        for j in range(0, a.shape[1] - window + 1, window):
            values.append(uiqi_window_oracle(a[i:i + window, j:j + window],
                                             b[i:i + window, j:j + window]))
    return float(np.mean(values))


class TestSam:
    def test_matches_loop_oracle(self):
        x = _fixture(60, (9, 7, 4))
        y = _fixture(61, (9, 7, 4))
        assert sam(x, y) == pytest.approx(sam_oracle(x, y), abs=1e-10)

    def test_identical_is_exactly_zero(self):
        x = _fixture(62, (16, 16, 8))
        assert sam(x, x) == 0.0

    def test_zero_pixels_contribute_zero_angle(self):
        x = _fixture(63, (4, 4, 4))
        y = x.copy()
        x[0, 0] = 0.0
        assert sam(x, y) == 0.0

    def test_orthogonal_spectra(self):
        x = np.zeros((1, 1, 4))
        y = np.zeros((1, 1, 4))
        x[0, 0, 0] = 1.0
        y[0, 0, 1] = 1.0
        assert sam(x, y) == pytest.approx(90.0)

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="differ"):
            sam(np.zeros((4, 4, 4)), np.zeros((4, 5, 4)))


class TestErgas:
    def test_matches_loop_oracle(self):
        x = _fixture(64, (12, 12, 4))
        y = _fixture(65, (12, 12, 4))
        terms = []
        for k in range(4):
            mse = float(np.mean((x[:, :, k] - y[:, :, k]) ** 2))
            terms.append(mse / float(np.mean(x[:, :, k])) ** 2)
        want = 100.0 / 4 * math.sqrt(sum(terms) / 4)
        assert ergas(x, y) == pytest.approx(want, rel=1e-12)

    def test_identical_is_exactly_zero(self):
        x = _fixture(66, (8, 8, 4))
        assert ergas(x, x) == 0.0

    def test_zero_mean_band_rejected(self):
        x = np.zeros((8, 8, 2))
        x[:, :, 0] = 0.5
        with pytest.raises(DataError, match="zero-mean"):
            ergas(x, x)


class TestScc:
    def test_matches_filtered_corrcoef(self):
        x = _fixture(69, (20, 20, 2))
        y = 0.6 * x + 0.4 * _fixture(70, (20, 20, 2))
        values = []
        for k in range(2):
            hx = np.zeros((18, 18))
            hy = np.zeros((18, 18))
            for i in range(18):
                for j in range(18):
                    hx[i, j] = np.sum(x[i:i + 3, j:j + 3, k] * LAPLACIAN_KERNEL)
                    hy[i, j] = np.sum(y[i:i + 3, j:j + 3, k] * LAPLACIAN_KERNEL)
            values.append(np.corrcoef(hx.ravel(), hy.ravel())[0, 1])
        assert scc(x, y) == pytest.approx(np.mean(values), abs=1e-10)

    def test_identical_is_exactly_one(self):
        x = _fixture(71, (16, 16, 4))
        assert scc(x, x) == 1.0

    def test_highpass_matches_ndimage_bit_for_bit(self):
        """scipy as the oracle: the interior of ndimage's 3x3 correlation."""
        from scipy import ndimage

        z = _fixture(72, (19, 23, 3))
        want = np.stack([ndimage.correlate(z[:, :, k], LAPLACIAN_KERNEL)[1:-1, 1:-1]
                         for k in range(3)], axis=2)
        got = _highpass(z)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_degenerate_detail_planes(self):
        # Two different constants both have identically-zero detail, so
        # their spatial correlation is 1; constant-vs-textured is 0.
        a = np.full((8, 8, 1), 0.5)
        assert scc(a, a) == 1.0
        assert scc(a, np.full((8, 8, 1), 0.25)) == 1.0
        textured = np.zeros((8, 8, 1))
        textured[4, 4, 0] = 1.0
        assert scc(a, textured) == 0.0

    def test_too_small(self):
        with pytest.raises(DataError, match="too small"):
            scc(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)))


class TestUiqi:
    def test_matches_loop_oracle(self):
        a = _fixture(72, (33, 33))
        b = _fixture(73, (33, 33))
        assert uiqi(a, b, window=16) == pytest.approx(
            uiqi_oracle(a, b, 16), abs=1e-12)

    def test_partial_windows_dropped(self):
        a = _fixture(74, (33, 33))
        b = _fixture(75, (33, 33))
        assert uiqi(a, b, window=16) == pytest.approx(
            uiqi(a[:32, :32], b[:32, :32], window=16), abs=1e-15)

    def test_identical_is_exactly_one(self):
        a = _fixture(76, (32, 32))
        assert uiqi(a, a, window=32) == 1.0

    def test_degenerate_windows(self):
        # 0.5 and 0.25 have exact means, so both variances are exactly
        # zero and the zero-denominator convention applies.
        a = np.full((16, 16), 0.5)
        assert uiqi(a, a.copy(), window=16) == 1.0
        assert uiqi(a, np.full((16, 16), 0.25), window=16) == 0.0

    def test_rejects_bands_and_undersize(self):
        with pytest.raises(DataError, match="2-D"):
            uiqi(np.zeros((8, 8, 2)), np.zeros((8, 8, 2)), window=8)
        with pytest.raises(DataError, match="no complete"):
            uiqi(np.zeros((8, 8)), np.zeros((8, 8)), window=32)


class TestCayleyDickson:
    def test_two_components_is_complex_multiplication(self):
        rng = np.random.default_rng(77)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=(50, 2))
        got = cd_multiply(x, y)
        zc = (x[:, 0] + 1j * x[:, 1]) * (y[:, 0] + 1j * y[:, 1])
        np.testing.assert_allclose(got[:, 0], zc.real, atol=1e-12)
        np.testing.assert_allclose(got[:, 1], zc.imag, atol=1e-12)

    def test_conjugate_product_is_real_nonnegative(self):
        rng = np.random.default_rng(78)
        for comps in (2, 4, 8):
            x = rng.normal(size=(20, comps))
            prod = cd_multiply(x, cd_conjugate(x))
            np.testing.assert_array_equal(prod[:, 1:], 0.0)
            np.testing.assert_allclose(
                prod[:, 0], np.sum(x * x, axis=1), rtol=1e-12)

    def test_quaternion_table(self):
        # i*j = k and j*i = -k under the doubling convention used here.
        i = np.array([0.0, 1.0, 0.0, 0.0])
        j = np.array([0.0, 0.0, 1.0, 0.0])
        k = np.array([0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(cd_multiply(i, j), k)
        np.testing.assert_array_equal(cd_multiply(j, i), -k)
        np.testing.assert_array_equal(
            cd_multiply(i, i), np.array([-1.0, 0.0, 0.0, 0.0]))

    def test_norm_is_multiplicative(self):
        rng = np.random.default_rng(79)
        for comps in (2, 4, 8):
            x = rng.normal(size=comps)
            y = rng.normal(size=comps)
            nx = np.linalg.norm(x) * np.linalg.norm(y)
            assert np.linalg.norm(cd_multiply(x, y)) == pytest.approx(
                nx, rel=1e-12)

    def test_bad_component_count(self):
        with pytest.raises(DataError, match="component count"):
            cd_multiply(np.zeros(3), np.zeros(3))


def q2n_complex_oracle(x, y):
    """Two-band quality index via native complex arithmetic."""
    z = (x[:, :, 0] + 1j * x[:, :, 1]).ravel()
    w = (y[:, :, 0] + 1j * y[:, :, 1]).ravel()
    mu_z = z.mean()
    mu_w = w.mean()
    cov = (z * w.conj()).mean() - mu_z * mu_w.conj()
    var_z = (abs(z) ** 2).mean() - abs(mu_z) ** 2
    var_w = (abs(w) ** 2).mean() - abs(mu_w) ** 2
    den = (var_z + var_w) * (abs(mu_z) ** 2 + abs(mu_w) ** 2)
    return 4.0 * abs(cov) * abs(mu_z) * abs(mu_w) / den


def q2n_window_oracle(x, y):
    """Quality of one window of pixel spectra ``(n_pixels, comps)`` from
    per-pixel Cayley-Dickson products."""
    def covariance(a, b, mu_a, mu_b):
        # mean(a * conj(b)) - mu_a * conj(mu_b)
        prod = cd_multiply(a, cd_conjugate(b))
        return prod.mean(axis=0) - cd_multiply(mu_a, cd_conjugate(mu_b))

    mu_x = x.mean(axis=0)
    mu_y = y.mean(axis=0)
    sigma_xy = covariance(x, y, mu_x, mu_y)
    var_x = covariance(x, x, mu_x, mu_x)[0]
    var_y = covariance(y, y, mu_y, mu_y)[0]
    msq_x = float(np.sum(mu_x * mu_x))
    msq_y = float(np.sum(mu_y * mu_y))
    den = (var_x + var_y) * (msq_x + msq_y)
    if den == 0.0:
        return 1.0 if np.array_equal(x, y) else 0.0
    modulus = math.sqrt(float(np.sum(sigma_xy * sigma_xy)))
    return 4.0 * modulus * math.sqrt(msq_x * msq_y) / den


def q2n_oracle(x, y, window):
    """Per-window loop over stacks whose band count is already 1, 2, 4 or 8."""
    values = []
    for i in range(0, x.shape[0] - window + 1, window):
        for j in range(0, x.shape[1] - window + 1, window):
            values.append(q2n_window_oracle(
                x[i:i + window, j:j + window].reshape(-1, x.shape[2]),
                y[i:i + window, j:j + window].reshape(-1, y.shape[2])))
    return float(np.mean(values))


class TestQ2n:
    def test_eight_bands_match_cayley_dickson_oracle(self):
        x = _fixture(92, (48, 48, 8))
        y = 0.7 * x + 0.3 * _fixture(93, (48, 48, 8))
        assert q2n(x, y, window=16) == pytest.approx(
            q2n_oracle(x, y, 16), abs=1e-12)

    def test_three_bands_match_oracle_on_zero_padded_four(self):
        x = _fixture(94, (32, 32, 3))
        y = _fixture(95, (32, 32, 3))
        pad = ((0, 0), (0, 0), (0, 1))
        assert q2n(x, y, window=16) == pytest.approx(
            q2n_oracle(np.pad(x, pad), np.pad(y, pad), 16), abs=1e-12)

    def test_partial_windows_match_oracle(self):
        x = _fixture(96, (41, 37, 4))
        y = _fixture(97, (41, 37, 4))
        assert q2n(x, y, window=16) == pytest.approx(
            q2n_oracle(x, y, 16), abs=1e-12)

    def test_degenerate_windows_among_ordinary_ones(self):
        # 0.5 and 0.25 have exact means, so a constant window has exactly
        # zero variance and the zero-denominator convention applies.
        x = _fixture(98, (32, 32, 4))
        y = _fixture(99, (32, 32, 4))
        x[:16, :16] = y[:16, :16] = 0.5
        x[:16, 16:] = 0.5
        y[:16, 16:] = 0.25
        assert q2n(x[:16, :16], y[:16, :16], window=16) == 1.0
        assert q2n(x[:16, 16:], y[:16, 16:], window=16) == 0.0
        ordinary = [q2n_oracle(x[16:, j:j + 16], y[16:, j:j + 16], 16)
                    for j in (0, 16)]
        assert q2n(x, y, window=16) == pytest.approx(
            np.mean([1.0, 0.0] + ordinary), abs=1e-12)

    def test_two_band_matches_complex_oracle(self):
        x = _fixture(80, (32, 32, 2))
        y = _fixture(81, (32, 32, 2))
        assert q2n(x, y, window=32) == pytest.approx(
            q2n_complex_oracle(x, y), abs=1e-9)

    def test_identical_is_exactly_one(self):
        for bands in (2, 4, 8):
            x = _fixture(82 + bands, (32, 32, bands))
            assert q2n(x, x, window=32) == 1.0

    def test_padding_matches_explicit_zero_bands(self):
        x = _fixture(83, (32, 32, 3))
        y = _fixture(84, (32, 32, 3))
        xp = np.concatenate([x, np.zeros((32, 32, 1))], axis=2)
        yp = np.concatenate([y, np.zeros((32, 32, 1))], axis=2)
        assert q2n(x, y, window=32) == pytest.approx(q2n(xp, yp, window=32),
                                                     abs=1e-15)

    def test_window_averaging(self):
        x = _fixture(85, (64, 64, 4))
        y = _fixture(86, (64, 64, 4))
        quads = [q2n(x[i:i + 32, j:j + 32], y[i:i + 32, j:j + 32], window=32)
                 for i in (0, 32) for j in (0, 32)]
        assert q2n(x, y, window=32) == pytest.approx(np.mean(quads), abs=1e-12)

    def test_band_cap(self):
        with pytest.raises(DataError, match="at most 8 bands"):
            q2n(np.zeros((32, 32, 9)), np.zeros((32, 32, 9)), window=32)

    def test_score_drops_with_noise(self):
        x = _fixture(87, (32, 32, 4))
        noisy = x + 0.1 * _fixture(88, (32, 32, 4))
        assert 0.0 < q2n(x, noisy, window=32) < 1.0


class TestNoReference:
    def _trio(self, seed=89):
        sensor = SENSORS["gf2"]
        rng = np.random.default_rng(seed)
        base = lowpass(rng.uniform(0, 1, (64, 64)), mtf_gaussian_taps(0.2, 8))
        base = (base - base.min()) / (base.max() - base.min())
        fused = np.stack([np.clip(base * s + 0.05, 0, 1)
                          for s in (0.9, 0.8, 0.7, 0.6)], axis=2)
        taps = mtf_gaussian_taps(0.3, 4)
        lrms = np.stack([lowpass(fused[:, :, k], taps, 4) for k in range(4)], axis=2)
        pan = PanImage(np.clip(base, 0, 1), sensor)
        return fused, lrms, pan

    def test_d_lambda_matches_pairwise_oracle(self):
        fused, lrms, _ = self._trio()
        total = 0.0
        for k in range(4):
            for l in range(4):
                if l == k:
                    continue
                total += abs(uiqi_oracle(fused[:, :, k], fused[:, :, l], 32)
                             - uiqi_oracle(lrms[:, :, k], lrms[:, :, l], 8))
        assert d_lambda(fused, lrms, window=32) == pytest.approx(total / 12,
                                                                 abs=1e-12)

    def test_d_s_matches_per_band_oracle(self):
        fused, lrms, pan = self._trio()
        taps = mtf_gaussian_taps(pan.sensor.pan_nyquist_gain, 4)
        pan_low = lowpass(pan.data, taps)[::4, ::4]
        total = 0.0
        for k in range(4):
            total += abs(uiqi_oracle(fused[:, :, k], pan.data, 32)
                         - uiqi_oracle(lrms[:, :, k], pan_low, 8))
        assert d_s(fused, lrms, pan, window=32) == pytest.approx(total / 4,
                                                                 abs=1e-12)

    def test_self_consistent_product_scores_high(self):
        fused, lrms, pan = self._trio()
        scores = no_reference_metrics(fused, lrms, pan)
        assert scores["d_lambda"] < 0.1
        assert scores["qnr"] == pytest.approx(
            (1 - scores["d_lambda"]) * (1 - scores["d_s"]), abs=1e-15)

    def test_qnr_arithmetic(self):
        assert qnr(0.0, 0.0) == 1.0
        assert qnr(0.0209, 0.0219) == pytest.approx(0.95765771, abs=1e-7)

    def test_d_lambda_degenerate_windows_among_ordinary_ones(self):
        fused, lrms, _ = self._trio()
        fused = fused[:, :, :2].copy()
        lrms = lrms[:, :, :2]
        fused[:32, :32] = 0.5           # equal constant bands: scores 1
        fused[:32, 32:, 0] = 0.5        # differing constant bands: scores 0
        fused[:32, 32:, 1] = 0.25
        ordinary = [uiqi_oracle(fused[32:, j:j + 32, 0],
                                fused[32:, j:j + 32, 1], 32) for j in (0, 32)]
        q_fused = np.mean([1.0, 0.0] + ordinary)
        q_lrms = uiqi_oracle(lrms[:, :, 0], lrms[:, :, 1], 8)
        assert d_lambda(fused, lrms, window=32) == pytest.approx(
            abs(q_fused - q_lrms), abs=1e-12)

    def test_shape_validation(self):
        fused, lrms, pan = self._trio()
        with pytest.raises(DataError, match="band counts"):
            d_lambda(fused, lrms[:, :, :3], window=32)
        with pytest.raises(DataError, match="not 4x"):
            d_lambda(fused[:63], lrms, window=32)
        with pytest.raises(DataError, match="not 4x"):  # a x2 pair
            d_lambda(fused[:32, :32], lrms, window=32)
        with pytest.raises(DataError, match="not divisible"):
            d_lambda(fused, lrms, window=30)

    def test_window_of_the_ratio_rejected(self):
        """A window of 4 scores 1x1 low-resolution windows, which have no
        variance; both full-resolution metrics refuse it, and 8 is the
        smallest they take."""
        fused, lrms, pan = self._trio()
        for metric in (lambda w: d_lambda(fused, lrms, w),
                       lambda w: d_s(fused, lrms, pan, w)):
            with pytest.raises(DataError, match="at least 8"):
                metric(4)
            assert 0.0 <= metric(8) <= 1.0


@pytest.mark.parametrize("window", [0, -4])
@pytest.mark.parametrize("metric", ["uiqi", "q2n", "d_lambda", "d_s"])
def test_window_below_one_rejected(metric, window):
    fused, lrms, pan = TestNoReference()._trio()
    calls = {
        "uiqi": lambda: uiqi(fused[:, :, 0], fused[:, :, 1], window),
        "q2n": lambda: q2n(fused, fused, window),
        "d_lambda": lambda: d_lambda(fused, lrms, window),
        "d_s": lambda: d_s(fused, lrms, pan, window),
    }
    with pytest.raises(DataError, match="window must be at least 1"):
        calls[metric]()


class TestReferenceBundle:
    def test_keys_and_ideal_values(self):
        x = _fixture(90, (32, 32, 4))
        scores = reference_metrics(x, x)
        assert set(scores) == {"sam", "ergas", "scc", "q2n"}
        assert scores["sam"] == 0.0
        assert scores["ergas"] == 0.0
        assert scores["scc"] == 1.0
        assert scores["q2n"] == 1.0


class TestEvalReport:
    def test_csv_roundtrip(self, tmp_path):
        report = EvalReport()
        report.provenance["seed"] = "17"
        report.provenance["sensor"] = "gf2"
        report.add("sfim", "img0", sam=3.14159265, ergas=2.5, q2n=0.91)
        report.add("sfim", "img1", sam=2.0, ergas=3.0, q2n=0.88)
        report.add("exp", "img0", d_lambda=0.02, d_s=0.03, qnr=0.9506)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        back = read_eval_csv(path)
        assert back.provenance == {"seed": "17", "sensor": "gf2"}
        assert len(back.rows) == 3
        assert back.rows[0]["sam"] == pytest.approx(3.14159265, rel=1e-5)
        assert "d_lambda" not in back.rows[0]
        assert back.rows[2]["qnr"] == pytest.approx(0.9506)

    def test_header_and_blank_cells(self, tmp_path):
        report = EvalReport()
        report.add("exp", "img0", sam=1.0)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,image," + ",".join(METRIC_NAMES)
        assert lines[1] == "exp,img0,1,,,,,,"

    def test_six_significant_digits(self, tmp_path):
        report = EvalReport()
        report.add("exp", "img0", sam=0.123456789)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        assert "0.123457" in path.read_text()

    def test_aggregates(self):
        report = EvalReport()
        report.add("sfim", "img0", sam=1.0, q2n=0.9)
        report.add("sfim", "img1", sam=3.0, q2n=0.7)
        report.add("exp", "img0", sam=5.0)
        report.add_aggregates()
        rows = {(r["method"], r["image"]): r for r in report.rows}
        assert rows[("sfim", "__mean")]["sam"] == pytest.approx(2.0)
        assert rows[("sfim", "__std")]["sam"] == pytest.approx(1.0)
        assert rows[("sfim", "__mean")]["q2n"] == pytest.approx(0.8)
        assert rows[("exp", "__mean")]["sam"] == pytest.approx(5.0)
        assert rows[("exp", "__std")]["sam"] == 0.0
        assert "ergas" not in rows[("sfim", "__mean")]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            EvalReport().add("exp", "img0", rmse=1.0)
