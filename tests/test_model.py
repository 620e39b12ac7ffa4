"""Network architecture: shapes, degenerate identities, parameter algebra,
checkpoint round-trips, and gradient verification against the
double-precision reference forward."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from pansharp import model
from pansharp.errors import DataError
from pansharp.grad import Tape, Tensor, conv2d, l1_loss, layers, pixel_shuffle
from pansharp.model import (
    TdnetConfig,
    ablation_configs,
    config_from_dict,
    config_to_dict,
    init_params,
    load_checkpoint,
    mrab,
    mscb,
    pan_details,
    parameter_plan,
    save_checkpoint,
    tdnet_forward,
    tdnet_loss,
    tmra_injection,
)


def _count(params):
    return sum(t.size for t in params.values())


def _rand(seed, shape, low=0.0, high=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, shape).astype(np.float32)


def _zero_refine_block(params, level):
    """Null out one level's multi-scale block so it becomes the identity."""
    for name, tensor in params.items():
        if name.startswith(f"{level}.mix."):
            tensor.data[...] = 0.0


def _saturate_gates(params, config, gain):
    """Pin every level's sigmoid gate at exactly ``gain``, 0 or 1: zero
    weights and an infinite bias, as sigmoid(-inf) == 0 and sigmoid(inf) == 1."""
    for level, _ in config.stages:
        params[f"{level}.gate2.w"].data[...] = 0.0
        params[f"{level}.gate2.b"].data[...] = np.inf if gain else -np.inf


class TestTdnetConfig:
    def test_defaults(self):
        """The stock 8-band configuration matches the documented defaults."""
        cfg = TdnetConfig(bands=8)
        assert cfg.feature_width == 64
        assert cfg.mscb_kernels == (3, 5, 7)
        assert cfg.mscb_width == 38
        assert cfg.upsample_mode == "pixel_shuffle"
        assert cfg.use_mrab and cfg.use_pan_branch
        assert cfg.levels == 2
        assert cfg.gain_mode == "learned_attention"

    def test_kernel_validation(self):
        with pytest.raises(ValueError, match="odd"):
            TdnetConfig(bands=4, mscb_kernels=(3, 4))
        with pytest.raises(ValueError, match="nonempty"):
            TdnetConfig(bands=4, mscb_kernels=())

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="upsample_mode"):
            TdnetConfig(bands=4, upsample_mode="nearest")
        with pytest.raises(ValueError, match="gain_mode"):
            TdnetConfig(bands=4, gain_mode="learned")
        with pytest.raises(ValueError, match="levels"):
            TdnetConfig(bands=4, levels=3)
        with pytest.raises(ValueError, match="bands"):
            TdnetConfig(bands=0)

    def test_kernels_normalized_to_tuple(self):
        cfg = TdnetConfig(bands=4, mscb_kernels=[3, 5])
        assert cfg.mscb_kernels == (3, 5)

    def test_dict_roundtrip(self):
        cfg = TdnetConfig(bands=4, mscb_width=7, upsample_mode="deconv")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_ratio_recorded_and_checked(self):
        """The config record names ratio 4; any other ratio is refused,
        and a record without one loads as ratio 4."""
        payload = config_to_dict(TdnetConfig(bands=4))
        assert payload["ratio"] == 4
        del payload["ratio"]
        assert config_from_dict(payload) == TdnetConfig(bands=4)
        payload["ratio"] = 2
        with pytest.raises(ValueError, match="ratio is 2, not 4"):
            config_from_dict(payload)

    def test_unknown_key_rejected(self):
        payload = config_to_dict(TdnetConfig(bands=4))
        payload["kernel_count"] = 3
        with pytest.raises(ValueError, match="kernel_count"):
            config_from_dict(payload)


class TestParameters:
    def test_count_matches_hand_algebra(self):
        """Default 8-band size, frozen from the closed-form layer algebra:
        PAN branch 83728 + 2 injection blocks 16232 each + 2 multi-scale
        blocks (9288 + 5531*width) each = 134768 + 11062*width."""
        width = 38
        expected = 134768 + 11062 * width
        assert expected == 555124
        params = init_params(TdnetConfig(bands=8), seed=0)
        assert _count(params) == expected

    def test_count_inside_target_window(self):
        """8-band default lands in the 5.5e5 +/- 20% window."""
        n = _count(init_params(TdnetConfig(bands=8), seed=0))
        assert 4.4e5 <= n <= 6.6e5

    def test_variants_shrink_count_monotonically(self):
        base = TdnetConfig(bands=8)
        cfgs = ablation_configs(base)
        full = _count(init_params(base, seed=0))
        for name in ("wo-mrab", "sscb", "wo-pan-branch", "tdnet-minus"):
            assert _count(init_params(cfgs[name], seed=0)) < full, name

    def test_init_is_deterministic(self):
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        a = init_params(cfg, seed=11)
        b = init_params(cfg, seed=11)
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)
        c = init_params(cfg, seed=12)
        assert any(not np.array_equal(a[n].data, c[n].data) for n in a)

    def test_biases_zero_and_weights_bounded(self):
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        for name, shape, fan_in in parameter_plan(cfg):
            tensor = init_params(cfg, seed=2)[name]
            if fan_in is None:
                assert not np.any(tensor.data)
            else:
                bound = np.sqrt(6.0 / fan_in)
                assert np.abs(tensor.data).max() <= bound
            assert tensor.requires_grad
            assert tensor.data.shape == shape

    def test_layer_streams_independent_of_other_layers(self):
        """Dropping the PAN branch must not move the fusion-path draws."""
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        with_pan = init_params(cfg, seed=5)
        without = init_params(dataclasses.replace(cfg, use_pan_branch=False), seed=5)
        np.testing.assert_array_equal(with_pan["level1.up.w"].data,
                                      without["level1.up.w"].data)


class TestPanBranch:
    CFG = TdnetConfig(bands=8)

    def test_output_shapes(self):
        params = init_params(self.CFG, seed=1)
        d_half, d_full = pan_details(Tensor(_rand(3, (1, 1, 64, 64))),
                                     params, self.CFG)
        assert d_full.shape == (1, 8, 64, 64)
        assert d_half.shape == (1, 8, 32, 32)

    @pytest.mark.parametrize("use_pan_branch", [True, False])
    @pytest.mark.parametrize("levels", [1, 2], ids=["1-4", "2-4"])  # levels-ratio
    def test_one_map_per_stage_on_its_grid(self, levels, use_pan_branch):
        cfg = TdnetConfig(bands=3, feature_width=4, mscb_width=2,
                          levels=levels, use_pan_branch=use_pan_branch)
        details = pan_details(Tensor(_rand(4, (2, 1, 16, 16))),
                              init_params(cfg, seed=1), cfg)
        assert len(details) == len(cfg.stages) == levels
        for (_, pool), d in zip(cfg.stages, details):
            assert d.shape == (2, 3, 16 // pool, 16 // pool)

    def test_stage_table(self):
        assert TdnetConfig(bands=4).stages == (("level1", 2), ("level2", 1))
        assert TdnetConfig(bands=4, levels=1).stages == (("level1", 1),)

    def test_zero_pan_gives_zero_details(self):
        """With zero input and (default) zero biases the whole branch is a
        chain of linear maps and relus evaluated at 0."""
        params = init_params(self.CFG, seed=1)
        for d in pan_details(Tensor(np.zeros((1, 1, 16, 16), np.float32)),
                             params, self.CFG):
            np.testing.assert_array_equal(d.data, 0.0)

    def test_rejects_bad_inputs(self):
        params = init_params(self.CFG, seed=1)
        with pytest.raises(ValueError, match=r"\(B,1,H,W\)"):
            pan_details(Tensor(np.zeros((1, 2, 8, 8), np.float32)), params, self.CFG)
        with pytest.raises(ValueError, match="even"):
            pan_details(Tensor(np.zeros((1, 1, 7, 7), np.float32)), params, self.CFG)

    def test_gradients_match_reference_differences(self):
        """Exhaustive finite differences of a double-precision branch shadow
        on a 1x1x8x8 input, every parameter coordinate."""
        from pansharp.gradcheck import _conv_ref, _maxpool_ref

        cfg = TdnetConfig(bands=3, feature_width=5)
        params = init_params(cfg, seed=9)
        pan_np = _rand(10, (1, 1, 8, 8))
        rng = np.random.default_rng(11)
        proj_full = rng.standard_normal((1, 3, 8, 8))
        proj_half = rng.standard_normal((1, 3, 4, 4))

        with Tape():
            d_half, d_full = pan_details(Tensor(pan_np), params, cfg)
            loss = ((d_full * Tensor(proj_full)).sum()
                    + (d_half * Tensor(proj_half)).sum())
        loss.backward()

        vals = {k: t.data.astype(np.float64) for k, t in params.items()
                if k.startswith("pan.")}

        def shadow():
            def cv(name, x):
                w = vals[f"{name}.w"]
                return _conv_ref(x, w, vals[f"{name}.b"], w.shape[2] // 2)
            feats = np.maximum(cv("pan.entry", pan_np.astype(np.float64)), 0.0)
            shared = np.maximum(
                feats + cv("pan.res2", np.maximum(cv("pan.res1", feats), 0.0)), 0.0)
            full = cv("pan.detail_full", shared)
            half = cv("pan.detail_half", _maxpool_ref(shared, 2))
            return float((full * proj_full).sum() + (half * proj_half).sum())

        h, worst = 1e-5, 0.0
        for name in vals:
            flat = vals[name].reshape(-1)
            grad = params[name].grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = shadow()
                flat[i] = orig - h
                fm = shadow()
                flat[i] = orig
                numeric = (fp - fm) / (2 * h)
                worst = max(worst, abs(float(grad[i]) - numeric)
                            / max(abs(grad[i]), abs(numeric), 1e-3))
        assert worst < 1e-2


class TestMrab:
    CFG = TdnetConfig(bands=4)

    def _inputs(self, seed=20, c=4, n=16):
        return (Tensor(_rand(seed, (1, c, n, n))),
                Tensor(_rand(seed + 1, (1, c, 2 * n, 2 * n), -0.5, 0.5)))

    def test_doubles_spatial_size(self):
        params = init_params(self.CFG, seed=4)
        x, d = self._inputs()
        assert mrab(x, d, params, self.CFG, "level1").shape == (1, 4, 32, 32)

    def test_zero_gate_returns_upsampled_input_exactly(self):
        params = init_params(self.CFG, seed=4)
        x, d = self._inputs()
        _saturate_gates(params, self.CFG, 0)
        out = mrab(x, d, params, self.CFG, "level1")
        ms_up = pixel_shuffle(
            conv2d(x, params["level1.up.w"], params["level1.up.b"], padding=1), 2)
        np.testing.assert_array_equal(out.data, ms_up.data)

    def test_residual_is_gated_detail(self):
        """Rebuilding the gate by hand reproduces the block's output."""
        from pansharp.grad import concat, relu, sigmoid

        params = init_params(self.CFG, seed=4)
        x, d = self._inputs()
        out = mrab(x, d, params, self.CFG, "level1")
        ms_up = pixel_shuffle(
            conv2d(x, params["level1.up.w"], params["level1.up.b"], padding=1), 2)
        hidden = relu(conv2d(concat([ms_up, d]), params["level1.gate1.w"],
                             params["level1.gate1.b"], padding=1))
        gate = sigmoid(conv2d(hidden, params["level1.gate2.w"],
                              params["level1.gate2.b"], padding=1))
        np.testing.assert_array_equal(out.data,
                                      ms_up.data + gate.data * d.data)
        np.testing.assert_allclose(out.data - ms_up.data, gate.data * d.data,
                                   atol=1e-6)
        assert np.all(gate.data > 0) and np.all(gate.data < 1)

    def test_without_gate_adds_detail_directly(self):
        cfg = dataclasses.replace(self.CFG, use_mrab=False)
        params = init_params(cfg, seed=4)
        x, d = self._inputs()
        out = mrab(x, d, params, cfg, "level1")
        ms_up = pixel_shuffle(
            conv2d(x, params["level1.up.w"], params["level1.up.b"], padding=1), 2)
        np.testing.assert_array_equal(out.data, ms_up.data + d.data)

    def test_bilinear_and_deconv_modes_change_shape_identically(self):
        x, d = self._inputs()
        for mode in ("bilinear", "deconv"):
            cfg = dataclasses.replace(self.CFG, upsample_mode=mode)
            params = init_params(cfg, seed=4)
            assert mrab(x, d, params, cfg, "level1").shape == d.shape

    def test_shape_mismatch_rejected(self):
        params = init_params(self.CFG, seed=4)
        x, _ = self._inputs()
        with pytest.raises(ValueError, match="spatially"):
            mrab(x, Tensor(_rand(1, (1, 4, 48, 48))), params, self.CFG, "level1")
        with pytest.raises(ValueError, match="batch/channel"):
            mrab(x, Tensor(_rand(1, (1, 3, 32, 32))), params, self.CFG, "level1")


class TestMscb:
    CFG = TdnetConfig(bands=4)

    def test_zeroed_body_is_identity(self):
        params = init_params(self.CFG, seed=6)
        _zero_refine_block(params, "level1")
        x = Tensor(_rand(30, (2, 4, 12, 12)))
        d = Tensor(_rand(31, (2, 4, 12, 12)))
        out = mscb(x, d, params, self.CFG, "level1")
        np.testing.assert_array_equal(out.data, x.data)

    def test_branch_concat_width_follows_config(self):
        """Three kernels at width 20 feed a 60-channel blend conv."""
        plan = dict((name, shape) for name, shape, _ in
                    parameter_plan(TdnetConfig(bands=8, mscb_width=20)))
        assert plan["level1.mix.blend.w"][1] == 60

    def test_single_kernel_variant_preserves_shape(self):
        cfg = dataclasses.replace(self.CFG, mscb_kernels=(5,))
        params = init_params(cfg, seed=6)
        x = Tensor(_rand(32, (1, 4, 10, 10)))
        d = Tensor(_rand(33, (1, 4, 10, 10)))
        assert mscb(x, d, params, cfg, "level1").shape == x.shape
        assert (_count(init_params(cfg, seed=0))
                < _count(init_params(self.CFG, seed=0)))

    def test_shape_mismatch_rejected(self):
        params = init_params(self.CFG, seed=6)
        with pytest.raises(ValueError, match="must match"):
            mscb(Tensor(_rand(1, (1, 4, 8, 8))), Tensor(_rand(2, (1, 4, 6, 6))),
                 params, self.CFG, "level1")


class TestTmraInjection:
    def test_zero_detail_is_identity(self):
        ms_up = Tensor(_rand(40, (1, 3, 8, 8), 0.1, 1.0))
        pan_l = Tensor(_rand(41, (1, 1, 8, 8), 0.2, 1.0))
        d = Tensor(np.zeros((1, 3, 8, 8), np.float32))
        out = tmra_injection(ms_up, pan_l, d)
        np.testing.assert_array_equal(out.data, ms_up.data)

    def test_equal_band_and_pan_gives_unit_gain(self):
        """ms_up == pan_l (above the clamp) makes the gain exactly 1."""
        plane = _rand(42, (1, 1, 8, 8), 0.3, 1.0)
        ms_up = Tensor(np.repeat(plane, 3, axis=1))
        d = Tensor(_rand(43, (1, 3, 8, 8), -0.2, 0.2))
        out = tmra_injection(ms_up, Tensor(plane), d)
        np.testing.assert_array_equal(out.data, ms_up.data + d.data)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(44)
        ms_up = rng.uniform(0, 1, (2, 3, 4, 4)).astype(np.float32)
        pan_l = rng.uniform(0, 0.5, (2, 1, 4, 4)).astype(np.float32)
        pan_l[0, 0, 0, 0] = 1e-6  # exercises the epsilon clamp
        d = rng.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
        out = tmra_injection(Tensor(ms_up), Tensor(pan_l), Tensor(d))
        expected = np.empty_like(ms_up, dtype=np.float64)
        for n in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(4):
                        gain = ms_up[n, c, i, j] / max(pan_l[n, 0, i, j], 1e-4)
                        expected[n, c, i, j] = (ms_up[n, c, i, j]
                                                + gain * d[n, c, i, j])
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-5)

    def test_shape_validation(self):
        ms_up = Tensor(_rand(48, (1, 3, 8, 8)))
        d = Tensor(_rand(49, (1, 3, 8, 8)))
        with pytest.raises(ValueError, match="4-D"):
            tmra_injection(ms_up, Tensor(_rand(50, (8, 8))), d)
        for shape in [(1, 3, 4, 4), (1, 3, 8, 8), (2, 1, 8, 8)]:
            with pytest.raises(ValueError, match="does not match"):
                tmra_injection(ms_up, Tensor(_rand(51, shape)), d)


class TestTdnetForward:
    def test_sample_geometry(self):
        """16x16 bands with a 64x64 PAN give 64x64 and 32x32 outputs."""
        cfg = TdnetConfig(bands=8, feature_width=8, mscb_width=3)
        params = init_params(cfg, seed=8)
        out = tdnet_forward(Tensor(_rand(60, (1, 8, 16, 16))),
                            Tensor(_rand(61, (1, 1, 64, 64))), params, cfg)
        assert out.ms_hat.shape == (1, 8, 64, 64)
        assert out.ms_hat_d.shape == (1, 8, 32, 32)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("bands", [4, 8])
    def test_shape_laws_all_variants(self, batch, bands):
        base = TdnetConfig(bands=bands, feature_width=6, mscb_width=2)
        lrms = Tensor(_rand(62, (batch, bands, 4, 4)))
        pan = Tensor(_rand(63, (batch, 1, 16, 16)))
        for name, cfg in ablation_configs(base).items():
            out = tdnet_forward(lrms, pan, init_params(cfg, seed=1), cfg)
            assert out.ms_hat.shape == (batch, bands, 16, 16), name
            if cfg.levels == 2:
                assert out.ms_hat_d.shape == (batch, bands, 8, 8), name
            else:
                assert out.ms_hat_d is None, name

    def test_forward_is_deterministic(self):
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        params = init_params(cfg, seed=3)
        lrms = Tensor(_rand(64, (2, 4, 4, 4)))
        pan = Tensor(_rand(65, (2, 1, 16, 16)))
        a = tdnet_forward(lrms, pan, params, cfg)
        b = tdnet_forward(lrms, pan, params, cfg)
        np.testing.assert_array_equal(a.ms_hat.data, b.ms_hat.data)
        np.testing.assert_array_equal(a.ms_hat_d.data, b.ms_hat_d.data)

    def test_unit_gate_with_zeroed_refinement_reduces_to_plain_injection(self):
        """Gate forced to 1 and refinement blocks nulled: each level is
        exactly upsample + detail."""
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        params = init_params(cfg, seed=13)
        _zero_refine_block(params, "level1")
        _zero_refine_block(params, "level2")
        lrms = Tensor(_rand(66, (1, 4, 4, 4)))
        pan = Tensor(_rand(67, (1, 1, 16, 16)))
        _saturate_gates(params, cfg, 1)
        out = tdnet_forward(lrms, pan, params, cfg)

        d_half, d_full = pan_details(pan, params, cfg)
        up1 = pixel_shuffle(conv2d(lrms, params["level1.up.w"],
                                   params["level1.up.b"], padding=1), 2)
        level1 = up1.data + d_half.data
        up2 = pixel_shuffle(conv2d(Tensor(level1), params["level2.up.w"],
                                   params["level2.up.b"], padding=1), 2)
        np.testing.assert_array_equal(out.ms_hat_d.data, level1)
        np.testing.assert_array_equal(out.ms_hat.data, up2.data + d_full.data)

    def test_raw_pan_substitution(self):
        """Without the PAN branch the detail maps are the PAN replicated
        across bands (block-mean halved for the first level)."""
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3,
                          use_pan_branch=False)
        params = init_params(cfg, seed=14)
        _zero_refine_block(params, "level1")
        _zero_refine_block(params, "level2")
        lrms = Tensor(_rand(68, (1, 4, 4, 4)))
        pan_np = _rand(69, (1, 1, 16, 16))
        _saturate_gates(params, cfg, 1)
        out = tdnet_forward(lrms, Tensor(pan_np), params, cfg)

        half = pan_np.reshape(1, 1, 8, 2, 8, 2).mean(axis=(3, 5))
        up1 = pixel_shuffle(conv2d(lrms, params["level1.up.w"],
                                   params["level1.up.b"], padding=1), 2)
        level1 = up1.data + np.repeat(half, 4, axis=1)
        up2 = pixel_shuffle(conv2d(Tensor(level1), params["level2.up.w"],
                                   params["level2.up.b"], padding=1), 2)
        expected = up2.data + np.repeat(pan_np, 4, axis=1)
        np.testing.assert_allclose(out.ms_hat.data, expected, atol=1e-6)

    @staticmethod
    def _scene_forward_peak(side):
        """Traced peak of one default-width forward on a side^2 PAN."""
        cfg = TdnetConfig(bands=8)
        params = init_params(cfg, seed=1)
        lrms = Tensor(_rand(77, (1, 8, side // 4, side // 4)))
        pan = Tensor(_rand(78, (1, 1, side, side)))
        tracemalloc.start()
        try:
            out = tdnet_forward(lrms, pan, params, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.ms_hat.shape == (1, 8, side, side)
        return peak

    def test_scene_forward_memory_is_bounded(self):
        """A default-width forward on a 256^2 PAN builds no concatenated
        feature map, and runs its 64-channel full-resolution blocks in row
        bands.  Building the concats (level 2's three 38-channel branches
        alone make a 28.5 MiB map beside its parts) peaked at 88 MiB
        traced, whole-height blocks at 58 MiB, 128-row bands that
        recomputed their halo at every layer at 39.4 MiB; 64-row bands
        peak at 27.6 MiB.  The bound leaves a 16% margin."""
        peak = self._scene_forward_peak(256)
        assert peak < 32 << 20, peak / 2**20

    def test_scene_forward_memory_grows_with_the_thin_maps_only(self):
        """At a 512^2 PAN the wide maps stay one band high: 60.2 MiB
        traced, where 128-row bands peaked at 85.7 MiB and whole-height
        blocks at 205.5 MiB.  The bound leaves a 13% margin."""
        peak = self._scene_forward_peak(512)
        assert peak < 68 << 20, peak / 2**20

    def test_bands_add_little_conv_work(self, monkeypatch):
        """Each layer of a band computes only the rows that reach the
        band's output, so a default-width forward on a 256^2 PAN in bands
        does at most 5% more multiply-adds than one pass (3.0% at 64-row
        bands; recomputing the halo at every layer cost 11.3% at 64 rows)."""
        cfg = TdnetConfig(bands=8)
        params = init_params(cfg, seed=1)
        lrms = Tensor(_rand(77, (1, 8, 64, 64)))
        pan = Tensor(_rand(78, (1, 1, 256, 256)))
        real = layers._corr2d
        work = []

        def counting(xs, w, padding, pad_rows):
            out = real(xs, w, padding, pad_rows)
            work.append(out.size * w.shape[1] * w.shape[2] * w.shape[3])
            return out

        monkeypatch.setattr(layers, "_corr2d", counting)
        banded = tdnet_forward(lrms, pan, params, cfg).ms_hat.data
        in_bands, work[:] = sum(work), []
        assert model._BAND_ROWS < 256
        monkeypatch.setattr(model, "_BAND_ROWS", 256)
        whole = tdnet_forward(lrms, pan, params, cfg).ms_hat.data
        np.testing.assert_array_equal(banded, whole)
        assert in_bands <= 1.05 * sum(work), in_bands / sum(work)

    @pytest.mark.parametrize("rows", [16, 24, 32])
    def test_row_bands_are_bit_identical(self, monkeypatch, rows):
        """Every variant's outputs are the same bits in bands of 16, 24 or
        32 rows as in one band, on an 80^2 PAN and on a 72x88 one whose
        sides 16 does not divide: interior, edge and remainder bands, at
        both stage grids."""
        base = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        for height, width in [(80, 80), (72, 88)]:
            lrms = Tensor(_rand(87, (2, 4, height // 4, width // 4)))
            pan = Tensor(_rand(88, (2, 1, height, width)))
            for name, cfg in ablation_configs(base).items():
                params = init_params(cfg, seed=5)
                monkeypatch.setattr(model, "_BAND_ROWS", height)
                whole = tdnet_forward(lrms, pan, params, cfg)
                monkeypatch.setattr(model, "_BAND_ROWS", rows)
                banded = tdnet_forward(lrms, pan, params, cfg)
                where = f"{name} on {height}x{width}"
                np.testing.assert_array_equal(banded.ms_hat.data, whole.ms_hat.data,
                                              err_msg=where)
                if cfg.levels == 2:
                    np.testing.assert_array_equal(banded.ms_hat_d.data,
                                                  whole.ms_hat_d.data, err_msg=where)

    def test_taped_forward_runs_as_one_band(self, monkeypatch):
        """Under a tape the blocks run whole, so a PAN taller than a band
        gives the same parameter gradients, bit for bit."""
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        lrms = Tensor(_rand(89, (1, 4, 12, 12)))
        pan = Tensor(_rand(90, (1, 1, 48, 48)))
        gt = Tensor(_rand(91, (1, 4, 48, 48)))
        gt_d = Tensor(_rand(92, (1, 4, 24, 24)))

        def grads():
            params = init_params(cfg, seed=6)
            with Tape():
                loss = tdnet_loss(tdnet_forward(lrms, pan, params, cfg), gt, gt_d,
                                  gamma=0.4)
            loss.backward()
            return {name: t.grad for name, t in params.items()}

        expected = grads()
        monkeypatch.setattr(model, "_BAND_ROWS", 16)
        for name, grad in grads().items():
            np.testing.assert_array_equal(grad, expected[name], err_msg=name)

    def test_training_step_memory_is_bounded(self):
        """One default-width step at batch 8 on 64^2 PAN patches: the
        backward frees each gradient once used, and each op keeps only the
        arrays its backward reads.  Keeping every output and every
        intermediate gradient until the walk ended peaked at 289 MiB
        traced; this one peaks at 101 MiB, against 134 MiB for the forward
        alone when it kept every output."""
        cfg = TdnetConfig(bands=8)
        params = init_params(cfg, seed=1)
        lrms = Tensor(_rand(79, (8, 8, 16, 16)))
        pan = Tensor(_rand(80, (8, 1, 64, 64)))
        gt = Tensor(_rand(81, (8, 8, 64, 64)))
        gt_d = Tensor(_rand(82, (8, 8, 32, 32)))
        tracemalloc.start()
        try:
            with Tape():
                loss = tdnet_loss(tdnet_forward(lrms, pan, params, cfg), gt, gt_d,
                                  gamma=0.4)
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for t in params.values())
        assert peak < 110 << 20, peak / 2**20

    def test_forward_and_step_leave_no_reference_cycles(self):
        """With the cyclic collector off, a forward without a tape and a
        taped training step free everything they made: no tensor, slot or
        closure sits in a reference cycle."""
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        params = init_params(cfg, seed=2)
        lrms = Tensor(_rand(83, (2, 4, 8, 8)))
        pan = Tensor(_rand(84, (2, 1, 32, 32)))
        gt = Tensor(_rand(85, (2, 4, 32, 32)))
        gt_d = Tensor(_rand(86, (2, 4, 16, 16)))
        current = []
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(4):
                tdnet_forward(lrms, pan, params, cfg)
                for t in params.values():
                    t.zero_grad()
                with Tape():
                    loss = tdnet_loss(tdnet_forward(lrms, pan, params, cfg),
                                      gt, gt_d, gamma=0.4)
                loss.backward()
                del loss
                current.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            gc.enable()
        # Less than one output map; a cycle in every tensor kept the whole
        # step, 2.5 MiB an iteration.
        assert current[-1] - current[0] < gt.data.nbytes, current

    def test_input_validation(self):
        cfg = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        params = init_params(cfg, seed=1)
        lrms = Tensor(_rand(70, (1, 4, 4, 4)))
        with pytest.raises(ValueError, match="expects 4"):
            tdnet_forward(Tensor(_rand(71, (1, 3, 4, 4))),
                          Tensor(_rand(72, (1, 1, 16, 16))), params, cfg)
        with pytest.raises(ValueError, match="must be 4x"):
            tdnet_forward(lrms, Tensor(_rand(73, (1, 1, 12, 12))), params, cfg)
        with pytest.raises(ValueError, match="pair"):
            tdnet_forward(lrms, Tensor(_rand(74, (1, 2, 16, 16))), params, cfg)

    def test_gradients_and_forward_parity_all_variants(self):
        """Engine gradients vs differences of the float64 reference, and
        engine forward vs the reference itself, for every variant."""
        from pansharp.gradcheck import model_gradient_error, reference_forward

        base = TdnetConfig(bands=8, feature_width=10, mscb_width=4)
        for name, cfg in ablation_configs(base).items():
            assert model_gradient_error(cfg, seed=17) < 1e-2, name

        cfg = TdnetConfig(bands=8)
        params = init_params(cfg, seed=18)
        lrms_np = _rand(75, (1, 8, 4, 4))
        pan_np = _rand(76, (1, 1, 16, 16))
        out = tdnet_forward(Tensor(lrms_np), Tensor(pan_np), params, cfg)
        ref_d, ref_y = reference_forward(lrms_np, pan_np, params, cfg)
        np.testing.assert_allclose(out.ms_hat.data, ref_y, atol=1e-4, rtol=1e-4)
        np.testing.assert_allclose(out.ms_hat_d.data, ref_d, atol=1e-4, rtol=1e-4)


class TestTdnetLoss:
    def _outputs(self, cfg, seed=80):
        params = init_params(cfg, seed)
        lrms = Tensor(_rand(seed + 1, (1, cfg.bands, 4, 4)))
        pan = Tensor(_rand(seed + 2, (1, 1, 16, 16)))
        return tdnet_forward(lrms, pan, params, cfg), params, (lrms, pan)

    def test_perfect_outputs_give_zero(self):
        cfg = TdnetConfig(bands=4, feature_width=6, mscb_width=2)
        out, _, _ = self._outputs(cfg)
        loss = tdnet_loss(out, Tensor(out.ms_hat.data.copy()),
                          Tensor(out.ms_hat_d.data.copy()), gamma=0.4)
        assert loss.item() == 0.0

    def test_weighted_sum_arithmetic(self):
        """Unit half-resolution error and double full error at gamma 0.4:
        0.4*1 + 0.6*2 = 1.6."""
        cfg = TdnetConfig(bands=4, feature_width=6, mscb_width=2)
        out, _, _ = self._outputs(cfg)
        gt_d = Tensor(out.ms_hat_d.data - 1.0)
        gt = Tensor(out.ms_hat.data + 2.0)
        loss = tdnet_loss(out, gt, gt_d, gamma=0.4)
        assert loss.item() == pytest.approx(1.6, abs=1e-6)

    def test_gamma_validation(self):
        cfg = TdnetConfig(bands=4, feature_width=6, mscb_width=2)
        out, _, _ = self._outputs(cfg)
        gt = Tensor(np.zeros_like(out.ms_hat.data))
        gt_d = Tensor(np.zeros_like(out.ms_hat_d.data))
        for bad in (-0.1, 1.01):
            with pytest.raises(ValueError, match="gamma"):
                tdnet_loss(out, gt, gt_d, gamma=bad)

    def test_single_level_loss_is_full_resolution_l1(self):
        """A single-level output has no half-resolution term, so gamma and
        gt_d do not enter its loss."""
        cfg = TdnetConfig(bands=4, feature_width=6, mscb_width=2, levels=1)
        out, _, _ = self._outputs(cfg)
        gt = Tensor(_rand(86, out.ms_hat.shape))
        gt_d = Tensor(_rand(87, (1, 4, 8, 8)))
        expected = l1_loss(out.ms_hat, gt).data
        for gamma in (0.0, 0.4):
            for target in (None, gt_d):
                loss = tdnet_loss(out, gt, target, gamma=gamma)
                np.testing.assert_array_equal(loss.data, expected)

    def test_full_weight_on_half_resolution_zeroes_final_stage_grads(self):
        """gamma = 1 leaves every parameter consumed only by the second
        level with an exactly zero gradient."""
        cfg = TdnetConfig(bands=4, feature_width=6, mscb_width=2)
        params = init_params(cfg, seed=21)
        lrms = Tensor(_rand(82, (1, 4, 4, 4)))
        pan = Tensor(_rand(83, (1, 1, 16, 16)))
        gt = Tensor(_rand(84, (1, 4, 16, 16)))
        gt_d = Tensor(_rand(85, (1, 4, 8, 8)))
        with Tape():
            out = tdnet_forward(lrms, pan, params, cfg)
            loss = tdnet_loss(out, gt, gt_d, gamma=1.0)
        loss.backward()
        for name, tensor in params.items():
            only_final = name.startswith("level2.") or name.startswith("pan.detail_full.")
            if only_final:
                assert not np.any(tensor.grad), name
            else:
                assert np.any(tensor.grad), name


class TestAblationConfigs:
    def test_nine_named_variants(self):
        cfgs = ablation_configs(TdnetConfig(bands=8))
        assert list(cfgs) == ["tdnet", "wo-mrab", "sscb", "wo-pan-branch",
                              "single-stage", "bilinear", "deconv",
                              "tdnet-minus", "tdnet-tmra"]

    def test_each_variant_changes_one_field(self):
        base = TdnetConfig(bands=8)
        cfgs = ablation_configs(base)
        assert cfgs["tdnet"] == base
        assert cfgs["wo-mrab"] == dataclasses.replace(base, use_mrab=False)
        assert cfgs["sscb"] == dataclasses.replace(base, mscb_kernels=(5,))
        assert cfgs["wo-pan-branch"] == dataclasses.replace(base,
                                                            use_pan_branch=False)
        assert cfgs["single-stage"] == dataclasses.replace(base, levels=1)
        assert cfgs["bilinear"] == dataclasses.replace(base,
                                                       upsample_mode="bilinear")
        assert cfgs["deconv"] == dataclasses.replace(base, upsample_mode="deconv")
        assert cfgs["tdnet-minus"] == dataclasses.replace(base, mscb_width=12)
        assert cfgs["tdnet-tmra"] == dataclasses.replace(base,
                                                         gain_mode="tmra_hpm")

    def test_reduced_width_scales_with_base(self):
        cfgs = ablation_configs(TdnetConfig(bands=8, mscb_width=6))
        assert cfgs["tdnet-minus"].mscb_width == 2


class TestCheckpoint:
    CFG = TdnetConfig(bands=4, feature_width=8, mscb_width=3)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        params = init_params(self.CFG, seed=42)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, self.CFG)
        loaded, cfg = load_checkpoint(path)
        assert cfg == self.CFG
        assert list(loaded) == list(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
            assert loaded[name].data.dtype == np.float32
            assert loaded[name].requires_grad

    def test_serialization_is_deterministic(self, tmp_path):
        params = init_params(self.CFG, seed=42)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params, self.CFG)
        save_checkpoint(b, params, self.CFG)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(self.CFG, seed=1), self.CFG)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(self.CFG, seed=1), self.CFG)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(self.CFG, seed=1), self.CFG)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_architecture_mismatch_rejected(self, tmp_path):
        """Params saved against a config they do not implement are caught."""
        other = TdnetConfig(bands=8, feature_width=8, mscb_width=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(self.CFG, seed=1), other)
        with pytest.raises(DataError, match="architecture"):
            load_checkpoint(path)
