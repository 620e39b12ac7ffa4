"""Command-line interface: configuration layering, every subcommand's
artifacts, CLI/library parity, and the exit-code contract."""

import configparser
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import pansharp
from pansharp.cli import (
    CONFIG_ECHO_NAME,
    RunConfig,
    _preview_band_indices,
    main,
)
from pansharp.container import read_psr1, save_ms, write_psr1
from pansharp.errors import ConfigError
from pansharp.fusion import METHODS, fuse
from pansharp.imaging import MsImage, PanImage, get_sensor
from pansharp.metrics import q2n
from pansharp.model import (
    TdnetConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from pansharp.wald import (
    load_sample,
    make_samples,
    read_manifest,
    synthetic_scene,
)
from helpers import read_eval_csv


SIM_ARGS = ["--set", "dataset.ms_size=160", "--set", "dataset.patch=32",
            "--set", "dataset.stride=32"]
SMALL_MODEL = ["--set", "model.feature_width=8", "--set", "model.mscb_width=3"]
WV3 = get_sensor("wv3")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """25-sample demo dataset built through the CLI itself."""
    directory = tmp_path_factory.mktemp("cli") / "dataset"
    assert main(["simulate", "--out", str(directory), "--seed", "5",
                 *SIM_ARGS]) == 0
    return directory


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, dataset_dir):
    """A briefly trained model for the tdnet fuse path."""
    directory = tmp_path_factory.mktemp("cli-train")
    assert main(["train", str(dataset_dir), "--out", str(directory),
                 "--set", "train.epochs=1", "--set", "train.batch_size=8",
                 "--set", "train.lr_schedule=0:0.001", *SMALL_MODEL]) == 0
    return directory


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig.load()
        assert cfg.get("sensor", "name") == "wv3"
        assert cfg.get_int("train", "epochs") == 300
        assert cfg.get_int("dataset", "patch") == 64
        assert cfg.get_int("metric", "window") == 32

    def test_default_echo_is_pinned(self):
        """run_config.ini is an artifact contract: its default text is
        fixed byte for byte."""
        assert RunConfig.load().text() == (
            "[dataset]\nms_size = 512\npatch = 64\nscenes = 1\nseed = 0\n"
            "split = test\nsplit_seed = 0\nstride = 64\n\n"
            "[metric]\nwindow = 32\n\n"
            "[model]\nfeature_width = 64\n"
            "gain_mode = learned_attention\nlevels = 2\n"
            "mscb_kernels = 3,5,7\nmscb_width = 38\n"
            "upsample_mode = pixel_shuffle\nuse_mrab = true\n"
            "use_pan_branch = true\n\n"
            "[sensor]\nname = wv3\n\n"
            "[train]\nbatch_size = 32\n"
            "checkpoint_every = 0\nepochs = 300\ngamma = 0.4\n"
            "lr_schedule = standard\nseed = 0\n")

    def test_file_and_set_layering(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nepochs = 5\nbatch_size = 4\n")
        cfg = RunConfig.load(path, overrides=["train.epochs=9"])
        assert cfg.get_int("train", "epochs") == 9
        assert cfg.get_int("train", "batch_size") == 4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nepoochs = 5\n")
        with pytest.raises(ConfigError, match="epoochs"):
            RunConfig.load(path)
        with pytest.raises(ConfigError, match="section"):
            RunConfig.load(overrides=["optimizer.lr=1"])
        with pytest.raises(ConfigError, match="section.key=value"):
            RunConfig.load(overrides=["train.epochs"])

    def test_typed_getters_validate(self):
        cfg = RunConfig.load(overrides=["train.epochs=soon"])
        with pytest.raises(ConfigError, match="integer"):
            cfg.get_int("train", "epochs")
        cfg = RunConfig.load(overrides=["model.use_mrab=maybe"])
        with pytest.raises(ConfigError, match="boolean"):
            cfg.get_bool("model", "use_mrab")

    def test_lr_schedule_forms(self):
        assert RunConfig.load().lr_schedule() == ((0, 1e-3), (220, 1e-4))
        cfg = RunConfig.load(overrides=["train.lr_schedule=0:0.01,5:0.001"])
        assert cfg.lr_schedule() == ((0, 0.01), (5, 0.001))
        cfg = RunConfig.load(overrides=["train.lr_schedule=fast"])
        with pytest.raises(ConfigError, match="lr_schedule"):
            cfg.lr_schedule()

    def test_model_config_band_sources(self, dataset_dir, tmp_path):
        """The band count is the dataset's; ``model.bands`` is unknown."""
        assert RunConfig.load().model_config(8).bands == 8
        assert main(["train", str(dataset_dir), "--out", str(tmp_path / "t"),
                     "--set", "model.bands=4"]) == 2
        assert not (tmp_path / "t").exists()

    def test_ratio_is_not_a_config_key(self, tmp_path):
        """The PAN/MS ratio is fixed at 4, so ``model.ratio`` is unknown."""
        assert main(["simulate", "--out", str(tmp_path / "d"),
                     "--set", "model.ratio=4"]) == 2

    def test_seed_flag_touches_both_seeds(self):
        cfg = RunConfig.load(seed=17)
        assert cfg.get_int("dataset", "seed") == 17
        assert cfg.get_int("train", "seed") == 17


class TestSimulate:
    def test_sample_count_and_splits(self, dataset_dir):
        manifest = read_manifest(dataset_dir)
        assert len(manifest.all_ids) == 25
        assert {k: len(v) for k, v in manifest.splits.items()} == \
               {"train": 18, "val": 5, "test": 2}

    def test_demo_tiling_arithmetic(self):
        """The stock demo (512 MS, patch 64, stride 64) tiles 8x8 = 64."""
        size, patch, stride = 512, 64, 64
        per_axis = (size - patch) // stride + 1
        assert per_axis ** 2 == 64

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        other = tmp_path / "again"
        assert main(["simulate", "--out", str(other), "--seed", "5",
                     *SIM_ARGS]) == 0
        assert (other / "manifest.json").read_bytes() == \
               (dataset_dir / "manifest.json").read_bytes()
        assert (other / "0_gt.psr1").read_bytes() == \
               (dataset_dir / "0_gt.psr1").read_bytes()

    def test_config_echo_written(self, dataset_dir):
        parser = configparser.ConfigParser()
        parser.optionxform = str
        parser.read(dataset_dir / CONFIG_ECHO_NAME)
        assert parser.get("dataset", "ms_size") == "160"
        assert parser.get("dataset", "seed") == "5"
        assert parser.get("sensor", "name") == "wv3"

    def test_demo_scenes_are_made_one_at_a_time(self, tmp_path):
        """A 3-scene demo holds one scene's full-resolution rasters at a
        time: its traced peak stays within one scene's PAN and MS of the
        1-scene peak, and its samples are each scene's own."""
        peaks = {}
        for count in (1, 3):
            tracemalloc.start()
            try:
                assert main(["simulate", "--out", str(tmp_path / str(count)),
                             "--set", "dataset.ms_size=64",
                             "--set", "dataset.patch=64",
                             "--set", f"dataset.scenes={count}"]) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        scene = 8 * (256 * 256 + 64 * 64 * 8)
        assert peaks[3] - peaks[1] < scene, (peaks, scene)
        out = tmp_path / "3"
        assert read_manifest(out).provenance["scenes"] == "3"
        for index in range(3):
            ms, pan = synthetic_scene(index, get_sensor("wv3"), ms_size=64)
            (want,) = make_samples(ms, pan, patch=64, stride=64)
            got = load_sample(out, index, WV3)
            for role in ("pan", "lrms", "gt", "gt_d"):
                np.testing.assert_array_equal(getattr(got, role),
                                              getattr(want, role))

    def test_simulate_from_rasters_matches_demo(self, dataset_dir, tmp_path):
        """Feeding the demo scene back in as PSR1 rasters reproduces the
        same samples byte for byte."""
        sensor = get_sensor("wv3")
        ms, pan = synthetic_scene(5, sensor, ms_size=160)
        save_ms(tmp_path / "ms.psr1", ms)
        write_psr1(tmp_path / "pan.psr1", pan.data, pan.sensor.name,
                   pan.sensor.bit_depth)
        out = tmp_path / "from-rasters"
        assert main(["simulate", str(tmp_path / "ms.psr1"),
                     str(tmp_path / "pan.psr1"), "--out", str(out),
                     "--seed", "5", *SIM_ARGS]) == 0
        assert (out / "3_gt.psr1").read_bytes() == \
               (dataset_dir / "3_gt.psr1").read_bytes()

    def test_bad_patch_is_data_error(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "x"), *SIM_ARGS,
                   "--set", "dataset.patch=30"])
        assert rc == 3

    @pytest.mark.parametrize("key,value", [
        ("stride", "0"), ("stride", "-4"), ("patch", "0"), ("patch", "-8"),
        ("ms_size", "0"), ("scenes", "0")])
    def test_dataset_integer_below_one_is_config_error(self, tmp_path, capsys,
                                                       key, value):
        out = tmp_path / "x"
        rc = main(["simulate", "--out", str(out), *SIM_ARGS,
                   "--set", f"dataset.{key}={value}"])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: dataset.{key} must be >= 1, got {value}\n"
        assert not out.exists()

    def test_unknown_raster_sensor_is_data_error(self, tmp_path, capsys):
        """Rasters naming a sensor outside the registry are refused before
        any sample is cut, and no output directory is left behind."""
        rng = np.random.default_rng(3)
        ms_path, pan_path = tmp_path / "ms.psr1", tmp_path / "pan.psr1"
        write_psr1(ms_path, rng.random((32, 32, 8)), "pleiades", 11)
        write_psr1(pan_path, rng.random((128, 128)), "pleiades", 11)
        out = tmp_path / "x"
        rc = main(["simulate", str(ms_path), str(pan_path), "--out", str(out),
                   *SIM_ARGS])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "pleiades" in err and rc == 3
        assert not out.exists()

    @pytest.mark.parametrize("bands,bit_depth", [(4, 11), (8, 12)])
    def test_raster_mislabelling_a_sensor_is_data_error(self, tmp_path, capsys,
                                                        bands, bit_depth):
        """A raster labelled ``wv3`` must have wv3's 8 bands of 11 bits; one
        that does not is refused rather than simulated under wv3's name
        with a generic sensor's MTF, and no directory is written."""
        rng = np.random.default_rng(4)
        ms_path, pan_path = tmp_path / "ms.psr1", tmp_path / "pan.psr1"
        write_psr1(ms_path, rng.random((32, 32, bands)), "wv3", bit_depth)
        write_psr1(pan_path, rng.random((128, 128)), "wv3", bit_depth)
        out = tmp_path / "x"
        rc = main(["simulate", str(ms_path), str(pan_path), "--out", str(out),
                   *SIM_ARGS])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "wv3" in err and rc == 3
        assert not out.exists()

    def test_single_input_is_config_error(self, tmp_path):
        rc = main(["simulate", "lonely.psr1", "--out", str(tmp_path / "x")])
        assert rc == 2


class TestTrainCommand:
    def test_artifacts(self, checkpoint_dir):
        for name in ("final.ckpt", "best.ckpt", "loss_log.csv",
                     CONFIG_ECHO_NAME):
            assert (checkpoint_dir / name).exists()

    def test_bands_follow_manifest(self, checkpoint_dir):
        _, config = load_checkpoint(checkpoint_dir / "final.ckpt")
        assert config.bands == 8
        assert config.feature_width == 8

    def test_missing_out_is_config_error(self, dataset_dir):
        assert main(["train", str(dataset_dir)]) == 2


@pytest.fixture(scope="module")
def pair_paths(tmp_path_factory, dataset_dir):
    sample = load_sample(dataset_dir, 0, WV3)
    directory = tmp_path_factory.mktemp("pair")
    write_psr1(directory / "ms.psr1", sample.lrms, "wv3", 11)
    write_psr1(directory / "pan.psr1", sample.pan, "wv3", 11)
    return directory / "ms.psr1", directory / "pan.psr1"


class TestFuse:
    def test_pair_mode_writes_raster_and_preview(self, pair_paths, tmp_path):
        ms_path, pan_path = pair_paths
        out = tmp_path / "fused"
        assert main(["fuse", str(ms_path), str(pan_path),
                     "--method", "exp", "--out", str(out)]) == 0
        data, name, _ = read_psr1(out / "fused.psr1")
        assert data.shape == (32, 32, 8)
        assert name == "wv3"
        header = (out / "preview.ppm").read_bytes()[:15]
        assert header.startswith(b"P6\n32 32\n255\n")
        assert (out / CONFIG_ECHO_NAME).exists()

    def test_matches_library_bit_for_bit(self, pair_paths, tmp_path):
        """The CLI adds nothing on top of the library call."""
        ms_path, pan_path = pair_paths
        out = tmp_path / "fused"
        assert main(["fuse", str(ms_path), str(pan_path),
                     "--method", "glp-hpm", "--out", str(out)]) == 0
        sensor = get_sensor("wv3")
        ms = MsImage(read_psr1(ms_path)[0].astype(np.float64), sensor)
        pan = PanImage(read_psr1(pan_path)[0][:, :, 0].astype(np.float64),
                       sensor)
        expected = tmp_path / "library.psr1"
        save_ms(expected, fuse("glp-hpm", ms, pan))
        assert (out / "fused.psr1").read_bytes() == expected.read_bytes()

    def test_constant_scene_exp_is_constant(self, tmp_path):
        sensor = get_sensor("wv3")
        ms = MsImage(np.full((8, 8, 8), 0.25), sensor)
        pan = PanImage(np.full((32, 32), 0.5), sensor)
        save_ms(tmp_path / "ms.psr1", ms)
        write_psr1(tmp_path / "pan.psr1", pan.data, pan.sensor.name,
                   pan.sensor.bit_depth)
        out = tmp_path / "fused"
        assert main(["fuse", str(tmp_path / "ms.psr1"),
                     str(tmp_path / "pan.psr1"),
                     "--method", "exp", "--out", str(out)]) == 0
        data, _, _ = read_psr1(out / "fused.psr1")
        np.testing.assert_allclose(data, 0.25, atol=1e-6)

    def test_tdnet_output_is_4x(self, pair_paths, checkpoint_dir, tmp_path):
        ms_path, pan_path = pair_paths
        out = tmp_path / "fused"
        ckpt = checkpoint_dir / "final.ckpt"
        assert main(["fuse", str(ms_path), str(pan_path),
                     "--method", f"tdnet:{ckpt}", "--out", str(out)]) == 0
        data, _, _ = read_psr1(out / "fused.psr1")
        ms_shape = read_psr1(ms_path)[0].shape
        assert data.shape == (4 * ms_shape[0], 4 * ms_shape[1], 8)
        assert data.min() >= 0.0 and data.max() <= 1.0

    def test_dataset_mode_covers_split(self, dataset_dir, tmp_path):
        out = tmp_path / "set"
        assert main(["fuse", str(dataset_dir), "--method", "exp",
                     "--out", str(out)]) == 0
        ids = read_manifest(dataset_dir).splits["test"]
        for sample_id in ids:
            assert (out / f"{sample_id}.psr1").exists()
            assert (out / f"{sample_id}.ppm").exists()

    def test_method_errors(self, pair_paths, tmp_path):
        ms_path, pan_path = pair_paths
        args = ["fuse", str(ms_path), str(pan_path), "--out",
                str(tmp_path / "x")]
        assert main([*args, "--method", "sharpen"]) == 2
        assert main([*args, "--method", "tdnet"]) == 2
        assert main([*args, "--method", "exp:extra"]) == 2
        assert main(args) == 2

    def test_preview_band_picks(self):
        assert _preview_band_indices(8) == (4, 2, 1)
        assert _preview_band_indices(4) == (2, 1, 0)


@pytest.fixture(scope="module")
def ideal_fused_dir(tmp_path_factory, dataset_dir):
    """A fused set that equals the reference exactly."""
    directory = tmp_path_factory.mktemp("ideal")
    for sample_id in read_manifest(dataset_dir).splits["test"]:
        sample = load_sample(dataset_dir, sample_id, WV3)
        write_psr1(directory / f"{sample_id}.psr1", sample.gt, "wv3", 11)
    return directory


@pytest.fixture(scope="module")
def exp_fused_dir(tmp_path_factory, dataset_dir):
    directory = tmp_path_factory.mktemp("fused") / "exp"
    assert main(["fuse", str(dataset_dir), "--method", "exp",
                 "--out", str(directory)]) == 0
    return directory


class TestEval:
    def test_ideal_set_scores_ideal_values(self, dataset_dir,
                                           ideal_fused_dir, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["eval", str(dataset_dir), str(ideal_fused_dir),
                     "--method", "oracle", "--out", str(out)]) == 0
        report = read_eval_csv(out)
        plain = [r for r in report.rows if not r["image"].startswith("__")]
        assert len(plain) == 2
        for row in plain:
            assert row["sam"] == 0.0
            assert row["ergas"] == 0.0
            assert row["scc"] == 1.0
            assert row["q2n"] == 1.0

    def test_csv_column_order(self, dataset_dir, exp_fused_dir, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["eval", str(dataset_dir), str(exp_fused_dir),
                     "--out", str(out)]) == 0
        lines = [line for line in out.read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "method,image,sam,ergas,scc,q2n,d_lambda,d_s,qnr"
        assert (tmp_path / "report.csv.config").exists()

    def test_aggregates_match_recomputation(self, dataset_dir,
                                            exp_fused_dir, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["eval", str(dataset_dir), str(exp_fused_dir),
                     "--out", str(out)]) == 0
        report = read_eval_csv(out)
        plain = [r for r in report.rows if not r["image"].startswith("__")]
        mean = next(r for r in report.rows if r["image"] == "__mean")
        for metric in ("sam", "ergas", "scc", "q2n"):
            values = [r[metric] for r in plain]
            assert mean[metric] == pytest.approx(np.mean(values), rel=1e-5)

    def test_full_mode_scores_no_reference(self, dataset_dir,
                                           exp_fused_dir, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["eval", str(dataset_dir), str(exp_fused_dir),
                     "--mode", "full", "--set", "metric.window=16",
                     "--out", str(out)]) == 0
        report = read_eval_csv(out)
        row = next(r for r in report.rows if not r["image"].startswith("__"))
        assert set(row) >= {"d_lambda", "d_s", "qnr"}
        assert row["qnr"] == pytest.approx(
            (1 - row["d_lambda"]) * (1 - row["d_s"]), rel=1e-6)

    def test_missing_sample_is_data_error(self, dataset_dir, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        rc = main(["eval", str(dataset_dir), str(empty),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 3

    def test_reduced_mode_uses_metric_window(self, dataset_dir,
                                             exp_fused_dir, tmp_path):
        """metric.window reaches Q2^n, as the CSV provenance records."""
        out = tmp_path / "report.csv"
        assert main(["eval", str(dataset_dir), str(exp_fused_dir),
                     "--set", "metric.window=16", "--out", str(out)]) == 0
        report = read_eval_csv(out)
        assert report.provenance["window"] == "16"
        plain = [r for r in report.rows if not r["image"].startswith("__")]
        assert len(plain) == 2
        for row in plain:
            gt = load_sample(dataset_dir, int(row["image"]), WV3).gt
            fused, _, _ = read_psr1(exp_fused_dir / f"{row['image']}.psr1")
            at16 = q2n(gt, fused, window=16)
            assert row["q2n"] == pytest.approx(at16, rel=1e-5)
            assert row["q2n"] != pytest.approx(q2n(gt, fused, window=32),
                                               rel=1e-3)

    def test_scores_the_configured_split(self, dataset_dir, tmp_path, capsys):
        val = ["--set", "dataset.split=val"]
        fused = tmp_path / "exp-val"
        assert main(["fuse", str(dataset_dir), "--method", "exp",
                     "--out", str(fused), *val]) == 0
        out = tmp_path / "report.csv"
        assert main(["eval", str(dataset_dir), str(fused),
                     "--out", str(out), *val]) == 0
        report = read_eval_csv(out)
        images = {r["image"] for r in report.rows
                  if not r["image"].startswith("__")}
        assert images == {str(i) for i in
                          read_manifest(dataset_dir).splits["val"]}
        assert main(["compare", str(dataset_dir), str(fused), *val]) == 0
        capsys.readouterr()
        assert main(["eval", str(dataset_dir), str(fused), "--out", str(out),
                     "--set", "dataset.split=holdout"]) == 2
        assert capsys.readouterr().err == \
            "error: dataset has no split 'holdout'\n"

    @pytest.mark.parametrize("window", ["0", "-4"])
    def test_window_below_one_is_config_error(self, dataset_dir,
                                              exp_fused_dir, tmp_path,
                                              capsys, window):
        for command in (["eval", "--out", str(tmp_path / "report.csv")],
                        ["compare"]):
            rc = main([command[0], str(dataset_dir), str(exp_fused_dir),
                       *command[1:], "--mode", "full",
                       "--set", f"metric.window={window}"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err == f"error: metric.window must be >= 1, got {window}\n"

    def test_full_mode_window_off_the_ratio_is_config_error(
            self, dataset_dir, exp_fused_dir, tmp_path, capsys):
        """No data can make a window of 30 divide by the ratio 4, so full
        mode refuses it as a config error; reduced mode accepts it."""
        report = tmp_path / "report.csv"
        for command in (["eval", "--out", str(report)], ["compare"]):
            rc = main([command[0], str(dataset_dir), str(exp_fused_dir),
                       *command[1:], "--mode", "full",
                       "--set", "metric.window=30"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err == ("error: metric.window 30 must be a multiple of "
                           "the ratio 4 in full mode\n")
        assert not report.exists()
        assert main(["eval", str(dataset_dir), str(exp_fused_dir),
                     "--out", str(report), "--set", "metric.window=30"]) == 0

    def test_full_mode_window_of_the_ratio_is_config_error(
            self, dataset_dir, exp_fused_dir, tmp_path, capsys):
        """A window of 4 leaves 1x1 low-resolution windows, so full mode
        refuses it before reading a sample; reduced mode accepts it."""
        report = tmp_path / "report.csv"
        for command in (["eval", "--out", str(report)], ["compare"]):
            rc = main([command[0], str(dataset_dir), str(exp_fused_dir),
                       *command[1:], "--mode", "full",
                       "--set", "metric.window=4"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err == ("error: metric.window 4 must be at least 8 in full "
                           "mode, so each low-resolution window is 2x2 or "
                           "more\n")
        assert not report.exists()
        assert main(["eval", str(dataset_dir), str(exp_fused_dir),
                     "--out", str(report), "--set", "metric.window=4"]) == 0


class TestCompare:
    def test_metric_window_reaches_q2n_column(self, dataset_dir,
                                              exp_fused_dir, capsys):
        tables = []
        for window in ("16", "32"):
            assert main(["compare", str(dataset_dir), str(exp_fused_dir),
                         "--set", f"metric.window={window}"]) == 0
            tables.append(capsys.readouterr().out.splitlines()[1].split())
        assert tables[0][:4] == tables[1][:4]  # method, sam, ergas, scc
        assert tables[0][4] != tables[1][4]  # q2n

    def test_single_method_table(self, dataset_dir, exp_fused_dir, capsys):
        assert main(["compare", str(dataset_dir), str(exp_fused_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split()[:2] == ["method", "sam"]
        assert lines[1].startswith("exp")
        assert lines[1].count("*") == 4

    def test_ideal_method_ranks_first_with_all_flags(
            self, dataset_dir, ideal_fused_dir, exp_fused_dir, capsys):
        assert main(["compare", str(dataset_dir), str(ideal_fused_dir),
                     str(exp_fused_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        first = lines[1]
        assert first.startswith(os.path.basename(str(ideal_fused_dir)))
        assert first.count("*") == 4
        assert lines[2].count("*") == 0

    def test_flags_match_recomputed_argbest(self, dataset_dir,
                                            ideal_fused_dir, exp_fused_dir,
                                            tmp_path, capsys):
        out = tmp_path / "table.txt"
        assert main(["compare", str(dataset_dir), str(ideal_fused_dir),
                     str(exp_fused_dir), "--out", str(out)]) == 0
        table = out.read_text()
        assert table == capsys.readouterr().out
        best_method = os.path.basename(str(ideal_fused_dir))
        for line in table.strip().splitlines()[1:]:
            marks = line.count("*")
            assert marks == (4 if line.startswith(best_method) else 0)


class TestGradcheckCommand:
    def test_report_lists_every_op_once(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[-1] == "gradient sweep: 17 checks, 0 failures"
        names = [line.split()[0] for line in lines[:-1]]
        assert len(names) == len(set(names)) == 17
        assert "tdnet_forward" in names
        assert all(line.split()[-1] == "PASS" for line in lines[:-1])


def _crafted_checkpoint(path, patch) -> str:
    """A small valid checkpoint whose first parameter record is then
    rewritten by ``patch(blob, name_at, name_len)``."""
    config = TdnetConfig(bands=8, feature_width=2, mscb_width=1,
                         mscb_kernels=(3,))
    save_checkpoint(path, init_params(config, seed=0), config)
    blob = bytearray(path.read_bytes())
    (config_len,) = struct.unpack_from("<I", blob, 16)
    name_at = 16 + 4 + config_len + 4 + 4
    (name_len,) = struct.unpack_from("<I", blob, name_at - 4)
    patch(blob, name_at, name_len)
    path.write_bytes(bytes(blob))
    return f"tdnet:{path}"


def _last_sample(value):
    """Spoil a PSR1 file by setting its last float32 sample to ``value``."""
    return lambda blob: blob[:-4] + struct.pack("<f", value)


def _first_value(value):
    """Spoil a raster read by ``read_psr1`` by setting its first sample to
    ``value``."""
    def edit(data, name, bit_depth):
        data.flat[0] = value
        return data, name, bit_depth
    return edit


def _spoil_raster(path, edit):
    """Rewrite a PSR1 file as ``edit(data, sensor name, bit depth)``."""
    write_psr1(path, *edit(*read_psr1(path)))


# Hostile rasters for fuse: the file spoilt and how.  Each must exit 3 with
# one error line and write no fused raster.
_HOSTILE_RASTERS = {
    "truncated-header": ("ms", lambda blob: blob[:20]),
    "bad-magic": ("ms", lambda blob: b"PSR0" + blob[4:]),
    "truncated-payload": ("ms", lambda blob: blob[:-4]),
    "ms-nan": ("ms", _last_sample(float("nan"))),
    "ms-inf": ("ms", _last_sample(float("inf"))),
    "pan-nan": ("pan", _last_sample(float("nan"))),
    "pan-inf": ("pan", _last_sample(-float("inf"))),
    # A signalling NaN: a float64 cast of it warns before any check sees it.
    "ms-snan": ("ms", lambda blob: blob[:-4] + struct.pack("<I", 0x7FA00000)),
}

# Hostile dataset samples: the raster role spoilt in every sample, the edit
# of its (data, sensor name, bit depth), and what the error says.
_HOSTILE_SAMPLES = {
    "pan-two-channels": (
        "pan", lambda data, name, depth: (np.concatenate([data, data], 2), name, depth),
        "header reads 'wv3' with 2 channels at 11 bits, not 'wv3' with 1 at 11"),
    "gt-labelled-qb": (
        "gt", lambda data, name, depth: (data, "qb", depth),
        "header reads 'qb' with 8 channels at 11 bits, not 'wv3' with 8 at 11"),
    "lrms-bit-depth-12": (
        "lrms", lambda data, name, depth: (data, name, 12),
        "header reads 'wv3' with 8 channels at 12 bits, not 'wv3' with 8 at 11"),
    "gt-nan": ("gt", _first_value(np.nan), "samples must be finite and in [0, 1]"),
    "gt-seven": ("gt", _first_value(7.0), "samples must be finite and in [0, 1]"),
}


def _relabel(name, bit_depth=11):
    return lambda data, _, __: (data, name, bit_depth)


# Raster headers that break the sensor rule: the rasters spoilt (of an MS
# and PAN pair, or every raster of a fused set), the edit of their (data,
# sensor name, bit depth), and what the error says about the first of them.
_HOSTILE_HEADERS = {
    "pan-labelled-qb": (("pan",), _relabel("qb"),
                        "header reads 'qb' with 1 channels at 11 bits, not "
                        "'wv3' with 1 at 11"),
    "pan-16-bits": (("pan",), _relabel("wv3", 16),
                    "header reads 'wv3' with 1 channels at 16 bits, not "
                    "'wv3' with 1 at 11"),
    "unregistered-sensor": (("ms", "pan"), _relabel("foo"),
                            "header names sensor 'foo', which is not "
                            "registered; known: ['gf2', 'qb', 'wv3']"),
    "ms-wv3-4-bands": (("ms",), lambda data, name, depth: (data[:, :, :4], name, depth),
                       "header reads 'wv3' with 4 channels at 11 bits, not "
                       "'wv3' with 8 at 11"),
    "fused-labelled-qb": (("fused",), _relabel("qb"),
                          "header reads 'qb' with 8 channels at 11 bits, not "
                          "'wv3' with 8 at 11"),
}
_HEADER_ROWS = [(command, row) for command in ("fuse", "simulate")
                for row in sorted(_HOSTILE_HEADERS) if row != "fused-labelled-qb"]
_HEADER_ROWS += [("eval", "fused-labelled-qb"), ("compare", "fused-labelled-qb")]


@pytest.fixture(scope="module")
def small_patch_dir(tmp_path_factory):
    """16 samples of 16x16 patches: every LRMS is 4x4."""
    directory = tmp_path_factory.mktemp("small") / "dataset"
    assert main(["simulate", "--out", str(directory), "--seed", "5",
                 "--set", "dataset.ms_size=64", "--set", "dataset.patch=16",
                 "--set", "dataset.stride=16"]) == 0
    return directory


@pytest.fixture(scope="module")
def ratio_two_dir(tmp_path_factory, dataset_dir):
    """The CLI dataset with its manifest edited to declare ratio 2."""
    directory = tmp_path_factory.mktemp("ratio-two") / "dataset"
    shutil.copytree(dataset_dir, directory)
    manifest = directory / "manifest.json"
    text = manifest.read_text()
    assert text.count('"ratio": 4') == 1
    manifest.write_text(text.replace('"ratio": 4', '"ratio": 2'))
    return directory


class TestExitCodes:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_code(self, dataset_dir, tmp_path):
        """A diverging run surfaces as the numeric-failure exit code."""
        rc = main(["train", str(dataset_dir), "--out", str(tmp_path / "t"),
                   "--set", "train.lr_schedule=0:1e20",
                   "--set", "train.epochs=2", "--set", "train.batch_size=8",
                   *SMALL_MODEL])
        assert rc == 4

    @pytest.mark.parametrize("setting", [
        "lr_schedule=0:nan", "lr_schedule=0:inf", "lr_schedule=0:0.001,1:nan"])
    def test_spoilt_optimizer_setting_is_config_error(self, setting,
                                                      dataset_dir, tmp_path,
                                                      capsys):
        """Each of these used to train: a NaN or infinite rate exited 0
        with non-finite checkpoints."""
        rc = main(["train", str(dataset_dir), "--out", str(tmp_path / "t"),
                   "--set", f"train.{setting}", "--set", "train.epochs=1",
                   *SMALL_MODEL])
        err = capsys.readouterr().err
        assert err.startswith("error: invalid train config: ")
        assert err.count("\n") == 1 and rc == 2, err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("setting", [
        "beta1=1.0", "beta1=-0.5", "beta2=1.5", "beta2=nan",
        "weight_decay=-0.1", "weight_decay=nan", "weight_decay=inf",
        "lr_schedule=high-rate"])
    def test_removed_optimizer_setting_is_config_error(self, setting,
                                                       dataset_dir, tmp_path,
                                                       capsys):
        """Adam's betas and weight decay are constants and ``high-rate``
        is no preset, so an old echo naming them is refused whole."""
        rc = main(["train", str(dataset_dir), "--out", str(tmp_path / "t"),
                   "--set", f"train.{setting}", "--set", "train.epochs=1",
                   *SMALL_MODEL])
        err = capsys.readouterr().err
        key = setting.partition("=")[0]
        assert err.startswith("error: ") and f"train.{key}" in err, err
        assert err.count("\n") == 1 and rc == 2, err
        assert not (tmp_path / "t").exists()

    def test_config_error_exit_code(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "d"),
                     "--set", "dataset.bogus=1"]) == 2

    def test_simulate_has_no_sensor_flag(self, tmp_path, capsys):
        """The demo scene's sensor is ``--set sensor.name=NAME``."""
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--sensor", "wv3", "--out", str(tmp_path / "d")])
        assert info.value.code == 2
        assert "unrecognized arguments: --sensor" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_data_error_exit_code(self, tmp_path):
        assert main(["train", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o")]) == 3

    def _fuse_exit(self, capsys, tmp_path, ms_path, pan_path, method):
        """Exit code of a fuse run; a corrupt input must end it with a
        one-line error, not a traceback, and with no --out directory."""
        rc = main(["fuse", str(ms_path), str(pan_path), "--method", method,
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()
        return rc

    def test_checkpoint_dim_beyond_file_size(self, pair_paths, tmp_path,
                                             capsys):
        def huge_dim(blob, name_at, name_len):
            struct.pack_into("<I", blob, name_at + name_len + 4, 2**32 - 1)

        method = _crafted_checkpoint(tmp_path / "dim.ckpt", huge_dim)
        assert self._fuse_exit(capsys, tmp_path, *pair_paths, method) == 3

    def test_checkpoint_name_not_utf8(self, pair_paths, tmp_path, capsys):
        def bad_name(blob, name_at, name_len):
            blob[name_at:name_at + name_len] = b"\xff" * name_len

        method = _crafted_checkpoint(tmp_path / "name.ckpt", bad_name)
        assert self._fuse_exit(capsys, tmp_path, *pair_paths, method) == 3

    def test_missing_checkpoint(self, pair_paths, tmp_path, capsys):
        method = f"tdnet:{tmp_path / 'no_such.ckpt'}"
        assert self._fuse_exit(capsys, tmp_path, *pair_paths, method) == 3

    def test_psr1_bit_depth_out_of_range(self, pair_paths, tmp_path, capsys):
        ms_path, pan_path = pair_paths
        blob = bytearray(ms_path.read_bytes())
        struct.pack_into("<I", blob, 28, 40)  # height, width, channels, bit depth
        bad = tmp_path / "ms.psr1"
        bad.write_bytes(bytes(blob))
        assert self._fuse_exit(capsys, tmp_path, bad, pan_path, "glp-hpm") == 3

    def _tdnet_exit(self, capsys, tmp_path, ms_path, pan_path, **config):
        config = TdnetConfig(bands=8, feature_width=2, mscb_width=1,
                             mscb_kernels=(3,), **config)
        path = tmp_path / "small.ckpt"
        save_checkpoint(path, init_params(config, seed=0), config)
        return self._fuse_exit(capsys, tmp_path, ms_path, pan_path,
                               f"tdnet:{path}")

    @staticmethod
    def _pan_not_ratio_times_ms(tmp_path):
        """A 48x48 PAN beside a 16x16 MS."""
        rng = np.random.default_rng(9)
        ms_path, pan_path = tmp_path / "ms.psr1", tmp_path / "pan.psr1"
        write_psr1(ms_path, rng.random((16, 16, 8)), "wv3", 11)
        write_psr1(pan_path, rng.random((48, 48)), "wv3", 11)
        return ms_path, pan_path

    def test_tdnet_pan_not_ratio_times_ms(self, tmp_path, capsys):
        """A PAN not 4x the MS grid is a data error for the network, as it
        is for the classic methods."""
        pair = self._pan_not_ratio_times_ms(tmp_path)
        assert self._tdnet_exit(capsys, tmp_path, *pair) == 3

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_classic_pan_not_ratio_times_ms(self, method, tmp_path, capsys):
        """Every classic method refuses the misaligned pair, plain
        upsampling (exp) too, though it never reads the PAN."""
        pair = self._pan_not_ratio_times_ms(tmp_path)
        assert self._fuse_exit(capsys, tmp_path, *pair, method) == 3

    def test_tdnet_checkpoint_ratio_not_sensor_ratio(self, pair_paths,
                                                     tmp_path, capsys):
        """A checkpoint whose config declares ratio 2 is a data error."""
        def ratio_two(blob, name_at, name_len):
            at = blob.index(b'"ratio": 4')
            blob[at:at + 10] = b'"ratio": 2'

        method = _crafted_checkpoint(tmp_path / "ratio.ckpt", ratio_two)
        assert self._fuse_exit(capsys, tmp_path, *pair_paths, method) == 3

    def test_train_model_ratio_not_dataset_ratio(self, ratio_two_dir,
                                                 tmp_path, capsys):
        rc = main(["train", str(ratio_two_dir), "--out", str(tmp_path / "t"),
                   "--set", "train.epochs=1", *SMALL_MODEL])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "ratio" in err and rc == 3

    @pytest.mark.parametrize("command", ["fuse", "train", "eval"])
    def test_manifest_ratio_not_four(self, command, ratio_two_dir, tmp_path,
                                     capsys):
        """Every command that reads a dataset refuses a manifest declaring
        ratio 2, and leaves no --out behind; ``eval`` used to score it with
        twice the ERGAS, and ``fuse`` to leave an empty --out directory."""
        args = {"fuse": ["fuse", str(ratio_two_dir), "--method", "exp"],
                "train": ["train", str(ratio_two_dir)],
                "eval": ["eval", str(ratio_two_dir), str(tmp_path)]}[command]
        rc = main([*args, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'ratio' is 2" in err and rc == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit,message", [
        (('"bands": 8', '"bands": true'), "malformed manifest: 'bands'"),
        (('"bands": 8', '"bands": 3'), "malformed manifest: 'bands'"),
        (('"train": [\n      6,', '"train": [\n      6,\n      6,'),
         "split 'train' lists ids [6] more than once"),
    ], ids=["bool-bands", "bands-not-sensor", "id-twice-in-split"])
    def test_hostile_manifest(self, edit, message, dataset_dir, tmp_path, capsys):
        """A manifest whose band count is a bool, or not the wv3 sensor's
        8, or whose split lists an id twice, is refused at read by every
        command that reads a dataset, with no --out left behind.  ``train``
        used to exit 1 with a traceback on the band counts and leave an
        empty --out, ``fuse`` and ``eval`` to exit 0; all three took the
        repeated id, so ``train`` trained on it twice per epoch and
        ``eval`` counted it twice in the mean."""
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest.json"
        text = manifest.read_text()
        assert text.count(edit[0]) == 1
        manifest.write_text(text.replace(*edit))
        for args in (["fuse", str(data), "--method", "exp"], ["train", str(data)],
                     ["eval", str(data), str(tmp_path)]):
            rc = main([*args, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert message in err and rc == 3, (args[0], rc, err)
            assert not (tmp_path / "out").exists(), args[0]

    @pytest.mark.parametrize("row", sorted(_HOSTILE_SAMPLES))
    def test_hostile_sample(self, row, dataset_dir, exp_fused_dir, tmp_path,
                            capsys):
        """A sample raster whose header disagrees with the manifest's sensor,
        or whose values are not finite or leave [0, 1], is refused where it
        is read by every command that reads a dataset, with no --out left
        behind.  ``fuse`` and ``eval`` used to exit 0 on each (``eval``
        scoring NaN rows), and ``train`` to train on the headers and exit 4
        on the NaN, as if training had diverged."""
        role, edit, message = _HOSTILE_SAMPLES[row]
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        for path in data.glob(f"*_{role}.psr1"):
            _spoil_raster(path, edit)
        for args in (["fuse", str(data), "--method", "exp"],
                     ["train", str(data), "--set", "train.epochs=1",
                      "--set", "train.batch_size=8", *SMALL_MODEL],
                     ["eval", str(data), str(exp_fused_dir)]):
            rc = main([*args, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"_{role}.psr1: {message}" in err and rc == 3, (args[0], rc, err)
            assert not (tmp_path / "out").exists(), args[0]

    @pytest.mark.parametrize("command,row", _HEADER_ROWS,
                             ids=[f"{c}-{r}" for c, r in _HEADER_ROWS])
    def test_hostile_header(self, command, row, pair_paths, dataset_dir,
                            exp_fused_dir, tmp_path, capsys):
        """Every raster a command reads must name a registered sensor at
        its bit depth with its band count, one channel for a PAN: the MS
        the sensor its header names, the PAN the MS's, a fused raster the
        dataset's.  Each row used to exit 0: the PAN's own label and bit
        depth went unread, an unknown or mislabelled MS was fused under an
        invented sensor, and ``eval`` and ``compare`` scored any header."""
        roles, edit, message = _HOSTILE_HEADERS[row]
        if roles == ("fused",):
            fused = tmp_path / "exp"
            shutil.copytree(exp_fused_dir, fused)
            for path in fused.glob("*.psr1"):
                _spoil_raster(path, edit)
            named = fused / f"{read_manifest(dataset_dir).splits['test'][0]}.psr1"
            args = [command, str(dataset_dir), str(fused)]
        else:
            paths = {}
            for role, path in zip(("ms", "pan"), pair_paths):
                paths[role] = tmp_path / path.name
                shutil.copy(path, paths[role])
            for role in roles:
                _spoil_raster(paths[role], edit)
            named = paths[roles[0]]
            options = (["--method", "glp-hpm"] if command == "fuse" else
                       ["--set", "dataset.patch=8", "--set", "dataset.stride=8"])
            args = [command, str(paths["ms"]), str(paths["pan"]), *options]
        rc = main([*args, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{named}: {message}" in err and rc == 3, (rc, err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new-out", "existing-out"])
    def test_failed_fuse_removes_its_output(self, existing, dataset_dir,
                                            tmp_path, capsys):
        """A NaN in the last test sample's lrms fails a split ``fuse`` after
        it wrote the first sample's raster and preview, which used to stay.
        An --out this run made goes whole; in one that was there, only this
        run's files go."""
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        last = read_manifest(data).splits["test"][-1]
        _spoil_raster(data / f"{last}_lrms.psr1", _first_value(np.nan))
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("not this run's\n")
        rc = main(["fuse", str(data), "--method", "exp", "--out", str(out)])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{last}_lrms.psr1" in err and rc == 3
        if existing:
            assert os.listdir(out) == ["notes.txt"]
        else:
            assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new-out", "existing-out"])
    def test_diverged_train_removes_its_output(self, existing, dataset_dir,
                                               tmp_path, capsys):
        """A run that diverges in its second epoch has written best.ckpt
        and epoch_0001.ckpt by then, which used to stay.  An --out this run
        made goes whole; in one that was there, only this run's files go."""
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("not this run's\n")
        rc = main(["train", str(dataset_dir), "--out", str(out),
                   "--set", "train.checkpoint_every=1",
                   "--set", "train.lr_schedule=0:0.001,1:1e30",
                   "--set", "train.epochs=2", "--set", "train.batch_size=8",
                   *SMALL_MODEL])
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss nan at epoch 1"), err
        assert err.count("\n") == 1 and rc == 4
        if existing:
            assert os.listdir(out) == ["notes.txt"]
        else:
            assert not out.exists()

    def test_failed_simulate_removes_its_output(self, tmp_path, capsys):
        """In an --out whose manifest.json is a directory, simulate writes
        every raster before the manifest's open fails; the rasters used to
        stay.  Only what was there before remains, and the OSError exits 2
        with one line naming the path, not a traceback and exit 1."""
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        rc = main(["simulate", "--out", str(out), "--seed", "5", *SIM_ARGS])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(out / "manifest.json") in err and rc == 2
        assert os.listdir(out) == ["manifest.json"]

    def test_fuse_out_names_a_file(self, pair_paths, tmp_path, capsys):
        """An --out that is an existing regular file exits 2 with one line
        naming it, and the file is left as it was."""
        ms_path, pan_path = pair_paths
        out = tmp_path / "taken"
        out.write_text("not this run's\n")
        rc = main(["fuse", str(ms_path), str(pan_path), "--method", "exp",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(out) in err and rc == 2
        assert out.read_text() == "not this run's\n"

    @pytest.mark.parametrize("command", ["fuse", "train", "eval"])
    def test_corrupt_manifest(self, command, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text('{"sensor": "wv3"}')
        args = {"fuse": ["fuse", str(data), "--method", "exp"],
                "train": ["train", str(data)],
                "eval": ["eval", str(data), str(tmp_path)]}[command]
        rc = main([*args, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "manifest" in err, err
        assert rc == 3

    @pytest.mark.parametrize("shape", [(0, 16, 8), (16, 0, 8), (16, 16, 0)])
    def test_psr1_empty_raster(self, shape, tmp_path, capsys):
        """A header may declare a zero height, width or channel count; the
        reader rejects it before the network sees an empty tensor."""
        h, w, c = shape
        ms_path, pan_path = tmp_path / "ms.psr1", tmp_path / "pan.psr1"
        write_psr1(ms_path, np.zeros(shape, np.float32), "wv3", 11)
        write_psr1(pan_path, np.zeros((4 * h, 4 * w), np.float32), "wv3", 11)
        assert self._tdnet_exit(capsys, tmp_path, ms_path, pan_path) == 3

    def test_checkpoint_nan_weight(self, pair_paths, tmp_path, capsys):
        """A NaN in ``pan.entry.w`` feeds a relu, which maps it to 0, so the
        fused raster would come out finite; the loader rejects it."""
        def nan_weight(blob, name_at, name_len):
            (ndim,) = struct.unpack_from("<I", blob, name_at + name_len)
            struct.pack_into("<f", blob, name_at + name_len + 4 + 4 * ndim,
                             float("nan"))

        method = _crafted_checkpoint(tmp_path / "nan.ckpt", nan_weight)
        assert self._fuse_exit(capsys, tmp_path, *pair_paths, method) == 3
        assert not (tmp_path / "out" / "fused.psr1").exists()

    def test_psr1_sensor_name_not_utf8(self, pair_paths, tmp_path, capsys):
        ms_path, pan_path = pair_paths
        blob = bytearray(ms_path.read_bytes())
        blob[36:39] = b"\xff\xfe\xfd"  # the 3-byte name after the header
        bad = tmp_path / "ms.psr1"
        bad.write_bytes(bytes(blob))
        assert self._fuse_exit(capsys, tmp_path, bad, pan_path, "exp") == 3

    @pytest.mark.parametrize("method", ["exp", "tdnet"])
    @pytest.mark.parametrize("row", sorted(_HOSTILE_RASTERS))
    def test_fuse_hostile_raster(self, row, method, pair_paths, tmp_path,
                                 capsys):
        """A spoilt MS or PAN file is a data error for the classic and the
        network path alike."""
        which, spoil = _HOSTILE_RASTERS[row]
        paths = dict(zip(("ms", "pan"), pair_paths))
        bad = tmp_path / f"{which}.psr1"
        bad.write_bytes(spoil(paths[which].read_bytes()))
        paths[which] = bad
        if method == "exp":
            rc = self._fuse_exit(capsys, tmp_path, paths["ms"], paths["pan"], "exp")
        else:
            rc = self._tdnet_exit(capsys, tmp_path, paths["ms"], paths["pan"])
        assert rc == 3

    @pytest.mark.parametrize("method", ["exp", "sfim", "mra-unit", "glp-hpm",
                                        "glp-reg"])
    def test_fuse_ms_below_interpolator_minimum(self, method, small_patch_dir,
                                                tmp_path, capsys):
        """Simulating 16x16 patches is valid, but their 4x4 LRMS is below the
        23-tap interpolator's 6x6 minimum: a data error, not a traceback."""
        rc = main(["fuse", str(small_patch_dir), "--method", method,
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "4x4" in err and rc == 3


def test_import_leaves_out_scipy():
    """The program needs only numpy; scipy (~30 MiB of resident memory and
    ~0.5 s to import) is a test-time oracle. Every command starts with
    these imports."""
    src = os.path.dirname(os.path.dirname(pansharp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("pansharp", "pansharp.cli"):
        probe = (f"import sys, {module}; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", (module, result.stdout)
