"""Training loop: schedule handling, determinism, convergence on a small
dataset, divergence abort, checkpoint artifacts, and the variant suite."""

import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pansharp
import pansharp.train as train_module
from pansharp.errors import DataError, TrainingDiverged
from pansharp.grad import Tensor, l1_loss, optim
from pansharp.imaging import get_sensor
from pansharp.model import (
    TdnetConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    tdnet_forward,
)
from pansharp.train import (
    SCHEDULE_PRESETS,
    TrainConfig,
    ablation_suite,
    lr_for_epoch,
    manifest_hash,
    train,
    validate,
)
from pansharp.wald import (
    DatasetManifest,
    SamplePair,
    load_sample,
    make_samples,
    read_manifest,
    split,
    synthetic_scene,
    write_dataset,
)

MODEL = TdnetConfig(bands=8, feature_width=8, mscb_width=3)


def test_import_binds_the_trainer_module():
    """``pansharp.train`` is the module, not the function of that name it
    holds, so ``import pansharp.train as m`` and dotted patch targets
    reach the module."""
    import pansharp.train as module

    assert module is sys.modules["pansharp.train"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """25-sample simulated dataset (18 train / 5 val / 2 test)."""
    sensor = get_sensor("wv3")
    ms, pan = synthetic_scene(21, sensor, ms_size=160)
    samples = make_samples(ms, pan, patch=32, stride=32)
    splits = split([s.id for s in samples], seed=4)
    manifest = DatasetManifest(seed=21, sensor="wv3", bands=8,
                               splits=splits)
    directory = tmp_path_factory.mktemp("dataset")
    write_dataset(directory, samples, manifest)
    return directory


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 300
        assert cfg.batch_size == 32
        assert cfg.lr_schedule == ((0, 1e-3), (220, 1e-4))
        assert cfg.gamma == 0.4
        assert optim.BETAS == (0.9, 0.999)

    def test_presets(self):
        assert SCHEDULE_PRESETS["standard"] == ((0, 1e-3), (220, 1e-4))

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="empty"):
            TrainConfig(lr_schedule=())
        with pytest.raises(ValueError, match="increase"):
            TrainConfig(lr_schedule=((0, 1e-3), (10, 1e-4), (10, 1e-5)))
        with pytest.raises(ValueError, match="start at epoch 0"):
            TrainConfig(lr_schedule=((5, 1e-3),))
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(lr_schedule=((0, -1e-3),))
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TrainConfig(lr_schedule=((0, 1e-3), (5, rate)))
        with pytest.raises(ValueError, match="gamma"):
            TrainConfig(gamma=1.5)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-1)


class TestLrSchedule:
    def test_boundary_at_decay_epoch(self):
        """Defaults keep 1e-3 through epoch 219, then switch exactly."""
        schedule = TrainConfig().lr_schedule
        assert lr_for_epoch(schedule, 0) == 1e-3
        assert lr_for_epoch(schedule, 219) == 1e-3
        assert lr_for_epoch(schedule, 220) == 1e-4
        assert lr_for_epoch(schedule, 299) == 1e-4

    def test_custom_steps(self):
        schedule = ((0, 1.0), (2, 0.5), (4, 0.25))
        assert [lr_for_epoch(schedule, e) for e in range(6)] == \
               [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]


class TestValidate:
    def test_perfect_model_scores_zero(self, dataset_dir):
        """A sample whose targets are the model's own outputs gives 0."""
        params = init_params(MODEL, seed=3)
        sample = load_sample(dataset_dir, 0)
        lrms = Tensor(sample.lrms.transpose(2, 0, 1)[None])
        pan = Tensor(sample.pan[None, None])
        out = tdnet_forward(lrms, pan, params, MODEL)
        echo = SamplePair(
            id=0, pan=sample.pan, lrms=sample.lrms,
            gt=out.ms_hat.data[0].transpose(1, 2, 0),
            gt_d=out.ms_hat_d.data[0].transpose(1, 2, 0))
        assert validate([echo], params, MODEL, gamma=0.4, batch_size=32) == 0.0

    def test_empty_split_rejected(self):
        with pytest.raises(DataError, match="empty"):
            validate([], init_params(MODEL, seed=3), MODEL, gamma=0.4,
                     batch_size=32)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, dataset_dir, batch_size):
        """Without the check, 0 raised from range() and -1 returned 0.0."""
        sample = load_sample(dataset_dir, 0)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            validate([sample], init_params(MODEL, seed=3), MODEL, gamma=0.4,
                     batch_size=batch_size)

    def test_matches_batched_loss(self, dataset_dir):
        """Per-sample averaging equals one big batch on frozen params."""
        from pansharp.model import tdnet_loss
        manifest = read_manifest(dataset_dir)
        samples = [load_sample(dataset_dir, i)
                   for i in manifest.splits["val"]]
        params = init_params(MODEL, seed=5)
        per_sample = validate(samples, params, MODEL, gamma=0.4, batch_size=32)
        lrms = Tensor(np.stack([s.lrms.transpose(2, 0, 1) for s in samples]))
        pan = Tensor(np.stack([s.pan[None] for s in samples]))
        gt = Tensor(np.stack([s.gt.transpose(2, 0, 1) for s in samples]))
        gt_d = Tensor(np.stack([s.gt_d.transpose(2, 0, 1) for s in samples]))
        out = tdnet_forward(lrms, pan, params, MODEL)
        batched = tdnet_loss(out, gt, gt_d, gamma=0.4).item()
        assert per_sample == pytest.approx(batched, rel=1e-5)

    @pytest.mark.parametrize("batch_size", [1, 5, 12, 32])
    def test_batches_give_per_sample_mean(self, batch_size):
        """On the smoke profile's 12-sample val split, every batch size
        gives the per-sample mean; at 5 the last batch holds 2 samples,
        so a mean of batch means would differ."""
        from pansharp.model import tdnet_loss
        ms, pan = synthetic_scene(5, get_sensor("wv3"), ms_size=128)
        samples = make_samples(ms, pan, patch=16, stride=16)
        val_ids = set(split([s.id for s in samples], seed=5)["val"])
        val = [s for s in samples if s.id in val_ids]
        assert len(val) == 12
        params = init_params(MODEL, seed=5)
        losses = []
        for s in val:
            out = tdnet_forward(Tensor(s.lrms.transpose(2, 0, 1)[None]),
                                Tensor(s.pan[None, None]), params, MODEL)
            losses.append(tdnet_loss(
                out, Tensor(s.gt.transpose(2, 0, 1)[None]),
                Tensor(s.gt_d.transpose(2, 0, 1)[None]), gamma=0.4).item())
        got = validate(val, params, MODEL, gamma=0.4, batch_size=batch_size)
        assert got == pytest.approx(np.mean(losses), rel=1e-6)

    def test_partial_replacement_lowers_l1(self):
        """Copying any target coordinates into the prediction can only
        shrink the mean absolute error."""
        rng = np.random.default_rng(9)
        pred = rng.uniform(0, 1, (1, 3, 8, 8)).astype(np.float32)
        target = rng.uniform(0, 1, (1, 3, 8, 8)).astype(np.float32)
        base = l1_loss(Tensor(pred), Tensor(target)).item()
        for count in (1, 10, 50):
            mixed = pred.copy()
            flat = mixed.reshape(-1)
            idx = rng.choice(flat.size, size=count, replace=False)
            flat[idx] = target.reshape(-1)[idx]
            assert l1_loss(Tensor(mixed), Tensor(target)).item() <= base


class TestTrain:
    def test_zero_epochs_returns_initialization(self, dataset_dir, tmp_path):
        cfg = TrainConfig(epochs=0, seed=12)
        result = train(dataset_dir, MODEL, cfg, out_dir=tmp_path)
        reference = init_params(MODEL, seed=12)
        assert result.log == []
        for name in reference:
            np.testing.assert_array_equal(result.params[name].data,
                                          reference[name].data)
        loaded, _ = load_checkpoint(tmp_path / "final.ckpt")
        for name in reference:
            np.testing.assert_array_equal(loaded[name].data,
                                          reference[name].data)

    def test_loss_decreases(self, dataset_dir):
        cfg = TrainConfig(epochs=4, batch_size=8, seed=1,
                          lr_schedule=((0, 1e-3),))
        result = train(dataset_dir, MODEL, cfg)
        assert result.log[-1].train_loss < result.log[0].train_loss

    def test_replay_is_identical(self, dataset_dir, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=8, seed=6,
                          lr_schedule=((0, 1e-3),))
        a = train(dataset_dir, MODEL, cfg, out_dir=tmp_path / "a")
        b = train(dataset_dir, MODEL, cfg, out_dir=tmp_path / "b")
        assert a.log == b.log
        assert (tmp_path / "a" / "final.ckpt").read_bytes() == \
               (tmp_path / "b" / "final.ckpt").read_bytes()
        assert (tmp_path / "a" / "loss_log.csv").read_bytes() == \
               (tmp_path / "b" / "loss_log.csv").read_bytes()

    def test_replay_is_identical_across_blas_thread_counts(self, dataset_dir,
                                                           tmp_path):
        """A smoke-width ``train`` writes the same checkpoint and loss log
        whether OpenBLAS runs its matrix products on one thread or two."""
        src = os.path.dirname(os.path.dirname(pansharp.__file__))
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads)
            result = subprocess.run(
                [sys.executable, "-m", "pansharp.cli", "train",
                 str(dataset_dir), "--out", str(out),
                 "--set", "model.feature_width=16",
                 "--set", "model.mscb_width=6", "--set", "train.epochs=1"],
                env=env, capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            artifacts.append([(out / name).read_bytes()
                              for name in ("final.ckpt", "loss_log.csv")])
        assert artifacts[0] == artifacts[1]

    def test_lr_decay_boundary_in_log(self, dataset_dir):
        cfg = TrainConfig(epochs=4, batch_size=16, seed=1,
                          lr_schedule=((0, 1e-3), (2, 1e-4)))
        result = train(dataset_dir, MODEL, cfg)
        assert [row.lr for row in result.log] == [1e-3, 1e-3, 1e-4, 1e-4]

    def test_loss_log_csv_round_trip(self, dataset_dir, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=16, seed=2,
                          lr_schedule=((0, 1e-3),))
        result = train(dataset_dir, MODEL, cfg, out_dir=tmp_path)
        with open(tmp_path / "loss_log.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["epoch"] for r in rows] == ["0", "1"]
        for parsed, row in zip(rows, result.log):
            assert float(parsed["train_loss"]) == pytest.approx(
                row.train_loss, rel=1e-9)
            assert float(parsed["val_loss"]) == pytest.approx(
                row.val_loss, rel=1e-9)
            assert float(parsed["lr"]) == row.lr

    def test_checkpoint_validation_is_bit_exact(self, dataset_dir, tmp_path):
        """Loss from reloaded parameters matches pre-save exactly."""
        manifest = read_manifest(dataset_dir)
        val = [load_sample(dataset_dir, i) for i in manifest.splits["val"]]
        cfg = TrainConfig(epochs=1, batch_size=8, seed=3,
                          lr_schedule=((0, 1e-3),))
        result = train(dataset_dir, MODEL, cfg, out_dir=tmp_path)
        loaded, _ = load_checkpoint(tmp_path / "final.ckpt")
        before = validate(val, result.params, MODEL, gamma=0.4, batch_size=32)
        after = validate(val, loaded, MODEL, gamma=0.4, batch_size=32)
        assert before == after

    def test_periodic_checkpoints(self, dataset_dir, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=16, seed=1,
                          lr_schedule=((0, 1e-3),), checkpoint_every=1)
        train(dataset_dir, MODEL, cfg, out_dir=tmp_path)
        assert (tmp_path / "epoch_0001.ckpt").exists()
        assert (tmp_path / "epoch_0002.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_batch_id(self, dataset_dir):
        """An exploding learning rate must be caught, not trained through."""
        cfg = TrainConfig(epochs=2, batch_size=8, seed=1,
                          lr_schedule=((0, 1e20),))
        with pytest.raises(TrainingDiverged) as info:
            train(dataset_dir, MODEL, cfg)
        assert "batch" in str(info.value)
        assert info.value.epoch >= 0 and info.value.batch >= 0

    def test_non_finite_validation_loss_aborts(self, dataset_dir, tmp_path,
                                               monkeypatch):
        """A non-finite validation loss stops the run before that epoch's
        checkpoints, where it used to leave NaN ones behind."""
        monkeypatch.setattr(train_module, "validate",
                            lambda *args, **kwargs: math.nan)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=1,
                          lr_schedule=((0, 1e-3),), checkpoint_every=1)
        with pytest.raises(TrainingDiverged, match="validation") as info:
            train(dataset_dir, MODEL, cfg, out_dir=tmp_path)
        assert info.value.epoch == 0 and info.value.batch is None
        assert os.listdir(tmp_path) == []

    def test_empty_training_split_rejected(self, dataset_dir, tmp_path):
        manifest = read_manifest(dataset_dir)
        ids = manifest.all_ids
        bad = DatasetManifest(seed=0, sensor="wv3", bands=8,
                              splits={"train": [], "val": ids, "test": []})
        directory = tmp_path / "empty-train"
        samples = [load_sample(dataset_dir, i) for i in ids]
        write_dataset(directory, samples, bad)
        with pytest.raises(DataError, match="training split is empty"):
            train(directory, MODEL, TrainConfig(epochs=1))

    def test_band_mismatch_rejected(self, dataset_dir):
        wrong = TdnetConfig(bands=4, feature_width=8, mscb_width=3)
        with pytest.raises(DataError, match="bands"):
            train(dataset_dir, wrong, TrainConfig(epochs=1))


class TestAblationSuite:
    def test_all_variants_train_and_score(self, dataset_dir):
        """Nine configurations, one budget, one report."""
        cfg = TrainConfig(epochs=1, batch_size=8, seed=7,
                          lr_schedule=((0, 1e-3),))
        report = ablation_suite(dataset_dir, MODEL, cfg)
        expected = ["tdnet", "wo-mrab", "sscb", "wo-pan-branch",
                    "single-stage", "bilinear", "deconv", "tdnet-minus",
                    "tdnet-tmra"]
        assert report.methods() == expected
        manifest = read_manifest(dataset_dir)
        assert report.provenance["dataset_hash"] == manifest_hash(manifest)
        test_ids = manifest.splits["test"]
        for name in expected:
            assert f"val_loss/{name}" in report.provenance
            plain = [r for r in report.rows if r["method"] == name
                     and not r["image"].startswith("__")]
            assert len(plain) == len(test_ids)
            for row in plain:
                for metric in ("sam", "ergas", "scc", "q2n"):
                    assert math.isfinite(row[metric])
            assert any(r["image"] == "__mean" for r in report.rows
                       if r["method"] == name)

    def test_scores_the_clipped_output(self, dataset_dir, monkeypatch):
        """The variants are scored on what ``pansharp fuse`` writes: the
        network output clipped to [0, 1]."""
        scored, score = [], train_module.reference_metrics

        def capture(reference, estimate, *args, **kwargs):
            scored.append(np.asarray(estimate))
            return score(reference, estimate, *args, **kwargs)

        monkeypatch.setattr(train_module, "reference_metrics", capture)
        cfg = TrainConfig(epochs=1, batch_size=8, seed=7,
                          lr_schedule=((0, 1e-3),))
        ablation_suite(dataset_dir, MODEL, cfg)
        assert len(scored) == 9 * len(read_manifest(dataset_dir).splits["test"])
        for fused in scored:
            assert fused.min() >= 0.0 and fused.max() <= 1.0
