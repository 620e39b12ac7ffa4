"""Supervised training for the fusion network.

The loop reads a simulated dataset directory, runs seeded-shuffle batches
through Adam on the dual-scale loss, validates every epoch, logs
``epoch,train_loss,val_loss,lr`` rows to CSV, and writes final and
best-validation checkpoints.  Everything is deterministic given the
configuration seed: two runs with equal seeds produce identical logs and
identical checkpoints.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field

from .errors import DataError, TrainingDiverged
from .grad import AdamState, Tape, adam_step, zero_grads
from .grad.rng import SplitMix64, derive_seed
from .imaging import get_sensor
from .metrics import EvalReport, reference_metrics
from .model import (
    TdnetConfig,
    ablation_configs,
    fused_raster,
    init_params,
    network_batch,
    save_checkpoint,
    tdnet_forward,
    tdnet_loss,
)
from .wald import DatasetManifest, load_sample, read_manifest

#: Named learning-rate schedules: ``standard`` (the default) decays
#: 1e-3 -> 1e-4 at epoch 220.
SCHEDULE_PRESETS = {
    "standard": ((0, 1e-3), (220, 1e-4)),
}


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; defaults follow the published recipe, whose
    Adam constants live in :mod:`pansharp.grad.optim`."""

    epochs: int = 300
    batch_size: int = 32
    lr_schedule: tuple = SCHEDULE_PRESETS["standard"]
    gamma: float = 0.4
    seed: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        schedule = tuple((int(start), float(lr)) for start, lr in self.lr_schedule)
        object.__setattr__(self, "lr_schedule", schedule)
        if not schedule:
            raise ValueError("lr_schedule must not be empty")
        if schedule[0][0] != 0:
            raise ValueError("lr_schedule must start at epoch 0")
        starts = [start for start, _ in schedule]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError(f"lr_schedule epochs must increase: {starts}")
        if not all(0.0 < lr < math.inf for _, lr in schedule):
            raise ValueError(
                f"learning rates must be positive and finite: {schedule}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class LogRow:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainResult:
    """Trained parameters plus the run's replayable record."""

    params: dict
    log: list = field(default_factory=list)


def lr_for_epoch(schedule, epoch: int) -> float:
    """Piecewise-constant rate: the last entry whose start <= epoch."""
    lr = schedule[0][1]
    for start, value in schedule:
        if epoch >= start:
            lr = value
    return lr


def validate(samples: list, params, config: TdnetConfig, gamma: float,
             batch_size: int) -> float:
    """Mean dual-scale loss per sample over a split, in batches of
    ``batch_size``, no gradient recording."""
    if not samples:
        raise DataError("validation split is empty")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    total = 0.0
    for cut in range(0, len(samples), batch_size):
        batch = samples[cut:cut + batch_size]
        lrms, pan, gt, gt_d = (network_batch([getattr(s, role) for s in batch])
                               for role in ("lrms", "pan", "gt", "gt_d"))
        out = tdnet_forward(lrms, pan, params, config)
        loss = tdnet_loss(out, gt, gt_d, gamma=gamma)
        total += loss.item() * len(batch)
    return total / len(samples)


def write_loss_log(path, log: list) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("epoch", "train_loss", "val_loss", "lr"))
        for row in log:
            writer.writerow((row.epoch, format(row.train_loss, ".10g"),
                             format(row.val_loss, ".10g"),
                             format(row.lr, ".10g")))


def _load_splits(data_dir) -> tuple:
    manifest = read_manifest(data_dir)
    sensor = get_sensor(manifest.sensor)
    loaded = {
        name: [load_sample(data_dir, i, sensor) for i in manifest.splits[name]]
        for name in ("train", "val")
    }
    return manifest, loaded["train"], loaded["val"]


def train(data_dir, model_config: TdnetConfig, cfg: TrainConfig,
          out_dir=None) -> TrainResult:
    """Run the full training loop over a simulated dataset directory.

    Writes ``final.ckpt``, ``best.ckpt`` (lowest validation loss),
    optional periodic checkpoints, and ``loss_log.csv`` under ``out_dir``
    when given.  Aborts with :class:`TrainingDiverged` on a non-finite
    training loss, identifying the offending epoch and batch, or on a
    non-finite validation loss, before that epoch's checkpoints.
    """
    manifest, train_samples, val_samples = _load_splits(data_dir)
    if not train_samples:
        raise DataError("training split is empty")
    if manifest.bands != model_config.bands:
        raise DataError(
            f"dataset has {manifest.bands} bands but the model expects "
            f"{model_config.bands}")

    params = init_params(model_config, seed=cfg.seed)
    ordered = [params[name] for name in params]
    state = AdamState(ordered)

    log: list = []
    best_val = math.inf
    best_epoch = None
    final_path = best_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        final_path = os.path.join(out_dir, "final.ckpt")
        best_path = os.path.join(out_dir, "best.ckpt")

    n = len(train_samples)
    for epoch in range(cfg.epochs):
        lr = lr_for_epoch(cfg.lr_schedule, epoch)
        order = list(range(n))
        SplitMix64(derive_seed(cfg.seed, "shuffle", epoch)).shuffle(order)

        weighted = 0.0
        for batch_index, cut in enumerate(range(0, n, cfg.batch_size)):
            picks = order[cut:cut + cfg.batch_size]
            batch = [train_samples[i] for i in picks]
            lrms, pan, gt, gt_d = (network_batch([getattr(s, role) for s in batch])
                                   for role in ("lrms", "pan", "gt", "gt_d"))
            zero_grads(ordered)
            with Tape():
                out = tdnet_forward(lrms, pan, params, model_config)
                loss = tdnet_loss(out, gt, gt_d, gamma=cfg.gamma)
            loss.backward()
            value = loss.item()
            if not math.isfinite(value):
                ids = [sample.id for sample in batch]
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}, batch "
                    f"{batch_index} (sample ids {ids})")
            adam_step(ordered, state, lr)
            weighted += value * len(batch)

        train_loss = weighted / n
        if val_samples:
            val_loss = validate(val_samples, params, model_config, cfg.gamma,
                                cfg.batch_size)
            if not math.isfinite(val_loss):
                raise TrainingDiverged(
                    f"non-finite validation loss {val_loss} at epoch {epoch}")
        else:
            val_loss = math.nan
        log.append(LogRow(epoch, train_loss, val_loss, lr))

        if val_samples and val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            if best_path is not None:
                save_checkpoint(best_path, params, model_config)
        if (out_dir is not None and cfg.checkpoint_every
                and (epoch + 1) % cfg.checkpoint_every == 0):
            save_checkpoint(
                os.path.join(out_dir, f"epoch_{epoch + 1:04d}.ckpt"),
                params, model_config)

    if out_dir is not None:
        save_checkpoint(final_path, params, model_config)
        if best_epoch is None:
            save_checkpoint(best_path, params, model_config)
        write_loss_log(os.path.join(out_dir, "loss_log.csv"), log)

    return TrainResult(params=params, log=log)


def manifest_hash(manifest: DatasetManifest) -> str:
    """Short stable digest identifying a dataset for provenance lines."""
    return hashlib.sha256(manifest.to_json().encode()).hexdigest()[:16]


def ablation_suite(data_dir, base_config: TdnetConfig,
                   cfg: TrainConfig, out_dir=None) -> EvalReport:
    """Train every architecture variant under one budget and score them.

    Each variant trains with the same schedule and seed, then its fused
    test-split outputs are scored with the reference metrics.  The report
    carries the dataset digest, the shared budget, and each variant's
    final validation loss in its provenance block.
    """
    manifest = read_manifest(data_dir)
    sensor = get_sensor(manifest.sensor)
    test_samples = [load_sample(data_dir, i, sensor)
                    for i in manifest.splits["test"]]
    if not test_samples:
        raise DataError("test split is empty")

    report = EvalReport(provenance={
        "dataset_hash": manifest_hash(manifest),
        "dataset_seed": str(manifest.seed),
        "sensor": manifest.sensor,
        "epochs": str(cfg.epochs),
        "batch_size": str(cfg.batch_size),
        "lr_schedule": repr(cfg.lr_schedule),
        "train_seed": str(cfg.seed),
        "gamma": str(cfg.gamma),
    })

    for name, variant in ablation_configs(base_config).items():
        run_dir = None if out_dir is None else os.path.join(out_dir, name)
        result = train(data_dir, variant, cfg, out_dir=run_dir)
        if result.log:
            report.provenance[f"val_loss/{name}"] = format(
                result.log[-1].val_loss, ".10g")
        for sample in test_samples:
            out = tdnet_forward(network_batch([sample.lrms]),
                                network_batch([sample.pan]), result.params, variant)
            report.add(name, str(sample.id),
                       **reference_metrics(sample.gt, fused_raster(out.ms_hat)))
    report.add_aggregates()
    return report
