"""The three benchmark workloads: inputs, one operation, output checks.

Each workload builds its inputs from the benchmark seed as PSR1 files (and,
for ``tdnet_scene``, a checkpoint); the program under test sees only those
files.  One operation is a fixed list of ``pansharp`` command lines, run
in-process through ``pansharp.cli.main``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from statistics import median

from tracing import CONV_LAYERS, FUSION_METHODS

CONV_SPANS = tuple(f"model.{layer}" for layer in CONV_LAYERS)

SENSOR = "wv3"
EVAL_MODES = ("reduced", "full")


class SetupError(RuntimeError):
    pass


def _write_scene(seed: int, ms_size: int, directory) -> None:
    from pansharp.container import write_psr1
    from pansharp.imaging import get_sensor
    from pansharp.wald import synthetic_scene

    sensor = get_sensor(SENSOR)
    ms, pan = synthetic_scene(seed, sensor, ms_size=ms_size)
    write_psr1(os.path.join(directory, "MS.psr1"), ms.data, sensor.name,
               sensor.bit_depth)
    write_psr1(os.path.join(directory, "PAN.psr1"), pan.data, sensor.name,
               sensor.bit_depth)


def _quiet_cli(argv) -> int:
    from pansharp.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _read_csv_rows(path) -> list:
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _split_size(dataset_dir, split_name: str) -> int:
    with open(os.path.join(dataset_dir, "manifest.json")) as handle:
        return len(json.load(handle)["splits"][split_name])


class TrainSmoke:
    """One ``pansharp train`` call at the smoke profile."""

    name = "train_smoke"
    ms_size, patch, stride = 128, 16, 16
    epochs, batch_size, feature_width, mscb_width = 3, 32, 16, 6
    sizes = {"scene": f"{ms_size}x{ms_size}x8 {SENSOR}", "patch": patch,
             "stride": stride, "samples": "64 (train 46, val 12, test 6)",
             "model": f"feature_width {feature_width}, mscb_width "
                      f"{mscb_width}", "batch_size": batch_size,
             "epochs": epochs}
    expected_spans = (
        "cli.main", "train.train", "train.validate", "model.tdnet_forward",
        "model.tdnet_loss", "model.save_checkpoint", "grad.conv2d",
        "grad.backward", "grad.adam_step", "wald.load_sample",
        "container.read_psr1", *CONV_SPANS)

    def setup(self, seed: int, inputs) -> None:
        _write_scene(seed, self.ms_size, inputs)
        rc = _quiet_cli([
            "simulate", os.path.join(inputs, "MS.psr1"),
            os.path.join(inputs, "PAN.psr1"),
            "--out", os.path.join(inputs, "data"),
            "--set", f"dataset.patch={self.patch}",
            "--set", f"dataset.stride={self.stride}"])
        if rc != 0:
            raise SetupError(f"simulate exited {rc}")

    def op_argvs(self, seed: int, inputs, out) -> list:
        return [("train", [
            "train", os.path.join(inputs, "data"), "--out", out,
            "--seed", str(seed),
            "--set", f"model.feature_width={self.feature_width}",
            "--set", f"model.mscb_width={self.mscb_width}",
            "--set", f"train.batch_size={self.batch_size}",
            "--set", f"train.epochs={self.epochs}"])]

    def output_files(self, out) -> list:
        return ["final.ckpt", "loss_log.csv"]

    def check(self, seed: int, inputs, out) -> list:
        rows = _read_csv_rows(os.path.join(out, "loss_log.csv"))
        if len(rows) != self.epochs:
            return [f"loss log has {len(rows)} rows, expected {self.epochs}"]
        losses = [float(row[key]) for row in rows
                  for key in ("train_loss", "val_loss")]
        if not all(math.isfinite(value) for value in losses):
            return ["non-finite loss in loss_log.csv"]
        first, last = float(rows[0]["train_loss"]), float(rows[-1]["train_loss"])
        if not last < first:
            return [f"train loss did not fall: {first} -> {last}"]
        return []

    def headline(self, inputs, canonical, timed, peak_mib) -> dict:
        samples = _split_size(os.path.join(inputs, "data"), "train")
        walls = [record["wall_s"] for record in timed]
        return {
            "train_samples_per_s": (
                samples * self.epochs / median(walls), "samples/s"),
            "train_peak_mib": (peak_mib, "MiB"),
        }


class ClassicPipeline:
    """simulate, fuse with every classic method, eval in both modes."""

    name = "classic_pipeline"
    ms_size, stride = 256, 32
    sizes = {"scene": f"{ms_size}x{ms_size}x8 {SENSOR}",
             "patch": "64 (default)", "stride": stride,
             "samples": "49 (test 4)", "methods": ",".join(FUSION_METHODS),
             "eval_modes": ",".join(EVAL_MODES)}
    expected_spans = (
        "cli.main", "wald.make_samples", "wald.degrade", "wald.write_dataset",
        "wald.load_sample", "imaging.lowpass", "imaging.interp23",
        *(f"fusion.fuse.{method}" for method in FUSION_METHODS),
        "metrics.sam", "metrics.ergas", "metrics.scc", "metrics.q2n",
        "metrics.d_lambda", "metrics.d_s", "metrics.uiqi",
        "container.read_psr1", "container.write_psr1", "container.preview")

    def setup(self, seed: int, inputs) -> None:
        _write_scene(seed, self.ms_size, inputs)

    def op_argvs(self, seed: int, inputs, out) -> list:
        data = os.path.join(out, "data")
        argvs = [("simulate", [
            "simulate", os.path.join(inputs, "MS.psr1"),
            os.path.join(inputs, "PAN.psr1"), "--out", data,
            "--set", f"dataset.stride={self.stride}"])]
        for method in FUSION_METHODS:
            argvs.append((f"fuse.{method}", [
                "fuse", data, "--method", method,
                "--out", os.path.join(out, "fused", method)]))
        for method in FUSION_METHODS:
            for mode in EVAL_MODES:
                argvs.append((f"eval.{mode}.{method}", [
                    "eval", data, os.path.join(out, "fused", method),
                    "--mode", mode,
                    "--out", os.path.join(out, f"{method}_{mode}.csv")]))
        return argvs

    def output_files(self, out) -> list:
        files = []
        for method in FUSION_METHODS:
            folder = os.path.join("fused", method)
            files += sorted(os.path.join(folder, name)
                            for name in os.listdir(os.path.join(out, folder))
                            if name.endswith(".psr1"))
        files += [f"{method}_{mode}.csv"
                  for method in FUSION_METHODS for mode in EVAL_MODES]
        return files

    def check(self, seed: int, inputs, out) -> list:
        means = {}
        for method in ("exp", "glp-hpm"):
            path = os.path.join(out, f"{method}_reduced.csv")
            rows = [row for row in _read_csv_rows(path)
                    if row["image"] == "__mean"]
            means[method] = {key: float(rows[0][key]) for key in ("sam", "ergas")}
        return [f"glp-hpm {key} {means['glp-hpm'][key]:.6g} is not below exp "
                f"{means['exp'][key]:.6g}" for key in ("sam", "ergas")
                if not means["glp-hpm"][key] < means["exp"][key]]

    def headline(self, inputs, canonical, timed, peak_mib) -> dict:
        def stage_s(prefix):
            return median(sum(secs for stage, secs, _ in record["stages"]
                              if stage.startswith(prefix))
                          for record in timed)

        data = os.path.join(canonical, "data")
        with open(os.path.join(data, "manifest.json")) as handle:
            patch = int(json.load(handle)["provenance"]["patch"])
        mpix = _split_size(data, "test") * patch ** 2 * len(FUSION_METHODS) / 1e6
        return {
            "simulate_s": (stage_s("simulate"), "s"),
            "fuse_mpix_per_s": (mpix / stage_s("fuse."), "Mpix/s"),
            "eval_reduced_mpix_per_s": (mpix / stage_s("eval.reduced."),
                                        "Mpix/s"),
            "eval_full_mpix_per_s": (mpix / stage_s("eval.full."), "Mpix/s"),
        }


class TdnetScene:
    """One ``pansharp fuse --method tdnet:CKPT`` call on a 64x64x8 scene."""

    name = "tdnet_scene"
    ms_size = 64
    sizes = {"lrms": f"{ms_size}x{ms_size}x8 {SENSOR}",
             "pan": f"{4 * ms_size}x{4 * ms_size}",
             "model": "feature_width 64, mscb_width 38 (555124 parameters)",
             "batch": 1}
    expected_spans = ("cli.main", "model.load_checkpoint",
                      "model.tdnet_forward", "grad.conv2d",
                      "container.read_psr1", "container.write_psr1",
                      "container.preview", *CONV_SPANS)

    def _config(self):
        from pansharp.model import TdnetConfig

        return TdnetConfig(bands=8)

    def setup(self, seed: int, inputs) -> None:
        from pansharp.model import init_params, save_checkpoint

        _write_scene(seed, self.ms_size, inputs)
        config = self._config()
        save_checkpoint(os.path.join(inputs, "model.ckpt"),
                        init_params(config, seed=seed), config)

    def op_argvs(self, seed: int, inputs, out) -> list:
        return [("fuse", [
            "fuse", os.path.join(inputs, "MS.psr1"),
            os.path.join(inputs, "PAN.psr1"),
            "--method", "tdnet:" + os.path.join(inputs, "model.ckpt"),
            "--out", out])]

    def output_files(self, out) -> list:
        return ["fused.psr1"]

    def check(self, seed: int, inputs, out) -> list:
        """The CLI output must equal the library forward pass, clipped, bit
        for bit, computed here from the same files and freshly initialised
        parameters."""
        import numpy as np
        from pansharp.container import read_psr1
        from pansharp.grad import Tensor
        from pansharp.model import init_params, tdnet_forward

        fused, _, _ = read_psr1(os.path.join(out, "fused.psr1"))
        if not np.all(np.isfinite(fused)):
            return ["tdnet output has non-finite values"]
        if fused.min() < 0.0 or fused.max() > 1.0:
            return ["tdnet output leaves [0, 1]"]
        ms, _, _ = read_psr1(os.path.join(inputs, "MS.psr1"))
        pan, _, _ = read_psr1(os.path.join(inputs, "PAN.psr1"))
        config = self._config()
        lrms = Tensor(ms.astype(np.float64).transpose(2, 0, 1)[None]
                      .astype(np.float32))
        pan_t = Tensor(pan[:, :, 0].astype(np.float64)[None, None]
                       .astype(np.float32))
        out_t = tdnet_forward(lrms, pan_t, init_params(config, seed=seed),
                              config)
        expected = np.clip(out_t.ms_hat.data[0].transpose(1, 2, 0)
                           .astype(np.float64), 0.0, 1.0).astype(np.float32)
        if not np.array_equal(fused, expected):
            return ["tdnet CLI output differs from the library forward pass"]
        return []

    def headline(self, inputs, canonical, timed, peak_mib) -> dict:
        return {
            "tdnet_fuse_s_p50": (median([r["wall_s"] for r in timed]), "s"),
            "tdnet_peak_mib": (peak_mib, "MiB"),
        }


WORKLOADS = {w.name: w for w in (TrainSmoke(), ClassicPipeline(), TdnetScene())}
