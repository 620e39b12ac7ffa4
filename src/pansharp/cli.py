"""Command-line interface wiring the toolkit end to end.

Subcommands: ``simulate`` (build a reduced-resolution dataset), ``train``
(fit the network), ``fuse`` (run one method on a pair or a dataset
split), ``eval`` (score a fused set), ``compare`` (ranked table across
methods), ``gradcheck`` (finite-difference sweep).  Configuration comes
from an INI-style ``key = value`` file plus ``--set section.key=value``
overrides; unknown keys are hard errors, and the effective configuration
is echoed next to every output so any artifact can be reproduced from
its directory alone.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys

import numpy as np

from .container import (
    check_header,
    export_ppm,
    load_ms,
    load_pan,
    percentile_stretch,
    read_psr1,
    run_output,
    save_ms,
)
from .errors import ConfigError, DataError, NumericError
from .fusion import METHODS, fuse
from .gradcheck import run_gradcheck
from .imaging import RATIO, MsImage, PanImage, check_aligned, get_sensor
from .metrics import WINDOW, EvalReport, no_reference_metrics, reference_metrics
from .model import (
    TdnetConfig,
    fused_raster,
    load_checkpoint,
    network_batch,
    tdnet_forward,
)
from .train import SCHEDULE_PRESETS, TrainConfig, manifest_hash, train
from .wald import (
    DatasetManifest,
    load_sample,
    make_samples,
    read_manifest,
    split,
    synthetic_scene,
    write_dataset,
)


def _config_defaults(cls) -> dict:
    """Config-file keys and default texts for a config dataclass's fields."""
    section = {}
    for field in dataclasses.fields(cls):
        name, default = field.name, field.default
        if name == "bands":
            continue  # always the dataset's
        if name == "lr_schedule":
            section[name] = next(preset for preset, schedule
                                 in SCHEDULE_PRESETS.items() if schedule == default)
        elif isinstance(default, bool):
            section[name] = str(default).lower()
        elif isinstance(default, tuple):
            section[name] = ",".join(map(str, default))
        else:
            section[name] = str(default)
    return section


#: Every recognized configuration key with its default (as written in a
#: config file).  ``model`` and ``train`` are the TdnetConfig and
#: TrainConfig fields, except the band count, which always comes from the
#: dataset.
CONFIG_SCHEMA: dict = {
    "sensor": {
        "name": "wv3",
    },
    "dataset": {
        "seed": "0",
        "scenes": "1",
        "ms_size": "512",
        "patch": "64",
        "stride": "64",
        "split_seed": "0",
        "split": "test",
    },
    "model": _config_defaults(TdnetConfig),
    "train": _config_defaults(TrainConfig),
    "metric": {
        "window": str(WINDOW),
    },
}

CONFIG_ECHO_NAME = "run_config.ini"

#: Reduced-resolution table columns and whether lower is better.
_REDUCED_COLUMNS = (("sam", True), ("ergas", True), ("scc", False),
                    ("q2n", False))
_FULL_COLUMNS = (("d_lambda", True), ("d_s", True), ("qnr", False))


class RunConfig:
    """Layered key=value configuration with schema validation."""

    def __init__(self):
        self.values = {section: dict(keys)
                       for section, keys in CONFIG_SCHEMA.items()}

    # -- construction -----------------------------------------------------

    @classmethod
    def load(cls, path=None, overrides=(), seed=None) -> "RunConfig":
        cfg = cls()
        if path is not None:
            cfg._read_file(path)
        for item in overrides:
            cfg._apply_set(item)
        if seed is not None:
            cfg.values["dataset"]["seed"] = str(seed)
            cfg.values["train"]["seed"] = str(seed)
        return cfg

    def _read_file(self, path) -> None:
        parser = configparser.ConfigParser(interpolation=None, strict=True)
        parser.optionxform = str
        try:
            with open(path) as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        for section in parser.sections():
            if section not in self.values:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                self._check_key(section, key)
                self.values[section][key] = value

    def _apply_set(self, item: str) -> None:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not eq or not dot or not section or not key:
            raise ConfigError(
                f"--set expects section.key=value, got {item!r}")
        self._check_key(section.strip(), key.strip())
        self.values[section.strip()][key.strip()] = value.strip()

    def _check_key(self, section: str, key: str) -> None:
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if key not in CONFIG_SCHEMA[section]:
            known = ", ".join(sorted(CONFIG_SCHEMA[section]))
            raise ConfigError(
                f"unknown config key {section}.{key} (known: {known})")

    # -- typed access -----------------------------------------------------

    def get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def get_int(self, section: str, key: str) -> int:
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{section}.{key}: expected an integer, got {raw!r}") from None

    def get_positive_int(self, section: str, key: str) -> int:
        value = self.get_int(section, key)
        if value < 1:
            raise ConfigError(f"{section}.{key} must be >= 1, got {value}")
        return value

    def get_float(self, section: str, key: str) -> float:
        raw = self.get(section, key)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"{section}.{key}: expected a number, got {raw!r}") from None

    def get_bool(self, section: str, key: str) -> bool:
        raw = self.get(section, key).lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}")

    def _fields(self, section: str, cls, **parsed) -> dict:
        """Arguments for a config dataclass: each field is read with the
        getter its default's type picks, unless ``parsed`` supplies it."""
        getters = {bool: self.get_bool, int: self.get_int,
                   float: self.get_float, str: self.get}
        return {f.name: parsed[f.name] if f.name in parsed
                else getters[type(f.default)](section, f.name)
                for f in dataclasses.fields(cls)}

    # -- derived objects --------------------------------------------------

    def sensor_spec(self):
        try:
            return get_sensor(self.get("sensor", "name"))
        except DataError as exc:
            raise ConfigError(str(exc)) from exc

    def model_config(self, bands: int) -> TdnetConfig:
        """The network for a dataset of ``bands`` bands."""
        try:
            kernels = tuple(int(k) for k in
                            self.get("model", "mscb_kernels").split(","))
        except ValueError:
            raise ConfigError(
                f"model.mscb_kernels: expected comma-separated integers, "
                f"got {self.get('model', 'mscb_kernels')!r}") from None
        values = self._fields("model", TdnetConfig, bands=bands,
                              mscb_kernels=kernels)
        try:
            return TdnetConfig(**values)
        except ValueError as exc:
            raise ConfigError(f"invalid model config: {exc}") from exc

    def lr_schedule(self):
        raw = self.get("train", "lr_schedule")
        if raw in SCHEDULE_PRESETS:
            return SCHEDULE_PRESETS[raw]
        entries = []
        try:
            for piece in raw.split(","):
                epoch, _, lr = piece.partition(":")
                entries.append((int(epoch), float(lr)))
        except ValueError:
            raise ConfigError(
                f"train.lr_schedule: expected a preset "
                f"({', '.join(sorted(SCHEDULE_PRESETS))}) or "
                f"'epoch:lr,epoch:lr', got {raw!r}") from None
        return tuple(entries)

    def train_config(self) -> TrainConfig:
        values = self._fields("train", TrainConfig,
                              lr_schedule=self.lr_schedule())
        try:
            return TrainConfig(**values)
        except ValueError as exc:
            raise ConfigError(f"invalid train config: {exc}") from exc

    # -- echo -------------------------------------------------------------

    def text(self) -> str:
        lines = []
        for section in sorted(self.values):
            lines.append(f"[{section}]")
            for key in sorted(self.values[section]):
                lines.append(f"{key} = {self.values[section][key]}")
            lines.append("")
        return "\n".join(lines)

    def echo(self, path) -> None:
        """Write :meth:`text` into an output directory as
        :data:`CONFIG_ECHO_NAME`, or beside an output file as
        ``<file>.config``."""
        target = (os.path.join(path, CONFIG_ECHO_NAME) if os.path.isdir(path)
                  else f"{path}.config")
        with open(target, "w") as handle:
            handle.write(self.text())


def _require_out(args) -> str:
    if args.out is None:
        raise ConfigError("--out is required for this command")
    return args.out


def _echo_first(config: RunConfig, out, written: list) -> None:
    """Echo the configuration into ``out`` before the run writes anything
    else there, so that a step which cleans up its own files on failure
    leaves only the echo for :func:`run_output` to remove."""
    written.append(os.path.join(out, CONFIG_ECHO_NAME))
    config.echo(out)


# -- simulate -------------------------------------------------------------


def cmd_simulate(args, config: RunConfig) -> int:
    out = _require_out(args)
    if args.inputs and len(args.inputs) != 2:
        raise ConfigError(
            "simulate takes either no inputs (demo scene) or exactly two: "
            "MS.psr1 PAN.psr1")
    patch = config.get_positive_int("dataset", "patch")
    stride = config.get_positive_int("dataset", "stride")
    if args.inputs:
        ms = load_ms(args.inputs[0])
        pan = load_pan(args.inputs[1], sensor=ms.sensor)
        sensor, count, source = ms.sensor, 1, "rasters"
        scenes = [(ms, pan)]
    else:
        sensor, source = config.sensor_spec(), "synthetic"
        seed = config.get_int("dataset", "seed")
        count = config.get_positive_int("dataset", "scenes")
        size = config.get_positive_int("dataset", "ms_size")
        # Made one at a time as the loop below asks for them.
        scenes = (synthetic_scene(seed + index, sensor, ms_size=size)
                  for index in range(count))

    samples = []
    for ms, pan in scenes:
        for sample in make_samples(ms, pan, patch=patch, stride=stride):
            sample.id = len(samples)
            samples.append(sample)
        del ms, pan  # only this scene's patches outlive it
    if not samples:
        raise DataError("no samples produced; input smaller than the patch")

    splits = split([s.id for s in samples],
                   seed=config.get_int("dataset", "split_seed"))
    manifest = DatasetManifest(
        seed=config.get_int("dataset", "seed"),
        sensor=sensor.name,
        bands=sensor.bands,
        splits=splits,
        provenance={
            "source": source,
            "patch": str(patch),
            "stride": str(stride),
            "scenes": str(count),
            "split_seed": config.get("dataset", "split_seed"),
            "pan_degrade": "pan-mtf blur + decimate",
            "gt_d_degrade": "band-mtf x2 blur + decimate",
        },
    )
    with run_output(out) as written:
        _echo_first(config, out, written)
        write_dataset(out, samples, manifest)
    counts = {name: len(ids) for name, ids in splits.items()}
    print(f"wrote {len(samples)} samples to {out} "
          f"(train {counts['train']}, val {counts['val']}, "
          f"test {counts['test']})")
    return 0


# -- train ----------------------------------------------------------------


def cmd_train(args, config: RunConfig) -> int:
    out = _require_out(args)
    manifest = read_manifest(args.dataset)
    model_config = config.model_config(manifest.bands)
    train_config = config.train_config()
    with run_output(out) as written:
        _echo_first(config, out, written)
        result = train(args.dataset, model_config, train_config, out_dir=out)
    if result.log:
        last = result.log[-1]
        print(f"trained {train_config.epochs} epochs: train loss "
              f"{last.train_loss:.6g}, val loss {last.val_loss:.6g}")
    else:
        print("trained 0 epochs: checkpoint is the initialization")
    print(f"checkpoints and loss log in {out}")
    return 0


# -- fuse -----------------------------------------------------------------


def _preview_band_indices(bands: int) -> tuple:
    """Natural-color band picks of a 4- or 8-band MS raster: (red, green,
    blue) channel indices."""
    return (4, 2, 1) if bands == 8 else (2, 1, 0)


def _write_preview(path, data: np.ndarray) -> None:
    picks = _preview_band_indices(data.shape[2])
    rgb = np.stack([percentile_stretch(data[:, :, b]) for b in picks], axis=2)
    export_ppm(path, rgb)


def _parse_method(raw: str) -> tuple:
    name, _, checkpoint = raw.partition(":")
    if name == "tdnet":
        if not checkpoint:
            raise ConfigError(
                "the tdnet method needs a checkpoint: --method tdnet:PATH")
        return name, checkpoint
    if checkpoint:
        raise ConfigError(f"method {name!r} does not take a checkpoint")
    if name not in METHODS:
        known = sorted(METHODS) + ["tdnet:CHECKPOINT"]
        raise ConfigError(f"unknown method {name!r}; known: {known}")
    return name, None


def _tdnet_fuse(ms: MsImage, pan: PanImage, params,
                model_config: TdnetConfig) -> MsImage:
    """Network fusion of one pair; output clamped to the radiometric range."""
    check_aligned(ms, pan)
    if ms.data.shape[2] != model_config.bands:
        raise DataError(
            f"checkpoint expects {model_config.bands} bands but the input "
            f"has {ms.data.shape[2]}")
    out = tdnet_forward(network_batch([ms.data]), network_batch([pan.data]),
                        params, model_config)
    return MsImage(fused_raster(out.ms_hat), ms.sensor)


def _fuse_pair(method: str, ms: MsImage, pan: PanImage, loaded) -> MsImage:
    if method == "tdnet":
        params, model_config = loaded
        return _tdnet_fuse(ms, pan, params, model_config)
    return fuse(method, ms, pan)


def _split_ids(manifest: DatasetManifest, split_name: str) -> list:
    """The sample ids of the split that ``dataset.split`` names."""
    if split_name not in manifest.splits:
        raise ConfigError(f"dataset has no split {split_name!r}")
    ids = manifest.splits[split_name]
    if not ids:
        raise DataError(f"split {split_name!r} is empty")
    return ids


def _save_fused(out, raster: str, preview: str, fused: MsImage,
                written: list) -> None:
    """Write a fused raster and its preview into ``out``, adding each path
    to ``written`` before the file is opened."""
    written.append(os.path.join(out, raster))
    save_ms(written[-1], fused)
    written.append(os.path.join(out, preview))
    _write_preview(written[-1], fused.data)


def cmd_fuse(args, config: RunConfig) -> int:
    out = _require_out(args)
    if args.method is None:
        raise ConfigError("--method is required for fuse")
    method, checkpoint = _parse_method(args.method)
    loaded = load_checkpoint(checkpoint) if method == "tdnet" else None

    with run_output(out) as written:
        _echo_first(config, out, written)
        if len(args.inputs) == 2:
            ms = load_ms(args.inputs[0])
            pan = load_pan(args.inputs[1], sensor=ms.sensor)
            _save_fused(out, "fused.psr1", "preview.ppm",
                        _fuse_pair(method, ms, pan, loaded), written)
            summary = f"fused 1 pair with {method} -> {out}/fused.psr1"
        elif len(args.inputs) == 1:
            manifest = read_manifest(args.inputs[0])
            sensor = get_sensor(manifest.sensor)
            split_name = config.get("dataset", "split")
            ids = _split_ids(manifest, split_name)
            for sample_id in ids:
                sample = load_sample(args.inputs[0], sample_id, sensor)
                ms = MsImage(sample.lrms, sensor)
                pan = PanImage(sample.pan, sensor)
                _save_fused(out, f"{sample_id}.psr1", f"{sample_id}.ppm",
                            _fuse_pair(method, ms, pan, loaded), written)
            summary = (f"fused {len(ids)} samples ({split_name} split) with "
                       f"{method} -> {out}")
        else:
            raise ConfigError(
                "fuse takes either MS.psr1 PAN.psr1 or a dataset directory")
    print(summary)
    return 0


# -- eval / compare -------------------------------------------------------


def _score_set(dataset_dir, fused_dir, mode: str, window: int,
               split_name: str, method: str, report: EvalReport) -> None:
    if mode == "full" and window % RATIO:
        raise ConfigError(
            f"metric.window {window} must be a multiple of the ratio {RATIO} "
            f"in full mode")
    if mode == "full" and window < 2 * RATIO:
        raise ConfigError(
            f"metric.window {window} must be at least {2 * RATIO} in full "
            f"mode, so each low-resolution window is 2x2 or more")
    manifest = read_manifest(dataset_dir)
    sensor = get_sensor(manifest.sensor)
    for sample_id in _split_ids(manifest, split_name):
        sample = load_sample(dataset_dir, sample_id, sensor)
        path = os.path.join(fused_dir, f"{sample_id}.psr1")
        fused = check_header(path, read_psr1(path), sensor)
        if fused.shape != sample.gt.shape:
            raise DataError(
                f"sample {sample_id}: fused shape {fused.shape} does not "
                f"match reference {sample.gt.shape}")
        if mode == "reduced":
            values = reference_metrics(sample.gt, fused, window=window)
        else:
            pan = PanImage(sample.pan.astype(np.float64), sensor)
            values = no_reference_metrics(fused, sample.lrms, pan,
                                          window=window)
        report.add(method, str(sample_id), **values)


def cmd_eval(args, config: RunConfig) -> int:
    out = _require_out(args)
    method = args.method or os.path.basename(os.path.normpath(args.fused))
    window = config.get_positive_int("metric", "window")
    report = EvalReport(provenance={
        "dataset_hash": manifest_hash(read_manifest(args.dataset)),
        "mode": args.mode,
        "window": config.get("metric", "window"),
    })
    _score_set(args.dataset, args.fused, args.mode, window,
               config.get("dataset", "split"), method, report)
    report.add_aggregates()
    report.write_csv(out)
    config.echo(out)
    print(f"wrote {len(report.rows)} rows to {out}")
    return 0


def _comparison_table(report: EvalReport, mode: str) -> str:
    columns = _REDUCED_COLUMNS if mode == "reduced" else _FULL_COLUMNS
    means = {row["method"]: row for row in report.rows
             if row["image"] == "__mean"}
    rank_metric, rank_lower = columns[0] if mode == "reduced" else ("qnr", False)
    ordered = sorted(means,
                     key=lambda m: means[m][rank_metric],
                     reverse=not rank_lower)
    best = {}
    for name, lower in columns:
        values = {method: means[method][name] for method in means}
        pick = min(values, key=values.get) if lower else max(values, key=values.get)
        best[name] = pick

    width = max(len("method"), *(len(m) for m in means))
    header = ["method".ljust(width)] + [f"{name:>12}" for name, _ in columns]
    lines = ["  ".join(header)]
    for method in ordered:
        cells = [method.ljust(width)]
        for name, _ in columns:
            mark = "*" if best[name] == method else " "
            cells.append(f"{means[method][name]:>11.4f}{mark}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def cmd_compare(args, config: RunConfig) -> int:
    window = config.get_positive_int("metric", "window")
    split_name = config.get("dataset", "split")
    report = EvalReport(provenance={
        "dataset_hash": manifest_hash(read_manifest(args.dataset)),
        "mode": args.mode,
    })
    for fused_dir in args.fused:
        method = os.path.basename(os.path.normpath(fused_dir))
        _score_set(args.dataset, fused_dir, args.mode, window, split_name,
                   method, report)
    report.add_aggregates()
    table = _comparison_table(report, args.mode)
    sys.stdout.write(table)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(table)
        config.echo(args.out)
    return 0


# -- gradcheck ------------------------------------------------------------


def cmd_gradcheck(args, config: RunConfig) -> int:
    rows = run_gradcheck(seed=config.get_int("train", "seed"))
    failures = 0
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        failures += 0 if row.passed else 1
        print(f"{row.name:<20} {row.max_rel_error:12.3e}  {status}")
    print(f"gradient sweep: {len(rows)} checks, {failures} failures")
    if failures:
        raise NumericError(f"{failures} gradient checks failed")
    return 0


# -- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="INI-style configuration file")
    shared.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", dest="overrides",
                        help="override one configuration value")
    shared.add_argument("--seed", type=int,
                        help="override dataset.seed and train.seed at once")
    shared.add_argument("--out", help="output directory (or file for eval)")

    parser = argparse.ArgumentParser(
        prog="pansharp",
        description="Pansharpening toolkit: simulation, fusion, training, "
                    "and quality metrics.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("simulate", parents=[shared],
                            help="build a reduced-resolution dataset")
    p.add_argument("inputs", nargs="*",
                   help="optional MS.psr1 PAN.psr1 pair (default: demo scene)")
    p.set_defaults(func=cmd_simulate)

    p = commands.add_parser("train", parents=[shared],
                            help="train the fusion network on a dataset")
    p.add_argument("dataset", help="dataset directory from simulate")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("fuse", parents=[shared],
                            help="fuse a pair or a dataset split")
    p.add_argument("inputs", nargs="+",
                   help="MS.psr1 PAN.psr1, or a dataset directory")
    p.add_argument("--method",
                   help="exp | sfim | glp-hpm | glp-reg | mra-unit | "
                        "tdnet:CHECKPOINT")
    p.set_defaults(func=cmd_fuse)

    p = commands.add_parser("eval", parents=[shared],
                            help="score a fused set against a dataset")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("fused", help="directory of fused <id>.psr1 rasters")
    p.add_argument("--mode", choices=("reduced", "full"), default="reduced")
    p.add_argument("--method", help="method name for the report rows")
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("compare", parents=[shared],
                            help="ranked table across fused sets")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("fused", nargs="+",
                   help="one directory per method (name = method)")
    p.add_argument("--mode", choices=("reduced", "full"), default="reduced")
    p.set_defaults(func=cmd_compare)

    p = commands.add_parser("gradcheck", parents=[shared],
                            help="finite-difference sweep over every op")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.load(args.config, args.overrides, seed=args.seed)
        return args.func(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
