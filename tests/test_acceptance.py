"""Acceptance gate: ten end-to-end properties of the toolkit.

Each test registers exactly one summary line (replayed after the run by
the terminal-summary hook) and then asserts the property at its pinned
tolerance.  Property 8 is split in two tests on the same synthetic
scene: the ablation harness (all nine variants train and are scored)
passes, and the paper's ordering, two-level at least as good as
single-stage, is known-red.  The directional test states the expected
ordering and fails with the measured numbers rather than encode a
weakened check.  See its docstring for the evidence.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

import conftest

import pansharp.fusion
from pansharp.container import read_psr1, save_ms, write_psr1
from pansharp.cli import main as cli_main
from pansharp.fusion import METHODS, MraConfig, fuse, mra_fuse
from pansharp.gradcheck import run_gradcheck
from pansharp.imaging import (
    MsImage,
    PanImage,
    get_sensor,
    interp23,
    lowpass,
    mtf_gaussian_taps,
)
from pansharp.metrics import (
    LAPLACIAN_KERNEL,
    d_lambda,
    d_s,
    ergas,
    q2n,
    qnr,
    reference_metrics,
    sam,
    scc,
    uiqi,
)
from pansharp.model import (
    TdnetConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from pansharp.train import TrainConfig, ablation_suite, train, validate
from pansharp.wald import (
    DatasetManifest,
    degrade,
    load_sample,
    make_samples,
    read_manifest,
    split,
    synthetic_scene,
    write_dataset,
)


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.acceptance_lines.append(line)
    print(line)


def _field(seed: int, shape) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.05, 0.95, shape)


def _smooth_field(seed: int, size: int) -> np.ndarray:
    """A band-limited plane in (0, 1) for fusion fixtures."""
    raw = lowpass(np.random.default_rng(seed).uniform(0, 1, (size, size)),
                  mtf_gaussian_taps(0.25, 6))
    lo, hi = raw.min(), raw.max()
    return 0.05 + 0.9 * (raw - lo) / (hi - lo)


def _write_demo_dataset(directory, scene_seed: int, ms_size: int,
                        patch: int, splits=None) -> None:
    sensor = get_sensor("wv3")
    ms, pan = synthetic_scene(scene_seed, sensor, ms_size=ms_size)
    samples = make_samples(ms, pan, patch=patch, stride=patch)
    ids = [s.id for s in samples]
    manifest = DatasetManifest(
        seed=scene_seed, sensor="wv3", bands=8,
        splits=splits if splits is not None else split(ids, seed=4),
        provenance={})
    write_dataset(directory, samples, manifest)


# -- 1: gradient sweep ----------------------------------------------------


def test_criterion_01_gradient_sweep():
    """Every engine op and the whole network match finite differences."""
    start = time.perf_counter()
    rows = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - start
    worst = max(row.max_rel_error for row in rows)
    ok = all(row.passed for row in rows) and worst < 1e-2 and elapsed < 60
    _report(1, ok, f"{len(rows)} gradient checks, worst rel err "
                   f"{worst:.1e}, {elapsed:.1f}s (< 60s)")
    assert [row.name for row in rows].count("tdnet_forward") == 1
    assert all(row.passed for row in rows)
    assert worst < 1e-2
    assert elapsed < 60


# -- 2: metric oracle equivalence ----------------------------------------


def _sam_loop(x, y):
    total = 0.0
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            dot = float(np.dot(x[i, j], y[i, j]))
            nx = math.sqrt(float(np.dot(x[i, j], x[i, j])))
            ny = math.sqrt(float(np.dot(y[i, j], y[i, j])))
            cosine = min(1.0, max(-1.0, dot / (nx * ny)))
            total += math.degrees(math.acos(cosine))
    return total / (x.shape[0] * x.shape[1])


def _uiqi_loop(a, b, window):
    values = []
    for i in range(0, a.shape[0] - window + 1, window):
        for j in range(0, a.shape[1] - window + 1, window):
            wa = a[i:i + window, j:j + window]
            wb = b[i:i + window, j:j + window]
            va, vb = wa.var(), wb.var()
            cov = ((wa - wa.mean()) * (wb - wb.mean())).mean()
            den = (va + vb) * (wa.mean() ** 2 + wb.mean() ** 2)
            values.append(4.0 * cov * wa.mean() * wb.mean() / den)
    return float(np.mean(values))


def test_criterion_02_metric_oracles():
    """Vectorized metrics equal naive scalar loops; ideals are exact."""
    x = _field(201, (33, 33, 6))
    y = _field(202, (33, 33, 6))
    errors = {}
    errors["sam"] = abs(sam(x, y) - _sam_loop(x, y))

    terms = [np.mean((x[..., k] - y[..., k]) ** 2) / np.mean(x[..., k]) ** 2
             for k in range(6)]
    errors["ergas"] = abs(ergas(x, y) -
                          100.0 / 4 * math.sqrt(sum(terms) / 6))

    values = []
    for k in range(6):
        hx = np.zeros((31, 31))
        hy = np.zeros((31, 31))
        for i in range(31):
            for j in range(31):
                hx[i, j] = np.sum(x[i:i + 3, j:j + 3, k] * LAPLACIAN_KERNEL)
                hy[i, j] = np.sum(y[i:i + 3, j:j + 3, k] * LAPLACIAN_KERNEL)
        values.append(np.corrcoef(hx.ravel(), hy.ravel())[0, 1])
    errors["scc"] = abs(scc(x, y) - float(np.mean(values)))

    errors["uiqi"] = abs(uiqi(x[..., 0], y[..., 0], 11) -
                         _uiqi_loop(x[..., 0], y[..., 0], 11))

    # two-band hypercomplex case degenerates to ordinary complex numbers
    z = (x[..., 0] + 1j * x[..., 1]).ravel()
    w = (y[..., 0] + 1j * y[..., 1]).ravel()
    cov = (z * w.conj()).mean() - z.mean() * w.mean().conj()
    var_z = (abs(z) ** 2).mean() - abs(z.mean()) ** 2
    var_w = (abs(w) ** 2).mean() - abs(w.mean()) ** 2
    want = (4.0 * abs(cov) * abs(z.mean()) * abs(w.mean())
            / ((var_z + var_w) * (abs(z.mean()) ** 2 + abs(w.mean()) ** 2)))
    errors["q2n"] = abs(q2n(x[..., :2], y[..., :2], window=33) - want)

    # the scale-drift metrics need ratio-divisible geometry: 32 full, 8 low
    fused = np.stack([_smooth_field(210 + k, 32) for k in range(4)], axis=2)
    taps = mtf_gaussian_taps(0.3, 4)
    lrms = np.stack([lowpass(fused[..., k], taps, 4) for k in range(4)], axis=2)
    pan = PanImage(_smooth_field(215, 32), get_sensor("gf2"))
    total = 0.0
    for k in range(4):
        for l in range(4):
            if l != k:
                total += abs(_uiqi_loop(fused[..., k], fused[..., l], 16)
                             - _uiqi_loop(lrms[..., k], lrms[..., l], 4))
    errors["d_lambda"] = abs(d_lambda(fused, lrms, window=16) - total / 12)

    pan_low = lowpass(pan.data,
                      mtf_gaussian_taps(pan.sensor.pan_nyquist_gain, 4))[::4, ::4]
    total = 0.0
    for k in range(4):
        total += abs(_uiqi_loop(fused[..., k], pan.data, 16)
                     - _uiqi_loop(lrms[..., k], pan_low, 4))
    errors["d_s"] = abs(d_s(fused, lrms, pan, window=16) - total / 4)

    worst = max(errors.values())
    ideal = reference_metrics(x, x)
    ideals_exact = (ideal["sam"] == 0.0 and ideal["ergas"] == 0.0
                    and ideal["scc"] == 1.0 and ideal["q2n"] == 1.0
                    and qnr(0.0, 0.0) == 1.0)
    ok = worst <= 1e-9 and ideals_exact
    _report(2, ok, f"{len(errors)} metric oracles, worst abs diff "
                   f"{worst:.1e} (<= 1e-9); ideal identities exact")
    assert worst <= 1e-9, errors
    assert ideals_exact


# -- 3: QNR arithmetic anchor --------------------------------------------


def test_criterion_03_qnr_anchor():
    value = qnr(0.0209, 0.0219)
    ok = abs(value - 0.9576) <= 5e-4
    _report(3, ok, f"qnr(0.0209, 0.0219) = {value:.5f} (0.9576 +/- 5e-4)")
    assert value == pytest.approx(0.9576, abs=5e-4)


# -- 4: MRA degeneracy ----------------------------------------------------


def test_criterion_04_mra_degeneracy(monkeypatch):
    """Constant detail plane: every classic method collapses to the plain
    upsample; a zero injection gain collapses the unclamped pyramid to
    the interpolation itself."""
    sensor = get_sensor("wv3")
    ms = MsImage(np.stack([_smooth_field(400 + k, 16) for k in range(8)],
                          axis=2), sensor)
    pan = PanImage(np.full((64, 64), 0.5), sensor)
    baseline = fuse("exp", ms, pan).data
    degenerate = []
    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        patch.setattr(pansharp.fusion, "pan_lowpass",
                      lambda pan, config: pan.data)
        for name, config in METHODS.items():
            if config is None:
                continue
            out = np.clip(mra_fuse(ms, pan, config), 0.0, 1.0)
            degenerate.append((name, np.array_equal(out, baseline)))
    monkeypatch.setattr(pansharp.fusion, "injection_gain",
                        lambda band, pan_l, config: 0.0)
    zero_gain = mra_fuse(ms, pan, MraConfig("mtf_glp", "hpm"))
    zero_ok = np.array_equal(zero_gain, interp23(ms.data))
    ok = all(flag for _, flag in degenerate) and zero_ok
    names = ", ".join(name for name, _ in degenerate)
    _report(4, ok, f"constant-pan collapse exact for {names}; "
                   f"zero-gain pyramid == plain interpolation")
    assert all(flag for _, flag in degenerate), degenerate
    assert zero_ok


# -- 5: classic ordering at desk scale -----------------------------------


def test_criterion_05_classic_ordering():
    """Detail injection must beat no injection on simulated scenes."""
    start = time.perf_counter()
    sensor = get_sensor("wv3")
    ms, pan = synthetic_scene(3, sensor, ms_size=128)
    samples = make_samples(ms, pan, patch=32, stride=32)
    assert len(samples) == 16
    scores = {"exp": {"sam": [], "ergas": []},
              "glp-hpm": {"sam": [], "ergas": []}}
    for sample in samples:
        lr = MsImage(sample.lrms.astype(np.float64), sensor)
        p = PanImage(sample.pan.astype(np.float64), sensor)
        for method in scores:
            fused = fuse(method, lr, p).data
            scores[method]["sam"].append(sam(sample.gt, fused))
            scores[method]["ergas"].append(ergas(sample.gt, fused))
    elapsed = time.perf_counter() - start
    mean = {m: {k: float(np.mean(v)) for k, v in d.items()}
            for m, d in scores.items()}
    ok = (mean["glp-hpm"]["sam"] < mean["exp"]["sam"]
          and mean["glp-hpm"]["ergas"] < mean["exp"]["ergas"]
          and elapsed < 120)
    _report(5, ok, f"16 samples: glp-hpm sam {mean['glp-hpm']['sam']:.3f} "
                   f"< exp {mean['exp']['sam']:.3f}, ergas "
                   f"{mean['glp-hpm']['ergas']:.3f} < "
                   f"{mean['exp']['ergas']:.3f}; {elapsed:.0f}s (< 120s)")
    assert mean["glp-hpm"]["sam"] < mean["exp"]["sam"]
    assert mean["glp-hpm"]["ergas"] < mean["exp"]["ergas"]
    assert elapsed < 120


# -- 6: parameter-count anchor -------------------------------------------


def test_criterion_06_parameter_count():
    count = sum(t.size for t in init_params(TdnetConfig(bands=8), seed=0).values())
    ok = 4.4e5 <= count <= 6.6e5
    _report(6, ok, f"default 8-band network: {count} trainable parameters "
                   f"(window [4.4e5, 6.6e5])")
    assert 4.4e5 <= count <= 6.6e5


# -- 7: training smoke test ----------------------------------------------


def test_criterion_07_training_smoke(tmp_path):
    """64 samples x 100 epochs at batch 32 = 200 optimizer steps; the
    loss must at least halve, and a replay must be byte-identical."""
    data_dir = tmp_path / "data"
    sensor = get_sensor("wv3")
    ms, pan = synthetic_scene(11, sensor, ms_size=128)
    samples = make_samples(ms, pan, patch=16, stride=16)
    ids = [s.id for s in samples]
    assert len(ids) == 64
    manifest = DatasetManifest(seed=11, sensor="wv3", bands=8,
                               splits={"train": ids, "val": [], "test": []},
                               provenance={})
    write_dataset(data_dir, samples, manifest)

    model_cfg = TdnetConfig(bands=8, feature_width=16, mscb_width=6)
    train_cfg = TrainConfig(epochs=100, batch_size=32, seed=2024)
    start = time.perf_counter()
    first = train(data_dir, model_cfg, train_cfg, out_dir=tmp_path / "a")
    elapsed = time.perf_counter() - start
    initial = first.log[0].train_loss
    final = first.log[-1].train_loss

    replay = train(data_dir, model_cfg, train_cfg, out_dir=tmp_path / "b")
    same_ckpt = ((tmp_path / "a" / "final.ckpt").read_bytes()
                 == (tmp_path / "b" / "final.ckpt").read_bytes())
    same_log = ((tmp_path / "a" / "loss_log.csv").read_bytes()
                == (tmp_path / "b" / "loss_log.csv").read_bytes())

    ok = final < 0.5 * initial and same_ckpt and same_log and elapsed < 600
    _report(7, ok, f"200 steps: loss {initial:.4f} -> {final:.4f} "
                   f"({final / initial:.1%} of initial, < 50%); replay "
                   f"byte-identical; {elapsed:.0f}s (< 600s)")
    assert final < 0.5 * initial
    assert same_ckpt and same_log
    assert replay.log[-1].train_loss == final
    assert elapsed < 600


# -- 8: ablation harness and the two-level ordering (known red) ----------


def test_criterion_08_ablation_harness(tmp_path):
    """All nine network variants must train and evaluate.  The two-level
    ordering on the same scene is ``test_criterion_08_ablation_direction``."""
    data_dir = tmp_path / "data"
    _write_demo_dataset(data_dir, scene_seed=21, ms_size=160, patch=32)
    base = TdnetConfig(bands=8, feature_width=8, mscb_width=3)

    report = ablation_suite(data_dir, base,
                            TrainConfig(epochs=1, batch_size=8, seed=7))
    harness_ok = (len(report.methods()) == 9
                  and all(f"val_loss/{name}" in report.provenance
                          for name in report.methods())
                  and all(math.isfinite(row["sam"]) for row in report.rows
                          if not row["image"].startswith("__")))

    _report(8, harness_ok, f"ablation harness: {len(report.methods())} "
                           f"variants trained+scored")
    assert harness_ok


def test_criterion_08_ablation_direction(tmp_path):
    """The two-level network must validate at least as well as its
    single-stage ablation on paired seeds.

    This does not hold at desk scale, and the test therefore fails by
    design rather than encode a weakened claim.  The paper reports the
    ordering from real imagery at full training scale; here it runs on
    synthetic scene 21 (18 training patches of 32², split seed 4) and
    measures two-level 0.3018 vs single-stage 0.2379.  Mean final-output
    validation loss in the regimes probed, and the seeds on which
    two-level <= single-stage.  "Interpolating init" (a probe, not in
    the code) starts the pixel-shuffle upsampler as a linear
    interpolator and the MSCB blend and PAN detail projections at zero:

        regime                                   two-level  single  seeds
        current init, 15 epochs, seeds 7-16        0.2782   0.2043   0/10
        interpolating init, 15 epochs, seeds 7-16  0.0398   0.0336   1/10
        same, 64² patches                          0.0300   0.0262   0/5
        same, 60 epochs                            0.0160   0.0157   2/5
        same, 250 epochs, seeds 7-9                0.0071   0.0063   0/3

    Training without the half-resolution loss term, or taking the
    half-resolution PAN detail by decimation instead of max-pool, left
    it reversed on every seed too.  Train and validation loss agreed
    within 3%, so the gap is how fast the deeper model optimises, not
    overfitting.  With the current random upsampler both variants end
    5-8x worse than plain interpolation (0.039), so the network does not
    yet start as "upsampled MS plus gated detail".
    """
    data_dir = tmp_path / "data"
    _write_demo_dataset(data_dir, scene_seed=21, ms_size=160, patch=32)
    base = TdnetConfig(bands=8, feature_width=8, mscb_width=3)

    val_ids = read_manifest(data_dir).splits["val"]
    val = [load_sample(data_dir, i) for i in val_ids]
    single = dataclasses.replace(base, levels=1)
    full_losses, single_losses = [], []
    for seed in (7, 8, 9):
        cfg = TrainConfig(epochs=15, batch_size=8, seed=seed)
        full_losses.append(validate(
            val, train(data_dir, base, cfg).params, base, gamma=0.0,
            batch_size=32))
        single_losses.append(validate(
            val, train(data_dir, single, cfg).params, single, gamma=0.0,
            batch_size=32))
    mean_full = float(np.mean(full_losses))
    mean_single = float(np.mean(single_losses))
    direction_ok = mean_single >= mean_full

    _report(8, direction_ok, f"paired seeds (7,8,9) val loss: two-level "
                             f"{mean_full:.4f} vs single-stage "
                             f"{mean_single:.4f} (expected two-level <=)")
    if not direction_ok:
        pytest.fail(
            f"two-level ordering is red at desk scale: mean validation loss "
            f"two-level {mean_full:.4f} vs single-stage {mean_single:.4f} "
            f"(per-seed full {['%.4f' % v for v in full_losses]}, single "
            f"{['%.4f' % v for v in single_losses]}); reversed in every "
            f"probed regime (see the docstring), so the gate reports it "
            f"instead of weakening the check")


# -- 9: dataset protocol --------------------------------------------------


def test_criterion_09_dataset_protocol():
    sizes = {name: len(ids)
             for name, ids in split(list(range(12580)), seed=0).items()}
    sizes_ok = sizes == {"train": 8806, "val": 2516, "test": 1258}

    sensor = get_sensor("wv3")
    ms, pan = synthetic_scene(31, sensor, ms_size=128)
    samples = make_samples(ms, pan, patch=32, stride=32)
    worst = 0.0
    per_row = 128 // 32
    for sample in samples:
        i = (sample.id // per_row) * 32
        j = (sample.id % per_row) * 32
        pan_patch = pan.data[i * 4:(i + 32) * 4, j * 4:(j + 32) * 4]
        for stored, recomputed in (
                (sample.lrms, degrade(sample.gt.astype(np.float64),
                                      sensor, 4)),
                (sample.gt_d, degrade(sample.gt.astype(np.float64),
                                      sensor, 2)),
                (sample.pan, degrade(pan_patch, sensor, 4))):
            rms = float(np.sqrt(np.mean(
                (stored.astype(np.float64) - recomputed) ** 2)))
            worst = max(worst, rms)
    degrade_ok = worst <= 1e-6

    ok = sizes_ok and degrade_ok
    _report(9, ok, f"split(12580) = {sizes['train']}/{sizes['val']}/"
                   f"{sizes['test']} (want 8806/2516/1258); worst "
                   f"re-degradation RMS {worst:.1e} (<= 1e-6)")
    assert sizes_ok, sizes
    assert degrade_ok


# -- 10: bit-exactness ----------------------------------------------------


def test_criterion_10_bit_exactness(tmp_path):
    raster = _field(1000, (17, 13, 5)).astype(np.float32)
    write_psr1(tmp_path / "a.psr1", raster, "wv3", 11)
    data, name, depth = read_psr1(tmp_path / "a.psr1")
    write_psr1(tmp_path / "b.psr1", data, name, depth)
    psr_ok = ((tmp_path / "a.psr1").read_bytes()
              == (tmp_path / "b.psr1").read_bytes()
              and np.array_equal(data, raster))

    config = TdnetConfig(bands=4, feature_width=6, mscb_width=2)
    params = init_params(config, seed=5)
    save_checkpoint(tmp_path / "a.ckpt", params, config)
    loaded, loaded_cfg = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(tmp_path / "b.ckpt", loaded, loaded_cfg)
    ckpt_ok = ((tmp_path / "a.ckpt").read_bytes()
               == (tmp_path / "b.ckpt").read_bytes()
               and all(np.array_equal(params[k].data, loaded[k].data)
                       for k in params))

    sensor = get_sensor("wv3")
    ms, pan = synthetic_scene(41, sensor, ms_size=64)
    sample = make_samples(ms, pan, patch=32, stride=32)[0]
    write_psr1(tmp_path / "ms.psr1", sample.lrms, "wv3", 11)
    write_psr1(tmp_path / "pan.psr1", sample.pan, "wv3", 11)
    rc = cli_main(["fuse", str(tmp_path / "ms.psr1"),
                   str(tmp_path / "pan.psr1"), "--method", "glp-hpm",
                   "--out", str(tmp_path / "out")])
    lr = MsImage(sample.lrms.astype(np.float64), sensor)
    p = PanImage(sample.pan.astype(np.float64), sensor)
    save_ms(tmp_path / "library.psr1", fuse("glp-hpm", lr, p))
    cli_ok = (rc == 0
              and (tmp_path / "out" / "fused.psr1").read_bytes()
              == (tmp_path / "library.psr1").read_bytes())

    ok = psr_ok and ckpt_ok and cli_ok
    _report(10, ok, "raster and checkpoint round-trips byte-identical; "
                    "command-line fusion == library fusion bit-for-bit")
    assert psr_ok
    assert ckpt_ok
    assert cli_ok
