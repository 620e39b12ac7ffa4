"""Tests of the benchmark harness's own logic.

Run from the root of the repository::

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

from run import find_failures, tail_percentile  # noqa: E402
from tracing import (  # noqa: E402
    CONV_LAYERS,
    Span,
    Tracer,
    conv_gflop,
    im2col_mib,
    layer_metrics,
    missing_calls,
    self_times,
    unit_of,
)


def test_self_time_subtracts_children_once():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),      # overlaps a: covered part is 1..6
        Span("c", 2.0, 3.0, 1, 1),      # grandchild: only a loses it
        Span("d", 9.0, 12.0, 0, 1),     # runs past its parent: 9..10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 3])


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20))) == (50.0, 9, 20)
    pct, value, n = tail_percentile(list(range(100)))
    assert (pct, value, n) == (90.0, 89, 100)
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(10000)))[0] == 99.9


def test_conv_counts_on_a_known_shape():
    # 2 images, 3 -> 4 channels, 3x3 kernel, 8x8 with padding 1: 8x8 out.
    assert conv_gflop((2, 3, 8, 8), (4, 3, 3, 3), 1) == pytest.approx(
        2 * 2 * 8 * 8 * 4 * 3 * 9 / 1e9)
    assert im2col_mib((2, 3, 8, 8), (4, 3, 3, 3), 1) == pytest.approx(
        2 * 8 * 8 * 3 * 9 * 4 / 2 ** 20)
    # Without padding the output shrinks to 6x6.
    assert conv_gflop((1, 1, 8, 8), (1, 1, 3, 3), 0) == pytest.approx(
        2 * 36 * 9 / 1e9)


def _record(index, rc=0, hashes=None):
    return {"index": index, "traced": False, "wall_s": 1.0,
            "stages": [["op", 1.0, rc]],
            "hashes": {"out": "h"} if hashes is None else hashes}


def test_failed_output_check_counts_every_operation():
    records = [_record(i) for i in range(4)]
    assert find_failures(records, []) == {}
    failures = find_failures(records, ["train loss did not fall"])
    assert sorted(failures) == [0, 1, 2, 3]
    assert len(failures) / len(records) == 1.0


def test_differing_outputs_and_exit_codes_fail_one_operation():
    records = [_record(0), _record(1, hashes={"out": "other"}),
               _record(2, rc=3, hashes={}), _record(3)]
    failures = find_failures(records, [])
    assert failures == {1: "outputs differ from operation 0",
                        2: "op exited 3"}


def test_instrumentation_restores_every_binding():
    tracer = Tracer()
    with tracer.operation(1):
        saved = list(tracer._saved)
        assert all(getattr(module, attr) is not original
                   for module, attr, original in saved)
    assert saved and all(getattr(module, attr) is original
                         for module, attr, original in saved)


def test_traced_forward_names_every_conv_layer():
    import numpy as np
    from pansharp import cli
    from pansharp.grad import Tensor
    from pansharp.model import TdnetConfig, init_params

    config = TdnetConfig(bands=8, feature_width=4, mscb_width=2)
    params = init_params(config, seed=0)
    lrms = Tensor(np.full((1, 8, 4, 4), 0.5, dtype=np.float32))
    pan = Tensor(np.full((1, 1, 16, 16), 0.5, dtype=np.float32))
    tracer = Tracer()
    tracer.register_params(params)
    with tracer.operation(1):
        tracer.call("cli.main", cli.tdnet_forward, lrms, pan, params, config)
    convs = [s for s in tracer.spans if s.name == "grad.conv2d"]
    assert sorted(s.attrs["layer"] for s in convs) == sorted(CONV_LAYERS)
    expected = ["model.tdnet_forward", "grad.conv2d"] + [
        f"model.{layer}" for layer in CONV_LAYERS]
    assert missing_calls(tracer.spans, tracer.counts, expected) == []
    assert missing_calls(tracer.spans, tracer.counts, ["train.validate"]) \
        == ["train.validate"]
    values = layer_metrics(tracer.spans, tracer.counts)
    assert values["grad.conv2d.calls"] == len(CONV_LAYERS)
    assert values["model.tdnet_forward.ms"] > 0
    assert values["metrics.q2n.ms"] == 0


def test_conv_layers_match_the_network():
    from pansharp.model import TdnetConfig, parameter_plan

    plan = [name[:-2] for name, _, _ in parameter_plan(TdnetConfig(bands=8))
            if name.endswith(".w")]
    assert tuple(plan) == CONV_LAYERS


def test_declared_metrics_match_what_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    tracer = Tracer()
    tracer.spans = [Span("cli.main", 0.0, 1.0, None, 1)]
    printed = layer_metrics(tracer.spans, {})
    printed["trace.overhead"] = 1.0
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit_of(name) for name in printed}
    assert [m["name"] for m in declared["end_to_end"]] == [
        "op_s_p50", "peak_mib", "setup_s"]
