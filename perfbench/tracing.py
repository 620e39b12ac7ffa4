"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces functions at the names their callers look them up by
(``module.attr``), records one span per call (name, start, end, parent,
operation) in memory, and puts every original back on exit.  Nothing in
``src/`` changes.  Counters record a call without a span where a span
would split the self time of the function that calls it (``uiqi``
inside ``d_lambda``, ``degrade`` inside ``make_samples``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median

F32_BYTES = 4

#: Conv layers of the two-level network in ``parameter_plan`` order; each
#: gets a ``model.<layer>.fwd_ms`` metric.
CONV_LAYERS = (
    "pan.entry", "pan.res1", "pan.res2", "pan.detail_full", "pan.detail_half",
    *(f"{level}.{part}" for level in ("level1", "level2")
      for part in ("up", "gate1", "gate2", "mix.entry", "mix.k3", "mix.k5",
                   "mix.k7", "mix.blend")),
)
FUSION_METHODS = ("exp", "sfim", "mra-unit", "glp-hpm", "glp-reg")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with binding-site instrumentation."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.layer_names: dict = {}
        self.op = 0
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span; ``name`` may be a function of the
        call's arguments, ``attrs`` a function of (args, kwargs, result)."""
        if callable(name):
            name = name(args, kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        result = done = None
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            extra = attrs(args, kwargs, result) if attrs and done else None
            self.spans[index] = Span(name, start, end, parent, self.op,
                                     extra or {})

    def register_params(self, params) -> None:
        """Map each conv weight tensor to its layer name (``pan.entry`` for
        ``pan.entry.w``); the tensors are kept so their ids stay unique."""
        for key, tensor in params.items():
            if key.endswith(".w"):
                self.layer_names[id(tensor)] = (key[:-2], tensor)

    # -- instrumentation --------------------------------------------------

    def _patch(self, module_name, attr, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def wrap(self, module_name, attr, name, attrs=None) -> None:
        def make(original):
            def traced(*args, **kwargs):
                return self.call(name, original, *args, attrs=attrs, **kwargs)
            return traced
        self._patch(module_name, attr, make)

    def count(self, module_name, attr, name) -> None:
        def make(original):
            def counted(*args, **kwargs):
                self.counts[self.op][name] += 1
                return original(*args, **kwargs)
            return counted
        self._patch(module_name, attr, make)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def operation(self, op: int):
        """Instrument the program for one operation, then restore it."""
        self.op = op
        try:
            instrument(self)
            yield self
        finally:
            self.restore()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: index, name, start, end, parent."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                    "attrs": span.attrs}) + "\n")
            for op, counts in self.counts.items():
                handle.write(json.dumps({"op": op, "counts": counts}) + "\n")


def load_spans(path) -> tuple[list[Span], dict]:
    spans, counts = [], {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "counts" in record:
                counts[record["op"]] = record["counts"]
            else:
                spans.append(Span(record["name"], record["start"],
                                  record["end"], record["parent"],
                                  record["op"], record["attrs"]))
    return spans, counts


# -- what is traced ---------------------------------------------------------


def _fuse_name(args, kwargs) -> str:
    return f"fusion.fuse.{args[0]}"


def _conv_attrs(tracer):
    def attrs(args, kwargs, result):
        x, w = args[0], args[1]
        padding = kwargs.get("padding", args[3] if len(args) > 3 else 0)
        layer = tracer.layer_names.get(id(w), ("?", None))[0]
        return {"layer": layer, "x": list(x.shape), "w": list(w.shape),
                "padding": padding}
    return attrs


def _params_attrs(tracer, pick):
    def attrs(args, kwargs, result):
        tracer.register_params(pick(result))
    return attrs


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.stat(args[0]).st_size}


def _samples(args, kwargs, result) -> dict:
    return {"samples": len(args[0])}


def instrument(tracer: Tracer) -> None:
    """Install every wrapper at the name its caller looks it up by."""
    cli, train, model = "pansharp.cli", "pansharp.train", "pansharp.model"
    wald, metrics = "pansharp.wald", "pansharp.metrics"
    fusion, container = "pansharp.fusion", "pansharp.container"
    params_of_ckpt = _params_attrs(tracer, lambda result: result[0])
    params_of_init = _params_attrs(tracer, lambda result: result)

    tracer.wrap(cli, "fuse", _fuse_name)
    tracer.wrap(cli, "reference_metrics", "metrics.reference_metrics")
    tracer.wrap(cli, "no_reference_metrics", "metrics.no_reference_metrics")
    tracer.wrap(cli, "tdnet_forward", "model.tdnet_forward")
    tracer.wrap(cli, "load_checkpoint", "model.load_checkpoint",
                params_of_ckpt)
    tracer.wrap(cli, "train", "train.train")
    tracer.wrap(cli, "read_psr1", "container.read_psr1", _file_bytes)
    tracer.wrap(cli, "make_samples", "wald.make_samples")
    tracer.wrap(cli, "write_dataset", "wald.write_dataset")
    tracer.wrap(cli, "load_sample", "wald.load_sample")
    tracer.wrap(cli, "percentile_stretch", "container.preview")
    tracer.wrap(cli, "export_ppm", "container.preview")

    tracer.wrap(train, "tdnet_forward", "model.tdnet_forward")
    tracer.wrap(train, "tdnet_loss", "model.tdnet_loss")
    tracer.wrap(train, "init_params", "model.init_params", params_of_init)
    tracer.wrap(train, "save_checkpoint", "model.save_checkpoint")
    tracer.wrap(train, "validate", "train.validate", _samples)
    tracer.wrap(train, "adam_step", "grad.adam_step")
    tracer.wrap(train, "load_sample", "wald.load_sample")
    tracer.wrap("pansharp.grad.tensor", "backward", "grad.backward")
    tracer.wrap(model, "conv2d", "grad.conv2d", _conv_attrs(tracer))

    tracer.count(wald, "degrade", "wald.degrade")
    tracer.wrap(wald, "lowpass", "imaging.lowpass")
    tracer.wrap(wald, "read_psr1", "container.read_psr1", _file_bytes)
    tracer.wrap(wald, "write_psr1", "container.write_psr1", _file_bytes)
    tracer.wrap(fusion, "lowpass", "imaging.lowpass")
    tracer.wrap(fusion, "interp23", "imaging.interp23")
    tracer.wrap(metrics, "lowpass", "imaging.lowpass")
    for name in ("sam", "ergas", "scc", "q2n", "d_lambda", "d_s"):
        tracer.wrap(metrics, name, f"metrics.{name}")
    tracer.count(metrics, "uiqi", "metrics.uiqi")
    # load_ms / load_pan / save_ms look these up in the container module.
    tracer.wrap(container, "read_psr1", "container.read_psr1", _file_bytes)
    tracer.wrap(container, "write_psr1", "container.write_psr1", _file_bytes)


# -- aggregation ------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are merged as intervals clipped to the parent, so overlapping
    or out-of-range child spans are not subtracted twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children[index]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def conv_gflop(x_shape, w_shape, padding: int) -> float:
    """Computed multiply-add work of one stride-1 conv: 2*B*Ho*Wo*Co*Ci*k^2."""
    batch, cin, h, w = x_shape
    cout, _, k, _ = w_shape
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    return 2.0 * batch * ho * wo * cout * cin * k * k / 1e9


def im2col_mib(x_shape, w_shape, padding: int) -> float:
    """Computed float32 column-buffer size of one conv: B*Ho*Wo*Ci*k^2."""
    batch, cin, h, w = x_shape
    _, _, k, _ = w_shape
    ho, wo = h + 2 * padding - k + 1, w + 2 * padding - k + 1
    return batch * ho * wo * cin * k * k * F32_BYTES / 2 ** 20


@dataclass
class OpSummary:
    """Per-operation totals over its spans (times in ms)."""

    self_ms: dict
    total_ms: dict
    calls: dict
    sums: dict
    layer_fwd_ms: dict
    step_fwd_ms: list
    step_bwd_ms: list


def summarize(spans: list[Span], counts: dict) -> OpSummary:
    self_ms, total_ms = defaultdict(float), defaultdict(float)
    calls, sums = defaultdict(int), defaultdict(float)
    layer_fwd = defaultdict(float)
    step_fwd, step_bwd = [], []
    for span, own in zip(spans, self_times(spans)):
        self_ms[span.name] += own * 1e3
        total_ms[span.name] += span.duration * 1e3
        calls[span.name] += 1
        attrs = span.attrs
        if span.name == "grad.conv2d":
            sums["conv_gflop"] += conv_gflop(attrs["x"], attrs["w"],
                                             attrs["padding"])
            sums["im2col_mib"] += im2col_mib(attrs["x"], attrs["w"],
                                             attrs["padding"])
            layer_fwd[attrs["layer"]] += span.duration * 1e3
        elif span.name == "grad.backward":
            step_bwd.append(span.duration * 1e3)
        elif (span.name == "model.tdnet_forward" and span.parent is not None
              and spans[span.parent].name == "train.train"):
            step_fwd.append(span.duration * 1e3)
        elif span.name in ("container.read_psr1", "container.write_psr1"):
            sums[span.name + ".bytes"] += attrs["bytes"]
        elif span.name == "train.validate":
            sums["validate_samples"] += attrs["samples"]
    for name, value in counts.items():
        calls[name] += value
    return OpSummary(self_ms, total_ms, calls, sums, layer_fwd, step_fwd,
                     step_bwd)


def split_ops(spans: list[Span]) -> dict:
    """Spans grouped by operation, parents re-indexed within each group."""
    groups = defaultdict(list)
    local = {}
    for index, span in enumerate(spans):
        local[index] = len(groups[span.op])
        parent = None if span.parent is None else local[span.parent]
        groups[span.op].append(dataclasses.replace(span, parent=parent))
    return groups


def _median_or_zero(values) -> float:
    return median(values) if values else 0.0


def layer_metric_values(summary: OpSummary) -> dict:
    """Every per-layer metric of one operation, by name."""
    s, t, c, sums = summary.self_ms, summary.total_ms, summary.calls, summary.sums
    values = {
        "grad.conv2d.ms": s["grad.conv2d"],
        "grad.conv2d.calls": c["grad.conv2d"],
        "grad.conv2d.gflop": sums["conv_gflop"],
        "grad.conv2d.im2col_mib": sums["im2col_mib"],
        "grad.backward.ms": s["grad.backward"],
        "grad.backward.step_ms": _median_or_zero(summary.step_bwd_ms),
        "grad.adam_step.ms": s["grad.adam_step"],
        "model.tdnet_forward.ms": s["model.tdnet_forward"],
        "model.tdnet_forward.train_step_ms":
            _median_or_zero(summary.step_fwd_ms),
        "model.tdnet_loss.ms": s["model.tdnet_loss"],
        "model.load_checkpoint.ms": s["model.load_checkpoint"],
        "model.save_checkpoint.ms": s["model.save_checkpoint"],
        "train.train.ms": s["train.train"],
        "train.validate.ms": s["train.validate"],
        "train.validate.total_ms": t["train.validate"],
        "train.validate.samples": sums["validate_samples"],
        "wald.make_samples.ms": s["wald.make_samples"],
        "wald.degrade.calls": c["wald.degrade"],
        "wald.write_dataset.ms": s["wald.write_dataset"],
        "wald.load_sample.ms": s["wald.load_sample"],
        "wald.load_sample.calls": c["wald.load_sample"],
        "imaging.lowpass.ms": s["imaging.lowpass"],
        "imaging.lowpass.calls": c["imaging.lowpass"],
        "imaging.interp23.ms": s["imaging.interp23"],
        "metrics.uiqi.calls": c["metrics.uiqi"],
        "container.read_psr1.ms": s["container.read_psr1"],
        "container.write_psr1.ms": s["container.write_psr1"],
        "container.bytes_read": sums["container.read_psr1.bytes"],
        "container.bytes_written": sums["container.write_psr1.bytes"],
        "container.preview.ms": s["container.preview"],
        "cli.self_ms": s["cli.main"],
    }
    for method in FUSION_METHODS:
        values[f"fusion.fuse.{method}.ms"] = s[f"fusion.fuse.{method}"]
    for name in ("sam", "ergas", "scc", "q2n", "d_lambda", "d_s"):
        values[f"metrics.{name}.ms"] = s[f"metrics.{name}"]
    for layer in CONV_LAYERS:
        values[f"model.{layer}.fwd_ms"] = summary.layer_fwd_ms[layer]
    return values


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("mib"):
        return "MiB"
    if name.startswith("container.bytes"):
        return "B"
    return "count"


def layer_metrics(spans: list[Span], counts: dict) -> dict:
    """Median over traced operations of every per-layer metric."""
    per_op = [layer_metric_values(summarize(group, counts.get(op, {})))
              for op, group in sorted(split_ops(spans).items())]
    return {name: median(values[name] for values in per_op)
            for name in per_op[0]}


def missing_calls(spans: list[Span], counts: dict, expected) -> list:
    """Expected span or counter names that some traced operation never hit."""
    missing = set()
    for op, group in split_ops(spans).items():
        seen = {span.name for span in group} | set(counts.get(op, {}))
        seen |= {f"model.{span.attrs['layer']}" for span in group
                 if span.name == "grad.conv2d"}
        missing |= set(expected) - seen
    return sorted(missing)
