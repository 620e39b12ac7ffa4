"""pansharp benchmark: one command runs a workload, checks it, prints metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_smoke --seed 1 --seconds 20 --trace 0

It sets the workload up several times (``setup_s`` is the median), starts
``client.py`` as the one measured process, checks every operation's
outputs, and prints each metric by name with its unit.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

from tracing import layer_metrics, load_spans, missing_calls, unit_of
from workloads import WORKLOADS, SetupError

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
CHECK_RESERVE_S = 20.0
TAIL_PER_MILLE = (999, 990, 900, 500)
TAIL_MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark could not produce a result; no JSON line is printed."""


def tail_percentile(values):
    """Highest of p99.9, p99, p90 and p50 with at least TAIL_MIN_BEYOND
    samples above its nearest-rank position: ``(percentile, value, n)``,
    or None when there are too few samples for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in TAIL_PER_MILLE:
        rank = -(-per_mille * n // 1000)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return per_mille / 10, ordered[rank - 1], n
    return None


def find_failures(records, canonical_errors) -> dict:
    """Failure reason per operation index.

    An operation fails on a nonzero exit code, on outputs that differ from
    operation 0's (replay must be byte-identical), or when operation 0's
    outputs fail the workload's content check, which then applies to all.
    """
    reference = records[0]["hashes"]
    failures = {}
    for record in records:
        bad = [f"{stage} exited {rc}" for stage, _, rc in record["stages"]
               if rc != 0]
        if bad:
            failures[record["index"]] = bad[0]
        elif canonical_errors:
            failures[record["index"]] = canonical_errors[0]
        elif not reference or record["hashes"] != reference:
            failures[record["index"]] = "outputs differ from operation 0"
    return failures


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pansharp", "cli.py")):
        raise BenchError(f"no program source at {src}/pansharp")
    sys.path.insert(0, src)
    import pansharp

    if os.path.dirname(os.path.dirname(os.path.abspath(pansharp.__file__))) != src:
        raise BenchError(f"imported pansharp from {pansharp.__file__}, "
                         f"not from {src}")


def _setup(workload, seed: int, inputs) -> float:
    timings = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        start = time.perf_counter()
        workload.setup(seed, inputs)
        timings.append(time.perf_counter() - start)
    return median(timings)


def _run_client(spec: dict, run_dir, deadline: float) -> dict:
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    timeout = max(1.0, deadline - time.monotonic())
    # A fixed hash seed fixes the order of the program's allocations: with
    # a random one the smoke profile's resident peak flips between two
    # values 25 MiB apart from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(os.path.join(run_dir, "client.log"), "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "client.py"),
                 spec_path], stdout=log, env=env, timeout=timeout,
                check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"client did not finish within {timeout:.0f} s") \
                from None
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}")
    with open(spec["result_path"]) as handle:
        return json.load(handle)


def _canonical_errors(workload, seed, inputs, canonical, record0) -> list:
    if any(rc != 0 for _, _, rc in record0["stages"]):
        return []
    try:
        return workload.check(seed, inputs, canonical)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output check could not read the outputs: {exc!r}"]


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> dict:
    started = time.monotonic()
    _import_program()
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK_DIR, f"run-{args.workload}-{os.getpid()}")
    inputs = os.path.join(run_dir, "inputs")
    ops_dir = os.path.join(run_dir, "ops")
    for folder in (ops_dir, os.path.join(WORK_DIR, "results"),
                   os.path.join(WORK_DIR, "traces")):
        os.makedirs(folder, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        setup_s = _setup(workload, args.seed, inputs)
        spec = {"root": ROOT, "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "inputs": inputs, "ops_dir": ops_dir,
                "result_path": os.path.join(run_dir, "result.json"),
                "spans_path": os.path.join(WORK_DIR, "traces",
                                           f"{tag}.spans.jsonl")}
        result = _run_client(spec, run_dir,
                             started + RUN_LIMIT_S - CHECK_RESERVE_S)
        records = result["records"]
        canonical = os.path.join(ops_dir, "op_0")
        failures = find_failures(records, _canonical_errors(
            workload, args.seed, inputs, canonical, records[0]))
        timed = [r for r in records[1:] if not r["traced"]]
        traced = [r for r in records[1:] if r["traced"]]
        peak_mib = result["peak_kib"] / 1024.0
        walls = [r["wall_s"] for r in timed]
        report = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": result["environment"], "sizes": workload.sizes,
            "loop": "closed, 1 client, 1 warm-up operation then back to back",
            "attempted": len(records), "failed": len(failures),
            "failures": {str(k): v for k, v in failures.items()},
            "headline": workload.headline(inputs, canonical, timed, peak_mib)
            if not failures else {},
            "op_s": walls, "tail": tail_percentile(walls),
            "end_to_end": {"op_s_p50": (median(walls), "s"),
                           "peak_mib": (peak_mib, "MiB"),
                           "setup_s": (setup_s, "s")},
        }
        if args.trace:
            report["per_layer"] = _layer_report(workload, spec["spans_path"],
                                                traced, timed)
        with open(os.path.join(WORK_DIR, "results",
                               f"{tag}-trace{args.trace}.json"), "w") as handle:
            json.dump(report, handle, indent=1)
        return report
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _layer_report(workload, spans_path, traced, untraced) -> dict:
    spans, counts = load_spans(spans_path)
    missing = missing_calls(spans, counts, workload.expected_spans)
    if missing:
        raise BenchError("traced operations recorded no calls for: "
                         + ", ".join(missing))
    values = layer_metrics(spans, counts)
    values["trace.overhead"] = (median(r["wall_s"] for r in traced)
                                / median(r["wall_s"] for r in untraced))
    return values


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} "
          f"seconds {report['seconds']} trace {report['trace']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in
                                    report["environment"].items()))
    print("inputs " + "; ".join(f"{k} {v}" for k, v in
                                report["sizes"].items()))
    print(f"loop {report['loop']}; {len(report['op_s'])} timed operations")
    for index, reason in report["failures"].items():
        print(f"FAILED operation {index}: {reason}", file=sys.stderr)
    print(f"failed_frac {report['failed'] / report['attempted']:.6g} ratio "
          f"({report['failed']} of {report['attempted']})")
    for name, (value, unit) in {**report["headline"],
                                **report["end_to_end"]}.items():
        print(f"{name} {_format(value)} {unit}")
    tail = report["tail"]
    if tail is None:
        print(f"op_s_tail n/a ({len(report['op_s'])} samples; the median "
              f"needs >= {2 * TAIL_MIN_BEYOND})")
    else:
        print(f"op_s_p{tail[0]:g} {_format(tail[1])} s ({tail[2]} samples)")
    for name, value in report.get("per_layer", {}).items():
        print(f"layer {name} {_format(value)} {unit_of(name)}")


def main(argv=None) -> int:

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except (BenchError, SetupError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_report(report)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["end_to_end"].items()}
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
