"""The measured client: one process, one closed loop over ``cli.main``.

Started by ``run.py`` with a JSON spec after set-up, so the process's peak
resident set covers the program and its operations only.  It runs one warm-up operation,
then operations back to back until ``seconds`` have passed; each is issued
only after the previous one returned.  With tracing on, operations
alternate untraced and traced so the tracing overhead is measured in the
same run.  Usage: ``python3 perfbench/client.py SPEC.json``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback


def blas_threads():
    """Thread count the bundled OpenBLAS will use, or None if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def _hash_outputs(workload, out) -> dict:
    """sha256 of every output file the workload checks; a missing output
    leaves an empty dict, which never matches a complete operation."""
    hashes = {}
    try:
        for name in workload.output_files(out):
            with open(os.path.join(out, name), "rb") as handle:
                hashes[name] = hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return {}
    return hashes


def _call_cli(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return -1


def run(spec: dict) -> dict:
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from pansharp import cli
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None

    def operation(index: int, traced: bool) -> dict:
        out = os.path.join(spec["ops_dir"], f"op_{index}")
        stages = []
        start = time.perf_counter()
        for stage, argv in workload.op_argvs(spec["seed"], spec["inputs"], out):
            began = time.perf_counter()
            if traced:
                with tracer.operation(index):
                    rc = tracer.call("cli.main", _call_cli, cli.main, argv)
            else:
                rc = _call_cli(cli.main, argv)
            stages.append([stage, time.perf_counter() - began, rc])
            if rc != 0:
                break
        wall = time.perf_counter() - start
        ok = all(rc == 0 for _, _, rc in stages)
        record = {"index": index, "traced": traced, "wall_s": wall,
                  "stages": stages,
                  "hashes": _hash_outputs(workload, out) if ok else {}}
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)
        return record

    records = [operation(0, traced=False)]
    # Peak resident set of a fresh process after one operation: what one
    # ``pansharp`` command costs.  Later operations can only raise the
    # high-water mark through allocator fragmentation, which depends on how
    # many operations fit in the run.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deadline = time.perf_counter() + spec["seconds"]
    index = 1
    # A traced run needs at least one untraced and one traced operation.
    while time.perf_counter() < deadline or (tracer and index < 3):
        records.append(operation(index, traced=bool(tracer) and index % 2 == 0))
        index += 1
    if tracer:
        tracer.dump(spec["spans_path"])
    return {"records": records, "peak_kib": peak_kib,
            "environment": environment()}


def main(argv) -> int:
    with open(argv[1]) as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(spec["result_path"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
