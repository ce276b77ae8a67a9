"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass and passes the CLOCK_MONOTONIC
time at which it launched the interpreter.  Set-up runs from that launch
until "ready": every cdslab module imported and the seeded inputs made.
The wall time runs from "ready" until every job has finished and its
output has been checked.  The pass prints one JSON line on stdout.

    python3 cdsbench/worker.py --workload quantum --seed 2026 --launched 0 \\
        --out-dir .cdsbench-out [--trace | --write-reference]

``--write-reference`` stores this pass's outputs as the reference; run it
on the reference seed only, after checking the outputs by other means.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _environment() -> dict:
    """Python, numpy and scipy versions, the BLAS library and its thread count."""
    import numpy as np
    import scipy

    info = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _run_jobs(workload, ctx, reference, tracer):
    results, outputs = [], {}
    for job in workload.jobs:
        start = time.perf_counter()
        try:
            if tracer is None:
                output = checks.as_json(job.run(ctx))
            else:
                tracer.job = job.name
                with tracer.span(f"job.{job.name}"):
                    output = checks.as_json(job.run(ctx))
        except Exception:  # a failed job is counted, and the pass goes on
            results.append({"name": job.name, "ok": False, "seconds": time.perf_counter() - start,
                            "reason": traceback.format_exc(limit=3), "reference_checked": False,
                            "sha256": None})
            continue
        if reference is None:
            reason, referenced = job.verdict(output), False
        else:
            reason, referenced = checks.check_job(job, output, ctx.seed, reference)
        outputs[job.name] = output
        results.append({"name": job.name, "ok": reason is None, "reason": reason,
                        "seconds": time.perf_counter() - start,
                        "reference_checked": referenced, "sha256": checks.digest(output)})
    return results, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="CLOCK_MONOTONIC time at which the interpreter was launched")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    for name in workloads.MODULES:
        importlib.import_module(name)
    cdslab = sys.modules["cdslab"]
    if Path(cdslab.__file__).resolve().parent != SRC / "cdslab":
        print(f"error: cdslab was imported from {cdslab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.seed, workload.make_inputs(args.seed), args.out_dir)
    reference = None if args.write_reference else checks.load_reference(args.workload)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        results, outputs = _run_jobs(workload, ctx, reference, None)
    else:
        with tracer.installed():
            results, outputs = _run_jobs(workload, ctx, reference, tracer)
    end = time.clock_gettime(time.CLOCK_MONOTONIC)

    if args.write_reference:
        failed = [r for r in results if not r["ok"]]
        if failed or args.seed != checks.REFERENCE_SEED:
            print(f"error: not writing a reference: {failed or 'seed is not the reference seed'}",
                  file=sys.stderr)
            return 1
        stored = {name: {"sha256": checks.digest(out), "output": out} for name, out in outputs.items()}
        path = checks.REFERENCE_DIR / f"{args.workload}.json"
        path.write_text(json.dumps({"seed": args.seed, "jobs": stored}, sort_keys=True) + "\n",
                        encoding="utf-8")

    result = {
        "pid": os.getpid(),
        "setup_s": ready - args.launched,
        "wall_s": end - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
        "environment": _environment(),
    }
    if tracer is not None:
        trace_path = args.out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        result["layers"] = tracer.layer_metrics(workloads.ALL_JOBS)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
