"""cdslab benchmark: one workload, closed loop, a fresh interpreter per pass.

    python3 cdsbench/run.py --workload classical-exact --seed 2026 --seconds 55 --trace 0
    python3 cdsbench/run.py --workload all

One client runs the workload's jobs in order, one pass at a time; each pass
is a new Python process (``worker.py``), so every pass pays imports and
construction, and a cache that only helps a second call in the same
interpreter cannot show as a speed-up.  Passes repeat while the next one
is expected to end within ``--seconds``; at least one always runs.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
as medians over the passes.  With ``--trace 1`` one untraced and one
traced pass run, and the metrics are the per-layer ones of the traced
pass; ``trace.overhead_s`` is its wall time minus the untraced one.  The
last line of stdout is the JSON result; the lines before it give the
quartiles, each job's time and digest, and the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".cdsbench-out"
DEFAULT_SEED = 2026  # the CLI's default seed
# Every run, all passes included, must end within 180 s.
RUN_DEADLINE_S = 170.0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh interpreter; return its result or a failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--launched", repr(launched), "--out-dir", str(OUT_DIR)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"error": f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def _count_failures(passes: list, job_names: list) -> tuple:
    """``(attempted, failed, reasons)`` over every job of every pass.

    A pass that did not finish counts all its jobs as failed.  A job not
    compared with the reference must repeat the first pass's output.
    """
    attempted = failed = 0
    reasons = []
    first = {}
    for i, p in enumerate(passes):
        attempted += len(job_names)
        if "error" in p:
            failed += len(job_names)
            reasons.append(f"pass {i}: {p['error']}")
            continue
        for job in p["jobs"]:
            reason = job["reason"]
            if reason is None and not job["reference_checked"]:
                first.setdefault(job["name"], job["sha256"])
                if job["sha256"] != first[job["name"]]:
                    reason = "output differs from the first pass"
            if reason is not None:
                failed += 1
                reasons.append(f"pass {i} job {job['name']}: {reason}")
    return attempted, failed, reasons


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _run_record(workload: str, seed: int, passes: list) -> dict:
    done = [p for p in passes if "error" not in p]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    pids = [p["pid"] for p in done]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "libraries": done[0]["environment"] if done else None,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "passes": len(passes),
        "fresh_process_per_pass": len(set(pids)) == len(pids) and os.getpid() not in pids,
        "client": "closed loop, 1 client, jobs in order, no --workers",
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    passes = []
    if trace:
        passes.append(_run_pass(workload, seed, False, deadline))
        passes.append(_run_pass(workload, seed, True, deadline))
    else:
        longest = 0.0
        while True:
            began = time.monotonic()
            passes.append(_run_pass(workload, seed, False, deadline))
            longest = max(longest, time.monotonic() - began)
            now = time.monotonic()
            if now - start + longest > seconds or now + longest > deadline:
                break
    done = [p for p in passes if "error" not in p]
    if not done:
        raise RuntimeError(passes[-1]["error"])
    job_names = [j["name"] for j in done[0]["jobs"]]
    attempted, failed, reasons = _count_failures(passes, job_names)

    lines = [f"workload {workload} seed {seed}: {len(passes)} passes, each in a fresh process"]
    metrics = {}
    if trace:
        if len(done) < 2:
            raise RuntimeError("the untraced or the traced pass did not finish")
        plain, traced = done
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        lines.append(f"  trace written to {traced['trace_file']}")
    else:
        for m in spec["end_to_end"]:
            values = [p[m["name"]] for p in done]
            q1, q3 = _quartiles(values)
            median = statistics.median(values)
            metrics[m["name"]] = {"value": median, "unit": m["unit"]}
            lines.append(f"  {m['name']:<12} {median:.4f} {m['unit']}  "
                         f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
        lines.append(f"  {'error_rate':<12} {failed / attempted:.4f} ratio  "
                     f"({failed} of {attempted} jobs failed)")
    for job in done[-1]["jobs"]:
        lines.append(f"  job {job['name']:<16} {job['seconds']:.3f} s  sha256 {job['sha256']}")
    lines += [f"  FAILED {reason}" for reason in reasons]
    lines.append("run record: " + json.dumps(_run_record(workload, seed, passes), sort_keys=True))
    return {"lines": lines, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("the seed must fit in 64 bits, as the CLI's does")

    if not (ROOT / "src" / "cdslab" / "__init__.py").is_file():
        print(f"error: no cdslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for workload in chosen:
        try:
            result = run_workload(spec, workload, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as err:
            print(f"error: workload {workload}: {err}", file=sys.stderr)
            return 1
        print("\n".join(result["lines"]), flush=True)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(chosen) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
