"""Output checks: the stored reference, float tolerance and report digests.

Every non-float value must match the reference exactly.  Floats, and the
numbers inside text such as CLI lines and proof-lab reports, may differ by
``FLOAT_TOLERANCE`` in absolute value, because BLAS rounding differs
between CPUs.  Fractions are stored as strings, so they match exactly.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Optional

REFERENCE_SEED = 2026
FLOAT_TOLERANCE = 1e-9
# Slack for numbers printed with a fixed number of decimals: two values a
# rounding step apart parse to a difference a few ulps above the step.
_PARSE_SLACK = 1e-15

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def canonical(output) -> str:
    return json.dumps(output, sort_keys=True, separators=(",", ":"))


def as_json(output):
    """``output`` as it reads back from JSON (tuples become lists), the
    form in which references are stored."""
    return json.loads(canonical(output))


def digest(output) -> str:
    return hashlib.sha256(canonical(output).encode("utf-8")).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOLERANCE + _PARSE_SLACK


def _text_mismatch(got: str, want: str) -> Optional[str]:
    got_numbers, want_numbers = _NUMBER.findall(got), _NUMBER.findall(want)
    if _NUMBER.split(got) != _NUMBER.split(want) or len(got_numbers) != len(want_numbers):
        return "text differs outside its numbers"
    for g, w in zip(got_numbers, want_numbers):
        if not _close(float(g), float(w)):
            return f"number {g} differs from {w}"
    return None


def mismatch(got, want, path: str = "$") -> Optional[str]:
    """First difference between ``got`` and ``want``, or None."""
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) and _close(got, want):
            return None
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, str) and isinstance(got, str):
        reason = _text_mismatch(got, want)
        return f"{path}: {reason}" if reason else None
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            reason = mismatch(got[key], want[key], f"{path}.{key}")
            if reason:
                return reason
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            reason = mismatch(g, w, f"{path}[{i}]")
            if reason:
                return reason
        return None
    return None if got == want and type(got) is type(want) else f"{path}: {got!r} != {want!r}"


def _as_reference_seed(output, seed: int):
    """A CLI output with the recorded seed replaced by the reference seed.

    Every report row records the run's seed; a row recording another value
    is left alone, so the comparison fails on it.
    """
    if not (isinstance(output, dict) and isinstance(output.get("report"), list)):
        return output
    rows = [
        dict(row, seed=REFERENCE_SEED) if row.get("seed") == seed else row
        for row in output["report"]
    ]
    return dict(output, report=rows)


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)["jobs"]


def check_job(job, output, seed: int, reference: dict) -> tuple:
    """``(reason or None, reference_checked)`` for one job's output.

    The job's own verdict always applies.  The reference applies on the
    reference seed and, for jobs whose inputs do not depend on the seed,
    on every seed.  Outputs not compared with the reference must instead
    repeat byte for byte across the passes of a run.
    """
    reason = job.verdict(output)
    use_reference = seed == REFERENCE_SEED or not job.seeded
    if reason is None and use_reference:
        reason = mismatch(_as_reference_seed(output, seed), reference[job.name]["output"])
    return reason, use_reference
