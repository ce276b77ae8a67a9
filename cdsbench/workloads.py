"""The two workloads: their seeded inputs, their jobs and each job's verdict.

A job calls public cdslab entry points and returns a JSON-ready output.
``seeded`` marks a job whose output depends on the seed beyond the value
the CLI records in each report row; the other jobs are compared with the
stored reference output on every seed.  CLI suites run at their defaults
(no ``--workers``) through ``cdslab.cli.main``, the installed command's
entry point.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# Imported by every workload, so set-up time is comparable across them.
MODULES = (
    "cdslab",
    "cdslab.qcore",
    "cdslab.classical",
    "cdslab.framework",
    "cdslab.quantum",
    "cdslab.toys",
    "cdslab.forrelation",
    "cdslab.verifier",
    "cdslab.lowerbound",
    "cdslab.cli",
)

# Acceptance criterion 10 of the test suite uses the same tolerance.
COMPLEMENTARY_TOLERANCE = 1e-6
MAX_DIGITS = 64


@dataclass(frozen=True)
class Context:
    seed: int
    inputs: dict
    out_dir: Path


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[Context], object]
    verdict: Callable[[object], Optional[str]]
    seeded: bool


# -- CLI suites -----------------------------------------------------------

def _cli_job(name: str, args: list, seeded: bool) -> Job:
    def run(ctx: Context) -> dict:
        from cdslab import cli

        out = ctx.out_dir / f"{name}.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args + ["--seed", str(ctx.seed), "--out", str(out)])
        return {
            "exit_code": code,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "report": json.loads(out.read_text(encoding="utf-8")),
        }

    def verdict(output: dict) -> Optional[str]:
        if output["exit_code"] != 0:
            return f"exit code {output['exit_code']}"
        if "FAIL" in output["stdout"] or "FAIL" in output["stderr"]:
            return "the suite printed FAIL"
        return None

    return Job(name, run, verdict, seeded)


# -- Boolean Hidden Matching ----------------------------------------------

BHM_EDGES = 3


def _bhm_inputs(seed: int) -> list:
    from cdslab.quantum import bhm_instance

    seeds = [int(np.random.SeedSequence((seed, value)).generate_state(1)[0]) for value in (0, 1)]
    return [bhm_instance(BHM_EDGES, value, s) for value, s in zip((0, 1), seeds)]


def _bhm_run(ctx: Context) -> list:
    from cdslab.quantum import bhm_psqm, bhm_to_text

    psqm = bhm_psqm(BHM_EDGES)
    out = []
    for inst in ctx.inputs["bhm"]:
        secure = psqm.inner_layer_secure(inst)
        votes = psqm.vote_identity_holds(inst)
        dist = psqm.message_distribution(inst)
        out.append({
            "instance": bhm_to_text(inst),
            "inner_layer_secure": secure,
            "vote_identity_holds": votes,
            "total": str(sum(dist.values(), Fraction(0))),
            "distribution": [[key, str(p)] for key, p in sorted(dist.items())],
        })
    return out


def _bhm_verdict(output: list) -> Optional[str]:
    for entry in output:
        if not entry["inner_layer_secure"]:
            return "inner PSM layer is not secure"
        if not entry["vote_identity_holds"]:
            return "vote identity fails"
        if entry["total"] != "1":
            return f"distribution sums to {entry['total']}"
    return None


# -- proof lab ------------------------------------------------------------

def _proof_lab_job(name: str, protocol: str, function: str, k: int) -> Job:
    def run(ctx: Context) -> dict:
        from cdslab import toys
        from cdslab.lowerbound import proof_lab_report

        p, f = getattr(toys, protocol)(), getattr(toys, function)()
        return {"report": proof_lab_report(p, f, k)}

    def verdict(output: dict) -> Optional[str]:
        return "the report has a FAIL flag" if "FAIL" in output["report"] else None

    return Job(name, run, verdict, seeded=False)


def _complementary_run(ctx: Context) -> list:
    from cdslab.lowerbound import complementary_decode_check
    from cdslab.toys import lifted_neq, lifted_neq_function

    p, f = lifted_neq(), lifted_neq_function()
    return [
        {"x": x, "y": y, "error": complementary_decode_check(p, f, x, y)}
        for x, y in sorted(f.promise_pairs())
        if f.value(x, y) == 0
    ]


def _complementary_verdict(output: list) -> Optional[str]:
    worst = max(entry["error"] for entry in output)
    if worst > COMPLEMENTARY_TOLERANCE:
        return f"complementary decoding error {worst} above {COMPLEMENTARY_TOLERANCE}"
    return None


def _one_way_decision(p, f, x: int, y: int):
    """``(k, decision)`` at the smallest digit count ``one_way_decide`` accepts.

    A refused count costs one rejected call; the refusal message names the
    count needed, which the search jumps to.
    """
    from cdslab.lowerbound import one_way_decide

    k = 1
    while True:
        try:
            return k, one_way_decide(p, f, x, y, k)
        except ValueError as err:
            if k >= MAX_DIGITS:
                raise
            hint = re.search(r"at least (\d+) digits", str(err))
            k = max(k + 1, int(hint.group(1))) if hint else k + 1


def _one_way_run(ctx: Context) -> list:
    from cdslab.toys import lifted_neq, lifted_neq_function

    p, f = lifted_neq(), lifted_neq_function()
    out = []
    for x, y in sorted(f.promise_pairs()):
        k, decision = _one_way_decision(p, f, x, y)
        out.append({"x": x, "y": y, "digits": k, "decision": decision, "value": f.value(x, y)})
    return out


def _one_way_verdict(output: list) -> Optional[str]:
    for entry in output:
        if entry["decision"] != entry["value"]:
            return f"wrong one-way decision at ({entry['x']}, {entry['y']})"
    return None


# -- workloads ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    jobs: tuple
    make_inputs: Callable[[int], dict]


WORKLOADS = {
    "classical-exact": Workload(
        jobs=(
            _cli_job("neq-classical", ["--suite", "neq-classical", "--n", "4"], seeded=False),
            _cli_job("ip-psm", ["--suite", "ip-psm", "--n", "3"], seeded=False),
            _cli_job("hybrid", ["--suite", "hybrid", "--n", "16"], seeded=True),
            Job("bhm", _bhm_run, _bhm_verdict, seeded=True),
        ),
        make_inputs=lambda seed: {"bhm": _bhm_inputs(seed)},
    ),
    # Dense density matrices (toys, forrelation), then the proof lab's other
    # uses of qcore.  The proof-lab jobs are not seeded: the library's own
    # search seeds stay fixed and --seed is only recorded.
    "quantum": Workload(
        jobs=(
            _cli_job("toys", ["--suite", "toys"], seeded=False),
            _cli_job("forrelation", ["--suite", "forrelation"], seeded=True),
            _proof_lab_job("proof-lab-neq", "lifted_neq", "lifted_neq_function", 1),
            _proof_lab_job("proof-lab-gated", "gated_forwarding", "gated_function", 3),
            Job("complementary", _complementary_run, _complementary_verdict, seeded=False),
            Job("one-way", _one_way_run, _one_way_verdict, seeded=False),
        ),
        make_inputs=lambda seed: {},
    ),
}

ALL_JOBS = tuple(job.name for w in WORKLOADS.values() for job in w.jobs)
