"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q cdsbench
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = checks.REFERENCE_SEED


def _job(name):
    return next(j for w in workloads.WORKLOADS.values() for j in w.jobs if j.name == name)


def _reference_output(workload, name):
    return copy.deepcopy(checks.load_reference(workload)[name]["output"])


def _one_pass(job_name, reason, sha="same", referenced=True):
    return {"pid": 1, "jobs": [{"name": job_name, "reason": reason, "sha256": sha,
                                "reference_checked": referenced}]}


def test_reference_output_passes():
    reference = checks.load_reference("classical-exact")
    for name in ("neq-classical", "ip-psm", "hybrid", "bhm"):
        output = _reference_output("classical-exact", name)
        assert checks.check_job(_job(name), output, SEED, reference) == (None, True)


def test_fresh_outputs_match_the_reference(tmp_path):
    # run as a pass runs them, so in-memory forms such as tuples are covered
    workload = workloads.WORKLOADS["classical-exact"]
    ctx = workloads.Context(SEED, workload.make_inputs(SEED), tmp_path)
    reference = checks.load_reference("classical-exact")
    for name in ("ip-psm", "bhm"):
        output = checks.as_json(_job(name).run(ctx))
        assert checks.check_job(_job(name), output, SEED, reference) == (None, True)


def test_altered_report_counts_as_a_failed_job():
    reference = checks.load_reference("classical-exact")
    job = _job("neq-classical")
    alterations = []
    out = _reference_output("classical-exact", "neq-classical")
    out["report"][0]["delta_hat_upper"] += 1e-6
    alterations.append(out)
    out = _reference_output("classical-exact", "neq-classical")
    out["report"][1]["inputs"][0]["x"] += 1
    alterations.append(out)
    out = _reference_output("classical-exact", "neq-classical")
    out["report"][2]["protocol"] = "neq_cds(9)"
    alterations.append(out)
    out = _reference_output("classical-exact", "neq-classical")
    out["stdout"] = out["stdout"].replace("eps_hat=0", "eps_hat=0.001", 1)
    alterations.append(out)
    out = _reference_output("classical-exact", "neq-classical")
    out["stderr"] = "FAIL neq_cds(4): expected exact correctness\n"
    alterations.append(out)
    for altered in alterations:
        reason, _ = checks.check_job(job, altered, SEED, reference)
        assert reason is not None
        attempted, failed, _ = run._count_failures([_one_pass(job.name, reason)], [job.name])
        assert (attempted, failed) == (1, 1)


def test_exact_fractions_and_verdict_flags_must_match():
    reference = checks.load_reference("classical-exact")
    out = _reference_output("classical-exact", "bhm")
    num, den = out[0]["distribution"][0][1].split("/")
    out[0]["distribution"][0][1] = f"{int(num) + 1}/{den}"
    assert checks.check_job(_job("bhm"), out, SEED, reference)[0] is not None
    out = _reference_output("classical-exact", "bhm")
    out[1]["vote_identity_holds"] = False
    assert checks.check_job(_job("bhm"), out, SEED, reference)[0] is not None


def test_float_dust_within_tolerance_passes():
    reference = checks.load_reference("quantum")
    out = _reference_output("quantum", "complementary")
    out[0]["error"] += 1e-12
    assert checks.check_job(_job("complementary"), out, SEED, reference) == (None, True)
    text = "cheat=0.500000000 bound=0.707106781 PASS"
    assert checks.mismatch(text.replace("0.500000000", "0.500000001"), text) is None
    assert checks.mismatch(text.replace("0.500000000", "0.500000002"), text) is not None
    assert checks.mismatch(text.replace("PASS", "FAIL"), text) is not None


def test_recorded_seed_is_normalised_only_when_it_is_the_run_seed():
    reference = checks.load_reference("classical-exact")
    out = _reference_output("classical-exact", "ip-psm")
    for row in out["report"]:
        row["seed"] = 7
    assert checks.check_job(_job("ip-psm"), out, 7, reference) == (None, True)
    assert checks.check_job(_job("ip-psm"), out, 8, reference)[0] is not None


def test_seeded_outputs_off_the_reference_seed_must_repeat():
    job = _job("hybrid")
    out = _reference_output("classical-exact", "hybrid")
    assert checks.check_job(job, out, 7, {}) == (None, False)
    passes = [_one_pass("hybrid", None, "a", False), _one_pass("hybrid", None, "b", False)]
    assert run._count_failures(passes, ["hybrid"])[:2] == (2, 1)
    passes[1] = {"error": "worker exited with 1"}
    assert run._count_failures(passes, ["hybrid"])[:2] == (2, 1)


def _traced_cds_run():
    import cdslab.cli
    from cdslab import classical, verifier

    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.job = "neq-classical"
        with tracer.span("job.neq-classical"):
            report = verifier.cds_verify(classical.neq_cds(2), classical.neq_function(2))
    assert report.epsilon_hat == 0 and report.delta_hat == 0
    assert cdslab.cli.cds_verify is verifier.cds_verify
    return tracer


def test_tracer_counts_repeat_and_originals_come_back():
    import scipy.optimize

    import cdslab.cli
    from cdslab import classical, framework, quantum, verifier
    from cdslab.qcore import channels

    before = {
        "enumerate": framework.enumerate_message_distribution,
        "verifier_enumerate": verifier.enumerate_message_distribution,
        "cli_cds_verify": cdslab.cli.cds_verify,
        "gf_mul": classical.gf_mul,
        "apply_channel_matrix": channels.apply_channel_matrix,
        "hybrid_init": quantum.HybridNeqCdqs.__dict__["__init__"],
    }
    first, second = _traced_cds_run(), _traced_cds_run()
    after = {
        "enumerate": framework.enumerate_message_distribution,
        "verifier_enumerate": verifier.enumerate_message_distribution,
        "cli_cds_verify": cdslab.cli.cds_verify,
        "gf_mul": classical.gf_mul,
        "apply_channel_matrix": channels.apply_channel_matrix,
        "hybrid_init": quantum.HybridNeqCdqs.__dict__["__init__"],
    }
    assert all(after[k] is before[k] for k in before)
    assert verifier.linprog is scipy.optimize.linprog

    counts = [
        {k: v for k, v in t.layer_metrics(workloads.ALL_JOBS).items() if not k.endswith(("_s", ".s"))}
        for t in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["classical.gf_mul.calls"] > 0
    assert counts[0]["framework.enumerate.calls"] > 0
    assert counts[0]["verifier.inputs_certified"] == 16
    assert first.errors == 0
    names = {s["name"] for s in first.spans}
    assert {"job.neq-classical", "verifier.cds_verify", "framework.enumerate"} <= names


def test_metric_names_match_benchmark_json():
    layer_names = set(tracing.Tracer().layer_metrics(workloads.ALL_JOBS)) | {"trace.overhead_s"}
    assert layer_names == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
