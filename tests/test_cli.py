"""Command-line runner: config handling, suite execution, report files."""

import hashlib
import json

import pytest

from cdslab.cli import (
    ExperimentConfig,
    emit_report,
    hybrid_input_sample,
    main,
    run_suite,
)
from cdslab.framework import CostReport
from cdslab.verifier import VerificationReport


def _report(n=1, eps=0.0):
    return VerificationReport(
        protocol=f"stub({n})",
        n=n,
        epsilon_hat=eps,
        delta_hat_lower=0.0,
        delta_hat_upper=0.0,
        inputs=(),
        cost=CostReport(comm_bits=2, comm_qubits=0, shared_random_bits=1,
                        shared_epr_pairs=0),
        seed=5,
    )


def test_config_from_mapping_fills_defaults():
    cfg = ExperimentConfig.from_mapping({"suite": "toys"})
    assert cfg.seed == 2026
    assert cfg.format == "json"
    assert cfg.n is None and cfg.out is None


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields: colour, shape"):
        ExperimentConfig.from_mapping({"suite": "toys", "shape": 1, "colour": 2})


def test_config_requires_a_suite():
    with pytest.raises(ValueError, match="suite is required"):
        ExperimentConfig.from_mapping({"n": 4})


def test_config_validates_fields():
    with pytest.raises(ValueError, match="unknown suite"):
        ExperimentConfig(suite="nope")
    with pytest.raises(ValueError, match="64 bits"):
        ExperimentConfig(suite="toys", seed=-1)
    with pytest.raises(ValueError, match="64 bits"):
        ExperimentConfig(suite="toys", seed=1 << 64)
    with pytest.raises(ValueError, match="format"):
        ExperimentConfig(suite="toys", format="yaml")
    with pytest.raises(ValueError, match="n must be positive"):
        ExperimentConfig(suite="toys", n=0)


def test_config_rejects_fields_the_suite_does_not_read():
    with pytest.raises(ValueError, match="suite toys does not read n; it reads none"):
        ExperimentConfig(suite="toys", n=3)
    with pytest.raises(ValueError, match="suite two-prover does not read reps; it reads k"):
        ExperimentConfig.from_mapping({"suite": "two-prover", "k": 2, "reps": 3})
    assert ExperimentConfig(suite="forrelation", n=4, reps=5).reps == 5


def test_emit_report_empty_is_a_valid_document(tmp_path):
    out = tmp_path / "empty.json"
    emit_report([], str(out), "json")
    assert json.loads(out.read_text()) == []
    out_csv = tmp_path / "empty.csv"
    emit_report([], str(out_csv), "csv")
    lines = out_csv.read_text().splitlines()
    assert lines == ["n,cost_bits,cost_qubits,epsilon_hat,delta_hat_lower,delta_hat_upper"]


def test_emit_report_csv_rows_and_extras(tmp_path):
    rows = [(_report(1), {"t_depth": 2}), (_report(2, eps=0.5), {"t_depth": 2})]
    out = tmp_path / "r.csv"
    emit_report(rows, str(out), "csv")
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",t_depth")
    assert lines[1] == "1,2,0,0,0,0,2"
    assert lines[2] == "2,2,0,0.5,0,0,2"


def test_emit_report_json_matches_schema(tmp_path):
    out = tmp_path / "r.json"
    emit_report([(_report(), {"ignored": 1})], str(out), "json")
    payload = json.loads(out.read_text())
    assert len(payload) == 1
    assert sorted(payload[0]) == [
        "cost", "delta_hat_lower", "delta_hat_upper", "epsilon_hat",
        "inputs", "n", "protocol", "seed", "wall_time_ms",
    ]
    assert "ignored" not in payload[0]


def test_neq_classical_suite_runs_clean(tmp_path, capsys):
    out = tmp_path / "neq.json"
    cfg = ExperimentConfig(suite="neq-classical", n=4, seed=9, out=str(out))
    code, paths = run_suite(cfg)
    assert code == 0 and paths == [str(out)]
    payload = json.loads(out.read_text())
    assert [entry["n"] for entry in payload] == [1, 2, 3, 4]
    assert all(entry["epsilon_hat"] == 0 for entry in payload)
    assert all(entry["delta_hat_upper"] == 0 for entry in payload)
    assert "neq_cds(4)" in capsys.readouterr().out


def test_forrelation_suite_has_constant_t_depth(tmp_path):
    out = tmp_path / "forr.csv"
    cfg = ExperimentConfig(suite="forrelation", seed=3, out=str(out), format="csv")
    code, _ = run_suite(cfg)
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    depth_column = header.index("t_depth")
    depths = {line.split(",")[depth_column] for line in lines[1:]}
    assert len(lines) == 5  # header + one row per size in {4, 8, 16, 32}
    assert len(depths) == 1
    bound_column = header.index("vote_error_bound")
    assert all(float(line.split(",")[bound_column]) <= 0.09 for line in lines[1:])
    # determinism contract on the emitted bytes
    again = tmp_path / "forr2.csv"
    run_suite(ExperimentConfig(suite="forrelation", seed=3, out=str(again), format="csv"))
    assert again.read_text() == out.read_text()


def test_hybrid_suite_runs_clean(tmp_path):
    cfg = ExperimentConfig(suite="hybrid", n=8, seed=11)
    code, paths = run_suite(cfg)
    assert code == 0 and paths == []
    # n = 64, where log n and n differ widely, from the command line
    out = tmp_path / "hybrid.json"
    assert main(["--suite", "hybrid", "--n", "64", "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())
    assert entry["protocol"] == "neq_promise_cdqs(64)"
    assert entry["epsilon_hat"] == 0
    assert [entry["delta_hat_lower"], entry["delta_hat_upper"]] == [0, 0]


@pytest.mark.parametrize("fmt, digest", [
    ("json", "0acd37845de6c536a8c3394ba96be943ad559bb887e6006141a80b0a74c2b874"),
    ("csv", "934fc1c1587db0ec15f7c2cc512db3baaab1c5c109739cbb65e8315a15d24035"),
])
def test_hybrid_report_is_pinned_at_the_default_seed(tmp_path, fmt, digest):
    # the transcript regime's report bytes: inputs, measures and cost at n = 64
    out = tmp_path / f"hybrid.{fmt}"
    argv = ["--suite", "hybrid", "--n", "64", "--seed", "2026", "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, fmt, digest", [
    (["--suite", "toys"], "json",
     "8f1f67bed2c3aefe0a1e087beaaea8d7d3e67fac5b36b099917966251adde08d"),
    (["--suite", "toys"], "csv",
     "a999105525d9f55b71e8a13dcff5d0bac19e70d0fe1073852252967165199a10"),
    (["--suite", "two-prover", "--k", "1"], "json",
     "9570405e6f36fba8ce474a3ba8f993ccdb41847d08042cf4a207c707a6bbfae5"),
    (["--suite", "two-prover", "--k", "1"], "csv",
     "d8c874d4e856a3b607654f3cdc82973a2ef0a553ed86eb330d1d6fa359d3ea64"),
])
def test_dense_reports_are_pinned_at_the_default_seed(tmp_path, args, fmt, digest):
    # the dense regime's report bytes: the toys' measures through density
    # matrices, and the proof lab's purified runs, see-saw and orthogonality
    out = tmp_path / f"report.{fmt}"
    assert main(args + ["--seed", "2026", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, fmt, digest", [
    (["--suite", "neq-classical", "--n", "4"], "json",
     "898758406f20d2f9dc1c7d387b4a03ce4595cb6d160e8613a7dfff20c1d90af5"),
    (["--suite", "neq-classical", "--n", "4"], "csv",
     "6409a819d0522537bc827140599ad4795b599f8d522d4dfbf5094434fe790c88"),
    (["--suite", "ip-psm", "--n", "3"], "json",
     "dbe9c9e2cd511af50682528493fadfbd68d3f553e6d4790f66eefa17bd02c9b9"),
    (["--suite", "ip-psm", "--n", "3"], "csv",
     "e532b8addb2da6b7e3efe35e9aac767865edba010a8b278846406d65332f5620"),
])
def test_classical_reports_are_pinned_at_the_default_seed(tmp_path, args, fmt, digest):
    # the classical regime's report bytes: exact decode failures and
    # simulator distances of every input, through the enumeration grid
    out = tmp_path / f"report.{fmt}"
    assert main(args + ["--seed", "2026", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_hybrid_input_sample_is_deterministic_and_on_promise():
    sample = hybrid_input_sample(8, seed=11)
    assert sample == hybrid_input_sample(8, seed=11)
    assert sample != hybrid_input_sample(8, seed=12)
    for x, y in sample:
        diff = bin(x ^ y).count("1")
        assert diff in (0, 4)
    # past one int64: 64-bit words, every one of them drawn
    for n in (64, 128):
        sample = hybrid_input_sample(n, seed=2026)
        assert len(sample) == 128
        for x, y in sample:
            assert 0 <= x < (1 << n) and 0 <= y < (1 << n)
            assert (x ^ y).bit_count() in (0, n // 2)
        assert max(x for x, _ in sample).bit_length() > n - 4


@pytest.mark.parametrize("n, size, head, digest", [
    (8, 119, [(0, 0), (0, 29), (0, 30)],
     "52d3afb114685ee9cccee07ba6032ecffdf666bd96c434c1409ba9caf5daa25f"),
    (16, 128, [(3111, 3111), (3111, 22436), (4435, 4435)],
     "8e3b310e49eabb3fb8c72433cf4417f48611d3eaf44af6f35ca9d0b0dd0554e1"),
])
def test_hybrid_input_sample_is_pinned_at_the_default_seed(n, size, head, digest):
    # the inputs the n = 8 and n = 16 hybrid reports are verified on
    sample = hybrid_input_sample(n, seed=2026)
    assert len(sample) == size and sample[:3] == head
    assert hashlib.sha256(repr(sample).encode()).hexdigest() == digest


def test_two_prover_suite_meets_the_thresholds(tmp_path):
    out = tmp_path / "tp.csv"
    cfg = ExperimentConfig(suite="two-prover", k=1, seed=4, out=str(out), format="csv")
    code, _ = run_suite(cfg)
    assert code == 0
    header, row = out.read_text().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert float(record["honest_min"]) >= 1 - 1e-9
    assert float(record["cheat_max"]) <= 0.7072
    assert float(record["orthogonality_max"]) <= 1e-9


def test_two_prover_suite_on_repetitions_uses_a_small_toy():
    cfg = ExperimentConfig(suite="two-prover", k=3, seed=4)
    code, _ = run_suite(cfg)
    assert code == 0


def test_main_config_file_overrides_flags(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"suite": "ip-psm", "n": 2, "seed": 5}))
    code = main(["--suite", "neq-classical", "--n", "1", "--config", str(cfg_file)])
    assert code == 0
    assert "ip_psm(2)" in capsys.readouterr().out


def test_main_rejects_malformed_config_without_partial_files(tmp_path, capsys):
    cfg_file = tmp_path / "broken.json"
    cfg_file.write_text('{"suite": "toys",\n  broken\n}')
    out = tmp_path / "report.json"
    code = main(["--config", str(cfg_file), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_main_rejects_unknown_config_fields(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"suite": "toys", "bogus": 1}))
    assert main(["--config", str(cfg_file)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--suite", "ip-psm", "--n", "4"],
    ["--suite", "hybrid", "--n", "6"],
    ["--suite", "forrelation", "--n", "3"],
    ["--suite", "two-prover", "--k", "7"],  # over the dense budget
    # a size field the suite does not read
    ["--suite", "toys", "--n", "3"],
    ["--suite", "two-prover", "--k", "2", "--reps", "3"],
    ["--suite", "neq-classical", "--n", "2", "--k", "1"],
    ["--suite", "hybrid", "--reps", "3"],
    ["--suite", "forrelation", "--k", "1"],
])
def test_main_refused_sizes_exit_2_without_files(tmp_path, capsys, args):
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()

@pytest.mark.parametrize("values", [
    {"suite": "neq-classical", "n": 2.5},
    {"suite": "neq-classical", "n": True},
    {"suite": "toys", "seed": 1.5},
    {"suite": "toys", "seed": None},
    {"suite": "two-prover", "k": "1"},
    {"suite": "forrelation", "reps": 3.0},
    {"suite": "ip-psm", "n": 1, "out": 2},
])
def test_main_rejects_mistyped_config_values_without_files(tmp_path, monkeypatch, capsys, values):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": "report.json", **values}))
    assert main(["--config", "cfg.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]


def test_main_requires_a_suite(capsys):
    assert main([]) == 2
    assert "suite is required" in capsys.readouterr().err


def test_main_rejects_unknown_suite_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "nope"])
    assert exc.value.code == 2


def test_main_happy_path_writes_the_report(tmp_path):
    out = tmp_path / "r.json"
    assert main(["--suite", "neq-classical", "--n", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())[0]["protocol"] == "neq_cds(1)"
