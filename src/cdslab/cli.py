"""Batch experiment runner with deterministic seeding and report emission.

Every suite builds its report rows in order, so output bytes depend only
on the configuration and seed.  Reports are emitted as a JSON array of
verification-report objects or as a CSV with one row per report; suites
that measure extra quantities (T-depth, cheating estimates) add columns to
the CSV only, keeping the JSON schema fixed.

Seed propagation: the configured 64-bit seed is recorded verbatim in every
report row; suites that need several streams derive them from it, so no
stream is reused: ``numpy.random.SeedSequence(seed)`` for the forrelation
instances, ``SeedSequence((seed, 1, n))`` for the votes at size ``n`` and
``SeedSequence((seed, n))`` for the hybrid inputs at size ``n``.

Exit codes: 0 all assertions hold, 1 an assertion failed, 2 usage or
configuration error or a size the suite refuses (no files are written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .classical import ip_function, ip_psm, neq_cds, neq_function, promise_neq_function
from .forrelation import (
    acceptance_probability,
    compile_clifford_t,
    forrelation_circuit,
    forrelation_decision,
    instance_suite,
    t_depth,
    vote_error_bound,
)
from .framework import CostReport
from .lowerbound import build_two_prover_proof, soundness_bound, two_prover_checks
from .quantum import HybridNeqCdqs
from .toys import (
    gated_forwarding,
    gated_function,
    lifted_neq,
    lifted_neq_function,
    toy_suite,
)
from .verifier import VerificationReport, cds_verify, cdqs_verify, psm_verify

Row = Tuple[VerificationReport, Dict[str, object]]

_CSV_COLUMNS = (
    "n",
    "cost_bits",
    "cost_qubits",
    "epsilon_hat",
    "delta_hat_lower",
    "delta_hat_upper",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: a suite, its size parameters, and output choices.

    The seed is recorded in every emitted report and is the only source of
    randomness; identical configs produce byte-identical files.
    """

    suite: str
    n: Optional[int] = None
    k: Optional[int] = None
    reps: Optional[int] = None
    seed: int = 2026
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITES:
            known = ", ".join(sorted(SUITES))
            raise ValueError(f"unknown suite {self.suite!r}; known suites: {known}")
        for name in ("n", "k", "reps", "seed"):
            value = getattr(self, name)
            if (value is not None or name == "seed") and (
                    not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a file path string, got {self.out!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed {self.seed} does not fit in 64 bits")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be 'json' or 'csv', got {self.format!r}")
        reads = SUITES[self.suite][1]
        for name in ("n", "k", "reps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
            if value is not None and name not in reads:
                raise ValueError(f"suite {self.suite} does not read {name}; it reads "
                                 + (", ".join(reads) or "none of n, k, reps"))

    @classmethod
    def from_mapping(cls, values: Mapping) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        extra = sorted(set(values) - known)
        if extra:
            raise ValueError(f"unknown config fields: {', '.join(extra)}")
        if "suite" not in values or values["suite"] is None:
            raise ValueError("a suite is required (--suite or config file)")
        return cls(**dict(values))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_neq_classical(cfg: ExperimentConfig):
    top = cfg.n or 4
    rows: List[Row] = [
        (cds_verify(neq_cds(size), neq_function(size), seed=cfg.seed), {})
        for size in range(1, top + 1)
    ]
    failures = [
        f"neq_cds({rep.n}): expected exact correctness and hiding, "
        f"got eps={rep.epsilon_hat} delta={rep.delta_hat}"
        for rep, _ in rows
        if rep.epsilon_hat != 0 or rep.delta_hat != 0
    ]
    return rows, failures


def _suite_ip_psm(cfg: ExperimentConfig):
    top = cfg.n or 2
    if top > 3:
        raise ValueError("ip-psm enumerates exhaustively; n must be at most 3")
    rows: List[Row] = [
        (psm_verify(ip_psm(size), ip_function(size), seed=cfg.seed), {})
        for size in range(1, top + 1)
    ]
    failures = [
        f"ip_psm({rep.n}): expected exact correctness and privacy, "
        f"got eps={rep.epsilon_hat} delta={rep.delta_hat}"
        for rep, _ in rows
        if rep.epsilon_hat != 0 or rep.delta_hat != 0
    ]
    return rows, failures


def hybrid_input_sample(n: int, seed: int) -> list:
    """Deterministic promise inputs for the hybrid protocol at size ``n``:
    64 equal pairs alternating with 64 pairs at Hamming distance ``n/2``
    (fewer once duplicates go).  Each string is drawn as ``ceil(n/64)``
    unsigned 64-bit words, least significant first."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    inputs = []
    for _ in range(64):
        words = rng.integers(0, 1 << min(n, 64), size=-(-n // 64), dtype=np.uint64)
        x = sum(int(w) << (64 * i) for i, w in enumerate(words))
        inputs.append((x, x))
        mask = 0
        for pos in rng.permutation(n)[: n // 2]:
            mask |= 1 << int(pos)
        inputs.append((x, x ^ mask))
    return sorted(set(inputs))


def _suite_hybrid(cfg: ExperimentConfig):
    n = cfg.n or 8
    f = promise_neq_function(n)
    p = HybridNeqCdqs(n)
    inputs = None if n <= 4 else hybrid_input_sample(n, cfg.seed)
    rep = cdqs_verify(p, f, inputs=inputs, seed=cfg.seed)
    rows: List[Row] = [(rep, {})]
    failures = []
    if rep.epsilon_hat != 0 or rep.delta_hat > 1e-9:
        failures.append(
            f"hybrid({n}): expected exact correctness and hiding within 1e-9, "
            f"got eps={rep.epsilon_hat} delta={rep.delta_hat}"
        )
    return rows, failures


def _suite_toys(cfg: ExperimentConfig):
    rows: List[Row] = []
    failures = []
    for p, f in toy_suite():
        rep = cdqs_verify(p, f, seed=cfg.seed)
        rows.append((rep, {"passes": rep.passes()}))
        if not rep.passes():
            failures.append(
                f"{rep.protocol}: expected a passing toy, "
                f"got eps={rep.epsilon_hat} delta={rep.delta_hat}"
            )
    return rows, failures


def _suite_two_prover(cfg: ExperimentConfig):
    k = cfg.k or 1
    if k == 1:
        p, f = lifted_neq(), lifted_neq_function()
    else:
        # repeated lifted protocols exceed the dense simulation budget
        p, f = gated_forwarding(), gated_function()
    rep = cdqs_verify(p, f, seed=cfg.seed)
    tp = build_two_prover_proof(p, k)
    checks = two_prover_checks(tp, f, f.promise_pairs(), rep.epsilon_hat, rep.delta_hat)
    failures = []
    for c in checks:
        at = f"at ({c['x']}, {c['y']})"
        if not c.get("honest_ok", True):
            failures.append(f"honest acceptance {c['honest']} below {c['floor']} {at}")
        if not c.get("cheat_ok", True):
            failures.append(f"cheat estimate {c['cheat'].estimate} above {c['bound']} {at}")
        if not c.get("orthogonality_ok", True):
            failures.append(f"orthogonality {c['orthogonality']} too high {at}")
    hiding = [c for c in checks if c["value"] == 0]
    extras = {
        "k": k,
        "honest_min": min((c["honest"] for c in checks if c["value"] == 1), default=""),
        "cheat_max": max((c["cheat"].estimate for c in hiding), default=""),
        "cheat_bound": soundness_bound(k, rep.delta_hat),
        "orthogonality_max": max((c["orthogonality"] for c in hiding), default=""),
    }
    return [(rep, extras)], failures


def _suite_forrelation(cfg: ExperimentConfig):
    ns = (cfg.n,) if cfg.n else (4, 8, 16, 32)
    reps = cfg.reps or 15
    per_side = 10

    def sweep_point(n):
        circuit = forrelation_circuit(n)
        depth = t_depth(compile_clifford_t(circuit))
        instances = instance_suite(cfg.seed, ns=(n,), per_side=per_side)
        vote_seeds = np.random.SeedSequence((cfg.seed, 1, n)).spawn(len(instances))
        p0s = acceptance_probability(
            circuit, [inst.x for inst in instances], [inst.y for inst in instances]
        )
        wrong = 0
        bounds = []
        for inst, p0, vote_seed in zip(instances, p0s.tolist(), vote_seeds):
            decision = forrelation_decision(p0, reps, seed=vote_seed)
            wrong += decision != inst.answer
            bounds.append(vote_error_bound(p0, inst.side, reps))
        rep = VerificationReport(
            protocol=f"forrelation({n})",
            n=n,
            epsilon_hat=wrong / len(instances),
            delta_hat_lower=0.0,
            delta_hat_upper=0.0,
            inputs=(),
            cost=CostReport(comm_bits=0, comm_qubits=circuit.wire_count,
                            shared_random_bits=0, shared_epr_pairs=0),
            seed=cfg.seed,
        )
        extras = {
            "t_depth": depth,
            "reps": reps,
            "vote_error_bound": sum(bounds) / len(bounds),
            "worst_vote_error": max(bounds),
        }
        return rep, extras

    rows: List[Row] = [sweep_point(n) for n in ns]
    failures = []
    depths = {extras["t_depth"] for _, extras in rows}
    if len(depths) > 1:
        failures.append(f"T-depth is not constant across sizes: {sorted(depths)}")
    for rep, extras in rows:
        # the decision-error budget is a suite average; single instances near
        # the promise threshold may exceed it and are reported, not failed
        if extras["vote_error_bound"] > 0.09:
            failures.append(
                f"{rep.protocol}: mean vote error bound {extras['vote_error_bound']}"
                " above 0.09"
            )
    return rows, failures


#: each suite's runner and the size fields it reads; setting another is a
#: configuration error
SUITES: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {
    "neq-classical": (_suite_neq_classical, ("n",)),
    "ip-psm": (_suite_ip_psm, ("n",)),
    "hybrid": (_suite_hybrid, ("n",)),
    "toys": (_suite_toys, ()),
    "two-prover": (_suite_two_prover, ("k",)),
    "forrelation": (_suite_forrelation, ("n", "reps")),
}


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def emit_report(rows: Sequence[Row], out: str, fmt: str) -> List[str]:
    """Write the merged rows to ``out`` and return the written paths.

    JSON output is an array of verification-report objects (an empty run
    yields ``[]``); CSV output has one row per report with the plot-ready
    columns first and any suite-specific extras after them.
    """
    if fmt == "json":
        payload = [rep.as_dict() for rep, _ in rows]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        extra_keys = sorted({key for _, extras in rows for key in extras})
        header = list(_CSV_COLUMNS) + extra_keys
        lines = [",".join(header)]
        for rep, extras in rows:
            cells = [
                _csv_cell(rep.n),
                _csv_cell(rep.cost.comm_bits),
                _csv_cell(rep.cost.comm_qubits),
                _csv_cell(rep.epsilon_hat),
                _csv_cell(rep.delta_hat_lower),
                _csv_cell(rep.delta_hat_upper),
            ]
            cells += [_csv_cell(extras.get(key, "")) for key in extra_keys]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return [out]


def run_suite(config: ExperimentConfig):
    """Run the configured suite; return ``(exit_code, written_paths)``."""
    rows, failures = SUITES[config.suite][0](config)
    paths: List[str] = []
    if config.out is not None:
        paths = emit_report(rows, config.out, config.format)
    for rep, _ in rows:
        print(
            f"{config.suite}: {rep.protocol} eps_hat={rep.epsilon_hat:.6g} "
            f"delta_hat=[{rep.delta_hat_lower:.6g}, {rep.delta_hat_upper:.6g}]"
        )
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    return (1 if failures else 0), paths


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdslab",
        description="Run a verification suite and emit its report.",
    )
    parser.add_argument("--suite", choices=sorted(SUITES), help="suite to run")
    parser.add_argument("--n", type=int, help="protocol size (all but toys, two-prover)")
    parser.add_argument("--k", type=int, help="parallel repetitions (two-prover)")
    parser.add_argument("--reps", type=int, help="vote repetition count (forrelation)")
    parser.add_argument("--seed", type=int, help="64-bit experiment seed")
    parser.add_argument("--out", help="report file path")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")
    parser.add_argument("--config", help="JSON config file (overrides flags)")
    return parser


def _load_config_file(path: str) -> Mapping:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        values = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"config parse error in {path} at line {err.lineno}, "
            f"column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(values, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    merged = {
        key: value
        for key, value in vars(args).items()
        if key != "config" and value is not None
    }
    try:
        if args.config is not None:
            merged.update(_load_config_file(args.config))
        config = ExperimentConfig.from_mapping(merged)
    except (ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        code, _ = run_suite(config)
    except ValueError as err:  # raised while building rows, before any file
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
