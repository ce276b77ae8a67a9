"""Acceptance gate: one test per shipped claim, one printed line per claim.

Every criterion prints ``criterion NN PASS`` (or FAIL) so a plain
``pytest -s tests/test_acceptance.py`` doubles as the release checklist.
Tolerances are part of the claims and appear explicitly in the assertions.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from cdslab import lowerbound as lb
from cdslab.classical import ip_function, ip_psm, neq_cds, neq_function, promise_neq_function
from cdslab.cli import ExperimentConfig, hybrid_input_sample, run_suite
from cdslab.forrelation import (
    acceptance_probability,
    circuit_unitary,
    compile_clifford_t,
    forr_value,
    forrelation_circuit,
    forrelation_decision,
    instance_suite,
    t_depth,
)
from cdslab.framework import protocol_cost
from cdslab.qcore import (
    DensityMatrix,
    ensemble_sqrt_fidelity_check,
    fuchs_van_de_graaf_gaps,
    maximally_mixed,
)
from cdslab.quantum import (
    bhm_instance,
    bhm_psqm,
    HybridNeqCdqs,
    dj_equal_probability,
)
from cdslab.toys import (
    always_one_function,
    depolarized,
    gated_forwarding,
    gated_function,
    leaky,
    lifted_and,
    lifted_and_function,
    lifted_neq,
    lifted_neq_function,
    toy_suite,
    trivial_forwarding,
)
from cdslab.verifier import cds_verify, cdqs_verify, productness_check, psm_verify


@contextmanager
def criterion(number: int, text: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {text}")
        raise
    print(f"criterion {number:02d} PASS  {text}  [{time.perf_counter() - start:.1f}s]")


def test_criterion_01_perfect_classical_neq():
    with criterion(1, "classical NEQ CDS is exactly correct and hiding, n <= 4, < 5 s"):
        start = time.perf_counter()
        for n in (1, 2, 3, 4):
            rep = cds_verify(neq_cds(n), neq_function(n))
            assert rep.epsilon_hat == 0
            assert rep.delta_hat == 0
        assert time.perf_counter() - start < 5.0


def test_criterion_02_dj_shortening():
    with criterion(2, "distributed DJ: equal inputs agree w.p. 1, half-distance w.p. 0"):
        rng = np.random.default_rng(20260825)
        for n in (2, 4, 8, 16):
            for _ in range(5):
                x = int(rng.integers(0, 1 << n))
                assert abs(float(dj_equal_probability(x, x, n)) - 1.0) <= 1e-9
                mask = 0
                for pos in rng.permutation(n)[: n // 2]:
                    mask |= 1 << int(pos)
                assert abs(float(dj_equal_probability(x, x ^ mask, n))) <= 1e-9


HYBRID_COST_TABLE = {
    4: {"comm_bits": 14, "comm_qubits": 1, "shared_random_bits": 8, "shared_epr_pairs": 2},
    8: {"comm_bits": 20, "comm_qubits": 1, "shared_random_bits": 12, "shared_epr_pairs": 3},
    16: {"comm_bits": 26, "comm_qubits": 1, "shared_random_bits": 16, "shared_epr_pairs": 4},
}


def test_criterion_03_hybrid_promise_neq():
    with criterion(3, "hybrid promise-NEQ CDQS: exact correctness, hiding <= 1e-9, logarithmic cost"):
        for n in (4, 8, 16):
            p = HybridNeqCdqs(n)
            f = promise_neq_function(n)
            inputs = None if n <= 4 else hybrid_input_sample(n, seed=2026)
            rep = cdqs_verify(p, f, inputs=inputs)
            assert rep.epsilon_hat == 0
            assert rep.delta_hat <= 1e-9
            cost = protocol_cost(p).as_dict()
            assert cost == HYBRID_COST_TABLE[n]
            assert cost["shared_epr_pairs"] == int(math.log2(n))
            assert cost["comm_bits"] == 6 * int(math.log2(n)) + 2
            print(f"    hybrid n={n}: {cost}")


def test_criterion_04_ip_psm():
    with criterion(4, "inner-product PSM: exhaustively correct and LP-certified private, < 10 s"):
        start = time.perf_counter()
        for n in (1, 2, 3):
            rep = psm_verify(ip_psm(n), ip_function(n))
            assert rep.epsilon_hat == 0
            assert rep.delta_hat_lower == 0
            assert rep.delta_hat_upper == 0
        assert time.perf_counter() - start < 10.0


def test_criterion_05_bhm_psqm():
    with criterion(5, "BHM PSQM: vote correct w.p. >= 2/3, vote identity, private inner layer"):
        for n in (2, 4, 6):
            proto = bhm_psqm(n)
            equality_cases = 0
            for seed in range(100):
                inst = bhm_instance(n, seed & 1, seed)
                correctness = proto.correctness_probability(inst)
                assert correctness >= Fraction(2, 3)
                equality_cases += correctness == Fraction(2, 3)
                assert proto.vote_identity_holds(inst)
                assert proto.inner_layer_secure(inst)
            print(f"    bhm 2n={2 * n}: 100 instances, {equality_cases} at exactly 2/3")


def _direct_forrelation(z):
    half = len(z) // 2
    total = 0.0
    for a in range(half):
        for b in range(half):
            sign = -1.0 if bin(a & b).count("1") % 2 else 1.0
            total += z[a] * sign * z[half + b]
    return total / (len(z) * math.sqrt(half))


def test_criterion_06_forrelation():
    with criterion(6, "forrelation: oracle match, faithful compilation, constant T-depth, 0.09 error"):
        rng = np.random.default_rng(6)
        for n in (4, 16, 64):
            z = list(2 * rng.integers(0, 2, 2 * (n // 2)) - 1)
            assert abs(forr_value(z) - _direct_forrelation(z)) <= 1e-12

        depths = set()
        for n in (4, 8, 16, 32):
            c = forrelation_circuit(n)
            cc = compile_clifford_t(c)
            depths.add(t_depth(cc))
            x = 2.0 * rng.integers(0, 2, n) - 1
            y = 2.0 * rng.integers(0, 2, n) - 1
            if c.wire_count <= 10:
                gap = np.max(np.abs(circuit_unitary(c, x, y) - circuit_unitary(cc, x, y)))
                assert gap <= 1e-9
            assert abs(
                acceptance_probability(c, x, y) - acceptance_probability(cc, x, y)
            ) <= 1e-12
        assert len(depths) == 1

        suite = instance_suite(20260825)
        assert len(suite) == 200
        seeds = np.random.SeedSequence(20260825).spawn(len(suite))
        wrong = sum(
            forrelation_decision(
                acceptance_probability(forrelation_circuit(inst.n), inst.x, inst.y), 15, seed=seed
            ) != inst.answer
            for inst, seed in zip(suite, seeds)
        )
        assert wrong / len(suite) <= 0.09
        print(f"    majority vote at reps=15: {wrong}/200 wrong")


def test_criterion_07_productness_both_directions():
    with criterion(7, "productness: hiding inputs near product, disclosing inputs decodable"):
        cases = list(toy_suite())
        cases.append((HybridNeqCdqs(4), promise_neq_function(4)))
        cases.append((depolarized(trivial_forwarding(), 0.1), always_one_function()))
        cases.append((leaky(0.05), gated_function()))
        for p, f in cases:
            for entry in productness_check(p, f):
                assert entry["ok"], f"{p.construction} failed at {entry}"


def test_criterion_08_one_way_reduction():
    with criterion(8, "one-way reduction decides every promise input at the minimum digit count"):
        gamma = lb.gamma_threshold(0.0, 0.0, 2)
        for p, f in ((lifted_neq(), lifted_neq_function()), (lifted_and(), lifted_and_function())):
            x0, y0 = next(iter(f.promise_pairs()))
            _, probe = lb.quantized_product_gap(p, x0, y0, 40)
            qubits = int(math.log2(np.prod([d for _, d in probe.layout])))
            k = lb.required_digits(qubits, 0, gamma)
            for x, y in f.promise_pairs():
                assert lb.one_way_decide(p, f, x, y, k) == f.value(x, y)
                _, record = lb.quantized_product_gap(p, x, y, k)
                assert record.l1_error <= math.sqrt(2 ** qubits) * record.frobenius_error + 1e-12
                assert record.l1_error <= record.l1_bound


def test_criterion_09_two_prover_proof():
    with criterion(9, "two-prover proof: honest near 1, cheats under the soundness bound, k <= 3"):
        p, f = gated_forwarding(), gated_function()
        for k in (1, 2, 3):
            tp = lb.build_two_prover_proof(p, k)
            assert lb.honest_acceptance(tp, f, 1, 1) == pytest.approx(1.0, abs=1e-9)
            cheat = lb.cheat_optimize(tp, f, 0, 0)
            assert cheat.estimate <= lb.soundness_bound(k, 0.0) + 1e-6
            assert lb.message_orthogonality_check(tp, f, 0, 0) <= 1e-9

        p, f = lifted_neq(), lifted_neq_function()
        tp = lb.build_two_prover_proof(p, 1)
        assert lb.honest_acceptance(tp, f, 0, 1) >= 1 - 1e-9
        cheat = lb.cheat_optimize(tp, f, 0, 0)
        assert cheat.estimate <= lb.soundness_bound(1, 0.0) + 1e-6
        assert lb.message_orthogonality_check(tp, f, 0, 0) <= 1e-9

        noisy = depolarized(trivial_forwarding(), 0.1)
        f1 = always_one_function()
        eps = cdqs_verify(noisy, f1, inputs=[(0, 0)]).epsilon_hat
        tp = lb.build_two_prover_proof(noisy, 1)
        assert lb.honest_acceptance(tp, f1, 0, 0) >= 1 - 2 * math.sqrt(eps)


def test_criterion_10_complementary_decoding():
    with criterion(10, "hidden secrets decode perfectly from the channel environment"):
        assert lb.complementary_decode_check(gated_forwarding(), gated_function(), 0, 0) <= 1e-6
        assert lb.complementary_decode_check(lifted_neq(), lifted_neq_function(), 0, 0) <= 1e-6
        for p in (depolarized(gated_forwarding(), 0.1), leaky(0.05)):
            delta = cdqs_verify(p, gated_function(), inputs=[(0, 0)]).delta_hat_upper
            err = lb.complementary_decode_check(p, gated_function(), 0, 0)
            assert err <= 2 * math.sqrt(delta) + 1e-6


def _random_state(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real, (("A", dim),))


def test_criterion_11_quantum_tools_properties():
    with criterion(11, "distance/fidelity inequalities hold on 100 random instances each"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            lo, hi = fuchs_van_de_graaf_gaps(_random_state(rng, dim), _random_state(rng, dim))
            assert lo >= -1e-9 and hi >= -1e-9
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            states = [_random_state(rng, dim) for _ in range(3)]
            probs = rng.random(3)
            probs /= probs.sum()
            lhs, rhs = ensemble_sqrt_fidelity_check(
                list(zip(probs, states)), states + [maximally_mixed("A", dim)]
            )
            assert lhs <= rhs + 1e-9


def test_criterion_12_deterministic_reports(tmp_path):
    with criterion(12, "same-seed reruns emit byte-identical reports"):
        for suite, fmt in (("neq-classical", "json"), ("forrelation", "csv")):
            texts = []
            for attempt in (1, 2):
                out = tmp_path / f"{suite}-{attempt}.{fmt}"
                cfg = ExperimentConfig(suite=suite, n=3 if suite == "neq-classical" else None,
                                       seed=77, out=str(out), format=fmt)
                code, _ = run_suite(cfg)
                assert code == 0
                texts.append(out.read_text())
            assert texts[0] == texts[1]
        payload = json.loads((tmp_path / "neq-classical-1.json").read_text())
        assert all(sorted(entry) == [
            "cost", "delta_hat_lower", "delta_hat_upper", "epsilon_hat",
            "inputs", "n", "protocol", "seed", "wall_time_ms",
        ] for entry in payload)
