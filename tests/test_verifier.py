import json
from fractions import Fraction

import pytest

from cdslab.classical import (
    and_cds,
    and_function,
    constant_function,
    double_secret,
    ip_function,
    ip_psm,
    neq_cds,
    neq_function,
)
from cdslab.framework import (
    CdsProtocol,
    PsmProtocol,
    classical_to_quantum_lift,
    transcript_form,
)
from cdslab.quantum import hybrid_promise_function, neq_promise_cdqs
from cdslab.toys import (
    depolarized,
    gated_forwarding,
    gated_function,
    leaky,
    lifted_neq,
    lifted_neq_function,
    toy_suite,
    trivial_forwarding,
    always_one_function,
    always_zero_function,
    unencrypted,
)
from cdslab.verifier import (
    VerificationReport,
    cds_verify,
    cdqs_verify,
    chebyshev_radius,
    productness_check,
    psm_verify,
)


def leak_in_clear():
    # Alice sends the secret bit itself; nothing is ever decodable "legally".
    return CdsProtocol(
        n=1, randomness_bits=0, secret_alphabet=2,
        message_a=lambda x, s, r: s,
        message_b=lambda y, r: 0,
        decoder=lambda ma, x, mb, y: None,
        message_bits_a=1, message_bits_b=0,
        construction="leak_in_clear",
    )


def echo_and_psm():
    # Referee sees the raw inputs, so the value-0 class has three distinct
    # transcript distributions and the simulator LP is non-trivial.
    return PsmProtocol(
        n=1, randomness_bits=0, value_alphabet=2,
        message_a=lambda x, r: x,
        message_b=lambda y, r: y,
        referee=lambda ma, mb: ma & mb,
        message_bits_a=1, message_bits_b=1,
        construction="echo_and",
    )


# ---------------------------------------------------------------------------
# simulator radius
# ---------------------------------------------------------------------------

def test_radius_single_distribution_is_exact_zero():
    d = {("a", 0): Fraction(1, 3), ("b", 1): Fraction(2, 3)}
    radius, center = chebyshev_radius([d, dict(d)])
    assert radius == Fraction(0)
    assert center == d


def test_radius_two_distributions_is_half_l1_at_midpoint():
    p0 = {0: Fraction(1)}
    p1 = {1: Fraction(1)}
    radius, center = chebyshev_radius([p0, p1])
    assert radius == Fraction(1)
    assert center == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    q0 = {0: Fraction(3, 4), 1: Fraction(1, 4)}
    q1 = {0: Fraction(1, 4), 1: Fraction(3, 4)}
    radius, center = chebyshev_radius([q0, q1])
    assert radius == Fraction(1, 2)
    assert center == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_radius_three_point_masses_runs_lp():
    dists = [{k: Fraction(1)} for k in ("u", "v", "w")]
    radius, center = chebyshev_radius(dists)
    # best simulator is uniform over the three transcripts: radius 2*(1-1/3)
    assert abs(radius - Fraction(4, 3)) < 1e-9
    for k in ("u", "v", "w"):
        assert abs(center[k] - 1 / 3) < 1e-9


def test_lp_agrees_with_midpoint_when_midpoint_is_covered():
    p0 = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    p1 = {1: Fraction(1, 8), 2: Fraction(7, 8)}
    mid = {k: (p0.get(k, Fraction(0)) + p1.get(k, Fraction(0))) / 2 for k in (0, 1, 2)}
    exact, _ = chebyshev_radius([p0, p1])
    via_lp, _ = chebyshev_radius([p0, p1, mid])
    assert abs(float(exact) - via_lp) < 1e-9


def test_radius_rejects_empty_input():
    with pytest.raises(ValueError):
        chebyshev_radius([])


# ---------------------------------------------------------------------------
# classical verifiers
# ---------------------------------------------------------------------------

def test_neq_cds_verifies_perfectly():
    report = cds_verify(neq_cds(2), neq_function(2))
    assert report.epsilon_hat == 0.0
    assert report.delta_hat_lower == 0.0 and report.delta_hat_upper == 0.0
    assert report.delta_hat == 0.0
    assert report.passes()
    pairs = [(e["x"], e["y"]) for e in report.inputs]
    assert pairs == sorted(pairs) and len(set(pairs)) == 16


def test_cds_diagnostics_split_by_value():
    report = cds_verify(neq_cds(1), neq_function(1))
    for entry in report.inputs:
        if entry["value"] == 1:
            assert entry["decode_failure"] == 0.0
        else:
            assert entry["simulator_distance"] == 0.0


def test_leaking_the_secret_gives_delta_one():
    report = cds_verify(leak_in_clear(), constant_function(1, 0))
    assert report.delta_hat == 1.0
    assert report.epsilon_hat == 0.0  # no disclosing inputs at all
    assert not report.passes()


def test_ip_psm_verifies_perfectly():
    report = psm_verify(ip_psm(2), ip_function(2))
    assert report.epsilon_hat == 0.0
    assert report.delta_hat == 0.0
    assert len(report.inputs) == 16


def test_echo_psm_radius_is_four_thirds():
    report = psm_verify(echo_and_psm(), and_function())
    assert abs(report.delta_hat - 4 / 3) < 1e-9
    by_pair = {(e["x"], e["y"]): e["simulator_distance"] for e in report.inputs}
    assert by_pair[(1, 1)] == 0.0  # value-1 class has a single distribution
    for pair in ((0, 0), (0, 1), (1, 0)):
        assert abs(by_pair[pair] - 4 / 3) < 1e-9


def test_psm_inputs_cover_promise_once_in_order():
    report = psm_verify(echo_and_psm(), and_function())
    assert [(e["x"], e["y"]) for e in report.inputs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# quantum verifier
# ---------------------------------------------------------------------------

def test_trivial_forwarding_is_perfectly_correct():
    report = cdqs_verify(trivial_forwarding(), always_one_function())
    assert report.epsilon_hat <= 1e-12
    assert report.delta_hat_upper == 0.0  # no hiding inputs exist
    assert all(e["value"] == 1 for e in report.inputs)


def test_unencrypted_choi_gap_is_three_halves():
    report = cdqs_verify(unencrypted(), always_zero_function())
    # || phi+ - pi (x) pi ||_1: eigenvalues 3/4 and three times -1/4
    assert abs(report.delta_hat_lower - 1.5) < 1e-9
    assert report.delta_hat_upper == 2.0
    assert not report.passes()


def test_gated_forwarding_verifies_perfectly():
    report = cdqs_verify(gated_forwarding(), gated_function())
    assert report.epsilon_hat <= 1e-9
    assert report.delta_hat_upper <= 1e-9


def test_lifted_neq_dense_path():
    report = cdqs_verify(lifted_neq(), lifted_neq_function())
    assert report.epsilon_hat <= 1e-9
    assert report.delta_hat_upper <= 1e-9
    assert len(report.inputs) == 4
    assert report.cost.comm_qubits >= 1


def test_hybrid_exact_transcript_path():
    report = cdqs_verify(neq_promise_cdqs(4), hybrid_promise_function(4))
    assert report.epsilon_hat == 0.0
    assert report.delta_hat_lower == 0.0 and report.delta_hat_upper == 0.0
    assert len(report.inputs) == 112  # 16 equal pairs + 16 * C(4,2) far pairs


def test_hybrid_large_domain_needs_explicit_inputs():
    p = neq_promise_cdqs(16)
    f = hybrid_promise_function(16)
    with pytest.raises(ValueError, match="explicit"):
        cdqs_verify(p, f)
    x = 0b1010101010101010
    report = cdqs_verify(p, f, inputs=[(x, x), (x, x ^ 0x00FF)])
    assert report.epsilon_hat == 0.0
    assert report.delta_hat_upper == 0.0


def test_out_of_promise_input_rejected():
    with pytest.raises(ValueError):
        cdqs_verify(gated_forwarding(), gated_function(), inputs=[(0, 1)])


def test_size_mismatch_rejected():
    # each pair would otherwise verify a sub-domain, or reach a verdict, in silence
    with pytest.raises(ValueError, match=r"n=4 .* n=2"):
        cds_verify(neq_cds(4), neq_function(2))
    with pytest.raises(ValueError, match=r"n=3 .* n=1"):
        psm_verify(ip_psm(3), ip_function(1))
    with pytest.raises(ValueError, match=r"n=8 .* n=4"):
        cdqs_verify(neq_promise_cdqs(8), hybrid_promise_function(4))
    with pytest.raises(ValueError, match=r"n=1 .* n=2"):
        productness_check(gated_forwarding(), neq_function(2))


def test_depolarized_epsilon_grows_continuously():
    values = []
    for strength in (0.1, 0.2, 0.4):
        report = cdqs_verify(depolarized(trivial_forwarding(), strength), always_one_function())
        # entanglement fidelity is 1 - 3p/4, so the Choi gap is exactly 3p/2
        assert abs(report.epsilon_hat - 1.5 * strength) < 1e-9
        values.append(report.epsilon_hat)
    assert values[0] < values[1] < values[2]


def test_depolarized_lift_keeps_hiding():
    report = cdqs_verify(
        depolarized(lifted_neq(), 0.2), lifted_neq_function(), inputs=[(0, 0), (0, 1)]
    )
    assert abs(report.epsilon_hat - 0.3) < 1e-9
    assert report.delta_hat_upper <= 1e-9  # noise never hurts hiding


def test_leaky_interval_scales_with_strength():
    for strength, lower in ((0.0, 0.0), (0.5, 0.75), (1.0, 1.5)):
        report = cdqs_verify(leaky(strength), gated_function())
        assert abs(report.delta_hat_lower - lower) < 1e-9
        assert abs(report.delta_hat_upper - min(2.0, 2 * lower)) < 1e-9
        assert report.epsilon_hat <= 1e-9  # the x=1 branch still forwards


# ---------------------------------------------------------------------------
# productness
# ---------------------------------------------------------------------------

def test_productness_holds_for_every_shipped_toy():
    for protocol, function in toy_suite():
        checks = productness_check(protocol, function)
        assert checks and all(c["ok"] for c in checks)


def test_productness_entries_carry_the_right_witness():
    checks = productness_check(gated_forwarding(), gated_function())
    by_value = {c["value"]: c for c in checks}
    assert "distance" in by_value[0] and by_value[0]["distance"] <= by_value[0]["bound"]
    assert "fidelity" in by_value[1] and by_value[1]["fidelity"] >= by_value[1]["bound"]


def test_productness_hybrid_transcript_path():
    checks = productness_check(neq_promise_cdqs(4), hybrid_promise_function(4))
    assert len(checks) == 112
    assert all(c["ok"] for c in checks)
    ones = [c for c in checks if c["value"] == 1]
    assert ones and all(c["fidelity"] == 1.0 for c in ones)


def test_transcript_and_dense_pad_lifts_verify_alike():
    cases = [
        (double_secret(neq_cds(1)), neq_function(1)),
        (double_secret(and_cds()), and_function()),
    ]
    for key_cds, function in cases:
        exact = transcript_form(key_cds)
        dense = classical_to_quantum_lift(key_cds)
        exact_report = cdqs_verify(exact, function)
        dense_report = cdqs_verify(dense, function)
        assert len(exact_report.inputs) == len(dense_report.inputs) > 0
        for a, b in zip(exact_report.inputs, dense_report.inputs):
            assert a.keys() == b.keys()
            for key in a:
                assert abs(a[key] - b[key]) <= 1e-12, (a, b, key)
        for p in (exact, dense):
            checks = productness_check(p, function)
            assert checks and all(c["ok"] for c in checks)


# ---------------------------------------------------------------------------
# report object
# ---------------------------------------------------------------------------

def test_report_json_schema_and_determinism():
    report = cds_verify(neq_cds(1), neq_function(1), seed=7)
    doc = json.loads(json.dumps(report.as_dict()))
    assert sorted(doc) == [
        "cost", "delta_hat_lower", "delta_hat_upper", "epsilon_hat",
        "inputs", "n", "protocol", "seed", "wall_time_ms",
    ]
    assert doc["seed"] == 7
    assert doc["wall_time_ms"] is None
    assert doc["protocol"] == "neq_cds(1)"
    again = cds_verify(neq_cds(1), neq_function(1), seed=7)
    assert report.as_dict() == again.as_dict()


def test_report_rejects_out_of_range_estimates():
    cost = cds_verify(neq_cds(1), neq_function(1)).cost
    with pytest.raises(ValueError):
        VerificationReport("bad", 1, 3.0, 0.0, 0.0, (), cost)
    with pytest.raises(ValueError):
        VerificationReport("bad", 1, 0.0, 1.0, 0.5, (), cost)
