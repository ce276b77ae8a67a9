"""Decoder search and Petz recovery."""

import numpy as np

from cdslab.qcore import (
    PAULI,
    DensityMatrix,
    QuantumChannel,
    apply_channel,
    choi_state,
    find_best_decoder,
    identity_channel,
    petz_recovery,
    trace_norm,
)

def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))

def random_isometry(rng, din, dout):
    g = rng.normal(size=(dout, din)) + 1j * rng.normal(size=(dout, din))
    q, _ = np.linalg.qr(g)
    return q[:, :din]


def test_decoder_for_identity_channel_is_exact():
    ch = identity_channel([("Q", 2)])
    res = find_best_decoder(ch, ch)
    assert res.achieved_error < 1e-10
    assert res.entanglement_fidelity > 1 - 1e-10

def test_decoder_inverts_unitary():
    rng = np.random.default_rng(51)
    u = random_unitary(rng, 3)
    ch = QuantumChannel([u], [("Q", 3)], [("Q", 3)])
    res = find_best_decoder(ch, identity_channel([("Q", 3)]))
    assert res.achieved_error <= 1e-8
    # the decoder is U^+ up to phase: check action on a test state
    rho = DensityMatrix(np.diag([0.6, 0.3, 0.1]), [("Q", 3)])
    round_trip = apply_channel(res.decoder, apply_channel(ch, rho))
    assert np.max(np.abs(round_trip.entries - rho.entries)) < 1e-7

def test_decoder_inverts_isometric_embedding():
    rng = np.random.default_rng(52)
    v = random_isometry(rng, 2, 5)
    ch = QuantumChannel([v], [("Q", 2)], [("M", 5)])
    res = find_best_decoder(ch, identity_channel([("Q", 2)]))
    assert res.achieved_error <= 1e-8

def test_decoder_for_depolarizing_at_least_matches_identity_decoder():
    # the identity decoder leaves the Choi gap || J_dep - J_id ||_1 = 3p/2
    p = 0.3
    kraus = [np.sqrt(1 - 0.75 * p) * PAULI["I"]] + [np.sqrt(p / 4) * PAULI[k] for k in "XYZ"]
    ch = QuantumChannel(kraus, [("Q", 2)], [("Q", 2)])
    res = find_best_decoder(ch, identity_channel([("Q", 2)]))
    assert res.achieved_error <= 1.5 * p + 1e-6
    # identity decoding achieves entanglement fidelity 1 - 3p/4
    assert res.entanglement_fidelity >= 1 - 0.75 * p - 1e-9

def test_decoder_handles_constant_channel():
    # rho -> tr(rho) I/2, with Kraus operators sqrt(1/2) |a><i|
    basis = np.eye(2)
    kraus = [np.sqrt(0.5) * np.outer(basis[a], basis[i]) for a in range(2) for i in range(2)]
    ch = QuantumChannel(kraus, [("Q", 2)], [("Q", 2)])
    res = find_best_decoder(ch, identity_channel([("Q", 2)]))
    # nothing can be recovered: every decoder yields a constant channel, so
    # the entanglement fidelity is pinned at 1/4 and the reported error is
    # the composed channel's true Choi gap, J(D o N) = (D (x) id)(J(N))
    assert abs(res.entanglement_fidelity - 0.25) < 1e-9
    lo = trace_norm(
        apply_channel(res.decoder, choi_state(ch)).entries
        - choi_state(identity_channel([("Q", 2)])).entries
    )
    assert abs(res.achieved_error - lo) < 1e-9
    assert 1.5 - 1e-9 <= res.achieved_error <= 2.0

def test_petz_recovery_inverts_isometry_exactly():
    rng = np.random.default_rng(53)
    v = random_isometry(rng, 3, 7)
    ch = QuantumChannel([v], [("Q", 3)], [("M", 7)])
    petz = petz_recovery(ch)
    # J(P o N) = (P (x) id)(J(N))
    j_gap = trace_norm(
        apply_channel(petz, choi_state(ch)).entries
        - choi_state(identity_channel([("Q", 3)])).entries
    )
    assert j_gap < 1e-9

def test_petz_recovery_is_trace_preserving_with_defective_output_support():
    # channel output lives on a strict subspace: the kernel completion of
    # the Petz map must still give a valid channel
    v = np.zeros((5, 2), dtype=complex)
    v[0, 0] = 1.0
    v[1, 1] = 1.0
    ch = QuantumChannel([v], [("Q", 2)], [("M", 5)])
    petz = petz_recovery(ch)
    acc = sum(k.conj().T @ k for k in petz.kraus_operators)
    assert np.max(np.abs(acc - np.eye(5))) < 1e-9

def test_decoder_result_metadata():
    res = find_best_decoder(identity_channel([("Q", 2)]), identity_channel([("Q", 2)]))
    assert res.converged
    assert res.rounds <= 500
    assert 0.0 <= res.entanglement_fidelity <= 1.0
