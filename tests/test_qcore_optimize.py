"""Decoder search and Petz recovery, and their stacked Kraus builders
against per-operator loops."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdslab.qcore import (
    PAULI,
    DensityMatrix,
    QuantumChannel,
    apply_channel,
    canonical_kraus,
    choi_state,
    find_best_decoder,
    identity_channel,
    petz_recovery,
    trace_norm,
)
from cdslab.qcore.optimize import _stinespring_matrix

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


# ---------------------------------------------------------------------------
# stacked builders against per-operator loops
# ---------------------------------------------------------------------------

def _random_channel(seed, din, dout, count):
    """A random channel: ``count`` blocks of a random isometry."""
    assume(dout * count >= din)
    iso = random_isometry(np.random.default_rng(seed), din, dout * count)
    return QuantumChannel(iso.reshape(count, dout, din), (("Q", din),), (("M", dout),))

def _petz_reference(channel):
    din, dout = channel.dim_in, channel.dim_out
    s = np.zeros((dout, dout), dtype=complex)
    for k in channel.kraus_operators:
        s += k @ k.conj().T / din
    vals, vecs = np.linalg.eigh((s + s.conj().T) / 2)
    inv_root = np.zeros_like(s)
    kernel = []
    for j, lam in enumerate(vals):
        if lam > 1e-12:
            inv_root += (1.0 / np.sqrt(lam)) * np.outer(vecs[:, j], vecs[:, j].conj())
        else:
            kernel.append(vecs[:, j])
    kraus = [(k.conj().T @ inv_root) / np.sqrt(din) for k in channel.kraus_operators]
    for b in kernel:
        k = np.zeros((din, dout), dtype=complex)
        k[0, :] = b.conj()
        kraus.append(k)
    return QuantumChannel(kraus, channel.output_layout, channel.input_layout)

_CHANNEL_SHAPES = dict(
    seed=st.integers(0, 2**32 - 1),
    din=st.integers(1, 3),
    dout=st.integers(1, 4),
    count=st.integers(1, 4),
)

@settings(max_examples=30, deadline=None)
@given(**_CHANNEL_SHAPES)
def test_petz_recovery_matches_the_per_operator_loop(seed, din, dout, count):
    channel = _random_channel(seed, din, dout, count)
    got, want = petz_recovery(channel), _petz_reference(channel)
    assert got.kraus_stack.shape == want.kraus_stack.shape
    # the Petz operators proper; the kernel completion depends only on the
    # kernel projector, so the maps are compared by their Choi states
    assert np.max(np.abs(got.kraus_stack[:count] - want.kraus_stack[:count])) <= 1e-12
    assert np.max(np.abs(choi_state(got).entries - choi_state(want).entries)) <= 1e-12

@settings(max_examples=30, deadline=None)
@given(**_CHANNEL_SHAPES, extra=st.integers(0, 2))
def test_stinespring_embedding_matches_the_per_operator_loop(seed, din, dout, count, extra):
    channel = _random_channel(seed, din, dout, count)
    denv = count + extra
    want = np.zeros((dout, denv, din), dtype=complex)
    for e, k in enumerate(channel.kraus_operators):
        want[:, e, :] = k
    got = _stinespring_matrix(channel, denv)
    assert np.max(np.abs(got - want.reshape(dout * denv, din))) <= 1e-12
    if count > 1:
        with pytest.raises(ValueError, match="environment"):
            _stinespring_matrix(channel, count - 1)

@settings(max_examples=15, deadline=None)
@given(**_CHANNEL_SHAPES)
def test_decoder_search_error_is_that_of_the_per_operator_composition(seed, din, dout, count):
    channel = _random_channel(seed, din, dout, count)
    target = identity_channel((("Q", din),))
    result = find_best_decoder(channel, target)
    kraus = canonical_kraus(channel).kraus_operators
    composed = QuantumChannel(
        [dj @ kp for dj in result.decoder.kraus_operators for kp in kraus],
        channel.input_layout,
        target.output_layout,
        validate=False,
    )
    want = trace_norm(choi_state(composed).entries - choi_state(target).entries)
    assert abs(result.achieved_error - want) <= 1e-12
