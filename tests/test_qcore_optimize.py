"""The ascent driver, decoder search and Petz recovery, and their stacked
Kraus builders and decoder step against per-operator loops."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdslab.qcore import (
    PAULI,
    DensityMatrix,
    QuantumChannel,
    apply_channel,
    best_ascent,
    canonical_kraus,
    choi_state,
    find_best_decoder,
    identity_channel,
    petz_recovery,
    trace_norm,
)
from cdslab.qcore.optimize import _overlap_maps, _stinespring_matrix

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

def test_decoder_search_refuses_a_target_off_the_channel_input():
    # the Petz seed decodes to the channel's input, so the target must too
    v = random_isometry(np.random.default_rng(54), 2, 4)
    ch = QuantumChannel([v], [("Q", 2)], [("M", 4)])
    with pytest.raises(ValueError, match="target output dimension 4 .* input dimension 2"):
        find_best_decoder(ch, ch)

def test_decoder_result_metadata():
    res = find_best_decoder(identity_channel([("Q", 2)]), identity_channel([("Q", 2)]))
    assert res.converged
    assert res.rounds <= 500
    assert 0.0 <= res.entanglement_fidelity <= 1.0


# ---------------------------------------------------------------------------
# the ascent driver's rule, on scripted steps
# ---------------------------------------------------------------------------

def _walk(values):
    """A step that moves the state, an index, one entry along ``values``."""
    def step(i):
        return (values[i + 1], i + 1) if i + 1 < len(values) else None
    return step

def test_ascent_stops_on_the_first_round_gaining_less_than_the_tolerance():
    values = [0.0, 1.0, 1.5, 1.5 + 5e-11, 2.0]
    assert best_ascent([(values[0], 0)], _walk(values)) == (1.5 + 5e-11, 3, 3, True)

def test_ascent_keeps_the_earlier_pair_when_the_last_round_is_lower():
    values = [0.0, 1.0, 0.9, 2.0]
    assert best_ascent([(values[0], 0)], _walk(values)) == (1.0, 1, 2, True)

def test_ascent_stops_unconverged_at_the_round_cap():
    step = lambda i: (float(i + 1), i + 1)
    assert best_ascent([(0.0, 0)], step) == (500.0, 500, 500, False)

def test_ascent_without_a_direction_keeps_the_start():
    assert best_ascent([(0.3, "start")], lambda state: None) == (0.3, "start", 1, False)

def test_ascent_takes_the_first_of_equal_starts():
    stay = lambda state: (len(state), state)
    assert best_ascent([(1, "a"), (1, "b")], stay) == (1, "a", 1, True)
    assert best_ascent([(1, "a"), (2, "bb"), (2, "cc")], stay) == (2, "bb", 1, True)


def _then_refuse(*pairs):
    """Yield ``pairs``, then fail if the search pulls another start."""
    yield from pairs
    raise AssertionError("a start was pulled after the search met its end")

def test_a_start_that_meets_the_end_stops_the_search():
    values = [0.0, 1.0, 2.0, 2.0]
    assert best_ascent(_then_refuse((values[0], 0)), _walk(values), 2.0) == (2.0, 3, 3, True)
    # the end is checked on the best start so far, not on the last one
    stay = lambda state: (len(state), state)
    assert best_ascent(_then_refuse((2, "bb"), (1, "a")), stay, 2.0) == (2, "bb", 1, True)

def test_the_end_stops_at_exactly_its_tolerance_and_not_below():
    values = {"at": 1.0 - 1e-10, "below": np.nextafter(1.0 - 1e-10, 0.0), "last": 1.0}
    stay = lambda state: (values[state], state)
    got = best_ascent(_then_refuse((values["at"], "at")), stay, 1.0)
    assert got == (values["at"], "at", 1, True)
    got = best_ascent([(values["below"], "below"), (values["last"], "last")], stay, 1.0)
    assert got == (1.0, "last", 1, True)

def test_a_nan_value_is_refused():
    # a nan would otherwise stay the best value, as no later value exceeds it
    nan = float("nan")
    with pytest.raises(ValueError, match="nan"):
        best_ascent([(nan, "start"), (1.0, "next")], lambda state: None)
    with pytest.raises(ValueError, match="nan"):
        best_ascent([(0.0, "start")], lambda state: (nan, state))

@pytest.mark.parametrize("upper", [None, 1e4, math.inf])
def test_an_end_that_is_never_met_changes_no_scripted_search(upper):
    walk = [0.0, 1.0, 1.5, 1.5 + 5e-11, 2.0]
    assert best_ascent([(walk[0], 0)], _walk(walk), upper) == (1.5 + 5e-11, 3, 3, True)
    lower = [0.0, 1.0, 0.9, 2.0]
    assert best_ascent([(lower[0], 0)], _walk(lower), upper) == (1.0, 1, 2, True)
    climb = lambda i: (float(i + 1), i + 1)
    assert best_ascent([(0.0, 0)], climb, upper) == (500.0, 500, 500, False)
    assert best_ascent([(0.3, "start")], lambda state: None, upper) == (0.3, "start", 1, False)
    stay = lambda state: (len(state), state)
    assert best_ascent([(1, "a"), (1, "b")], stay, upper) == (1, "a", 1, True)
    assert best_ascent([(1, "a"), (2, "bb"), (2, "cc")], stay, upper) == (2, "bb", 1, True)


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

@settings(max_examples=30, deadline=None)
@given(**_CHANNEL_SHAPES)
def test_no_decoder_passes_the_petz_end(seed, din, dout, count):
    # Barnum-Knill: F_opt <= sqrt(F_petz), F the entanglement fidelity
    channel = _random_channel(seed, din, dout, count)
    target = identity_channel((("Q", din),))
    result = find_best_decoder(channel, target)
    petz = petz_recovery(canonical_kraus(channel))
    phi = choi_state(target).entries
    f_petz = np.vdot(phi, apply_channel(petz, choi_state(channel)).entries @ phi).real
    # phi = |phi+><phi+|, so <phi+|J|phi+> = tr(phi J phi)
    assert abs(result.fidelity_upper - min(1.0, math.sqrt(f_petz))) <= 1e-12
    assert result.entanglement_fidelity <= result.fidelity_upper + 1e-12
    assert result.achieved_error >= 2 * (1 - result.fidelity_upper) - 1e-12

def test_only_the_identity_target_has_a_decoder_end():
    rng = np.random.default_rng(55)
    v = random_isometry(rng, 2, 4)
    ch = QuantumChannel([v], [("Q", 2)], [("M", 4)])
    assert find_best_decoder(ch, identity_channel([("Q", 2)])).fidelity_upper is not None
    # a unitary target, and the identity written with a second, zero operator
    u = QuantumChannel([random_unitary(rng, 2)], [("Q", 2)], [("Q", 2)])
    padded = QuantumChannel([np.eye(2), np.zeros((2, 2))], [("Q", 2)], [("Q", 2)])
    for target in (u, padded):
        assert find_best_decoder(ch, target).fidelity_upper is None

def _overlap_vectors(w_mat, s_tensor, target_vecs, dq, denv, d_ref, d_p):
    """T_t(W) for all t, one target at a time: each a vector on env x purifier."""
    m = s_tensor.shape[0]
    w = w_mat.reshape(dq, denv, m)
    # omega[q, e, r, p] = sum_mu w[q, e, mu] s[mu, r, p]
    omega = np.tensordot(w, s_tensor.reshape(m, d_ref, d_p), axes=(2, 0))
    out = []
    for phi in target_vecs:
        t = np.tensordot(phi.reshape(dq, d_ref).conj(), omega, axes=([0, 1], [0, 2]))
        out.append(t.reshape(-1))
    return out

def _coefficients_reference(ts, s_tensor, target_vecs, dq, denv, d_ref, d_p):
    """C[(q, e), mu] = sum_t conj(phi_t[q, r]) conj(xi_t[e, p]) s[mu, r, p]
    for xi = T / |T|, accumulated one target at a time."""
    m = s_tensor.shape[0]
    norm = np.sqrt(sum(float(np.vdot(t, t).real) for t in ts))
    c = np.zeros((dq * denv, m), dtype=complex)
    s3 = s_tensor.reshape(m, d_ref, d_p)
    for phi, t in zip(target_vecs, ts):
        tmp = np.tensordot(phi.reshape(dq, d_ref).conj(), s3, axes=(1, 1))        # q, mu, p
        block = np.tensordot(tmp, (t / norm).reshape(denv, d_p).conj(), axes=(2, 1))  # q, mu, e
        c += block.transpose(0, 2, 1).reshape(dq * denv, m)
    return c

@settings(max_examples=30, deadline=None)
@given(**_CHANNEL_SHAPES, target_seed=st.integers(0, 2**32 - 1), target_count=st.integers(2, 4),
       extra=st.integers(0, 2))
def test_decoder_step_on_a_target_stack_matches_the_per_target_loops(
        seed, din, dout, count, target_seed, target_count, extra):
    channel = _random_channel(seed, din, dout, count)
    target = _random_channel(target_seed, din, din, target_count)
    kraus = channel.kraus_stack
    denv = dout + extra
    w = random_isometry(np.random.default_rng(seed ^ target_seed), dout, din * denv)
    s_tensor = (kraus.transpose(1, 2, 0) / np.sqrt(din)).reshape(dout, din * count)
    target_vecs = target.kraus_stack.reshape(target_count, -1) / np.sqrt(din)
    shape = (din, denv, din, count)
    want_ts = _overlap_vectors(w, s_tensor, target_vecs, *shape)
    pair, coefficients = _overlap_maps(kraus, target)
    value, (same_w, ts) = pair(w)
    assert same_w is w
    assert ts.shape == (target_count, denv, count)
    assert np.max(np.abs(ts.reshape(target_count, -1) - np.array(want_ts))) <= 1e-12
    want_value = sum(float(np.vdot(t, t).real) for t in want_ts)
    assert abs(value - want_value) <= 1e-12
    assume(want_value > 1e-12)
    want_c = _coefficients_reference(want_ts, s_tensor, target_vecs, *shape)
    got_c = coefficients(ts / np.sqrt(value))
    assert np.max(np.abs(got_c - want_c)) <= 1e-12
