"""Tests for the lower-bound reductions: one-way decisions from quantized
descriptions, two-prover proofs with honest and cheating strategies, and
complementary decoding of hidden secrets."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import lowerbound as lb
from cdslab.framework import CdqsProtocol, joint_channel
from cdslab.qcore import (
    DensityMatrix,
    QuantumChannel,
    SupportVector,
    apply_isometry,
    best_ascent,
    complementary_channel,
    fidelity,
    find_best_decoder,
    identity_channel,
    layout_dim,
    layout_names,
    layout_positions,
    maximally_entangled,
    maximally_mixed,
    optimize,
    partial_trace,
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
    trivial_forwarding,
)
from cdslab.verifier import cdqs_verify


GAMMA_PERFECT = 0.5 * (1 - 1 / math.sqrt(2))


def test_gamma_threshold_reference_values():
    assert lb.gamma_threshold(0, 0, 2) == pytest.approx(0.14644660940672627, abs=1e-12)
    assert lb.gamma_threshold(0.09, 0.09, 2) == pytest.approx(0.10144660940672628, abs=1e-12)
    assert lb.gamma_threshold(0, 0, 4) == pytest.approx(0.25, abs=1e-12)


def test_gamma_threshold_rejects_bad_budgets():
    with pytest.raises(ValueError):
        lb.gamma_threshold(1, 1, 2)
    with pytest.raises(ValueError):
        lb.gamma_threshold(-0.1, 0, 2)
    with pytest.raises(ValueError):
        lb.gamma_threshold(0, 0, 1)
    with pytest.raises(ValueError):
        lb.gamma_threshold(0.9, 0.9, 2)  # positive budgets, vanished margin


def test_required_digits_reference_values():
    assert lb.required_digits(1, 1, 0.10145) == 7
    assert lb.required_digits(0, 0, 0.5) == 1
    # at gamma = 1 the digit count is just the ceiling of 1.5 (q_B + E)
    assert lb.required_digits(2, 3, 1.0) == 8
    with pytest.raises(ValueError):
        lb.required_digits(1, 1, 0.0)
    with pytest.raises(ValueError):
        lb.required_digits(-1, 0, 0.5)


def _random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real, (("A", dim),))


def test_quantize_state_error_bounds():
    rho = _random_density(4, seed=3)
    q = lb.quantize_state(rho, 7)
    assert q.digits == 7
    assert q.l1_error <= 4 ** 1.5 / 2 ** 7  # 0.0625
    assert q.l1_error <= q.l1_bound
    assert q.frobenius_error <= q.frobenius_bound
    fine = lb.quantize_state(rho, 40)
    assert fine.l1_error <= 1e-9


def test_quantize_state_exact_on_dyadic_entries():
    q = lb.quantize_state(maximally_mixed("A", 2), 1)
    assert q.l1_error == 0.0
    assert q.frobenius_error == 0.0


def test_quantize_state_rejects_zero_digits():
    with pytest.raises(ValueError):
        lb.quantize_state(maximally_mixed("A", 2), 0)


def test_one_way_decides_every_toy_input():
    cases = [
        (gated_forwarding(), gated_function()),
        (trivial_forwarding(), always_one_function()),
        (lifted_neq(), lifted_neq_function()),
        (lifted_and(), lifted_and_function()),
    ]
    for p, f in cases:
        for x, y in f.promise_pairs():
            assert lb.one_way_decide(p, f, x, y, 40) == f.value(x, y)


def test_one_way_works_at_minimum_digits():
    p, f = lifted_neq(), lifted_neq_function()
    gamma = lb.gamma_threshold(0, 0, 2)
    k = lb.required_digits(6, 0, gamma)  # Bob's message and resource half: 6 qubits
    assert k == 12
    for x, y in f.promise_pairs():
        assert lb.one_way_decide(p, f, x, y, k) == f.value(x, y)
    with pytest.raises(ValueError, match="digits"):
        lb.one_way_decide(p, f, 0, 0, k - 1)


def test_one_way_bobless_needs_the_gamma_digits():
    # no Bob qubits: required_digits(0, 0, gamma) = ceil(-log2 0.1464...) = 3
    p, f = gated_forwarding(), gated_function()
    for x, y in f.promise_pairs():
        assert lb.one_way_decide(p, f, x, y, 3) == f.value(x, y)
    with pytest.raises(ValueError, match="digits"):
        lb.one_way_decide(p, f, 0, 0, 2)


def test_product_gap_separates_the_two_sides():
    p, f = gated_forwarding(), gated_function()
    hiding, _ = lb.quantized_product_gap(p, 0, 0, 40)
    disclosing, _ = lb.quantized_product_gap(p, 1, 1, 40)
    assert hiding < GAMMA_PERFECT
    assert disclosing == pytest.approx(1.5, abs=1e-9)
    assert disclosing > 2 * (1 - 1 / math.sqrt(2))


def test_quantized_gap_reports_the_record():
    _, record = lb.quantized_product_gap(lifted_neq(), 0, 0, 14)
    assert record.digits == 14
    assert record.l1_error <= record.l1_bound
    # gated has no resource and no Bob message: only the 1x1 trivial state
    _, trivial = lb.quantized_product_gap(gated_forwarding(), 0, 0, 14)
    assert trivial.layout == (("L", 1), ("MB", 1))
    assert trivial.l1_error <= 1e-15


def test_two_prover_gated_all_repetitions():
    p, f = gated_forwarding(), gated_function()
    for k in (1, 2, 3):
        tp = lb.build_two_prover_proof(p, k)
        per_secret = lb.honest_acceptance_by_secret(tp, f, 1, 1)
        assert len(per_secret) == 2 ** k
        assert max(per_secret) - min(per_secret) <= 1e-9
        assert lb.honest_acceptance(tp, f, 1, 1) == pytest.approx(1.0, abs=1e-9)
        cheat = lb.cheat_optimize(tp, f, 0, 0)
        assert cheat.estimate <= lb.soundness_bound(k, 0.0) + 1e-6
        # erasure hides everything: the best cheat is a uniform guess
        assert cheat.estimate == pytest.approx(2.0 ** -k, abs=1e-6)
        assert cheat.converged
        assert cheat.unconstrained == pytest.approx(1.0, abs=1e-9)
        assert lb.message_orthogonality_check(tp, f, 0, 0) <= 1e-9


def test_two_prover_lifted_neq():
    p, f = lifted_neq(), lifted_neq_function()
    tp = lb.build_two_prover_proof(p, 1)
    assert lb.honest_acceptance(tp, f, 0, 1) >= 1 - 1e-9
    cheat = lb.cheat_optimize(tp, f, 0, 0)
    assert cheat.estimate <= 0.7072
    assert lb.message_orthogonality_check(tp, f, 0, 0) <= 1e-9


def test_honest_acceptance_tracks_correctness_error():
    p = depolarized(trivial_forwarding(), 0.1)
    f = always_one_function()
    eps = cdqs_verify(p, f).epsilon_hat
    tp = lb.build_two_prover_proof(p, 1)
    acc = lb.honest_acceptance(tp, f, 0, 0)
    assert acc >= 1 - 2 * math.sqrt(eps)
    assert acc < 1 - 1e-3  # noise must show up


def test_value_preconditions_are_enforced():
    p, f = gated_forwarding(), gated_function()
    tp = lb.build_two_prover_proof(p, 1)
    with pytest.raises(ValueError, match="disclosing"):
        lb.honest_acceptance(tp, f, 0, 0)
    with pytest.raises(ValueError, match="hiding"):
        lb.message_orthogonality_check(tp, f, 1, 1)
    with pytest.raises(ValueError, match="hiding"):
        lb.cheat_optimize(tp, f, 1, 1)


def _on_every_index(amps, layout):
    """A dense (unnormalised) vector as a SupportVector that lists every
    flat index, so its amplitudes are the dense vector."""
    return SupportVector(np.arange(len(amps)), amps, layout)


def _dense(state):
    """A state held on its support, scattered to its dense amplitudes."""
    amps = np.zeros(layout_dim(state.layout), dtype=complex)
    amps[state.index] = state.amplitudes
    return _on_every_index(amps, state.layout)


def _dense_apply(iso, psi):
    """The dense route: ``iso`` on the nonzero amplitudes of the dense
    ``psi``, its output written into a vector of the full output dimension."""
    support = np.flatnonzero(psi.amplitudes)
    return _dense(apply_isometry(iso, SupportVector(support, psi.amplitudes[support], psi.layout)))


def _permuted(psi, order):
    """The dense ``psi`` with its subsystems reordered to ``order``."""
    perm = layout_positions(psi.layout, order)
    amps = psi.amplitudes.reshape([dim for _, dim in psi.layout]).transpose(perm).reshape(-1)
    return _on_every_index(amps, tuple(psi.layout[p] for p in perm))


def _vector_as_matrix(psi, row_names, col_names):
    """Dense amplitudes reshaped with ``row_names`` indexing rows (row-major)."""
    ordered = _permuted(psi, list(row_names) + list(col_names))
    rows = math.prod(d for nm, d in ordered.layout if nm in set(row_names))
    return ordered.amplitudes.reshape(rows, -1)


def _joint_support(stack):
    """Indices of the rows and of the columns in which some matrix of
    ``stack`` has an entry that is not exactly zero."""
    nonzero = stack != 0
    return np.flatnonzero(nonzero.any(axis=(0, 2))), np.flatnonzero(nonzero.any(axis=(0, 1)))


def _cut(stack):
    """A full (d_Q, M, M') stack in :func:`lowerbound._seesaw`'s arguments."""
    rows, cols = _joint_support(stack)
    return stack[:, rows][:, :, cols], rows, cols, stack.shape[1:]


def _full(accept):
    """The cut accept stack ``(mats, rows, cols, shape)`` scattered back into
    the full (d_Q, M, M') stack."""
    mats, rows, cols, shape = accept
    stack = np.zeros((len(mats),) + tuple(shape), dtype=complex)
    stack[:, rows[:, None], cols] = mats
    return stack


def _run_on(tp, state, x, y):
    """Both purifications of ``tp`` applied to the dense ``state (x)
    resource``, a ``np.kron`` of dense vectors, along the dense route: the
    per-state run that the proof's single run replaces, kept as its
    oracle."""
    resource = _dense(tp.protocol.resource)
    joint = _on_every_index(np.kron(state.amplitudes, resource.amplitudes),
                            state.layout + resource.layout)
    state = _dense_apply(tp.alice_purification(x), joint)
    return _dense_apply(tp.bob_purification(y), state)


def _dense_accept_matrices(tp, x, y):
    """The accept stack along the dense route: the purified run on the
    dense ``sum_s |s>_Qbar |s>_Q``, permuted to (Qbar, messages, private)
    and reshaped to the full (d_Q, M, M') stack, with its
    :func:`_joint_support`."""
    message, private = tp.system_names(x, y)
    pair = _on_every_index(np.eye(tp.d_q).reshape(-1), (("Qbar", tp.d_q), ("Q", tp.d_q)))
    run = _run_on(tp, pair, x, y)
    rows = _vector_as_matrix(run, ["Qbar"] + message, private)
    stack = rows.reshape(tp.d_q, -1, rows.shape[1])
    return run, stack, _joint_support(stack)


def _secret(s, d_q):
    return _on_every_index(np.eye(d_q)[s], (("Q", d_q),))


def _honest_by_secret_oracle(tp, x, y):
    """Honest acceptance per secret from ``d_Q + 1`` runs and recoveries:
    the pre-shared state from the normalised maximally entangled run, and
    each accept vector from its own run on ``|s>``."""
    rec = tp.recovery(x, y)
    _, private = tp.system_names(x, y)
    run = _run_on(tp, _dense(maximally_entangled("Qbar", "Q", tp.d_q)), x, y)
    shares = _vector_as_matrix(_dense_apply(rec, run), ["Qbar", "Q"], ["P"] + private)
    out = []
    for s in range(tp.d_q):
        chi = _dense_apply(rec, _run_on(tp, _secret(s, tp.d_q), x, y))
        blocks = _vector_as_matrix(chi, ["Q"], ["P"] + private)
        out.append(float(sum(abs(np.vdot(blocks[s], row)) ** 2 for row in shares)))
    return out


def _damped_forwarding(gamma):
    """Alice forwards the secret through amplitude damping, so the honest
    acceptance differs between the secrets 0 and 1."""
    kraus = [
        np.array([[1, 0], [0, math.sqrt(1 - gamma)]]),
        np.array([[0, math.sqrt(gamma)], [0, 0]]),
    ]
    channel = QuantumChannel(kraus, (("Q", 2), ("L", 1)), (("MA", 2),))
    decoder = QuantumChannel([np.eye(2)], (("MA", 2), ("MB", 1)), (("Q", 2),))
    return CdqsProtocol(n=1, d_q=2, alice_channel=lambda x: channel,
                        decoder=lambda x, y: decoder, construction=f"damped({gamma})")


SLICE_CASES = [
    (gated_forwarding(), gated_function(), 1),
    (gated_forwarding(), gated_function(), 2),
    (gated_forwarding(), gated_function(), 3),
    (lifted_neq(), lifted_neq_function(), 1),
    (lifted_and(), lifted_and_function(), 1),
    (leaky(0.3), gated_function(), 1),
    (depolarized(lifted_neq(), 0.05), lifted_neq_function(), 1),
]


@pytest.mark.parametrize("p, f, k", SLICE_CASES)
def test_accept_stack_is_the_per_secret_runs_bit_for_bit(p, f, k):
    tp = lb.build_two_prover_proof(p, k)
    for x, y in f.promise_pairs():
        message, private = tp.system_names(x, y)
        stack = _full(lb._accept_matrices(tp, x, y))
        assert stack.shape[0] == tp.d_q
        for s in range(tp.d_q):
            oracle = _permuted(_run_on(tp, _secret(s, tp.d_q), x, y), message + private)
            assert np.array_equal(stack[s].reshape(-1), oracle.amplitudes)


#: every shipped hiding input the proof lab judges, each at the k it runs at
DENSE_ROUTE_CASES = [
    (lifted_neq(), lifted_neq_function(), 1),
    (lifted_and(), lifted_and_function(), 1),
    (gated_forwarding(), gated_function(), 3),
    (leaky(0.1), gated_function(), 1),
    (leaky(0.06), gated_function(), 1),
    (leaky(0.06), gated_function(), 4),
    (depolarized(lifted_neq(), 0.05), lifted_neq_function(), 1),
]


@pytest.mark.parametrize("p, f, k", DENSE_ROUTE_CASES)
def test_support_built_accept_stack_is_the_dense_route_bit_for_bit(p, f, k):
    tp = lb.build_two_prover_proof(p, k)
    for x, y in f.promise_pairs():
        if f.value(x, y) == 1:
            continue
        dense_run, stack, (rows, cols) = _dense_accept_matrices(tp, x, y)
        run = tp.purified_run(x, y)
        assert run.layout == dense_run.layout
        assert np.array_equal(_dense(run).amplitudes, dense_run.amplitudes)
        mats, got_rows, got_cols, shape = tp.accept_stack(x, y)
        assert shape == stack.shape[1:]
        assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
        assert np.array_equal(mats, stack[:, rows][:, :, cols])


@pytest.mark.parametrize(
    "p, f, k, runs",
    [(lifted_neq(), lifted_neq_function(), 1, 4), (gated_forwarding(), gated_function(), 3, 2)],
)
def test_two_prover_checks_run_each_input_once(p, f, k, runs, monkeypatch):
    # the see-saw and the orthogonality check share one accept stack
    made = []
    purified_run = lb.TwoProverProof.purified_run

    def counted(self, x, y):
        made.append((x, y))
        return purified_run(self, x, y)

    monkeypatch.setattr(lb.TwoProverProof, "purified_run", counted)
    tp = lb.build_two_prover_proof(p, k)
    lb.two_prover_checks(tp, f, f.promise_pairs(), 0.0, 0.0)
    assert len(made) == runs
    assert sorted(made) == sorted(f.promise_pairs())


def test_two_prover_checks_hold_less_than_one_dense_run():
    # on lifted NEQ a dense purified run holds 2^18 amplitudes, 128 of them
    # nonzero; with the purifications built, no check comes near that size
    p, f = lifted_neq(), lifted_neq_function()
    tp = lb.build_two_prover_proof(p, 1)
    for x, y in f.promise_pairs():
        tp.alice_purification(x), tp.bob_purification(y)
        if f.value(x, y) == 1:
            tp.recovery(x, y)
    run = tp.purified_run(0, 0)
    assert len(run.index) == 128
    dense_bytes = 16 * layout_dim(run.layout)
    assert dense_bytes == 4 * 2**20
    tracemalloc.start()
    try:
        records = lb.two_prover_checks(tp, f, f.promise_pairs(), 0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.get("honest_ok", True) and r.get("cheat_ok", True) for r in records)
    assert peak < dense_bytes


@pytest.mark.parametrize(
    "p, f, k", SLICE_CASES + [(_damped_forwarding(0.4), always_one_function(), 1)]
)
def test_honest_acceptance_matches_the_per_secret_runs(p, f, k):
    tp = lb.build_two_prover_proof(p, k)
    for x, y in f.promise_pairs():
        if f.value(x, y) == 1:
            got = lb.honest_acceptance_by_secret(tp, f, x, y)
            assert np.max(np.abs(np.subtract(got, _honest_by_secret_oracle(tp, x, y)))) <= 1e-14


def test_honest_acceptance_reads_the_diagonal_rows():
    # the secrets accept with different probabilities, so reading row s of
    # the (Qbar, Q) rows instead of row (s, s) would be caught
    p, f = _damped_forwarding(0.4), always_one_function()
    per_secret = lb.honest_acceptance_by_secret(lb.build_two_prover_proof(p, 1), f, 0, 0)
    assert abs(per_secret[0] - per_secret[1]) > 0.05


def test_accept_vector_is_normalized():
    tp = lb.build_two_prover_proof(gated_forwarding(), 2)
    stack = _full(tp.accept_stack(1, 1))
    assert stack.shape[0] == 4
    for s in range(4):
        assert np.linalg.norm(stack[s]) == pytest.approx(1.0, abs=1e-9)
    # the run itself is the unnormalised sum over the four secrets
    assert np.linalg.norm(tp.purified_run(1, 1).amplitudes) == pytest.approx(2.0, abs=1e-9)


def test_marginal_fidelity_matches_dense_computation():
    tp = lb.build_two_prover_proof(leaky(0.3), 1)
    f = gated_function()
    message, private = tp.system_names(0, 0)
    run = _permuted(_dense(tp.purified_run(0, 0)), ["Qbar"] + message + private)
    slices = run.amplitudes.reshape(tp.d_q, -1)
    assert np.linalg.norm(slices, axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)
    states = [_on_every_index(slices[s], run.layout[1:]) for s in range(2)]
    dense = fidelity(
        partial_trace(states[0].density_matrix(), keep=private),
        partial_trace(states[1].density_matrix(), keep=private),
    )
    assert lb.message_orthogonality_check(tp, f, 0, 0) == pytest.approx(dense, abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dm=st.integers(1, 4),
    dp=st.integers(1, 6),
)
def test_marginal_fidelity_of_complex_vectors_matches_dense_computation(seed, dm, dp):
    # complex amplitudes, so the singular vectors are complex too: the
    # fidelity of the M' marginals of two vectors on (M, M')
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        m = rng.normal(size=(dm, dp)) + 1j * rng.normal(size=(dm, dp))
        mats.append(m / np.linalg.norm(m))
    marginals = [
        partial_trace(_on_every_index(m.reshape(-1), (("M", dm), ("P", dp))).density_matrix(),
                      keep=["P"])
        for m in mats
    ]
    dense = fidelity(*marginals)
    assert lb._marginal_fidelity(*mats) == pytest.approx(dense, abs=1e-9)


def test_soundness_bound_values_and_monotonicity():
    assert lb.soundness_bound(1, 0.0) == pytest.approx(0.7071067811865476, abs=1e-12)
    assert lb.soundness_bound(4, 0.09) == pytest.approx(0.32787192621, abs=1e-8)
    seq = [lb.soundness_bound(k, 0.3) for k in range(1, 11)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    with pytest.raises(ValueError):
        lb.soundness_bound(0, 0.0)
    with pytest.raises(ValueError):
        lb.soundness_bound(1, -0.1)


def _full_space_seesaw(mats):
    """The see-saw of ``cheat_optimize`` on the full (M, M') matrices, with
    full M x M polar factors: the reference for the run on the support."""
    d_q = len(mats)

    def value_and_rotations(w):
        total = 0.0
        rotations = []
        for a in mats:
            g = w @ a.conj().T
            u, sv, vh = np.linalg.svd(g)
            rotations.append((vh.conj().T @ u.conj().T))
            total += float(sv.sum()) ** 2
        return total / d_q, rotations

    def refresh(rotations):
        # top eigenvector of mean_s |phi^s><phi^s| via the small Gram matrix
        phis = [rot.conj().T @ a for rot, a in zip(rotations, mats)]
        gram = np.array([[np.vdot(pa, pb) for pb in phis] for pa in phis])
        vals, vecs = np.linalg.eigh(gram)
        coeff = vecs[:, -1]
        w = sum(c * ph for c, ph in zip(coeff, phis))
        return w / np.linalg.norm(w)

    rng = np.random.default_rng(11)
    starts = [mats[0] / np.linalg.norm(mats[0])]
    mean = sum(mats)
    starts.append(mean / np.linalg.norm(mean))
    for _ in range(2):
        guess = rng.standard_normal(mats[0].shape) + 1j * rng.standard_normal(mats[0].shape)
        starts.append(guess / np.linalg.norm(guess))

    best = -1.0
    best_rounds = 0
    best_converged = False
    for w in starts:
        current, rotations = value_and_rotations(w)
        converged = False
        for rounds in range(1, 501):
            w = refresh(rotations)
            nxt, rotations = value_and_rotations(w)
            if nxt - current < 1e-10:
                current = max(current, nxt)
                converged = True
                break
            current = nxt
        if current > best:
            best = current
            best_rounds = rounds
            best_converged = converged
    return best, best_rounds, best_converged


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_seesaw_on_the_support_matches_the_full_space_search(data):
    # generic complex entries on a joint support of r rows and c >= r
    # columns, spread over a larger (M, M') frame.  The first matrix keeps
    # only some of the columns, so the joint support is a union.  Every
    # matrix keeps all r rows and at least r columns: there each polar
    # factor is unique, while a matrix with fewer rows makes some see-saws
    # move by up to 4e-7 under a 1e-15 change of their input, on either path
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d_q = data.draw(st.integers(2, 4))
    r = data.draw(st.integers(1, 4))
    c = r + data.draw(st.integers(0, 3))
    m = r + data.draw(st.integers(0, 3))
    mp = c + data.draw(st.integers(0, 4))
    rows = rng.permutation(m)[:r]
    cols = rng.permutation(mp)[:c]
    stack = np.zeros((d_q, m, mp), dtype=complex)
    for s in range(d_q):
        sub = cols[:data.draw(st.integers(r, c))] if s == 0 else cols
        block = rng.normal(size=(r, len(sub))) + 1j * rng.normal(size=(r, len(sub)))
        stack[s][np.ix_(rows, sub)] = block / np.linalg.norm(block)
    estimate, _, converged, _ = lb._seesaw(*_cut(stack))
    ref_estimate, _, ref_converged = _full_space_seesaw(list(stack))
    assert estimate == pytest.approx(ref_estimate, abs=1e-9)
    assert converged == ref_converged


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_no_see_saw_passes_its_certified_end(data):
    # random unit accept matrices; some get a singular tail at 1e-13 of
    # their top value, under the end's 1e-12 cut, so the cut and its
    # discarded weight come into play.  Secrets on disjoint columns make the
    # end 1/d_q, which the first start (the first accept matrix) reaches
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d_q = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    mp = data.draw(st.integers(1, 6))
    disjoint = data.draw(st.booleans())
    stack = np.zeros((d_q, m, mp * d_q if disjoint else mp), dtype=complex)
    for s in range(d_q):
        u, sv, vh = np.linalg.svd(rng.normal(size=(m, mp)) + 1j * rng.normal(size=(m, mp)),
                                  full_matrices=False)
        tail = data.draw(st.integers(0, len(sv) - 1))
        sv[len(sv) - tail:] = 1e-13 * sv[0]
        block = (u * sv) @ vh
        cols = slice(s * mp, (s + 1) * mp) if disjoint else slice(None)
        stack[s][:, cols] = block / np.linalg.norm(block)
    estimate, _, _, upper = lb._seesaw(*_cut(stack))
    ref_estimate, _, _ = _full_space_seesaw(list(stack))
    assert estimate <= upper + 1e-12
    assert ref_estimate <= upper + 1e-12
    if disjoint:
        assert upper == pytest.approx(1 / d_q, abs=1e-12)
        assert estimate >= upper - 1e-10


def test_an_all_zero_accept_stack_has_end_zero():
    stack = np.zeros((2, 3, 4), dtype=complex)
    assert lb._seesaw(*_cut(stack)) == (0.0, 1, True, 0.0)


def test_a_zero_first_accept_matrix_is_refused_before_any_start():
    # the first start has no direction: 0 / 0 entries, then an SVD that fails
    stack = np.zeros((2, 3, 4), dtype=complex)
    stack[1][0, 0] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="degenerate accept stack"):
            lb._seesaw(*_cut(stack))


def test_accept_vectors_equal_up_to_phase_meet_the_end_on_the_first_start():
    # the most cheatable stack: its sum is zero, but the first start already
    # meets the end, so the sum start is never built
    stack = np.zeros((2, 3, 4), dtype=complex)
    stack[1][0, 0] = 1
    stack[0] = -stack[1]
    assert lb._seesaw(*_cut(stack)) == (1.0, 1, True, 1.0)


def test_a_zero_sum_start_is_skipped(monkeypatch):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
    a /= np.linalg.norm(a, axis=(1, 2), keepdims=True)
    stack = np.stack([a[0], -a[0], a[1], -a[1]])
    pulled = []
    best_ascent = lb.best_ascent

    def counted(starts, step, upper):
        return best_ascent((pulled.append(s) or s for s in starts), step, upper)

    monkeypatch.setattr(lb, "best_ascent", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best, _, converged, upper = lb._seesaw(*_cut(stack))
    # the first start misses the end; then only the two draws run
    assert len(pulled) == 3
    assert converged and 0 < best < upper - 1e-3


def _seesaw_upper_by_svd(mats):
    """Reference for :func:`lowerbound._seesaw_upper`: one thin SVD of each
    cut matrix."""
    _, sv, vh = np.linalg.svd(mats, full_matrices=False)
    kept = sv > 1e-12 * sv[:, :1]
    power = sv ** 2
    norms = power.sum(axis=1)
    cut = np.where(kept, 0.0, power).sum(axis=1)
    weights = np.divide(cut, norms, out=np.zeros_like(norms), where=norms > 0)
    basis = vh[kept]
    lam = np.linalg.eigvalsh(basis @ basis.conj().T).max(initial=0.0) / len(mats)
    return float(norms.max(initial=0.0) * (math.sqrt(lam) + math.sqrt(weights.max(initial=0.0))) ** 2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_q=st.integers(1, 4),
    short=st.integers(1, 6),
    extra=st.integers(0, 40),
    wide=st.booleans(),
)
def test_seesaw_upper_by_qr_matches_the_svd_route(seed, d_q, short, extra, wide):
    rng = np.random.default_rng(seed)
    shape = (short, short + extra) if wide else (short + extra, short)
    mats = rng.normal(size=(d_q,) + shape) + 1j * rng.normal(size=(d_q,) + shape)
    mats /= np.linalg.norm(mats, axis=(1, 2), keepdims=True)
    assert abs(lb._seesaw_upper(mats) - _seesaw_upper_by_svd(mats)) <= 1e-14


#: shipped inputs whose see-saw meets its certified end on the first start
TIGHT_CASES = [
    (lifted_neq(), lifted_neq_function(), 1),
    (gated_forwarding(), gated_function(), 1),
    (gated_forwarding(), gated_function(), 2),
    (gated_forwarding(), gated_function(), 3),
    (lifted_and(), lifted_and_function(), 1),
    (depolarized(lifted_neq(), 0.05), lifted_neq_function(), 1),
]


@pytest.mark.parametrize("p, f, k", TIGHT_CASES)
def test_cheat_optimize_equals_the_full_space_search_on_shipped_inputs(p, f, k):
    # leaky(0.06) at k = 4 is checked where its bound is
    tp = lb.build_two_prover_proof(p, k)
    for x, y in f.promise_pairs():
        if f.value(x, y) == 1:
            continue
        cheat = lb.cheat_optimize(tp, f, x, y)
        estimate, _, converged = _full_space_seesaw(list(_full(tp.accept_stack(x, y))))
        assert abs(cheat.estimate - estimate) <= 1e-12
        assert cheat.converged == converged


def test_cheat_stays_under_bound_with_real_security_slack():
    p, f = leaky(0.06), gated_function()
    delta = cdqs_verify(p, f).delta_hat_lower
    assert delta == pytest.approx(0.09, abs=1e-9)
    tp = lb.build_two_prover_proof(p, 4)
    cheat = lb.cheat_optimize(tp, f, 0, 0)
    assert cheat.estimate <= lb.soundness_bound(4, delta) + 1e-6
    # the one hiding input, against the full-space search
    estimate, _, converged = _full_space_seesaw(list(_full(tp.accept_stack(0, 0))))
    assert abs(cheat.estimate - estimate) <= 1e-12
    assert cheat.converged == converged
    ortho = lb.message_orthogonality_check(tp, f, 0, 0)
    assert ortho <= 4 * math.sqrt(delta) + 1e-9


class _NoDraws:
    """Stands in for ``np.random.default_rng``: its generators refuse to draw."""

    def __init__(self, seed):
        self.seed = seed

    def __getattr__(self, name):
        raise AssertionError(f"a seed-{self.seed} random start was drawn")


@pytest.mark.parametrize("p, f, k", TIGHT_CASES)
def test_a_see_saw_that_meets_its_end_draws_no_random_start(p, f, k, monkeypatch):
    tp = lb.build_two_prover_proof(p, k)
    monkeypatch.setattr(np.random, "default_rng", _NoDraws)
    for x, y in f.promise_pairs():
        if f.value(x, y) == 0:
            cheat = lb.cheat_optimize(tp, f, x, y)
            assert cheat.upper - 1e-10 <= cheat.estimate <= cheat.upper + 1e-12


def test_complementary_decoding_of_lifted_neq_draws_no_random_start(monkeypatch):
    p, f = lifted_neq(), lifted_neq_function()
    monkeypatch.setattr(np.random, "default_rng", _NoDraws)
    for x, y in f.promise_pairs():
        if f.value(x, y) == 0:
            assert lb.complementary_decode_check(p, f, x, y) <= 1e-9


@pytest.mark.parametrize("p", [leaky(0.1), leaky(0.06)])
def test_searches_that_miss_their_end_run_as_without_one(p, monkeypatch):
    f, target = gated_function(), identity_channel((("Q", 2),))
    tp = lb.build_two_prover_proof(p, 1)
    comp = complementary_channel(joint_channel(p, 0, 0))
    pulled = []

    def counted(starts, step, upper):
        def each():
            for start in starts:
                pulled.append(start[0])
                yield start
        return best_ascent(each(), step, upper)

    monkeypatch.setattr(lb, "best_ascent", counted)
    monkeypatch.setattr(optimize, "best_ascent", counted)
    cheat = lb.cheat_optimize(tp, f, 0, 0)
    assert len(pulled) == 4
    decoded = find_best_decoder(comp, target)
    assert len(pulled) == 4 + 3
    endless = lambda starts, step, upper: best_ascent(starts, step)
    monkeypatch.setattr(lb, "best_ascent", endless)
    monkeypatch.setattr(optimize, "best_ascent", endless)
    assert lb.cheat_optimize(tp, f, 0, 0) == cheat
    again = find_best_decoder(comp, target)
    assert np.array_equal(again.decoder.kraus_stack, decoded.decoder.kraus_stack)
    fields = ("achieved_error", "entanglement_fidelity", "rounds", "converged", "fidelity_upper")
    assert [getattr(again, n) for n in fields] == [getattr(decoded, n) for n in fields]


def test_unpadded_proof_keeps_minimal_environments():
    tp = lb.build_two_prover_proof(gated_forwarding(), 1)
    cost = tp.communication_cost(1, 1)
    assert cost["m_a_env"] == 0.0  # unitary branch: rank-one environment
    assert cost["total"] <= cost["budget"] + 1e-9
    assert tp.system_bounds_ok(1, 1)


def test_lifted_proof_respects_system_bounds():
    tp = lb.build_two_prover_proof(lifted_neq(), 1)
    cost = tp.communication_cost(0, 0)
    assert cost["total"] <= cost["budget"] + 1e-9
    assert tp.system_bounds_ok(0, 0)


def test_system_names_come_from_the_cached_purifications():
    base = lifted_neq()
    calls = []

    def alice(x):
        calls.append(x)
        return base.alice_channel(x)

    tp = lb.build_two_prover_proof(dataclasses.replace(base, alice_channel=alice), 1)
    first = tp.system_names(0, 1)
    assert tp.system_names(0, 1) == first and tp.system_names(0, 0) == first
    assert calls == [0]  # the purification's own build, then only its cache
    message = layout_names(base.alice_channel(0).output_layout)
    message += layout_names(base.bob_channel(1).output_layout)
    assert first == (list(message), ["EA", "EB"])


def test_complementary_decode_perfect_hiding():
    assert lb.complementary_decode_check(gated_forwarding(), gated_function(), 0, 0) <= 1e-6


def test_complementary_decode_under_leakage():
    p, f = leaky(0.05), gated_function()
    delta = cdqs_verify(p, f).delta_hat_upper
    assert lb.complementary_decode_check(p, f, 0, 0) <= 2 * math.sqrt(delta) + 1e-6


def test_complementary_decode_rejects_disclosing_inputs():
    with pytest.raises(ValueError, match="hiding"):
        lb.complementary_decode_check(gated_forwarding(), gated_function(), 1, 1)


def test_proof_lab_report_text():
    text = lb.proof_lab_report(gated_forwarding(), gated_function(), 2)
    assert "gated_forwarding" in text
    assert "d_Q=4" in text
    assert "value=0" in text and "value=1" in text
    assert "FAIL" not in text
    assert text.count("PASS") == 3  # honest, cheat, orthogonality
    # deterministic
    assert text == lb.proof_lab_report(gated_forwarding(), gated_function(), 2)


def test_proof_lab_text_is_frozen():
    cases = [
        (lifted_neq(), lifted_neq_function(), 1, 0, 0),
        (gated_forwarding(), gated_function(), 3, 0, 0),
        (depolarized(lifted_neq(), 0.05), lifted_neq_function(), 1, 0.075, 0),
        (leaky(0.1), gated_function(), 1, 0, 0.15),
    ]
    texts = [lb.proof_lab_report(*case) for case in cases]
    assert texts == [
        (
            "two-prover proof lab: protocol=pad_lift(double_secret(neq_cds(1))) k=1 d_Q=2\n"
            "budgets: epsilon_hat=0 delta_hat=0\n"
            "input (0, 0) value=0: cheat=0.500000000 bound=0.707106781 PASS; "
            "orthogonality=0.000000000 cap=0.000000000 PASS; "
            "unconstrained=1.000000\n"
            "input (0, 1) value=1: honest=1.000000000 floor=1.000000000 PASS\n"
            "input (1, 0) value=1: honest=1.000000000 floor=1.000000000 PASS\n"
            "input (1, 1) value=0: cheat=0.500000000 bound=0.707106781 PASS; "
            "orthogonality=0.000000000 cap=0.000000000 PASS; "
            "unconstrained=1.000000"
        ),
        (
            "two-prover proof lab: protocol=gated_forwarding k=3 d_Q=8\n"
            "budgets: epsilon_hat=0 delta_hat=0\n"
            "input (0, 0) value=0: cheat=0.125000000 bound=0.353553391 PASS; "
            "orthogonality=0.000000000 cap=0.000000000 PASS; "
            "unconstrained=1.000000\n"
            "input (1, 1) value=1: honest=1.000000000 floor=1.000000000 PASS"
        ),
        (
            "two-prover proof lab: "
            "protocol=depolarized(pad_lift(double_secret(neq_cds(1))), 0.05) k=1 d_Q=2\n"
            "budgets: epsilon_hat=0.075 delta_hat=0\n"
            "input (0, 0) value=0: cheat=0.500000000 bound=0.707106781 PASS; "
            "orthogonality=0.000000000 cap=0.000000000 PASS; "
            "unconstrained=1.000000\n"
            "input (0, 1) value=1: honest=0.926562500 floor=0.452277442 PASS\n"
            "input (1, 0) value=1: honest=0.926562500 floor=0.452277442 PASS\n"
            "input (1, 1) value=0: cheat=0.500000000 bound=0.707106781 PASS; "
            "orthogonality=0.000000000 cap=0.000000000 PASS; "
            "unconstrained=1.000000"
        ),
        (
            "two-prover proof lab: protocol=leaky(0.1) k=1 d_Q=2\n"
            "budgets: epsilon_hat=0 delta_hat=0.15\n"
            "input (0, 0) value=0: cheat=0.550000000 bound=0.791286587 PASS; "
            "orthogonality=0.010000000 cap=1.549193338 PASS; "
            "unconstrained=1.000000\n"
            "input (1, 1) value=1: honest=1.000000000 floor=1.000000000 PASS"
        ),
    ]
