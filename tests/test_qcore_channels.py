"""Channel application, purification, complements, and Choi calculus."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdslab.qcore.channels as channels_module
from cdslab.framework import bob_side_state, parallel_repeat
from cdslab.qcore import (
    ATOL_INVARIANT,
    PAULI,
    DensityMatrix,
    QuantumChannel,
    SupportVector,
    apply_channel,
    apply_channel_matrix,
    apply_isometry,
    canonical_kraus,
    channel_from_choi,
    choi_state,
    complementary_channel,
    diamond_distance_bounds,
    identity_channel,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    purify_channel,
    tensor,
    trace_norm,
)
from cdslab.toys import gated_forwarding, lifted_neq

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)

def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))

def pauli_channel(wx, wy, wz):
    """Qubit channel applying X, Y or Z with the given probabilities."""
    weights = (1 - wx - wy - wz, wx, wy, wz)
    kraus = [np.sqrt(w) * PAULI[k] for w, k in zip(weights, "IXYZ")]
    return QuantumChannel(kraus, [("Q", 2)], [("Q", 2)])

def depolarizing(p):
    """``rho -> (1-p) rho + p I/2``."""
    return pauli_channel(p / 4, p / 4, p / 4)

def dephasing(p):
    """``rho -> (1-p) rho + p diag(rho)``."""
    return pauli_channel(0, 0, p / 2)

def random_channel(rng, din, dout, denv, in_name="Q", out_name="Q"):
    """Random channel from a Haar-ish random Stinespring isometry."""
    g = rng.normal(size=(dout * denv, din)) + 1j * rng.normal(size=(dout * denv, din))
    v, _ = np.linalg.qr(g)
    cube = v.reshape(dout, denv, din)
    kraus = [cube[:, e, :] for e in range(denv)]
    return QuantumChannel(kraus, [(in_name, din)], [(out_name, dout)])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_kraus_trace_preservation_enforced():
    with pytest.raises(ValueError):
        QuantumChannel([0.5 * np.eye(2)], [("Q", 2)], [("Q", 2)])

def test_trace_preservation_gate_sits_at_atol_invariant():
    # sum_k K_k^+ K_k = (1 + t) I for two copies of sqrt((1 + t) / 2) I
    def scaled(t):
        op = np.sqrt((1 + t) / 2) * np.eye(3)
        return QuantumChannel([op, op], [("Q", 3)], [("Q", 3)])

    scaled(0.5 * ATOL_INVARIANT)
    with pytest.raises(ValueError, match="trace preserving"):
        scaled(2 * ATOL_INVARIANT)

def test_kraus_operators_are_read_only_rows_of_the_stack():
    ch = depolarizing(0.3)
    assert ch.kraus_stack.shape == (4, 2, 2)
    assert not ch.kraus_stack.flags.writeable
    for k, op in enumerate(ch.kraus_operators):
        assert not op.flags.writeable
        assert np.shares_memory(op, ch.kraus_stack)
        assert np.array_equal(op, ch.kraus_stack[k])

def test_isometry_validates_columns():
    # an isometry is a channel with one Kraus operator V, V^+ V = I
    with pytest.raises(ValueError, match="trace preserving"):
        QuantumChannel([np.ones((4, 2))], [("Q", 2)], [("R", 4)])
    with pytest.raises(ValueError, match="trace preserving"):
        QuantumChannel([np.eye(2, 4)], [("Q", 4)], [("R", 2)])  # dout < din

def test_channel_refuses_mis_shaped_operators():
    # eight entries per operator fit (4, 4) only by reshaping, which is refused
    with pytest.raises(ValueError, match=r"shape \(2, 8\), expected \(4, 4\)"):
        QuantumChannel([np.ones((2, 8))], [("Q", 4)], [("M", 4)], validate=False)

# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def test_identity_channel_preserves_state_and_layout():
    rng = np.random.default_rng(31)
    rho = DensityMatrix(random_density(rng, 4), [("A", 2), ("B", 2)])
    out = apply_channel(identity_channel([("B", 2)]), rho)
    assert out.layout == rho.layout
    assert np.max(np.abs(out.entries - rho.entries)) < 1e-12

def test_fully_depolarizing_gives_maximally_mixed():
    rng = np.random.default_rng(32)
    rho = DensityMatrix(random_density(rng, 2), [("Q", 2)])
    out = apply_channel(depolarizing(1.0), rho)
    assert np.max(np.abs(out.entries - np.eye(2) / 2)) < 1e-12

def test_apply_channel_matches_superoperator_oracle():
    # vec(K rho K^+) = (K (x) conj(K)) vec(rho) in row-major vec convention
    rng = np.random.default_rng(33)
    for _ in range(5):
        ch = random_channel(rng, 3, 2, 4)
        rho = random_density(rng, 3)
        super_mat = sum(np.kron(k, k.conj()) for k in ch.kraus_operators)
        want = (super_mat @ rho.reshape(-1)).reshape(2, 2)
        got = apply_channel(ch, DensityMatrix(rho, [("Q", 3)]))
        assert np.max(np.abs(got.entries - want)) < 1e-12

def test_apply_channel_on_embedded_subsystem():
    rng = np.random.default_rng(34)
    ch = random_channel(rng, 2, 2, 2, in_name="B", out_name="B")
    a, b, c = random_density(rng, 2), random_density(rng, 2), random_density(rng, 3)
    joint = DensityMatrix(np.kron(a, np.kron(b, c)), [("A", 2), ("B", 2), ("C", 3)])
    out = apply_channel(ch, joint)
    assert out.layout == joint.layout
    super_mat = sum(np.kron(k, k.conj()) for k in ch.kraus_operators)
    b_out = (super_mat @ b.reshape(-1)).reshape(2, 2)
    assert np.max(np.abs(out.entries - np.kron(a, np.kron(b_out, c)))) < 1e-12

def test_apply_channel_on_two_nonadjacent_subsystems():
    # a channel consuming (C, A) in that order, applied to a state laid out
    # (A, B, C): the permutation plumbing must match an explicit oracle
    rng = np.random.default_rng(35)
    ch = random_channel(rng, 4, 4, 3)
    ch = QuantumChannel(ch.kraus_operators, [("C", 2), ("A", 2)], [("D", 4)])
    a, b, c = random_density(rng, 2), random_density(rng, 2), random_density(rng, 2)
    joint = DensityMatrix(np.kron(a, np.kron(b, c)), [("A", 2), ("B", 2), ("C", 2)])
    out = apply_channel(ch, joint)
    assert out.layout == (("D", 4), ("B", 2))
    super_mat = sum(np.kron(k, k.conj()) for k in ch.kraus_operators)
    ca = np.kron(c, a)
    d_out = (super_mat @ ca.reshape(-1)).reshape(4, 4)
    assert np.max(np.abs(out.entries - np.kron(d_out, b))) < 1e-10

def test_apply_channel_dimension_mismatch():
    rho = maximally_mixed("Q", 3)
    with pytest.raises(ValueError):
        apply_channel(identity_channel([("Q", 2)]), rho)
    # a raw matrix must be square over its whole layout, not just fill it
    with pytest.raises(ValueError, match=r"shape \(2, 8\), expected \(4, 4\)"):
        apply_channel_matrix(identity_channel([("A", 2)]), np.ones((2, 8)), [("A", 2), ("B", 2)])

def test_apply_channel_output_name_collision():
    ch = QuantumChannel([np.eye(2)], [("A", 2)], [("B", 2)], validate=False)
    rho = DensityMatrix(np.eye(4) / 4, [("A", 2), ("B", 2)])
    with pytest.raises(ValueError):
        apply_channel(ch, rho)

def test_apply_isometry_matches_matrix_action():
    rng = np.random.default_rng(36)
    g = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    v, _ = np.linalg.qr(g)
    iso = QuantumChannel([v], [("B", 2)], [("B", 2), ("E", 3)])
    psi_a = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi_a /= np.linalg.norm(psi_a)
    psi_b = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi_b /= np.linalg.norm(psi_b)
    joint = _on_support(np.kron(psi_a, psi_b), [("A", 2), ("B", 2)])
    out = apply_isometry(iso, joint)
    assert out.layout == (("A", 2), ("B", 2), ("E", 3))
    assert np.max(np.abs(_dense(out) - np.kron(psi_a, v @ psi_b))) < 1e-12

def _on_support(amps, layout, order=None):
    """The dense ``amps`` on its support, its nonzero amplitudes in
    flat-index order or permuted by ``order``."""
    support = np.flatnonzero(amps)
    if order is not None:
        support = support[order(len(support))]
    return SupportVector(support, amps[support], layout)

def _dense(state):
    """The dense amplitudes of a state held on its support."""
    amps = np.zeros(int(np.prod([dim for _, dim in state.layout])), dtype=complex)
    amps[state.index] = state.amplitudes
    return amps

def _consumed_first(layout, channel):
    """The reference bookkeeping, written apart from the kernels': the
    permutation that puts the channel's inputs first in channel-input order,
    the untouched positions, where the outputs are spliced in (at the first
    input's place among the untouched subsystems) and the new layout."""
    names = [nm for nm, _ in layout]
    consumed = [names.index(nm) for nm, _ in channel.input_layout]
    untouched = [k for k in range(len(layout)) if k not in consumed]
    insert_at = sum(1 for k in untouched if k < min(consumed))
    kept = [tuple(layout[k]) for k in untouched]
    new_layout = tuple(kept[:insert_at]) + tuple(channel.output_layout) + tuple(kept[insert_at:])
    return consumed + untouched, untouched, insert_at, new_layout

def _splice(n_out, n_rest, insert_at):
    """Axis order taking ``(outputs, rest)`` to ``(rest before, outputs, rest after)``."""
    order = list(range(n_out + n_rest))
    return order[n_out : n_out + insert_at] + order[:n_out] + order[n_out + insert_at :]

def _dense_apply_isometry(iso, amps, layout):
    """The dense reference: permute the whole state ``amps`` over
    ``layout`` so the consumed subsystems lead, multiply by the isometry,
    and permute the result back; returns the amplitudes and their layout."""
    perm, untouched, insert_at, new_layout = _consumed_first(layout, iso)
    dims = [dim for _, dim in layout]
    amps = amps.reshape(dims).transpose(perm)
    v = iso.kraus_stack[0]
    rest_dims = [dims[p] for p in untouched]
    out = v @ amps.reshape(v.shape[1], int(np.prod(rest_dims)))
    out_dims = [dim for _, dim in iso.output_layout]
    full = out.reshape(tuple(out_dims) + tuple(rest_dims))
    spliced = _splice(len(out_dims), len(rest_dims), insert_at)
    return full.transpose(spliced).reshape(-1), new_layout

@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    out_dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    data=st.data(),
)
def test_application_plan_places_outputs_and_rest(dims, out_dims, data):
    # out_at[a] + rest_at[r] is where (output a, untouched r) sits in the new
    # layout, read off an independent transpose of its flat positions
    layout = tuple((f"S{k}", d) for k, d in enumerate(dims))
    order = data.draw(st.permutations(range(len(dims))))
    consumed = order[: data.draw(st.integers(1, len(dims)))]
    in_layout = [layout[k] for k in consumed]
    out_layout = [(f"O{k}", d) for k, d in enumerate(out_dims)]
    din, dout = int(np.prod([d for _, d in in_layout])), int(np.prod(out_dims))
    ch = QuantumChannel(np.zeros((1, dout, din)), in_layout, out_layout, validate=False)
    perm, untouched, out_at, rest_at, new_layout = channels_module._application_plan(layout, ch)
    want_perm, want_untouched, insert_at, want_layout = _consumed_first(layout, ch)
    assert (list(perm), list(untouched), new_layout) == (want_perm, want_untouched, want_layout)
    new_dims = [d for _, d in new_layout]
    n_rest = len(untouched)
    # axes of the new layout in (outputs, rest) order: the inverse of the splice
    axes = np.argsort(_splice(len(out_dims), n_rest, insert_at))
    at = np.arange(int(np.prod(new_dims))).reshape(new_dims).transpose(axes).reshape(dout, -1)
    assert np.array_equal(out_at[:, None] + rest_at, at)

@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    growth=st.integers(1, 3),
    split_output=st.booleans(),
    sparse=st.booleans(),
    data=st.data(),
)
def test_apply_isometry_matches_dense_oracle(seed, dims, growth, split_output, sparse, data):
    # random layout, consumed subsystems in a random order (hence a random
    # insertion point), one or two output subsystems, sparse or dense state
    rng = np.random.default_rng(seed)
    layout = [(f"S{k}", d) for k, d in enumerate(dims)]
    order = data.draw(st.permutations(range(len(dims))))
    consumed = order[: data.draw(st.integers(1, len(dims)))]
    in_layout = [layout[k] for k in consumed]
    din = int(np.prod([d for _, d in in_layout]))
    out_layout = [("O", din), ("E", growth)] if split_output else [("O", din * growth)]
    g = rng.normal(size=(din * growth, din)) + 1j * rng.normal(size=(din * growth, din))
    iso = QuantumChannel([np.linalg.qr(g)[0]], in_layout, out_layout)
    dim = int(np.prod(dims))
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if sparse:
        amps[rng.permutation(dim)[: int(rng.integers(0, dim))]] = 0
    amps /= np.linalg.norm(amps)
    # the support in a random order: the kernel may not rely on a sorted one
    got = apply_isometry(iso, _on_support(amps, layout, rng.permutation))
    want, want_layout = _dense_apply_isometry(iso, amps, layout)
    assert got.layout == want_layout
    assert np.max(np.abs(_dense(got) - want)) <= 1e-13
    # the output is on its support: distinct indices, no exact zero kept
    assert len(np.unique(got.index)) == len(got.index) and np.all(got.amplitudes != 0)

def test_apply_isometry_refuses_more_than_one_operator():
    with pytest.raises(ValueError, match="one Kraus operator, not 4"):
        apply_isometry(depolarizing(0.3), SupportVector([1], [1], [("Q", 2)]))

def test_apply_isometry_output_is_frozen():
    iso = QuantumChannel([np.eye(2)], [("A", 2)], [("B", 2)])
    out = apply_isometry(iso, SupportVector([1], [1], [("A", 2)]))
    assert out.layout == (("B", 2),)
    assert np.array_equal(out.index, [1]) and np.array_equal(out.amplitudes, [1])
    for array in (out.index, out.amplitudes):
        with pytest.raises(ValueError):
            array[0] = 0

def test_support_vector_refuses_mismatched_arrays():
    with pytest.raises(ValueError, match="indices for"):
        SupportVector([0, 1], [1], [("A", 2)])


# ---------------------------------------------------------------------------
# Choi calculus
# ---------------------------------------------------------------------------

def test_choi_of_identity_is_maximally_entangled():
    j = choi_state(identity_channel([("Q", 2)]))
    phi = maximally_entangled("Q", "Q'", 2).density_matrix()
    assert j.layout == (("Q", 2), ("Q'", 2))
    assert np.max(np.abs(j.entries - phi.entries)) < 1e-12

def test_choi_reference_is_primed_even_when_input_and_output_names_differ():
    ch = QuantumChannel([X], [("Q", 2)], [("M", 2)])
    assert choi_state(ch).layout == (("M", 2), ("Q'", 2))
    # a decoder M -> Q applies to the Choi state without a name collision,
    # giving J(D o N) = (D (x) id)(J(N)) = J(id) here
    decoder = QuantumChannel([X], [("M", 2)], [("Q", 2)])
    decoded = apply_channel(decoder, choi_state(ch))
    j_id = choi_state(identity_channel([("Q", 2)]))
    assert decoded.layout == j_id.layout == (("Q", 2), ("Q'", 2))
    assert np.max(np.abs(decoded.entries - j_id.entries)) < 1e-12

def test_choi_of_constant_channel_is_product():
    rng = np.random.default_rng(39)
    sigma = DensityMatrix(random_density(rng, 2), [("S", 2)])
    # Kraus |l_a><i| over the columns l_a of a factor L L^+ = sigma
    chol = np.linalg.cholesky(sigma.entries)
    kraus = [np.outer(chol[:, a], np.eye(3)[i]) for a in range(2) for i in range(3)]
    ch = QuantumChannel(kraus, [("Q", 3)], sigma.layout)
    j = choi_state(ch)
    assert np.max(np.abs(j.entries - np.kron(sigma.entries, np.eye(3) / 3))) < 1e-12

def test_choi_reconstruction_identity():
    # N(rho) = d_in * tr_ref[(I (x) rho^T) J]
    rng = np.random.default_rng(40)
    for _ in range(5):
        ch = random_channel(rng, 3, 2, 3)
        j = choi_state(ch).entries
        rho = random_density(rng, 3)
        lifted = np.kron(np.eye(2), rho.T) @ j
        recon = 3 * np.trace(lifted.reshape(2, 3, 2, 3), axis1=1, axis2=3)
        want = sum(k @ rho @ k.conj().T for k in ch.kraus_operators)
        assert np.max(np.abs(recon - want)) < 1e-12

def test_channel_from_choi_round_trip():
    rng = np.random.default_rng(41)
    ch = random_channel(rng, 2, 3, 4)
    j = choi_state(ch)
    back = channel_from_choi(j.entries, ch.input_layout, ch.output_layout)
    assert np.max(np.abs(choi_state(back).entries - j.entries)) < 1e-10

def test_canonical_kraus_minimises_family():
    # 4 redundant Kraus operators for a unitary channel collapse to 1
    u = H
    ops = [0.5 * u, 0.5 * u, (np.sqrt(2) / 2) * u]
    ch = QuantumChannel(ops, [("Q", 2)], [("Q", 2)])
    assert len(canonical_kraus(ch).kraus_operators) == 1


# ---------------------------------------------------------------------------
# purification and complements
# ---------------------------------------------------------------------------

def test_purify_identity_has_trivial_environment():
    v = purify_channel(identity_channel([("Q", 2)]))
    assert v.output_layout[-1][1] == 1
    # identity isometry up to a global phase
    assert abs(abs(np.trace(v.kraus_stack[0])) - 2.0) < 1e-12

def test_purify_single_kraus_channel_is_itself():
    u = H
    v = purify_channel(QuantumChannel([u], [("Q", 2)], [("Q", 2)]))
    cube = v.kraus_stack[0].reshape(2, 1, 2)
    # unique up to global phase
    inner = abs(np.trace(cube[:, 0, :].conj().T @ u)) / 2
    assert abs(inner - 1.0) < 1e-9

def test_purification_reproduces_channel():
    rng = np.random.default_rng(42)
    ch = depolarizing(0.35)
    v = purify_channel(ch)
    env_name = v.output_layout[-1][0]
    op = v.kraus_stack[0]
    for _ in range(20):
        rho_mat = random_density(rng, 2)
        out = op @ rho_mat @ op.conj().T
        full = DensityMatrix(out, v.output_layout, validate=False)
        red = partial_trace(full, ["Q"])
        want = apply_channel(ch, DensityMatrix(rho_mat, [("Q", 2)]))
        assert np.max(np.abs(red.entries - want.entries)) < 1e-9
        comp_red = partial_trace(full, [env_name])
        comp = complementary_channel(ch)
        want_env = apply_channel(comp, DensityMatrix(rho_mat, [("Q", 2)]))
        assert np.max(np.abs(comp_red.entries - want_env.entries)) < 1e-9

def test_environment_dimension_bound():
    rng = np.random.default_rng(43)
    ch = random_channel(rng, 3, 2, 5)
    v = purify_channel(ch)
    assert v.output_layout[-1][1] <= ch.dim_in * ch.dim_out

def test_complement_of_identity_is_constant():
    comp = complementary_channel(identity_channel([("Q", 2)]))
    assert comp.dim_out == 1
    out = apply_channel(comp, maximally_mixed("Q", 2))
    assert np.max(np.abs(out.entries - np.ones((1, 1)))) < 1e-12

def test_complement_of_full_dephasing_carries_the_bit():
    comp = complementary_channel(dephasing(1.0))
    out0 = apply_channel(comp, DensityMatrix(np.diag([1.0, 0.0]), [("Q", 2)]))
    out1 = apply_channel(comp, DensityMatrix(np.diag([0.0, 1.0]), [("Q", 2)]))
    # the two environment states are perfectly distinguishable
    assert abs(trace_norm(out0.entries - out1.entries) - 2.0) < 1e-9

def test_complement_of_complement_matches_choi_spectrum():
    rng = np.random.default_rng(44)
    for ch in [dephasing(0.7), random_channel(rng, 2, 3, 2)]:
        comp2 = complementary_channel(complementary_channel(ch))
        s1 = np.sort(np.linalg.eigvalsh(choi_state(ch).entries))
        s2 = np.sort(np.linalg.eigvalsh(choi_state(comp2).entries))
        k = min(len(s1), len(s2))
        assert np.max(np.abs(s1[-k:] - s2[-k:])) < 1e-9
        if len(s1) > k:
            assert np.max(np.abs(s1[:-k])) < 1e-9
        if len(s2) > k:
            assert np.max(np.abs(s2[:-k])) < 1e-9


# ---------------------------------------------------------------------------
# diamond distance bounds
# ---------------------------------------------------------------------------

def test_diamond_bounds_identical_channels():
    ch = depolarizing(0.4)
    assert diamond_distance_bounds(ch, ch) == (0.0, 0.0)

def test_diamond_bounds_identity_vs_bitflip():
    lo, hi = diamond_distance_bounds(
        identity_channel([("Q", 2)]), QuantumChannel([X], [("Q", 2)], [("Q", 2)])
    )
    assert abs(lo - 2.0) < 1e-9
    assert abs(hi - 2.0) < 1e-9  # 2 * lower clamped to the diamond max 2

def test_diamond_bounds_identity_vs_full_dephasing():
    lo, hi = diamond_distance_bounds(
        identity_channel([("Q", 2)]), dephasing(1.0)
    )
    assert abs(lo - 1.0) < 1e-9
    assert lo <= hi

def test_diamond_bounds_ordering_random():
    rng = np.random.default_rng(45)
    for _ in range(10):
        a = random_channel(rng, 2, 2, 2)
        b = random_channel(rng, 2, 2, 2)
        lo, hi = diamond_distance_bounds(a, b)
        assert 0.0 <= lo <= hi + 1e-12

def test_diamond_bounds_layout_mismatch():
    with pytest.raises(ValueError):
        diamond_distance_bounds(identity_channel([("Q", 2)]), identity_channel([("Q", 3)]))


# ---------------------------------------------------------------------------
# the stacked Kraus array against the per-operator routes it replaced
# ---------------------------------------------------------------------------

def _choi_by_outer_products(ch):
    """Reference Choi matrix: one outer product per Kraus operator."""
    j = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ch.kraus_operators)
    return j / ch.dim_in

def _canonical_by_choi(ch):
    """Reference minimal family: eigendecomposition of the full Choi matrix."""
    return channel_from_choi(choi_state(ch).entries, ch.input_layout, ch.output_layout)

def _assert_canonical_matches_choi_route(ch):
    want = _canonical_by_choi(ch)
    got = canonical_kraus(ch)
    assert len(got.kraus_operators) == len(want.kraus_operators)
    assert np.max(np.abs(choi_state(got).entries - choi_state(want).entries)) < 1e-12
    assert np.max(np.abs(choi_state(got).entries - choi_state(ch).entries)) < 1e-12

def _mixed_family(rng, ch, m):
    """``m`` operators ``sum_i U[j, i] K_i`` for an isometry ``U``: the same
    channel, with Kraus rank unchanged but ``m`` operators."""
    r = len(ch.kraus_operators)
    g = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
    u, _ = np.linalg.qr(g)
    ops = np.tensordot(u, ch.kraus_stack, axes=(1, 0))
    return QuantumChannel(ops, ch.input_layout, ch.output_layout)

def _kron_square(ch):
    """Two parallel copies of ``ch`` as one channel, ``r^2`` Kraus operators."""
    ops = [np.kron(a, b) for a in ch.kraus_operators for b in ch.kraus_operators]
    return QuantumChannel(ops, [("Q", ch.dim_in**2)], [("M", ch.dim_out**2)])

@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    din=st.integers(1, 4),
    dout=st.integers(1, 4),
    denv=st.integers(1, 9),
)
def test_choi_state_matches_outer_products(seed, din, dout, denv):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, din, max(dout, -(-din // denv)), denv)
    assert np.max(np.abs(choi_state(ch).entries - _choi_by_outer_products(ch))) < 1e-12

@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    din=st.integers(1, 4),
    dout=st.integers(1, 4),
    denv=st.integers(1, 20),
)
def test_canonical_kraus_matches_choi_route_on_random_channels(seed, din, dout, denv):
    # denv > din * dout covers a family longer than the Choi matrix is wide
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, din, max(dout, -(-din // denv)), denv)
    _assert_canonical_matches_choi_route(ch)

@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    din=st.integers(1, 3),
    dout=st.integers(1, 3),
    rank=st.integers(1, 3),
    extra=st.integers(1, 12),
)
def test_canonical_kraus_matches_choi_route_on_rank_deficient_families(seed, din, dout, rank, extra):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, din, max(dout, -(-din // rank)), rank)
    redundant = _mixed_family(rng, ch, rank + extra)
    assert len(canonical_kraus(redundant).kraus_operators) <= rank
    _assert_canonical_matches_choi_route(redundant)

@pytest.mark.parametrize("p", [0.0, 0.2, 0.75, 1.0])
def test_canonical_kraus_matches_choi_route_on_degenerate_spectra(p):
    # the depolarizer's Choi spectrum is (1 - 3p/4, p/4, p/4, p/4)
    _assert_canonical_matches_choi_route(depolarizing(p))
    _assert_canonical_matches_choi_route(pauli_channel(0.25, 0.25, 0.25))

@pytest.mark.parametrize("weight", [1e-13, 1e-11])
def test_canonical_kraus_cut_matches_choi_route_at_the_rank_tolerance(weight):
    # a bit flip of probability ``weight`` has Choi spectrum (1 - weight, weight, 0, 0),
    # with ``weight`` just below or just above KRAUS_RANK_TOL
    _assert_canonical_matches_choi_route(pauli_channel(weight, 0, 0))

def test_canonical_kraus_matches_choi_route_on_longer_than_wide_families():
    rng = np.random.default_rng(46)
    sq = _kron_square(random_channel(rng, 2, 2, 5))
    assert len(sq.kraus_operators) > sq.dim_in * sq.dim_out
    _assert_canonical_matches_choi_route(sq)
    sq = _kron_square(depolarizing(1.0))
    _assert_canonical_matches_choi_route(_mixed_family(rng, sq, 20))

def test_canonical_kraus_matches_choi_route_on_repeated_gated_forwarding():
    p = parallel_repeat(gated_forwarding(), 2)
    for ch in (p.alice_channel(0), p.alice_channel(1), p.decoder(1, 1)):
        _assert_canonical_matches_choi_route(ch)
        _assert_canonical_matches_choi_route(_kron_square(ch))

def test_purify_forms_no_choi_matrix(monkeypatch):
    # the minimal family comes from the stacked Kraus vectors, never from
    # the (d_out d_in)-dimensional Choi matrix (1024 here)
    def refuse(*_args, **_kwargs):
        raise AssertionError("purification formed a Choi matrix")

    monkeypatch.setattr(channels_module, "choi_state", refuse)
    monkeypatch.setattr(channels_module, "channel_from_choi", refuse)
    ch = lifted_neq().alice_channel(0)
    v = purify_channel(ch)
    assert v.output_layout[-1][1] == 64
    rng = np.random.default_rng(47)
    rho = DensityMatrix(random_density(rng, ch.dim_in), ch.input_layout)
    op = v.kraus_stack[0]
    full = DensityMatrix(op @ rho.entries @ op.conj().T, v.output_layout, validate=False)
    got = partial_trace(full, [nm for nm, _ in ch.output_layout])
    assert np.max(np.abs(got.entries - apply_channel(ch, rho).entries)) < 1e-12

def _apply_per_kraus(channel, mat, layout):
    """Reference application: one pair of tensordots per Kraus operator."""
    perm, untouched, insert_at, new_layout = _consumed_first(layout, channel)
    dims = [d for _, d in layout]
    k = len(dims)
    tens = mat.reshape(dims + dims).transpose(list(perm) + [p + k for p in perm])
    din, dout = channel.dim_in, channel.dim_out
    rest_dims = [dims[p] for p in untouched]
    drest = int(np.prod(rest_dims))
    work = tens.reshape(din, drest, din, drest)
    out = np.zeros((dout, drest, dout, drest), dtype=complex)
    for kr in channel.kraus_operators:
        tmp = np.tensordot(kr, work, axes=(1, 0))
        out += np.tensordot(tmp, kr.conj(), axes=(2, 1)).transpose(0, 1, 3, 2)
    out_dims = [d for _, d in channel.output_layout]
    full = out.reshape(tuple(out_dims) + tuple(rest_dims) + tuple(out_dims) + tuple(rest_dims))
    spliced = _splice(len(out_dims), len(rest_dims), insert_at)
    m = len(spliced)
    d_new = int(np.prod([d for _, d in new_layout]))
    return full.transpose(spliced + [p + m for p in spliced]).reshape(d_new, d_new), new_layout

def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)

def _zero_mask(rng, r, dout, din, keep):
    """Whole rows and columns of each operator zeroed with probability
    ``1 - keep``; then one operator left fully dense and, when there is a
    second, one operator all zero."""
    rows = rng.random((r, dout, 1)) < keep
    cols = rng.random((r, 1, din)) < keep
    mask = rows & cols
    order = rng.permutation(r)
    mask[order[0]] = True
    if r > 1:
        mask[order[1]] = False
    return mask

@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)),
    consumed=st.sampled_from([("B",), ("C", "A"), ("A", "B", "C"), ("B", "C")]),
    out_dims=st.sampled_from([(1,), (2,), (5,), (8,), (2, 3)]),
    r=st.integers(1, 9),
    keep=st.sampled_from([0.3, 0.6, 0.9]),
)
def test_apply_channel_matrix_matches_per_kraus_loop(seed, dims, consumed, out_dims, r, keep):
    # raw non-Hermitian matrices, channels on middle and non-adjacent
    # subsystems, Kraus counts that are not a multiple of the block size;
    # operators with zero rows and columns, so blocks whose operators
    # cover different supports, an all-zero and a fully dense operator
    rng = np.random.default_rng(seed)
    layout = tuple(zip("ABC", dims))
    dim_of = dict(layout)
    in_layout = [(nm, dim_of[nm]) for nm in consumed]
    out_layout = list(zip(("M", "N"), out_dims))
    din, dout = int(np.prod([d for _, d in in_layout])), int(np.prod(out_dims))
    stack = _random_complex(rng, r, dout, din) * _zero_mask(rng, r, dout, din, keep)
    ch = QuantumChannel(stack, in_layout, out_layout, validate=False)
    d = int(np.prod(dims))
    mat = _random_complex(rng, d, d)
    got, got_layout = apply_channel_matrix(ch, mat, layout)
    want, want_layout = _apply_per_kraus(ch, mat, layout)
    assert got_layout == want_layout
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

def test_apply_channel_matrix_on_the_lifted_neq_support():
    # Alice's pad lift: 64 operators of 32 x 32, each with two nonzeros,
    # applied to the 256-dimensional state it meets in mid_protocol_state
    p = lifted_neq()
    ch = p.alice_channel(0)
    assert np.count_nonzero(ch.kraus_stack) == 128
    phi = maximally_entangled("Qbar", "Q", p.d_q).density_matrix()
    state = tensor(phi, bob_side_state(p, 0))
    rng = np.random.default_rng(49)
    for mat in (state.entries, _random_complex(rng, 256, 256)):
        got, got_layout = apply_channel_matrix(ch, mat, state.layout)
        want, want_layout = _apply_per_kraus(ch, mat, state.layout)
        assert got_layout == want_layout
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

def test_apply_channel_matrix_runs_partial_blocks():
    # d_in 2, d_out 8: blocks of 4 operators, so 7 operators leave a block of 3
    rng = np.random.default_rng(48)
    ch = QuantumChannel(_random_complex(rng, 7, 8, 2), [("B", 2)], [("M", 8)], validate=False)
    layout = (("A", 3), ("B", 2), ("C", 2))
    mat = _random_complex(rng, 12, 12)
    got, got_layout = apply_channel_matrix(ch, mat, layout)
    want, want_layout = _apply_per_kraus(ch, mat, layout)
    assert got_layout == want_layout == (("A", 3), ("M", 8), ("C", 2))
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the exact-zero block rule against the routes it replaced
# ---------------------------------------------------------------------------

def _apply_by_block(channel, mat, layout):
    """Reference application: the support-cut loop over Kraus blocks, one
    block at a time, each product added into the output as it comes."""
    perm, untouched, out_at, rest_at, new_layout = channels_module._application_plan(
        layout, channel
    )
    flat = channels_module._flat
    drest = len(rest_at)
    into = flat(layout, perm[: len(channel.input_layout)])[:, None] + flat(layout, untouched)
    out_of = out_at[:, None] + rest_at
    stack = channel.kraus_stack
    block = max(stack.shape[1:]) // min(stack.shape[1:])
    starts = np.arange(0, len(stack), block)
    nonzero = stack != 0
    reads = np.logical_or.reduceat(nonzero.any(axis=1), starts)
    writes = np.logical_or.reduceat(nonzero.any(axis=2), starts)
    acc = np.zeros((len(out_at) * drest,) * 2, dtype=complex)
    for lo, read, write in zip(starts.tolist(), reads, writes):
        if not read.any():
            continue
        ins, outs = np.flatnonzero(read), np.flatnonzero(write)
        ks = stack[lo : lo + block].take(ins, axis=2).take(outs, axis=1)
        src, dst = into[ins], out_of[outs]
        w = mat[src[:, :, None, None], src.T].reshape(len(ins), -1)
        b, m, c = ks.shape
        left = (ks.reshape(b * m, c) @ w).reshape(b, -1, c)
        left = left.transpose(1, 0, 2).reshape(-1, b * c)
        adjoints = ks.conj().transpose(0, 2, 1).reshape(b * c, m)
        acc[dst[:, :, None, None], dst.T] += (left @ adjoints).reshape(m, drest, drest, m)
    return acc, new_layout

@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)),
    consumed=st.sampled_from([("B",), ("C", "A"), ("A", "B", "C"), ("B", "C")]),
    out_dims=st.sampled_from([(1,), (2,), (5,), (8,), (2, 3)]),
    r=st.integers(1, 14),
    keep=st.sampled_from([0.3, 0.6, 0.9, 1.0, "few"]),
    zero_block=st.booleans(),
)
def test_apply_channel_matrix_equals_the_per_block_loop_bit_for_bit(
    seed, dims, consumed, out_dims, r, keep, zero_block
):
    # blocks of mixed support sizes in random order: with "few", every
    # operator reads 1-3 columns and writes 1-3 rows, so runs split where
    # the block shape changes within one budget run.  Kraus counts that
    # leave a partial last block; an all-zero block; fully dense
    # operators, whose blocks run one or two at a time
    rng = np.random.default_rng(seed)
    layout = tuple(zip("ABC", dims))
    dim_of = dict(layout)
    in_layout = [(nm, dim_of[nm]) for nm in consumed]
    out_layout = list(zip(("M", "N"), out_dims))
    din, dout = int(np.prod([d for _, d in in_layout])), int(np.prod(out_dims))
    if keep == "few":
        mask = np.zeros((r, dout, din), dtype=bool)
        for op in mask:
            rows = rng.permutation(dout)[: rng.integers(1, 4)]
            op[rows[:, None], rng.permutation(din)[: rng.integers(1, 4)]] = True
    else:
        mask = _zero_mask(rng, r, dout, din, keep)
    block = max(din, dout) // min(din, dout)
    if zero_block:
        lo = block * rng.integers(-(-r // block))
        mask[lo : lo + block] = False
    stack = _random_complex(rng, r, dout, din) * mask
    ch = QuantumChannel(stack, in_layout, out_layout, validate=False)
    d = int(np.prod(dims))
    mat = _random_complex(rng, d, d)
    got, got_layout = apply_channel_matrix(ch, mat, layout)
    want, want_layout = _apply_by_block(ch, mat, layout)
    assert got_layout == want_layout
    assert np.array_equal(got, want)

def test_apply_channel_matrix_equals_the_per_block_loop_on_the_lifted_neq_support():
    p = lifted_neq()
    phi = maximally_entangled("Qbar", "Q", p.d_q).density_matrix()
    state = tensor(phi, bob_side_state(p, 0))
    rng = np.random.default_rng(50)
    for ch in (p.alice_channel(0), p.alice_channel(1)):
        for mat in (state.entries, _random_complex(rng, 256, 256)):
            got, _ = apply_channel_matrix(ch, mat, state.layout)
            assert np.array_equal(got, _apply_by_block(ch, mat, state.layout)[0])

@pytest.mark.parametrize("ops, register, layout, bound", [
    # four dense one-qubit blocks, one run each: the output and two
    # product-sized buffers, 3.02 matrices.  Block-by-block application
    # peaked at about 5.26 matrices here, and runs that wrote their products
    # into run-sized value and index buffers at 5.02
    pytest.param([0.5 * PAULI[k] for k in "IXYZ"], ("B", 2), (("A", 64), ("B", 2), ("C", 2)),
                 3.1, id="pauli"),
    # sixteen one-entry blocks |a><i| / 2 in two runs of eight: the output
    # and two half-matrix run buffers, 2.02 matrices; run-sized value and
    # index buffers reached 3.02
    pytest.param(np.eye(16).reshape(16, 4, 4) / 2, ("B", 4), (("A", 4), ("B", 4), ("C", 16)),
                 2.1, id="one-entry"),
])
def test_dense_kraus_application_holds_no_more_than_block_by_block(ops, register, layout, bound):
    ch = QuantumChannel(ops, [register], [register])
    mat = _random_complex(np.random.default_rng(3), 256, 256)
    tracemalloc.start()
    try:
        apply_channel_matrix(ch, mat, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * mat.nbytes

def _dense_channel_from_choi(j, ch):
    """Reference Kraus family: one eigendecomposition of the whole Choi
    matrix, eigenvalues above KRAUS_RANK_TOL in descending order."""
    vals, vecs = np.linalg.eigh((j + j.conj().T) / 2)
    order = np.argsort(vals)[::-1]
    order = order[vals[order] > channels_module.KRAUS_RANK_TOL]
    ops = (vecs[:, order] * np.sqrt(ch.dim_in * vals[order])).T
    return QuantumChannel(ops.reshape(-1, ch.dim_out, ch.dim_in), ch.input_layout,
                          ch.output_layout)

def _block_structured_channel(data, rng):
    """A channel whose stacked Kraus vectors are block diagonal up to row
    and column permutations.  The input basis is split into random groups;
    each group gets its own random output rows and its own operators, from
    a random isometry, a depolarizer mixed by a random unitary (one block
    whose Choi spectrum is flat), or a copy of the group before it (equal
    spectra in two blocks).  The operators are then shuffled."""
    din = data.draw(st.integers(1, 6))
    dout = data.draw(st.integers(1, 4))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(din - 1, 1)), max_size=din - 1)))
    groups = np.split(rng.permutation(din), [c for c in cuts if c < din])
    ops, before = [], None
    for group in groups:
        kind = data.draw(st.sampled_from(["isometry", "flat", "copy"]))
        if kind == "copy" and before is not None and before.shape[2] == len(group):
            cube = before
        elif kind == "flat":
            width = data.draw(st.integers(1, dout))
            size = width * len(group)
            unitary = np.linalg.qr(_random_complex(rng, size, size))[0]
            basis = np.eye(size).reshape(width, len(group), size).transpose(2, 0, 1)
            cube = np.tensordot(unitary, basis, axes=(1, 0)) / np.sqrt(width)
        else:
            width = data.draw(st.integers(1, dout))
            env = -(-len(group) // width) + data.draw(st.integers(0, 2))
            iso = np.linalg.qr(_random_complex(rng, width * env, len(group)))[0]
            cube = iso.reshape(width, env, len(group)).transpose(1, 0, 2)
        before = cube
        rows = rng.permutation(dout)[: cube.shape[1]]
        placed = np.zeros((len(cube), dout, din), dtype=complex)
        placed[:, rows[:, None], group] = cube
        ops.append(placed)
    stack = np.concatenate(ops)[rng.permutation(sum(len(o) for o in ops))]
    return QuantumChannel(stack, [("Q", din)], [("M", dout)])

@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_block_split_kraus_families_reproduce_the_dense_route(seed, data):
    ch = _block_structured_channel(data, np.random.default_rng(seed))
    j = choi_state(ch).entries
    want = _dense_channel_from_choi(j, ch)
    want_spectrum = np.sum(np.abs(want.kraus_stack) ** 2, axis=(1, 2)) / ch.dim_in
    for got in (channel_from_choi(j, ch.input_layout, ch.output_layout), canonical_kraus(ch)):
        assert len(got.kraus_stack) == len(want.kraus_stack)
        assert np.max(np.abs(choi_state(got).entries - choi_state(want).entries)) < 1e-12
        spectrum = np.sum(np.abs(got.kraus_stack) ** 2, axis=(1, 2)) / ch.dim_in
        assert np.all(np.diff(spectrum) <= 1e-12)
        assert np.max(np.abs(spectrum - want_spectrum)) < 1e-12

def test_block_split_kraus_families_refuse_an_all_zero_input():
    with pytest.raises(ValueError, match="no positive spectrum"):
        channel_from_choi(np.zeros((6, 6), dtype=complex), [("Q", 2)], [("M", 3)])
    zero = QuantumChannel(np.zeros((4, 3, 2)), [("Q", 2)], [("M", 3)], validate=False)
    with pytest.raises(ValueError, match="no positive spectrum"):
        canonical_kraus(zero)
