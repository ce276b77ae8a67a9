"""Channel application, purification, complements, and Choi calculus."""

import numpy as np
import pytest

from cdslab.qcore import (
    PAULI,
    DensityMatrix,
    Isometry,
    QuantumChannel,
    StateVector,
    apply_channel,
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
    trace_norm,
)

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

def test_isometry_validates_columns():
    with pytest.raises(ValueError):
        Isometry(np.ones((4, 2)), [("Q", 2)], [("R", 4)])
    with pytest.raises(ValueError):
        Isometry(np.eye(2, 4), [("Q", 4)], [("R", 2)])  # dout < din

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

def test_apply_channel_output_name_collision():
    ch = QuantumChannel([np.eye(2)], [("A", 2)], [("B", 2)], validate=False)
    rho = DensityMatrix(np.eye(4) / 4, [("A", 2), ("B", 2)])
    with pytest.raises(ValueError):
        apply_channel(ch, rho)

def test_apply_isometry_matches_matrix_action():
    rng = np.random.default_rng(36)
    g = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    v, _ = np.linalg.qr(g)
    iso = Isometry(v, [("B", 2)], [("B", 2), ("E", 3)])
    psi_a = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi_a /= np.linalg.norm(psi_a)
    psi_b = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi_b /= np.linalg.norm(psi_b)
    joint = StateVector(np.kron(psi_a, psi_b), [("A", 2), ("B", 2)])
    out = apply_isometry(iso, joint)
    assert out.layout == (("A", 2), ("B", 2), ("E", 3))
    assert np.max(np.abs(out.amplitudes - np.kron(psi_a, v @ psi_b))) < 1e-12


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
    assert abs(abs(np.trace(v.matrix.reshape(2, 2))) - 2.0) < 1e-12

def test_purify_single_kraus_channel_is_itself():
    u = H
    v = purify_channel(QuantumChannel([u], [("Q", 2)], [("Q", 2)]))
    cube = v.matrix.reshape(2, 1, 2)
    # unique up to global phase
    inner = abs(np.trace(cube[:, 0, :].conj().T @ u)) / 2
    assert abs(inner - 1.0) < 1e-9

def test_purification_reproduces_channel():
    rng = np.random.default_rng(42)
    ch = depolarizing(0.35)
    v = purify_channel(ch)
    env_name = v.output_layout[-1][0]
    for _ in range(20):
        rho_mat = random_density(rng, 2)
        out = v.matrix @ rho_mat @ v.matrix.conj().T
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
