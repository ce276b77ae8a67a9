"""States, layouts, tensor products, and partial traces."""

import numpy as np
import pytest

from cdslab.qcore import (
    DensityMatrix,
    SupportVector,
    as_layout,
    fresh_name,
    layout_dim,
    layout_positions,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    partial_trace_matrix,
    permute_matrix,
    tensor,
)

def ket(index, name, dim):
    """The computational basis state ``|index>`` of one ``dim``-level system."""
    return SupportVector([index], [1.0], [(name, dim)])

def on_every_index(amps, layout):
    """A dense vector as a SupportVector listing every flat index."""
    return SupportVector(np.arange(len(amps)), amps, layout)

def dense(state):
    """The dense amplitudes of a state held on its support."""
    amps = np.zeros(layout_dim(state.layout), dtype=complex)
    amps[state.index] = state.amplitudes
    return amps

def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)

def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def test_layout_helpers():
    lt = as_layout([("A", 2), ("B", 3)])
    assert layout_dim(lt) == 6
    assert layout_positions(lt, ["B", "A"]) == [1, 0]

def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(ValueError):
        as_layout([("A", 2), ("A", 2)])
    with pytest.raises(ValueError):
        as_layout([("A", 0)])
    with pytest.raises(ValueError):
        as_layout([])

def test_layout_positions_missing_name():
    with pytest.raises(ValueError):
        layout_positions(as_layout([("A", 2)]), ["Z"])

def test_fresh_name_primes_until_free():
    assert fresh_name("Q", ["A"]) == "Q"
    assert fresh_name("Q", ["Q", "Q'"]) == "Q''"


# ---------------------------------------------------------------------------
# state construction and immutability
# ---------------------------------------------------------------------------

def test_support_vector_refuses_mis_shaped_arrays():
    # the right size in the wrong shape is refused, not flattened
    with pytest.raises(ValueError, match=r"\(4,\) indices for \(2, 2\) amplitudes"):
        SupportVector(np.arange(4), np.eye(2) / np.sqrt(2), [("Q", 4)])
    with pytest.raises(ValueError, match=r"\(2, 2\) indices for \(2, 2\) amplitudes"):
        SupportVector(np.arange(4).reshape(2, 2), np.eye(2) / np.sqrt(2), [("Q", 4)])
    with pytest.raises(ValueError, match=r"\(2,\) indices for \(3,\) amplitudes"):
        SupportVector([0, 1], [1.0, 0.0, 0.0], [("Q", 2)])

def test_support_vector_refuses_an_index_outside_the_layout():
    for index in ([4], [-1], [0, 7]):
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            SupportVector(index, np.ones(len(index)), [("A", 2), ("B", 2)])
    # the ends of the range are accepted
    assert list(SupportVector([0, 3], [1, 1], [("A", 2), ("B", 2)]).index) == [0, 3]

def test_support_vector_refuses_a_repeated_index():
    with pytest.raises(ValueError, match="repeats"):
        SupportVector([2, 0, 2], [1, 1, 1], [("A", 4)])

def test_states_are_immutable():
    psi = ket(0, "Q", 2)
    with pytest.raises(AttributeError):
        psi.amplitudes = np.zeros(2)
    with pytest.raises(AttributeError):
        psi.index = np.zeros(1)
    for array in (psi.amplitudes, psi.index):
        with pytest.raises(ValueError):
            array[0] = 0
    rho = psi.density_matrix()
    with pytest.raises(AttributeError):
        rho.entries = np.eye(2)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 5.0

def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix([[0, 1], [0, 0]], [("Q", 2)])  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), [("Q", 2)])  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix([[1.5, 0], [0, -0.5]], [("Q", 2)])  # negative eigenvalue
    # sixteen entries fit (4, 4) only by reshaping, which is refused
    with pytest.raises(ValueError, match=r"shape \(2, 8\), expected \(4, 4\)"):
        DensityMatrix(np.ones((2, 8)), [("A", 2), ("B", 2)], validate=False)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_basis_states_last_fastest():
    ket0 = ket(0, "A", 2)
    ket1 = ket(1, "B", 2)
    joint = tensor(ket0, ket1)
    assert np.array_equal(dense(joint), [0, 1, 0, 0])
    assert joint.layout == (("A", 2), ("B", 2))

def test_tensor_of_supports_matches_kron():
    # the support product, on random sparse parts with their supports in
    # random order: np.kron's entries bit for bit, first part slowest
    rng = np.random.default_rng(12)
    for _ in range(10):
        dims = rng.integers(1, 4, size=3)
        parts = []
        for k, dim in enumerate(dims):
            index = rng.permutation(dim)[: rng.integers(1, dim + 1)]
            amps = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))
            parts.append(SupportVector(index, amps, [(f"S{k}", dim)]))
        joint = tensor(*parts)
        want = dense(parts[0])
        for p in parts[1:]:
            want = np.kron(want, dense(p))
        assert joint.layout == tuple((f"S{k}", dim) for k, dim in enumerate(dims))
        assert np.array_equal(dense(joint), want)
        assert len(joint.index) == np.prod([len(p.index) for p in parts])

def test_density_matrix_of_a_support_vector():
    rng = np.random.default_rng(13)
    amps = random_pure(rng, 6)
    amps[[1, 4]] = 0
    psi = SupportVector([5, 0, 2, 3], amps[[5, 0, 2, 3]], [("A", 2), ("B", 3)])
    rho = psi.density_matrix()
    assert rho.layout == psi.layout
    assert np.array_equal(rho.entries, np.outer(amps, amps.conj()))
    assert not rho.entries[[1, 4]].any() and not rho.entries[:, [1, 4]].any()

def test_maximally_entangled_on_its_entries():
    for dim in (1, 2, 3, 4):
        phi = maximally_entangled("A", "B", dim)
        assert phi.layout == (("A", dim), ("B", dim))
        assert np.array_equal(phi.index, np.arange(dim) * (dim + 1))
        assert np.array_equal(dense(phi), np.eye(dim).reshape(-1) / np.sqrt(dim))

def test_tensor_maximally_mixed():
    pi = maximally_mixed("A", 2)
    joint = tensor(pi, maximally_mixed("B", 2))
    assert np.allclose(joint.entries, np.eye(4) / 4)

def test_tensor_plus_states_uniform():
    plus_a = on_every_index(np.ones(2) / np.sqrt(2), [("A", 2)])
    plus_b = on_every_index(np.ones(2) / np.sqrt(2), [("B", 2)])
    assert np.allclose(dense(tensor(plus_a, plus_b)), np.full(4, 0.5))

def test_tensor_name_collision():
    with pytest.raises(ValueError):
        tensor(ket(0, "A", 2), ket(0, "A", 2))

def test_tensor_mixed_kinds_rejected():
    with pytest.raises(ValueError):
        tensor(ket(0, "A", 2), maximally_mixed("B", 2))


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_maximally_entangled_marginal():
    phi = maximally_entangled("Q", "R", 2).density_matrix()
    red = partial_trace(phi, ["Q"])
    assert red.layout == (("Q", 2),)
    assert np.allclose(red.entries, np.eye(2) / 2)

def test_partial_trace_product_case():
    rho = tensor(ket(0, "A", 2), ket(1, "B", 2)).density_matrix()
    red = partial_trace(rho, ["A"])
    assert np.allclose(red.entries, [[1, 0], [0, 0]])

def test_partial_trace_schmidt_oracle():
    # reduced eigenvalues of a bipartite pure state are its squared
    # Schmidt coefficients, read off an SVD of the amplitude matrix
    rng = np.random.default_rng(11)
    for _ in range(8):
        amps = random_pure(rng, 6)
        psi = on_every_index(amps, [("A", 2), ("B", 3)])
        red = partial_trace(psi.density_matrix(), ["A"])
        schmidt = np.linalg.svd(amps.reshape(2, 3), compute_uv=False)
        eigs = np.sort(np.linalg.eigvalsh(red.entries))[::-1]
        want = np.zeros(2)
        want[: len(schmidt)] = schmidt**2
        assert np.max(np.abs(eigs - np.sort(want)[::-1])) < 1e-12

def test_partial_trace_keeps_original_order():
    rng = np.random.default_rng(5)
    rho = DensityMatrix(random_density(rng, 8), [("A", 2), ("B", 2), ("C", 2)])
    red = partial_trace(rho, ["C", "A"])
    assert red.layout == (("A", 2), ("C", 2))
    assert abs(np.trace(red.entries) - 1) < 1e-12

def test_partial_trace_middle_subsystem_oracle():
    rng = np.random.default_rng(6)
    a, b, c = random_density(rng, 2), random_density(rng, 3), random_density(rng, 2)
    joint = np.kron(a, np.kron(b, c))
    rho = DensityMatrix(joint, [("A", 2), ("B", 3), ("C", 2)])
    red = partial_trace(rho, ["A", "C"])
    assert np.max(np.abs(red.entries - np.kron(a, c))) < 1e-12

def test_partial_trace_errors():
    rho = maximally_mixed("A", 2)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, ["Z"])

def test_partial_trace_matrix_keep_all_is_identity():
    rng = np.random.default_rng(7)
    m = random_density(rng, 4)
    out = partial_trace_matrix(m, (2, 2), [0, 1])
    assert np.allclose(out, m)


# ---------------------------------------------------------------------------
# permutation
# ---------------------------------------------------------------------------

def test_permuted_swaps_basis_state():
    rho = tensor(ket(0, "A", 2), ket(1, "B", 2)).density_matrix()
    swapped = rho.permuted(["B", "A"])
    assert swapped.layout == (("B", 2), ("A", 2))
    flipped = np.zeros((4, 4))
    flipped[2, 2] = 1                                     # |1>|0> in new order
    assert np.allclose(swapped.entries, flipped)
    # the identity order: equal entries, read-only, the input unchanged
    before = rho.entries.copy()
    same = rho.permuted(["A", "B"])
    assert same.layout == rho.layout
    assert np.array_equal(same.entries, rho.entries)
    assert not same.entries.flags.writeable and not swapped.entries.flags.writeable
    assert np.array_equal(rho.entries, before) and not rho.entries.flags.writeable

def test_permuted_round_trip_density():
    rng = np.random.default_rng(8)
    rho = DensityMatrix(random_density(rng, 6), [("A", 2), ("B", 3)])
    back = rho.permuted(["B", "A"]).permuted(["A", "B"])
    assert np.max(np.abs(back.entries - rho.entries)) < 1e-12

def test_permute_matrix_matches_kron_swap():
    rng = np.random.default_rng(9)
    a, b = random_density(rng, 2), random_density(rng, 3)
    lt = as_layout([("A", 2), ("B", 3)])
    swapped = permute_matrix(np.kron(a, b), lt, [1, 0])
    assert np.max(np.abs(swapped - np.kron(b, a))) < 1e-12

def test_permuted_requires_full_order():
    rho = DensityMatrix(np.eye(4) / 4, [("A", 2), ("B", 2)])
    with pytest.raises(ValueError):
        rho.permuted(["A"])
