"""Trace norm, fidelity, Fuchs-van de Graaf, and the ensemble bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab.qcore import (
    DensityMatrix,
    ensemble_sqrt_fidelity_check,
    fidelity,
    fuchs_van_de_graaf_gaps,
    psd_sqrt,
    sqrt_fidelity,
    trace_distance,
    trace_norm,
)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# trace norm
# ---------------------------------------------------------------------------

def test_trace_norm_orthogonal_pure_states():
    assert abs(trace_norm(KET0 - KET1) - 2.0) < 1e-12

def test_trace_norm_zero_difference():
    assert trace_norm(KET0 - KET0) == 0.0

def test_trace_norm_nonorthogonal_pair():
    # eigenvalues of |0><0| - |+><+| are +-1/sqrt(2)
    assert abs(trace_norm(KET0 - PLUS) - np.sqrt(2)) < 1e-12

def test_trace_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        trace_norm(np.array([[np.nan, 0], [0, 1]]))

def test_trace_norm_is_a_norm():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9
        c = complex(rng.normal(), rng.normal())
        assert abs(trace_norm(c * a) - abs(c) * trace_norm(a)) < 1e-9

def _full_svd_norm(m):
    """The oracle: singular values of the whole matrix, summed."""
    return float(np.linalg.svd(m, compute_uv=False).sum())

def _close_to_oracle(m):
    return abs(trace_norm(m) - _full_svd_norm(m)) <= 1e-12 * max(1.0, np.linalg.norm(m))

@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=6),
    fill=st.sampled_from([0.3, 0.7, 1.0]),
)
def test_trace_norm_matches_full_svd_on_planted_blocks(seed, shapes, fill):
    # blocks (some not square) down the diagonal, zero padding to a square,
    # then random row and column permutations; entries inside a block may
    # vanish too, splitting it further
    rng = np.random.default_rng(seed)
    rows = sum(r for r, _ in shapes)
    cols = sum(c for _, c in shapes)
    dim = max(rows, cols)
    m = np.zeros((dim, dim), dtype=complex)
    r0 = c0 = 0
    for r, c in shapes:
        block = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
        m[r0 : r0 + r, c0 : c0 + c] = block * (rng.random((r, c)) < fill)
        r0, c0 = r0 + r, c0 + c
    m = m[rng.permutation(dim)][:, rng.permutation(dim)]
    assert _close_to_oracle(m)

def test_trace_norm_of_zero_matrix_is_exactly_zero():
    assert trace_norm(np.zeros((7, 7), dtype=complex)) == 0.0
    assert trace_norm(np.zeros((256, 256))) == 0.0

def test_trace_norm_single_entry_and_dense():
    m = np.zeros((5, 5), dtype=complex)
    m[3, 1] = 2 - 1j
    assert trace_norm(m) == pytest.approx(abs(2 - 1j), abs=1e-15)
    rng = np.random.default_rng(8)
    dense = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert _close_to_oracle(dense)

def test_trace_norm_on_a_long_chain_of_blocks():
    # a bidiagonal pattern is one block whose labels cross 300 steps
    rng = np.random.default_rng(9)
    m = np.diag(rng.normal(size=300)) + np.diag(rng.normal(size=299), 1)
    perm = rng.permutation(300)
    assert _close_to_oracle(m[perm][:, perm])

def test_trace_distance_accepts_density_matrices():
    rho = DensityMatrix(KET0, [("Q", 2)])
    sig = DensityMatrix(KET1, [("Q", 2)])
    assert abs(trace_distance(rho, sig) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_endpoint_cases():
    rng = np.random.default_rng(22)
    rho = random_density(rng, 4)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-9
    assert fidelity(KET0, KET1) < 1e-12

def test_fidelity_half_for_zero_vs_plus():
    assert abs(fidelity(KET0, PLUS) - 0.5) < 1e-12

def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b = random_density(rng, 3), random_density(rng, 3)
        fab, fba = fidelity(a, b), fidelity(b, a)
        assert abs(fab - fba) < 1e-9
        assert 0.0 <= fab <= 1.0

def test_fidelity_pure_states_is_overlap():
    rng = np.random.default_rng(24)
    for _ in range(10):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        f = fidelity(np.outer(u, u.conj()), np.outer(v, v.conj()))
        assert abs(f - abs(np.vdot(u, v)) ** 2) < 1e-10

def test_psd_sqrt_rejects_indefinite():
    # one rule: below -ATOL_INVARIANT (-1e-9) raises, anything above is clamped
    for low in (-0.5, -1e-8):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psd_sqrt(np.diag([1.0, low]))
    assert np.array_equal(psd_sqrt(np.diag([1.0, -1e-13])), np.diag([1.0, 0.0]))

def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(25)
    rho = random_density(rng, 5)
    r = psd_sqrt(rho)
    assert np.max(np.abs(r @ r - rho)) < 1e-12


# ---------------------------------------------------------------------------
# Fuchs-van de Graaf
# ---------------------------------------------------------------------------

def test_fuchs_van_de_graaf_random_pairs():
    rng = np.random.default_rng(26)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        lo, hi = fuchs_van_de_graaf_gaps(random_density(rng, d), random_density(rng, d))
        assert lo >= -1e-9
        assert hi >= -1e-9

def test_fuchs_van_de_graaf_tight_for_pure_states():
    # for pure states the upper inequality is an equality
    _, hi = fuchs_van_de_graaf_gaps(KET0, PLUS)
    assert abs(hi) < 1e-9


# ---------------------------------------------------------------------------
# ensemble square-root-fidelity bound
# ---------------------------------------------------------------------------

def test_ensemble_bound_single_element():
    rho = DensityMatrix(KET0, [("Q", 2)])
    max_lhs, rhs = ensemble_sqrt_fidelity_check([(1.0, rho)], [rho])
    assert abs(max_lhs - 1.0) < 1e-12
    assert abs(rhs - 1.0) < 1e-12

def test_ensemble_bound_orthogonal_pair():
    # two orthogonal pure states with p = 1/2: cross terms vanish, so
    # rhs = sqrt(2 * (1/4)) = sqrt(1/2); the midpoint candidate attains it
    midpoint = (KET0 + KET1) / 2
    max_lhs, rhs = ensemble_sqrt_fidelity_check(
        [(0.5, KET0), (0.5, KET1)], [KET0, KET1, midpoint]
    )
    assert abs(rhs - np.sqrt(0.5)) < 1e-12
    assert max_lhs <= rhs + 1e-9
    assert abs(max_lhs - np.sqrt(0.5)) < 1e-9

def test_ensemble_bound_random_qubit_ensembles():
    rng = np.random.default_rng(27)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(k))
        states = [random_density(rng, 2) for _ in range(k)]
        candidates = states + [random_density(rng, 2)]
        max_lhs, rhs = ensemble_sqrt_fidelity_check(list(zip(probs, states)), candidates)
        assert max_lhs <= rhs + 1e-9

def test_ensemble_bound_validates_probabilities():
    with pytest.raises(ValueError):
        ensemble_sqrt_fidelity_check([(0.7, KET0), (0.7, KET1)], [KET0])
    with pytest.raises(ValueError):
        ensemble_sqrt_fidelity_check([(1.0, KET0)], [])

def test_sqrt_fidelity_matches_fidelity():
    rng = np.random.default_rng(28)
    a, b = random_density(rng, 3), random_density(rng, 3)
    assert abs(sqrt_fidelity(a, b) ** 2 - fidelity(a, b)) < 1e-12
