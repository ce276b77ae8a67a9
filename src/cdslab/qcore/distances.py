"""Trace norm, fidelity, and the ensemble square-root-fidelity bound."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .states import ATOL_INVARIANT, DensityMatrix

def _as_matrix(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.entries
    return np.asarray(state, dtype=complex)

def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian square root with tiny negative eigenvalues clamped to zero.

    Eigenvalues below ``-ATOL_INVARIANT`` (-1e-9, the bound a
    :class:`DensityMatrix` is held to) raise, since the input is then not a
    numerical density matrix but a genuinely indefinite one.
    """
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    if float(vals.min(initial=0.0)) < -ATOL_INVARIANT:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T

def _block_labels(nz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected-component labels of the rows and columns of a boolean pattern.

    Rows and columns are the two vertex sets of a bipartite graph with an
    edge per ``True`` entry.  Each label is the smallest row index of its
    component; an all-``False`` row or column gets ``nz.shape[0]``.

    Row labels are parent pointers.  Each round takes the smallest label
    two edges away from each row by masked min-reductions, hooks the row's
    root onto it, and jumps pointers until every row points at a root.
    Hooking whole trees at once keeps the rounds logarithmic even along a
    long chain of rows.
    """
    n_rows = nz.shape[0]
    labels = np.arange(n_rows)
    while True:
        cols = np.minimum.reduce(
            np.broadcast_to(labels[:, None], nz.shape), axis=0, where=nz, initial=n_rows
        )
        reach = np.minimum.reduce(
            np.broadcast_to(cols, nz.shape), axis=1, where=nz, initial=n_rows
        )
        new = labels.copy()
        np.minimum.at(new, labels, reach)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            return np.where(nz.any(axis=1), labels, n_rows), cols
        labels = new


def _blocks(m: np.ndarray, nz: np.ndarray):
    """The connected blocks of the boolean pattern ``nz`` of ``m``, grouped
    by shape: the one block rule of the dense kernels.

    Up to row and column permutations ``m`` is block diagonal in the
    components of :func:`_block_labels`, wherever it is zero off ``nz``.
    Yields ``(rows, cols, stack)`` per block shape ``(r, c)``, ascending:
    ``rows`` of shape ``(g, r)`` and ``cols`` of shape ``(g, c)`` hold each
    of the ``g`` blocks' indices, ascending, and ``stack = m[rows, cols]``
    of shape ``(g, r, c)`` the blocks themselves.  All-``False`` rows and
    columns lie in no block, so an all-``False`` pattern yields nothing.
    """
    n_rows, n_cols = nz.shape
    rows, cols = _block_labels(nz)
    # row and column indices grouped by block label, ascending within each
    # block, and each label's row and column counts
    row_idx = np.argsort(rows, kind="stable")
    col_idx = np.argsort(cols, kind="stable")
    row_count = np.bincount(rows, minlength=n_rows + 1)[:n_rows]
    col_count = np.bincount(cols, minlength=n_rows + 1)[:n_rows]
    row_start = np.cumsum(row_count) - row_count
    col_start = np.cumsum(col_count) - col_count
    labels = np.flatnonzero(row_count)
    shapes = row_count[labels] * (n_cols + 1) + col_count[labels]
    for shape in sorted(set(shapes.tolist())):
        blocks = labels[shapes == shape]
        r, c = divmod(shape, n_cols + 1)
        sub_rows = row_idx[row_start[blocks, None] + np.arange(r)]
        sub_cols = col_idx[col_start[blocks, None] + np.arange(c)]
        yield sub_rows, sub_cols, m[sub_rows[:, :, None], sub_cols[:, None, :]]


def trace_norm(mat) -> float:
    """Sum of singular values (Schatten 1-norm).

    Accepts a raw matrix or a DensityMatrix; always finite for finite input.
    The matrix is split by :func:`_blocks` into the connected blocks of its
    exact nonzero pattern, so its singular values are those of its blocks.
    Blocks of one shape share one stacked SVD; an all-zero matrix has norm
    exactly 0.0.
    """
    m = _as_matrix(mat)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"trace_norm expects a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("trace_norm input contains non-finite entries")
    total = 0.0
    for _, _, stack in _blocks(m, m != 0):
        total += float(np.linalg.svd(stack, compute_uv=False).sum())
    return total

def trace_distance(rho, sigma) -> float:
    """``||rho - sigma||_1`` (no 1/2 factor; halve for the metric form)."""
    return trace_norm(_as_matrix(rho) - _as_matrix(sigma))

def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity ``F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``.

    Computed in the symmetric form ``||sqrt(rho) sqrt(sigma)||_1^2``, which
    is algebraically identical and numerically stabler.  The result is
    clipped to [0, 1] to absorb rounding at the endpoints.
    """
    a = psd_sqrt(_as_matrix(rho))
    b = psd_sqrt(_as_matrix(sigma))
    root_sum = trace_norm(a @ b)
    return float(np.clip(root_sum ** 2, 0.0, 1.0))

def sqrt_fidelity(rho, sigma) -> float:
    """``sqrt(F)``, the quantity the ensemble bound below is stated for."""
    return float(np.sqrt(fidelity(rho, sigma)))

def fuchs_van_de_graaf_gaps(rho, sigma) -> tuple[float, float]:
    """Slack of the two Fuchs-van de Graaf inequalities, each >= 0 up to rounding.

    Returns ``(half_dist - (1 - sqrt(F)), sqrt(1 - F) - half_dist)`` where
    ``half_dist = ||rho - sigma||_1 / 2``.
    """
    f = fidelity(rho, sigma)
    half = 0.5 * trace_distance(rho, sigma)
    return half - (1.0 - np.sqrt(f)), float(np.sqrt(max(0.0, 1.0 - f))) - half

def ensemble_sqrt_fidelity_check(
    ensemble: Sequence[tuple[float, object]],
    candidates: Sequence[object],
) -> tuple[float, float]:
    """Evaluate both sides of the ensemble square-root-fidelity bound.

    For an ensemble ``{(p_i, rho_i)}`` the best average root fidelity any
    single state sigma can achieve obeys

        max_sigma sum_i p_i sqrt(F(sigma, rho_i))
            <= sqrt( sum_ij p_i p_j sqrt(F(rho_i, rho_j)) ).

    Parameters
    ----------
    ensemble : sequence of (probability, state)
        Probabilities must be nonnegative and sum to 1 within 1e-9.
    candidates : sequence of states
        Trial sigmas; the left side is maximised over these only, so the
        returned pair certifies the inequality rather than the exact max.

    Returns
    -------
    (max_lhs, rhs) : tuple of float
    """
    probs = np.array([float(p) for p, _ in ensemble])
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("ensemble probabilities must be nonnegative and sum to 1")
    states = [_as_matrix(r) for _, r in ensemble]
    if not candidates:
        raise ValueError("need at least one candidate state")
    max_lhs = max(
        float(sum(p * sqrt_fidelity(_as_matrix(sig), r) for p, r in zip(probs, states)))
        for sig in candidates
    )
    rhs_sq = 0.0
    for i, ri in enumerate(states):
        for j, rj in enumerate(states):
            rhs_sq += probs[i] * probs[j] * sqrt_fidelity(ri, rj)
    return max_lhs, float(np.sqrt(rhs_sq))
