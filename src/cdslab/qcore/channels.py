"""Quantum channels in Kraus form: application, purification, Choi calculus.

A channel maps states over ``input_layout`` to states over
``output_layout``; every Kraus operator has shape ``(dim_out, dim_in)``.
Channels may be applied to a larger state, acting as the identity on the
subsystems they do not name.

Choi convention: ``choi_state(n)`` is the normalised state
``(n (x) id)(|phi+><phi+|)`` with layout ``output_layout + reference``,
where the reference subsystems are fresh-named copies of the inputs and the
maximally entangled pairing follows the row-major vec ordering, so that
``J = (1/d_in) sum_k vec(K_k) vec(K_k)^+``.
"""

from __future__ import annotations

import math

import numpy as np

from .states import (
    ATOL_INVARIANT,
    DensityMatrix,
    Layout,
    StateVector,
    as_layout,
    fresh_name,
    layout_dim,
    layout_dims,
    layout_names,
    layout_positions,
    _frozen,
)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class QuantumChannel:
    """A completely positive trace-preserving map in Kraus form.

    Parameters
    ----------
    kraus_operators : sequence of array_like
        Each of shape ``(dim_out, dim_in)``.
    input_layout, output_layout : iterable of (name, dim)
    validate : bool
        When True (default) enforce ``sum_k K_k^+ K_k = I`` within 1e-9.
    """

    __slots__ = ("kraus_operators", "input_layout", "output_layout")

    def __init__(self, kraus_operators, input_layout, output_layout, validate: bool = True):
        in_lt = as_layout(input_layout)
        out_lt = as_layout(output_layout)
        din, dout = layout_dim(in_lt), layout_dim(out_lt)
        ops = tuple(_frozen(np.asarray(k, dtype=complex).reshape(dout, din)) for k in kraus_operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        if validate:
            acc = np.zeros((din, din), dtype=complex)
            for k in ops:
                acc += k.conj().T @ k
            gap = float(np.max(np.abs(acc - np.eye(din))))
            if gap > ATOL_INVARIANT:
                raise ValueError(f"Kraus operators not trace preserving (gap {gap:.3e})")
        object.__setattr__(self, "kraus_operators", ops)
        object.__setattr__(self, "input_layout", in_lt)
        object.__setattr__(self, "output_layout", out_lt)

    def __setattr__(self, *_):
        raise AttributeError("QuantumChannel is immutable")

    @property
    def dim_in(self) -> int:
        return layout_dim(self.input_layout)

    @property
    def dim_out(self) -> int:
        return layout_dim(self.output_layout)

    def __repr__(self):
        return (
            f"QuantumChannel({len(self.kraus_operators)} Kraus, "
            f"in={self.input_layout}, out={self.output_layout})"
        )


class Isometry:
    """A matrix with orthonormal columns mapping between layouts."""

    __slots__ = ("matrix", "input_layout", "output_layout")

    def __init__(self, matrix, input_layout, output_layout):
        in_lt = as_layout(input_layout)
        out_lt = as_layout(output_layout)
        din, dout = layout_dim(in_lt), layout_dim(out_lt)
        mat = _frozen(np.asarray(matrix, dtype=complex).reshape(dout, din))
        if dout < din:
            raise ValueError(f"isometry output dimension {dout} smaller than input {din}")
        gap = float(np.max(np.abs(mat.conj().T @ mat - np.eye(din))))
        if gap > ATOL_INVARIANT:
            raise ValueError(f"columns not orthonormal (gap {gap:.3e})")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "input_layout", in_lt)
        object.__setattr__(self, "output_layout", out_lt)

    def __setattr__(self, *_):
        raise AttributeError("Isometry is immutable")

    def as_channel(self) -> QuantumChannel:
        return QuantumChannel([self.matrix], self.input_layout, self.output_layout, validate=False)

    def __repr__(self):
        return f"Isometry(in={self.input_layout}, out={self.output_layout})"


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def identity_channel(layout) -> QuantumChannel:
    lt = as_layout(layout)
    return QuantumChannel([np.eye(layout_dim(lt))], lt, lt, validate=False)


# ---------------------------------------------------------------------------
# application with identity padding
# ---------------------------------------------------------------------------

def _application_plan(state_layout: Layout, channel: QuantumChannel):
    """Shared layout bookkeeping for applying a channel/isometry to a subset.

    Returns ``(perm, untouched, new_layout)`` where ``perm`` reorders the
    state so consumed subsystems come first in channel-input order, and
    ``new_layout`` splices the channel outputs where the first consumed
    subsystem used to sit.
    """
    in_names = layout_names(channel.input_layout)
    positions = layout_positions(state_layout, in_names)
    for pos, (want_name, want_dim) in zip(positions, channel.input_layout):
        have = state_layout[pos]
        if have[1] != want_dim:
            raise ValueError(
                f"subsystem {want_name!r} has dimension {have[1]} in the state "
                f"but the channel expects {want_dim}"
            )
    consumed = set(positions)
    untouched = [k for k in range(len(state_layout)) if k not in consumed]
    out_names = set(layout_names(channel.output_layout))
    for k in untouched:
        if state_layout[k][0] in out_names:
            raise ValueError(
                f"channel output name {state_layout[k][0]!r} collides with an untouched subsystem"
            )
    insert_at = sum(1 for k in untouched if k < min(positions))
    kept = [state_layout[k] for k in untouched]
    new_layout = tuple(kept[:insert_at]) + channel.output_layout + tuple(kept[insert_at:])
    perm = positions + untouched
    return perm, untouched, insert_at, new_layout

def apply_channel_matrix(channel: QuantumChannel, mat: np.ndarray, layout: Layout):
    """Apply ``channel`` to a raw square matrix over ``layout``.

    Returns ``(new_matrix, new_layout)``.  Used internally where inputs may
    fail DensityMatrix validation (quantized states, differences).
    """
    perm, untouched, insert_at, new_layout = _application_plan(layout, channel)
    dims = layout_dims(layout)
    k = len(dims)
    tens = mat.reshape(dims + dims).transpose(list(perm) + [p + k for p in perm])
    din = channel.dim_in
    drest = math.prod(dims[p] for p in untouched) if untouched else 1
    work = tens.reshape(din, drest, din, drest)
    dout = channel.dim_out
    out = np.zeros((dout, drest, dout, drest), dtype=complex)
    for kr in channel.kraus_operators:
        tmp = np.tensordot(kr, work, axes=(1, 0))          # a, r, i', s
        out += np.tensordot(tmp, kr.conj(), axes=(2, 1)).transpose(0, 1, 3, 2)
    # currently ordered (outputs, untouched); splice outputs to insert_at
    n_out = len(channel.output_layout)
    out_dims = layout_dims(channel.output_layout)
    rest_dims = [dims[p] for p in untouched]
    full = out.reshape(tuple(out_dims) + tuple(rest_dims) + tuple(out_dims) + tuple(rest_dims))
    order = list(range(n_out + len(rest_dims)))
    spliced = order[n_out : n_out + insert_at] + order[:n_out] + order[n_out + insert_at :]
    m = n_out + len(rest_dims)
    full = full.transpose(spliced + [p + m for p in spliced])
    d_new = layout_dim(new_layout)
    return full.reshape(d_new, d_new), new_layout

def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply ``channel`` to the subsystems it names, identity on the rest.

    The channel's outputs replace its inputs at the position of the first
    consumed subsystem; untouched subsystems keep their relative order, so
    an identity channel returns a state with the original layout.
    """
    mat, new_layout = apply_channel_matrix(channel, rho.entries, rho.layout)
    return DensityMatrix(mat, new_layout, validate=False)

def apply_isometry(iso: Isometry, psi: StateVector) -> StateVector:
    """Apply an isometry to the named subsystems of a pure state."""
    perm, untouched, insert_at, new_layout = _application_plan(psi.layout, iso.as_channel())
    dims = layout_dims(psi.layout)
    amps = psi.amplitudes.reshape(dims).transpose(perm)
    din = layout_dim(iso.input_layout)
    drest = math.prod(dims[p] for p in untouched) if untouched else 1
    work = amps.reshape(din, drest)
    out = iso.matrix @ work                                  # (dout, drest)
    out_dims = layout_dims(iso.output_layout)
    rest_dims = [dims[p] for p in untouched]
    full = out.reshape(tuple(out_dims) + tuple(rest_dims))
    n_out = len(out_dims)
    order = list(range(n_out + len(rest_dims)))
    spliced = order[n_out : n_out + insert_at] + order[:n_out] + order[n_out + insert_at :]
    return StateVector(full.transpose(spliced).reshape(-1), new_layout, validate=False)


# ---------------------------------------------------------------------------
# Choi calculus
# ---------------------------------------------------------------------------

def choi_state(channel: QuantumChannel) -> DensityMatrix:
    """Normalised Choi state ``(n (x) id)(phi+)`` on ``output + reference``.

    Reference subsystems copy the input layout with primed names, fresh
    against both the output and the input names, so a decoder back to the
    input names applies to the Choi state as is.
    """
    din = channel.dim_in
    dout = channel.dim_out
    j = np.zeros((dout * din, dout * din), dtype=complex)
    for k in channel.kraus_operators:
        w = k.reshape(-1)
        j += np.outer(w, w.conj())
    j /= din
    taken = list(layout_names(channel.output_layout)) + list(layout_names(channel.input_layout))
    ref = []
    for name, dim in channel.input_layout:
        rn = fresh_name(name, taken)
        taken.append(rn)
        ref.append((rn, dim))
    return DensityMatrix(j, channel.output_layout + tuple(ref), validate=False)

def channel_from_choi(j: np.ndarray, input_layout, output_layout) -> QuantumChannel:
    """Recover a Kraus family from a normalised Choi matrix."""
    in_lt = as_layout(input_layout)
    out_lt = as_layout(output_layout)
    din, dout = layout_dim(in_lt), layout_dim(out_lt)
    vals, vecs = np.linalg.eigh((j + j.conj().T) / 2)
    kraus = []
    for idx in np.argsort(vals)[::-1]:
        lam = float(vals[idx])
        if lam <= 1e-12:
            break
        kraus.append(np.sqrt(din * lam) * vecs[:, idx].reshape(dout, din))
    if not kraus:
        raise ValueError("Choi matrix has no positive spectrum")
    return QuantumChannel(kraus, in_lt, out_lt)

def canonical_kraus(channel: QuantumChannel) -> QuantumChannel:
    """Minimal Kraus family (Choi rank many operators) for the same map."""
    j = choi_state(channel)
    return channel_from_choi(j.entries, channel.input_layout, channel.output_layout)

def purify_channel(channel: QuantumChannel, env_name: str = "E") -> Isometry:
    """Stinespring isometry ``V`` with ``tr_env V rho V^+ = channel(rho)``.

    The environment is appended after the output subsystems (so it varies
    fastest) and its dimension equals the Choi rank, hence never exceeds
    ``dim_in * dim_out``.
    """
    minimal = canonical_kraus(channel)
    ops = minimal.kraus_operators
    denv = len(ops)
    dout, din = channel.dim_out, channel.dim_in
    v = np.zeros((dout, denv, din), dtype=complex)
    for k, op in enumerate(ops):
        v[:, k, :] = op
    env = fresh_name(env_name, layout_names(channel.output_layout))
    out_lt = channel.output_layout + ((env, denv),)
    return Isometry(v.reshape(dout * denv, din), channel.input_layout, out_lt)

def complementary_channel(channel: QuantumChannel) -> QuantumChannel:
    """The channel to the environment of ``purify_channel(channel)``.

    Sharing the isometry with ``purify_channel`` means that for any input,
    tracing the joint pure output over the environment gives ``channel`` and
    tracing over the original output gives this complement.
    """
    v = purify_channel(channel)
    dout = channel.dim_out
    denv = layout_dim(v.output_layout) // dout
    cube = v.matrix.reshape(dout, denv, channel.dim_in)
    kraus = [cube[o, :, :] for o in range(dout)]
    return QuantumChannel(kraus, channel.input_layout, (v.output_layout[-1],), validate=False)

def diamond_distance_bounds(a: QuantumChannel, b: QuantumChannel) -> tuple[float, float]:
    """Two-sided bounds on the diamond distance from the Choi difference.

    Returns ``(lower, upper)`` where ``lower = ||J_a - J_b||_1`` (the
    distance achieved at a maximally entangled input) and
    ``upper = min(2, dim_in * lower)``.  Both are zero exactly when the Choi
    states agree within numerical precision.
    """
    if layout_dims(a.input_layout) != layout_dims(b.input_layout) or layout_dims(
        a.output_layout
    ) != layout_dims(b.output_layout):
        raise ValueError("channels must share input and output dimensions")
    ja = choi_state(a).entries
    jb = choi_state(b).entries
    lower = float(np.linalg.svd(ja - jb, compute_uv=False).sum())
    if lower < 1e-15:
        lower = 0.0
    return lower, min(2.0, a.dim_in * lower)
