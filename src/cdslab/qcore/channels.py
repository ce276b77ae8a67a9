"""Quantum channels in Kraus form: application, purification, Choi calculus.

A channel maps states over ``input_layout`` to states over
``output_layout``; every Kraus operator has shape ``(dim_out, dim_in)``.
Channels may be applied to a larger state, acting as the identity on the
subsystems they do not name.

Every dense operation is computed from one stacked Kraus array: a channel
keeps its ``r`` operators as ``kraus_stack`` of shape ``(r, dim_out,
dim_in)``, whose rows flatten to the columns ``vec(K_k)`` of
``A = [vec(K_1) ... vec(K_r)]``, of shape ``(dim_out * dim_in, r)``.
Trace preservation is one product ``sum_k K_k^+ K_k``, application runs in
blocks of stacked operators, each on the rows and columns its operators'
exact nonzeros touch, and the minimal Kraus family comes from the thin SVD
of ``A``, so no Choi matrix is formed for it.

Exact zeros are the one block rule of the dense kernels: a matrix whose
exact nonzero pattern splits into connected blocks is block diagonal up to
row and column permutations, and :func:`cdslab.qcore.distances._blocks`
groups those blocks by shape.  ``trace_norm`` takes one stacked SVD per
shape, ``channel_from_choi`` one stacked ``eigh`` of the Choi matrix's
blocks and ``canonical_kraus`` one stacked thin SVD of ``A``'s;
consecutive Kraus blocks of one operator count and support sizes share one
batched application, a run that ends where the shape or the memory budget
changes.  Zeros are exact zeros, never a tolerance.  A degenerate
eigenspace split over several blocks may get another basis than one
decomposition of the whole matrix would give it, an equally valid one.

Where a channel reads its inputs in a larger state and writes its outputs
is one rule, ``_application_plan``: flat-index maps of the consumed, the
untouched and the output subsystems.  Mixed and pure application both
gather and scatter through them, so no whole state is transposed.

An isometry ``V`` (``V^+ V = I``) is a channel with the one Kraus operator
``V``: ``purify_channel`` returns its Stinespring dilation in that form, and
``apply_isometry`` applies such a channel to a pure state held on its
support (:class:`cdslab.qcore.states.SupportVector`), whose output it
keeps on its support too.

Kraus families are built the same way: every dense builder (the pad lift
and parallel repetition in :mod:`cdslab.framework`, the Petz map and the
decoder search in :mod:`cdslab.qcore.optimize`, the noisy toys) writes one
``(r, dim_out, dim_in)`` array by indexing, broadcasting or batched
products, in a fixed Kraus order stated where it is built, and hands it to
:class:`QuantumChannel` whole.  ``kraus_operators`` are views of its rows.

Choi convention: ``choi_state(n)`` is the normalised state
``(n (x) id)(|phi+><phi+|)`` with layout ``output_layout + reference``,
where the reference subsystems are fresh-named copies of the inputs and the
maximally entangled pairing follows the row-major vec ordering, so that
``J = (1/d_in) sum_k vec(K_k) vec(K_k)^+ = A A^+ / d_in``.
"""

from __future__ import annotations

import math

import numpy as np

from .distances import _blocks, trace_norm
from .states import (
    ATOL_INVARIANT,
    DensityMatrix,
    Layout,
    SupportVector,
    as_layout,
    fresh_name,
    layout_dim,
    layout_dims,
    layout_names,
    layout_positions,
)

#: Choi eigenvalues at or below this count as zero, both when a Kraus family
#: is read off a Choi matrix and when one is compressed by SVD (there the
#: eigenvalue of a singular value ``s`` of the stacked Kraus vectors is
#: ``s^2 / d_in``)
KRAUS_RANK_TOL = 1e-12

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
    kraus_operators : array_like
        A stack of shape ``(r, dim_out, dim_in)``, or a sequence of ``r``
        operators of that shape; copied.  Any other shape raises.
    input_layout, output_layout : iterable of (name, dim)
    validate : bool
        When True (default) enforce ``sum_k K_k^+ K_k = I`` within 1e-9.

    Attributes
    ----------
    kraus_stack : ndarray
        The operators stacked, shape ``(r, dim_out, dim_in)``, read-only.
    kraus_operators : tuple of ndarray
        Read-only views of the rows of ``kraus_stack``.
    """

    __slots__ = ("kraus_stack", "kraus_operators", "input_layout", "output_layout")

    def __init__(self, kraus_operators, input_layout, output_layout, validate: bool = True):
        in_lt = as_layout(input_layout)
        out_lt = as_layout(output_layout)
        din, dout = layout_dim(in_lt), layout_dim(out_lt)
        stack = np.array(kraus_operators, dtype=complex)
        if not len(stack):
            raise ValueError("channel needs at least one Kraus operator")
        if stack.shape[1:] != (dout, din):
            raise ValueError(f"Kraus operators of shape {stack.shape[1:]}, expected ({dout}, {din})")
        stack.flags.writeable = False
        if validate:
            rows = stack.reshape(-1, din)                    # (k, out) x in
            gap = float(np.max(np.abs(rows.conj().T @ rows - np.eye(din))))
            if gap > ATOL_INVARIANT:
                raise ValueError(f"Kraus operators not trace preserving (gap {gap:.3e})")
        object.__setattr__(self, "kraus_stack", stack)
        object.__setattr__(self, "kraus_operators", tuple(stack))
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
            f"QuantumChannel({len(self.kraus_stack)} Kraus, "
            f"in={self.input_layout}, out={self.output_layout})"
        )


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def identity_channel(layout) -> QuantumChannel:
    lt = as_layout(layout)
    return QuantumChannel([np.eye(layout_dim(lt))], lt, lt, validate=False)


# ---------------------------------------------------------------------------
# application with identity padding
# ---------------------------------------------------------------------------

def _flat(layout: Layout, positions) -> np.ndarray:
    """The flat index in ``layout`` of every combination of the subsystems at
    ``positions``, row-major over them in the order given, with every other
    subsystem at 0; the sum of two such maps over disjoint positions indexes
    their joint combinations."""
    dims = layout_dims(layout)
    index = np.zeros(1, dtype=np.intp)
    for p in positions:
        index = np.add.outer(index, np.arange(dims[p]) * math.prod(dims[p + 1 :])).ravel()
    return index

def _application_plan(state_layout: Layout, channel: QuantumChannel):
    """Shared layout bookkeeping for applying a channel to a subset of a
    state's subsystems, as a mixed or a pure state: the one placement rule
    of both kernels.

    Returns ``(perm, untouched, out_at, rest_at, new_layout)``.  ``perm``
    lists the consumed subsystems in channel-input order, then the
    ``untouched`` ones in state order.  ``new_layout`` splices the channel
    outputs in where the first consumed subsystem sat, and ``out_at[a] +
    rest_at[r]`` is the flat index in ``new_layout`` of channel output
    ``a`` with the untouched subsystems at their row-major combination
    ``r``.
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
    spliced = range(insert_at, insert_at + len(channel.output_layout))
    out_at = _flat(new_layout, spliced)
    rest_at = _flat(new_layout, [k for k in range(len(new_layout)) if k not in spliced])
    return positions + untouched, untouched, out_at, rest_at, new_layout

def apply_channel_matrix(channel: QuantumChannel, mat: np.ndarray, layout: Layout):
    """Apply ``channel`` to a raw square matrix over ``layout``.

    Returns ``(new_matrix, new_layout)``.  Used internally where inputs may
    fail DensityMatrix validation (quantized states, differences).

    The Kraus operators act in blocks of ``b = max(d_in, d_out) //
    min(d_in, d_out)`` (the last block may hold fewer), two matrix products
    per block: the stacked block times the matrix, then the result times
    the stacked adjoints, summed over the block.  So a block's first
    product is no larger than the bigger of the input and output matrices.

    Each block acts on its support, read off the exact zeros of its
    operators: the input columns some operator in the block reads and the
    output rows some operator writes.  Only those rows and columns of the
    consumed input are gathered, the operators are cut down to them, and
    the product is scattered into only those output rows and columns; a
    block of all-zero operators is skipped.  Both the gather and the
    scatter go through the flat-index maps of :func:`_application_plan`,
    straight from the input matrix and into the returned one, so no whole
    matrix is transposed.

    Consecutive blocks of one operator count and support sizes share a
    run: one batched gather and two batched products, each block's bit for
    bit the product it would have alone, and one ``np.add.at`` of the
    products into the output, in block order, so every entry is summed in
    the order block-by-block application would sum it.  A run ends where
    the block shape changes, or where the work of the blocks before it,
    counted in entries held, passes another multiple of one input plus one
    output matrix.  A dense block fills a run alone and holds no more than
    it would alone; a run of small blocks may hold up to about one input
    plus one output matrix more.
    """
    d = layout_dim(layout)
    if mat.shape != (d, d):
        raise ValueError(f"matrix of shape {mat.shape}, expected ({d}, {d}) for its layout")
    perm, untouched, out_at, rest_at, new_layout = _application_plan(layout, channel)
    drest = len(rest_at)
    # flat index of consumed input i with untouched r, and of output a with r
    into = _flat(layout, perm[: len(channel.input_layout)])[:, None] + _flat(layout, untouched)
    out_of = out_at[:, None] + rest_at
    stack = channel.kraus_stack
    block = max(stack.shape[1:]) // min(stack.shape[1:])               # d_out, d_in
    starts = np.arange(0, len(stack), block)
    # per block, the input columns i and output rows a its operators touch
    nonzero = stack != 0
    reads = np.logical_or.reduceat(nonzero.any(axis=1), starts)         # block, i
    writes = np.logical_or.reduceat(nonzero.any(axis=2), starts)        # block, a
    sizes = np.stack([np.minimum(block, len(stack) - starts), reads.sum(axis=1),
                      writes.sum(axis=1)], axis=1)                     # block: b, c, m
    live = np.flatnonzero(sizes[:, 1])                                  # skip all-zero blocks
    # entries a block holds: (c + b m)^2 bounds its input, products and output
    held = drest**2 * (sizes[live, 1] + sizes[live, 0] * sizes[live, 2]) ** 2
    run = (np.cumsum(held) - held) // (mat.size + layout_dim(new_layout) ** 2)
    acc = np.zeros((layout_dim(new_layout),) * 2, dtype=complex)
    # a run ends where the budget run or the block shape changes
    cut = (np.diff(run) != 0) | np.any(np.diff(sizes[live], axis=0) != 0, axis=1)
    for blocks in np.split(live, np.flatnonzero(cut) + 1) if len(live) else ():
        (b, c, m), g = sizes[blocks[0]].tolist(), len(blocks)
        ins = np.nonzero(reads[blocks])[1].reshape(g, c)
        outs = np.nonzero(writes[blocks])[1].reshape(g, m)
        ops = starts[blocks, None] + np.arange(b)
        ks = stack[ops[:, :, None, None], outs[:, None, :, None], ins[:, None, None, :]]
        src, dst = into[ins], out_of[outs]                           # run, i or a, r
        # C-ordered transposes keep the gather and the flat indices below
        # C-ordered, so each reshapes in place
        src_t, dst_t = (np.ascontiguousarray(v.transpose(0, 2, 1)) for v in (src, dst))
        # entry (i, r, s, i') is row (i, r) and column (i', s) of the input
        w = mat[src[:, :, :, None, None], src_t[:, None, None]].reshape(g, c, -1)
        # each product's operand is freed once the product is made, and a
        # run's last buffers before the next run's gather, so no more than
        # two of these buffers are held at a time
        left = (ks.reshape(g, b * m, c) @ w).reshape(g, b, -1, c)
        del w
        left = left.transpose(0, 2, 1, 3).reshape(g, -1, b * c)         # (a, r, s), (k, i')
        adjoints = ks.conj().transpose(0, 1, 3, 2).reshape(g, b * c, m)
        product = left @ adjoints                                       # (a, r, s), a'
        del left
        spots = dst[:, :, :, None, None] * len(acc) + dst_t[:, None, None]
        np.add.at(acc.reshape(-1), spots.reshape(-1), product.reshape(-1))
        del product, spots
    return acc, new_layout

def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply ``channel`` to the subsystems it names, identity on the rest.

    The channel's outputs replace its inputs at the position of the first
    consumed subsystem; untouched subsystems keep their relative order, so
    an identity channel returns a state with the original layout.
    """
    mat, new_layout = apply_channel_matrix(channel, rho.entries, rho.layout)
    return DensityMatrix(mat, new_layout, validate=False)

def _compress(index: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``index`` (each below ``size``), ascending, and
    the position of each entry of ``index`` among them."""
    seen = np.zeros(size, dtype=bool)
    seen[index] = True
    used = np.flatnonzero(seen)
    return used, used.searchsorted(index)

def apply_isometry(iso: QuantumChannel, psi: SupportVector) -> SupportVector:
    """Apply a one-operator channel ``V`` to the named subsystems of a pure
    state held on its support; a channel with more Kraus operators is
    refused.

    The support's indices split into a consumed part (the channel's input)
    and an untouched rest, the columns of ``V`` at the used inputs multiply
    the small (used inputs x used rests) amplitude matrix, and the products
    that are not exactly zero are placed in the output layout through the
    plan's ``out_at`` and ``rest_at``, the same placement rule
    :func:`apply_channel_matrix` uses.  No vector of the full output
    dimension is formed.
    """
    if len(iso.kraus_stack) != 1:
        raise ValueError(f"an isometry has one Kraus operator, not {len(iso.kraus_stack)}")
    v = iso.kraus_stack[0]
    perm, _, out_at, rest_at, new_layout = _application_plan(psi.layout, iso)
    dims = layout_dims(psi.layout)
    digits = np.unravel_index(psi.index, dims)
    moved = np.ravel_multi_index([digits[p] for p in perm], [dims[p] for p in perm])
    inputs, rests = np.divmod(moved, len(rest_at))
    used_in, in_at = _compress(inputs, v.shape[1])
    used_rest, at_rest = _compress(rests, len(rest_at))
    small = np.zeros((len(used_in), len(used_rest)), dtype=complex)
    small[in_at, at_rest] = psi.amplitudes
    out = v[:, used_in] @ small                              # (dout, used rests)
    kept = out != 0
    return SupportVector(np.add.outer(out_at, rest_at[used_rest])[kept], out[kept], new_layout)


# ---------------------------------------------------------------------------
# Choi calculus
# ---------------------------------------------------------------------------

def choi_state(channel: QuantumChannel) -> DensityMatrix:
    """Normalised Choi state ``(n (x) id)(phi+)`` on ``output + reference``.

    Reference subsystems copy the input layout with primed names, fresh
    against both the output and the input names, so a decoder back to the
    input names applies to the Choi state as is.
    """
    vecs = channel.kraus_stack.reshape(len(channel.kraus_stack), -1)   # row k: vec(K_k)
    j = (vecs.T @ vecs.conj()) / channel.dim_in
    taken = list(layout_names(channel.output_layout)) + list(layout_names(channel.input_layout))
    ref = []
    for name, dim in channel.input_layout:
        rn = fresh_name(name, taken)
        taken.append(rn)
        ref.append((rn, dim))
    return DensityMatrix(j, channel.output_layout + tuple(ref), validate=False)

def _spectral_channel(parts, in_lt, out_lt) -> QuantumChannel:
    """The Kraus family of a Choi matrix, from eigenpairs found block by
    block.

    ``parts`` lists, per block shape, ``(rows, lam, ops)``: each block's
    indices ``(g, r)`` into the ``d_out d_in`` vec space, the Choi
    eigenvalue of each of its ``k`` candidate operators ``(g, k)``, and the
    candidates on ``rows``, as the columns of ``ops`` ``(g, r, k)``.  Each
    block lists its candidates in descending order.  They are ordered by
    descending eigenvalue, stable in the order listed, kept while it
    exceeds ``KRAUS_RANK_TOL``, and written into the full vec space.
    """
    rank = sum(int(np.count_nonzero(lam > KRAUS_RANK_TOL)) for _, lam, _ in parts)
    if rank == 0:
        raise ValueError("Choi matrix has no positive spectrum")
    lams = np.concatenate([lam.ravel() for _, lam, _ in parts])
    place = np.empty(len(lams), dtype=np.intp)
    place[np.argsort(-lams, kind="stable")] = np.arange(len(lams))
    din, dout = layout_dim(in_lt), layout_dim(out_lt)
    kraus = np.zeros((rank, dout * din), dtype=complex)
    first = 0
    for rows, lam, ops in parts:
        at = place[first : first + lam.size].reshape(lam.shape)
        first += lam.size
        blk, col = np.nonzero(at < rank)
        kraus[at[blk, col, None], rows[blk]] = ops[blk, :, col]
    return QuantumChannel(kraus.reshape(rank, dout, din), in_lt, out_lt)

def channel_from_choi(j: np.ndarray, input_layout, output_layout) -> QuantumChannel:
    """Recover a Kraus family from a normalised Choi matrix.

    The operators are the eigenvectors of the symmetrised ``J`` scaled by
    ``sqrt(d_in * lambda)``, in descending order of ``lambda``, kept while
    ``lambda`` exceeds ``KRAUS_RANK_TOL``.  ``J`` is split by
    :func:`cdslab.qcore.distances._blocks` into the connected blocks of its
    exact nonzero pattern, with an edge from every nonzero row to its own
    column so that each block is a principal submatrix; blocks of one shape
    share one stacked ``eigh``, and rows that are exactly zero carry only
    eigenvalue 0.
    """
    in_lt = as_layout(input_layout)
    out_lt = as_layout(output_layout)
    h = (j + j.conj().T) / 2
    pattern = h != 0
    pattern[np.diag_indices(len(h))] |= pattern.any(axis=1)
    parts = []
    for rows, _, blocks in _blocks(h, pattern):
        vals, vecs = np.linalg.eigh(blocks)                  # ascending
        vals, vecs = vals[:, ::-1], vecs[:, :, ::-1]
        scale = np.sqrt(layout_dim(in_lt) * vals.clip(0.0))
        parts.append((rows, vals, vecs * scale[:, None, :]))
    return _spectral_channel(parts, in_lt, out_lt)

def canonical_kraus(channel: QuantumChannel) -> QuantumChannel:
    """Minimal Kraus family (Choi rank many operators) for the same map.

    From the thin SVD ``A = W S V^+`` of the stacked Kraus vectors
    ``A = [vec(K_1) ... vec(K_r)]`` the operators are ``s_a W[:, a]``, in
    descending order of ``s_a``, kept while the Choi eigenvalue
    ``s_a^2 / d_in`` exceeds ``KRAUS_RANK_TOL``.  These are the eigenvectors
    of ``J = A A^+ / d_in`` scaled by ``sqrt(d_in * lambda)``, up to a phase
    each, without forming the ``(d_out d_in)``-dimensional Choi matrix.
    ``A`` is split by :func:`cdslab.qcore.distances._blocks` into the
    connected blocks of its exact nonzero pattern; blocks of one shape share
    one stacked thin SVD, whose left vectors are written back into the full
    vec space.
    """
    stacked = channel.kraus_stack.reshape(len(channel.kraus_stack), -1).T
    parts = []
    for rows, _, blocks in _blocks(stacked, stacked != 0):
        w, sv, _ = np.linalg.svd(blocks, full_matrices=False)   # descending
        parts.append((rows, sv**2 / channel.dim_in, w * sv[:, None, :]))
    return _spectral_channel(parts, channel.input_layout, channel.output_layout)

def purify_channel(channel: QuantumChannel, env_name: str = "E") -> QuantumChannel:
    """Stinespring isometry ``V`` with ``tr_env V rho V^+ = channel(rho)``,
    as the channel whose one Kraus operator is ``V``.

    The environment is appended after the output subsystems (so it varies
    fastest) and its dimension equals the Choi rank, hence never exceeds
    ``dim_in * dim_out``.  The minimal family comes from ``canonical_kraus``,
    the SVD of the stacked Kraus vectors; no Choi matrix is formed.
    """
    stack = canonical_kraus(channel).kraus_stack            # e, out, in
    denv = len(stack)
    dout, din = channel.dim_out, channel.dim_in
    v = stack.transpose(1, 0, 2)                             # out, e, in
    env = fresh_name(env_name, layout_names(channel.output_layout))
    out_lt = channel.output_layout + ((env, denv),)
    return QuantumChannel(v.reshape(1, dout * denv, din), channel.input_layout, out_lt)

def complementary_channel(channel: QuantumChannel) -> QuantumChannel:
    """The channel to the environment of ``purify_channel(channel)``.

    Its Kraus operators are the ``d_out`` row blocks of the dilation's one
    operator ``V``, one per output index.  Sharing ``V`` with
    ``purify_channel`` means that for any input, tracing the joint pure
    output over the environment gives ``channel`` and tracing over the
    original output gives this complement.
    """
    v = purify_channel(channel)
    dout = channel.dim_out
    denv = layout_dim(v.output_layout) // dout
    cube = v.kraus_stack.reshape(dout, denv, channel.dim_in)
    return QuantumChannel(cube, channel.input_layout, (v.output_layout[-1],), validate=False)

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
    lower = trace_norm(ja - jb)
    if lower < 1e-15:
        lower = 0.0
    return lower, min(2.0, a.dim_in * lower)
