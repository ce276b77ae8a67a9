"""Pure states on their support and density matrices over named, ordered
subsystems.

Conventions
-----------
A *layout* is an ordered tuple of ``(name, dim)`` pairs.  Flat indices run
in row-major order with the **last listed subsystem varying fastest**,
i.e. the basis state ``|a>|b>`` of a layout ``(("A", dA), ("B", dB))``
sits at flat index ``a * dB + b``, which is the ordinary Kronecker-product
convention (``np.kron(vec_a, vec_b)``).  A pure state is a
:class:`SupportVector`: its amplitudes that may be nonzero, each with its
flat index, and no vector of the full dimension.  A
:class:`DensityMatrix` is stored dense in the same order.

All public objects are immutable: constructors copy their inputs and mark
the underlying arrays read-only.  Operations never mutate their arguments.

Tolerances: a density matrix's invariants (hermiticity, positivity, trace)
are enforced at ``ATOL_INVARIANT = 1e-9``, and so is the norm of a
protocol's resource (:class:`cdslab.framework.CdqsProtocol`); pure
linear-algebra identities are tested elsewhere at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ATOL_INVARIANT = 1e-9

Layout = tuple[tuple[str, int], ...]


# ---------------------------------------------------------------------------
# layout helpers
# ---------------------------------------------------------------------------

def as_layout(layout: Iterable[tuple[str, int]]) -> Layout:
    """Normalise and validate a layout.

    Raises
    ------
    ValueError
        If a name repeats, a dimension is not a positive integer, or the
        layout is empty.
    """
    lt = tuple((str(name), int(dim)) for name, dim in layout)
    if not lt:
        raise ValueError("layout must contain at least one subsystem")
    names = [name for name, _ in lt]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate subsystem names in layout: {names}")
    for name, dim in lt:
        if dim < 1:
            raise ValueError(f"subsystem {name!r} has non-positive dimension {dim}")
    return lt

def layout_dim(layout: Layout) -> int:
    """Total dimension (product of subsystem dimensions)."""
    return math.prod(dim for _, dim in layout)

def layout_dims(layout: Layout) -> tuple[int, ...]:
    return tuple(dim for _, dim in layout)

def layout_names(layout: Layout) -> tuple[str, ...]:
    return tuple(name for name, _ in layout)

def layout_positions(layout: Layout, names: Sequence[str]) -> list[int]:
    """Positions of ``names`` within ``layout``, in the order given.

    Raises
    ------
    ValueError
        If a name is missing from the layout.
    """
    index = {name: k for k, (name, _) in enumerate(layout)}
    try:
        return [index[str(n)] for n in names]
    except KeyError as exc:
        raise ValueError(f"subsystem {exc.args[0]!r} not in layout {layout_names(layout)}") from None

def fresh_name(base: str, taken: Iterable[str]) -> str:
    """Return ``base`` or ``base'``, ``base''``, ... until it avoids ``taken``."""
    taken = set(taken)
    name = base
    while name in taken:
        name += "'"
    return name


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# SupportVector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportVector:
    """A pure state on its support: ``amplitudes[k]`` sits at the flat index
    ``index[k]`` over ``layout`` (row-major, last subsystem fastest), each
    index in ``[0, d)`` at most once, and every other amplitude is zero.
    Both arrays are copied, 1-D and read-only; the norm is not checked.
    """

    index: np.ndarray
    amplitudes: np.ndarray
    layout: Layout

    def __post_init__(self):
        layout = as_layout(self.layout)
        index = np.array(self.index, dtype=np.intp)
        amps = _frozen(self.amplitudes)
        if index.ndim != 1 or amps.shape != index.shape:
            raise ValueError(f"{index.shape} indices for {amps.shape} amplitudes")
        d = layout_dim(layout)
        ordered = np.sort(index)
        if index.size and not 0 <= ordered[0] <= ordered[-1] < d:
            raise ValueError(f"support index outside [0, {d})")
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("support index repeats")
        index.flags.writeable = False
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "layout", layout)

    def density_matrix(self) -> "DensityMatrix":
        """The rank-one density matrix ``|psi><psi|``, exactly zero off the
        support's rows and columns."""
        d = layout_dim(self.layout)
        mat = np.zeros((d, d), dtype=complex)
        mat[np.ix_(self.index, self.index)] = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(mat, self.layout, validate=False)


# ---------------------------------------------------------------------------
# DensityMatrix
# ---------------------------------------------------------------------------

class DensityMatrix:
    """A density matrix over an ordered subsystem layout.

    Invariants (checked at construction unless ``validate=False``):
    hermitian within 1e-9, unit trace within 1e-9, and minimum eigenvalue
    >= -1e-9.  Entries of any shape but ``(d, d)``, for the layout's
    dimension ``d``, always raise.
    """

    __slots__ = ("entries", "layout")

    def __init__(self, entries, layout, validate: bool = True):
        lt = as_layout(layout)
        d = layout_dim(lt)
        mat = _frozen(entries)
        if mat.shape != (d, d):
            raise ValueError(f"density matrix entries of shape {mat.shape}, expected ({d}, {d})")
        if validate:
            herm_gap = float(np.max(np.abs(mat - mat.conj().T))) if d else 0.0
            if herm_gap > ATOL_INVARIANT:
                raise ValueError(f"density matrix not hermitian (gap {herm_gap:.3e})")
            tr = complex(np.trace(mat))
            if abs(tr - 1.0) > ATOL_INVARIANT:
                raise ValueError(f"density matrix trace {tr} deviates from 1 beyond 1e-9")
            lo = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)))
            if lo < -ATOL_INVARIANT:
                raise ValueError(f"density matrix has eigenvalue {lo:.3e} below -1e-9")
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "layout", lt)

    def __setattr__(self, *_):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def permuted(self, order: Sequence[str]) -> "DensityMatrix":
        """Reorder subsystems; ``order`` must name every subsystem once."""
        perm = layout_positions(self.layout, order)
        if sorted(perm) != list(range(len(self.layout))):
            raise ValueError("permutation must mention every subsystem exactly once")
        new_layout = tuple(self.layout[p] for p in perm)
        mat = permute_matrix(self.entries, self.layout, perm)
        return DensityMatrix(mat, new_layout, validate=False)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, layout={self.layout})"


def permute_matrix(mat: np.ndarray, layout: Layout, perm: Sequence[int]) -> np.ndarray:
    """Apply a subsystem permutation to a square matrix over ``layout``."""
    dims = layout_dims(layout)
    k = len(dims)
    tens = mat.reshape(dims + dims)
    axes = list(perm) + [p + k for p in perm]
    d = layout_dim(layout)
    return tens.transpose(axes).reshape(d, d)


# ---------------------------------------------------------------------------
# constructors and composition
# ---------------------------------------------------------------------------

def maximally_mixed(name: str, dim: int) -> DensityMatrix:
    """The state ``I/dim`` on a single subsystem."""
    return DensityMatrix(np.eye(dim) / dim, ((name, dim),), validate=False)

def maximally_entangled(name_a: str, name_b: str, dim: int) -> SupportVector:
    """``(1/sqrt(dim)) sum_i |i>|i>`` on two ``dim``-dimensional subsystems,
    held on its ``dim`` entries ``i (dim + 1)``."""
    return SupportVector(
        np.arange(dim) * (dim + 1), np.full(dim, 1 / math.sqrt(dim)), ((name_a, dim), (name_b, dim))
    )

def tensor(*parts):
    """Tensor product of SupportVectors or of DensityMatrices (left to right).

    Layouts concatenate; subsystem names must stay distinct.  The product of
    SupportVectors is the product of their supports: ``a`` then ``b`` puts
    ``a.amplitudes[i] * b.amplitudes[j]`` at ``a.index[i] * d_b +
    b.index[j]``, ``a``'s entries slowest.
    """
    if not parts:
        raise ValueError("tensor() needs at least one argument")
    kinds = {type(p) for p in parts}
    if kinds == {SupportVector}:
        index, amps = parts[0].index, parts[0].amplitudes
        layout = list(parts[0].layout)
        for p in parts[1:]:
            index = np.add.outer(index * layout_dim(p.layout), p.index).ravel()
            amps = np.outer(amps, p.amplitudes).ravel()
            layout.extend(p.layout)
        return SupportVector(index, amps, layout)
    if kinds == {DensityMatrix}:
        mat = parts[0].entries
        layout = list(parts[0].layout)
        for p in parts[1:]:
            mat = np.kron(mat, p.entries)
            layout.extend(p.layout)
        return DensityMatrix(mat, layout, validate=False)
    raise ValueError("tensor() arguments must be all SupportVector or all DensityMatrix")

def partial_trace(state: DensityMatrix, keep: Sequence[str]) -> DensityMatrix:
    """Trace out everything except ``keep``.

    The kept subsystems retain their original relative order regardless of
    the order given in ``keep``.

    Raises
    ------
    ValueError
        If ``keep`` names a missing subsystem or is empty.
    """
    keep = [str(k) for k in keep]
    if not keep:
        raise ValueError("must keep at least one subsystem")
    positions = layout_positions(state.layout, keep)
    keep_sorted = sorted(set(positions))
    if len(keep_sorted) != len(positions):
        raise ValueError("duplicate names in keep list")
    mat = partial_trace_matrix(state.entries, layout_dims(state.layout), keep_sorted)
    new_layout = tuple(state.layout[p] for p in keep_sorted)
    return DensityMatrix(mat, new_layout, validate=False)

def partial_trace_matrix(mat: np.ndarray, dims: Sequence[int], keep_positions: Sequence[int]) -> np.ndarray:
    """Raw partial trace over a matrix shaped by ``dims`` (keep given positions)."""
    dims = tuple(dims)
    k = len(dims)
    tens = mat.reshape(dims + dims)
    drop = [p for p in range(k) if p not in keep_positions]
    # contract dropped row/column axes pairwise, highest first so indices stay valid
    for p in sorted(drop, reverse=True):
        tens = np.trace(tens, axis1=p, axis2=p + (tens.ndim // 2))
    d_keep = math.prod(dims[p] for p in keep_positions) if keep_positions else 1
    return tens.reshape(d_keep, d_keep)
