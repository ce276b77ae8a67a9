"""Multi-start alternating ascent, and the decoder search built on it.

:func:`best_ascent` is the lab's one ascent driver: the decoder search here
and the cheating provers' see-saw (:func:`cdslab.lowerbound.cheat_optimize`)
hand it their starts and their one-round step, and it holds the round cap,
the stopping rule and the choice of the best start.

``find_best_decoder(n, target)`` looks for a channel ``D`` such that
``D o n`` is as close as possible to ``target``.  Each round updates a
Stinespring isometry ``W`` of the decoder in closed form: the environment
direction is pointed along the current overlap, then ``W`` solves the
isometry Procrustes problem by one SVD.  Both updates are monotone in the
overlap, so the iteration is a genuine ascent.  The achieved error is
reported as the trace norm of the Choi difference against the target, i.e.
the same lower bound on the diamond distance used elsewhere; the optimum is
approached from below and no global optimality is claimed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .channels import QuantumChannel, canonical_kraus, choi_state
from .distances import trace_norm
from .states import layout_dim


def best_ascent(starts: Iterable[tuple], step: Callable[..., Optional[tuple]],
                upper: Optional[float] = None) -> tuple:
    """Ascend from every start; return the best end.

    ``starts`` yields ``(value, state)`` pairs and ``step(state)`` returns
    the next pair, or None when there is no ascent direction.  Each start
    runs at most 500 rounds.  A None stops it unconverged; a round that
    gains less than 1e-10 stops it converged, and the new pair is kept only
    if its value is not lower.  Returns ``(value, state, rounds, converged)``
    of the first start with the largest value.

    ``upper`` is a certified upper end of every value the search can
    reach, or None when none is known.  Once a start has finished and the
    best value so far is at least ``upper - 1e-10`` (the round tolerance),
    no later start can gain more than that tolerance, so the search returns
    and the remaining starts are never pulled from ``starts``.  It stops
    only between starts, so a search that never meets its end returns what
    it returns without one.  The see-saw's end ``n (sqrt(Lambda) +
    sqrt(W))^2`` is derived in :func:`cdslab.lowerbound._seesaw`, and the
    decoder search's ``min(1, sqrt(F_petz))`` in :func:`find_best_decoder`.

    A nan value, from a start or from a step, raises: every comparison
    with nan is false, so a nan best value would never be replaced.
    """
    best = None
    for value, state in starts:
        _refuse_nan(value)
        converged = False
        for rounds in range(1, 501):
            nxt = step(state)
            if nxt is None:
                break
            _refuse_nan(nxt[0])
            if nxt[0] - value < 1e-10:
                if nxt[0] >= value:
                    value, state = nxt
                converged = True
                break
            value, state = nxt
        if best is None or value > best[0]:
            best = (value, state, rounds, converged)
        if upper is not None and best[0] >= upper - 1e-10:
            break
    return best


def _refuse_nan(value) -> None:
    if math.isnan(value):
        raise ValueError("ascent value is nan")


def petz_recovery(channel: QuantumChannel) -> QuantumChannel:
    """Petz transpose channel of ``channel`` with respect to the maximally
    mixed input.

    If ``channel`` can be reversed perfectly on average, this map already
    does so (its entanglement fidelity is at least the square of the best
    achievable one, hence 1 when the best is 1).
    """
    din = channel.dim_in
    stack = channel.kraus_stack
    side_by_side = stack.transpose(1, 0, 2).reshape(channel.dim_out, -1)    # [K_1 ... K_r]
    s = side_by_side @ side_by_side.conj().T / din
    vals, vecs = np.linalg.eigh((s + s.conj().T) / 2)
    live = vals > 1e-12
    inv_root = (vecs[:, live] / np.sqrt(vals[live])) @ vecs[:, live].conj().T
    # complete trace preservation on the unreachable part of the output space
    kernel = np.zeros((np.count_nonzero(~live), din, channel.dim_out), dtype=complex)
    kernel[:, 0, :] = vecs[:, ~live].T.conj()
    kraus = np.concatenate([stack.conj().transpose(0, 2, 1) @ inv_root / np.sqrt(din), kernel])
    return QuantumChannel(kraus, channel.output_layout, channel.input_layout)


@dataclass(frozen=True)
class DecoderResult:
    """Outcome of a decoder search."""

    decoder: QuantumChannel
    achieved_error: float
    entanglement_fidelity: float
    rounds: int
    converged: bool
    fidelity_upper: Optional[float]


def _stinespring_matrix(decoder: QuantumChannel, denv: int) -> np.ndarray:
    """Embed a channel's Kraus family into a (dq*denv, m) isometry matrix."""
    count, dq, m = decoder.kraus_stack.shape
    if count > denv:
        raise ValueError("environment too small for the Kraus family")
    w = np.zeros((dq, denv, m), dtype=complex)
    w[:, :count, :] = decoder.kraus_stack.transpose(1, 0, 2)
    return w.reshape(dq * denv, m)

def _overlap_maps(kraus: np.ndarray, target: QuantumChannel):
    """The decoder search's two maps over the whole target stack.

    ``kraus`` is the channel's ``(p, mu, r)`` Kraus stack on input dimension
    ``d``; ``s[mu, r, p] = K_p[mu, r] / sqrt(d)`` purifies
    ``(channel (x) id)(phi+)`` and ``phi_t = T_t / sqrt(d)`` are the
    target's Kraus vectors.  ``pair(w)`` is the ascent pair of the decoder
    isometry ``w`` (rows ``(q, e)``, columns ``mu``): ``(|T|^2, (w, T))``,
    where ``T[t, e, p]`` is every target's overlap with ``w`` and ``|T|^2``
    the entanglement fidelity of the composition with the target.
    ``coefficients(xi)`` is ``C[(q, e), mu]`` with ``<xi, T(w)> = sum w * C``.
    """
    scale = np.sqrt(kraus.shape[2])
    phis = (target.kraus_stack / scale).conj()                  # t, q, r
    s = kraus.transpose(1, 2, 0) / scale                        # mu, r, p
    phs = np.tensordot(phis, s, axes=(2, 1))                    # t, q, mu, p

    def pair(w):
        # w meets s before the targets: contracting phs with w sums in
        # another order, which flips ulp-level ties between equal starts
        omega = np.tensordot(w.reshape(phis.shape[1], -1, len(s)), s, axes=(2, 0))
        t = np.tensordot(phis, omega, axes=([1, 2], [0, 2]))
        return float(np.vdot(t, t).real), (w, t)

    def coefficients(xi):
        c = np.tensordot(phs, xi.conj(), axes=([0, 3], [0, 2]))    # q, mu, e
        return c.transpose(0, 2, 1).reshape(-1, len(s))

    return pair, coefficients

def find_best_decoder(channel: QuantumChannel, target: QuantumChannel) -> DecoderResult:
    """Search for a decoder ``D`` minimising the gap between ``D o channel``
    and ``target``.

    Parameters
    ----------
    channel : QuantumChannel
        The map to invert; its input layout must match the target's.
    target : QuantumChannel
        Usually the identity on the secret system; its output dimension
        must be the channel's input dimension, where the Petz seed decodes.

    The starts are the Petz recovery map, already exact whenever perfect
    recovery is possible, and two random isometries (seed 7), drawn only
    when they run; the rounds and the stop are :func:`best_ascent`'s.

    When the target is the identity channel (one Kraus operator, exactly
    the identity matrix) the search has a certified end.  Its value is the
    entanglement fidelity ``F = <phi+|(D o channel (x) id)(phi+)|phi+>``,
    and Barnum and Knill (J. Math. Phys. 43, 2097, 2002) show that the Petz
    map ``P`` with respect to the maximally mixed input reaches at least
    the square of the best one: ``F(P) >= F_opt^2``.  So no decoder
    exceeds ``min(1, sqrt(F_petz))``, with ``F_petz`` the Petz start's
    value; the kernel completion of :func:`petz_recovery` only adds Kraus
    operators, so it can only raise ``F_petz``.  (:func:`petz_recovery`
    takes the eigenvalues of ``channel(I/d)`` at or below 1e-12 as zero, so
    the end is the theorem's exactly when none of them lies in (0, 1e-12].)
    The search stops once it is within 1e-10 of that end.  For any other
    target no end is known and every start runs.

    Returns
    -------
    DecoderResult
        ``achieved_error`` is the Choi-difference trace norm of the best
        composition found, a lower bound on its diamond distance from the
        target.  ``fidelity_upper`` is the certified end, or None for a
        target other than the identity.
    """
    if layout_dim(channel.input_layout) != layout_dim(target.input_layout):
        raise ValueError("channel and target must share the input dimension")
    if target.dim_out != channel.dim_in:
        raise ValueError(
            f"target output dimension {target.dim_out} differs from the channel's "
            f"input dimension {channel.dim_in}, where the Petz seed decodes"
        )
    minimal = canonical_kraus(channel)
    kraus = minimal.kraus_stack
    _, m, dq = kraus.shape
    petz = petz_recovery(minimal)
    # extreme CPTP maps have Kraus rank <= input dimension, so an environment
    # of size m loses nothing; the Petz seed may carry a few more operators
    denv = max(1, m, len(petz.kraus_stack))
    pair, coefficients = _overlap_maps(kraus, target)

    def step(state):
        _, t = state
        norm = np.sqrt(np.vdot(t, t).real)
        if norm < 1e-15:
            return None
        # maximise |tr(C^T W)| over isometries W
        u, _, vh = np.linalg.svd(coefficients(t / norm).T, full_matrices=False)
        return pair(vh.conj().T @ u.conj().T)

    rng = np.random.default_rng(7)
    shape = (dq * denv, m)    # denv >= m, so each QR factor is a full isometry
    randoms = (np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
               for _ in range(2))
    first = pair(_stinespring_matrix(petz, denv))
    identity = len(target.kraus_stack) == 1 and np.array_equal(target.kraus_stack[0], np.eye(dq))
    upper = min(1.0, math.sqrt(first[0])) if identity else None
    best_val, (best_w, _), rounds, converged = best_ascent(
        itertools.chain([first], map(pair, randoms)), step, upper)

    ops = best_w.reshape(dq, denv, m).transpose(1, 0, 2)
    live = np.abs(ops).max(axis=(1, 2)) > 1e-14
    ops = ops[live] if live.any() else ops[:1]
    decoder = canonical_kraus(QuantumChannel(ops, channel.output_layout, target.output_layout))
    # Kraus (j, p), j slowest: D_j K_p
    composed = QuantumChannel(
        (decoder.kraus_stack[:, None] @ kraus[None]).reshape(-1, dq, dq),
        channel.input_layout,
        target.output_layout,
        validate=False,
    )
    err = trace_norm(choi_state(composed).entries - choi_state(target).entries)
    return DecoderResult(
        decoder=decoder,
        achieved_error=float(err),
        entanglement_fidelity=float(min(1.0, best_val)),
        rounds=rounds,
        converged=converged,
        fidelity_upper=upper,
    )
