"""Decoder search: maximise entanglement fidelity over recovery channels.

``find_best_decoder(n, target)`` looks for a channel ``D`` such that
``D o n`` is as close as possible to ``target``.  The search alternates two
closed-form updates on a Stinespring isometry ``W`` of the decoder:

* fix the environment direction, solve the isometry Procrustes problem by
  one SVD;
* fix ``W``, point the environment direction along the current overlap.

Both steps are monotone in the overlap, so the iteration is a genuine
ascent; it is seeded with the Petz (transpose-channel) recovery map, which
is already exact whenever perfect recovery is possible, plus a few random
isometries.  The achieved error is reported as the trace norm of the Choi
difference against the target, i.e. the same lower bound on the diamond
distance used elsewhere; the optimum is approached from below and no global
optimality is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, canonical_kraus, choi_state
from .distances import trace_norm
from .states import layout_dim

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


def _stinespring_matrix(decoder: QuantumChannel, denv: int) -> np.ndarray:
    """Embed a channel's Kraus family into a (dq*denv, m) isometry matrix."""
    count, dq, m = decoder.kraus_stack.shape
    if count > denv:
        raise ValueError("environment too small for the Kraus family")
    w = np.zeros((dq, denv, m), dtype=complex)
    w[:, :count, :] = decoder.kraus_stack.transpose(1, 0, 2)
    return w.reshape(dq * denv, m)

def _overlap_vectors(w_mat, s_tensor, target_vecs, dq, denv, d_ref, d_p):
    """T_t(W) for all t, stacked: each is a vector on env x purifier."""
    m = s_tensor.shape[0]
    w = w_mat.reshape(dq, denv, m)
    # omega[q, e, r, p] = sum_mu w[q, e, mu] s[mu, r, p]
    omega = np.tensordot(w, s_tensor.reshape(m, d_ref, d_p), axes=(2, 0))
    out = []
    for phi in target_vecs:
        # contract <phi|(q, r)
        t = np.tensordot(phi.reshape(dq, d_ref).conj(), omega, axes=([0, 1], [0, 2]))
        out.append(t.reshape(-1))  # env * purifier
    return out

def find_best_decoder(channel: QuantumChannel, target: QuantumChannel) -> DecoderResult:
    """Search for a decoder ``D`` minimising the gap between ``D o channel``
    and ``target``.

    Parameters
    ----------
    channel : QuantumChannel
        The map to invert; its input layout must match the target's.
    target : QuantumChannel
        Usually the identity on the secret system.

    Beside the Petz seed, two random isometries (seed 7) start the ascent;
    each runs at most 500 rounds, stopping once a round gains at most 1e-10.

    Returns
    -------
    DecoderResult
        ``achieved_error`` is the Choi-difference trace norm of the best
        composition found, a lower bound on its diamond distance from the
        target.
    """
    if layout_dim(channel.input_layout) != layout_dim(target.input_layout):
        raise ValueError("channel and target must share the input dimension")
    minimal = canonical_kraus(channel)
    kraus = minimal.kraus_stack
    d_p, m, dq_in = kraus.shape
    dq_out = target.dim_out
    petz = petz_recovery(minimal)
    # extreme CPTP maps have Kraus rank <= input dimension, so an environment
    # of size m loses nothing; the Petz seed may carry a few more operators
    denv = max(1, m, len(petz.kraus_stack))

    # purification of (channel (x) id)(phi+): s[mu, r, p]
    s_tensor = (kraus.transpose(1, 2, 0) / np.sqrt(dq_in)).reshape(m, dq_in * d_p)

    target_vecs = target.kraus_stack.reshape(len(target.kraus_stack), -1) / np.sqrt(dq_in)

    def objective(w_mat):
        ts = _overlap_vectors(w_mat, s_tensor, target_vecs, dq_out, denv, dq_in, d_p)
        return sum(float(np.vdot(t, t).real) for t in ts), ts

    def ascend(w_mat):
        best, ts = objective(w_mat)
        converged = False
        for rounds in range(1, 501):
            norm = np.sqrt(sum(float(np.vdot(t, t).real) for t in ts))
            if norm < 1e-15:
                break
            xis = [t / norm for t in ts]
            # linear coefficient matrix C with L(W) = sum_qe,mu W[qe,mu] C[qe,mu]
            c = np.zeros((dq_out * denv, m), dtype=complex)
            s3 = s_tensor.reshape(m, dq_in, d_p)
            for phi, xi in zip(target_vecs, xis):
                phi2 = phi.reshape(dq_out, dq_in)
                xi2 = xi.reshape(denv, d_p)
                # C[(q,e),mu] = conj(phi[q,r]) conj(xi[e,p]) s[mu,r,p]
                tmp = np.tensordot(phi2.conj(), s3, axes=(1, 1))      # q, mu, p
                block = np.tensordot(tmp, xi2.conj(), axes=(2, 1))    # q, mu, e
                c += block.transpose(0, 2, 1).reshape(dq_out * denv, m)
            # maximise |tr(C^T W)| over isometries W
            a = c.T  # shape (m, dq*denv)
            u, _, vh = np.linalg.svd(a, full_matrices=False)
            w_mat = (vh.conj().T @ u.conj().T)
            val, ts = objective(w_mat)
            if val <= best + 1e-10:
                best = val
                converged = True
                break
            best = val
        return best, w_mat, rounds, converged

    candidates = [_stinespring_matrix(petz, denv)]
    rng = np.random.default_rng(7)
    for _ in range(2):
        g = rng.normal(size=(dq_out * denv, m)) + 1j * rng.normal(size=(dq_out * denv, m))
        q, _ = np.linalg.qr(g)
        candidates.append(q[:, :m])

    best_val, best_w, best_rounds, best_conv = -1.0, None, 0, False
    for w0 in candidates:
        val, w, rounds, conv = ascend(w0)
        if val > best_val:
            best_val, best_w, best_rounds, best_conv = val, w, rounds, conv

    ops = best_w.reshape(dq_out, denv, m).transpose(1, 0, 2)
    live = np.abs(ops).max(axis=(1, 2)) > 1e-14
    ops = ops[live] if live.any() else ops[:1]
    decoder = canonical_kraus(QuantumChannel(ops, channel.output_layout, target.output_layout))
    # Kraus (j, p), j slowest: D_j K_p
    composed = QuantumChannel(
        (decoder.kraus_stack[:, None] @ kraus[None]).reshape(-1, dq_out, dq_in),
        channel.input_layout,
        target.output_layout,
        validate=False,
    )
    err = trace_norm(choi_state(composed).entries - choi_state(target).entries)
    return DecoderResult(
        decoder=decoder,
        achieved_error=float(err),
        entanglement_fidelity=float(min(1.0, best_val)),
        rounds=best_rounds,
        converged=best_conv,
    )
