"""Constructive lower-bound machinery for CDQS protocols.

Three reductions are mechanized here, each turning a protocol object into a
different resource-bounded procedure whose behaviour witnesses the protocol's
cost:

* a one-way classical protocol: Bob quantizes the joint state of his message
  and the shared resource to ``k`` binary digits, Alice applies her channel
  to the reconstruction and thresholds the distance from product at
  ``gamma_threshold``;
* a two-prover, two-message, public-coin proof: the protocol's channels are
  purified into isometries, the verifier's accept vector ``psi^s`` for
  secret ``s`` is the purified run on ``|s>``, honest provers replay the
  protocol through the purified decoder, and cheating provers are limited by
  a shared, secret-independent marginal on the purifying systems.  One run
  per input serves every secret: isometries are linear, so the run on the
  unnormalised ``sum_s |s>_Qbar |s>_Q`` holds ``psi^s`` as its slice at
  ``Qbar = s``, and the honest provers' pre-shared state is that run,
  recovered, over ``sqrt(d_Q)``;
* complementary decoding: on hiding inputs the secret is absent from the
  messages, so it must be recoverable from the channel's environment.

The cheating-prover optimum is approximated from below by a see-saw
(alternating polar updates of per-secret rotations with a top-eigenvector
update of the shared purification, run by :func:`cdslab.qcore.best_ascent`),
so asserting it under the soundness bound checks a necessary condition of
the theorem, never a vacuous one.  It stops at a certified upper end of the
optimum once it is within 1e-10 of it, and the starts it does not need are
never built (:func:`_seesaw`).
The purified runs are pure states held on their support
(:class:`cdslab.qcore.SupportVector`): flat indices and amplitudes, seeded
as the support product of the pair and the resource and carried through the
purifications by :func:`cdslab.qcore.apply_isometry`, so no vector of the
runs' full dimension is formed.  Each hiding input's accept stack is read
off its run's support once (:attr:`TwoProverProof.accept_stack`), already
cut to the accept vectors' joint exact-zero support, the message rows and
purifying columns that some accept vector touches; the see-saw and the
orthogonality check share it.  Running the see-saw on that support is
exact: the updates read the vectors only through products to which zero
columns add nothing and zero rows add only zero columns, which the thin
polar factor leaves out.  Its random starts, when they run, are still drawn
and normalised at the full shape, then cut.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .framework import (
    CdqsProtocol,
    PromiseFunction,
    bob_side_state,
    joint_channel,
    parallel_repeat,
    product_gap,
)
from .qcore import (
    DensityMatrix,
    QuantumChannel,
    SupportVector,
    apply_channel,
    apply_isometry,
    best_ascent,
    complementary_channel,
    find_best_decoder,
    identity_channel,
    layout_dim,
    layout_dims,
    layout_names,
    layout_positions,
    maximally_entangled,
    purify_channel,
    tensor,
    trace_norm,
)


# ---------------------------------------------------------------------------
# thresholds and digit counts
# ---------------------------------------------------------------------------

def gamma_threshold(epsilon: float, delta: float, d_q: int) -> float:
    """Decision margin ``(1 - 1/sqrt(d_Q))/2 - eps/4 - delta/4``.

    This is the slack separating hiding inputs (distance to product at most
    ``delta``) from disclosing ones (distance at least ``2(1-1/sqrt(d_Q)) -
    eps``) after halving; it must stay positive for the one-way reduction
    to decide correctly.
    """
    if not (0 <= epsilon < 1 and 0 <= delta < 1):
        raise ValueError("error budgets must lie in [0, 1)")
    if d_q < 2:
        raise ValueError("secret dimension must be at least 2")
    gamma = 0.5 * (1 - 1 / math.sqrt(d_q)) - epsilon / 4 - delta / 4
    if gamma <= 0:
        raise ValueError(f"threshold {gamma} is not positive; budgets too loose")
    return gamma


def required_digits(q_b: int, e: int, gamma: float) -> int:
    """Binary digits per component so quantization noise stays under gamma.

    ``ceil(1.5 (q_B + E) - log2 gamma)`` where ``q_B`` counts Bob's message
    qubits and ``E`` the shared-resource qubits on his side of the cut.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if q_b < 0 or e < 0:
        raise ValueError("qubit counts must be nonnegative")
    return math.ceil(1.5 * (q_b + e) - math.log2(gamma))


# ---------------------------------------------------------------------------
# fixed-point quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantizedState:
    """A density matrix with every real component rounded to ``digits`` bits."""

    entries: np.ndarray
    layout: tuple
    digits: int
    frobenius_error: float
    l1_error: float
    frobenius_bound: float
    l1_bound: float


def quantize_state(rho: DensityMatrix, k: int) -> QuantizedState:
    """Round each real component of ``rho`` to ``k`` binary digits.

    The norm chain ``||rho_hat - rho||_1 <= sqrt(d) ||.||_2 <= d^{3/2}/2^k``
    is recomputed and asserted on every call.
    """
    if k < 1:
        raise ValueError("digit count must be at least 1")
    scale = float(1 << k)
    source = np.asarray(rho.entries, dtype=complex)
    entries = (np.round(source.real * scale) + 1j * np.round(source.imag * scale)) / scale
    d = source.shape[0]
    diff = entries - source
    fro = float(np.linalg.norm(diff))
    l1 = trace_norm(diff)
    fro_bound = d / scale
    l1_bound = d ** 1.5 / scale
    if l1 > math.sqrt(d) * fro + 1e-12 or math.sqrt(d) * fro > l1_bound + 1e-12:
        raise AssertionError(
            f"norm chain violated: {l1} <= sqrt({d})*{fro} <= {l1_bound}"
        )
    return QuantizedState(
        entries=entries, layout=rho.layout, digits=k,
        frobenius_error=fro, l1_error=l1,
        frobenius_bound=fro_bound, l1_bound=l1_bound,
    )


# ---------------------------------------------------------------------------
# one-way reduction
# ---------------------------------------------------------------------------

def quantized_product_gap(p: CdqsProtocol, x: int, y: int, k: int):
    """Distance from product of the mid state rebuilt from a quantized
    description of Bob's side, plus the quantization record."""
    record = quantize_state(bob_side_state(p, y), k)
    side = DensityMatrix(record.entries, record.layout, validate=False)
    phi = maximally_entangled("Qbar", "Q", p.d_q).density_matrix()
    mid = apply_channel(p.alice_channel(x), tensor(phi, side))
    return product_gap(mid.entries, mid.layout, p.d_q), record


def one_way_decide(
    p: CdqsProtocol,
    f: PromiseFunction,
    x: int,
    y: int,
    k: int,
    epsilon: float = 0.0,
    delta: float = 0.0,
) -> int:
    """Decide ``f(x, y)`` from a ``k``-digit classical message about Bob's side.

    Alice thresholds the reconstructed mid state's distance from product at
    ``gamma_threshold(epsilon, delta, d_q)``: above means disclosing, below
    means hiding.
    """
    gamma = gamma_threshold(epsilon, delta, p.d_q)
    dim_bob = layout_dim(p.resource.layout[:1]) * layout_dim(p.bob_channel(y).output_layout)
    needed = required_digits(math.ceil(math.log2(dim_bob)), 0, gamma)
    if k < needed:
        raise ValueError(f"need at least {needed} digits, got {k}")
    gap, _ = quantized_product_gap(p, x, y, k)
    return 1 if gap > gamma else 0


# ---------------------------------------------------------------------------
# two-prover proof
# ---------------------------------------------------------------------------

@dataclass
class TwoProverProof:
    """Purified form of a protocol, ready for the two-prover verifier test.

    The verifier draws a uniform secret ``s`` (shared only with prover 1),
    receives the message systems from prover 1 and the purifying systems
    from prover 2, runs the purifications backwards and accepts exactly on
    the state ``|s> (x) resource`` — equivalently, acceptance probability is
    the overlap with the accept vector ``psi^s``, the slice of
    :meth:`purified_run` at ``Qbar = s``.

    The purifications, the recoveries and ``accept_stack`` are cached per
    input; ``accept_stack(x, y)`` is :func:`_accept_matrices`, built from
    one purified run.
    """

    protocol: CdqsProtocol
    k: int
    d_q: int
    alice_purification: Callable[[int], QuantumChannel]
    bob_purification: Callable[[int], QuantumChannel]
    recovery: Callable[[int, int], QuantumChannel]
    accept_stack: Callable[[int, int], tuple]

    def purified_run(self, x: int, y: int) -> SupportVector:
        """Both purifications applied to ``sum_s |s>_Qbar |s>_Q (x) resource``,
        on its support.

        The pair is left unnormalised, amplitude exactly 1 at each ``(s,
        s)``, so the slice at ``Qbar = s`` is the run on ``|s>`` bit for
        bit: the accept vector ``psi^s``.  The input is the support product
        :func:`cdslab.qcore.tensor` of the pair's ``d_Q`` entries and the
        resource's.
        """
        d = self.d_q
        pair = SupportVector(np.arange(d) * (d + 1), np.ones(d), (("Qbar", d), ("Q", d)))
        state = tensor(pair, self.protocol.resource)
        state = apply_isometry(self.alice_purification(x), state)
        return apply_isometry(self.bob_purification(y), state)

    def system_names(self, x: int, y: int):
        """Message-system and purifying-system names, in layout order, read
        from the purifications (each appends its purifying register)."""
        message, private = [], []
        for iso in (self.alice_purification(x), self.bob_purification(y)):
            names = layout_names(iso.output_layout)
            message += names[:-1]
            private.append(names[-1])
        return message, private

    def communication_cost(self, x: int, y: int) -> dict:
        """Log-dimensions of everything the provers and Bob send, with the
        ``2 * protocol cost + k`` budget recomputed from the same layouts."""
        a = self.alice_purification(x)
        d_ma = layout_dim(a.output_layout[:-1])
        d_ma_env = a.output_layout[-1][1]
        b = self.bob_purification(y)
        d_mb = layout_dim(b.output_layout[:-1])
        d_mb_env = b.output_layout[-1][1]
        d_r = layout_dim(b.input_layout)
        d_l = layout_dim(self.protocol.resource.layout) // d_r
        logs = {
            "m_a": math.log2(d_ma),
            "m_a_env": math.log2(d_ma_env),
            "m_b": math.log2(d_mb),
            "m_b_env": math.log2(d_mb_env),
            "r": math.log2(d_r),
        }
        total = sum(logs.values())
        bound = 2 * (math.log2(d_ma) + math.log2(d_mb)) + math.log2(self.d_q) \
            + math.log2(d_l) + math.log2(d_r)
        if total > bound + 1e-9:
            raise AssertionError(f"communication {total} exceeds the budget {bound}")
        logs["total"] = total
        logs["budget"] = bound
        return logs

    def system_bounds_ok(self, x: int, y: int) -> bool:
        """Purification environments within ``d_Q d_L d_MA`` and ``d_R d_MB``."""
        cost = self.communication_cost(x, y)
        d_l_log = math.log2(layout_dim(self.protocol.resource.layout)) - cost["r"]
        a_ok = cost["m_a_env"] <= math.log2(self.d_q) + cost["m_a"] + d_l_log + 1e-9
        b_ok = cost["m_b_env"] <= cost["r"] + cost["m_b"] + 1e-9
        return a_ok and b_ok


def build_two_prover_proof(p: CdqsProtocol, k: int) -> TwoProverProof:
    """Purify a ``k``-fold parallel repetition of ``p`` into proof form.

    The purifying registers keep their minimal Choi-rank dimensions, which
    keeps the optimization spaces small.
    """
    rep = parallel_repeat(p, k)

    @functools.cache
    def alice_purification(x: int) -> QuantumChannel:
        return purify_channel(rep.alice_channel(x), env_name="EA")

    @functools.cache
    def bob_purification(y: int) -> QuantumChannel:
        return purify_channel(rep.bob_channel(y), env_name="EB")

    @functools.cache
    def recovery(x: int, y: int) -> QuantumChannel:
        dec = rep.decoder(x, y)
        if dec is None:
            raise ValueError(f"no decoder shipped for input ({x}, {y})")
        return purify_channel(dec, env_name="P")

    @functools.cache
    def accept_stack(x: int, y: int) -> tuple:
        return _accept_matrices(proof, x, y)

    proof = TwoProverProof(
        protocol=rep,
        k=k,
        d_q=rep.d_q,
        alice_purification=alice_purification,
        bob_purification=bob_purification,
        recovery=recovery,
        accept_stack=accept_stack,
    )
    return proof


def _coordinates(state: SupportVector, *groups):
    """Per group of subsystem names, the flat index over that group
    (row-major, in the order named) of each of ``state``'s amplitudes, and
    the group's dimension."""
    dims = layout_dims(state.layout)
    digits = np.unravel_index(state.index, dims)
    for names in groups:
        at = layout_positions(state.layout, names)
        sub = [dims[p] for p in at]
        yield np.ravel_multi_index([digits[p] for p in at], sub), math.prod(sub)


def honest_acceptance_by_secret(tp: TwoProverProof, f: PromiseFunction, x: int, y: int):
    """Exact acceptance probability of the honest strategy, per secret.

    Honest provers pre-share the state left after running the protocol on a
    maximally entangled secret and recovering through the purified decoder;
    prover 1 swaps in ``|s>`` and inverts the recovery.  Both come from one
    recovered :meth:`TwoProverProof.purified_run`: over ``sqrt(d_Q)``, its
    rows over ``(Qbar, Q)`` are the pure components of the pre-shared state
    on ``(P, private)``, and its row ``(s, s)`` is the recovered ``psi^s``
    at ``Q = s``.  The rows are read off the recovered run's support, on
    only the ``(P, private)`` columns some row uses, since the others add
    nothing to their overlaps.
    """
    if f.value(x, y) != 1:
        raise ValueError(f"input ({x}, {y}) is not a disclosing input")
    _, private = tp.system_names(x, y)
    recovered = apply_isometry(tp.recovery(x, y), tp.purified_run(x, y))
    (row, _), (col, _) = _coordinates(recovered, ["Qbar", "Q"], ["P"] + private)
    cols, col_at = np.unique(col, return_inverse=True)
    rows = np.zeros((tp.d_q ** 2, len(cols)), dtype=complex)    # only the used columns
    rows[row, col_at] = recovered.amplitudes
    overlaps = rows @ rows[::tp.d_q + 1].conj().T       # column s: row (s, s)
    return [float(v) for v in np.linalg.norm(overlaps, axis=0) ** 2 / tp.d_q]


def honest_acceptance(tp: TwoProverProof, f: PromiseFunction, x: int, y: int) -> float:
    """Average honest acceptance over the uniform secret."""
    return float(np.mean(honest_acceptance_by_secret(tp, f, x, y)))


def _accept_matrices(tp: TwoProverProof, x: int, y: int):
    """The accept vectors ``psi^s`` as (M, M') amplitude matrices (the
    purified run's slices at ``Qbar = s``), cut to their joint exact-zero
    support, and where that support lies.

    Returns ``(mats, rows, cols, shape)``: ``mats[s]`` is ``psi^s`` on the
    message rows ``rows`` and purifying columns ``cols`` that some accept
    vector touches, both ascending, and ``shape`` is the full (M, M').
    All are read off the run's support, so no (M, M') matrix is formed,
    and the arrays are read-only.
    """
    message, private = tp.system_names(x, y)
    run = tp.purified_run(x, y)
    (row, d_rows), (col, d_p) = _coordinates(run, ["Qbar"] + message, private)
    d_m = d_rows // tp.d_q
    secret, row = np.divmod(row, d_m)
    rows, row_at = np.unique(row, return_inverse=True)
    cols, col_at = np.unique(col, return_inverse=True)
    mats = np.zeros((tp.d_q, len(rows), len(cols)), dtype=complex)
    mats[secret, row_at, col_at] = run.amplitudes
    for shared in (mats, rows, cols):                    # cached, so read-only
        shared.flags.writeable = False
    return mats, rows, cols, (d_m, d_p)


def _marginal_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """``F(tr_M |a><a|, tr_M |b><b|)`` from (M, M') amplitude matrices.

    Uhlmann's form: ``|a>`` and ``|b>`` purify the two marginals on ``M'``
    with ``M`` as the purifying system, so ``sqrt(F) = ||a b^+||_1``, the
    trace norm of one ``M x M`` matrix, whatever the size of ``M'``.
    """
    root = trace_norm(a @ b.conj().T)
    return float(np.clip(root ** 2, 0.0, 1.0))


def message_orthogonality_check(tp: TwoProverProof, f: PromiseFunction, x: int, y: int) -> float:
    """Max pairwise fidelity of the accept vectors' purifying-side marginals."""
    if f.value(x, y) != 0:
        raise ValueError(f"input ({x}, {y}) is not a hiding input")
    mats = tp.accept_stack(x, y)[0]
    worst = 0.0
    for s in range(tp.d_q):
        for t in range(s + 1, tp.d_q):
            worst = max(worst, _marginal_fidelity(mats[s], mats[t]))
    return worst


def soundness_bound(k: int, delta: float) -> float:
    """``sqrt(2^-k + delta 2^{-k/4})``: the cheating-prover ceiling."""
    if k < 1:
        raise ValueError("secret qubit count must be at least 1")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return math.sqrt(2.0 ** -k + delta * 2.0 ** (-k / 4))


@dataclass
class CheatResult:
    """Best cheating strategy found by the see-saw, and the certified upper
    end of every value the see-saw can reach (see :func:`_seesaw`)."""

    estimate: float
    rounds: int
    converged: bool
    unconstrained: float
    upper: float


def cheat_optimize(tp: TwoProverProof, f: PromiseFunction, x: int, y: int) -> CheatResult:
    """See-saw lower estimate of the cheating provers' passing probability.

    The passing probability with a secret-independent marginal ``sigma`` on
    the purifying systems equals ``mean_s F(psi^s_{M'}, sigma)``; each
    fidelity is reached through a local rotation of the message systems
    (polar update), and the shared purification is then refreshed as the top
    eigenvector of the rotated accept vectors.  ``unconstrained`` reports the
    ablation where both provers see ``s`` and simply replay ``psi^s``.

    Four starts are tried in turn: the first accept vector, their mean and
    two random draws (seed 11); the rounds and the stop are those of
    :func:`cdslab.qcore.best_ascent`.  ``upper`` is a certified upper end of
    the passing probability over every ``sigma`` (derived in
    :func:`_seesaw`); once a finished start is within 1e-10 of it, the
    later starts are never built or run.  The search runs on the input's
    cached accept stack, cut to the accept vectors' joint exact-zero
    support (see :func:`_seesaw`), and ``unconstrained`` sums over that
    support alone; the random starts are still drawn and normalised at the
    full (M, M') shape, so every start that runs, and so the estimate, is
    the full-space one up to rounding.
    """
    if f.value(x, y) != 0:
        raise ValueError(f"input ({x}, {y}) is not a hiding input")
    accept = tp.accept_stack(x, y)
    unconstrained = float(np.mean([np.vdot(m, m).real ** 2 for m in accept[0]]))
    estimate, rounds, converged, upper = _seesaw(*accept)
    return CheatResult(estimate, rounds, converged, unconstrained=unconstrained, upper=upper)


def _seesaw_upper(mats: np.ndarray) -> float:
    """:func:`_seesaw`'s certified end for the stacked (M, M') matrices
    ``mats``; see there.

    The singular values and right singular vectors of each ``a_s`` come
    from one reduced QR of the transposes, ``a_s^T = Q_s R_s``, and the SVD
    of the small ``R_s^T = U_s S_s V_s^+``: then ``a_s = U_s S_s (Q_s
    V_s^*)^T``, so the right singular vectors are the rows of ``V_s^+
    Q_s^T``.  ``R_s`` is ``min(M, M')`` square on a side, so wide and tall
    matrices take the one path.
    """
    q, r = np.linalg.qr(mats.transpose(0, 2, 1))
    _, sv, vr = np.linalg.svd(r.transpose(0, 2, 1), full_matrices=False)
    vh = vr @ q.transpose(0, 2, 1)
    kept = sv > 1e-12 * sv[:, :1]
    power = sv ** 2
    norms = power.sum(axis=1)
    cut = np.where(kept, 0.0, power).sum(axis=1)
    weights = np.divide(cut, norms, out=np.zeros_like(norms), where=norms > 0)
    # mean_s Pi_s = B B^+ / d_q with B the kept right singular vectors side
    # by side; its top eigenvalue is that of the smaller Gram matrix B^+ B
    basis = vh[kept]
    lam = np.linalg.eigvalsh(basis @ basis.conj().T).max(initial=0.0) / len(mats)
    root = math.sqrt(lam) + math.sqrt(weights.max(initial=0.0))
    return float(norms.max(initial=0.0) * root ** 2)


def _seesaw(mats: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            shape: tuple[int, int]) -> tuple[float, int, bool, float]:
    """Best value, its rounds and convergence over :func:`cheat_optimize`'s
    starts, and the certified end the search stops at, for (M, M') =
    ``shape`` matrices whose entries outside ``rows`` x ``cols`` are exactly
    zero, given as their cut ``mats`` (``mats[s]`` on ``rows`` x ``cols``),
    as :func:`_accept_matrices` returns them.  No (M, M') matrix is formed
    unless a random start runs.

    Each round reads the matrices only through the products ``w a^+`` and
    the rotated ``U a``, so both run on the support.  The shared
    purification ``w`` keeps all M rows but only the support columns, since
    the others add nothing to ``w a^+``.  Rows outside the support only give
    ``w a^+`` zero columns, so each ``U`` is the thin (M, |rows|) polar
    factor of the cut product: it acts on ``a`` as the full M x M one does
    wherever the cut product has full column rank, and elsewhere both
    complete a zero block arbitrarily.

    The end is computed on the cut matrices ``a_s``.  ``rho_s = tr_M
    |a_s><a_s|`` has trace ``n_s = ||a_s||^2`` and its support is the row
    space of ``a_s``.  ``Pi_s`` projects onto the span of the right singular
    vectors whose singular value exceeds 1e-12 of ``a_s``'s top one, and
    ``w_s = sum_cut sv^2 / sum sv^2 = Tr(1 - Pi_s) rho_s / n_s`` is the
    weight that cut discards.  Fidelity does not drop under the measurement
    ``{Pi_s, 1 - Pi_s}``, so for any ``sigma`` of trace at most 1, with
    ``t_s = Tr Pi_s sigma``::

        F(rho_s, sigma) <= (sqrt(Tr Pi_s rho_s * t_s)
                            + sqrt(Tr(1 - Pi_s) rho_s * Tr(1 - Pi_s) sigma))^2
                        <= n_s (sqrt(t_s) + sqrt(w_s))^2.

    With ``n = max_s n_s`` (1 for unit accept vectors), ``W = max_s w_s``,
    ``mean_s sqrt(t_s) <= sqrt(mean_s t_s)`` and ``mean_s t_s = Tr(mean_s
    Pi_s) sigma <= Lambda = lambda_max(mean_s Pi_s)``, the mean is at most
    ``n (sqrt(Lambda) + sqrt(W))^2``.  That holds for any cut level, which
    only trades ``Lambda`` against ``W``, and for the full-space search
    too, whose ``sigma`` may leave the support.  An all-zero stack has end
    0.

    A stack that is not all zero but whose first matrix is gives the first
    start no direction, so it is refused before any start runs.  Accept
    matrices that sum to zero give the sum start none either; that start is
    skipped.
    """
    d_q = len(mats)
    if mats.size and not mats[0].any():
        raise ValueError("degenerate accept stack: the first accept matrix is zero, so the "
                         "first see-saw start has no direction")
    adjoints = mats.conj().transpose(0, 2, 1)

    def value_and_rotations(w):
        # every secret at once: (d_q, M, |rows|) products, thin polar factors
        u, sv, vh = np.linalg.svd(w @ adjoints, full_matrices=False)
        return sum(float(s.sum()) ** 2 for s in sv) / d_q, u @ vh

    def step(rotations):
        # the shared purification: top eigenvector of mean_s |phi^s><phi^s|
        # via the small Gram matrix
        phis = rotations @ mats
        flat = phis.reshape(d_q, -1)
        _, vecs = np.linalg.eigh(flat.conj() @ flat.T)
        w = np.tensordot(vecs[:, -1], phis, axes=1)
        return value_and_rotations(w / np.linalg.norm(w))

    # the first accept matrix and their sum unless it is zero, each scattered
    # into all M rows and normalised, then two draws, each normalised at the
    # full (M, M') shape, then cut to the support columns; each is built
    # only when it runs
    rng = np.random.default_rng(11)

    def scattered(cut):
        w = np.zeros((shape[0], len(cols)), dtype=complex)
        w[rows] = cut
        return w / np.linalg.norm(w)

    def cuts():
        yield scattered(mats[0])
        total = sum(mats)
        if total.any():
            yield scattered(total)
        for _ in range(2):
            full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            yield full[:, cols] / np.linalg.norm(full)

    starts = (value_and_rotations(w) for w in cuts())
    upper = _seesaw_upper(mats)
    best, _, rounds, converged = best_ascent(starts, step, upper)
    return best, rounds, converged, upper


# ---------------------------------------------------------------------------
# complementary decoding
# ---------------------------------------------------------------------------

def complementary_decode_check(p: CdqsProtocol, f: PromiseFunction, x: int, y: int) -> float:
    """Best-decoder error for recovering the secret from the environment.

    On hiding inputs the messages carry no secret, so the complementary
    channel must; the returned value is the Choi-difference trace norm of
    the best found decoder composed with the complement, against identity.
    """
    if f.value(x, y) != 0:
        raise ValueError(f"input ({x}, {y}) is not a hiding input")
    comp = complementary_channel(joint_channel(p, x, y))
    result = find_best_decoder(comp, identity_channel((("Q", p.d_q),)))
    return result.achieved_error


# ---------------------------------------------------------------------------
# two-prover judgement and proof-lab report
# ---------------------------------------------------------------------------

def two_prover_checks(tp: TwoProverProof, f: PromiseFunction, inputs: Iterable[tuple],
                      epsilon_hat: float, delta_hat: float) -> list[dict]:
    """One record per input: value 1 checks ``honest`` acceptance against
    ``floor = 1 - 2 sqrt(epsilon_hat)`` (tolerance 1e-9); value 0 checks the
    see-saw ``cheat`` result against ``bound = soundness_bound(k, delta_hat)``
    (1e-6) and ``orthogonality`` against ``cap = 4 sqrt(delta_hat)`` (1e-9).
    Each check has an ``<name>_ok`` flag."""
    floor = 1 - 2 * math.sqrt(max(epsilon_hat, 0.0))
    bound = soundness_bound(tp.k, delta_hat)
    cap = 4 * math.sqrt(max(delta_hat, 0.0))
    records = []
    for x, y in inputs:
        if f.value(x, y) == 1:
            accept = honest_acceptance(tp, f, x, y)
            records.append({"x": x, "y": y, "value": 1, "honest": accept, "floor": floor,
                            "honest_ok": accept >= floor - 1e-9})
        else:
            cheat = cheat_optimize(tp, f, x, y)
            ortho = message_orthogonality_check(tp, f, x, y)
            records.append({"x": x, "y": y, "value": 0, "cheat": cheat, "bound": bound,
                            "cheat_ok": cheat.estimate <= bound + 1e-6, "orthogonality": ortho,
                            "cap": cap, "orthogonality_ok": ortho <= cap + 1e-9})
    return records


def proof_lab_report(
    p: CdqsProtocol,
    f: PromiseFunction,
    k: int,
    epsilon_hat: float = 0.0,
    delta_hat: float = 0.0,
) -> str:
    """Structured text report of the two-prover checks per promise input."""
    tp = build_two_prover_proof(p, k)
    lines = [
        f"two-prover proof lab: protocol={getattr(p, 'construction', '') or 'anonymous'} "
        f"k={k} d_Q={tp.d_q}",
        f"budgets: epsilon_hat={epsilon_hat:.6g} delta_hat={delta_hat:.6g}",
    ]
    flag = {True: "PASS", False: "FAIL"}
    for c in two_prover_checks(tp, f, f.promise_pairs(), epsilon_hat, delta_hat):
        head = f"input ({c['x']}, {c['y']}) value={c['value']}:"
        if c["value"] == 1:
            lines.append(f"{head} honest={c['honest']:.9f} floor={c['floor']:.9f} "
                         f"{flag[c['honest_ok']]}")
        else:
            lines.append(f"{head} cheat={c['cheat'].estimate:.9f} bound={c['bound']:.9f} "
                         f"{flag[c['cheat_ok']]}; orthogonality={c['orthogonality']:.9f} "
                         f"cap={c['cap']:.9f} {flag[c['orthogonality_ok']]}; "
                         f"unconstrained={c['cheat'].unconstrained:.6f}")
    return "\n".join(lines)
