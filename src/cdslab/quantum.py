"""Entanglement-assisted protocols, executed with exact arithmetic.

Everything in this module reduces to counting: measurement outcome
distributions come out of integer Walsh-Hadamard transforms, so all
probabilities are exact rationals and the verification layer never sees
floating-point noise.  The hybrid protocol is a
:class:`cdslab.framework.TranscriptCdqsProtocol`, so its padded qubit is
measured by the framework's one transcript-regime rule.

Bit conventions match the classical module: an n-bit string is an integer
with bit i equal to ``(x >> i) & 1``; inner products are ``(u & v)``
parities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .classical import _parity, _promise_neq_log_length, ip_psm, neq_cds, double_secret
from .forrelation import _walsh_hadamard
from .framework import (CostReport, TranscriptCdqsProtocol, _draws, _pad_lift_cost, pad_counts,
                        protocol_cost)


# ---------------------------------------------------------------------------
# Deutsch-Jozsa input shortening
# ---------------------------------------------------------------------------

def dj_shorten(x: int, y: int, n: int) -> dict[tuple[int, int], Fraction]:
    """Exact outcome distribution of the input-shortening measurement.

    Alice and Bob share ``(1/sqrt n) sum_i |i,i>``, inject the phases
    ``(-1)^{x_i}`` and ``(-1)^{y_i}``, apply Hadamards on both sides and
    measure, obtaining ``(a, b)`` of ``log n`` bits each.  The amplitude
    of ``(a, b)`` is ``S_{a xor b} / (n sqrt n)`` where ``S`` is the
    Walsh-Hadamard transform of the joint phase signs, so the distribution
    is an exact rational function of ``z = x xor y``.  Inputs are ``n``-bit
    integers.
    """
    z = _dj_difference(x, y, n)
    phases = np.array([1 - 2 * ((z >> i) & 1) for i in range(n)])
    signs = [int(s) for s in _walsh_hadamard(phases)]
    cube = n**3
    return {
        (a, b): Fraction(signs[a ^ b] ** 2, cube)
        for a in range(n)
        for b in range(n)
        if signs[a ^ b]
    }


def _dj_difference(x: int, y: int, n: int) -> int:
    """``x xor y``, once ``n`` and both inputs are checked."""
    _promise_neq_log_length(n)
    for v in (x, y):
        if not 0 <= v < (1 << n):
            raise ValueError(f"input {v} does not fit in {n} bits")
    return x ^ y


def dj_equal_probability(x: int, y: int, n: int) -> Fraction:
    """Exact probability that the two shortened outcomes coincide.

    The ``n`` outcomes ``a = b`` each carry ``S_0^2 / n^3``, and
    ``S_0 = n - 2 wt(x xor y)``, so the sum is ``S_0^2 / n^2``.
    """
    s0 = n - 2 * _dj_difference(x, y, n).bit_count()
    return Fraction(s0 * s0, n * n)


# ---------------------------------------------------------------------------
# hybrid promise-NEQ CDQS
# ---------------------------------------------------------------------------

class HybridNeqCdqs(TranscriptCdqsProtocol):
    """CDQS for promise NEQ: shorten inputs, then disclose a qubit pad key.

    On strings of length ``n`` (a power of two), Alice and Bob first run
    the Deutsch-Jozsa shortening to get ``log n``-bit outcomes ``(a, b)``
    with ``a = b`` exactly when ``x = y`` under the promise.  Alice then
    draws a uniform two-bit pad key, applies ``X^{k1} Z^{k2}`` to the
    secret qubit, and both run two independent NEQ CDS copies on ``(a, b)``
    hiding the key bits.  Alice's message is ``(a, CDS messages, padded
    qubit)``; Bob's is ``(b, CDS messages)`` — the outcomes travel with
    the messages because the referee needs the CDS input pair to decode.

    Verification quantities are exact: both copies run on the same
    ``(a, b)`` and are independent given it, so each pair's measures are
    those of the tensor square of one copy's :func:`pad_counts`.  On
    ``a = b`` nothing is disclosed and the referee's identity unpad is
    right only for the zero key.

    The counts depend on ``(a, b)`` only through whether ``a = b``.  One
    ``neq_cds(m)`` copy draws ``r = (A, B)`` over GF(2^m); Alice sends
    ``(A a + B, s xor A_0)``, with ``A_0`` the low bit of ``A``, and Bob
    sends ``A b + B``.

    * If ``a != b``, a transcript ``(u, c, v)`` fixes ``A = (u xor v) /
      (a xor b)``, then ``B``, then ``s``: each transcript comes from
      exactly one (key, draw), so every count vector is a unit vector,
      there are ``2^{2m}`` of them per key, and every draw decodes.
    * If ``a = b``, each ``(u, c)`` arises, for each key, from exactly the
      ``2^{m-1}`` slopes with ``A_0 = c xor s``: every vector is
      ``(2^{m-1}, 2^{m-1})``, and the decoder returns None on every draw.

    So one equal pair and one unequal pair are tabulated, and the protocol
    is the two-class :class:`~cdslab.framework.TranscriptCdqsProtocol`
    whose classes, the equal and the unequal counts, are weighted ``P_eq``
    and ``1 - P_eq`` with ``P_eq`` from :func:`dj_equal_probability`.
    """

    def __init__(self, n: int):
        m = _promise_neq_log_length(n)
        copy = neq_cds(m)
        # the key pair's counts on a = b and on a != b
        same, differ = (pad_counts(copy, 0, b).square() for b in (0, 1))

        def classes(x: int, y: int) -> tuple:
            equal = dj_equal_probability(x, y, n)
            return ((equal, same), (1 - equal, differ))

        # the pad lift's cost, plus a and b alongside the doubled CDS
        # messages and the m EPR pairs of the shortening
        lift = _pad_lift_cost(double_secret(copy))
        cost = replace(lift, comm_bits=lift.comm_bits + 2 * m, shared_epr_pairs=m)
        super().__init__(n=n, cost=cost, classes=classes,
                         construction=f"neq_promise_cdqs({n})", params=(("shortened_bits", m),))

    # cdsbench/tracing.py wraps these two measures through this class's own
    # __dict__, so they are named here, bound to the base class's functions
    entanglement_fidelity = TranscriptCdqsProtocol.entanglement_fidelity
    product_distance = TranscriptCdqsProtocol.product_distance


# ---------------------------------------------------------------------------
# Boolean Hidden Matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BhmInstance:
    """One promise instance: string x, perfect matching, shift w, value.

    ``(Mx)_k = x_i xor x_j`` for the k-th matching edge ``(i, j)``; the
    promise is that ``Mx xor w`` has Hamming weight at least ``2n/3``
    (value 1) or below ``n/3`` (value 0).
    """

    n: int
    x: int
    matching: tuple[tuple[int, int], ...]
    w: int
    promised_value: int

    def __post_init__(self):
        two_n = 2 * self.n
        if not 0 <= self.x < (1 << two_n):
            raise ValueError("x out of range")
        if not 0 <= self.w < (1 << self.n):
            raise ValueError("w out of range")
        touched = [idx for pair in self.matching for idx in pair]
        if len(self.matching) != self.n or sorted(touched) != list(range(two_n)):
            raise ValueError("matching is not a perfect matching of [2n]")
        weight = (self.mx() ^ self.w).bit_count()
        if self.promised_value == 1:
            if 3 * weight < 2 * self.n:
                raise ValueError(f"weight {weight} violates the value-1 promise")
        elif self.promised_value == 0:
            if 3 * weight >= self.n:
                raise ValueError(f"weight {weight} violates the value-0 promise")
        else:
            raise ValueError("promised_value must be 0 or 1")

    def mx(self) -> int:
        return _matching_parities(self.x, self.matching)


def _matching_parities(x: int, matching) -> int:
    """``Mx``: bit ``k`` is ``x_i xor x_j`` for the k-th matching edge ``(i, j)``."""
    out = 0
    for k, (i, j) in enumerate(matching):
        out |= (((x >> i) ^ (x >> j)) & 1) << k
    return out


def bhm_instance(n: int, target_value: int, seed: int) -> BhmInstance:
    """Deterministic promise instance with the requested value.

    The promise thresholds are the exact integer forms ``3w >= 2n``
    (value 1) and ``3w < n`` (value 0), which are meaningful for every
    positive edge count, not only multiples of 3.
    """
    if n <= 0:
        raise ValueError("edge count must be positive")
    if 2 * n > 24:
        raise ValueError("string length 2n must stay <= 24")
    rng = np.random.default_rng(seed)
    x = int(rng.integers(0, 1 << (2 * n)))
    perm = rng.permutation(2 * n)
    matching = tuple(
        tuple(sorted((int(perm[2 * k]), int(perm[2 * k + 1]))))
        for k in range(n)
    )
    if target_value == 1:
        weight = int(rng.integers((2 * n + 2) // 3, n + 1))
    else:
        weight = int(rng.integers(0, (n - 1) // 3 + 1))
    positions = rng.choice(n, size=weight, replace=False)
    noise = 0
    for p in positions:
        noise |= 1 << int(p)
    return BhmInstance(
        n=n, x=x, matching=matching, w=_matching_parities(x, matching) ^ noise,
        promised_value=target_value,
    )


def bhm_to_text(inst: BhmInstance) -> str:
    pairs = " ".join(f"({i},{j})" for i, j in inst.matching)
    return "\n".join(
        [
            "bhm-instance",
            f"n: {inst.n}",
            f"x: {inst.x:#x}",
            f"matching: {pairs}",
            f"w: {inst.w:#x}",
            f"promised_value: {inst.promised_value}",
        ]
    )


class BhmPsqm:
    """The PSQM for Boolean Hidden Matching, simulated exactly.

    Alice and Bob share ``log(2n~)`` EPR pairs over the matching index
    space (``2n~`` = ``2n`` padded to a power of two; padded indices carry
    zero amplitude and no projector).  Alice injects the phases
    ``(-1)^{x_i}``; Bob measures the edge projectors ``|i><i| + |j><j|``;
    both apply Hadamards and measure, giving Alice ``k`` and Bob
    ``(l, i, j)``.  They then run the inner-product PSM on
    ``u = (k, 1, 1)`` and ``v = (i xor j, <l, i xor j>, w_ij)``, whose
    value is the vote ``x_i xor x_j xor w_ij`` for the measured edge.
    """

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("need at least one edge")
        if 2 * n > 24:
            raise ValueError("string length 2n must stay <= 24")
        self.n = n
        self.padded = 1 << (2 * n - 1).bit_length()
        self.index_bits = self.padded.bit_length() - 1
        self.inner = ip_psm(self.index_bits + 2)
        self.construction = f"bhm_psqm({n})"
        self.params = (("padded_index_space", self.padded),)

    @property
    def cost(self) -> CostReport:
        """The inner PSM's cost plus the ``log(2n~)`` shared EPR pairs."""
        return replace(protocol_cost(self.inner), shared_epr_pairs=self.index_bits)

    def psm_inputs(self, inst: BhmInstance, edge: int, k: int, l: int) -> tuple[int, int]:
        """The inner PSM input pair produced by one measurement outcome."""
        i, j = inst.matching[edge]
        c = i ^ j
        mb = self.index_bits
        u = k | (1 << mb) | (1 << (mb + 1))
        v = c | (_parity(l & c) << mb) | (((inst.w >> edge) & 1) << (mb + 1))
        return u, v

    def outcome_distribution(self, inst: BhmInstance):
        """All measurement outcomes: (probability, edge, k, l, vote).

        Bob's edge outcome is uniform (each projector catches amplitude
        2/(2n~) out of the live 2n/(2n~)); given the edge, the surviving
        Hadamard outcomes are those with ``<k xor l, i xor j> = x_i xor
        x_j``, each carrying probability ``2 / padded^2``.
        """
        if inst.n != self.n:
            raise ValueError("instance size does not match the protocol")
        per_edge = Fraction(1, self.n)
        per_outcome = per_edge * Fraction(2, self.padded * self.padded)
        mx = inst.mx()
        out = []
        for e, (i, j) in enumerate(inst.matching):
            d = (mx >> e) & 1
            c = i ^ j
            for k in range(self.padded):
                for l in range(self.padded):
                    if _parity((k ^ l) & c) != d:
                        continue
                    u, v = self.psm_inputs(inst, e, k, l)
                    vote = _parity(u & v)
                    out.append((per_outcome, e, k, l, vote))
        return out

    def vote_identity_holds(self, inst: BhmInstance) -> bool:
        """Decoded vote == (Mx xor w)_edge for every nonzero outcome."""
        target = inst.mx() ^ inst.w
        return all(
            vote == ((target >> e) & 1) for _, e, _k, _l, vote in self.outcome_distribution(inst)
        )

    def correctness_probability(self, inst: BhmInstance) -> Fraction:
        """Exact single-shot probability that the vote equals the value."""
        target = inst.mx() ^ inst.w
        agree = sum(1 for e in range(self.n) if ((target >> e) & 1) == inst.promised_value)
        return Fraction(agree, self.n)

    def _inner_pairs(self, inst: BhmInstance):
        """The probability every measurement outcome carries (checked equal)
        and a ``Counter`` of the inner PSM input pairs ``(u, v)`` the
        outcomes produce, in order of first appearance."""
        outcomes = self.outcome_distribution(inst)
        prob = outcomes[0][0]
        pairs = Counter()
        for p, e, k, l, _vote in outcomes:
            if p != prob:
                raise ValueError(f"BHM outcomes are not equiprobable: {p} != {prob}")
            pairs[self.psm_inputs(inst, e, k, l)] += 1
        return prob, pairs

    def inner_layer_secure(self, inst: BhmInstance) -> bool:
        """Inner PSM transcript distribution depends only on the vote.

        Exact comparison across every (u, v) pair the instance can
        produce, grouped by the vote ``<u, v>``.  The map from ``r`` to the
        transcript is injective (``r1 = ua ^ u``, ``r2 = vb ^ v``,
        ``r3 = aa ^ <u, r2>``; checked, and a pair with fewer transcripts
        than randomness values is refused), so every transcript is equally
        likely and two distributions are equal exactly when their sorted
        transcripts coincide.
        """
        total = 1 << self.inner.randomness_bits
        reference: dict = {}
        for u, v in self._inner_pairs(inst)[1]:
            vote = _parity(u & v)
            support = np.sort(_draws(self.inner, u, v))
            repeats = int(np.count_nonzero(support[1:] == support[:-1]))
            if repeats:
                raise AssertionError(
                    f"inner PSM at ({u}, {v}): {total - repeats} transcripts for {total} "
                    "randomness values, so the map from r is not injective"
                )
            if vote not in reference:
                reference[vote] = support
            elif not np.array_equal(reference[vote], support):
                return False
        return True

    def message_distribution(self, inst: BhmInstance) -> dict:
        """Exact referee view: mixture of inner PSM transcripts.

        Every outcome carries the same probability (checked), so the draws
        of every distinct ``(u, v)``, in order of first appearance, are
        tallied once, each draw weighted by its pair's integer outcome
        multiplicity.  Only the final distinct transcripts are named, in
        sorted order, each by the scalar messages at its first draw: the
        first pair that has it, at its least ``r``.  The outcome
        probability and the randomness count are applied once per
        transcript."""
        prob, multiplicity = self._inner_pairs(inst)
        pairs = list(multiplicity)
        total = 1 << self.inner.randomness_bits
        draws = np.concatenate([_draws(self.inner, u, v) for u, v in pairs])
        _, index, inverse = np.unique(draws, return_index=True, return_inverse=True)
        weights = np.repeat(np.array([multiplicity[uv] for uv in pairs], dtype=np.int64), total)
        counts = np.zeros(len(index), dtype=np.int64)
        np.add.at(counts, inverse, weights)
        scale = prob / total
        out = {}
        for i, c in zip(index.tolist(), counts.tolist()):
            (u, v), r = pairs[i // total], i % total
            out[(self.inner.message_a(u, r), self.inner.message_b(v, r))] = c * scale
        return out


def bhm_psqm(n: int) -> BhmPsqm:
    return BhmPsqm(n)
