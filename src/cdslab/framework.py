"""Protocol objects and their exact execution.

Classical :class:`CdsProtocol` / :class:`PsmProtocol` are message functions
over integer-encoded inputs plus dyadic shared randomness, executed by
one exhaustive enumeration, :func:`transcript_counts`, whose integer
counts become exact rational probabilities.  A protocol with an
:class:`ArrayForm` (``neq_cds`` and ``ip_psm``) is enumerated in one numpy
pass per input: its messages are int64 codes with the fields packed first
field high, so integer order is tuple order, and a transcript is ``code_a
<< message_bits_b | code_b``.  Counts, decode failures and pad-key counts
are tallies over those codes and the decoded outputs, and each distinct
transcript is keyed by the scalar messages at its first draw.
:func:`transcript_tally` is that tally before naming, for callers outside
this module.  The scalar functions stay the reference path, and the only
one for protocols without an array form.

Every CDQS shape answers the same three per-input questions, which is all
the verifier asks of it:

* ``decoding_distance(x, y)``: distance of the decoded Choi state from the
  maximally entangled one (the lower end of epsilon);
* ``entanglement_fidelity(x, y)``: overlap of the decoded Choi state with
  the maximally entangled one;
* ``product_distance(x, y)``: ``|| rho_{QbarM} - pi (x) rho_M ||_1`` of the
  mid-protocol state (the lower end of delta).

A dense :class:`CdqsProtocol` (named-subsystem channels for Alice and Bob
plus a pure resource state, each one-dimensional when unused) answers them
at its Choi state, so it stays small.  The "classical transcript + one
Pauli-padded qubit" shape answers them exactly in rationals, so large
classical registers stay cheap: :func:`pad_counts` tabulates, per
transcript, the integer counts of each pad key, and :class:`PadCounts`
turns them into all three measures.  A decoder that returns None leaves
the pad on, which decodes key 0 only.  :class:`TranscriptCdqsProtocol`
and the hybrid protocol of :mod:`cdslab.quantum` both measure this way.

Integer encodings: an ``n``-bit input is an integer in ``[0, 2^n)``; bit
``i`` of ``x`` is ``(x >> i) & 1``.  Shared randomness is an integer
``r in [0, 2^randomness_bits)``.

Subsystem naming convention for dense CDQS protocols: the secret is ``Q``
(reference copy ``Qbar``), the resource state lives on ``(L, R)``, Alice's
channel consumes ``(Q, L)`` and Bob's consumes ``R``; message subsystems
may have any non-colliding names, and the decoder consumes exactly the
message subsystems and outputs ``Q``.  A protocol without a resource or
a Bob message keeps ``L``, ``R`` and Bob's message ``MB`` as
one-dimensional registers, so every dense protocol has the same shape.

Run order: Alice acts on ``(Q, L)`` and Bob on ``R`` only, so Bob's side
runs first, and every dense run is Alice's channel on ``secret (x)
bob_side_state(p, y)`` (no state holds ``Q``, ``L`` and ``R`` at once).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Hashable, Optional

import numpy as np

from .qcore import (
    PAULI,
    DensityMatrix,
    QuantumChannel,
    StateVector,
    apply_channel,
    canonical_kraus,
    channel_from_choi,
    layout_dim,
    layout_dims,
    layout_names,
    maximally_entangled,
    partial_trace_matrix,
    permute_matrix,
    tensor,
    trace_norm,
)

ENUMERATION_BUDGET_BITS = 24
#: cap on the mid-protocol state dimension of dense CDQS objects
DENSE_DIMENSION_BUDGET = 4096

#: qubit pad operators X^{k1} Z^{k2} indexed by k = 2*k1 + k2
PAD_OPERATORS = np.array((PAULI["I"], PAULI["Z"], PAULI["X"], PAULI["X"] @ PAULI["Z"]))
_UNPADS = PAD_OPERATORS.conj().transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# promise functions
# ---------------------------------------------------------------------------

class PromiseFunction:
    """A partial Boolean function on integer-encoded input pairs.

    Parameters
    ----------
    n : int
        Input bit-length (both sides), so inputs range over ``[0, 2^n)``.
    value_fn : callable
        ``(x, y) -> 0 | 1 | None`` with None meaning "outside the promise".
    name : str
    """

    __slots__ = ("n", "name", "_value_fn")

    def __init__(self, n, value_fn, name):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "_value_fn", value_fn)

    def __setattr__(self, *_):
        raise AttributeError("PromiseFunction is immutable")

    def value(self, x: int, y: int) -> Optional[int]:
        if not (0 <= x < 1 << self.n and 0 <= y < 1 << self.n):
            raise ValueError(f"input ({x}, {y}) outside domain of {self.name}")
        v = self._value_fn(x, y)
        return None if v is None else int(v)

    def promise_pairs(self):
        """All in-promise input pairs, in lexicographic order."""
        for x in range(1 << self.n):
            for y in range(1 << self.n):
                if self.value(x, y) is not None:
                    yield x, y

    def __repr__(self):
        return f"PromiseFunction({self.name}, n={self.n})"


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """Exact resource counts for one protocol.

    Communication is ``comm_bits + comm_qubits`` (the log of the total
    message dimension); the shared-resource side is split the same way.
    """

    comm_bits: int
    comm_qubits: int
    shared_random_bits: int
    shared_epr_pairs: int

    def __post_init__(self):
        for name in ("comm_bits", "comm_qubits", "shared_random_bits", "shared_epr_pairs"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    def scaled(self, k: int) -> "CostReport":
        return CostReport(
            self.comm_bits * k,
            self.comm_qubits * k,
            self.shared_random_bits * k,
            self.shared_epr_pairs * k,
        )

    def as_dict(self) -> dict:
        return {
            "comm_bits": self.comm_bits,
            "comm_qubits": self.comm_qubits,
            "shared_random_bits": self.shared_random_bits,
            "shared_epr_pairs": self.shared_epr_pairs,
        }


def _exact_log2(d: int, what: str) -> int:
    k = d.bit_length() - 1
    if d <= 0 or (1 << k) != d:
        raise ValueError(f"{what} dimension {d} is not a power of two; supply an explicit cost")
    return k


# ---------------------------------------------------------------------------
# classical protocols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayForm:
    """Whole-array twins of a classical protocol's message and output
    functions.

    Each takes its scalar twin's arguments with ``r`` an int64 array of
    draws of the shared randomness, and returns one int64 entry per draw:

    * ``message_a`` and ``message_b`` return message codes: the message's
      fields packed first field high, each in a fixed width, so integer
      order is the scalar messages' tuple order (a one-field message is its
      value);
    * ``output`` is ``decoder(code_a, x, code_b, y)`` for a CDS, with -1
      where the scalar decoder returns None, and ``referee(code_a, code_b)``
      for a PSM.

    Codes are never unpacked: a distinct transcript is reported as the
    scalar message functions at its first draw.
    """

    message_a: Callable
    message_b: Callable
    output: Callable


@dataclass(frozen=True)
class CdsProtocol:
    """A classical conditional-disclosure-of-secrets protocol.

    ``message_a(x, s, r)`` and ``message_b(y, r)`` return hashable message
    values; ``decoder(m_a, x, m_b, y)`` returns the recovered secret, or
    None when the transcript announces "nothing disclosed".  ``arrays``,
    when set, is the same protocol over whole arrays of draws; the exact
    enumeration then runs as one numpy pass per input, and the scalar
    functions stay its reference.
    """

    n: int
    randomness_bits: int
    secret_alphabet: int
    message_a: Callable[[int, int, int], Hashable]
    message_b: Callable[[int, int], Hashable]
    decoder: Callable[[Hashable, int, Hashable, int], Optional[int]]
    message_bits_a: int
    message_bits_b: int
    construction: str = ""
    params: tuple = ()
    arrays: Optional[ArrayForm] = None


@dataclass(frozen=True)
class PsmProtocol:
    """A private-simultaneous-messages protocol (referee sees only messages);
    ``arrays`` as for :class:`CdsProtocol`."""

    n: int
    randomness_bits: int
    value_alphabet: int
    message_a: Callable[[int, int], Hashable]
    message_b: Callable[[int, int], Hashable]
    referee: Callable[[Hashable, Hashable], int]
    message_bits_a: int
    message_bits_b: int
    construction: str = ""
    params: tuple = ()
    arrays: Optional[ArrayForm] = None


def _randomness_count(protocol) -> int:
    """``2^randomness_bits``, refused above the enumeration budget."""
    if protocol.randomness_bits > ENUMERATION_BUDGET_BITS:
        raise ValueError(
            f"enumeration over {protocol.randomness_bits} randomness bits exceeds "
            f"the {ENUMERATION_BUDGET_BITS}-bit budget"
        )
    return 1 << protocol.randomness_bits

def _bind(protocol, x: int, y: int, s: Optional[int], arrays: bool):
    """Alice's and Bob's message functions of ``r`` at one input, and the
    output as a function of the two messages, from the scalar functions or
    the :class:`ArrayForm`: the one place the enumeration tells a CDS (its
    secret required, its decoder seeing the inputs) from a PSM."""
    form = protocol.arrays if arrays else protocol
    message_b = partial(form.message_b, y)
    if isinstance(protocol, PsmProtocol):
        return partial(form.message_a, x), message_b, form.output if arrays else form.referee
    if s is None:
        raise ValueError("CDS enumeration requires the secret value")
    decode = form.output if arrays else form.decoder
    return partial(form.message_a, x, s), message_b, lambda m_a, m_b: decode(m_a, x, m_b, y)

def _draws(protocol, x: int, y: int, s: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Every draw of the shared randomness at one input, in one numpy pass
    over the protocol's :class:`ArrayForm`: the transcript code
    ``code_a << message_bits_b | code_b`` and the decoder's (or referee's)
    output of each ``r``.  The budget, the code width and the secret are
    checked before ``r`` is allocated."""
    total = _randomness_count(protocol)
    width = protocol.message_bits_a + protocol.message_bits_b
    if width > 63:
        raise ValueError(f"a {width}-bit transcript code overflows int64")
    message_a, message_b, output = _bind(protocol, x, y, s, True)
    r = np.arange(total, dtype=np.int64)
    code_a, code_b = message_a(r), message_b(r)
    return (code_a << protocol.message_bits_b) | code_b, output(code_a, code_b)

def _transcripts(protocol, x: int, y: int, s: Optional[int], draws):
    """``(m_a, m_b)`` of the scalar message functions at each of ``draws``."""
    message_a, message_b, _ = _bind(protocol, x, y, s, False)
    return ((message_a(r), message_b(r)) for r in draws)

def _draw_transcripts(protocol, x: int, y: int, s: Optional[int]) -> np.ndarray:
    """The transcript of every draw at one input, indexed by ``r``: int64
    codes with an :class:`ArrayForm`, scalar ``(m_a, m_b)`` in an object
    array otherwise.  For CDS protocols the secret ``s`` is required."""
    if protocol.arrays is not None:
        return _draws(protocol, x, y, s)[0]
    total = _randomness_count(protocol)
    return np.fromiter(_transcripts(protocol, x, y, s, range(total)), dtype=object, count=total)

def transcript_tally(protocol, x: int, y: int, s: Optional[int] = None):
    """Every distinct transcript at one input, sorted, as three arrays:
    the transcripts, the first ``r`` of each and its number of ``r``.

    With an :class:`ArrayForm` the transcripts are int64 codes from one
    numpy pass, and code order is the scalar transcripts' tuple order;
    otherwise they are the scalar ``(m_a, m_b)`` in an object array, which
    must be orderable.  Either way the scalar messages at the first ``r``
    are the transcript.  For CDS protocols the secret ``s`` is required.
    """
    transcripts = _draw_transcripts(protocol, x, y, s)
    # runs of equal transcripts in sorted order; the sort need not be
    # stable, since each run's first r is the least draw in it
    order = np.argsort(transcripts)
    ordered = transcripts[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(starts, len(ordered)))
    return ordered[starts], np.minimum.reduceat(order, starts), counts

def transcript_counts(protocol, x: int, y: int, s: Optional[int] = None) -> dict:
    """``(m_a, m_b) -> number of r`` over all ``2^randomness_bits`` values
    of the shared randomness, in order of first appearance: the one
    enumeration every exact classical quantity is derived from.  For CDS
    protocols the secret ``s`` is required; PSM protocols take none.  A
    protocol with an :class:`ArrayForm` is tallied by
    :func:`transcript_tally` and each distinct transcript named by the
    scalar messages at its first draw; the others run one scalar message
    pair per ``r``.
    """
    if protocol.arrays is not None:
        _, first, counts = transcript_tally(protocol, x, y, s)
        order = np.argsort(first)
        keys = _transcripts(protocol, x, y, s, first[order].tolist())
        return dict(zip(keys, counts[order].tolist()))
    counts: dict = {}
    for key in _transcripts(protocol, x, y, s, range(_randomness_count(protocol))):
        counts[key] = counts.get(key, 0) + 1
    return counts

def transcript_distribution(protocol, counts: dict) -> dict:
    """The counts of :func:`transcript_counts` as the exact distribution
    ``(m_a, m_b) -> Fraction``, whose values sum to 1."""
    total = 1 << protocol.randomness_bits
    return {key: Fraction(c, total) for key, c in counts.items()}

def enumerate_message_distribution(protocol, x: int, y: int, s: Optional[int] = None):
    """Exact transcript distribution of a classical protocol at one input."""
    return transcript_distribution(protocol, transcript_counts(protocol, x, y, s))

def cds_decode_failure(p: CdsProtocol, x: int, y: int, s: int) -> Fraction:
    """Exact probability that the referee fails to output ``s``."""
    if p.arrays is not None:
        bad = int(np.count_nonzero(_draws(p, x, y, s)[1] != s))
    else:
        counts, output = transcript_counts(p, x, y, s), _bind(p, x, y, s, False)[2]
        bad = sum(c for (ma, mb), c in counts.items() if output(ma, mb) != s)
    return Fraction(bad, 1 << p.randomness_bits)

def psm_tally(p: PsmProtocol, x: int, y: int, value: int) -> tuple[dict, Fraction]:
    """The transcript counts at one input, and the exact probability that
    the referee's output differs from ``value``, from one enumeration.
    With an :class:`ArrayForm` the counts are keyed by transcript code, as
    in :func:`transcript_tally`; otherwise they are
    :func:`transcript_counts`."""
    if p.arrays is not None:
        codes, outputs = _draws(p, x, y)
        keys, per_key = np.unique(codes, return_counts=True)
        counts = dict(zip(keys.tolist(), per_key.tolist()))
        bad = int(np.count_nonzero(outputs != value))
    else:
        counts = transcript_counts(p, x, y)
        bad = sum(c for (ma, mb), c in counts.items() if p.referee(ma, mb) != value)
    return counts, Fraction(bad, 1 << p.randomness_bits)

def psm_decode_failure(p: PsmProtocol, x: int, y: int, value: int) -> Fraction:
    """Exact probability that the referee's output differs from ``value``."""
    return psm_tally(p, x, y, value)[1]


# ---------------------------------------------------------------------------
# dense quantum protocols
# ---------------------------------------------------------------------------

# defaults of a protocol that shares no resource and has no Bob message
_NO_RESOURCE = StateVector(np.ones(1, dtype=complex), (("L", 1), ("R", 1)), validate=False)
_SILENT_BOB = QuantumChannel([np.ones((1, 1))], (("R", 1),), (("MB", 1),), validate=False)


def _silent_bob(y: int) -> QuantumChannel:
    return _SILENT_BOB


@dataclass(frozen=True)
class CdqsProtocol:
    """A CDQS protocol in explicit channel form.

    ``alice_channel(x)`` consumes ``(Q, L)``, ``bob_channel(y)`` consumes
    ``R``; ``decoder(x, y)`` returns a channel from the message subsystems
    to ``Q``, or None on inputs where decoding is not promised.  Without a
    resource or a Bob message, the defaults keep ``L``, ``R`` and ``MB`` as
    one-dimensional registers: ``resource`` is the amplitude-``[1]`` state
    on ``(L(1), R(1))`` and ``bob_channel`` maps ``R(1) -> MB(1)``.
    """

    n: int
    d_q: int
    alice_channel: Callable[[int], QuantumChannel]
    decoder: Callable[[int, int], Optional[QuantumChannel]]
    bob_channel: Callable[[int], QuantumChannel] = _silent_bob
    resource: StateVector = _NO_RESOURCE
    cost: Optional[CostReport] = None
    construction: str = ""
    params: tuple = ()

    def message_dims(self) -> tuple[int, int]:
        """(dim of Alice's message, dim of Bob's message), probed at x=y=0."""
        da = layout_dim(self.alice_channel(0).output_layout)
        db = layout_dim(self.bob_channel(0).output_layout)
        return da, db

    def decoding_distance(self, x: int, y: int) -> float:
        """``||J(D o N) - J(id)||_1`` for the shipped decoder ``D``.

        The mid state already is the Choi state of the combined channel, so
        decoding it and comparing against the maximally entangled state
        gives the normalised Choi distance directly.
        """
        rho = self._decoded(x, y)
        phi = maximally_entangled("Qbar", "Q", self.d_q).density_matrix()
        return trace_norm(np.asarray(rho.entries) - np.asarray(phi.entries))

    def entanglement_fidelity(self, x: int, y: int) -> float:
        """``<phi+| (decoder (x) id)(mid state) |phi+>`` for the shipped decoder."""
        rho = self._decoded(x, y)
        phi = maximally_entangled("Qbar", "Q", self.d_q)
        return float(np.real(phi.amplitudes.conj() @ rho.entries @ phi.amplitudes))

    def product_distance(self, x: int, y: int) -> float:
        """``|| rho_{QbarM} - pi (x) rho_M ||_1`` of the mid state."""
        mid = mid_protocol_state(self, x, y)
        return product_gap(mid.entries, mid.layout, self.d_q)

    def _decoded(self, x: int, y: int) -> DensityMatrix:
        dec = self.decoder(x, y)
        if dec is None:
            raise ValueError(f"no decoder shipped for input ({x}, {y})")
        return apply_channel(dec, mid_protocol_state(self, x, y)).permuted(["Qbar", "Q"])


def bob_side_state(p: CdqsProtocol, y: int) -> DensityMatrix:
    """Alice's resource half and Bob's message: ``bob_channel(y)`` on the
    resource, laid out on ``(L, Bob's message)``."""
    return apply_channel(p.bob_channel(y), p.resource.density_matrix())

def run_cdqs(p: CdqsProtocol, x: int, y: int, secret: DensityMatrix) -> DensityMatrix:
    """Execute the protocol on an explicit secret state, result on messages:
    Alice's channel on ``secret (x) bob_side_state(p, y)``."""
    if secret.layout != (("Q", p.d_q),):
        raise ValueError(f"secret must live on (('Q', {p.d_q}),), got {secret.layout}")
    return apply_channel(p.alice_channel(x), tensor(secret, bob_side_state(p, y)))

def mid_protocol_state(p: CdqsProtocol, x: int, y: int) -> DensityMatrix:
    """Joint state of the reference ``Qbar`` and both messages.

    The secret register enters maximally entangled with ``Qbar``, so this
    is the (normalised) Choi state of the combined protocol channel:
    Alice's channel on ``phi (x) bob_side_state(p, y)``, laid out as
    ``(Qbar, Alice's message, Bob's message)``.
    """
    phi = maximally_entangled("Qbar", "Q", p.d_q).density_matrix()
    return apply_channel(p.alice_channel(x), tensor(phi, bob_side_state(p, y)))

def product_gap(mat: np.ndarray, layout, d_q: int) -> float:
    """``|| rho - pi (x) rho_M ||_1`` for a state on ``Qbar`` and messages.

    ``mat`` is a raw matrix over ``layout``; ``Qbar`` is moved to the front,
    the messages' marginal ``rho_M`` is taken, and ``pi = I / d_q``.
    """
    names = list(layout_names(layout))
    perm = [names.index("Qbar")] + [i for i, nm in enumerate(names) if nm != "Qbar"]
    mat = permute_matrix(mat, layout, perm)
    dims = [layout_dims(layout)[i] for i in perm]
    rho_m = partial_trace_matrix(mat, dims, keep_positions=list(range(1, len(dims))))
    return trace_norm(mat - np.kron(np.eye(d_q) / d_q, rho_m))

def joint_channel(p: CdqsProtocol, x: int, y: int) -> QuantumChannel:
    """The combined channel ``Q -> messages`` at a fixed input pair."""
    mid = mid_protocol_state(p, x, y)
    msg_names = [nm for nm, _ in mid.layout if nm != "Qbar"]
    msg_layout = tuple(item for item in mid.layout if item[0] != "Qbar")
    j = mid.permuted(list(msg_names) + ["Qbar"])
    return channel_from_choi(j.entries, (("Q", p.d_q),), msg_layout)


def _kron_power(stack: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-fold Kronecker products of a stack of shape ``(r, d_out,
    d_in)``, as one stack of shape ``(r^k, d_out^k, d_in^k)`` with the first
    factor slowest in every index: one broadcast product per factor, the
    elementwise products ``np.kron`` takes."""
    out = stack
    for _ in range(k - 1):
        (a, ao, ai), (b, bo, bi) = out.shape, stack.shape
        out = (out[:, None, :, None, :, None] * stack[None, :, None, :, None, :]).reshape(
            a * b, ao * bo, ai * bi
        )
    return out

def _kron_repeat(channel: QuantumChannel, k: int, in_dims, in_layout, out_layout):
    """k-fold product of a channel whose input has two registers.

    The Kraus operators are the ``k``-fold Kronecker products of the
    channel's, the first factor slowest, with their input axes regrouped
    from ``(a1, b1, ..., ak, bk)`` to ``(a1..ak, b1..bk)`` by one reshape
    and transpose; the single output register groups as out^k.
    """
    da, db = in_dims
    power = _kron_power(channel.kraus_stack, k)
    count, dout, din = power.shape
    grouped = list(range(2, 2 * k + 2, 2)) + list(range(3, 2 * k + 3, 2))
    kraus = power.reshape((count, dout) + (da, db) * k).transpose([0, 1] + grouped)
    ch = QuantumChannel(kraus.reshape(count, dout, din), in_layout, out_layout, validate=False)
    if count > ch.dim_in * ch.dim_out:
        ch = canonical_kraus(ch)
    return ch

def _check_dense_dimension(what: str, dim: int) -> None:
    """Refuse a dense object of dimension ``dim`` over the budget."""
    if dim > DENSE_DIMENSION_BUDGET:
        raise ValueError(
            f"{what} dimension {dim} exceeds the dense budget "
            f"DENSE_DIMENSION_BUDGET={DENSE_DIMENSION_BUDGET}"
        )

def parallel_repeat(p: CdqsProtocol, k: int) -> CdqsProtocol:
    """Independent k-fold parallel composition (secret dimension ``d_q^k``).

    Every Kraus family of the result is the ``k``-fold Kronecker power of
    the original's stack, the first copy slowest, built as one stack; the
    two-register inputs of Alice and the decoder, and the resource's
    ``(L, R)`` pairs, are regrouped copy-major by one reshape and
    transpose.  Costs scale exactly by ``k``; correctness and security of
    the result are measured, not assumed.
    """
    if k < 1:
        raise ValueError("repetition count must be >= 1")
    if k == 1:
        return p
    da, db = p.message_dims()
    dl = layout_dim(p.resource.layout[:1])
    dr = layout_dim(p.resource.layout[1:])
    _check_dense_dimension(f"parallel_repeat({k}) mid-state", (p.d_q * da * db) ** k)

    amps = _kron_power(p.resource.amplitudes.reshape(1, 1, -1), k).reshape((dl, dr) * k)
    grouped = list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2))
    resource = StateVector(
        amps.transpose(grouped).reshape(-1), (("L", dl**k), ("R", dr**k)), validate=False
    )

    def alice(x, _p=p, _k=k, _dl=dl):
        base = _p.alice_channel(x)
        return _kron_repeat(
            base, _k, (_p.d_q, _dl),
            (("Q", _p.d_q**_k), ("L", _dl**_k)), (("MA", base.dim_out**_k),),
        )

    def bob(y, _p=p, _k=k):
        base = _p.bob_channel(y)
        return QuantumChannel(
            _kron_power(base.kraus_stack, _k),
            (("R", base.dim_in**_k),),
            (("MB", base.dim_out**_k),),
            validate=False,
        )

    def decoder(x, y, _p=p, _k=k, _da=da, _db=db):
        base = _p.decoder(x, y)
        if base is None:
            return None
        return _kron_repeat(
            base, _k, (_da, _db), (("MA", _da**_k), ("MB", _db**_k)), (("Q", _p.d_q**_k),)
        )

    return CdqsProtocol(
        n=p.n,
        d_q=p.d_q**k,
        alice_channel=alice,
        bob_channel=bob,
        decoder=decoder,
        resource=resource,
        cost=p.cost.scaled(k) if p.cost is not None else None,
        construction=f"parallel_repeat({p.construction or 'anonymous'}, k={k})",
        params=p.params + (("repetitions", k),),
    )


# ---------------------------------------------------------------------------
# transcript-form CDQS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PadCounts:
    """Integer counts of a secret padded by a classically disclosed key.

    The secret's half of a maximally entangled pair is padded by one of
    ``K`` keys drawn uniformly, and a classical transcript goes with it.
    ``vectors`` maps each key-count vector ``(c_0, ..., c_{K-1})``, the
    draws of every key under one transcript, to the number of transcripts
    that have it.  ``decoded`` counts the draws whose key the decoder
    recovers, and ``total`` counts all draws.  For Pauli pads, where every
    key sends the pair to its own Bell state, both measures are exact:

    * the entanglement fidelity is ``decoded / total``;
    * ``|| rho_{QbarM} - pi (x) rho_M ||_1`` sums, per transcript, the l1
      distance of the key posterior from uniform:
      ``sum_v mult(v) sum_k |K c_k - sum(v)| / (K total)``.
    """

    vectors: Counter
    decoded: int
    total: int

    @property
    def keys(self) -> int:
        return len(next(iter(self.vectors)))

    def fidelity(self) -> Fraction:
        return Fraction(self.decoded, self.total)

    def gap(self) -> int:
        """``K total`` times :meth:`distance`: the integer sum behind it."""
        keys = self.keys
        return sum(
            mult * sum(abs(keys * c - sum(vec)) for c in vec)
            for vec, mult in self.vectors.items()
        )

    def distance(self) -> Fraction:
        return Fraction(self.gap(), self.keys * self.total)

    def square(self) -> "PadCounts":
        """Two independent copies, keyed by pairs of this one's keys.

        The tensor square of the count vectors; the pair decodes copy by
        copy, as ``double_secret`` does when its copies return None
        together (None still meaning key 0 in each).
        """
        vectors: Counter = Counter()
        for v, m in self.vectors.items():
            for w, n in self.vectors.items():
                vectors[tuple(a * b for a in v for b in w)] += m * n
        return PadCounts(vectors, self.decoded**2, self.total**2)


def pad_counts(key_cds: CdsProtocol, x: int, y: int) -> PadCounts:
    """The counts of :class:`PadCounts` for ``key_cds`` disclosing the pad
    key, one enumeration per key.  A decoder returning None leaves the pad
    on (the identity unpad), which is right for key 0.  With an
    :class:`ArrayForm`, the key-count vectors are one ``bincount`` over the
    transcript index of every (key, draw).  That path holds every (key,
    draw) at once, so their number, not only the draws per key, is held to
    the enumeration budget."""
    keys = key_cds.secret_alphabet
    if keys << key_cds.randomness_bits > 1 << ENUMERATION_BUDGET_BITS:
        raise ValueError(
            f"{keys} keys times 2^{key_cds.randomness_bits} draws exceed the "
            f"2^{ENUMERATION_BUDGET_BITS}-draw enumeration budget"
        )
    if key_cds.arrays is not None:
        draws = [_draws(key_cds, x, y, key) for key in range(keys)]
        unique, inverse = np.unique(
            np.concatenate([codes for codes, _ in draws]), return_inverse=True
        )
        key_of_draw = np.repeat(np.arange(keys), 1 << key_cds.randomness_bits)
        table = np.bincount(inverse * keys + key_of_draw, minlength=len(unique) * keys)
        # a decoder's -1 (None) decodes key 0
        decoded = sum(
            int(np.count_nonzero(np.maximum(outputs, 0) == key))
            for key, (_, outputs) in enumerate(draws)
        )
        # equal key-count vectors made adjacent, then counted per run
        rows = table.reshape(-1, keys)
        rows = rows[np.lexsort(rows.T)]
        starts = np.flatnonzero(np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)])
        vectors = Counter(dict(zip(
            map(tuple, rows[starts].tolist()), np.diff(starts, append=len(rows)).tolist()
        )))
        return PadCounts(vectors, decoded, keys << key_cds.randomness_bits)
    per_transcript: dict = {}
    for key in range(keys):
        for t, c in transcript_counts(key_cds, x, y, key).items():
            per_transcript.setdefault(t, [0] * keys)[key] += c
    decoded = 0
    for (ma, mb), vec in per_transcript.items():
        key = key_cds.decoder(ma, x, mb, y)
        decoded += vec[0 if key is None else key]
    vectors = Counter(tuple(vec) for vec in per_transcript.values())
    return PadCounts(vectors, decoded, keys << key_cds.randomness_bits)


@dataclass(frozen=True)
class TranscriptCdqsProtocol:
    """The pad lift of a classical CDS hiding 2-bit keys, in transcript form.

    The message is the classical transcript of ``key_cds`` plus the secret
    qubit padded by ``X^{k1} Z^{k2}`` with ``k = 2*k1 + k2`` the disclosed
    key; every measure is exact through :func:`pad_counts`, so
    verification stays rational even when the classical registers are far
    too large for dense simulation.
    """

    key_cds: CdsProtocol
    cost: CostReport
    construction: str = ""
    params: tuple = ()

    d_q = 2

    @property
    def n(self) -> int:
        return self.key_cds.n

    def decoding_distance(self, x: int, y: int) -> Fraction:
        """Exact ``||J(D o N) - J(id)||_1``: every wrongly decoded key lands
        on a Bell state orthogonal to the reference one."""
        return 2 * (1 - self.entanglement_fidelity(x, y))

    def entanglement_fidelity(self, x: int, y: int) -> Fraction:
        """Exact decoded entanglement fidelity at one input."""
        return pad_counts(self.key_cds, x, y).fidelity()

    def product_distance(self, x: int, y: int) -> Fraction:
        """Exact ``|| rho_{QbarM} - pi (x) rho_M ||_1`` at one input."""
        return pad_counts(self.key_cds, x, y).distance()


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def _pad_lift_cost(key_cds: CdsProtocol) -> CostReport:
    """Cost of the pad lift of ``key_cds``, which must hide 2-bit keys."""
    if key_cds.secret_alphabet != 4:
        raise ValueError("the pad lift needs a CDS hiding 2-bit secrets (alphabet 4)")
    return CostReport(
        comm_bits=key_cds.message_bits_a + key_cds.message_bits_b,
        comm_qubits=1,
        shared_random_bits=key_cds.randomness_bits,
        shared_epr_pairs=0,
    )

def classical_to_quantum_lift(key_cds: CdsProtocol) -> CdqsProtocol:
    """Turn a classical CDS hiding 2-bit keys into a CDQS for one qubit.

    Alice draws a uniform pad key ``k = (k1, k2)``, applies ``X^{k1} Z^{k2}``
    to the secret qubit, and runs the classical CDS with secret ``k``; the
    referee recovers the key exactly when the CDS discloses it and unpads.
    Message subsystems: ``MAc`` (Alice's classical message), ``Qs`` (the
    padded qubit), ``MBc`` (Bob's classical message).  The resource
    ``(L, R)`` and the mid state ``(Qbar, MAc, Qs, MBc)`` must fit the dense
    budget.
    """
    cost = _pad_lift_cost(key_cds)
    r_count = 1 << key_cds.randomness_bits
    _check_dense_dimension("pad-lift resource", r_count * r_count)
    inputs = range(1 << key_cds.n)
    ma_space = sorted(
        {key_cds.message_a(x, s, r) for x in inputs for s in range(4) for r in range(r_count)}
    )
    mb_space = sorted({key_cds.message_b(y, r) for y in inputs for r in range(r_count)})
    ma_index = {m: i for i, m in enumerate(ma_space)}
    mb_index = {m: i for i, m in enumerate(mb_space)}
    dim_a, dim_b = len(ma_space), len(mb_space)
    _check_dense_dimension("pad-lift mid-state", 4 * dim_a * dim_b)

    resource = StateVector(
        np.eye(r_count, dtype=complex).reshape(-1) / math.sqrt(r_count),
        (("L", r_count), ("R", r_count)),
        validate=False,
    )

    rs = np.arange(r_count)

    def alice(x, _p=key_cds):
        # Kraus (r, key), r slowest: pad / 2 from Q to Qs, |message_a><r| from L to MAc
        msg = [[ma_index[_p.message_a(x, key, r)] for key in range(4)] for r in range(r_count)]
        kraus = np.zeros((r_count, 4, dim_a, 2, 2, r_count), dtype=complex)
        kraus[rs[:, None], np.arange(4), msg, :, :, rs[:, None]] = PAD_OPERATORS / 2.0
        return QuantumChannel(
            kraus.reshape(4 * r_count, 2 * dim_a, 2 * r_count),
            (("Q", 2), ("L", r_count)),
            (("MAc", dim_a), ("Qs", 2)),
            validate=False,
        )

    def bob(y, _p=key_cds):
        # Kraus r: |message_b><r| from R to MBc
        kraus = np.zeros((r_count, dim_b, r_count), dtype=complex)
        kraus[rs, [mb_index[_p.message_b(y, r)] for r in range(r_count)], rs] = 1.0
        return QuantumChannel(kraus, (("R", r_count),), (("MBc", dim_b),), validate=False)

    def decoder(x, y, _p=key_cds):
        # Kraus (m_a, m_b), m_a slowest: <m_a| (x) unpad (x) <m_b|, the identity
        # unpad when nothing is disclosed
        keys = [_p.decoder(ma, x, mb, y) for ma in ma_space for mb in mb_space]
        unpads = _UNPADS[[0 if key is None else int(key) for key in keys]]
        ia, ib = np.arange(dim_a)[:, None], np.arange(dim_b)
        kraus = np.zeros((dim_a, dim_b, 2, dim_a, 2, dim_b), dtype=complex)
        kraus[ia, ib, :, ia, :, ib] = unpads.reshape(dim_a, dim_b, 2, 2)
        return QuantumChannel(
            kraus.reshape(dim_a * dim_b, 2, 2 * dim_a * dim_b),
            (("MAc", dim_a), ("Qs", 2), ("MBc", dim_b)),
            (("Q", 2),),
            validate=False,
        )

    return CdqsProtocol(
        n=key_cds.n,
        d_q=2,
        alice_channel=alice,
        bob_channel=bob,
        decoder=decoder,
        resource=resource,
        cost=cost,
        construction=f"pad_lift({key_cds.construction or 'anonymous'})",
        params=key_cds.params,
    )

def transcript_form(key_cds: CdsProtocol) -> TranscriptCdqsProtocol:
    """The same pad construction as :func:`classical_to_quantum_lift`, but
    kept in exact transcript form instead of dense channels.

    Agreement of its fidelity and distances with the dense lift on every
    input is a cross-check, and the rational form stays usable when the
    dense one would not fit.
    """
    return TranscriptCdqsProtocol(
        key_cds=key_cds,
        cost=_pad_lift_cost(key_cds),
        construction=f"pad_lift_transcript({key_cds.construction or 'anonymous'})",
        params=key_cds.params,
    )


def psm_to_cds(psm_family: Callable[..., PsmProtocol], f: PromiseFunction) -> CdsProtocol:
    """Build a one-bit-secret CDS for ``f`` from a PSM for ``h = s AND f``.

    ``psm_family(h, x_bits, y_bits)`` must return a PSM protocol computing
    ``h`` where Alice's input packs ``(x, s)`` with the secret in the low
    bit.  Outside the promise ``h`` is extended by 0 (those inputs are
    never judged).
    """

    def h(xt: int, y: int) -> int:
        s = xt & 1
        x = xt >> 1
        v = f.value(x, y)
        return s & v if v is not None else 0

    psm = psm_family(h, f.n + 1, f.n)

    return CdsProtocol(
        n=f.n,
        randomness_bits=psm.randomness_bits,
        secret_alphabet=2,
        message_a=lambda x, s, r, _p=psm: _p.message_a((x << 1) | s, r),
        message_b=lambda y, r, _p=psm: _p.message_b(y, r),
        decoder=lambda ma, x, mb, y, _p=psm: _p.referee(ma, mb),
        message_bits_a=psm.message_bits_a,
        message_bits_b=psm.message_bits_b,
        construction=f"psm_to_cds({f.name})",
        params=(("inner_psm", psm.construction),),
    )


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

def protocol_cost(p) -> CostReport:
    """Exact resource counts; message sizes are input-independent."""
    if isinstance(p, (CdsProtocol, PsmProtocol)):
        return CostReport(
            comm_bits=p.message_bits_a + p.message_bits_b,
            comm_qubits=0,
            shared_random_bits=p.randomness_bits,
            shared_epr_pairs=0,
        )
    if isinstance(p, TranscriptCdqsProtocol):
        return p.cost
    if isinstance(p, CdqsProtocol):
        if p.cost is not None:
            return p.cost
        da, db = p.message_dims()
        qubits = _exact_log2(da, "Alice message") + _exact_log2(db, "Bob message")
        pairs = _exact_log2(layout_dim(p.resource.layout[:1]), "resource")
        return CostReport(
            comm_bits=0, comm_qubits=qubits, shared_random_bits=0, shared_epr_pairs=pairs
        )
    cost = getattr(p, "cost", None)
    if isinstance(cost, CostReport):
        return cost
    raise TypeError(f"not a protocol object: {type(p).__name__}")
