"""Protocol objects and their exact execution.

Classical :class:`CdsProtocol` / :class:`PsmProtocol` are message functions
over integer-encoded inputs plus dyadic shared randomness, executed by
one exhaustive enumeration whose integer counts become exact rational
probabilities.  Only two private functions know a protocol's form:
:func:`_draws` returns the transcript of every draw at one input, or at
a grid of inputs with one row each, and :func:`_outputs` the decoder's
(or referee's) output on each.  A protocol with an :class:`ArrayForm`
(``neq_cds`` and ``ip_psm``) evaluates the whole ``(inputs x 2^rb)``
grid in one numpy pass, in blocks of at most ``max(2^rb, 2^16)`` draws:
its messages are int64 codes with the fields packed first field high, so
integer order is tuple order, and a transcript is ``code_a <<
message_bits_b | code_b``.  Otherwise the transcripts are the scalar
``(m_a, m_b)`` in an object array, drawn one input at a time, which must
be orderable, and the decoder runs once per distinct transcript of each
input.  Every count is one tally, :func:`_tally`: each row of a grid of
draws sorted once, stably, into runs of equal transcripts.  A per-input
count tallies one row per input (:func:`transcript_tally`,
:func:`psm_tally`); a pooled count tallies a one-row grid of several
rows' draws (:func:`pad_counts` over the pad keys, :func:`mixture_counts`
over weighted inputs), and holds them all at once, so their number is
held to the enumeration budget.  Each distinct transcript is named by
the scalar messages at its first draw (:func:`transcript_counts`,
:func:`mixture_counts`).  The scalar message functions stay the
reference the array forms are tested against.

Every CDQS shape answers the same three per-input questions, which is all
the verifier asks of it:

* ``decoding_distance(x, y)``: distance of the decoded Choi state from the
  maximally entangled one (the lower end of epsilon);
* ``entanglement_fidelity(x, y)``: overlap of the decoded Choi state with
  the maximally entangled one;
* ``product_distance(x, y)``: ``|| rho_{QbarM} - pi (x) rho_M ||_1`` of the
  mid-protocol state (the lower end of delta).

A dense :class:`CdqsProtocol` (named-subsystem channels for Alice and Bob
plus a pure resource state held on its support, a
:class:`cdslab.qcore.SupportVector`, each one-dimensional when unused)
answers them at its Choi state, so it stays small.  The "classical transcript + one
Pauli-padded qubit" shape answers them exactly in rationals, so large
classical registers stay cheap: :func:`pad_counts` tabulates, per
transcript, the integer counts of each pad key, and :class:`PadCounts`
turns them into all three measures.  A decoder that returns None leaves
the pad on, which decodes key 0 only.  :class:`TranscriptCdqsProtocol` is
this shape's one class: at each input a weighted mixture of such counts,
measured once.  The one-class :func:`transcript_form` and the hybrid
protocol of :mod:`cdslab.quantum`, a two-class mixture, are its instances.

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

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Hashable, Optional

import numpy as np

from .qcore import (
    ATOL_INVARIANT,
    PAULI,
    DensityMatrix,
    QuantumChannel,
    SupportVector,
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
# the most draws one block of an enumeration grid holds, unless one input has more
_GRID_DRAWS = 1 << 16
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
        if v is None:
            return None
        if v not in (0, 1):
            raise ValueError(f"{self.name} at input ({x}, {y}) gives {v!r}, not 0, 1 or None")
        return int(v)

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
    """Whole-grid twins of a classical protocol's message and output
    functions.

    Each takes its scalar twin's arguments with ``r`` an int64 array of
    draws of the shared randomness, and the inputs and the secret as ints
    or as int64 columns of shape ``(k, 1)``, which broadcast against ``r``
    (and a transcript code against both).  It returns one int64 entry per
    (input, draw) of the broadcast grid:

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

    ``message_a(x, s, r)`` and ``message_b(y, r)`` return orderable message
    values; ``decoder(m_a, x, m_b, y)`` returns the recovered secret, or
    None when the transcript announces "nothing disclosed".  ``arrays``,
    when set, is the same protocol over whole grids of inputs and draws;
    the exact enumeration then evaluates every input of a verification as
    one int64 grid, and the scalar functions stay its reference and name
    its transcripts.
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
    """A private-simultaneous-messages protocol (referee sees only messages):
    ``message_a(x, r)`` and ``message_b(y, r)`` return orderable message
    values; ``arrays`` as for :class:`CdsProtocol`, so that every promise
    input of a verification is one int64 grid."""

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


def _randomness_count(protocol, rows: int) -> int:
    """``2^randomness_bits``, refused when ``rows`` inputs' (or keys')
    draws of it, held at once, exceed the enumeration budget."""
    if rows << protocol.randomness_bits > 1 << ENUMERATION_BUDGET_BITS:
        raise ValueError(
            f"{rows} x 2^{protocol.randomness_bits} draws exceed the "
            f"2^{ENUMERATION_BUDGET_BITS}-draw enumeration budget"
        )
    return 1 << protocol.randomness_bits

def _require(p, kinds, what: str) -> None:
    """Refuse ``p`` unless it is one of the classes ``kinds``, naming them."""
    if not isinstance(p, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{what} needs a {expected}, got {type(p).__name__}")

def _bind(protocol, x, y, s, arrays: bool):
    """Alice's and Bob's message functions of ``r`` at the inputs, and the
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

def _rows(x, y, s) -> list:
    """The ``(x, y, s)`` of each row of a grid whose inputs and secret are
    ints or columns, as ints (``s`` None for a PSM)."""
    grid = np.broadcast(x, y, 0 if s is None else s)
    return [(int(a), int(b), None if s is None else int(c)) for a, b, c in grid]

def _draws(protocol, x, y, s=None) -> np.ndarray:
    """The transcript of every draw of the shared randomness, indexed by
    ``r``, at one input or at a grid of them: ``x``, ``y`` and ``s`` are
    ints, or int64 columns of shape ``(k, 1)`` that broadcast, and then
    each of the ``k`` rows holds one input's draws.  With an
    :class:`ArrayForm` these are the int64 codes ``code_a << message_bits_b
    | code_b`` of one numpy evaluation over the whole grid; otherwise the
    scalar ``(m_a, m_b)`` in an object array, one input at a time.  Nothing
    is decoded here, so a tally never needs a decoder that can read every
    transcript.  The budget, the code width and the secret are checked
    before anything is drawn."""
    total = _randomness_count(protocol, 1)
    arrays = protocol.arrays is not None
    width = protocol.message_bits_a + protocol.message_bits_b
    if arrays and width > 63:
        raise ValueError(f"a {width}-bit transcript code overflows int64")
    message_a, message_b, _ = _bind(protocol, x, y, s, arrays)
    if arrays:
        r = np.arange(total, dtype=np.int64)
        codes = (message_a(r) << protocol.message_bits_b) | message_b(r)
        # messages that ignore the inputs still give one row per input, as
        # an array of its own, since a tally sorts it in place
        grid = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(s), r.shape)
        return codes if codes.shape == grid else np.broadcast_to(codes, grid).copy()
    if np.ndim(x) or np.ndim(y) or np.ndim(s):
        return np.stack([_draws(protocol, *row) for row in _rows(x, y, s)])
    return np.fromiter(
        ((message_a(r), message_b(r)) for r in range(total)), dtype=object, count=total
    )

def _outputs(protocol, x, y, s, transcripts: np.ndarray) -> np.ndarray:
    """The decoder's (or referee's) output on each of ``transcripts``, as
    :func:`_draws` returns them at the same inputs, with -1 where the scalar
    decoder returns None.  With an :class:`ArrayForm` that is one call on
    the split codes; otherwise, row by row, one scalar call per distinct
    transcript, in order of first appearance, so nothing is sorted."""
    arrays = protocol.arrays is not None
    if not arrays and transcripts.ndim > 1:
        return np.stack([
            _outputs(protocol, *row, draws) for row, draws in zip(_rows(x, y, s), transcripts)
        ])
    output = _bind(protocol, x, y, s, arrays)[2]
    if arrays:
        low = (1 << protocol.message_bits_b) - 1
        return output(transcripts >> protocol.message_bits_b, transcripts & low)
    draws = transcripts.tolist()
    decoded = {t: output(*t) for t in dict.fromkeys(draws)}
    return np.array([-1 if decoded[t] is None else decoded[t] for t in draws], dtype=np.int64)

def _pairs(x, y):
    """Two equal-length int sequences of inputs as int64 arrays."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"inputs must be two equal-length sequences, not {x.shape} and {y.shape}")
    return x, y

def _grid(protocol, x, y, s):
    """The draws at every input ``(x[i], y[i])`` of two equal-length int
    sequences, at the secret ``s`` (None for a PSM), in blocks of
    consecutive inputs: ``(rows, x, y, draws)``, the block's slice of the
    sequences, its inputs as int64 columns, and their :func:`_draws`, one
    row per input.  A block holds at most ``max(2^randomness_bits,
    _GRID_DRAWS)`` draws."""
    x, y = _pairs(x, y)
    step = max(1, _GRID_DRAWS >> protocol.randomness_bits)
    for start in range(0, len(x), step):
        rows = slice(start, start + step)
        xs, ys = x[rows, None], y[rows, None]
        yield rows, xs, ys, _draws(protocol, xs, ys, s)

def _tally(draws: np.ndarray, code_bits: int):
    """Sort each row of a ``(k, R)`` grid of transcripts once, stably, into
    runs of equal transcripts.  Returns the transcripts in that order, row
    after row, the ``r`` of each within its row, and the bounds of the
    runs: the position where each starts and then the number of draws.  No
    run crosses a row, and each run's first entry has its least ``r``.
    Int64 codes of ``code_bits`` bits are sorted in place, as the packed
    key ``code << bits | r``, where that fits in 63 bits, so the caller
    reads the draws first; wider codes and scalar transcripts take a
    stable ``argsort``.  Pooled draws are a one-row grid, whose ``r`` is
    the flat index.  This is the one sort of draws into runs."""
    total = draws.shape[1]
    bits = max(total - 1, 0).bit_length()
    if draws.dtype != object and code_bits + bits <= 63:
        ordered = draws
        ordered <<= bits
        ordered |= np.arange(total, dtype=np.int64)
        ordered.sort(axis=1)
        order = ordered & ((1 << bits) - 1)
        ordered >>= bits
    else:
        order = np.argsort(draws, axis=1, kind="stable")
        ordered = np.take_along_axis(draws, order, axis=1)
    ordered, order = ordered.reshape(-1), order.reshape(-1)
    heads = np.ones(draws.size + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:-1])
    heads[::total] = True
    return ordered, order, np.flatnonzero(heads)

def _fractions(counts, total: int) -> list:
    """``Fraction(c, total)`` for each of ``counts``, one Fraction built per
    distinct count."""
    shared = {c: Fraction(c, total) for c in set(counts)}
    return [shared[c] for c in counts]

def _row_tallies(draws: np.ndarray, code_bits: int) -> list:
    """The three arrays of :func:`transcript_tally` for each row of a grid
    of draws, from one :func:`_tally`."""
    ordered, order, bounds = _tally(draws, code_bits)
    rows = np.searchsorted(bounds, np.arange(0, draws.size + 1, draws.shape[1])).tolist()
    if len(bounds) > draws.size:
        # one draw per run, as in a perfect PSM: the arrays are as long as
        # the grid, so none is copied and every count is a read-only 1
        transcripts, first, counts = ordered, order, np.broadcast_to(np.int64(1), draws.size)
    else:
        transcripts, first, counts = ordered[bounds[:-1]], order[bounds[:-1]], np.diff(bounds)
    return [(transcripts[a:b], first[a:b], counts[a:b]) for a, b in zip(rows, rows[1:])]

def transcript_tally(protocol, x, y, s: Optional[int] = None):
    """Every distinct transcript at one input, sorted, as three arrays:
    the transcripts, the first ``r`` of each and its number of ``r``.
    ``x`` and ``y`` may be two equal-length int sequences instead, for one
    such triple per input, all drawn as one grid.

    With an :class:`ArrayForm` the transcripts are int64 codes, and code
    order is the scalar transcripts' tuple order; otherwise they are the
    scalar ``(m_a, m_b)`` in an object array, which must be orderable.
    Either way the scalar messages at the first ``r`` are the transcript.
    The arrays are views, read-only for the counts where every draw is its
    own transcript.  For CDS protocols the secret ``s`` is required.
    """
    single = np.ndim(x) == 0
    bits = protocol.message_bits_a + protocol.message_bits_b
    tallies = []
    for *_, draws in _grid(protocol, np.atleast_1d(x), np.atleast_1d(y), s):
        tallies += _row_tallies(draws, bits)
    return tallies[0] if single else tallies

def transcript_counts(protocol, x: int, y: int, s: Optional[int] = None) -> dict:
    """``(m_a, m_b) -> number of r`` over all ``2^randomness_bits`` values
    of the shared randomness, in order of first appearance: the tally of
    the one enumeration every exact classical quantity is derived from.
    For CDS protocols the secret ``s`` is required; PSM protocols take
    none.  The draws are tallied by :func:`transcript_tally`, and each
    distinct transcript is named by the scalar messages at its first draw.
    """
    _, first, counts = transcript_tally(protocol, x, y, s)
    order = np.argsort(first)
    message_a, message_b, _ = _bind(protocol, x, y, s, False)
    keys = ((message_a(r), message_b(r)) for r in first[order].tolist())
    return dict(zip(keys, counts[order].tolist()))

def mixture_counts(protocol, x, y, s: Optional[int], weights) -> dict:
    """The draws of every input ``(x[i], y[i])`` of two equal-length int
    sequences pooled, each counted ``weights[i]`` times: ``(m_a, m_b) ->
    weighted count``, in transcript order.  Each distinct transcript is
    named by the scalar messages at its first draw, the first input that
    has it at its least ``r``.  Every draw is held at once, so their number
    is held to the enumeration budget before anything is drawn; ``s`` is
    the secret of a CDS, None for a PSM."""
    x, y = _pairs(x, y)
    if len(weights) != len(x):
        raise ValueError(f"{len(weights)} weights for {len(x)} inputs")
    total = _randomness_count(protocol, len(x))
    draws = _draws(protocol, x[:, None], y[:, None], s)
    bits = protocol.message_bits_a + protocol.message_bits_b
    order, bounds = _tally(draws.reshape(1, -1), bits)[1:]
    first = order[bounds[:-1]].tolist()
    order >>= protocol.randomness_bits
    counts = np.add.reduceat(np.asarray(weights, dtype=np.int64)[order], bounds[:-1])
    named = [_bind(protocol, a, b, s, False)[:2] for a, b in zip(x.tolist(), y.tolist())]
    out = {}
    for i, c in zip(first, counts.tolist()):
        row, r = divmod(i, total)
        message_a, message_b = named[row]
        out[message_a(r), message_b(r)] = c
    return out

def transcript_distribution(protocol, counts: dict) -> dict:
    """The counts of :func:`transcript_counts` (or of :func:`psm_tally`) as
    the exact distribution ``transcript -> Fraction``, whose values sum to
    1; one Fraction is built per distinct count."""
    return dict(zip(counts, _fractions(counts.values(), 1 << protocol.randomness_bits)))

def enumerate_message_distribution(protocol, x: int, y: int, s: Optional[int] = None):
    """Exact transcript distribution of a classical protocol at one input."""
    return transcript_distribution(protocol, transcript_counts(protocol, x, y, s))

def cds_decode_failure(p: CdsProtocol, x, y, s: int):
    """Exact probability that the referee fails to output ``s``.  ``x`` and
    ``y`` are ints, or two equal-length int sequences for one Fraction per
    input pair, all drawn as one grid."""
    single = np.ndim(x) == 0
    bad = []
    for _, xs, ys, draws in _grid(p, np.atleast_1d(x), np.atleast_1d(y), s):
        bad += np.count_nonzero(_outputs(p, xs, ys, s, draws) != s, axis=1).tolist()
    failures = _fractions(bad, 1 << p.randomness_bits)
    return failures[0] if single else failures

def psm_tally(p: PsmProtocol, x, y, value):
    """The transcript counts at one input, keyed by the transcripts of
    :func:`transcript_tally`, and the exact probability that the referee's
    output differs from ``value``, from one enumeration.  ``x``, ``y`` and
    ``value`` may be equal-length int sequences instead, for one such pair
    per input, all drawn as one grid."""
    single = np.ndim(x) == 0
    value = np.atleast_1d(value)
    bits = p.message_bits_a + p.message_bits_b
    counts, bad = [], []
    for rows, xs, ys, draws in _grid(p, np.atleast_1d(x), np.atleast_1d(y), None):
        wrong = _outputs(p, xs, ys, None, draws) != value[rows, None]
        bad += np.count_nonzero(wrong, axis=1).tolist()
        counts += [dict(zip(t.tolist(), c.tolist())) for t, _, c in _row_tallies(draws, bits)]
    tallies = list(zip(counts, _fractions(bad, 1 << p.randomness_bits)))
    return tallies[0] if single else tallies

def psm_decode_failure(p: PsmProtocol, x: int, y: int, value: int) -> Fraction:
    """Exact probability that the referee's output differs from ``value``."""
    return psm_tally(p, x, y, value)[1]


# ---------------------------------------------------------------------------
# dense quantum protocols
# ---------------------------------------------------------------------------

# defaults of a protocol that shares no resource and has no Bob message
_NO_RESOURCE = SupportVector([0], [1], (("L", 1), ("R", 1)))
_SILENT_BOB = QuantumChannel([np.ones((1, 1))], (("R", 1),), (("MB", 1),), validate=False)


def _silent_bob(y: int) -> QuantumChannel:
    return _SILENT_BOB


@dataclass(frozen=True)
class CdqsProtocol:
    """A CDQS protocol in explicit channel form.

    ``alice_channel(x)`` consumes ``(Q, L)``, ``bob_channel(y)`` consumes
    ``R``; ``decoder(x, y)`` returns a channel from the message subsystems
    to ``Q``, or None on inputs where decoding is not promised.  The
    ``resource`` is a pure state on ``(L, R)`` held on its support; its norm
    must be 1 within ``ATOL_INVARIANT``.  Without a resource or a Bob
    message, the defaults keep ``L``, ``R`` and ``MB`` as one-dimensional
    registers: ``resource`` is the one entry ``[1]`` on ``(L(1), R(1))``
    and ``bob_channel`` maps ``R(1) -> MB(1)``.
    """

    n: int
    d_q: int
    alice_channel: Callable[[int], QuantumChannel]
    decoder: Callable[[int, int], Optional[QuantumChannel]]
    bob_channel: Callable[[int], QuantumChannel] = _silent_bob
    resource: SupportVector = _NO_RESOURCE
    cost: Optional[CostReport] = None
    construction: str = ""
    params: tuple = ()

    def __post_init__(self):
        norm = float(np.linalg.norm(self.resource.amplitudes))
        if abs(norm - 1.0) > ATOL_INVARIANT:
            raise ValueError(f"resource norm {norm} deviates from 1 beyond {ATOL_INVARIANT}")

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
        on_phi = rho.entries[np.ix_(phi.index, phi.index)]
        return float(np.real(phi.amplitudes.conj() @ on_phi @ phi.amplitudes))

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


def _kron_regrouped(stack: np.ndarray, k: int, in_dims) -> np.ndarray:
    """The ``k``-fold Kronecker power of a stack of shape ``(r, d_out,
    d_in)``, with its input regrouped copy-major.

    The power has shape ``(r^k, d_out^k, d_in^k)``, the first factor
    slowest in every index: one broadcast product per factor, the
    elementwise products ``np.kron`` takes.  With ``d_in`` split into the
    registers ``in_dims = (a, b, ...)``, the power's input axes run copy
    by copy, ``(a1, b1, ..., ak, bk)``; one reshape and transpose moves
    register ``j`` of copy ``c`` to axis ``j k + c``, giving ``(a1..ak,
    b1..bk, ...)``.  One register is left in place, and the single output
    register groups as ``d_out^k``.
    """
    out = stack
    for _ in range(k - 1):
        (a, ao, ai), (b, bo, bi) = out.shape, stack.shape
        out = (out[:, None, :, None, :, None] * stack[None, :, None, :, None, :]).reshape(
            a * b, ao * bo, ai * bi
        )
    count, dout, din = out.shape
    regs = len(in_dims)
    grouped = [2 + c * regs + j for j in range(regs) for c in range(k)]
    regrouped = out.reshape((count, dout) + tuple(in_dims) * k).transpose([0, 1] + grouped)
    return regrouped.reshape(count, dout, din)

def _repeated(channel: QuantumChannel, k: int, in_dims, in_names, out_name) -> QuantumChannel:
    """The ``k``-fold product of ``channel``, by :func:`_kron_regrouped`,
    with each input register ``name`` of dimension ``dim`` grouped as
    ``(name, dim^k)`` and the output as ``(out_name, d_out^k)``.  A family
    of more than ``d_in d_out`` operators is compressed by
    :func:`canonical_kraus`."""
    kraus = _kron_regrouped(channel.kraus_stack, k, in_dims)
    in_layout = tuple((name, dim**k) for name, dim in zip(in_names, in_dims))
    ch = QuantumChannel(kraus, in_layout, ((out_name, channel.dim_out**k),), validate=False)
    if len(kraus) > ch.dim_in * ch.dim_out:
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

    Every Kraus family of the result, and its resource, is the ``k``-fold
    Kronecker power of the original's, the first copy slowest, regrouped
    copy-major by :func:`_kron_regrouped`; the resource is scattered to its
    dense amplitudes for that and held on the power's nonzeros.  The
    two-register inputs, Alice's ``(Q, L)``, the decoder's ``(MA, MB)`` and
    the resource's ``(L, R)``, run copy by copy in the power, ``(Q1, L1,
    ..., Qk, Lk)`` for Alice, and register by register in the result,
    ``(Q1..Qk, L1..Lk)``; Bob's one register ``R`` and every output are not
    permuted.
    Costs scale exactly by ``k``; correctness and security of the result
    are measured, not assumed.
    """
    if k < 1:
        raise ValueError("repetition count must be >= 1")
    if k == 1:
        return p
    da, db = p.message_dims()
    dl = layout_dim(p.resource.layout[:1])
    dr = layout_dim(p.resource.layout[1:])
    _check_dense_dimension(f"parallel_repeat({k}) mid-state", (p.d_q * da * db) ** k)

    dense = np.zeros(dl * dr, dtype=complex)
    dense[p.resource.index] = p.resource.amplitudes
    amps = _kron_regrouped(dense.reshape(1, 1, -1), k, (dl, dr)).reshape(-1)
    nonzero = np.flatnonzero(amps)
    resource = SupportVector(nonzero, amps[nonzero], (("L", dl**k), ("R", dr**k)))

    def alice(x):
        return _repeated(p.alice_channel(x), k, (p.d_q, dl), ("Q", "L"), "MA")

    def bob(y):
        return _repeated(p.bob_channel(y), k, (dr,), ("R",), "MB")

    def decoder(x, y):
        base = p.decoder(x, y)
        return None if base is None else _repeated(base, k, (da, db), ("MA", "MB"), "Q")

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
    key.  The keys are the secret axis of one enumeration grid, whose
    draws are pooled and tallied once (:func:`_tally`); each run of equal
    transcripts is one key-count vector, from one ``bincount`` over the
    (run, key) of every draw.  The vectors are tallied as one int64 code
    each where their entries fit, and by one ``lexsort`` otherwise.  The
    decoder runs on every draw (once per distinct transcript without an
    :class:`ArrayForm`); a decoder returning None leaves the pad on (the
    identity unpad), which is right for key 0.  Every (key, draw) is held
    at once, so their number, not only the draws per key, is held to the
    enumeration budget."""
    keys = key_cds.secret_alphabet
    total = _randomness_count(key_cds, keys)
    key_of_row = np.arange(keys)[:, None]
    transcripts = _draws(key_cds, x, y, key_of_row).reshape(-1)
    # the decoder does not read the secret, so key 0 binds it for every draw;
    # its -1 (None) decodes key 0
    outputs = _outputs(key_cds, x, y, 0, transcripts).reshape(keys, total)
    decoded = int(np.count_nonzero(np.maximum(outputs, 0, out=outputs) == key_of_row))
    del outputs
    order, bounds = _tally(transcripts[None], key_cds.message_bits_a + key_cds.message_bits_b)[1:]
    del transcripts
    # the (run, key) of every draw, in place: the arrays hold 2^24 entries
    run = np.zeros(len(order), dtype=np.int64)
    run[bounds[1:-1]] = keys
    runs = len(bounds) - 1
    del bounds
    np.cumsum(run, out=run)
    order >>= key_cds.randomness_bits
    run += order
    del order
    table = np.bincount(run, minlength=runs * keys).reshape(-1, keys)
    bits = int(table.max()).bit_length()
    if keys * bits <= 63:
        # each vector as one code, the first key's count highest, so code
        # order is the vectors' lexicographic order
        shifts = bits * np.arange(keys - 1, -1, -1, dtype=np.int64)
        codes, mults = np.unique((table << shifts).sum(axis=1), return_counts=True)
        rows = (codes[:, None] >> shifts) & ((1 << bits) - 1)
    else:
        table = table[np.lexsort(table.T[::-1])]
        heads = np.flatnonzero(np.concatenate(([True], (table[1:] != table[:-1]).any(axis=1))))
        rows, mults = table[heads], np.diff(heads, append=len(table))
    vectors = Counter(dict(zip(map(tuple, rows.tolist()), mults.tolist())))
    return PadCounts(vectors, decoded, keys * total)


@dataclass(frozen=True)
class TranscriptCdqsProtocol:
    """A CDQS whose message is a classical transcript plus the secret qubit
    padded by ``X^{k1} Z^{k2}``, measured exactly as a mixture of pad counts.

    ``classes(x, y)`` gives the ``(Fraction weight, PadCounts)`` classes at
    one input, whose weights sum to 1, and each measure is the weighted sum
    of the classes' :class:`PadCounts` measures, so verification stays
    rational even when the classical registers are far too large for dense
    simulation.  :func:`transcript_form` is the one-class instance and the
    hybrid protocol of :mod:`cdslab.quantum` a two-class one.
    """

    n: int
    cost: CostReport
    classes: Callable[[int, int], tuple]
    construction: str = ""
    params: tuple = ()

    d_q = 2

    def decoding_distance(self, x: int, y: int) -> Fraction:
        """Exact ``||J(D o N) - J(id)||_1``: every wrongly decoded key lands
        on a Bell state orthogonal to the reference one."""
        return 2 * (1 - self.entanglement_fidelity(x, y))

    def entanglement_fidelity(self, x: int, y: int) -> Fraction:
        """Exact decoded entanglement fidelity at one input."""
        return sum(weight * counts.fidelity() for weight, counts in self.classes(x, y))

    def product_distance(self, x: int, y: int) -> Fraction:
        """Exact ``|| rho_{QbarM} - pi (x) rho_M ||_1`` at one input."""
        return sum(weight * counts.distance() for weight, counts in self.classes(x, y))


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def _pad_lift_cost(key_cds: CdsProtocol) -> CostReport:
    """Cost of the pad lift of ``key_cds``, which must be a CDS hiding 2-bit
    keys: the classical CDS's cost plus the padded qubit."""
    _require(key_cds, (CdsProtocol,), "the pad lift")
    if key_cds.secret_alphabet != 4:
        raise ValueError("the pad lift needs a CDS hiding 2-bit secrets (alphabet 4)")
    return replace(protocol_cost(key_cds), comm_qubits=1)

def classical_to_quantum_lift(key_cds: CdsProtocol) -> CdqsProtocol:
    """Turn a classical CDS hiding 2-bit keys into a CDQS for one qubit.

    Alice draws a uniform pad key ``k = (k1, k2)``, applies ``X^{k1} Z^{k2}``
    to the secret qubit, and runs the classical CDS with secret ``k``; the
    referee recovers the key exactly when the CDS discloses it and unpads.
    Message subsystems: ``MAc`` (Alice's classical message), ``Qs`` (the
    padded qubit), ``MBc`` (Bob's classical message).  The resource is the
    maximally entangled state on ``(L, R)``, one draw ``r`` per entry; it
    and the mid state ``(Qbar, MAc, Qs, MBc)`` must fit the dense budget.
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

    resource = maximally_entangled("L", "R", r_count)

    rs = np.arange(r_count)

    def alice(x):
        # Kraus (r, key), r slowest: pad / 2 from Q to Qs, |message_a><r| from L to MAc
        msg = [[ma_index[key_cds.message_a(x, key, r)] for key in range(4)] for r in range(r_count)]
        kraus = np.zeros((r_count, 4, dim_a, 2, 2, r_count), dtype=complex)
        kraus[rs[:, None], np.arange(4), msg, :, :, rs[:, None]] = PAD_OPERATORS / 2.0
        return QuantumChannel(
            kraus.reshape(4 * r_count, 2 * dim_a, 2 * r_count),
            (("Q", 2), ("L", r_count)),
            (("MAc", dim_a), ("Qs", 2)),
            validate=False,
        )

    def bob(y):
        # Kraus r: |message_b><r| from R to MBc
        kraus = np.zeros((r_count, dim_b, r_count), dtype=complex)
        kraus[rs, [mb_index[key_cds.message_b(y, r)] for r in range(r_count)], rs] = 1.0
        return QuantumChannel(kraus, (("R", r_count),), (("MBc", dim_b),), validate=False)

    def decoder(x, y):
        # Kraus (m_a, m_b), m_a slowest: <m_a| (x) unpad (x) <m_b|, the identity
        # unpad when nothing is disclosed
        keys = [key_cds.decoder(ma, x, mb, y) for ma in ma_space for mb in mb_space]
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
    kept in exact transcript form instead of dense channels: one class per
    input, the :func:`pad_counts` of ``key_cds`` at that input.

    Agreement of its fidelity and distances with the dense lift on every
    input is a cross-check, and the rational form stays usable when the
    dense one would not fit.
    """
    return TranscriptCdqsProtocol(
        n=key_cds.n,
        cost=_pad_lift_cost(key_cds),
        classes=lambda x, y: ((Fraction(1), pad_counts(key_cds, x, y)),),
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
        message_a=lambda x, s, r: psm.message_a((x << 1) | s, r),
        message_b=lambda y, r: psm.message_b(y, r),
        decoder=lambda ma, x, mb, y: psm.referee(ma, mb),
        message_bits_a=psm.message_bits_a,
        message_bits_b=psm.message_bits_b,
        construction=f"psm_to_cds({f.name})",
        params=(("inner_psm", psm.construction),),
    )


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

def protocol_cost(p) -> CostReport:
    """Exact resource counts; message sizes are input-independent.  A
    protocol's own ``cost`` report comes first; a dense CDQS without one is
    charged its message qubits and resource EPR pairs."""
    if isinstance(p, (CdsProtocol, PsmProtocol)):
        return CostReport(
            comm_bits=p.message_bits_a + p.message_bits_b,
            comm_qubits=0,
            shared_random_bits=p.randomness_bits,
            shared_epr_pairs=0,
        )
    cost = getattr(p, "cost", None)
    if isinstance(cost, CostReport):
        return cost
    if isinstance(p, CdqsProtocol):
        da, db = p.message_dims()
        qubits = _exact_log2(da, "Alice message") + _exact_log2(db, "Bob message")
        pairs = _exact_log2(layout_dim(p.resource.layout[:1]), "resource")
        return CostReport(
            comm_bits=0, comm_qubits=qubits, shared_random_bits=0, shared_epr_pairs=pairs
        )
    raise TypeError(f"not a protocol object: {type(p).__name__}")
