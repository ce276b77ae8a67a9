"""Forrelation instances, the log-width decision circuit, and its Clifford+T form.

The forrelation of a +/-1 string ``z`` of even power-of-two length ``n`` is

    forr(z) = (1/n) * z1^T W z2

where ``z1``, ``z2`` are the two halves of ``z`` and ``W`` is the orthonormal
Walsh-Hadamard transform on ``n/2`` dimensions.  The promise problem gives
Alice ``x`` and Bob ``y`` and asks for the sign of the gap: output -1 when
``forr(x*y) >= ALPHA`` and +1 when ``forr(x*y) <= BETA`` (pointwise product).

The decision circuit acts on ``2*log2(n)`` wires: an index register that is
Hadamard-prepared, copied into a second register by a CNOT rake, phase-tagged
by the two local oracles, uncopied, and then interfered through a cascade of
controlled-Hadamard gates.  The probability of measuring 0 on the control
wire is exactly ``1/2 + forr(x*y)``, which a constant number of repetitions
converts into a majority-vote decision.  Each controlled-Hadamard expands
into a seven-gate Clifford+T block with no T gate on the control wire, so the
compiled circuit has T-depth 2 at every size.

Every unitary gate kind is one entry of a table that holds its matrix on the
wires a gate lists, control first; a kind's wire count is read off the
matrix.  One gate loop serves both the statevector simulation, which refuses
any circuit that does not end with its single measurement, and the dense
unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

ALPHA = 0.3
BETA = 0.05
#: Majority threshold: decide "high" when at least ceil(TAU * reps) of the
#: repetitions measured 0.  Midpoint of the two sides' acceptance bands
#: (>= 0.8 on the high side, <= 0.55 on the low side).
TAU = 0.675

_RESAMPLE_BUDGET = 1000


def _as_sign_vector(z: Sequence[float], what: str = "vector") -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if not np.all(np.abs(arr) == 1.0):
        raise ValueError(f"{what} entries must be +1 or -1")
    return arr


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard butterfly (in natural/Hadamard order).

    The result keeps the input's dtype, so integer signs transform exactly.
    """
    out = np.array(v)
    h = 1
    while h < out.size:
        for start in range(0, out.size, 2 * h):
            a = out[start : start + h].copy()
            b = out[start + h : start + 2 * h].copy()
            out[start : start + h] = a + b
            out[start + h : start + 2 * h] = a - b
        h *= 2
    return out


def forr_value(z: Sequence[float]) -> float:
    """Forrelation of a +/-1 vector whose length is a power of two >= 2.

    Computed as ``(1/n) * z1^T W z2`` with ``W`` the orthonormal
    Walsh-Hadamard transform on ``n/2`` dimensions.  The butterfly runs on
    exact small integers, so the result is accurate to rounding in the final
    normalisation.
    """
    arr = _as_sign_vector(z, "z")
    n = arr.size
    if n < 2 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two >= 2")
    half = n // 2
    return float(arr[:half] @ _walsh_hadamard(arr[half:])) / (n * math.sqrt(half))


@dataclass(frozen=True)
class ForrelationInstance:
    """A promise instance: local strings plus which side of the gap it sits on.

    ``side`` is ``"high"`` (``forr(x*y) >= ALPHA``, answer -1) or ``"low"``
    (``forr(x*y) <= BETA``, answer +1).
    """

    x: Tuple[int, ...]
    y: Tuple[int, ...]
    side: str

    def __post_init__(self):
        x = _as_sign_vector(self.x, "x")
        y = _as_sign_vector(self.y, "y")
        if x.size != y.size:
            raise ValueError("x and y lengths differ")
        n = x.size
        if n < 4 or n & (n - 1):
            raise ValueError(f"instance length {n} is not a power of two >= 4")
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))
        value = self.forr
        if self.side == "high":
            if value < ALPHA:
                raise ValueError(f"forr={value:.6f} below high threshold {ALPHA}")
        elif self.side == "low":
            if value > BETA:
                raise ValueError(f"forr={value:.6f} above low threshold {BETA}")
        else:
            raise ValueError(f"side must be 'high' or 'low', got {self.side!r}")

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def forr(self) -> float:
        return forr_value([a * b for a, b in zip(self.x, self.y)])

    @property
    def answer(self) -> int:
        return -1 if self.side == "high" else +1


def _random_signs(rng: np.random.Generator, size: int) -> np.ndarray:
    return 2.0 * rng.integers(0, 2, size=size) - 1.0


def forrelation_instance(n: int, side: str, seed) -> ForrelationInstance:
    """Sample a promise instance of length ``n`` on the requested side.

    High side: draw a random first half ``z1`` and align the second half
    with ``sign(W z1)``, which maximises ``forr`` for that first half;
    resample ``z1`` until the value clears ``ALPHA``.  Low side: draw ``z``
    uniformly until ``forr(z) <= BETA``.  Either loop raises after 1000
    failed draws.  The product string is then split randomly into ``x`` and
    ``y = z * x``, so the promise value is carried by ``x*y`` alone.

    ``seed`` may be anything accepted by ``numpy.random.default_rng``,
    including a ``SeedSequence`` spawned from a root seed.
    """
    if n < 4 or n > 64 or n & (n - 1):
        raise ValueError(f"n must be a power of two in [4, 64], got {n}")
    if side not in ("high", "low"):
        raise ValueError(f"side must be 'high' or 'low', got {side!r}")
    rng = np.random.default_rng(seed)
    half = n // 2
    z = None
    for _ in range(_RESAMPLE_BUDGET):
        if side == "high":
            z1 = _random_signs(rng, half)
            z2 = np.where(_walsh_hadamard(z1) >= 0, 1.0, -1.0)
            candidate = np.concatenate([z1, z2])
            if forr_value(candidate) >= ALPHA:
                z = candidate
                break
        else:
            candidate = _random_signs(rng, n)
            if forr_value(candidate) <= BETA:
                z = candidate
                break
    if z is None:
        raise RuntimeError(f"no {side}-side instance found in {_RESAMPLE_BUDGET} draws")
    x = _random_signs(rng, n)
    y = z * x
    return ForrelationInstance(tuple(int(v) for v in x), tuple(int(v) for v in y), side)


def instance_suite(
    seed, ns: Sequence[int] = (4, 8, 16, 32), per_side: int = 25
) -> List[ForrelationInstance]:
    """The seeded calibration/evaluation suite: ``per_side`` instances of each
    side at each size, with per-instance seeds split off the root seed via
    ``SeedSequence.spawn``."""
    root = np.random.SeedSequence(seed)
    children = iter(root.spawn(2 * per_side * len(ns)))
    out = []
    for n in ns:
        for side in ("high", "low"):
            for _ in range(per_side):
                out.append(forrelation_instance(n, side, next(children)))
    return out


# --------------------------------------------------------------------------
# circuits


_ORACLES = frozenset({"ORACLE_A", "ORACLE_B"})

_SQ = 1.0 / math.sqrt(2.0)
#: every unitary gate kind: its matrix on the wires the gate lists, control
#: first; a kind acts on log2(dimension) wires
_UNITARIES = {
    "H": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "T": np.diag([1.0, np.exp(1j * math.pi / 4)]),
    "TDG": np.diag([1.0, np.exp(-1j * math.pi / 4)]),
    "P": np.diag([1.0, 1j]),
    "PDG": np.diag([1.0, -1j]),
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "CH": np.eye(4, dtype=complex),
}
_UNITARIES["CH"][2:, 2:] = _UNITARIES["H"]


@dataclass(frozen=True)
class Gate:
    """One circuit element: a kind tag plus the wires it touches.

    ``ORACLE_A``/``ORACLE_B`` are diagonal +/-1 phase oracles over a whole
    register (wires in increasing order, first wire = most significant index
    bit); their data is bound at simulation time, not stored in the gate.
    """

    kind: str
    wires: Tuple[int, ...]

    def __post_init__(self):
        if self.kind in _UNITARIES:
            expected = len(_UNITARIES[self.kind]).bit_length() - 1
        elif self.kind == "MEASURE":
            expected = 1
        elif self.kind in _ORACLES:
            expected = None
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        wires = tuple(int(w) for w in self.wires)
        if expected is not None and len(wires) != expected:
            raise ValueError(f"{self.kind} takes {expected} wire(s), got {wires}")
        if len(set(wires)) != len(wires):
            raise ValueError(f"repeated wire in {self.kind} {wires}")
        if self.kind in _ORACLES and list(wires) != sorted(wires):
            raise ValueError("oracle wires must be listed in increasing order")
        object.__setattr__(self, "wires", wires)


@dataclass(frozen=True)
class Circuit:
    wire_count: int
    gates: Tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        measured = set()
        for g in self.gates:
            for w in g.wires:
                if not 0 <= w < self.wire_count:
                    raise ValueError(f"wire {w} out of range for {self.wire_count} wires")
                if w in measured:
                    raise ValueError(f"gate {g.kind} touches wire {w} after measurement")
            if g.kind == "MEASURE":
                measured.add(g.wires[0])


def forrelation_circuit(n: int) -> Circuit:
    """The forrelation decision circuit on ``2*log2(n)`` wires.

    Layout: Hadamards on the index register (wires ``0..m-1``), a CNOT rake
    copying it into the second register (wires ``m..2m-1``), the two phase
    oracles, the rake again to uncopy, then X on wire 0, controlled-H from
    wire 0 onto each remaining index wire, H on wire 0, and a terminal
    measurement of wire 0.  Measuring 0 has probability ``1/2 + forr(x*y)``
    once the oracles are bound to ``x`` and ``y``.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    m = n.bit_length() - 1
    gates: List[Gate] = [Gate("H", (k,)) for k in range(m)]
    rake = [Gate("CNOT", (k, m + k)) for k in range(m)]
    gates += rake
    gates.append(Gate("ORACLE_A", tuple(range(m))))
    gates.append(Gate("ORACLE_B", tuple(range(m, 2 * m))))
    gates += rake
    gates.append(Gate("X", (0,)))
    gates += [Gate("CH", (0, t)) for t in range(1, m)]
    gates.append(Gate("H", (0,)))
    gates.append(Gate("MEASURE", (0,)))
    return Circuit(2 * m, tuple(gates))


def _apply_gate(state: np.ndarray, g: Gate, wires: int, x, y) -> np.ndarray:
    """Apply one gate to a tensor whose first ``wires`` axes are the wires.

    Oracle data is a +/-1 vector, or a ``(B, n)`` stack of them whose
    instances run along the tensor's last axis.
    """
    if g.kind in _ORACLES:
        data = np.asarray(x if g.kind == "ORACLE_A" else y, dtype=float)
        if data.ndim not in (1, 2) or not np.all(np.abs(data) == 1.0):
            raise ValueError(f"{g.kind} data must be +/-1 vectors, one per row")
        batch = data.shape[:-1]
        phases = data.T.reshape((2,) * len(g.wires) + batch)
        shape = [2 if w in g.wires else 1 for w in range(wires)]
        shape += [1] * (state.ndim - wires - len(batch)) + list(batch)
        return state * phases.reshape(shape)
    k = len(g.wires)
    mat = _UNITARIES[g.kind].reshape((2,) * 2 * k)
    moved = np.tensordot(mat, state, axes=(list(range(k, 2 * k)), list(g.wires)))
    return np.moveaxis(moved, tuple(range(k)), g.wires)


def _evolve(c: Circuit, state: np.ndarray, x, y) -> np.ndarray:
    """Apply every gate of ``c`` except its measurements, in order."""
    for g in c.gates:
        if g.kind != "MEASURE":
            state = _apply_gate(state, g, c.wire_count, x, y)
    return state


def acceptance_probability(c: Circuit, x, y):
    """Exact probability of measuring 0, by statevector simulation.

    The circuit must end with its single measurement, or it is refused
    before any gate runs; oracle gates bind to ``x`` and ``y``.  Given one
    instance (``x``, ``y`` of shape ``(n,)``) it returns a float; given a
    stack of ``B`` instances (shape ``(B, n)``) it simulates them together,
    instances along the state tensor's last axis, and returns their ``B``
    probabilities.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ValueError(f"x and y must share a shape (n,) or (B, n), got {x.shape} and {y.shape}")
    if [g.kind for g in c.gates].count("MEASURE") != 1 or c.gates[-1].kind != "MEASURE":
        raise ValueError("the circuit must end with its single measurement")
    xs, ys = np.atleast_2d(x), np.atleast_2d(y)
    state = np.zeros((2,) * c.wire_count + (len(xs),), dtype=complex)
    state[(0,) * c.wire_count] = 1.0
    state = _evolve(c, state, xs, ys)
    zero = np.moveaxis(np.take(state, 0, axis=c.gates[-1].wires[0]), -1, 0)
    p0 = np.sum(np.abs(zero.reshape(len(xs), -1)) ** 2, axis=1)
    return float(p0[0]) if x.ndim == 1 else p0


def circuit_unitary(c: Circuit, x=None, y=None) -> np.ndarray:
    """Dense matrix of the unitary part of the circuit (measurements skipped).

    Intended for small widths; the matrix has ``4**wire_count`` entries.
    """
    dim = 1 << c.wire_count
    u = np.eye(dim, dtype=complex).reshape((2,) * c.wire_count + (dim,))
    return _evolve(c, u, x, y).reshape(dim, dim)


_CH_BLOCK = ("P", "H", "T", "CNOT", "TDG", "H", "PDG")


def compile_clifford_t(c: Circuit) -> Circuit:
    """Rewrite every controlled-H as its seven-gate Clifford+T block.

    The block [P, H, T, CNOT, TDG, H, PDG] acts on the target wire except for
    the CNOT, which keeps the control wire free of T gates; the rewrite is
    exact (not merely up to phase).  All other gates pass through unchanged.
    """
    gates: List[Gate] = []
    for g in c.gates:
        if g.kind == "CH":
            ctrl, tgt = g.wires
            for kind in _CH_BLOCK:
                gates.append(Gate(kind, (ctrl, tgt) if kind == "CNOT" else (tgt,)))
        else:
            gates.append(g)
    return Circuit(c.wire_count, tuple(gates))


def t_depth(c: Circuit) -> int:
    """Number of T-layers under greedy as-soon-as-possible scheduling.

    Gates commute past each other only when wire-disjoint.  T and TDG add a
    layer on their wire; every element on more than one wire (CNOT, an
    oracle) synchronises the layer counters of its wires; every other
    element is transparent.  Oracles and measurements are input loading and
    readout, not gates of the computational gate set, so they contribute no
    layer.  Controlled-H is not Clifford+T and is refused: compile first.
    """
    depth = [0] * c.wire_count
    for g in c.gates:
        if g.kind == "CH":
            raise ValueError(f"gate kind {g.kind!r} is not Clifford+T")
        if g.kind in ("T", "TDG"):
            depth[g.wires[0]] += 1
        elif len(g.wires) > 1:
            level = max(depth[w] for w in g.wires)
            for w in g.wires:
                depth[w] = level
    return max(depth) if depth else 0


def _check_vote(p0: float, reps: int) -> float:
    if reps < 1:
        raise ValueError("reps must be >= 1")
    p0 = float(p0)
    if not -1e-9 <= p0 <= 1.0 + 1e-9:
        raise ValueError(f"acceptance probability {p0} outside [0, 1]")
    return p0


def forrelation_decision(p0: float, reps: int, seed=None) -> int:
    """Majority-vote decision: -1 for the high side, +1 for the low side.

    Draws ``reps`` independent measurements of a decision circuit whose
    exact acceptance probability is ``p0`` (see
    :func:`acceptance_probability`) and outputs -1 exactly when at least
    ``ceil(TAU * reps)`` of them measured 0.
    """
    p0 = _check_vote(p0, reps)
    rng = np.random.default_rng(seed)
    zeros = int(np.count_nonzero(rng.random(reps) < p0))
    return -1 if zeros >= math.ceil(TAU * reps) else +1


def _binomial_tail(reps: int, p: float, threshold: int) -> float:
    """P[Binomial(reps, p) >= threshold]."""
    return float(
        sum(math.comb(reps, k) * p**k * (1 - p) ** (reps - k) for k in range(threshold, reps + 1))
    )


def vote_error_bound(p0: float, side: str, reps: int) -> float:
    """Exact probability that the majority vote errs on a ``side`` instance.

    Computed from the instance's true acceptance probability ``p0`` and the
    binomial vote distribution, so it needs no sampling.
    """
    p0 = _check_vote(p0, reps)
    if side not in ("high", "low"):
        raise ValueError(f"side must be 'high' or 'low', got {side!r}")
    tail = _binomial_tail(reps, p0, math.ceil(TAU * reps))
    return 1.0 - tail if side == "high" else tail
