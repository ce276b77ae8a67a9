"""Small dense CDQS fixtures with known exact behaviour.

These are deliberately tiny protocols used to exercise the verifier and
the lower-bound constructions at dimensions where everything can be
checked against closed forms: forwarding protocols (perfect, gated on the
input, or shipped with the wrong target function), pad-lifted classical
CDS protocols, and noisy variants of each.
"""

from __future__ import annotations

import numpy as np

from .classical import and_cds, and_function, constant_function, double_secret, neq_cds, neq_function
from .framework import CdqsProtocol, PromiseFunction, classical_to_quantum_lift
from .qcore import PAULI, QuantumChannel

# Alice's channel on the secret and the one-dimensional resource half
_SEND = (("Q", 2), ("L", 1)), (("MA", 2),)


def _forward_channel() -> QuantumChannel:
    return QuantumChannel([PAULI["I"]], *_SEND, validate=False)


def _erase_channel() -> QuantumChannel:
    down = np.array([[1, 0], [0, 0]], dtype=complex)
    flip = np.array([[0, 1], [0, 0]], dtype=complex)
    return QuantumChannel([down, flip], *_SEND, validate=False)


def _partial_depolarize_channel(strength: float) -> QuantumChannel:
    w = [np.sqrt(1 - 3 * strength / 4) * PAULI["I"]] + [
        np.sqrt(strength / 4) * PAULI[p] for p in "XYZ"
    ]
    return QuantumChannel(w, *_SEND, validate=False)


def _identity_decoder() -> QuantumChannel:
    return QuantumChannel([PAULI["I"]], (("MA", 2), ("MB", 1)), (("Q", 2),), validate=False)


def trivial_forwarding() -> CdqsProtocol:
    """Alice forwards the secret qubit untouched; decoding is the identity."""
    return CdqsProtocol(
        n=1,
        d_q=2,
        alice_channel=lambda x: _forward_channel(),
        decoder=lambda x, y: _identity_decoder(),
        construction="trivial_forwarding",
    )


def always_one_function() -> PromiseFunction:
    return constant_function(1, 1)


def unencrypted() -> CdqsProtocol:
    """The forwarding protocol again, to be judged against f = 0.

    Pairing a cleartext qubit with an all-zero target function makes the
    security defect exactly computable: the best product approximation to
    the maximally entangled mid-state sits at trace distance 3/2.
    """
    return CdqsProtocol(
        n=1,
        d_q=2,
        alice_channel=lambda x: _forward_channel(),
        decoder=lambda x, y: None,
        construction="unencrypted",
    )


def always_zero_function() -> PromiseFunction:
    return constant_function(1, 0)


def gated_forwarding() -> CdqsProtocol:
    """Forward the secret when x=1, send a fresh |0> when x=0.

    Judged on the diagonal promise {(0,0) -> 0, (1,1) -> 1}; both branches
    are exactly perfect, which makes this the cheapest protocol to push
    through the parallel-repetition and two-prover machinery.
    """

    def alice(x):
        return _forward_channel() if x else _erase_channel()

    return CdqsProtocol(
        n=1,
        d_q=2,
        alice_channel=alice,
        decoder=lambda x, y: _identity_decoder() if (x, y) == (1, 1) else None,
        construction="gated_forwarding",
    )


def gated_function() -> PromiseFunction:
    return PromiseFunction(
        1, lambda x, y: x if x == y else None, "diagonal_gate"
    )


def lifted_neq() -> CdqsProtocol:
    """Pad-lifted doubled NEQ CDS on one-bit inputs (perfect CDQS)."""
    return classical_to_quantum_lift(double_secret(neq_cds(1)))


def lifted_neq_function() -> PromiseFunction:
    return neq_function(1)


def lifted_and() -> CdqsProtocol:
    """Pad-lifted doubled AND CDS (perfect CDQS)."""
    return classical_to_quantum_lift(double_secret(and_cds()))


def lifted_and_function() -> PromiseFunction:
    return and_function()


def depolarized(base: CdqsProtocol, strength: float) -> CdqsProtocol:
    """Same protocol, secret routed through a depolarizing channel first.

    Correctness degrades continuously with ``strength`` while security can
    only improve, giving non-trivial but exactly computable epsilon-hat.
    """
    if not 0 <= strength <= 1:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    noise = _partial_depolarize_channel(strength).kraus_stack

    def alice(x):
        ch = base.alice_channel(x)
        # Kraus (k, p), k slowest: K_k (N_p (x) I), the noise on the leading Q
        count, dout, din = ch.kraus_stack.shape
        kraus = np.einsum(
            "koqt,pqa->kpoat", ch.kraus_stack.reshape(count, dout, 2, din // 2), noise
        )
        return QuantumChannel(
            kraus.reshape(-1, dout, din), ch.input_layout, ch.output_layout, validate=False
        )

    return CdqsProtocol(
        n=base.n,
        d_q=base.d_q,
        alice_channel=alice,
        bob_channel=base.bob_channel,
        decoder=base.decoder,
        resource=base.resource,
        cost=base.cost,
        construction=f"depolarized({base.construction}, {strength})",
        params=base.params + (("depolarizing_strength", strength),),
    )


def leaky(strength: float) -> CdqsProtocol:
    """Gated forwarding whose x=0 branch leaks a damped copy of the secret.

    Instead of a fresh |0>, Alice sends the secret through depolarizing
    noise of weight ``1 - strength``; at strength 0 this is perfectly
    secure, at strength 1 it is the unencrypted protocol.
    """
    if not 0 <= strength <= 1:
        raise ValueError("leak strength must lie in [0, 1]")

    def alice(x):
        if x:
            return _forward_channel()
        return _partial_depolarize_channel(1 - strength)

    return CdqsProtocol(
        n=1,
        d_q=2,
        alice_channel=alice,
        decoder=lambda x, y: _identity_decoder() if (x, y) == (1, 1) else None,
        construction=f"leaky({strength})",
        params=(("leak_strength", strength),),
    )


def toy_suite() -> list[tuple[CdqsProtocol, PromiseFunction]]:
    """Every shipped dense toy with the function it is judged against."""
    return [
        (trivial_forwarding(), always_one_function()),
        (gated_forwarding(), gated_function()),
        (lifted_neq(), lifted_neq_function()),
        (lifted_and(), lifted_and_function()),
    ]
