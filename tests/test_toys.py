"""The hand-rolled CDQS test subjects: known-good, known-bad, and dial-a-leak."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdslab.framework import (
    CdqsProtocol,
    mid_protocol_state,
    protocol_cost,
)
from cdslab.qcore import PAULI, QuantumChannel, partial_trace, trace_norm
from cdslab.toys import (
    depolarized,
    gated_forwarding,
    leaky,
    lifted_and,
    lifted_neq,
    toy_suite,
    trivial_forwarding,
    unencrypted,
)


def _product_gap(p, x, y):
    """|| mid - pi (x) mid_M ||_1 computed densely."""
    mid = mid_protocol_state(p, x, y)
    names = [name for name, _ in mid.layout]
    msg_names = [nm for nm in names if nm != "Qbar"]
    mid = mid.permuted(["Qbar"] + msg_names)
    rho_m = partial_trace(mid, keep=msg_names)
    product = np.kron(np.eye(2) / 2.0, np.asarray(rho_m.entries))
    return trace_norm(np.asarray(mid.entries) - product)


def test_trivial_forwarding_is_correct_everywhere():
    p = trivial_forwarding()
    assert abs(p.entanglement_fidelity(0, 0) - 1.0) < 1e-12

def test_trivial_forwarding_hides_nothing():
    # the message *is* the secret: maximal distance from any product state
    assert _product_gap(trivial_forwarding(), 0, 0) > 1.0

def test_unencrypted_distance_frozen():
    # forwarding the raw half of an EPR pair: the difference from the product
    # state is Phi+ - I/4, spectrum {3/4, -1/4, -1/4, -1/4}, trace norm 3/2
    assert abs(_product_gap(unencrypted(), 0, 0) - 1.5) < 1e-12

def test_gated_forwarding_correct_when_open():
    assert abs(gated_forwarding().entanglement_fidelity(1, 1) - 1.0) < 1e-12

def test_gated_forwarding_private_when_closed():
    assert _product_gap(gated_forwarding(), 0, 0) < 1e-12

def test_lifted_toys_are_perfect():
    neq = lifted_neq()
    assert abs(neq.entanglement_fidelity(0, 1) - 1.0) < 1e-11
    assert abs(neq.entanglement_fidelity(1, 0) - 1.0) < 1e-11

def test_lifted_neq_private_on_equal_inputs():
    p = lifted_neq()
    assert _product_gap(p, 0, 0) < 1e-11
    assert _product_gap(p, 1, 1) < 1e-11

def test_lifted_and_private_unless_both_ones():
    p = lifted_and()
    for x, y in ((0, 0), (0, 1), (1, 0)):
        assert _product_gap(p, x, y) < 1e-11
    assert abs(p.entanglement_fidelity(1, 1) - 1.0) < 1e-11

def test_depolarized_interpolates_fidelity():
    base = gated_forwarding()
    mild = depolarized(base, 0.1)
    harsh = depolarized(base, 0.9)
    f_mild = mild.entanglement_fidelity(1, 1)
    f_harsh = harsh.entanglement_fidelity(1, 1)
    assert f_mild > f_harsh
    # depolarizing with strength p leaves fidelity 1 - 3p/4 on a Bell pair
    assert abs(f_mild - (1 - 0.075)) < 1e-10

def test_leaky_dial():
    assert _product_gap(leaky(0.0), 0, 0) < 1e-11
    assert _product_gap(leaky(1.0), 0, 0) > 1.0
    mid_gap = _product_gap(leaky(0.5), 0, 0)
    assert 0.1 < mid_gap < 1.0

def test_toy_suite_contents():
    suite = toy_suite()
    assert len(suite) == 4
    for protocol, function in suite:
        assert protocol.n == function.n
        assert protocol_cost(protocol).comm_qubits >= 1

def test_leaky_rejects_bad_strength():
    with pytest.raises(ValueError):
        leaky(1.5)

@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dl=st.integers(1, 3),
    dout=st.integers(1, 4),
    count=st.integers(1, 4),
    strength=st.floats(0, 1),
)
def test_depolarized_matches_the_per_operator_kron_loop(seed, dl, dout, count, strength):
    assume(dout * count >= 2 * dl)
    rng = np.random.default_rng(seed)
    shape = (dout * count, 2 * dl)
    iso, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    alice = QuantumChannel(
        iso.reshape(count, dout, 2 * dl), (("Q", 2), ("L", dl)), (("MA", dout),)
    )
    base = CdqsProtocol(n=1, d_q=2, alice_channel=lambda x: alice, decoder=lambda x, y: None)
    w = [np.sqrt(1 - 3 * strength / 4)] + [np.sqrt(strength / 4)] * 3
    noise = [wi * PAULI[p] for wi, p in zip(w, "IXYZ")]
    want = [k @ np.kron(d, np.eye(dl)) for k in alice.kraus_operators for d in noise]
    got = depolarized(base, strength).alice_channel(0).kraus_stack
    assert got.shape == (4 * count, dout, 2 * dl)
    assert np.max(np.abs(got - np.stack(want))) <= 1e-12
