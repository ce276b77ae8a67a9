"""Protocol containers, exact message enumeration, execution of quantum
protocols, lifting, parallel repetition, and cost accounting."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab.classical import and_cds, and_function, double_secret, ip_psm, neq_cds, table_psm
from cdslab.framework import (
    ENUMERATION_BUDGET_BITS,
    ArrayForm,
    CdsProtocol,
    CdqsProtocol,
    CostReport,
    PromiseFunction,
    PsmProtocol,
    bob_side_state,
    cds_decode_failure,
    classical_to_quantum_lift,
    enumerate_message_distribution,
    joint_channel,
    mid_protocol_state,
    pad_counts,
    parallel_repeat,
    protocol_cost,
    psm_decode_failure,
    psm_to_cds,
    run_cdqs,
    transcript_counts,
    transcript_form,
    transcript_tally,
)
from cdslab.lowerbound import quantized_product_gap
from cdslab.qcore import (
    PAULI,
    DensityMatrix,
    QuantumChannel,
    StateVector,
    apply_channel,
    canonical_kraus,
    maximally_entangled,
    partial_trace,
    tensor,
    trace_norm,
)
from cdslab.quantum import neq_promise_cdqs
from cdslab.toys import (
    depolarized,
    gated_forwarding,
    leaky,
    lifted_and,
    lifted_neq,
    trivial_forwarding,
)


# ---------------------------------------------------------------------------
# PromiseFunction
# ---------------------------------------------------------------------------

def test_promise_function_value_and_pairs():
    f = PromiseFunction(1, lambda x, y: 1 if x != y else None, "strict_neq")
    assert f.value(0, 1) == 1
    assert f.value(0, 0) is None
    assert list(f.promise_pairs()) == [(0, 1), (1, 0)]

def test_promise_function_range_check():
    f = PromiseFunction(1, lambda x, y: 0, "zero")
    with pytest.raises(ValueError):
        f.value(2, 0)


# ---------------------------------------------------------------------------
# CostReport
# ---------------------------------------------------------------------------

def test_cost_report_totals_and_scaling():
    c = CostReport(comm_bits=5, comm_qubits=1, shared_random_bits=8, shared_epr_pairs=2)
    doubled = c.scaled(2)
    assert doubled.comm_bits == 10 and doubled.shared_epr_pairs == 4
    assert c.as_dict()["comm_qubits"] == 1

def test_cost_report_rejects_negative():
    with pytest.raises(ValueError):
        CostReport(comm_bits=-1, comm_qubits=0, shared_random_bits=0, shared_epr_pairs=0)


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

def test_enumeration_budget_guard():
    big = CdsProtocol(
        n=1, randomness_bits=25, secret_alphabet=2,
        message_a=lambda x, s, r: 0, message_b=lambda y, r: 0,
        decoder=lambda ma, x, mb, y: 0,
        message_bits_a=1, message_bits_b=1,
    )
    with pytest.raises(ValueError, match="budget"):
        enumerate_message_distribution(big, 0, 0, 0)
    with pytest.raises(ValueError, match="budget"):
        cds_decode_failure(big, 0, 0, 0)
    big_psm = PsmProtocol(
        n=1, randomness_bits=25, value_alphabet=2,
        message_a=lambda x, r: 0, message_b=lambda y, r: 0,
        referee=lambda ma, mb: 0,
        message_bits_a=1, message_bits_b=1,
    )
    with pytest.raises(ValueError, match="budget"):
        enumerate_message_distribution(big_psm, 0, 0)
    with pytest.raises(ValueError, match="budget"):
        psm_decode_failure(big_psm, 0, 0, 0)

def test_decode_failure_counts_mass():
    # decoder that answers 1 - s half the time: failure exactly 1/2
    flaky = CdsProtocol(
        n=1, randomness_bits=1, secret_alphabet=2,
        message_a=lambda x, s, r: (s ^ r, r), message_b=lambda y, r: 0,
        decoder=lambda ma, x, mb, y: ma[0] ^ ma[1] ^ (ma[1] & 1 & x),
        message_bits_a=2, message_bits_b=1,
    )
    assert cds_decode_failure(flaky, 0, 0, 1) == 0
    assert cds_decode_failure(flaky, 1, 0, 1) == Fraction(1, 2)


@st.composite
def _table_protocol(draw):
    """A small CDS or PSM protocol whose messages and decoder are lookup
    tables; a 3-letter message alphabet makes transcripts collide."""
    n = draw(st.integers(1, 2))
    rb = draw(st.integers(0, 3))
    size, r_count = 1 << n, 1 << rb
    letters = st.integers(0, 2)
    table_b = draw(st.lists(letters, min_size=size * r_count, max_size=size * r_count))
    outputs = draw(st.lists(st.sampled_from([0, 1, None]), min_size=9 * size * size,
                            max_size=9 * size * size))

    def message_b(y, r):
        return table_b[y * r_count + r]

    if draw(st.booleans()):
        table_a = draw(st.lists(letters, min_size=2 * size * r_count, max_size=2 * size * r_count))
        return CdsProtocol(
            n=n, randomness_bits=rb, secret_alphabet=2,
            message_a=lambda x, s, r: table_a[(2 * x + s) * r_count + r],
            message_b=message_b,
            decoder=lambda ma, x, mb, y: outputs[((ma * 3 + mb) * size + x) * size + y],
            message_bits_a=2, message_bits_b=2,
        )
    table_a = draw(st.lists(letters, min_size=size * r_count, max_size=size * r_count))
    return PsmProtocol(
        n=n, randomness_bits=rb, value_alphabet=2,
        message_a=lambda x, r: table_a[x * r_count + r],
        message_b=message_b,
        referee=lambda ma, mb: outputs[ma * 3 + mb] or 0,
        message_bits_a=2, message_bits_b=2,
    )

@settings(max_examples=60, deadline=None)
@given(p=_table_protocol())
def test_counting_path_matches_a_per_r_reference(p):
    r_count = 1 << p.randomness_bits
    secrets = (0, 1) if isinstance(p, CdsProtocol) else (None,)
    for x in range(1 << p.n):
        for y in range(1 << p.n):
            for s in secrets:
                counts, dist, bad, per_r = {}, {}, Fraction(0), []
                for r in range(r_count):
                    if s is None:
                        ma, mb = p.message_a(x, r), p.message_b(y, r)
                        wrong = p.referee(ma, mb) != 1
                    else:
                        ma, mb = p.message_a(x, s, r), p.message_b(y, r)
                        wrong = p.decoder(ma, x, mb, y) != s
                    per_r.append((ma, mb))
                    counts[(ma, mb)] = counts.get((ma, mb), 0) + 1
                    dist[(ma, mb)] = dist.get((ma, mb), Fraction(0)) + Fraction(1, r_count)
                    bad += Fraction(int(wrong), r_count)
                got = transcript_counts(p, x, y, s)
                assert got == counts and list(got) == list(counts)
                transcripts, first, per_key = transcript_tally(p, x, y, s)
                assert transcripts.tolist() == sorted(counts)
                assert first.tolist() == [per_r.index(t) for t in sorted(counts)]
                assert per_key.tolist() == [counts[t] for t in sorted(counts)]
                assert enumerate_message_distribution(p, x, y, s) == dist
                if s is None:
                    assert psm_decode_failure(p, x, y, 1) == bad
                else:
                    assert cds_decode_failure(p, x, y, s) == bad

def test_transcript_counts_needs_the_cds_secret(monkeypatch):
    # refused before any draw is allocated or evaluated, on both paths
    def draw(*args, **kwargs):
        raise AssertionError("a draw was evaluated before the secret was checked")

    monkeypatch.setattr(np, "arange", draw)
    for p in (neq_cds(2), dataclasses.replace(neq_cds(2), arrays=None), and_cds()):
        arrays = None if p.arrays is None else ArrayForm(draw, draw, draw)
        p = dataclasses.replace(p, message_a=draw, message_b=draw, decoder=draw, arrays=arrays)
        for enumerate_at in (transcript_tally, transcript_counts, enumerate_message_distribution):
            with pytest.raises(ValueError, match="CDS enumeration requires the secret value"):
                enumerate_at(p, 0, 1)

def test_array_path_checks_the_budget_before_it_allocates(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("the draws were allocated before the budget check")

    big_cds = dataclasses.replace(neq_cds(4), randomness_bits=ENUMERATION_BUDGET_BITS + 1)
    big_psm = dataclasses.replace(ip_psm(4), randomness_bits=ENUMERATION_BUDGET_BITS + 1)
    monkeypatch.setattr(np, "arange", allocate)
    for call in (
        lambda: transcript_counts(big_cds, 0, 1, 0),
        lambda: cds_decode_failure(big_cds, 0, 1, 0),
        lambda: pad_counts(big_cds, 0, 1),
        lambda: transcript_counts(big_psm, 0, 1),
        lambda: psm_decode_failure(big_psm, 0, 1, 0),
    ):
        with pytest.raises(ValueError, match="budget"):
            call()

def test_array_path_refuses_a_transcript_code_wider_than_int64():
    wide_cds = dataclasses.replace(neq_cds(4), message_bits_a=40, message_bits_b=24)
    wide_psm = dataclasses.replace(ip_psm(4), message_bits_a=32, message_bits_b=32)
    with pytest.raises(ValueError, match="64-bit transcript code overflows int64"):
        transcript_counts(wide_cds, 0, 1, 0)
    with pytest.raises(ValueError, match="64-bit transcript code overflows int64"):
        psm_decode_failure(wide_psm, 0, 1, 0)

def test_budget_reaches_transcript_form_and_hybrid(monkeypatch):
    # 52 and 26 randomness bits: refused before any enumeration starts
    def allocate(*args, **kwargs):
        raise AssertionError("the draws were allocated before the budget check")

    monkeypatch.setattr(np, "arange", allocate)
    with pytest.raises(ValueError, match="budget"):
        transcript_form(double_secret(neq_cds(13))).entanglement_fidelity(0, 1)
    with pytest.raises(ValueError, match="budget"):
        neq_promise_cdqs(8192)
    # 24 randomness bits fit, but not the 2 x 2^24 (key, draw) pairs held at once
    with pytest.raises(ValueError, match="budget"):
        neq_promise_cdqs(4096)


# ---------------------------------------------------------------------------
# dense CDQS execution
# ---------------------------------------------------------------------------

def test_run_cdqs_forwards_the_secret():
    p = trivial_forwarding()
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex), [("Q", 2)])
    out = run_cdqs(p, 0, 0, plus)
    decoded = np.asarray(out.entries)
    assert np.allclose(decoded, plus.entries, atol=1e-12)

def test_mid_state_and_entanglement_fidelity():
    p = trivial_forwarding()
    mid = mid_protocol_state(p, 0, 0)
    assert abs(np.trace(np.asarray(mid.entries)) - 1) < 1e-12
    assert abs(p.entanglement_fidelity(0, 0) - 1.0) < 1e-12

def test_gated_forwarding_only_on_allowed_pair():
    p = gated_forwarding()
    assert abs(p.entanglement_fidelity(1, 1) - 1.0) < 1e-12
    # on the erased branch the message is |0><0| whatever the secret was
    mid = mid_protocol_state(p, 0, 0).permuted(["Qbar", "MA", "MB"])
    want = np.kron(np.eye(2) / 2, [[1, 0], [0, 0]])
    assert np.allclose(np.asarray(mid.entries), want, atol=1e-11)

def test_joint_channel_matches_sequential_run():
    p = gated_forwarding()
    ch = joint_channel(p, 1, 1)
    rng = np.random.default_rng(3)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    secret = DensityMatrix(rho, [("Q", 2)])
    via_channel = apply_channel(ch, secret)
    direct = run_cdqs(p, 1, 1, secret)
    assert np.allclose(
        np.asarray(via_channel.entries), np.asarray(direct.entries), atol=1e-10
    )


# ---------------------------------------------------------------------------
# lifting a classical CDS to a quantum one
# ---------------------------------------------------------------------------

def test_lift_requires_four_letter_secret():
    with pytest.raises(ValueError):
        classical_to_quantum_lift(neq_cds(1))

def test_lifted_protocol_is_perfect_on_promise():
    p = lifted_neq()
    assert abs(p.entanglement_fidelity(0, 1) - 1.0) < 1e-11
    assert abs(p.entanglement_fidelity(1, 0) - 1.0) < 1e-11

def test_lifted_protocol_hides_on_equal_inputs():
    p = lifted_neq()
    mid = mid_protocol_state(p, 1, 1)
    # the Qbar marginal of the padded mid-state is maximally mixed
    reduced = partial_trace(mid, keep=["Qbar"])
    assert np.allclose(np.asarray(reduced.entries), np.eye(2) / 2, atol=1e-11)


# ---------------------------------------------------------------------------
# parallel repetition
# ---------------------------------------------------------------------------

def test_parallel_repeat_identity_at_one():
    p = gated_forwarding()
    assert parallel_repeat(p, 1) is p

def test_parallel_repeat_exact_on_gated_toy():
    p = parallel_repeat(gated_forwarding(), 2)
    assert p.d_q == 4
    assert abs(p.entanglement_fidelity(1, 1) - 1.0) < 1e-10
    assert protocol_cost(p).comm_qubits == 2 * protocol_cost(gated_forwarding()).comm_qubits

def test_parallel_repeat_budget_guard():
    with pytest.raises(ValueError, match="dense budget"):
        parallel_repeat(lifted_neq(), 2)

def test_pad_lift_budget_guard():
    # randomness 8 bits: the resource alone would be L(256) (x) R(256)
    with pytest.raises(ValueError, match="DENSE_DIMENSION_BUDGET"):
        classical_to_quantum_lift(double_secret(neq_cds(2)))


# ---------------------------------------------------------------------------
# transcript-form protocols
# ---------------------------------------------------------------------------

def test_pad_counts_account_for_every_draw():
    # per input: 4 keys times 16 randomness values, each in one transcript
    key_cds = double_secret(neq_cds(1))
    for x in range(2):
        for y in range(2):
            table = pad_counts(key_cds, x, y)
            assert table.total == 4 << key_cds.randomness_bits
            assert sum(m * sum(v) for v, m in table.vectors.items()) == table.total
            assert all(len(v) == 4 and min(v) >= 0 for v in table.vectors)
            assert 0 <= table.decoded <= table.total

def test_transcript_methods_delegate():
    p = transcript_form(double_secret(neq_cds(1)))
    assert p.entanglement_fidelity(0, 1) == Fraction(1)
    assert p.product_distance(0, 0) == Fraction(0)
    # nothing is disclosed at x = y: the identity unpad is right for key 0 only
    assert p.entanglement_fidelity(1, 1) == Fraction(1, 4)
    assert p.decoding_distance(1, 1) == Fraction(3, 2)

def _assert_transcript_matches_dense(key_cds, tol):
    exact = transcript_form(key_cds)
    dense = classical_to_quantum_lift(key_cds)
    for x in range(1 << key_cds.n):
        for y in range(1 << key_cds.n):
            for measure in ("entanglement_fidelity", "decoding_distance", "product_distance"):
                want = getattr(dense, measure)(x, y)
                got = getattr(exact, measure)(x, y)
                assert abs(float(got) - want) < tol, (measure, x, y, got, want)

def test_transcript_form_agrees_with_dense_lift():
    # every input, the hiding ones included, and all three measures
    for key_cds in (double_secret(neq_cds(1)), double_secret(and_cds())):
        _assert_transcript_matches_dense(key_cds, 1e-10)

@st.composite
def _table_key_cds(draw):
    """A one-bit-input CDS hiding 2-bit keys whose messages and decoder are
    lookup tables; the decoder may return None (nothing disclosed)."""
    rb = draw(st.integers(0, 2))
    r_count = 1 << rb
    letters = st.integers(0, 2)
    table_a = draw(st.lists(letters, min_size=8 * r_count, max_size=8 * r_count))
    table_b = draw(st.lists(letters, min_size=2 * r_count, max_size=2 * r_count))
    keys = draw(st.lists(st.sampled_from([0, 1, 2, 3, None]), min_size=36, max_size=36))
    return CdsProtocol(
        n=1, randomness_bits=rb, secret_alphabet=4,
        message_a=lambda x, s, r: table_a[(4 * x + s) * r_count + r],
        message_b=lambda y, r: table_b[y * r_count + r],
        decoder=lambda ma, x, mb, y: keys[((ma * 3 + mb) * 2 + x) * 2 + y],
        message_bits_a=2, message_bits_b=2,
    )

@settings(max_examples=40, deadline=None)
@given(key_cds=_table_key_cds())
def test_transcript_form_agrees_with_dense_lift_on_random_key_cds(key_cds):
    _assert_transcript_matches_dense(key_cds, 1e-12)

@pytest.mark.parametrize(
    "key_cds", [double_secret(neq_cds(1)), double_secret(neq_cds(2)), double_secret(and_cds())]
)
def test_merged_transcript_blocks_measure_like_per_r_blocks(key_cds, per_r_pad_measures):
    exact = transcript_form(key_cds)
    for x in range(1 << key_cds.n):
        for y in range(1 << key_cds.n):
            fidelity, distance = per_r_pad_measures(key_cds, x, y)
            assert exact.entanglement_fidelity(x, y) == fidelity
            assert exact.product_distance(x, y) == distance

def test_hybrid_exposes_the_same_exact_interface():
    p = neq_promise_cdqs(2)
    assert p.entanglement_fidelity(0, 1) == Fraction(1)  # distance n/2 = 1
    assert p.product_distance(2, 2) == Fraction(0)


# ---------------------------------------------------------------------------
# PSM -> CDS and cost accounting
# ---------------------------------------------------------------------------

def test_psm_to_cds_on_and():
    p = psm_to_cds(table_psm, and_function())
    f = and_function()
    for x in range(2):
        for y in range(2):
            if f.value(x, y) == 1:
                for s in range(2):
                    assert cds_decode_failure(p, x, y, s) == 0
            else:
                assert enumerate_message_distribution(p, x, y, 0) == \
                    enumerate_message_distribution(p, x, y, 1)

def test_protocol_cost_classical():
    c = protocol_cost(and_cds())
    assert c.comm_bits == 2 and c.comm_qubits == 0 and c.shared_random_bits == 1

def test_default_registers_cost_nothing():
    c = protocol_cost(trivial_forwarding())
    assert c == CostReport(comm_bits=0, comm_qubits=1, shared_random_bits=0, shared_epr_pairs=0)

def test_protocol_cost_dense_quantum():
    c = protocol_cost(lifted_neq())
    assert c.comm_qubits == 1
    assert c.comm_bits == protocol_cost(double_secret(neq_cds(1))).comm_bits



# ---------------------------------------------------------------------------
# default registers of a Bob-less protocol
# ---------------------------------------------------------------------------

def _random_kraus(rng, count: int, dim_in: int = 2, dim_out: int = 2) -> list:
    """Kraus operators of a random channel: blocks of a random isometry."""
    shape = (dim_out * count, dim_in)
    iso, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return [iso[dim_out * i : dim_out * (i + 1)] for i in range(count)]

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4))
def test_bobless_protocol_matches_direct_choi_computation(seed, count):
    kraus = _random_kraus(np.random.default_rng(seed), count)
    p = CdqsProtocol(
        n=1,
        d_q=2,
        alice_channel=lambda x: QuantumChannel(kraus, (("Q", 2), ("L", 1)), (("MA", 2),)),
        decoder=lambda x, y: QuantumChannel(
            [np.eye(2)], (("MA", 2), ("MB", 1)), (("Q", 2),)
        ),
    )
    # the Choi state of the channel on (Qbar, MA), built without the protocol
    phi = maximally_entangled("Qbar", "Q", 2).density_matrix()
    choi = apply_channel(QuantumChannel(kraus, (("Q", 2),), (("MA", 2),)), phi)
    assert choi.layout == (("Qbar", 2), ("MA", 2))
    j = np.asarray(choi.entries)
    decoding = trace_norm(j - np.asarray(phi.entries))
    rho_m = np.asarray(partial_trace(choi, keep=["MA"]).entries)
    product = trace_norm(j - np.kron(np.eye(2) / 2, rho_m))
    assert abs(p.decoding_distance(0, 0) - decoding) <= 1e-12
    assert abs(p.product_distance(0, 0) - product) <= 1e-12


# ---------------------------------------------------------------------------
# run order: Bob's side first
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alice_count=st.integers(2, 4),
    bob_count=st.integers(1, 4),
)
def test_bob_side_first_matches_the_full_register_run(seed, alice_count, bob_count):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    resource = StateVector(amps / np.linalg.norm(amps), (("L", 2), ("R", 2)))
    bob = QuantumChannel(_random_kraus(rng, bob_count), (("R", 2),), (("MB", 2),))
    alice = QuantumChannel(
        _random_kraus(rng, alice_count, dim_in=4), (("Q", 2), ("L", 2)), (("MA", 2),)
    )
    p = CdqsProtocol(
        n=1,
        d_q=2,
        alice_channel=lambda x: alice,
        decoder=lambda x, y: None,
        bob_channel=lambda y: bob,
        resource=resource,
    )
    # reference: every register at once, Alice first, then Bob
    full = tensor(maximally_entangled("Qbar", "Q", 2).density_matrix(), resource.density_matrix())
    reference = apply_channel(bob, apply_channel(alice, full))
    mid = mid_protocol_state(p, 0, 0)
    assert mid.layout == reference.layout == (("Qbar", 2), ("MA", 2), ("MB", 2))
    assert np.max(np.abs(mid.entries - reference.entries)) <= 1e-12

    side = bob_side_state(p, 0)
    side_reference = partial_trace(apply_channel(bob, full), keep=["L", "MB"])
    assert side.layout == side_reference.layout == (("L", 2), ("MB", 2))
    assert np.max(np.abs(side.entries - side_reference.entries)) <= 1e-12

    # Alice's channel contracts the trace norm, and the product gap moves by
    # at most twice the distance of its input
    exact = p.product_distance(0, 0)
    for k in (6, 12, 30):
        gap, record = quantized_product_gap(p, 0, 0, k)
        assert abs(gap - exact) <= 2 * record.l1_error + 1e-12


# ---------------------------------------------------------------------------
# stacked Kraus builders against the per-operator oracles
# ---------------------------------------------------------------------------
# The earlier builders, one operator at a time: the pad lift as lists of
# np.kron products of one-hot vectors, parallel repetition as Kronecker
# lists regrouped by a dense permutation matrix.  The stacked builders must
# equal them exactly, Kraus order included, so every output downstream
# stays bit-for-bit the same.

PADS = (PAULI["I"], PAULI["Z"], PAULI["X"], PAULI["X"] @ PAULI["Z"])

def _lift_reference(key_cds):
    """``(alice(x), bob(y), decoder(x, y))`` Kraus lists of the pad lift of
    ``key_cds``, each operator a Kronecker product of one-hot vectors."""
    r_count = 1 << key_cds.randomness_bits
    inputs = range(1 << key_cds.n)
    ma_space = sorted(
        {key_cds.message_a(x, s, r) for x in inputs for s in range(4) for r in range(r_count)}
    )
    mb_space = sorted({key_cds.message_b(y, r) for y in inputs for r in range(r_count)})
    ma_index = {m: i for i, m in enumerate(ma_space)}
    mb_index = {m: i for i, m in enumerate(mb_space)}
    dim_a, dim_b = len(ma_space), len(mb_space)

    def alice(x):
        kraus = []
        for r in range(r_count):
            sel = np.zeros((1, r_count))
            sel[0, r] = 1.0
            for key in range(4):
                col = np.zeros((dim_a, 1))
                col[ma_index[key_cds.message_a(x, key, r)], 0] = 1.0
                kraus.append(np.kron(np.kron(col, PADS[key]), sel) / 2.0)
        return kraus

    def bob(y):
        kraus = []
        for r in range(r_count):
            sel = np.zeros((1, r_count))
            sel[0, r] = 1.0
            col = np.zeros((dim_b, 1))
            col[mb_index[key_cds.message_b(y, r)], 0] = 1.0
            kraus.append(col @ sel)
        return kraus

    def decoder(x, y):
        kraus = []
        for i, ma in enumerate(ma_space):
            row_a = np.zeros((1, dim_a))
            row_a[0, i] = 1.0
            for j, mb in enumerate(mb_space):
                row_b = np.zeros((1, dim_b))
                row_b[0, j] = 1.0
                key = key_cds.decoder(ma, x, mb, y)
                unpad = PAULI["I"] if key is None else PADS[int(key)].conj().T
                kraus.append(np.kron(np.kron(row_a, unpad), row_b))
        return kraus

    return alice, bob, decoder

def _regroup_matrix(dims, perm):
    """Permutation matrix sending basis order ``dims`` to ``dims[perm]``."""
    d = math.prod(dims)
    src = np.arange(d)
    digits = np.array(np.unravel_index(src, dims))
    dst = np.ravel_multi_index([digits[p] for p in perm], [dims[p] for p in perm])
    mat = np.zeros((d, d))
    mat[dst, src] = 1.0
    return mat

def _interleave(k):
    # (a1..ak, b1..bk) -> (a1, b1, a2, b2, ...)
    return [i + half for i in range(k) for half in (0, k)]

def _kron_power_list(ops, k):
    out = [np.eye(1)]
    for _ in range(k):
        out = [np.kron(a, b) for a in out for b in ops]
    return out

def _kron_repeat_reference(channel, k, in_dims, in_layout, out_layout):
    da, db = in_dims
    p_in = _regroup_matrix([da] * k + [db] * k, _interleave(k))
    kraus = [op @ p_in for op in _kron_power_list(channel.kraus_operators, k)]
    ch = QuantumChannel(kraus, in_layout, out_layout, validate=False)
    if len(kraus) > ch.dim_in * ch.dim_out:
        ch = canonical_kraus(ch)
    return ch

def _repeated_resource_reference(p, k):
    dl = p.resource.layout[0][1]
    dr = p.resource.layout[1][1]
    amps = _kron_power_list([p.resource.amplitudes], k)[0].reshape(-1)
    perm = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    return _regroup_matrix([dl, dr] * k, perm) @ amps

def _assert_lift_matches_reference(key_cds):
    dense = classical_to_quantum_lift(key_cds)
    alice, bob, decoder = _lift_reference(key_cds)
    inputs = range(1 << key_cds.n)
    for x in inputs:
        assert np.array_equal(dense.alice_channel(x).kraus_stack, np.stack(alice(x)))
    for y in inputs:
        assert np.array_equal(dense.bob_channel(y).kraus_stack, np.stack(bob(y)))
    for x in inputs:
        for y in inputs:
            assert np.array_equal(dense.decoder(x, y).kraus_stack, np.stack(decoder(x, y)))

@pytest.mark.parametrize("key_cds", [double_secret(neq_cds(1)), double_secret(and_cds())])
def test_lift_stacks_equal_the_kron_lists(key_cds):
    _assert_lift_matches_reference(key_cds)

@settings(max_examples=40, deadline=None)
@given(key_cds=_table_key_cds())
def test_lift_stacks_equal_the_kron_lists_on_random_key_cds(key_cds):
    _assert_lift_matches_reference(key_cds)

def _depolarized_gate():
    return depolarized(gated_forwarding(), 0.05)

@pytest.mark.parametrize(
    "make, k",
    [
        (gated_forwarding, 2),
        (gated_forwarding, 3),
        (trivial_forwarding, 2),
        (trivial_forwarding, 3),
        (lambda: leaky(0.1), 2),
        (lambda: leaky(0.1), 3),
        (lifted_and, 2),
        (_depolarized_gate, 2),
    ],
)
def test_parallel_repeat_stacks_equal_the_regrouped_kron_lists(make, k):
    p = make()
    rep = parallel_repeat(p, k)
    da, db = p.message_dims()
    dl = p.resource.layout[0][1]
    assert np.array_equal(rep.resource.amplitudes, _repeated_resource_reference(p, k))
    inputs = range(1 << p.n)
    for x in inputs:
        got = rep.alice_channel(x)
        want = _kron_repeat_reference(
            p.alice_channel(x), k, (p.d_q, dl), got.input_layout, got.output_layout
        )
        assert np.array_equal(got.kraus_stack, want.kraus_stack)
    for y in inputs:
        want = np.stack(_kron_power_list(p.bob_channel(y).kraus_operators, k))
        assert np.array_equal(rep.bob_channel(y).kraus_stack, want)
    for x in inputs:
        for y in inputs:
            base = p.decoder(x, y)
            got = rep.decoder(x, y)
            if base is None:
                assert got is None
                continue
            want = _kron_repeat_reference(base, k, (da, db), got.input_layout, got.output_layout)
            assert np.array_equal(got.kraus_stack, want.kraus_stack)

def test_depolarized_repetition_reaches_the_canonical_branch():
    p = _depolarized_gate()
    base = p.alice_channel(0)
    rep = parallel_repeat(p, 2).alice_channel(0)
    assert len(base.kraus_operators) ** 2 > rep.dim_in * rep.dim_out
    assert len(rep.kraus_operators) <= rep.dim_in * rep.dim_out
