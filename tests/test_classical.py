"""Field arithmetic, the perfectly secure CDS/PSM constructions, and their
exhaustive correctness/security checks at small sizes."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import classical
from cdslab.classical import (
    IRREDUCIBLE,
    and_cds,
    and_function,
    double_secret,
    gf_inv,
    gf_mul,
    ip_function,
    ip_psm,
    neq_cds,
    neq_function,
    promise_neq_function,
    table_psm,
)
from cdslab.framework import (
    cds_decode_failure,
    enumerate_message_distribution,
    pad_counts,
    protocol_cost,
    psm_decode_failure,
    psm_tally,
    transcript_counts,
    transcript_tally,
)
from cdslab.verifier import cds_verify

# hand-computed multiplication table of GF(4) with modulus x^2+x+1
# (elements 0..3, 2 = x, 3 = x+1)
GF4_MUL = {
    (1, 1): 1, (1, 2): 2, (1, 3): 3,
    (2, 2): 3, (2, 3): 1,
    (3, 3): 2,
}


def _poly_mod(a: int, m: int) -> int:
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def _poly_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------

def test_gf4_against_hand_table():
    for (a, b), want in GF4_MUL.items():
        assert gf_mul(a, b, 2) == want
        assert gf_mul(b, a, 2) == want
    assert gf_inv(1, 2) == 1
    assert gf_inv(2, 2) == 3
    assert gf_inv(3, 2) == 2

def test_gf2_is_plain_and():
    for a in range(2):
        for b in range(2):
            assert gf_mul(a, b, 1) == (a & b)

def test_moduli_are_irreducible():
    # trial division by every polynomial of degree 1..n/2
    for n, m in IRREDUCIBLE.items():
        assert m.bit_length() == n + 1
        for d in range(2, 1 << (n // 2 + 1)):
            if d.bit_length() > n // 2 + 1:
                break
            assert _poly_mod(m, d) != 0 or d == m, (n, d)

def _order_of_x(m: int) -> int:
    power, k = _poly_mod(0b10, m), 1
    while power != 1:
        power, k = _poly_mod(power << 1, m), k + 1
    return k

def test_gf_mul_matches_polynomial_reduction():
    # Every pair, for every degree up to 8.  Degree 8 (modulus 0x11B) is the
    # one where X is not primitive, so its tables hang on a searched element.
    assert _order_of_x(IRREDUCIBLE[8]) == 51
    for n in range(1, 9):
        m = IRREDUCIBLE[n]
        for a in range(1 << n):
            for b in range(1 << n):
                assert gf_mul(a, b, n) == _poly_mod(_poly_mul(a, b), m), (n, a, b)

@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.sampled_from([n for n in IRREDUCIBLE if n > 8]))
def test_gf_mul_matches_polynomial_reduction_sampled(data, n):
    a = data.draw(st.integers(0, (1 << n) - 1))
    b = data.draw(st.integers(0, (1 << n) - 1))
    assert gf_mul(a, b, n) == _poly_mod(_poly_mul(a, b), IRREDUCIBLE[n])

# Inverses are judged by the reference product, so that one wrong table
# shared by gf_mul and gf_inv cannot pass both checks.
def test_gf_inverses_exhaustive_small():
    for n in range(1, 9):
        for a in range(1, 1 << n):
            assert _poly_mod(_poly_mul(a, gf_inv(a, n)), IRREDUCIBLE[n]) == 1, (n, a)

def test_gf_inverses_sampled_large():
    for n in range(9, 17):
        step = ((1 << n) - 3) // 17 or 1
        for a in [*range(1, 1 << n, step), (1 << n) - 1]:
            assert _poly_mod(_poly_mul(a, gf_inv(a, n)), IRREDUCIBLE[n]) == 1, (n, a)

def test_gf_distributes():
    n = 6
    for a in (3, 17, 44):
        for b in (9, 60):
            for c in (1, 35):
                left = gf_mul(a, b ^ c, n)
                assert left == gf_mul(a, b, n) ^ gf_mul(a, c, n)

def test_gf_rejects_out_of_range():
    with pytest.raises(ValueError):
        gf_mul(4, 1, 2)
    with pytest.raises(ValueError):
        gf_mul(1, 1, 17)
    with pytest.raises(ValueError):
        gf_inv(5, 2)
    with pytest.raises(ValueError):
        gf_inv(1, 17)
    with pytest.raises(ZeroDivisionError):
        gf_inv(0, 3)


# ---------------------------------------------------------------------------
# the functions
# ---------------------------------------------------------------------------

def test_neq_function_table():
    f = neq_function(2)
    assert f.value(1, 1) == 0
    assert f.value(1, 2) == 1
    assert len(list(f.promise_pairs())) == 16

def test_promise_neq_function_gaps():
    f = promise_neq_function(4)
    assert f.value(0b1010, 0b1010) == 0       # distance 0
    assert f.value(0b1010, 0b1011) is None    # distance 1: outside the promise
    assert f.value(0b1111, 0b0011) == 1       # distance 2 = n/2
    with pytest.raises(ValueError):
        promise_neq_function(3)

def test_ip_function_values():
    f = ip_function(3)
    assert f.value(0b101, 0b001) == 1
    assert f.value(0b101, 0b101) == 0


# ---------------------------------------------------------------------------
# NEQ CDS over GF(2^n)
# ---------------------------------------------------------------------------

def test_neq_cds_worked_example():
    # n=2, x=2, y=1, s=1, r=11 encodes (a, b) = (2, 3):
    #   m_A = (gf_mul(2,2)^3, s^(2&1)) = (3^3, 1^0) = (0, 1)
    #   m_B = gf_mul(2,1)^3 = 2^3 = 1
    #   decode: a = gf_mul(0^1, inv(2^1)) = gf_mul(1, inv(3)) = 2, s = 1^(2&1) = 1
    p = neq_cds(2)
    assert p.message_a(2, 1, 11) == (0, 1)
    assert p.message_b(1, 11) == 1
    assert p.decoder((0, 1), 2, 1, 1) == 1
    assert p.decoder((0, 1), 2, 2, 2) is None

def test_neq_cds_exhaustive_correct_and_secure():
    for n in (1, 2):
        p = neq_cds(n)
        f = neq_function(n)
        for x in range(1 << n):
            for y in range(1 << n):
                if f.value(x, y) == 1:
                    for s in range(2):
                        assert cds_decode_failure(p, x, y, s) == 0
                else:
                    d0 = enumerate_message_distribution(p, x, y, 0)
                    d1 = enumerate_message_distribution(p, x, y, 1)
                    assert d0 == d1

def test_neq_cds_inverts_each_difference_once(monkeypatch):
    calls = []

    def counted(a, n):
        calls.append(a)
        return gf_inv(a, n)

    monkeypatch.setattr(classical, "gf_inv", counted)
    report = cds_verify(neq_cds(3), neq_function(3))
    assert report.epsilon_hat == 0
    # one inverse per distinct nonzero x ^ y in GF(8), each computed once
    assert sorted(calls) == list(range(1, 8))

def test_neq_cds_cost():
    cost = protocol_cost(neq_cds(4))
    assert cost.comm_bits == (4 + 1) + 4
    assert cost.shared_random_bits == 8
    assert cost.comm_qubits == 0


# ---------------------------------------------------------------------------
# AND CDS
# ---------------------------------------------------------------------------

def test_and_cds_correct():
    p = and_cds()
    for s in range(2):
        assert cds_decode_failure(p, 1, 1, s) == 0

def test_and_cds_secure_on_zero_pairs():
    p = and_cds()
    f = and_function()
    for x in range(2):
        for y in range(2):
            if f.value(x, y) == 0:
                assert enumerate_message_distribution(p, x, y, 0) == \
                    enumerate_message_distribution(p, x, y, 1)


# ---------------------------------------------------------------------------
# doubling the secret
# ---------------------------------------------------------------------------

def test_double_secret_carries_two_bits():
    p = double_secret(neq_cds(1))
    assert p.secret_alphabet == 4
    assert p.randomness_bits == 2 * neq_cds(1).randomness_bits
    for s in range(4):
        assert cds_decode_failure(p, 0, 1, s) == 0
        assert cds_decode_failure(p, 1, 0, s) == 0

def test_double_secret_still_secure():
    p = double_secret(neq_cds(1))
    dists = [enumerate_message_distribution(p, 1, 1, s) for s in range(4)]
    assert all(d == dists[0] for d in dists)


# ---------------------------------------------------------------------------
# inner-product PSM
# ---------------------------------------------------------------------------

def test_ip_psm_worked_example():
    # n=2, x=3, y=1, r=6 encodes (r1, r2, r3) = (2, 1, 0):
    #   m_A = (3^2, parity(3&1)^0) = (1, 1)
    #   m_B = (1^1, parity(1&2)^parity(2&1)^0) = (0, 0)
    #   referee: parity(1&0)^1^0 = 1 = <3,1>
    p = ip_psm(2)
    assert p.message_a(3, 6) == (1, 1)
    assert p.message_b(1, 6) == (0, 0)
    assert p.referee((1, 1), (0, 0)) == 1

def test_ip_psm_exhaustive_correct():
    for n in (1, 2):
        p = ip_psm(n)
        f = ip_function(n)
        for x in range(1 << n):
            for y in range(1 << n):
                assert psm_decode_failure(p, x, y, f.value(x, y)) == 0

def test_ip_psm_distribution_depends_only_on_value():
    p = ip_psm(2)
    f = ip_function(2)
    by_value = {0: [], 1: []}
    for x in range(4):
        for y in range(4):
            by_value[f.value(x, y)].append(enumerate_message_distribution(p, x, y))
    for dists in by_value.values():
        assert all(d == dists[0] for d in dists)

def test_ip_psm_rejects_large_n():
    with pytest.raises(ValueError):
        ip_psm(11)


# ---------------------------------------------------------------------------
# one-time-truthtable PSM
# ---------------------------------------------------------------------------

def test_table_psm_correct_and_secure():
    def h(x, y):
        return 1 if (x + y) % 3 == 0 else 0

    p = table_psm(h, 2, 2)
    by_value = {0: [], 1: []}
    for x in range(4):
        for y in range(4):
            assert psm_decode_failure(p, x, y, h(x, y)) == 0
            by_value[h(x, y)].append(enumerate_message_distribution(p, x, y))
    for dists in by_value.values():
        assert all(d == dists[0] for d in dists)

def test_table_psm_randomness_budget():
    with pytest.raises(ValueError):
        table_psm(lambda x, y: 0, 5, 5)  # 5 + 2^5 = 37 shared bits > budget

def test_message_distribution_is_a_distribution():
    p = and_cds()
    dist = enumerate_message_distribution(p, 1, 1, 0)
    assert sum(dist.values()) == Fraction(1)


# ---------------------------------------------------------------------------
# array forms against the scalar reference
# ---------------------------------------------------------------------------

@st.composite
def _array_case(draw):
    """``neq_cds(1..5)`` with a secret or ``ip_psm(1..4)`` without one, at a
    random input pair, half the CDS pairs equal (hiding)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        p, s = neq_cds(n), draw(st.integers(0, 1))
    else:
        n = draw(st.integers(1, 4))
        p, s = ip_psm(n), None
    x = draw(st.integers(0, (1 << n) - 1))
    y = draw(st.one_of(st.just(x), st.integers(0, (1 << n) - 1)))
    return p, x, y, s


@settings(max_examples=80, deadline=None)
@given(case=_array_case())
def test_array_path_equals_the_scalar_reference(case, per_r_pad_measures):
    p, x, y, s = case
    reference = dataclasses.replace(p, arrays=None)
    draws = range(1 << p.randomness_bits)
    if s is None:
        per_r = [(p.message_a(x, r), p.message_b(y, r)) for r in draws]
    else:
        per_r = [(p.message_a(x, s, r), p.message_b(y, r)) for r in draws]

    got, want = transcript_counts(p, x, y, s), transcript_counts(reference, x, y, s)
    assert got == want and list(got) == list(want)

    # the packing: each code names one transcript, by the scalar messages
    # at its first draw, and sorting the codes sorts the transcripts
    codes, first, per_code = transcript_tally(p, x, y, s)
    named = [per_r[r] for r in first.tolist()]
    assert named == sorted(want)
    assert first.tolist() == [per_r.index(t) for t in named]
    assert dict(zip(named, per_code.tolist())) == want
    transcripts, first, counts = transcript_tally(reference, x, y, s)
    assert [per_r[r] for r in first.tolist()] == transcripts.tolist() == sorted(want)
    assert first.tolist() == [per_r.index(t) for t in transcripts.tolist()]
    assert dict(zip(transcripts.tolist(), counts.tolist())) == want

    if s is None:
        for value in (0, 1):
            assert psm_decode_failure(p, x, y, value) == psm_decode_failure(reference, x, y, value)
            counts, failure = psm_tally(p, x, y, value)
            assert counts == dict(zip(codes.tolist(), per_code.tolist()))
            assert psm_tally(reference, x, y, value) == (want, failure)
    else:
        for secret in (0, 1):
            assert cds_decode_failure(p, x, y, secret) == cds_decode_failure(reference, x, y, secret)
        table = pad_counts(p, x, y)
        assert table == pad_counts(reference, x, y)
        assert (table.fidelity(), table.distance()) == per_r_pad_measures(p, x, y)
