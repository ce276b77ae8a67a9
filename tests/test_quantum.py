"""Deutsch-Jozsa shortening, the hybrid promise-NEQ protocol, and the
hidden-matching PSQM with its inner product layer."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab.classical import double_secret, ip_psm, neq_cds, promise_neq_function
from cdslab.cli import hybrid_input_sample
from cdslab.framework import (
    ArrayForm,
    CostReport,
    PadCounts,
    TranscriptCdqsProtocol,
    enumerate_message_distribution,
    pad_counts,
    transcript_counts,
    transcript_form,
    transcript_tally,
)
from cdslab.quantum import (
    BhmInstance,
    HybridNeqCdqs,
    bhm_instance,
    bhm_psqm,
    bhm_to_text,
    dj_equal_probability,
    dj_shorten,
)


# ---------------------------------------------------------------------------
# Deutsch-Jozsa shortening
# ---------------------------------------------------------------------------

def test_dj_equal_strings_collide():
    dist = dj_shorten(0b0110, 0b0110, 4)
    assert dist == {(a, a): Fraction(1, 4) for a in range(4)}

def test_dj_half_distance_never_collides():
    # z = x ^ y has weight exactly n/2 = 2
    dist = dj_shorten(0b0011, 0, 4)
    assert all(a != b for a, b in dist)
    assert sum(dist.values()) == 1

def test_dj_small_worked_example():
    # n=2, z = 01: signs (+1, -1), S_0 = 0, S_1 = 2
    # P(a, b) = S_{a^b}^2 / n^3 -> mass 4/8 on each a^b = 1 pair? no:
    # P(a,b) = S_{a xor b}^2 / 8 = 1/2 for a^b=1, summed over the two pairs.
    dist = dj_shorten(0b10, 0, 2)
    assert dist == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}

def test_dj_equal_probability_extremes():
    for n in (2, 4, 8, 16):
        x = (1 << n) - 1
        assert dj_equal_probability(x, x, n) == 1
        flipped = ((1 << (n // 2)) - 1) << (n // 2)
        assert dj_equal_probability(x, flipped, n) == 0

def test_dj_intermediate_overlap():
    # weight-1 difference at n=4: S_0 = 2, Pr[a=b] = sum_a S_0^2/n^3 = 4*4/64
    assert dj_equal_probability(0b0001, 0, 4) == Fraction(1, 4)

def test_dj_rejects_mismatched_lengths():
    # a 3-bit input to the 2-bit measurement is out of range
    with pytest.raises(ValueError, match="does not fit in 2 bits"):
        dj_shorten(0b01, 0b110, 2)
    with pytest.raises(ValueError, match="does not fit in 2 bits"):
        dj_equal_probability(0b01, 0b110, 2)
    with pytest.raises(ValueError, match="power of two"):
        dj_equal_probability(0, 0, 6)

def _diagonal(dist):
    return sum((p for (a, b), p in dist.items() if a == b), Fraction(0))

def test_dj_equal_probability_is_the_diagonal_of_the_shortening():
    for n in (2, 4, 8):
        # the distribution is a function of x xor y: checked pair by pair
        # up to n = 4, and read from one call per difference at n = 8
        by_difference = {z: dj_shorten(z, 0, n) for z in range(1 << n)}
        for x in range(1 << n):
            for y in range(1 << n):
                if n <= 4:
                    assert dj_shorten(x, y, n) == by_difference[x ^ y]
                assert dj_equal_probability(x, y, n) == _diagonal(by_difference[x ^ y]), (x, y)

@settings(max_examples=30)
@given(data=st.data())
def test_dj_equal_probability_matches_the_diagonal_at_larger_sizes(data):
    n = data.draw(st.sampled_from((16, 32, 64)))
    x = data.draw(st.integers(0, (1 << n) - 1))
    flips = data.draw(st.sets(st.integers(0, n - 1)))
    y = x ^ sum(1 << i for i in flips)
    assert dj_equal_probability(x, y, n) == _diagonal(dj_shorten(x, y, n))


# ---------------------------------------------------------------------------
# hybrid protocol for promise NEQ
# ---------------------------------------------------------------------------

def test_hybrid_perfect_on_promise_exhaustive_small():
    for n in (2, 4):
        p = HybridNeqCdqs(n)
        f = promise_neq_function(n)
        for x, y in f.promise_pairs():
            if f.value(x, y) == 1:
                assert p.entanglement_fidelity(x, y) == 1
            else:
                assert p.product_distance(x, y) == 0

def test_hybrid_spot_checks_large():
    p = HybridNeqCdqs(16)
    x = 0b1010101010101010
    y = x ^ 0b1111111100000000  # distance 8 = n/2
    assert p.entanglement_fidelity(x, y) == 1
    assert p.product_distance(x, x) == 0

def test_hybrid_cost_table():
    assert HybridNeqCdqs(16).cost.as_dict() == {
        "comm_bits": 26,
        "comm_qubits": 1,
        "shared_random_bits": 16,
        "shared_epr_pairs": 4,
    }
    assert HybridNeqCdqs(4).cost.shared_epr_pairs == 2

def test_hybrid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        HybridNeqCdqs(3)

def _documented_counts(m, equal):
    """One ``neq_cds(m)`` copy's counts on a shortened pair, as the
    ``HybridNeqCdqs`` docstring derives them: on a != b every transcript
    comes from one (key, draw) and every draw decodes; on a = b each of the
    2^(m+1) transcripts comes from 2^(m-1) draws of each key, and None
    decodes key 0."""
    draws = 1 << (2 * m)
    if equal:
        half = 1 << (m - 1)
        return PadCounts(Counter({(half, half): 2 << m}), draws, 2 * draws)
    return PadCounts(Counter({(1, 0): draws, (0, 1): draws}), 2 * draws, 2 * draws)

def _check_pair_counts(m, a, b):
    copy = neq_cds(m)
    counts = pad_counts(copy, a, b)
    assert counts == _documented_counts(m, a == b), (a, b)
    representative = pad_counts(copy, 0, 0 if a == b else 1)
    assert counts.square() == representative.square(), (a, b)

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pad_counts_depend_on_the_pair_only_through_equality(m):
    for a in range(1 << m):
        for b in range(1 << m):
            _check_pair_counts(m, a, b)

@settings(max_examples=12)
@given(data=st.data())
def test_pad_counts_depend_on_the_pair_only_through_equality_sampled(data):
    m = data.draw(st.sampled_from((5, 6)))
    a = data.draw(st.integers(0, (1 << m) - 1))
    _check_pair_counts(m, a, data.draw(st.one_of(st.just(a), st.integers(0, (1 << m) - 1))))

def test_hybrid_and_transcript_form_share_one_measure_rule():
    assert isinstance(HybridNeqCdqs(4), TranscriptCdqsProtocol)
    assert not {"decoding_distance", "_averaged", "cost"} & set(vars(HybridNeqCdqs))
    # the names the benchmark tracer wraps are the base class's functions
    assert HybridNeqCdqs.entanglement_fidelity is TranscriptCdqsProtocol.entanglement_fidelity
    assert HybridNeqCdqs.product_distance is TranscriptCdqsProtocol.product_distance
    for n in (4, 8, 16):
        p = HybridNeqCdqs(n)
        for x, y in hybrid_input_sample(n, seed=2026):
            weights = [weight for weight, _ in p.classes(x, y)]
            assert sum(weights) == 1 and all(type(w) is Fraction for w in weights), (n, x, y)
            fidelity = p.entanglement_fidelity(x, y)
            assert type(fidelity) is Fraction
            assert p.decoding_distance(x, y) == 2 * (1 - fidelity), (n, x, y)
    key_cds = double_secret(neq_cds(1))
    t = transcript_form(key_cds)
    for x in range(2):
        for y in range(2):
            assert t.classes(x, y) == ((1, pad_counts(key_cds, x, y)),), (x, y)

def test_hybrid_equality_classes_match_the_tabulated_average(tabulated_hybrid_measures):
    # every promise pair at n = 4 and 8, and the CLI's sample at n = 16
    cases = [(n, promise_neq_function(n).promise_pairs()) for n in (4, 8)]
    cases.append((16, hybrid_input_sample(16, seed=2026)))
    for n, inputs in cases:
        p = HybridNeqCdqs(n)
        for x, y in inputs:
            measures = (p.entanglement_fidelity(x, y), p.product_distance(x, y))
            assert measures == tabulated_hybrid_measures(n, x, y), (n, x, y)

def _per_r_copy_measures(copy, a, b):
    """Fidelity and product distance of the pad lift of two independent
    copies of a one-bit CDS, from one copy's per-r enumeration: the copy's
    decoded mass squared, and the product of the copies' Fraction key
    posteriors, grouped by posterior."""
    total = 2 << copy.randomness_bits
    correct = 0
    draws: dict = {}
    for s in (0, 1):
        for r in range(1 << copy.randomness_bits):
            ma, mb = copy.message_a(a, s, r), copy.message_b(b, r)
            decoded = copy.decoder(ma, a, mb, b)
            correct += (0 if decoded is None else decoded) == s
            draws.setdefault((ma, mb), [0, 0])[s] += 1
    classes: dict = {}
    for c0, c1 in draws.values():
        key = (Fraction(c0, c0 + c1), Fraction(c1, c0 + c1))
        classes[key] = classes.get(key, 0) + c0 + c1
    distance = Fraction(0)
    for q, wq in classes.items():
        for p, wp in classes.items():
            gap = sum(abs(qa * pb - Fraction(1, 4)) for qa in q for pb in p)
            distance += Fraction(wq * wp, total * total) * gap
    return Fraction(correct, total) ** 2, distance

def _check_hybrid_against(p, pair_measures, inputs):
    for x, y in inputs:
        shortened = dj_shorten(x, y, p.n)
        fidelity = sum((q * pair_measures[ab][0] for ab, q in shortened.items()), Fraction(0))
        distance = sum((q * pair_measures[ab][1] for ab, q in shortened.items()), Fraction(0))
        assert p.entanglement_fidelity(x, y) == fidelity, (x, y)
        assert p.product_distance(x, y) == distance, (x, y)

def test_hybrid_tables_match_the_enumerated_distributions(per_r_pad_measures):
    # n = 4: every input pair, against the doubled CDS enumerated per r
    key_cds = double_secret(neq_cds(2))
    pairs = {(a, b): per_r_pad_measures(key_cds, a, b) for a in range(4) for b in range(4)}
    _check_hybrid_against(HybridNeqCdqs(4), pairs, [(x, y) for x in range(16) for y in range(16)])
    # n = 16, the size the benchmark and the CLI build: one neq_cds(4) copy
    # enumerated per r, on equal, promise and unpromised pairs
    copy = neq_cds(4)
    pairs = {(a, b): _per_r_copy_measures(copy, a, b) for a in range(16) for b in range(16)}
    rng = random.Random(16)
    inputs = [(x, x) for x in (0, 0xBEEF)] + [(0xAAAA, 0xAAAA ^ 0xFF00)]
    inputs += [(rng.getrandbits(16), rng.getrandbits(16)) for _ in range(12)]
    _check_hybrid_against(HybridNeqCdqs(16), pairs, inputs)


# ---------------------------------------------------------------------------
# hidden-matching instances
# ---------------------------------------------------------------------------

def test_bhm_instance_promise_thresholds():
    inst1 = bhm_instance(6, 1, seed=0)
    weight1 = (inst1.mx() ^ inst1.w).bit_count()
    assert 3 * weight1 >= 2 * 6 and inst1.promised_value == 1
    inst0 = bhm_instance(6, 0, seed=0)
    weight0 = (inst0.mx() ^ inst0.w).bit_count()
    assert 3 * weight0 < 6 and inst0.promised_value == 0

def test_bhm_instance_rejects_broken_promise():
    inst = bhm_instance(4, 1, seed=1)
    with pytest.raises(ValueError):
        BhmInstance(inst.n, inst.x, inst.matching, inst.w ^ ((1 << inst.n) - 1),
                    inst.promised_value)

def test_bhm_matching_is_perfect():
    inst = bhm_instance(6, 1, seed=7)
    seen = [v for edge in inst.matching for v in edge]
    assert sorted(seen) == list(range(12))

def test_bhm_text_is_frozen():
    assert bhm_to_text(bhm_instance(6, 0, seed=3)) == (
        "bhm-instance\n"
        "n: 6\n"
        "x: 0xcfb\n"
        "matching: (8,9) (2,11) (0,1) (4,7) (6,10) (3,5)\n"
        "w: 0x2\n"
        "promised_value: 0"
    )


# ---------------------------------------------------------------------------
# the exchange protocol
# ---------------------------------------------------------------------------

def test_bhm_outcomes_form_distribution():
    proto = bhm_psqm(2)
    inst = bhm_instance(2, 1, seed=5)
    outcomes = proto.outcome_distribution(inst)
    assert sum(prob for prob, *_ in outcomes) == 1
    # each edge is measured with probability exactly 1/n
    per_edge = {}
    for prob, e, *_ in outcomes:
        per_edge[e] = per_edge.get(e, Fraction(0)) + prob
    assert all(mass == Fraction(1, 2) for mass in per_edge.values())

def test_bhm_vote_identity_and_correctness():
    for n, seed in ((2, 11), (4, 12), (6, 13)):
        proto = bhm_psqm(n)
        for target in (0, 1):
            inst = bhm_instance(n, target, seed=seed)
            assert proto.vote_identity_holds(inst)
            assert proto.correctness_probability(inst) >= Fraction(2, 3)

def test_bhm_inner_layer_secure():
    proto = bhm_psqm(2)
    inst = bhm_instance(2, 0, seed=2)
    assert proto.inner_layer_secure(inst)

@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ip_psm_randomness_to_transcript_map_is_injective(data):
    # what BhmPsqm's support comparison rests on: every transcript has one r
    m = data.draw(st.integers(1, 4))
    u = data.draw(st.integers(0, (1 << m) - 1))
    v = data.draw(st.integers(0, (1 << m) - 1))
    assert set(transcript_counts(ip_psm(m), u, v).values()) == {1}

def test_bhm_inner_support_refuses_a_collapsed_replay(monkeypatch):
    proto, inst = bhm_psqm(2), bhm_instance(2, 0, seed=2)
    # an array form whose every draw gives the same transcript
    zeros = ArrayForm(lambda x, r: 0 * r, lambda y, r: 0 * r, lambda a, b: 0 * a)
    monkeypatch.setattr(proto, "inner", dataclasses.replace(proto.inner, arrays=zeros))
    with pytest.raises(AssertionError, match="not injective"):
        proto.inner_layer_secure(inst)

def test_bhm_inner_layer_without_an_array_form(monkeypatch):
    # the scalar path sorts (m_a, m_b) tuples in an object array
    proto, inst = bhm_psqm(2), bhm_instance(2, 1, seed=3)
    monkeypatch.setattr(proto, "inner", dataclasses.replace(proto.inner, arrays=None))
    assert proto.inner_layer_secure(inst)
    # every transcript twice: 2^8 transcripts for 2^9 randomness values
    collapsed = dataclasses.replace(
        proto.inner, message_a=lambda x, r: 0, message_b=lambda y, r: r >> 1
    )
    monkeypatch.setattr(proto, "inner", collapsed)
    with pytest.raises(AssertionError, match="256 transcripts for 512"):
        proto.inner_layer_secure(inst)

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bhm_inner_supports_are_the_scalar_transcripts(data):
    # the codes inner_layer_secure compares, against the scalar reference loop
    n = data.draw(st.integers(1, 4))
    proto = bhm_psqm(n)
    inst = bhm_instance(n, data.draw(st.integers(0, 1)), data.draw(st.integers(0, 99)))
    _, e, k, l, _vote = data.draw(st.sampled_from(proto.outcome_distribution(inst)))
    u, v = proto.psm_inputs(inst, e, k, l)
    _, first, _ = transcript_tally(proto.inner, u, v)
    in_code_order = [(proto.inner.message_a(u, r), proto.inner.message_b(v, r)) for r in first]
    reference = transcript_counts(dataclasses.replace(proto.inner, arrays=None), u, v)
    assert in_code_order == sorted(reference)

def test_bhm_message_distribution_matches_the_per_outcome_mixture():
    for n, seed in ((1, 3), (2, 2), (3, 5), (4, 6)):
        proto = bhm_psqm(n)
        inst = bhm_instance(n, seed & 1, seed)
        expected: dict = {}
        for prob, e, k, l, _vote in proto.outcome_distribution(inst):
            u, v = proto.psm_inputs(inst, e, k, l)
            for t, q in enumerate_message_distribution(proto.inner, u, v).items():
                expected[t] = expected.get(t, Fraction(0)) + prob * q
        dist = proto.message_distribution(inst)
        assert dist == expected
        assert list(dist) == sorted(expected)

def test_bhm_message_distribution_refuses_unequal_outcome_probabilities(monkeypatch):
    proto = bhm_psqm(2)
    inst = bhm_instance(2, 0, seed=2)
    outcomes = proto.outcome_distribution(inst)
    prob, *rest = outcomes[-1]
    skewed = outcomes[:-1] + [(prob * 2, *rest)]
    monkeypatch.setattr(proto, "outcome_distribution", lambda _inst: skewed)
    with pytest.raises(ValueError, match="equiprobable"):
        proto.message_distribution(inst)
    with pytest.raises(ValueError, match="equiprobable"):
        proto.inner_layer_secure(inst)

@pytest.mark.parametrize("n, counts", [
    (1, (8, 0, 7, 1)),
    (2, (10, 0, 9, 2)),
    (3, (12, 0, 11, 3)),
    (4, (12, 0, 11, 3)),
    (5, (14, 0, 13, 4)),
    (6, (14, 0, 13, 4)),
    (7, (14, 0, 13, 4)),
    (8, (14, 0, 13, 4)),
])
def test_bhm_cost_is_the_inner_psm_cost_plus_the_index_pairs(n, counts):
    # (comm_bits, comm_qubits, shared_random_bits, shared_epr_pairs)
    assert bhm_psqm(n).cost == CostReport(*counts)

def test_bhm_cost_scales_logarithmically():
    proto = bhm_psqm(8)  # 2n = 16 vertices -> 4 index bits
    assert proto.cost.shared_epr_pairs == 4
    assert proto.index_bits == 4
