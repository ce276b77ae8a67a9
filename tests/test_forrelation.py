"""Forrelation values, promise instances, the decision circuit, and its
Clifford+T compilation."""

import math

import numpy as np
import pytest

from cdslab.forrelation import (
    _UNITARIES,
    ALPHA,
    BETA,
    TAU,
    Circuit,
    ForrelationInstance,
    Gate,
    acceptance_probability,
    circuit_unitary,
    compile_clifford_t,
    forr_value,
    forrelation_circuit,
    forrelation_decision,
    _apply_gate,
    forrelation_instance,
    instance_suite,
    t_depth,
    vote_error_bound,
)


def forr_direct(z):
    """Independent O(n^2) oracle: explicit double sum with (-1)^{<j,k>}."""
    n = len(z)
    half = n // 2
    total = 0.0
    for j in range(half):
        for k in range(half):
            sign = (-1) ** bin(j & k).count("1")
            total += z[j] * sign * z[half + k]
    return total / (n * math.sqrt(half))


# ---------------------------------------------------------------------------
# the value
# ---------------------------------------------------------------------------

def test_forr_all_ones_n4():
    assert abs(forr_value([1, 1, 1, 1]) - math.sqrt(2) / 4) < 1e-12

def test_forr_matches_direct_summation():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8, 16, 32, 64):
        for _ in range(5):
            z = list(2 * rng.integers(0, 2, n) - 1)
            assert abs(forr_value(z) - forr_direct(z)) < 1e-12

def test_forr_sign_aligned_second_half_is_maximal():
    # brute force over all z1 at n=8: aligning z2 with the Walsh transform
    # of z1 attains the maximum over every possible z2
    for z1_bits in range(16):
        z1 = [1 - 2 * ((z1_bits >> i) & 1) for i in range(4)]
        best = max(
            forr_value(z1 + [1 - 2 * ((c >> i) & 1) for i in range(4)])
            for c in range(16)
        )
        w = [sum(z1[j] * (-1) ** bin(j & k).count("1") for j in range(4)) for k in range(4)]
        z2 = [1 if v >= 0 else -1 for v in w]
        assert abs(forr_value(z1 + z2) - best) < 1e-12

def test_forr_negating_second_half_negates():
    rng = np.random.default_rng(5)
    z = list(2 * rng.integers(0, 2, 16) - 1)
    flipped = z[:8] + [-v for v in z[8:]]
    assert abs(forr_value(z) + forr_value(flipped)) < 1e-12

def test_forr_rejects_bad_lengths():
    with pytest.raises(ValueError):
        forr_value([1, 1, 1])
    with pytest.raises(ValueError):
        forr_value([1, 2, 1, 1])


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def test_instance_generation_sides():
    high = forrelation_instance(8, "high", 42)
    assert high.forr >= ALPHA and high.answer == -1
    low = forrelation_instance(16, "low", 1)
    assert low.forr <= BETA and low.answer == +1

def test_instance_generation_reproducible():
    a = forrelation_instance(8, "high", 42)
    b = forrelation_instance(8, "high", 42)
    assert a == b

def test_instance_flip_invariance():
    inst = forrelation_instance(16, "low", 3)
    x = list(inst.x)
    y = list(inst.y)
    x[5] *= -1
    y[5] *= -1
    z = [a * b for a, b in zip(x, y)]
    assert abs(forr_value(z) - inst.forr) < 1e-12

def test_instance_validation():
    with pytest.raises(ValueError):
        ForrelationInstance((1, 1, 1, 1), (1, 1, 1, 1), "low")  # forr too high
    with pytest.raises(ValueError):
        forrelation_instance(6, "high", 0)

def test_suite_is_seed_stable():
    a = instance_suite(99, ns=(4, 8), per_side=3)
    b = instance_suite(99, ns=(4, 8), per_side=3)
    assert a == b and len(a) == 12


# ---------------------------------------------------------------------------
# the circuit
# ---------------------------------------------------------------------------

def test_circuit_shape():
    c = forrelation_circuit(8)
    assert c.wire_count == 6
    kinds = [g.kind for g in c.gates]
    assert kinds.count("CH") == 2
    assert kinds.count("MEASURE") == 1
    assert c.gates[-1].kind == "MEASURE"

def test_acceptance_probability_is_half_plus_forr():
    rng = np.random.default_rng(17)
    for n in (4, 8, 16):
        c = forrelation_circuit(n)
        for _ in range(4):
            x = 2.0 * rng.integers(0, 2, n) - 1
            y = 2.0 * rng.integers(0, 2, n) - 1
            p = acceptance_probability(c, x, y)
            assert abs(p - (0.5 + forr_value(x * y))) < 1e-12

def test_acceptance_matches_dense_matrix_element():
    n = 8
    c = forrelation_circuit(n)
    rng = np.random.default_rng(23)
    x = 2.0 * rng.integers(0, 2, n) - 1
    y = 2.0 * rng.integers(0, 2, n) - 1
    u = circuit_unitary(c, x, y)
    dim = 1 << c.wire_count
    column = u[:, 0]
    p_dense = float(np.sum(np.abs(column[: dim // 2]) ** 2))
    assert abs(acceptance_probability(c, x, y) - p_dense) < 1e-12

def _suite_stack(seed, n, per_side=10):
    """One size of the CLI's forrelation suite, as ``(instances, xs, ys)``."""
    instances = instance_suite(seed, ns=(n,), per_side=per_side)
    return instances, [inst.x for inst in instances], [inst.y for inst in instances]

def test_batched_acceptance_matches_single_instance_calls():
    # every instance of the seed-7 suite: 4 sizes x 2 sides x 10
    count = 0
    for n in (4, 8, 16, 32):
        c = forrelation_circuit(n)
        instances, xs, ys = _suite_stack(7, n)
        batched = acceptance_probability(c, xs, ys)
        assert batched.shape == (len(instances),)
        for inst, p in zip(instances, batched):
            assert abs(p - acceptance_probability(c, inst.x, inst.y)) <= 1e-15
            count += 1
    assert count == 80

def test_batched_acceptance_matches_dense_unitary():
    n = 8
    c = forrelation_circuit(n)
    _, xs, ys = _suite_stack(7, n)
    batched = acceptance_probability(c, xs, ys)
    half = (1 << c.wire_count) // 2
    for x, y, p in zip(xs, ys, batched):
        column = circuit_unitary(c, x, y)[:, 0]
        assert abs(p - float(np.sum(np.abs(column[:half]) ** 2))) < 1e-12

def test_acceptance_rejects_mismatched_or_non_sign_stacks():
    c = forrelation_circuit(4)
    with pytest.raises(ValueError):
        acceptance_probability(c, [[1, 1, 1, 1]], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        acceptance_probability(c, [[1, 1, 1, 2]], [[1, 1, 1, 1]])

def test_circuit_unitarity():
    c = forrelation_circuit(4)
    u = circuit_unitary(c, [1, -1, 1, 1], [1, 1, -1, 1])
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-9)

def test_all_ones_instance_accepts_at_frozen_value():
    n = 4
    p = acceptance_probability(forrelation_circuit(n), [1] * n, [1] * n)
    assert abs(p - (0.5 + 0.35355339059327373)) < 1e-12

def test_circuit_rejects_gate_after_measurement():
    with pytest.raises(ValueError):
        Circuit(1, (Gate("MEASURE", (0,)), Gate("H", (0,))))

def test_acceptance_refuses_a_second_measurement():
    c = Circuit(2, (Gate("H", (0,)), Gate("MEASURE", (1,)), Gate("MEASURE", (0,))))
    with pytest.raises(ValueError, match="single measurement"):
        acceptance_probability(c, [1, 1], [1, 1])

def test_acceptance_refuses_a_gate_after_the_measurement():
    c = Circuit(2, (Gate("H", (0,)), Gate("MEASURE", (0,)), Gate("H", (1,))))
    with pytest.raises(ValueError, match="single measurement"):
        acceptance_probability(c, [1, 1], [1, 1])

def test_acceptance_refuses_a_circuit_without_measurement():
    with pytest.raises(ValueError, match="single measurement"):
        acceptance_probability(Circuit(1, (Gate("H", (0,)),)), [1, 1], [1, 1])


# ---------------------------------------------------------------------------
# the gate table
# ---------------------------------------------------------------------------

def test_every_table_kind_is_unitary_and_takes_exactly_its_arity():
    assert set(_UNITARIES) == {"H", "X", "T", "TDG", "P", "PDG", "CNOT", "CH"}
    for kind, mat in _UNITARIES.items():
        assert mat.shape in ((2, 2), (4, 4))
        assert np.allclose(mat.conj().T @ mat, np.eye(len(mat)), atol=1e-12)
        arity = 1 if len(mat) == 2 else 2
        assert Gate(kind, tuple(range(arity))).wires == tuple(range(arity))
        for count in (arity - 1, arity + 1):
            with pytest.raises(ValueError, match=f"{kind} takes {arity} wire"):
                Gate(kind, tuple(range(count)))

def _dense_gate(mat, wires, wire_count):
    """Independent oracle: ``mat`` on ``wires`` (first wire most significant)
    as a full matrix, from ``np.kron`` with the identity on the other wires
    and a permutation of the wires into natural order."""
    order = list(wires) + [w for w in range(wire_count) if w not in wires]
    full = np.kron(mat, np.eye(1 << (wire_count - len(wires))))
    back = list(np.argsort(order))
    return (
        full.reshape((2,) * 2 * wire_count)
        .transpose(back + [wire_count + a for a in back])
        .reshape(1 << wire_count, 1 << wire_count)
    )

@pytest.mark.parametrize("kind", sorted(_UNITARIES))
def test_apply_gate_matches_the_dense_oracle(kind):
    rng = np.random.default_rng(31)
    wire_count = 4
    arity = len(_UNITARIES[kind]).bit_length() - 1
    placements = [(0,), (2,), (3,)] if arity == 1 else [(0, 1), (1, 0), (0, 3), (3, 1), (2, 0)]
    for wires in placements:
        state = rng.normal(size=(1 << wire_count, 3)) + 1j * rng.normal(size=(1 << wire_count, 3))
        got = _apply_gate(
            state.reshape((2,) * wire_count + (3,)), Gate(kind, wires), wire_count, None, None
        )
        want = _dense_gate(_UNITARIES[kind], wires, wire_count) @ state
        assert np.allclose(got.reshape(1 << wire_count, 3), want, atol=1e-12)


# ---------------------------------------------------------------------------
# compilation and T-depth
# ---------------------------------------------------------------------------

def test_controlled_h_block_is_exact():
    ch = Circuit(2, (Gate("CH", (0, 1)),))
    compiled = compile_clifford_t(ch)
    kinds = [g.kind for g in compiled.gates]
    assert kinds == ["P", "H", "T", "CNOT", "TDG", "H", "PDG"]
    assert not any(g.kind in ("T", "TDG") and g.wires[0] == 0 for g in compiled.gates)
    assert np.max(np.abs(circuit_unitary(ch) - circuit_unitary(compiled))) < 1e-12

def test_compile_leaves_clifford_circuits_alone():
    c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    assert compile_clifford_t(c) == c

def test_compiled_circuit_matches_original():
    for n in (4, 8, 16, 32):
        c = forrelation_circuit(n)
        cc = compile_clifford_t(c)
        rng = np.random.default_rng(n)
        x = 2.0 * rng.integers(0, 2, n) - 1
        y = 2.0 * rng.integers(0, 2, n) - 1
        if c.wire_count <= 10:
            gap = np.max(np.abs(circuit_unitary(c, x, y) - circuit_unitary(cc, x, y)))
            assert gap < 1e-9
        assert abs(
            acceptance_probability(c, x, y) - acceptance_probability(cc, x, y)
        ) < 1e-12

def test_t_depth_clifford_only_is_zero():
    assert t_depth(Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))) == 0

def test_t_depth_single_ch_block_is_two():
    assert t_depth(compile_clifford_t(Circuit(2, (Gate("CH", (0, 1)),)))) == 2

def test_t_depth_constant_across_sizes():
    depths = {n: t_depth(compile_clifford_t(forrelation_circuit(n))) for n in (4, 8, 16, 32)}
    assert set(depths.values()) == {2}

def test_t_depth_rejects_uncompiled():
    with pytest.raises(ValueError):
        t_depth(forrelation_circuit(8))


# ---------------------------------------------------------------------------
# the decision
# ---------------------------------------------------------------------------

def test_decision_rejects_zero_reps():
    inst = forrelation_instance(4, "high", 0)
    p0 = acceptance_probability(forrelation_circuit(4), inst.x, inst.y)
    with pytest.raises(ValueError):
        forrelation_decision(p0, 0)

def test_decision_deterministic_under_seed():
    inst = forrelation_instance(16, "high", 5)
    p0 = acceptance_probability(forrelation_circuit(16), inst.x, inst.y)
    assert forrelation_decision(p0, 15, seed=9) == \
        forrelation_decision(p0, 15, seed=9) == -1

def test_vote_rejects_non_probabilities_and_unknown_sides():
    with pytest.raises(ValueError):
        forrelation_decision(1.5, 15)
    with pytest.raises(ValueError):
        vote_error_bound(-0.5, "high", 15)
    with pytest.raises(ValueError):
        vote_error_bound(0.5, "middle", 15)

def test_low_side_single_shot_frozen():
    # seed 0 at n=8 gives forr = -1/4, so a single shot answers "low"
    # with probability exactly 1/2 - forr = 3/4 >= 2/3
    inst = forrelation_instance(8, "low", 0)
    assert abs(inst.forr + 0.25) < 1e-12
    p0 = acceptance_probability(forrelation_circuit(8), inst.x, inst.y)
    assert 1 - p0 >= 2 / 3

def test_majority_vote_error_over_suite():
    suite = instance_suite(20260825)
    assert len(suite) == 200
    rng = np.random.default_rng(77)
    threshold = math.ceil(TAU * 15)
    wrong = 0
    for inst in suite:
        p0 = acceptance_probability(forrelation_circuit(inst.n), inst.x, inst.y)
        zeros = int(np.count_nonzero(rng.random(15) < p0))
        wrong += (-1 if zeros >= threshold else +1) != inst.answer
    assert wrong / len(suite) <= 0.09

def test_vote_error_bound_is_exact_and_small():
    inst = forrelation_instance(8, "high", seed=5)
    p0 = acceptance_probability(forrelation_circuit(8), inst.x, inst.y)
    bound = vote_error_bound(p0, inst.side, 15)
    # recompute from the binomial distribution directly
    threshold = math.ceil(TAU * 15)
    tail = sum(
        math.comb(15, j) * p0**j * (1 - p0) ** (15 - j) for j in range(threshold, 16)
    )
    assert bound == pytest.approx(1 - tail, abs=1e-12)
    assert bound <= 0.09
    low = forrelation_instance(8, "low", seed=6)
    p0_low = acceptance_probability(forrelation_circuit(8), low.x, low.y)
    assert vote_error_bound(p0_low, low.side, 15) <= 0.09
    with pytest.raises(ValueError):
        vote_error_bound(p0, inst.side, 0)
