import dataclasses
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdslab
from cdslab import verifier

from cdslab.classical import (
    and_cds,
    and_function,
    constant_function,
    double_secret,
    ip_function,
    ip_psm,
    neq_cds,
    neq_function,
    promise_neq_function,
)
from cdslab.framework import (
    CdsProtocol,
    PromiseFunction,
    PsmProtocol,
    classical_to_quantum_lift,
    enumerate_message_distribution,
    transcript_form,
)
from cdslab.quantum import HybridNeqCdqs
from cdslab.toys import (
    depolarized,
    gated_forwarding,
    gated_function,
    leaky,
    lifted_neq,
    lifted_neq_function,
    toy_suite,
    trivial_forwarding,
    always_one_function,
    always_zero_function,
    unencrypted,
)
from cdslab.verifier import (
    VerificationReport,
    cds_verify,
    cdqs_verify,
    chebyshev_radius,
    productness_check,
    psm_verify,
)


def leak_in_clear():
    # Alice sends the secret bit itself; nothing is ever decodable "legally".
    return CdsProtocol(
        n=1, randomness_bits=0, secret_alphabet=2,
        message_a=lambda x, s, r: s,
        message_b=lambda y, r: 0,
        decoder=lambda ma, x, mb, y: None,
        message_bits_a=1, message_bits_b=0,
        construction="leak_in_clear",
    )


def echo_and_psm():
    # Referee sees the raw inputs, so the value-0 class has three distinct
    # transcript distributions and the simulator LP is non-trivial.
    return PsmProtocol(
        n=1, randomness_bits=0, value_alphabet=2,
        message_a=lambda x, r: x,
        message_b=lambda y, r: y,
        referee=lambda ma, mb: ma & mb,
        message_bits_a=1, message_bits_b=1,
        construction="echo_and",
    )


# ---------------------------------------------------------------------------
# simulator radius
# ---------------------------------------------------------------------------

def test_radius_single_distribution_is_exact_zero():
    d = {("a", 0): Fraction(1, 3), ("b", 1): Fraction(2, 3)}
    radius, center = chebyshev_radius([d, dict(d)])
    assert radius == Fraction(0)
    assert center == d


def test_radius_two_distributions_is_half_l1_at_midpoint():
    p0 = {0: Fraction(1)}
    p1 = {1: Fraction(1)}
    radius, center = chebyshev_radius([p0, p1])
    assert radius == Fraction(1)
    assert center == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    q0 = {0: Fraction(3, 4), 1: Fraction(1, 4)}
    q1 = {0: Fraction(1, 4), 1: Fraction(3, 4)}
    radius, center = chebyshev_radius([q0, q1])
    assert radius == Fraction(1, 2)
    assert center == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_radius_three_point_masses_runs_lp():
    dists = [{k: Fraction(1)} for k in ("u", "v", "w")]
    radius, center = chebyshev_radius(dists)
    # best simulator is uniform over the three transcripts: radius 2*(1-1/3)
    assert abs(radius - Fraction(4, 3)) < 1e-9
    for k in ("u", "v", "w"):
        assert abs(center[k] - 1 / 3) < 1e-9


def test_importing_the_cli_leaves_the_lp_modules_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cdslab.__file__).resolve().parents[1]))
    code = (
        "import sys, cdslab.cli; "
        "print([m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

def test_lp_branch_calls_the_module_linprog(monkeypatch):
    real, calls = verifier.linprog, []

    def spy(*args, **kwargs):
        calls.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(verifier, "linprog", spy)
    radius, _ = chebyshev_radius([{"u": Fraction(1)}, {"v": Fraction(1)}, {"w": Fraction(1)}])
    assert calls == ["highs"]
    assert abs(radius - Fraction(4, 3)) < 1e-9


def test_lp_agrees_with_midpoint_when_midpoint_is_covered():
    p0 = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    p1 = {1: Fraction(1, 8), 2: Fraction(7, 8)}
    mid = {k: (p0.get(k, Fraction(0)) + p1.get(k, Fraction(0))) / 2 for k in (0, 1, 2)}
    exact, _ = chebyshev_radius([p0, p1])
    via_lp, _ = chebyshev_radius([p0, p1, mid])
    assert abs(float(exact) - via_lp) < 1e-9


def test_radius_rejects_empty_input():
    with pytest.raises(ValueError):
        chebyshev_radius([])


@st.composite
def _simulator_cells(draw):
    """Cells of small rational distributions over three transcripts, with
    one, two, or three or more distinct ones, so the LP runs too.  A cell's
    rows are its own, one per member (as a PSM's) or one shared by every
    member (as a CDS input's); repeated distributions are the same object
    or an equal copy."""
    weights = st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any)
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        distinct = [
            {k: Fraction(w, sum(ws)) for k, w in enumerate(ws) if w}
            for ws in draw(st.lists(weights, min_size=1, max_size=4))
        ]
        picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=5))
        dists = [
            dict(distinct[i]) if draw(st.booleans()) else distinct[i] for i in picks
        ]
        shared = {"cell": len(cells)}
        rows = [shared] * len(dists) if draw(st.booleans()) else [{} for _ in dists]
        cells.append(list(zip(rows, dists)))
    return cells


@settings(max_examples=80, deadline=None)
@given(cells=_simulator_cells())
def test_simulator_fold_distances_and_delta(cells):
    delta = verifier.simulator_fold(cells)
    for cell in cells:
        dists = [d for _, d in cell]
        radius, center = chebyshev_radius(dists)
        exact = len({tuple(sorted(d.items())) for d in dists}) <= 2
        assert delta >= float(radius)
        for row, _ in cell:
            expected = max(float(verifier._l1(d, center)) for r, d in cell if r is row)
            assert delta >= row["simulator_distance"]
            if exact:
                assert row["simulator_distance"] == expected
            else:
                assert abs(row["simulator_distance"] - expected) < 1e-12
        for (row_a, d_a), (row_b, d_b) in itertools.combinations(cell, 2):
            if d_a == d_b and row_a is not row_b:
                assert row_a["simulator_distance"] == row_b["simulator_distance"]


def test_cds_rows_read_the_largest_distance_to_the_lp_centre():
    # four point distributions, one per 2-bit secret: the LP centre is
    # uniform over them, 3/2 from each
    p, f = double_secret(leak_in_clear()), constant_function(1, 0)
    report = cds_verify(p, f)
    assert abs(report.delta_hat - 1.5) < 1e-9
    for row in report.inputs:
        dists = [enumerate_message_distribution(p, row["x"], row["y"], s) for s in range(4)]
        radius, center = chebyshev_radius(dists)
        assert isinstance(radius, float)
        farthest = max(float(verifier._l1(d, center)) for d in dists)
        assert row["simulator_distance"] == farthest
        assert abs(row["simulator_distance"] - 1.5) < 1e-9


# ---------------------------------------------------------------------------
# classical verifiers
# ---------------------------------------------------------------------------

def test_neq_cds_verifies_perfectly():
    report = cds_verify(neq_cds(2), neq_function(2))
    assert report.epsilon_hat == 0.0
    assert report.delta_hat_lower == 0.0 and report.delta_hat_upper == 0.0
    assert report.delta_hat == 0.0
    assert report.passes()
    pairs = [(e["x"], e["y"]) for e in report.inputs]
    assert pairs == sorted(pairs) and len(set(pairs)) == 16


def test_cds_diagnostics_split_by_value():
    report = cds_verify(neq_cds(1), neq_function(1))
    for entry in report.inputs:
        if entry["value"] == 1:
            assert entry["decode_failure"] == 0.0
        else:
            assert entry["simulator_distance"] == 0.0


def test_leaking_the_secret_gives_delta_one():
    report = cds_verify(leak_in_clear(), constant_function(1, 0))
    assert report.delta_hat == 1.0
    assert report.epsilon_hat == 0.0  # no disclosing inputs at all
    assert not report.passes()


def test_ip_psm_verifies_perfectly():
    report = psm_verify(ip_psm(2), ip_function(2))
    assert report.epsilon_hat == 0.0
    assert report.delta_hat == 0.0
    assert len(report.inputs) == 16


def test_echo_psm_radius_is_four_thirds():
    report = psm_verify(echo_and_psm(), and_function())
    assert abs(report.delta_hat - 4 / 3) < 1e-9
    by_pair = {(e["x"], e["y"]): e["simulator_distance"] for e in report.inputs}
    assert by_pair[(1, 1)] == 0.0  # value-1 class has a single distribution
    for pair in ((0, 0), (0, 1), (1, 0)):
        assert abs(by_pair[pair] - 4 / 3) < 1e-9


@st.composite
def _table_psm_and_function(draw):
    """A one-bit PSM with lookup-table messages over a 3-letter alphabet and
    a random total function, so a value class may hold one, two or more
    distinct transcript distributions."""
    rb = draw(st.integers(0, 2))
    r_count = 1 << rb
    letters = st.lists(st.integers(0, 2), min_size=2 * r_count, max_size=2 * r_count)
    table_a, table_b = draw(letters), draw(letters)
    values = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
    p = PsmProtocol(
        n=1, randomness_bits=rb, value_alphabet=2,
        message_a=lambda x, r: table_a[x * r_count + r],
        message_b=lambda y, r: table_b[y * r_count + r],
        referee=lambda ma, mb: (ma + mb) & 1,
        message_bits_a=2, message_bits_b=2,
    )
    return p, PromiseFunction(1, lambda x, y: values[2 * x + y], "table")


@settings(max_examples=60, deadline=None)
@given(case=_table_psm_and_function())
def test_psm_distances_equal_the_fraction_l1_to_the_center(case):
    # one distance per distinct count table against one per pair
    p, f = case
    classes: dict = {}
    for x, y in f.promise_pairs():
        classes.setdefault(f.value(x, y), []).append((x, y))
    expected = {}
    for pairs in classes.values():
        dists = [enumerate_message_distribution(p, x, y) for x, y in pairs]
        _, center = chebyshev_radius(dists)
        for pair, dist in zip(pairs, dists):
            expected[pair] = float(verifier._l1(dist, center))
    report = psm_verify(p, f)
    assert {(e["x"], e["y"]): e["simulator_distance"] for e in report.inputs} == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_psm_verify_on_transcript_codes_equals_the_scalar_reference(n):
    # ip_psm's counts are keyed by transcript codes, the reference's by tuples
    p, f = ip_psm(n), ip_function(n)
    reference = dataclasses.replace(p, arrays=None)
    assert psm_verify(p, f).as_dict() == psm_verify(reference, f).as_dict()


def test_psm_inputs_cover_promise_once_in_order():
    report = psm_verify(echo_and_psm(), and_function())
    assert [(e["x"], e["y"]) for e in report.inputs] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# quantum verifier
# ---------------------------------------------------------------------------

def test_trivial_forwarding_is_perfectly_correct():
    report = cdqs_verify(trivial_forwarding(), always_one_function())
    assert report.epsilon_hat <= 1e-12
    assert report.delta_hat_upper == 0.0  # no hiding inputs exist
    assert all(e["value"] == 1 for e in report.inputs)


def test_unencrypted_choi_gap_is_three_halves():
    report = cdqs_verify(unencrypted(), always_zero_function())
    # || phi+ - pi (x) pi ||_1: eigenvalues 3/4 and three times -1/4
    assert abs(report.delta_hat_lower - 1.5) < 1e-9
    assert report.delta_hat_upper == 2.0
    assert not report.passes()


def test_gated_forwarding_verifies_perfectly():
    report = cdqs_verify(gated_forwarding(), gated_function())
    assert report.epsilon_hat <= 1e-9
    assert report.delta_hat_upper <= 1e-9


def test_lifted_neq_dense_path():
    report = cdqs_verify(lifted_neq(), lifted_neq_function())
    assert report.epsilon_hat <= 1e-9
    assert report.delta_hat_upper <= 1e-9
    assert len(report.inputs) == 4
    assert report.cost.comm_qubits >= 1


def test_hybrid_exact_transcript_path():
    report = cdqs_verify(HybridNeqCdqs(4), promise_neq_function(4))
    assert report.epsilon_hat == 0.0
    assert report.delta_hat_lower == 0.0 and report.delta_hat_upper == 0.0
    assert len(report.inputs) == 112  # 16 equal pairs + 16 * C(4,2) far pairs


def test_hybrid_large_domain_needs_explicit_inputs():
    p = HybridNeqCdqs(16)
    f = promise_neq_function(16)
    with pytest.raises(ValueError, match="explicit"):
        cdqs_verify(p, f)
    x = 0b1010101010101010
    report = cdqs_verify(p, f, inputs=[(x, x), (x, x ^ 0x00FF)])
    assert report.epsilon_hat == 0.0
    assert report.delta_hat_upper == 0.0


def test_out_of_promise_input_rejected():
    with pytest.raises(ValueError):
        cdqs_verify(gated_forwarding(), gated_function(), inputs=[(0, 1)])


def test_size_mismatch_rejected():
    # each pair would otherwise verify a sub-domain, or reach a verdict, in silence
    with pytest.raises(ValueError, match=r"n=4 .* n=2"):
        cds_verify(neq_cds(4), neq_function(2))
    with pytest.raises(ValueError, match=r"n=3 .* n=1"):
        psm_verify(ip_psm(3), ip_function(1))
    with pytest.raises(ValueError, match=r"n=8 .* n=4"):
        cdqs_verify(HybridNeqCdqs(8), promise_neq_function(4))
    with pytest.raises(ValueError, match=r"n=1 .* n=2"):
        productness_check(gated_forwarding(), neq_function(2))


def _nowhere_promised() -> PromiseFunction:
    return PromiseFunction(1, lambda x, y: None, "nowhere")


def test_cdqs_verify_refuses_an_empty_input_list():
    # a report over no input would read eps = delta = 0 and pass
    with pytest.raises(ValueError, match="no input"):
        cdqs_verify(HybridNeqCdqs(8), promise_neq_function(8), inputs=[])


def test_cds_verify_refuses_a_function_promised_nowhere():
    with pytest.raises(ValueError, match="no input"):
        cds_verify(neq_cds(1), _nowhere_promised())


def test_psm_verify_refuses_a_function_promised_nowhere():
    with pytest.raises(ValueError, match="no input"):
        psm_verify(ip_psm(1), _nowhere_promised())


def test_cdqs_verify_refuses_a_repeated_input():
    # the report would list (0, 0) twice
    with pytest.raises(ValueError, match="listed more than once"):
        cdqs_verify(lifted_neq(), lifted_neq_function(), inputs=[(0, 0), (0, 0)])


def test_depolarized_epsilon_grows_continuously():
    values = []
    for strength in (0.1, 0.2, 0.4):
        report = cdqs_verify(depolarized(trivial_forwarding(), strength), always_one_function())
        # entanglement fidelity is 1 - 3p/4, so the Choi gap is exactly 3p/2
        assert abs(report.epsilon_hat - 1.5 * strength) < 1e-9
        values.append(report.epsilon_hat)
    assert values[0] < values[1] < values[2]


def test_depolarized_lift_keeps_hiding():
    report = cdqs_verify(
        depolarized(lifted_neq(), 0.2), lifted_neq_function(), inputs=[(0, 0), (0, 1)]
    )
    assert abs(report.epsilon_hat - 0.3) < 1e-9
    assert report.delta_hat_upper <= 1e-9  # noise never hurts hiding


def test_leaky_interval_scales_with_strength():
    for strength, lower in ((0.0, 0.0), (0.5, 0.75), (1.0, 1.5)):
        report = cdqs_verify(leaky(strength), gated_function())
        assert abs(report.delta_hat_lower - lower) < 1e-9
        assert abs(report.delta_hat_upper - min(2.0, 2 * lower)) < 1e-9
        assert report.epsilon_hat <= 1e-9  # the x=1 branch still forwards


# ---------------------------------------------------------------------------
# productness
# ---------------------------------------------------------------------------

def test_productness_holds_for_every_shipped_toy():
    for protocol, function in toy_suite():
        checks = productness_check(protocol, function)
        assert checks and all(c["ok"] for c in checks)


def test_productness_entries_carry_the_right_witness():
    checks = productness_check(gated_forwarding(), gated_function())
    by_value = {c["value"]: c for c in checks}
    assert "distance" in by_value[0] and by_value[0]["distance"] <= by_value[0]["bound"]
    assert "fidelity" in by_value[1] and by_value[1]["fidelity"] >= by_value[1]["bound"]


def test_productness_hybrid_transcript_path():
    checks = productness_check(HybridNeqCdqs(4), promise_neq_function(4))
    assert len(checks) == 112
    assert all(c["ok"] for c in checks)
    ones = [c for c in checks if c["value"] == 1]
    assert ones and all(c["fidelity"] == 1.0 for c in ones)


def test_transcript_and_dense_pad_lifts_verify_alike():
    cases = [
        (double_secret(neq_cds(1)), neq_function(1)),
        (double_secret(and_cds()), and_function()),
    ]
    for key_cds, function in cases:
        exact = transcript_form(key_cds)
        dense = classical_to_quantum_lift(key_cds)
        exact_report = cdqs_verify(exact, function)
        dense_report = cdqs_verify(dense, function)
        assert len(exact_report.inputs) == len(dense_report.inputs) > 0
        for a, b in zip(exact_report.inputs, dense_report.inputs):
            assert a.keys() == b.keys()
            for key in a:
                assert abs(a[key] - b[key]) <= 1e-12, (a, b, key)
        for p in (exact, dense):
            checks = productness_check(p, function)
            assert checks and all(c["ok"] for c in checks)


# ---------------------------------------------------------------------------
# report object
# ---------------------------------------------------------------------------

def test_report_json_schema_and_determinism():
    report = cds_verify(neq_cds(1), neq_function(1), seed=7)
    doc = json.loads(json.dumps(report.as_dict()))
    assert sorted(doc) == [
        "cost", "delta_hat_lower", "delta_hat_upper", "epsilon_hat",
        "inputs", "n", "protocol", "seed", "wall_time_ms",
    ]
    assert doc["seed"] == 7
    assert doc["wall_time_ms"] is None
    assert doc["protocol"] == "neq_cds(1)"
    again = cds_verify(neq_cds(1), neq_function(1), seed=7)
    assert report.as_dict() == again.as_dict()


def test_report_rejects_out_of_range_estimates():
    cost = cds_verify(neq_cds(1), neq_function(1)).cost
    with pytest.raises(ValueError):
        VerificationReport("bad", 1, 3.0, 0.0, 0.0, (), cost)
    with pytest.raises(ValueError):
        VerificationReport("bad", 1, 0.0, 1.0, 0.5, (), cost)
