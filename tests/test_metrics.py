import math

import pytest
from hypothesis import given, strategies as st

from gateforge.metrics import (
    DegenerateCircuitError,
    MetricWeights,
    SampleStats,
    VERDICT_ACCEPT,
    VERDICT_EFFICIENCY,
    VERDICT_FUNCTIONAL,
    classify_tier,
    dual_reward,
    measure,
    pass_at_k,
    sei_benchmark,
    sei_task,
)
from gateforge.netlist import StructuralReport
from gateforge.simulator import SimOutcome


# Published reference rows: (gate count, delay) -> index to 4 decimals.
REFERENCE_ROWS = [
    (96, 12, 0.0093),
    (13, 8, 0.0476),
    (8, 2, 0.1000),
    (96, 12, 0.0093),
    (101, 16, 0.0085),
    (34, 8, 0.0238),
]


@pytest.mark.parametrize("g,d,expected", REFERENCE_ROWS)
def test_sei_reference_rows(g, d, expected):
    assert round(sei_task(g, d), 4) == expected


def test_sei_degenerate_circuit():
    with pytest.raises(DegenerateCircuitError):
        sei_task(0, 0)


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        MetricWeights(alpha=0)
    with pytest.raises(ValueError):
        MetricWeights(epsilon=0)


@given(st.integers(1, 300), st.integers(0, 100), st.floats(0.1, 10))
def test_sei_strictly_decreasing_in_g_and_d(g, d, scale):
    w = MetricWeights()
    assert sei_task(g + 1, d, w) < sei_task(g, d, w)
    assert sei_task(g, d + 1, w) < sei_task(g, d, w)
    # uniform weight scaling rescales the index but never reorders designs
    sw = MetricWeights(alpha=scale, beta=scale)
    a, b = sei_task(g, d, sw), sei_task(g + 3, d + 1, sw)
    a0, b0 = sei_task(g, d), sei_task(g + 3, d + 1)
    assert (a > b) == (a0 > b0)
    assert a == pytest.approx(a0 / scale)


def test_benchmark_equal_values_is_identity():
    assert sei_benchmark([0.1, 0.1, 0.1]) == pytest.approx(0.1)


def test_benchmark_one_failed_task():
    # sqrt(0.1 * 1e-5) = 1e-3
    assert sei_benchmark([0.1, None]) == pytest.approx(1.0e-3, rel=1e-12)


def test_benchmark_all_failed_hits_the_floor():
    assert sei_benchmark([None, None, None]) == pytest.approx(1e-5)


def test_benchmark_rejects_empty():
    with pytest.raises(ValueError):
        sei_benchmark([])


def test_benchmark_singleton_equals_task_value():
    assert sei_benchmark([0.0467]) == pytest.approx(0.0467)


@given(st.lists(st.one_of(st.none(), st.floats(1e-6, 10)), min_size=1,
                max_size=12),
       st.randoms(use_true_random=False))
def test_benchmark_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert sei_benchmark(shuffled) == pytest.approx(sei_benchmark(values))
    assert sei_benchmark(values) >= 1e-5 - 1e-18


def test_pass_at_k_all_correct():
    assert pass_at_k(SampleStats(20, 20, 1)) == 1.0


def test_pass_at_k_none_correct():
    assert pass_at_k(SampleStats(20, 0, 5)) == 0.0


def test_pass_at_k_half_correct_k1():
    # 1 - C(10,1)/C(20,1) = 1 - 10/20
    assert pass_at_k(SampleStats(20, 10, 1)) == pytest.approx(0.5)


def test_pass_at_k_matches_direct_combinatorics():
    for n, c, k in [(20, 5, 3), (20, 19, 2), (10, 4, 4), (7, 3, 7)]:
        direct = 1.0 - (math.comb(n - c, k) / math.comb(n, k)
                        if n - c >= k else 0.0)
        assert pass_at_k(SampleStats(n, c, k)) == pytest.approx(direct)


def test_pass_at_k_input_validation():
    with pytest.raises(ValueError):
        SampleStats(10, 11, 1)
    with pytest.raises(ValueError):
        SampleStats(10, 5, 0)
    with pytest.raises(ValueError):
        SampleStats(10, 5, 11)


@given(st.integers(1, 40), st.data())
def test_pass_at_k_monotonicity(n, data):
    c = data.draw(st.integers(0, n))
    k = data.draw(st.integers(1, n))
    p = pass_at_k(SampleStats(n, c, k))
    assert 0.0 <= p <= 1.0
    if k < n:
        assert pass_at_k(SampleStats(n, c, k + 1)) >= p - 1e-12
    if c < n:
        assert pass_at_k(SampleStats(n, c + 1, k)) >= p - 1e-12


# -- tier classification ------------------------------------------------------

def test_tier_published_examples():
    assert classify_tier(0.115).tier == "top"
    assert classify_tier(0.088).tier == "low"
    assert classify_tier(0.0).tier == "below"


def test_tier_boundary_belongs_to_the_upper_band():
    v = classify_tier(0.0951)
    assert v.tier == "top" and not v.in_gap
    v = classify_tier(0.0905)
    assert v.tier == "mid" and not v.in_gap


def test_tier_above_top_band_is_still_top():
    v = classify_tier(0.5)
    assert v.tier == "top" and not v.in_gap


def test_tier_gap_value_assigned_downward_and_flagged():
    v = classify_tier(0.094)  # between mid upper 0.0924 and top lower 0.0951
    assert v.tier == "mid"
    assert v.in_gap


def test_tier_rejects_negative():
    with pytest.raises(ValueError):
        classify_tier(-0.1)


# -- dual reward --------------------------------------------------------------

def _report(g, d, regs=0):
    return StructuralReport(gate_count=g, delay=d, register_count=regs)


def test_dual_reward_functional_failure():
    outcome = SimOutcome(passed=3, failed=1)
    r = dual_reward(outcome, _report(5, 3))
    assert r.verdict == VERDICT_FUNCTIONAL
    assert r.efficiency is None
    assert r.correctness == 0.75


def test_dual_reward_accept_at_reference():
    outcome = SimOutcome(passed=4, failed=0)
    r = dual_reward(outcome, _report(8, 2), reference_sei=0.1)
    assert r.verdict == VERDICT_ACCEPT
    assert r.efficiency == pytest.approx(1.0)


def test_dual_reward_inefficient_design_gets_efficiency_feedback():
    outcome = SimOutcome(passed=4, failed=0)
    r = dual_reward(outcome, _report(96, 12), reference_sei=0.1)
    assert r.verdict == VERDICT_EFFICIENCY
    assert r.efficiency == pytest.approx(0.0926, abs=5e-5)


def test_dual_reward_without_reference_accepts():
    outcome = SimOutcome(passed=4, failed=0)
    r = dual_reward(outcome, _report(5, 3))
    assert r.verdict == VERDICT_ACCEPT
    assert r.efficiency == pytest.approx(1.0 / 8.0)


def test_dual_reward_register_weight_is_configurable():
    outcome = SimOutcome(passed=1, failed=0)
    w = MetricWeights(dff_weight=0.5)
    r = dual_reward(outcome, _report(4, 1, regs=2), weights=w)
    # effective G = 2 + 0.5*2 = 3, so the index is 1/(3+1)
    assert r.efficiency == pytest.approx(0.25)


@given(st.integers(0, 200), st.integers(0, 50), st.data(),
       st.floats(0.1, 10), st.floats(0.1, 10), st.floats(0, 4),
       st.floats(1e-3, 1))
def test_measure_is_the_index_behind_dual_reward(g, d, data, alpha, beta,
                                                 dff_weight, reference_sei):
    r = data.draw(st.integers(0, g))
    w = MetricWeights(alpha=alpha, beta=beta, dff_weight=dff_weight)
    report = _report(g, d, regs=r)
    gates = g - r + dff_weight * r
    index = measure(report, w)
    # G is the weighted count: with dff_weight > 0 it is zero only when the
    # design has no gates at all.
    assert (index is None) == (gates == 0 and d == 0)
    if dff_weight > 0:
        assert (index is None) == (g == 0 and d == 0)
    if index is not None:
        assert index == sei_task(gates, d, w)
    outcome = SimOutcome(passed=1, failed=0)
    reward = dual_reward(outcome, report, reference_sei, w)
    assert reward.efficiency == (None if index is None
                                 else index / reference_sei)
    assert dual_reward(outcome, report, None, w).efficiency == index


def test_measure_of_a_wire_only_design_is_none():
    assert measure(_report(0, 0)) is None
    # Registers that weigh nothing leave nothing to score either.
    assert measure(_report(2, 0, regs=2), MetricWeights(dff_weight=0)) is None
    assert measure(_report(2, 0, regs=2)) == pytest.approx(0.5)
