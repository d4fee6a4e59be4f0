"""Scoring: efficiency index, benchmark aggregation, pass@k, tier bands.

The solution efficiency index of a functionally correct design is
1 / (alpha * G + beta * D) where D is critical path delay and G is the
weighted gate count: a design with g gates, r of them registers, has
G = g - r + dff_weight * r. Higher is better. `measure` is the one place a
design's index is computed. Benchmark-level aggregation uses the geometric
mean with failed tasks floored at epsilon so the logarithm stays defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .netlist import StructuralReport
from .simulator import SimOutcome


class DegenerateCircuitError(ValueError):
    """Raised for G = D = 0: there is no structure to score."""


@dataclass(frozen=True)
class MetricWeights:
    alpha: float = 1.0
    beta: float = 1.0
    epsilon: float = 1e-5
    # Registers weigh like any gate by default; the delay model already
    # assigns them zero delay.
    dff_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0 or self.epsilon <= 0:
            raise ValueError("alpha, beta and epsilon must be positive")
        if self.dff_weight < 0:
            raise ValueError("dff_weight must be >= 0")


DEFAULT_WEIGHTS = MetricWeights()


@dataclass(frozen=True)
class SampleStats:
    """n samples per task, c of them correct, k selected."""

    n: int
    c: int
    k: int

    def __post_init__(self) -> None:
        if not 0 <= self.c <= self.n:
            raise ValueError("need 0 <= c <= n")
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")


# Default human reference bands: (lower, upper) benchmark index per tier.
# The band list is ordered best tier first; gaps between bands are possible
# and classified conservatively (see classify_tier).
TIER_BANDS: dict[str, tuple[float, float]] = {
    "top": (0.0951, 0.1252),
    "mid": (0.0905, 0.0924),
    "low": (0.0851, 0.0905),
}


@dataclass(frozen=True)
class TierVerdict:
    tier: str                 # top | mid | low | below
    benchmark_sei: float
    bands: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(TIER_BANDS))
    in_gap: bool = False


@dataclass(frozen=True)
class DualReward:
    """Correctness score plus, for fully correct designs, efficiency."""

    correctness: float
    efficiency: float | None
    verdict: str  # functional-feedback | efficiency-feedback | accept


VERDICT_FUNCTIONAL = "functional-feedback"
VERDICT_EFFICIENCY = "efficiency-feedback"
VERDICT_ACCEPT = "accept"


@dataclass(frozen=True)
class EvalResult:
    """Scores for a single candidate netlist against one task."""

    correctness: float
    gate_count: int
    delay: int
    sei: float | None


def sei_task(gate_count: float, delay: float,
             weights: MetricWeights = DEFAULT_WEIGHTS) -> float:
    """Efficiency index of one design: 1 / (alpha*G + beta*D)."""
    if gate_count < 0 or delay < 0:
        raise ValueError("gate count and delay must be non-negative")
    if gate_count == 0 and delay == 0:
        raise DegenerateCircuitError("degenerate circuit: no gates, no delay")
    return 1.0 / (weights.alpha * gate_count + weights.beta * delay)


def measure(report: StructuralReport,
            weights: MetricWeights = DEFAULT_WEIGHTS) -> float | None:
    """Efficiency index of a design over its weighted gate count; None when
    that count and the delay are both zero (a wire-only design)."""
    registers = report.register_count
    gates = report.gate_count - registers + weights.dff_weight * registers
    if gates == 0 and report.delay == 0:
        return None
    return sei_task(gates, report.delay, weights)


def sei_benchmark(task_seis: list[float | None],
                  weights: MetricWeights = DEFAULT_WEIGHTS) -> float:
    """Geometric mean over tasks; None means failed and scores 0.

    Every term is floored at epsilon before the logarithm, so an all-failed
    benchmark scores exactly epsilon.
    """
    if not task_seis:
        raise ValueError("sei_benchmark needs at least one task")
    total = 0.0
    for s in task_seis:
        v = 0.0 if s is None else s
        total += math.log(max(v, weights.epsilon))
    return math.exp(total / len(task_seis))


def pass_at_k(stats: SampleStats) -> float:
    """Unbiased estimate 1 - C(n-c, k)/C(n, k) in overflow-safe form."""
    n, c, k = stats.n, stats.c, stats.k
    if n - c < k:
        return 1.0
    prod = 1.0
    for i in range(n - c + 1, n + 1):
        prod *= 1.0 - k / i
    return 1.0 - prod


def classify_tier(benchmark_sei: float) -> TierVerdict:
    """Map a benchmark index onto the human reference bands, TIER_BANDS.

    Values above the best band's upper bound still classify as that band.
    Values falling in a gap between bands are assigned to the band below
    the gap and flagged, which avoids overclaiming the higher tier.
    """
    if benchmark_sei < 0:
        raise ValueError("benchmark index must be >= 0")
    bands = dict(TIER_BANDS)
    ordered = sorted(bands.items(), key=lambda kv: kv[1][0], reverse=True)
    for rank, (tier, (lower, upper)) in enumerate(ordered):
        if benchmark_sei < lower:
            continue
        if rank == 0 or benchmark_sei <= upper:
            return TierVerdict(tier, benchmark_sei, bands, in_gap=False)
        # Above this band's upper bound but below the next band's lower
        # bound: in the gap, assigned downward.
        return TierVerdict(tier, benchmark_sei, bands, in_gap=True)
    return TierVerdict("below", benchmark_sei, bands, in_gap=False)


def dual_reward(outcome: SimOutcome, report: StructuralReport,
                reference_sei: float | None = None,
                weights: MetricWeights = DEFAULT_WEIGHTS,
                accept_threshold: float = 1.0) -> DualReward:
    """Score one simulated candidate and pick the feedback path.

    Efficiency is only defined for fully correct designs. With a reference
    index it is the ratio candidate/reference, accepted at or above
    accept_threshold; without a reference the raw index is reported and the
    design is accepted (there is no basis for demanding more).
    """
    correctness = outcome.correctness
    if correctness < 1.0:
        return DualReward(correctness, None, VERDICT_FUNCTIONAL)
    raw = measure(report, weights)
    if raw is None:
        # Nothing to optimize on a wire-only design.
        return DualReward(correctness, None, VERDICT_ACCEPT)
    if reference_sei is None:
        return DualReward(correctness, raw, VERDICT_ACCEPT)
    efficiency = raw / reference_sei
    if efficiency >= accept_threshold - 1e-12:
        return DualReward(correctness, efficiency, VERDICT_ACCEPT)
    return DualReward(correctness, efficiency, VERDICT_EFFICIENCY)
