"""Built-in oracle battery: quick end-to-end checks with independently
computed expected values, runnable from the CLI as a smoke test."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import analyzer, emulator, kpis
from .model import ClockModel, RangeBand, Scenario, Tap, Tech

#: RTT fixture (ms) for the smoothing-recurrence check.
SRTT_FIXTURE_MS = (10.0, 20.0, 20.0, 40.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0)

#: Reference service-response times (ms) and the speed bounds they imply
#: for a one-metre reaction distance.
VELOCITY_TABLE = (
    ("5g_edge", 89.31, 40.31),
    ("5g_regional", 91.30, 39.43),
    ("5g_national", 95.49, 37.70),
    ("4g_regional", 102.30, 35.19),
    ("4g_national", 104.32, 34.51),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def check_delay_recovery() -> CheckResult:
    """Configured one-way delays must be recovered exactly from captures."""
    scenario = Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE,
                        base_owd_up=10.0, base_owd_down=5.0, jitter_std=0.0)
    run_cfg = emulator.EmulationRun(
        scenario=scenario,
        workload=emulator.Workload(ping_interval_ms=20.0, ping_count=50),
        clocks=ClockModel.perfect(),
        seed=7,
    )
    result = emulator.run(run_cfg)
    rtt = analyzer.rtt_control(result.records[Tap.UE])
    owd = analyzer.owd_packet(result.records[Tap.UE], result.records[Tap.APP])
    bad_rtt = [v for v in rtt.values_ms if abs(v - 15.0) > 0.001]
    bad_owd = [v for v in owd.values_ms if abs(v - 10.0) > 0.001]
    ok = len(rtt.values_ms) == 50 and not bad_rtt and len(owd.values_ms) == 50 and not bad_owd
    return CheckResult(
        "delay-recovery", ok,
        f"50 pings: RTT 15 ms ({len(bad_rtt)} off), OWD 10 ms ({len(bad_owd)} off)")


def check_srtt_recurrence(alpha: float = 0.125) -> CheckResult:
    """Implementation must match an exact-arithmetic evaluation of the
    smoothing recurrence at gain 1/8."""
    expected = []
    s = Fraction(int(SRTT_FIXTURE_MS[0]))
    expected.append(float(s))
    for r in SRTT_FIXTURE_MS[1:]:
        s = (1 - Fraction(1, 8)) * s + Fraction(1, 8) * Fraction(int(r))
        expected.append(float(s))
    got = analyzer.srtt(SRTT_FIXTURE_MS, alpha)
    worst = max(abs(g - e) for g, e in zip(got, expected))
    ok = len(got) == len(expected) and worst <= 1e-9
    return CheckResult("srtt-recurrence", ok, f"max deviation {worst:.3g} ms (tolerance 1e-9)")


def brute_force_percentile(samples, p: float) -> float:
    """Order-statistic percentile by linear counting over the sorted data."""
    ordered = sorted(samples)
    n = len(ordered)
    for idx, value in enumerate(ordered, start=1):
        if idx >= p * n - 1e-9:
            return value
    return ordered[-1]


def check_percentiles() -> CheckResult:
    """Percentiles must equal brute-force sorted order statistics."""
    rng = random.Random(2024)
    sets = 50
    failures = 0
    for _ in range(sets):
        n = rng.randint(1, 400)
        samples = [rng.uniform(0, 100) for _ in range(n)]
        for p in (0.05, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            if kpis.latency_at(samples, p) != brute_force_percentile(samples, p):
                failures += 1
    return CheckResult("percentile-order-statistics", failures == 0,
                       f"{sets} randomized sample sets, {failures} mismatches")


def check_error_propagation() -> CheckResult:
    budget = kpis.propagate_error(0.387, 0.317, 0.117)
    ok = abs(budget.quadrature_ms - 0.5138) <= 0.0005 and abs(budget.linear_sum_ms - 0.821) <= 1e-9
    return CheckResult("error-propagation", ok,
                       f"quadrature {budget.quadrature_ms:.4f} ms, linear {budget.linear_sum_ms:.3f} ms")


def check_velocity_roundtrip() -> CheckResult:
    worst = 0.0
    for _, srt_ms, kmh in VELOCITY_TABLE:
        worst = max(worst, abs(kpis.velocity(1.0, srt_ms) - kmh))
    return CheckResult("velocity-roundtrip", worst <= 0.01,
                       f"worst deviation {worst:.4f} km/h over {len(VELOCITY_TABLE)} scenarios")


def run_selftest() -> list[CheckResult]:
    """Run the full battery."""
    return [
        check_delay_recovery(),
        check_srtt_recurrence(),
        check_percentiles(),
        check_error_propagation(),
        check_velocity_roundtrip(),
    ]
