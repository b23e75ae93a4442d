"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
lines, or plain ``pytest`` as part of the full suite.
"""

import csv
import hashlib
import random
import statistics
import time

import pytest

from conftest import ping_run, video_run
from edgekpi import analyzer, emulator, kpis
from edgekpi.cli import main
from edgekpi.emulator import Workload
from edgekpi.model import ClockModel, RangeBand, Scenario, Tap, Tech, VideoConfig
from edgekpi.selftest import brute_force_percentile, run_selftest

#: README default configuration driving the acceptance sweep.
DEFAULT_CONFIG = """
[scenario]
tech = FIVE_G
range = EDGE
jitter_std = 0

[video]
encoder = MJPEG
resolution = VGA
fps = 20
duration_s = 5

[workload]
ping_interval_ms = 100
ping_count = 100
"""

_timings: dict[str, float] = {}


def _pass(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {message}")


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """The default five-scenario sweep, shared by criteria 6 and 10."""
    config = tmp_path_factory.mktemp("cfg") / "default.ini"
    config.write_text(DEFAULT_CONFIG)
    out = tmp_path_factory.mktemp("sweep")
    started = time.monotonic()
    assert main(["sweep", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
    _timings["sweep"] = time.monotonic() - started
    return out


def test_criterion_01_error_propagation():
    budget = kpis.propagate_error(0.387, 0.317, 0.117)
    assert budget.quadrature_ms == pytest.approx(0.5138, abs=0.0005)
    assert budget.linear_sum_ms == pytest.approx(0.821, abs=1e-9)
    _pass(1, f"quadrature {budget.quadrature_ms:.4f} ms, linear sum {budget.linear_sum_ms:.3f} ms")


def test_criterion_02_e2e_service_response_time():
    assert kpis.e2e_srt(61.7, 20.3, 5.0) == 87.0
    _pass(2, "e2e_srt(61.7, 20.3, 5) = 87.0 ms exactly")


def test_criterion_03_velocity_table():
    table = [(89.31, 40.31), (91.30, 39.43), (95.49, 37.70),
             (102.30, 35.19), (104.32, 34.51)]
    for srt_ms, expected_kmh in table:
        got = kpis.velocity(1.0, srt_ms)
        assert got == pytest.approx(expected_kmh, abs=0.01), (srt_ms, got)
    _pass(3, "all five scenario velocities reproduced to within 0.01 km/h")


def test_criterion_04_srtt_recurrence():
    fixture = [10.0, 20.0, 20.0, 40.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    # hand-computed with exact rational arithmetic at gain 1/8
    expected = [10.0, 11.25, 12.34375, 15.80078125, 15.07568359375,
                14.44122314453125, 13.886070251464844, 13.400311470031738,
                12.975272536277771, 12.60336346924305]
    got = analyzer.srtt(fixture, alpha=0.125)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-9)
    _pass(4, "smoothing recurrence matches the hand-computed series to 1e-9 ms")


def test_criterion_05_delay_recovery():
    started = time.monotonic()
    # deterministic phase: exact recovery of the configured one-way delays
    result = emulator.run(ping_run(count=100, interval_ms=20.0))
    rtt = analyzer.rtt_control(result.records[Tap.UE])
    owd = analyzer.owd_packet(result.records[Tap.UE], result.records[Tap.APP])
    assert len(rtt.values_ms) == 100 and len(owd.values_ms) == 100
    for v in rtt.values_ms:
        assert v == pytest.approx(15.0, abs=0.001)  # +-1 us
    for v in owd.values_ms:
        assert v == pytest.approx(10.0, abs=0.001)

    # statistical phase: noisy clocks, batch offset correction
    noisy = emulator.run(ping_run(count=1000, interval_ms=100.0, clocks=ClockModel(), seed=5))
    estimates = analyzer.estimate_offsets(noisy.ntp)
    corrected = analyzer.owd_packet(noisy.records[Tap.UE], noisy.records[Tap.APP],
                                    offsets={n: e.mean_ms for n, e in estimates.items()})
    assert len(corrected.values_ms) >= 1000
    sigma_q = kpis.propagate_error(0.387, 0.317, 0.117).quadrature_ms
    mean_err = abs(statistics.fmean(corrected.values_ms) - 10.0)
    assert mean_err <= 3 * sigma_q
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _pass(5, f"RTT 15.000 ms, OWD 10.000 ms exact; noisy mean error "
             f"{mean_err:.3f} ms <= {3 * sigma_q:.3f} ms ({elapsed:.1f} s)")


def test_criterion_06_scenario_monotonicity(sweep_dir):
    lines = (sweep_dir / "comparison.csv").read_text(encoding="utf-8").splitlines()
    rows = {r["scenario"]: r for r in csv.DictReader(lines)}
    assert len(rows) == 5
    classes = ("ctrl_median_ms", "stream_packet_median_ms", "stream_frame_median_ms")
    steps = (("5g_edge", "5g_regional"), ("5g_regional", "5g_national"),
             ("4g_regional", "4g_national"))
    for cls in classes:
        for lo, hi in steps:
            # round-trip metrics shift by the added one-way delay twice
            per_direction = (float(rows[hi][cls]) - float(rows[lo][cls])) / 2.0
            assert per_direction == pytest.approx(2.0, abs=0.2), (cls, lo, hi, per_direction)
        worst_5g = max(float(rows[s][cls]) for s in ("5g_edge", "5g_regional", "5g_national"))
        best_4g = min(float(rows[s][cls]) for s in ("4g_regional", "4g_national"))
        assert worst_5g < best_4g, cls
    _pass(6, f"median shift 2.0 ms/direction per range step, all 5G below all 4G "
             f"(sweep {_timings['sweep']:.1f} s)")


def test_criterion_07_frame_accounting_and_availability():
    started = time.monotonic()
    # exactly 20 frames in a 1 s, 20 fps terminated stream
    result = emulator.run(video_run(duration_s=1.0, fps=20, cv=0.1, seed=71))
    frames = analyzer.segment_frames(analyzer.reassemble(result.records[Tap.UE]))
    assert len(frames) == 20
    assert all(f.complete for f in frames)

    # zero loss -> availability 100.0
    a0 = analyzer.analyze_captures(result.records[Tap.UE], result.records[Tap.CORE],
                                   result.records[Tap.APP])
    p0 = a0.samples["OWD-packet"]
    assert kpis.availability(len(p0) + p0.excluded, len(p0)) == 100.0

    # 1% Bernoulli loss over ~10k packets -> availability 99.0 +- 0.5
    scenario = Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE, loss_prob=0.01)
    lossy_cfg = emulator.EmulationRun(
        scenario=scenario, workload=Workload(ping_count=0, bulk_duration_s=1.05),
        clocks=ClockModel.perfect(), seed=72)
    lossy = emulator.run(lossy_cfg)
    al = analyzer.analyze_captures(lossy.records[Tap.UE], lossy.records[Tap.CORE],
                                   lossy.records[Tap.APP])
    pl = al.samples["OWD-packet"]
    sent = len(pl) + pl.excluded
    assert sent >= 10_000
    avail = kpis.availability(sent, len(pl))
    assert avail == pytest.approx(99.0, abs=0.5)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass(7, f"20 frames exactly; availability 100.0 at zero loss, "
             f"{avail:.2f}% over {sent} packets at 1% loss ({elapsed:.1f} s)")


def test_criterion_08_reliability_percentile():
    rng = random.Random(808)
    for _ in range(50):
        n = rng.randint(1, 500)
        samples = [rng.uniform(0, 250) for _ in range(n)]
        for p in (0.5, 0.9, 0.95, 0.99, 1.0):
            assert kpis.latency_at(samples, p) == brute_force_percentile(samples, p)
    _pass(8, "latency_at(p) equals the sorted order statistic on 50 randomized sets")


def test_criterion_09_throughput_verdicts_and_queue_growth():
    from edgekpi.model import Encoder, Resolution

    started = time.monotonic()
    vga = kpis.demanded_throughput(VideoConfig(encoder=Encoder.MJPEG, resolution=Resolution.VGA))
    d1 = kpis.demanded_throughput(VideoConfig(encoder=Encoder.MJPEG, resolution=Resolution.D1))
    hd = kpis.demanded_throughput(VideoConfig(encoder=Encoder.MJPEG, resolution=Resolution.HD))
    assert vga < 32.2
    assert 32.2 < d1 <= 54.6
    assert hd > 32.2

    # HD-MJPEG pushed through the 4G cap: unbounded queue, per-frame OWD grows
    overload = emulator.run(video_run(
        duration_s=3.0, fps=20, mean_frame_bytes=340_000, cv=0.1,
        tech=Tech.FOUR_G, range_band=RangeBand.REGIONAL,
        base_up=20.0, base_down=10.0, seed=91))
    _, owd = analyzer.frame_samples(overload.records[Tap.UE], overload.records[Tap.APP])
    assert len(owd.values_ms) >= 50
    assert all(b > a for a, b in zip(owd.values_ms, owd.values_ms[1:]))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass(9, f"demand VGA {vga:.1f} < 32.2 < D1 {d1:.1f}, HD {hd:.1f}; "
             f"overloaded frame OWD grew {owd.values_ms[0]:.0f} -> {owd.values_ms[-1]:.0f} ms "
             f"({elapsed:.1f} s)")


def test_criterion_10_determinism_and_runtime(tmp_path, sweep_dir):
    config = tmp_path / "run.ini"
    config.write_text(DEFAULT_CONFIG.replace("duration_s = 5", "duration_s = 1"))
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["simulate", "--config", str(config), "--seed", "99",
                     "--out", str(out)]) == 0
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir())})
    assert digests[0] == digests[1]

    started = time.monotonic()
    results = run_selftest()
    selftest_s = time.monotonic() - started
    assert all(r.ok for r in results)
    total = selftest_s + _timings["sweep"]
    assert total < 60.0
    _pass(10, f"byte-identical reruns; selftest + sweep in {total:.1f} s (< 60 s)")
