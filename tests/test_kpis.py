"""KPI math: distributions, availability/reliability, error propagation,
service response time, velocity, throughput demand and report assembly."""

import dataclasses
import math
import random

import pytest

from conftest import ping_run, video_run
from edgekpi import emulator
from edgekpi.analyzer import LATENCY_CLASSES, InsufficientDataError, analyze_captures
from edgekpi.kpis import (
    ReportOptions,
    availability,
    boxplot_stats,
    build_report,
    demanded_throughput,
    e2e_srt,
    ecdf,
    improvement_pct,
    latency_at,
    propagate_error,
    reliability,
    report_rows,
    velocity,
    write_report_csv,
    write_report_ndjson,
)
from edgekpi.model import Encoder, Resolution, Tap, VideoConfig
from edgekpi.selftest import brute_force_percentile


class TestEcdf:
    def test_single_sample_step(self):
        dist = ecdf([5.0])
        assert dist.values == (5.0,)
        assert dist.probs == (1.0,)

    def test_duplicates_merge(self):
        dist = ecdf([1.0, 1.0, 2.0])
        assert dist.values == (1.0, 2.0)
        assert dist.cum_counts == (2, 3)
        probs = dist.probs
        assert all(b > a for a, b in zip(probs, probs[1:]))
        assert probs[-1] == 1.0
        assert [dist.prob_at(x) for x in (0.5, 1.0, 1.5, 2.0, 3.0)] == [0.0, 2 / 3, 2 / 3, 1.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])


class TestLatencyAt:
    def test_single_sample(self):
        assert latency_at([5.0], 0.95) == 5.0

    def test_order_statistic_on_1_to_100(self):
        samples = list(range(1, 101))
        assert latency_at(samples, 0.95) == 95
        assert latency_at(samples, 1.0) == 100
        assert latency_at(samples, 0.01) == 1

    def test_percentile_monotone_in_p(self):
        rng = random.Random(12)
        for _ in range(20):
            samples = [rng.uniform(0, 50) for _ in range(rng.randint(1, 200))]
            grid = [i / 100 for i in range(1, 101)]
            values = [latency_at(samples, p) for p in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_brute_force_everywhere(self):
        rng = random.Random(13)
        for _ in range(50):
            samples = [rng.uniform(0, 100) for _ in range(rng.randint(1, 300))]
            for p in (0.05, 0.33, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0):
                assert latency_at(samples, p) == brute_force_percentile(samples, p)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_at([], 0.95)

    def test_p_range(self):
        with pytest.raises(ValueError):
            latency_at([1.0], 0.0)
        with pytest.raises(ValueError):
            latency_at([1.0], 1.1)

    def test_inverts_the_ecdf(self):
        # latency_at(s, p) is the smallest sample value whose ECDF reaches p,
        # so the report's percentiles are read off the CDF plot's steps
        rng = random.Random(17)
        for _ in range(50):
            samples = [round(rng.uniform(0, 100), rng.choice((0, 1, 3)))
                       for _ in range(rng.randint(1, 300))]
            dist = ecdf(samples)
            for p in (0.01, 0.25, 0.29, 0.5, 0.75, 0.95, 0.995, 1.0, rng.uniform(0.001, 1.0)):
                k = dist.values.index(latency_at(samples, p))
                assert dist.prob_at(dist.values[k]) >= p
                assert k == 0 or dist.prob_at(dist.values[k - 1]) < p


class TestBoxplot:
    def test_constant_samples(self):
        stats = boxplot_stats([3.0, 3.0, 3.0])
        assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) == (3, 3, 3, 3, 3)
        assert stats.outliers == ()

    def test_outlier_flagged(self):
        stats = boxplot_stats([1, 2, 3, 4, 100])
        # nearest-rank quartiles: q1=2, q3=4, fences at [-1, 7]
        assert stats.q1 == 2 and stats.q3 == 4
        assert stats.outliers == (100,)
        assert stats.whisker_hi == 4
        assert stats.maximum == 100

    def test_even_count_median_is_nearest_rank(self):
        stats = boxplot_stats([1, 2, 3, 4])
        assert (stats.q1, stats.median, stats.q3) == (1, 2, 3)

    def test_quartiles_are_latency_at(self):
        rng = random.Random(18)
        for _ in range(50):
            samples = [round(rng.gauss(20, 5), rng.choice((0, 2)))
                       for _ in range(rng.randint(1, 300))]
            stats = boxplot_stats(samples)
            assert (stats.q1, stats.median, stats.q3) == tuple(
                latency_at(samples, p) for p in (0.25, 0.5, 0.75))

    def test_whiskers_within_fences(self):
        rng = random.Random(14)
        samples = [rng.gauss(10, 2) for _ in range(500)]
        stats = boxplot_stats(samples)
        iqr = stats.q3 - stats.q1
        assert stats.whisker_lo >= stats.q1 - 1.5 * iqr
        assert stats.whisker_hi <= stats.q3 + 1.5 * iqr
        for v in stats.outliers:
            assert v < stats.q1 - 1.5 * iqr or v > stats.q3 + 1.5 * iqr

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([])


class TestAvailability:
    def test_full_delivery(self):
        assert availability(1000, 1000) == 100.0

    def test_partial(self):
        assert availability(1000, 990) == 99.0

    def test_none_delivered(self):
        assert availability(1, 0) == 0.0

    def test_all_n(self):
        for n in (1, 7, 1000):
            assert availability(n, n) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            availability(0, 0)
        with pytest.raises(ValueError):
            availability(10, 11)
        with pytest.raises(ValueError):
            availability(10, -1)


class TestReliability:
    def test_all_within_bound(self):
        assert reliability([10.0] * 8, 20.0) == 1.0

    def test_counting(self):
        assert reliability(list(range(1, 101)), 50) == 0.50

    def test_latency_at_order_statistic(self):
        assert latency_at(list(range(1, 101)), 0.95) == 95

    def test_monotone_in_bound(self):
        rng = random.Random(15)
        samples = [rng.uniform(0, 100) for _ in range(200)]
        fractions = [reliability(samples, b) for b in range(0, 110, 5)]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reliability([], 1.0)


class TestPropagateError:
    def test_zero(self):
        budget = propagate_error(0, 0, 0)
        assert budget.quadrature_ms == 0.0
        assert budget.linear_sum_ms == 0.0

    def test_measured_node_sigmas(self):
        budget = propagate_error(0.387, 0.317, 0.117)
        assert budget.quadrature_ms == pytest.approx(0.5138, abs=0.0005)
        assert budget.linear_sum_ms == pytest.approx(0.821, abs=1e-9)

    def test_quadrature_never_exceeds_linear_sum(self):
        rng = random.Random(16)
        for _ in range(100):
            sigmas = [rng.uniform(0, 2) for _ in range(3)]
            budget = propagate_error(*sigmas)
            assert budget.quadrature_ms <= budget.linear_sum_ms + 1e-12

    def test_equality_iff_single_nonzero(self):
        budget = propagate_error(0.5, 0, 0)
        assert budget.quadrature_ms == pytest.approx(budget.linear_sum_ms)
        budget = propagate_error(0.5, 0.1, 0)
        assert budget.quadrature_ms < budget.linear_sum_ms

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            propagate_error(-0.1, 0, 0)


class TestE2eSrt:
    def test_reference_sum(self):
        assert e2e_srt(61.7, 20.3, 5.0) == pytest.approx(87.0, abs=1e-9)

    def test_zero(self):
        assert e2e_srt(0, 0, 0) == 0.0

    def test_plain_sum(self):
        assert e2e_srt(10, 20.3, 5) == pytest.approx(35.3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            e2e_srt(-1, 0, 0)


class TestVelocity:
    def test_zero_distance(self):
        assert velocity(0.0, 50.0) == 0.0

    @pytest.mark.parametrize("srt_ms,expected", [
        (89.31, 40.31), (91.30, 39.43), (95.49, 37.70), (102.30, 35.19), (104.32, 34.51)])
    def test_reference_speed_table(self, srt_ms, expected):
        assert velocity(1.0, srt_ms) == pytest.approx(expected, abs=0.01)

    def test_monotone_decreasing_in_each_component(self):
        base = velocity(1.0, e2e_srt(10, 20, 5))
        assert velocity(1.0, e2e_srt(11, 20, 5)) < base
        assert velocity(1.0, e2e_srt(10, 21, 5)) < base
        assert velocity(1.0, e2e_srt(10, 20, 6)) < base

    def test_validation(self):
        with pytest.raises(ValueError):
            velocity(1.0, 0.0)
        with pytest.raises(ValueError):
            velocity(-1.0, 10.0)


class TestDemandedThroughput:
    def test_small_stream_fits_both(self):
        demand = demanded_throughput(VideoConfig(fps=20, mean_frame_bytes=14_000))
        assert demand == pytest.approx(2.24)
        assert demand <= 32.2

    def test_d1_mjpeg_exceeds_4g(self):
        demand = demanded_throughput(VideoConfig(encoder=Encoder.MJPEG, resolution=Resolution.D1))
        assert demand == pytest.approx(35.2)
        assert 32.2 < demand <= 54.6

    def test_hd_mjpeg_exceeds_4g_fits_5g(self):
        demand = demanded_throughput(VideoConfig(encoder=Encoder.MJPEG, resolution=Resolution.HD))
        assert demand == pytest.approx(54.4)
        assert 32.2 < demand <= 54.6


class TestImprovementPct:
    def test_no_change(self):
        assert improvement_pct(100, 100) == 0.0

    def test_two_thirds_reduction(self):
        assert improvement_pct(100, 34) == pytest.approx(66.0)

    def test_partial_reduction(self):
        assert improvement_pct(50, 38.5) == pytest.approx(23.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            improvement_pct(0, 1)


class TestReportOptions:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            ReportOptions(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            ReportOptions(alpha=1.0)
        assert ReportOptions().alpha == 0.125


class TestBuildReport:
    def _report(self, run_cfg, **opt_kwargs):
        result = emulator.run(run_cfg)
        analysis = analyze_captures(result.records[Tap.UE], result.records[Tap.CORE],
                                    result.records[Tap.APP], result.ntp)
        return analysis, build_report(analysis, ReportOptions(**opt_kwargs))

    def test_video_run_produces_full_report(self):
        analysis, report = self._report(video_run(duration_s=1.0, cv=0.1, seed=41, pings=10))
        assert report.absent == ()
        assert report.availability_pct == 100.0
        assert report.classes["OWD-frame"] is not None
        assert report.e2e_srt_at_percentile_ms is not None
        assert report.velocity_kmh and 1.0 in report.velocity_kmh
        assert report.demand_mbps == analysis.offered_mbps is not None

    def test_report_fields_equal_direct_operations(self):
        analysis, report = self._report(video_run(duration_s=1.0, cv=0.1, seed=42))
        frame_vals = analysis.samples["OWD-frame"].values_ms
        assert report.owd_frame_at_percentile_ms == latency_at(frame_vals, 0.95)
        assert report.e2e_srt_at_percentile_ms == pytest.approx(
            e2e_srt(latency_at(frame_vals, 0.95), 20.3, 5.0))
        assert report.velocity_kmh[1.0] == pytest.approx(
            velocity(1.0, report.e2e_srt_at_percentile_ms))
        owd_pkt = analysis.samples["OWD-packet"]
        assert report.availability_pct == availability(len(owd_pkt) + owd_pkt.excluded,
                                                       len(owd_pkt))

    def test_every_class_writes_nearest_rank_median_and_exclusions(self):
        analysis, report = self._report(video_run(duration_s=1.0, cv=0.1, seed=43, pings=10,
                                                  loss_prob=0.05))
        rows = {(r["class"], r["metric"]): r["value"] for r in report_rows(report)}
        for cls, stats in report.classes.items():
            samples = analysis.samples[cls]
            assert stats.median_ms == latency_at(samples.values_ms, 0.5)
            assert rows[cls, "excluded"] == samples.excluded
        count, excluded = rows["OWD-packet", "count"], rows["OWD-packet", "excluded"]
        assert excluded > 0
        assert rows["overall", "availability"] == round(100.0 * count / (count + excluded), 6)

    def test_missing_video_marks_frame_kpis_absent(self):
        analysis, report = self._report(ping_run(count=5))
        assert "STREAM-frame" in report.absent
        assert "STREAM-packet" in report.absent
        assert report.classes["CTRL"] is not None
        assert report.classes["OWD-frame"] is None
        assert report.e2e_srt_at_percentile_ms is None
        rows = report_rows(report)
        empty = [r for r in rows if r["class"] == "STREAM-frame"]
        assert empty and empty[0]["value"] == ""

    def test_sigma_attached_to_owd_means(self):
        analysis, report = self._report(video_run(duration_s=0.5, cv=0.1, seed=43,
                                                  clocks=None))
        # perfect clocks still estimate sigma (zero) from the trace
        assert report.error_budget.quadrature_ms == pytest.approx(0.0)
        assert report.error_budget.linear_sum_ms == pytest.approx(0.0)

    def test_reliability_bound_fraction(self):
        analysis, report = self._report(video_run(duration_s=1.0, cv=0.1, seed=44),
                                        reliability_bound_ms=10_000.0)
        assert report.fraction_within_bound == 1.0

    def test_zero_service_response_time_is_insufficient_data(self):
        run_cfg = video_run(duration_s=0.5, base_up=0.0, base_down=0.0,
                            bandwidth_cap=math.inf, seed=46)
        with pytest.raises(InsufficientDataError, match="service response time is 0 ms"):
            self._report(run_cfg, processing_ms=0.0, owd_down_assumed_ms=0.0)

    def test_percentile_row_label_neither_truncates_nor_collides(self):
        analysis, _ = self._report(video_run(duration_s=0.5, cv=0.1, seed=47))
        labels = []
        for p in (0.29, 0.57, 0.995, 0.999, 0.95):
            rows = report_rows(build_report(analysis, ReportOptions(reliability_percentile=p)))
            labels += [r["metric"] for r in rows
                       if r["metric"].startswith(("latency_at_p", "e2e_srt_p"))]
        assert labels == [f"{name}_p{label}" for label in ("29", "57", "99.5", "99.9", "95")
                          for name in ("latency_at", "e2e_srt")]

    def test_cap_verdict_rows(self):
        # each cap judges the demanded_throughput row as written: a rate that
        # writes as a cap fits it, one that writes above it exceeds it
        analysis, _ = self._report(video_run(duration_s=0.5, cv=0.1, seed=49))
        for offered, written, verdicts in (
                (32.2, 32.2, ("FITS", "FITS")),
                (math.nextafter(32.2, math.inf), 32.2, ("FITS", "FITS")),
                (32.20003, 32.2, ("FITS", "FITS")),
                (32.20006, 32.2001, ("EXCEEDS", "FITS")),
                (54.6, 54.6, ("EXCEEDS", "FITS")),
                (60.0, 60.0, ("EXCEEDS", "EXCEEDS"))):
            report = build_report(dataclasses.replace(analysis, offered_mbps=offered))
            rows = [(r["metric"], r["value"]) for r in report_rows(report)
                    if r["metric"] == "demanded_throughput" or r["metric"].startswith("cap_")]
            assert rows == [("demanded_throughput", written),
                            ("cap_32.2", verdicts[0]), ("cap_54.6", verdicts[1])]

    def test_final_srtt_for_latency_classes_only(self):
        _, report = self._report(video_run(duration_s=0.5, cv=0.1, seed=48, pings=5))
        assert all(report.classes[cls].srtt_final_ms is not None for cls in LATENCY_CLASSES)
        assert report.classes["OWD-packet"].srtt_final_ms is None
        assert report.classes["OWD-frame"].srtt_final_ms is None

    def test_report_files_round_trip(self, tmp_path):
        _, report = self._report(video_run(duration_s=0.5, cv=0.1, seed=45))
        rows = report_rows(report)
        write_report_csv(tmp_path / "report.csv", rows)
        write_report_ndjson(tmp_path / "report.ndjson", rows)
        csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        ndjson_lines = (tmp_path / "report.ndjson").read_text().strip().splitlines()
        assert len(csv_lines) == len(rows) + 1  # header
        assert len(ndjson_lines) == len(rows)
        assert csv_lines[0] == "scenario,tech,range,class,metric,value,unit,sigma"
