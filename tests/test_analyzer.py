"""Analyzer: reassembly, frame segmentation, RTT/OWD extraction, smoothing."""

import random
import statistics

import pytest

from conftest import ping_run, rec, video_run
from edgekpi import analyzer, emulator
from edgekpi.analyzer import (
    FrameEndpoints,
    InsufficientDataError,
    MalformedCaptureError,
    SAMPLE_CLASSES,
    analyze_captures,
    estimate_offsets,
    frame_samples,
    owd_packet,
    reassemble,
    rtt_control,
    rtt_tcp,
    segment_frames,
    srtt,
)
from edgekpi.emulator import TruthFrame, run
from edgekpi.model import ClockModel, Direction, Marker, NtpSample, Proto, RangeBand, Tap, Tech


class TestReassemble:
    def test_in_order_stream(self):
        records = [rec(seq=0, payload_len=100), rec(seq=100, payload_len=100)]
        assert [r.seq for r in reassemble(records)] == [0, 100]

    def test_duplicate_counted_once(self):
        # a duplicated range yields one record: the first one observed
        records = [rec(seq=0, payload_len=100, pid=1, t_us=5),
                   rec(seq=0, payload_len=100, pid=2, t_us=1)]
        assert [r.pid for r in reassemble(records)] == [1]

    def test_out_of_order_sorted(self):
        records = [rec(seq=100, payload_len=100), rec(seq=0, payload_len=100)]
        assert [r.seq for r in reassemble(records)] == [0, 100]

    def test_conflicting_lengths_rejected(self):
        records = [rec(seq=0, payload_len=100), rec(seq=0, payload_len=200)]
        with pytest.raises(MalformedCaptureError, match="disagree on length"):
            reassemble(records)

    def test_overlap_rejected(self):
        records = [rec(seq=0, payload_len=100), rec(seq=50, payload_len=100)]
        with pytest.raises(MalformedCaptureError, match="overlaps"):
            reassemble(records)

    def test_filters_acks_and_downlink(self):
        # a capture carries one stream flow (model.validate rejects a
        # second), so proto, direction and payload alone select its segments
        records = [rec(seq=0, payload_len=100),
                   rec(seq=0, payload_len=0, ack=100, dir=Direction.DOWNLINK),
                   rec(seq=0, payload_len=200, dir=Direction.DOWNLINK),
                   rec(seq=0, payload_len=64, proto=Proto.CTRL)]
        assert reassemble(records) == records[:1]


def _frame_records(n_data=10, seg_len=1400, terminated=True):
    records = [rec(seq=0, payload_len=64, marker=Marker.FRAME_BOUNDARY)]
    seq = 64
    for _ in range(n_data):
        records.append(rec(seq=seq, payload_len=seg_len))
        seq += seg_len
    if terminated:
        records.append(rec(seq=seq, payload_len=64, marker=Marker.FRAME_BOUNDARY))
    return records


class TestSegmentFrames:
    def test_single_complete_frame(self):
        frames = segment_frames(reassemble(_frame_records(10)))
        assert len(frames) == 1
        assert frames[0].complete
        assert len(frames[0].segments) == 10
        assert sum(r.payload_len for r in frames[0].segments) == 14_000

    def test_twenty_fps_one_second(self):
        result = run(video_run(duration_s=1.0))
        frames = segment_frames(reassemble(result.records[Tap.UE]))
        assert len(frames) == 20
        assert all(f.complete for f in frames)

    def test_unterminated_tail_incomplete(self):
        frames = segment_frames(reassemble(_frame_records(3, terminated=False)))
        assert len(frames) == 1
        assert not frames[0].complete

    def test_no_markers_no_frames(self):
        records = [rec(seq=0, payload_len=100), rec(seq=100, payload_len=100)]
        assert segment_frames(reassemble(records)) == []

    def test_frame_spans_strictly_between_markers(self):
        records = _frame_records(2) + [rec(seq=2928, payload_len=500)]
        frames = segment_frames(reassemble(records))
        assert len(frames) == 2
        assert frames[0].complete and not frames[1].complete
        assert [sum(r.payload_len for r in f.segments) for f in frames] == [2800, 500]

    def test_byte_hole_not_contiguous(self):
        # the data segment at seq 1464 is missing from the capture
        records = _frame_records(3)
        del records[2]
        frames = segment_frames(reassemble(records))
        assert len(frames) == 1 and frames[0].complete
        assert not frames[0].contiguous


class TestRttControl:
    def test_zero_delay(self):
        records = [rec(proto=Proto.CTRL, dir=Direction.UPLINK, payload_len=64, pid=1, t_us=0),
                   rec(proto=Proto.CTRL, dir=Direction.DOWNLINK, payload_len=64, ack=1, t_us=0)]
        samples = rtt_control(records)
        assert samples.values_ms == (0.0,)

    def test_delay_sum(self):
        result = run(ping_run(count=5))
        samples = rtt_control(result.records[Tap.UE])
        assert len(samples.values_ms) == 5
        assert all(v == pytest.approx(15.0, abs=1e-3) for v in samples.values_ms)

    def test_lost_reply_excluded_and_counted(self):
        records = [rec(proto=Proto.CTRL, dir=Direction.UPLINK, payload_len=64, pid=1, t_us=0),
                   rec(proto=Proto.CTRL, dir=Direction.UPLINK, payload_len=64, pid=2, t_us=1000),
                   rec(proto=Proto.CTRL, dir=Direction.DOWNLINK, payload_len=64, ack=2, t_us=16_000)]
        samples = rtt_control(records)
        assert samples.values_ms == (15.0,)
        assert samples.excluded == 1


class TestRttTcp:
    def test_single_segment_immediate_ack(self):
        records = [rec(seq=0, payload_len=100, t_us=0),
                   rec(seq=0, payload_len=0, ack=100, dir=Direction.DOWNLINK, t_us=0)]
        samples = rtt_tcp(records)
        assert samples.values_ms == (0.0,)

    def test_delay_sum(self):
        records = [rec(seq=0, payload_len=100, t_us=0),
                   rec(seq=0, payload_len=0, ack=100, dir=Direction.DOWNLINK, t_us=15_000)]
        assert rtt_tcp(records).values_ms == (15.0,)

    def test_cumulative_ack_shares_timestamp(self):
        records = [rec(seq=0, payload_len=100, t_us=0),
                   rec(seq=100, payload_len=100, t_us=1000),
                   rec(seq=0, payload_len=0, ack=200, dir=Direction.DOWNLINK, t_us=20_000)]
        samples = rtt_tcp(records)
        assert samples.values_ms == (20.0, 19.0)

    def test_uncovered_segment_excluded(self):
        records = [rec(seq=0, payload_len=100, t_us=0),
                   rec(seq=100, payload_len=100, t_us=0),
                   rec(seq=0, payload_len=0, ack=100, dir=Direction.DOWNLINK, t_us=5000)]
        samples = rtt_tcp(records)
        assert samples.values_ms == (5.0,)
        assert samples.excluded == 1

    def test_karn_excludes_retransmitted_ranges(self):
        records = [rec(seq=0, payload_len=100, t_us=0),
                   rec(seq=0, payload_len=100, t_us=1000),  # retransmission
                   rec(seq=100, payload_len=100, t_us=1000),
                   rec(seq=0, payload_len=0, ack=200, dir=Direction.DOWNLINK, t_us=20_000)]
        samples = rtt_tcp(records)
        assert samples.values_ms == (19.0,)
        assert samples.excluded == 2


class TestSrtt:
    def test_constant_fixed_point(self):
        assert srtt([7.0] * 5) == [7.0] * 5

    def test_two_sample_hand_value(self):
        assert srtt([10.0, 20.0], alpha=0.125) == [10.0, 11.25]

    def test_alpha_one_returns_samples(self):
        samples = [3.0, 9.0, 1.0, 4.0]
        assert srtt(samples, alpha=1.0) == samples

    def test_empty_in_empty_out(self):
        assert srtt([]) == []

    def test_length_preserved_and_bounded(self):
        rng = random.Random(31)
        for _ in range(25):
            samples = [rng.uniform(1, 100) for _ in range(rng.randint(1, 60))]
            series = srtt(samples, alpha=rng.uniform(0.05, 0.95))
            assert len(series) == len(samples)
            lo, hi = min(samples), max(samples)
            assert all(lo - 1e-12 <= s <= hi + 1e-12 for s in series)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            srtt([1.0], alpha=0.0)


class TestEstimateOffsets:
    def test_all_zero(self):
        trace = [NtpSample(t, node, 0.0) for t in (0.0, 10.0) for node in Tap]
        est = estimate_offsets(trace)
        assert all(e.mean_ms == 0.0 and e.std_ms == 0.0 for e in est.values())

    def test_two_point_std(self):
        trace = []
        for node in Tap:
            trace.append(NtpSample(0.0, node, 4.0))
            trace.append(NtpSample(10.0, node, 6.0))
        est = estimate_offsets(trace)
        assert est[Tap.UE].mean_ms == pytest.approx(5.0)
        assert est[Tap.UE].std_ms == pytest.approx(1.4142135623730951)

    def test_insufficient_data(self):
        trace = [NtpSample(0.0, node, 0.0) for node in Tap]
        with pytest.raises(InsufficientDataError):
            estimate_offsets(trace)

    def test_recovers_configured_sigmas(self):
        clocks = ClockModel()
        duration = (1000 - 1) * clocks.resync_interval_s
        trace = emulator.sample_ntp_trace(clocks, duration, random.Random(17))
        est = estimate_offsets(trace)
        for node, sigma in zip((Tap.UE, Tap.CORE, Tap.APP), clocks.sigmas_ms()):
            assert abs(est[node].std_ms - sigma) / sigma < 0.10
            assert est[node].count == 1000


class TestOwdPacket:
    def test_matches_truth_under_perfect_clocks(self):
        result = run(video_run(duration_s=0.5, cv=0.1, seed=21, pings=5))
        samples = owd_packet(result.records[Tap.UE], result.records[Tap.APP])
        truth = {p.pid: (p.t_app_us - p.t_ue_us) / 1000.0 for p in result.truth.packets
                 if p.dir is Direction.UPLINK and p.delivered and p.payload_len > 0}
        ue_up = [r for r in result.records[Tap.UE]
                 if r.dir is Direction.UPLINK and r.payload_len > 0]
        assert len(samples.values_ms) == len(truth)
        for record, value in zip(ue_up, samples.values_ms):
            assert value == pytest.approx(truth[record.pid], abs=1e-3)

    def test_known_offset_cancels(self):
        clocks = ClockModel(offset_app_ms=5.0, sigma_ue_ms=0, sigma_core_ms=0, sigma_app_ms=0)
        result = run(ping_run(count=10, clocks=clocks))
        uncorrected = owd_packet(result.records[Tap.UE], result.records[Tap.APP])
        assert all(v == pytest.approx(15.0, abs=1e-3) for v in uncorrected.values_ms)
        corrected = owd_packet(result.records[Tap.UE], result.records[Tap.APP],
                               offsets={Tap.UE: 0.0, Tap.APP: 5.0})
        assert all(v == pytest.approx(10.0, abs=1e-3) for v in corrected.values_ms)

    def test_unmatched_counted(self):
        ue = [rec(tap=Tap.UE, seq=0, payload_len=100, pid=1, t_us=0),
              rec(tap=Tap.UE, seq=100, payload_len=100, pid=2, t_us=10)]
        app = [rec(tap=Tap.APP, seq=0, payload_len=100, pid=1, t_us=10_000)]
        samples = owd_packet(ue, app)
        assert samples.values_ms == (10.0,)
        assert samples.excluded == 1

    @pytest.mark.parametrize("direction, far_tap, near_tap", [
        (Direction.UPLINK, Tap.APP, Tap.UE), (Direction.DOWNLINK, Tap.UE, Tap.APP)])
    def test_pid_naming_two_packets_is_an_error(self, direction, far_tap, near_tap):
        # pid 2 is 100 bytes at one tap and 200 at the other: the taps come
        # from two different runs
        ue = [rec(tap=Tap.UE, dir=direction, seq=0, payload_len=100, pid=1, t_us=0),
              rec(tap=Tap.UE, dir=direction, seq=100, payload_len=100, pid=2, t_us=10)]
        app = [rec(tap=Tap.APP, dir=direction, seq=0, payload_len=100, pid=1, t_us=10_000),
               rec(tap=Tap.APP, dir=direction, seq=100, payload_len=200, pid=2, t_us=10_010)]
        with pytest.raises(MalformedCaptureError) as err:
            owd_packet(ue, app, direction=direction)
        assert str(err.value) == (
            f"pid 2 names another packet at tap {far_tap.value} than at tap {near_tap.value}")
        assert err.value.tap is far_tap

    def test_noisy_clocks_mean_within_propagated_error(self):
        result = run(ping_run(count=1000, clocks=ClockModel(), seed=23))
        est = estimate_offsets(result.ntp)
        samples = owd_packet(result.records[Tap.UE], result.records[Tap.APP],
                             offsets={n: e.mean_ms for n, e in est.items()})
        assert len(samples.values_ms) == 1000
        sigma_q = (0.387**2 + 0.317**2 + 0.117**2) ** 0.5
        assert abs(statistics.fmean(samples.values_ms) - 10.0) <= 3 * sigma_q


class TestFrameLatency:
    def test_single_segment_zero_delay(self):
        records = [rec(seq=0, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0),
                   rec(seq=64, payload_len=100, t_us=0),
                   rec(seq=164, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0),
                   rec(seq=0, payload_len=0, ack=164, dir=Direction.DOWNLINK, t_us=0)]
        samples, _ = frame_samples(records, [])
        assert samples.values_ms == (0.0,)

    def test_hand_computed_event_trace(self):
        # One 14 kB frame, mss 1400, cap 54.6 Mbit/s, 10 ms up, 5 ms down:
        # serialization 64B + 10*1400B = 2060.66 us, last byte at app at
        # 12060.66 us, final-segment ACK back at UE at 17060.66 -> 17061 us.
        result = run(video_run(duration_s=0.05, fps=20, mean_frame_bytes=14_000, cv=0.0))
        samples, _ = frame_samples(result.records[Tap.UE], result.records[Tap.APP])
        assert samples.values_ms == (17.061,)

    def test_truncated_frame_excluded(self):
        records = [rec(seq=0, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0),
                   rec(seq=64, payload_len=100, t_us=0)]
        samples, _ = frame_samples(records, [])
        assert samples.values_ms == ()
        assert samples.excluded == 1

    def test_frame_with_byte_hole_excluded(self):
        ue = [rec(seq=0, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0),
              rec(seq=64, payload_len=100, t_us=0),
              rec(seq=264, payload_len=100, t_us=0),
              rec(seq=364, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0),
              rec(seq=0, payload_len=0, ack=428, dir=Direction.DOWNLINK, t_us=10)]
        app = [r._replace(tap=Tap.APP, t_us=r.t_us + 5) for r in ue[:4]]
        latency, owd = frame_samples(ue, app)
        assert (latency.values_ms, latency.excluded) == ((), 1)
        assert (owd.values_ms, owd.excluded) == ((), 1)

    def test_frame_without_covering_ack_excluded(self):
        records = [rec(seq=0, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0),
                   rec(seq=64, payload_len=100, t_us=0),
                   rec(seq=164, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0),
                   rec(seq=0, payload_len=0, ack=64, dir=Direction.DOWNLINK, t_us=10)]
        samples, _ = frame_samples(records, [])
        assert samples.values_ms == ()
        assert samples.excluded == 1


#: The truth-log value each FrameEndpoints rule must reproduce.
TRUTH_OWD = {FrameEndpoints.FIRST_TO_LAST: TruthFrame.owd_first_last_ms,
             FrameEndpoints.FIRST_TO_FIRST: TruthFrame.owd_first_first_ms}


@pytest.fixture(scope="module")
def frame_owd_figures():
    """Per FrameEndpoints rule, the analyzer's frame OWD samples and the
    truth log's values of the delivered frames, for 5 s of VGA MJPEG at
    20 fps with 100 pings, 1 ms jitter and perfect clocks, by (tech, range,
    loss, retransmit, seed); each run is made once."""
    cache = {}

    def figures(tech, band, loss, retransmit, seed) -> dict:
        key = tech, band, loss, retransmit, seed
        if key not in cache:
            result = run(video_run(duration_s=5.0, mean_frame_bytes=None, cv=0.1, base_up=None,
                                   base_down=None, tech=tech, range_band=band, seed=seed,
                                   pings=100, jitter_std=1.0, loss_prob=loss,
                                   retransmit=retransmit))
            delivered = [f for f in result.truth.frames if f.delivered]
            cache[key] = {
                endpoints: (frame_samples(result.records[Tap.UE], result.records[Tap.APP],
                                          endpoints=endpoints)[1].values_ms,
                            tuple(map(truth_ms, delivered)))
                for endpoints, truth_ms in TRUTH_OWD.items()}
        return cache[key]
    return figures


class TestFrameOwd:
    def _single_frame_taps(self, shift_us=10_000):
        ue = [rec(tap=Tap.UE, seq=0, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0, pid=1),
              rec(tap=Tap.UE, seq=64, payload_len=100, t_us=0, pid=2),
              rec(tap=Tap.UE, seq=164, payload_len=64, marker=Marker.FRAME_BOUNDARY, t_us=0, pid=3)]
        app = [rec(tap=Tap.APP, seq=0, payload_len=64, marker=Marker.FRAME_BOUNDARY,
                   t_us=shift_us, pid=1),
               rec(tap=Tap.APP, seq=64, payload_len=100, t_us=shift_us, pid=2),
               rec(tap=Tap.APP, seq=164, payload_len=64, marker=Marker.FRAME_BOUNDARY,
                   t_us=shift_us, pid=3)]
        return ue, app

    def test_single_segment_same_under_both_endpoint_modes(self):
        ue, app = self._single_frame_taps()
        for endpoints in FrameEndpoints:
            _, samples = frame_samples(ue, app, endpoints=endpoints)
            assert samples.values_ms == (10.0,)

    @pytest.mark.parametrize("endpoints", FrameEndpoints, ids=lambda e: e.value)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("retransmit", (False, True), ids=("rtx-off", "rtx-on"))
    @pytest.mark.parametrize("loss", (0.0, 0.02))
    @pytest.mark.parametrize("tech, band", ((Tech.FIVE_G, RangeBand.EDGE),
                                            (Tech.FOUR_G, RangeBand.REGIONAL)),
                             ids=("5G-EDGE", "4G-REGIONAL"))
    def test_matches_truth_log(self, frame_owd_figures, tech, band, loss, retransmit, seed,
                               endpoints):
        # at 2 % loss without retransmission, seed 2 loses a frame delimiter
        # on the way to the app; frames are still delimited at the UE
        got, expected = frame_owd_figures(tech, band, loss, retransmit, seed)[endpoints]
        assert len(got) == len(expected)
        assert got == pytest.approx(expected, abs=1e-3)

    def test_default_video_mean_matches_truth_within_50us(self):
        cfg = video_run(duration_s=1.0, mean_frame_bytes=None, cv=0.1, seed=35,
                        base_up=8.0, base_down=4.0)
        result = run(cfg)
        _, samples = frame_samples(result.records[Tap.UE], result.records[Tap.APP])
        truth_mean = statistics.fmean(
            f.owd_first_last_ms() for f in result.truth.frames if f.delivered)
        assert statistics.fmean(samples.values_ms) == pytest.approx(truth_mean, abs=0.05)

    def test_larger_frames_read_slower(self):
        small = run(video_run(duration_s=1.0, mean_frame_bytes=120_000, cv=0.1, seed=25))
        large = run(video_run(duration_s=1.0, mean_frame_bytes=340_000, cv=0.1, seed=25))
        _, owd_small = frame_samples(small.records[Tap.UE], small.records[Tap.APP])
        _, owd_large = frame_samples(large.records[Tap.UE], large.records[Tap.APP])
        assert statistics.median(owd_large.values_ms) > statistics.median(owd_small.values_ms)

    def test_first_to_first_excludes_serialization(self):
        result = run(video_run(duration_s=0.5, cv=0.0, seed=26))
        _, last = frame_samples(result.records[Tap.UE], result.records[Tap.APP],
                                endpoints=FrameEndpoints.FIRST_TO_LAST)
        _, first = frame_samples(result.records[Tap.UE], result.records[Tap.APP],
                                 endpoints=FrameEndpoints.FIRST_TO_FIRST)
        assert all(a > b for a, b in zip(last.values_ms, first.values_ms))

    def test_incomplete_at_app_excluded(self):
        ue, app = self._single_frame_taps()
        _, samples = frame_samples(ue, app[:1] + app[2:])  # data segment missing at app
        assert samples.values_ms == ()
        assert samples.excluded == 1


class TestCrossMetricInvariants:
    def test_rtt_at_least_owd_per_segment(self):
        result = run(video_run(duration_s=0.5, cv=0.1, seed=27))
        ue, app = result.records[Tap.UE], result.records[Tap.APP]
        rtt = rtt_tcp(ue)
        owd = owd_packet(ue, app)
        # compare per segment: owd samples follow UE emission order as well
        data = [r for r in ue if r.proto is Proto.STREAM and r.dir is Direction.UPLINK
                and r.payload_len > 0]
        owd_by_pid = dict(zip((r.pid for r in data), owd.values_ms))
        covered = [r for r in data]
        for record, rtt_value in zip(covered, rtt.values_ms):
            assert rtt_value >= owd_by_pid[record.pid] - 1e-9

    def test_no_negative_delay_without_access_base_delay(self):
        # jitter alone sets each access delay, so half its draws are
        # negative; with perfect clocks no sample may then read below 0
        result = run(video_run(duration_s=2.0, mean_frame_bytes=None, cv=0.1, seed=3, pings=20,
                               base_up=0.0, base_down=0.0, jitter_std=1.0))
        a = analyze_captures(result.records[Tap.UE], result.records[Tap.CORE],
                             result.records[Tap.APP], result.ntp)
        sample_sets = a.samples.values()
        assert len(a.samples["CTRL"]) == 20 and all(sample_sets)
        for samples in sample_sets:
            assert min(samples.values_ms) >= 0.0

    def test_frame_latency_at_least_frame_owd(self):
        result = run(video_run(duration_s=1.0, cv=0.1, seed=28))
        lat, owd = frame_samples(result.records[Tap.UE], result.records[Tap.APP])
        assert len(lat.values_ms) == len(owd.values_ms)
        for a, b in zip(lat.values_ms, owd.values_ms):
            assert a >= b - 1e-9


class TestAnalyzeCaptures:
    def test_full_video_run_populates_classes(self):
        result = run(video_run(duration_s=1.0, cv=0.1, seed=30, pings=10))
        a = analyze_captures(result.records[Tap.UE], result.records[Tap.CORE],
                             result.records[Tap.APP], result.ntp)
        assert tuple(a.samples) == SAMPLE_CLASSES
        assert len(a.samples["CTRL"].values_ms) == 10
        assert len(a.samples["STREAM-frame"].values_ms) == 20
        assert len(a.samples["OWD-frame"].values_ms) == 20
        assert a.samples["STREAM-packet"].values_ms
        assert a.samples["OWD-command"].values_ms
        assert a.samples["OWD-packet"].values_ms
        assert a.offered_mbps is not None
        assert a.goodput_mbps is None  # no bulk flow

    def test_ping_only_run(self):
        result = run(ping_run(count=5))
        a = analyze_captures(result.records[Tap.UE], result.records[Tap.CORE],
                             result.records[Tap.APP], result.ntp)
        assert len(a.samples["CTRL"].values_ms) == 5
        assert a.samples["STREAM-frame"].values_ms == ()
        assert a.samples["STREAM-packet"].values_ms == ()
