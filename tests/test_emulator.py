"""Emulator behaviour: generators, delay bookkeeping, loss, clocks, queues.

``golden/random_runs.json`` holds, per config of :func:`random_run`, the
sha256 of its captures, truth log and NTP trace. A change that moves them on
purpose rewrites the file with ``PYTHONPATH=src python tests/test_emulator.py``
and says in CHANGES.md which runs moved.
"""

import dataclasses
import hashlib
import heapq
import json
import math
import random
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from conftest import ping_run, video_run
from edgekpi import emulator
from edgekpi.config import parse_config
from edgekpi.emulator import (
    BOUNDARY_SEGMENT_BYTES,
    BULK_FLOW,
    CONTROL_FLOW,
    EmulationRun,
    VIDEO_FLOW,
    Workload,
    gen_bulk_probe,
    gen_control_pings,
    gen_video_stream,
    run,
    sample_ntp_trace,
    write_truth_file,
)
from edgekpi.model import (
    ClockModel,
    Direction,
    Marker,
    NODES,
    ProcessingModel,
    Proto,
    RangeBand,
    Scenario,
    Tap,
    Tech,
    VideoConfig,
    record_to_json,
    write_ntp_file,
)


class TestWorkload:
    def test_requires_a_generator(self):
        with pytest.raises(ValueError):
            Workload(ping_count=0)

    def test_video_and_bulk_exclusive(self):
        with pytest.raises(ValueError):
            Workload(video=VideoConfig(duration_s=1.0), bulk_duration_s=1.0)

    def test_video_needs_duration(self):
        with pytest.raises(ValueError):
            Workload(video=VideoConfig())

    @pytest.mark.parametrize("rate", [0.0, -5.0])
    def test_bulk_offered_rate_positive(self, rate):
        with pytest.raises(ValueError, match="bulk_offered_mbps must be > 0"):
            Workload(bulk_duration_s=1.0, bulk_offered_mbps=rate)

    def test_durations_not_negative(self):
        with pytest.raises(ValueError, match="bulk_duration_s must be >= 0"):
            Workload(ping_count=1, bulk_duration_s=-1.0)
        with pytest.raises(ValueError, match="duration_s must be >= 0"):
            VideoConfig(duration_s=-1.0)

    def test_mss_positive(self):
        with pytest.raises(ValueError, match="mss must be > 0"):
            Workload(ping_count=1, mss=0)


class TestGenerators:
    def test_ping_schedule_spacing(self):
        times = gen_control_pings(100.0, 3)
        assert times == [0, 100_000, 200_000]

    def test_ping_schedule_validation(self):
        with pytest.raises(ValueError):
            gen_control_pings(100.0, 0)
        with pytest.raises(ValueError):
            gen_control_pings(0.0, 3)

    def test_video_boundary_count(self):
        plans = gen_video_stream(VideoConfig(fps=20, mean_frame_bytes=14_000, frame_size_cv=0,
                                             duration_s=1.0))
        markers = [p for p in plans if p.marker is Marker.FRAME_BOUNDARY]
        assert len(markers) == 21  # 20 frames + terminating delimiter

    def test_video_exact_division(self):
        plans = gen_video_stream(VideoConfig(fps=20, mean_frame_bytes=14_000, frame_size_cv=0,
                                             duration_s=1.0), mss=1400)
        data_by_frame = {}
        for p in plans:
            if p.marker is Marker.NONE:
                data_by_frame.setdefault(p.frame_idx, []).append(p)
        assert set(len(v) for v in data_by_frame.values()) == {10}
        assert all(p.payload_len == 1400 for v in data_by_frame.values() for p in v)

    def test_video_seq_contiguous(self):
        rng = random.Random(5)
        plans = gen_video_stream(VideoConfig(fps=20, frame_size_cv=0.2, duration_s=0.5), rng=rng)
        expected = 0
        for p in plans:
            assert p.seq == expected
            expected += p.payload_len

    def test_video_frame_instants(self):
        plans = gen_video_stream(VideoConfig(fps=20, mean_frame_bytes=1400, frame_size_cv=0,
                                             duration_s=0.2))
        frame_times = sorted({p.t_us for p in plans if p.frame_idx is not None})
        assert frame_times == [0, 50_000, 100_000, 150_000]

    def test_video_end_of_frame_flags_last_data_segment(self):
        plans = gen_video_stream(VideoConfig(fps=20, mean_frame_bytes=14_000, frame_size_cv=0,
                                             duration_s=0.1))
        data = [p for p in plans if p.marker is Marker.NONE]
        assert data[-1].end_of_frame
        assert sum(1 for p in data if p.end_of_frame) == 2  # one per frame

    def test_bulk_rate(self):
        plans = gen_bulk_probe(1.0, mss=1400, offered_mbps=11.2)
        # 11.2 Mbit/s / (1400 B * 8) = 1000 segments per second
        assert len(plans) == 1000
        assert plans[1].t_us - plans[0].t_us == 1000

    def test_bulk_validation(self):
        with pytest.raises(ValueError):
            gen_bulk_probe(0.0)
        with pytest.raises(ValueError):
            gen_bulk_probe(1.0, offered_mbps=math.inf)


class TestNtpTrace:
    def test_zero_noise_zero_offset(self):
        trace = sample_ntp_trace(ClockModel.perfect(), 100.0, random.Random(1))
        assert all(s.offset_ms == 0.0 for s in trace)

    def test_pure_offset(self):
        clocks = ClockModel(offset_ue_ms=5.0, sigma_ue_ms=0, sigma_core_ms=0, sigma_app_ms=0)
        trace = sample_ntp_trace(clocks, 50.0, random.Random(1))
        ue = [s.offset_ms for s in trace if s.node is Tap.UE]
        assert ue and all(v == 5.0 for v in ue)

    def test_sample_cadence(self):
        trace = sample_ntp_trace(ClockModel(), 100.0, random.Random(1))
        times = sorted({s.t_s for s in trace})
        assert times == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        assert len(trace) == len(times) * 3

    def test_noise_std_tracks_configuration(self):
        clocks = ClockModel()  # default noise profile
        duration = (10_000 - 1) * clocks.resync_interval_s
        trace = sample_ntp_trace(clocks, duration, random.Random(42))
        by_node = {}
        for s in trace:
            by_node.setdefault(s.node, []).append(s.offset_ms)
        for node, sigma in zip(NODES, clocks.sigmas_ms()):
            measured = statistics.stdev(by_node[node])
            assert abs(measured - sigma) / sigma < 0.05

    def test_duration_precondition(self):
        with pytest.raises(ValueError):
            sample_ntp_trace(ClockModel(), 5.0)


class TestRunDeterminism:
    def test_bit_identical_records(self):
        cfg = video_run(duration_s=0.5, cv=0.2, seed=1234, pings=5)
        first = run(cfg)
        second = run(cfg)
        for tap in NODES:
            a = "\n".join(record_to_json(r) for r in first.records[tap])
            b = "\n".join(record_to_json(r) for r in second.records[tap])
            assert a == b
        assert first.ntp == second.ntp

    def test_seed_changes_output(self):
        base = video_run(duration_s=0.5, cv=0.2, seed=1)
        other = video_run(duration_s=0.5, cv=0.2, seed=2)
        assert run(base).records[Tap.UE] != run(other).records[Tap.UE]


class TestDelayBookkeeping:
    def test_single_ctrl_packet_exact_delay(self):
        result = run(ping_run(count=1))
        ue = [r for r in result.records[Tap.UE] if r.dir is Direction.UPLINK][0]
        app = [r for r in result.records[Tap.APP] if r.dir is Direction.UPLINK][0]
        assert app.t_us - ue.t_us == 10_000

    def test_regional_adds_two_ms_each_way(self):
        cfg = ping_run(count=1)
        regional = EmulationRun(
            scenario=Scenario(tech=Tech.FIVE_G, range=RangeBand.REGIONAL,
                              base_owd_up=10.0, base_owd_down=5.0, jitter_std=0.0),
            workload=cfg.workload, clocks=cfg.clocks, seed=cfg.seed)
        result = run(regional)
        ue_up = [r for r in result.records[Tap.UE] if r.dir is Direction.UPLINK][0]
        app_up = [r for r in result.records[Tap.APP] if r.dir is Direction.UPLINK][0]
        ue_down = [r for r in result.records[Tap.UE] if r.dir is Direction.DOWNLINK][0]
        assert app_up.t_us - ue_up.t_us == 12_000
        assert ue_down.t_us - ue_up.t_us == 19_000  # 12 up + 2 added + 5 down

    def test_zero_delay_path_zero_rtt(self):
        result = run(ping_run(count=3, base_up=0.0, base_down=0.0))
        ue = result.records[Tap.UE]
        requests = [r for r in ue if r.dir is Direction.UPLINK]
        replies = [r for r in ue if r.dir is Direction.DOWNLINK]
        assert all(rep.t_us - req.t_us == 0 for req, rep in zip(requests, replies))

    def test_ping_pairs_spaced_by_interval(self):
        result = run(ping_run(count=3, interval_ms=100.0))
        ue = result.records[Tap.UE]
        requests = [r for r in ue if r.dir is Direction.UPLINK]
        replies = [r for r in ue if r.dir is Direction.DOWNLINK]
        assert len(requests) == len(replies) == 3
        assert [r.t_us for r in requests] == [0, 100_000, 200_000]
        assert all(rep.t_us - req.t_us == 15_000 for req, rep in zip(requests, replies))
        assert [rep.ack for rep in replies] == [req.pid for req in requests]

    def test_truth_log_matches_records_under_perfect_clocks(self):
        result = run(ping_run(count=5))
        truth = {p.pid: p for p in result.truth.packets}
        for tap in NODES:
            for record in result.records[tap]:
                tp = truth[record.pid]
                expected = {Tap.UE: tp.t_ue_us, Tap.CORE: tp.t_core_us, Tap.APP: tp.t_app_us}[tap]
                assert record.t_us == expected


class TestLoss:
    def test_total_loss_no_stream_at_app(self):
        cfg = video_run(duration_s=0.5, loss_prob=1.0, seed=3)
        result = run(cfg)
        app_stream = [r for r in result.records[Tap.APP] if r.proto is Proto.STREAM]
        assert app_stream == []
        ue_stream = [r for r in result.records[Tap.UE] if r.proto is Proto.STREAM]
        assert len(ue_stream) > 0

    def test_conservation_without_loss(self):
        result = run(video_run(duration_s=0.5, cv=0.1, seed=4, pings=3))
        ue_up = {r.pid for r in result.records[Tap.UE] if r.dir is Direction.UPLINK}
        core_up = {r.pid for r in result.records[Tap.CORE] if r.dir is Direction.UPLINK}
        app_up = {r.pid for r in result.records[Tap.APP] if r.dir is Direction.UPLINK}
        assert ue_up == core_up == app_up

    def test_bernoulli_delivery_rate(self):
        scenario = Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE, loss_prob=0.1)
        cfg = EmulationRun(scenario=scenario,
                           workload=Workload(ping_count=0, bulk_duration_s=0.5),
                           clocks=ClockModel.perfect(), seed=5)
        result = run(cfg)
        sent = [p for p in result.truth.packets
                if p.dir is Direction.UPLINK and p.payload_len > 0]
        delivered = [p for p in sent if p.delivered]
        rate = len(delivered) / len(sent)
        assert len(sent) > 2000
        assert abs(rate - 0.9) < 0.03


class TestOrdering:
    def test_fifo_per_flow_under_jitter(self):
        cfg = video_run(duration_s=0.5, cv=0.1, seed=6, jitter_std=2.0, pings=5)
        result = run(cfg)
        for tap in (Tap.CORE, Tap.APP):
            seqs = [r.seq for r in result.records[tap]
                    if r.proto is Proto.STREAM and r.dir is Direction.UPLINK
                    and r.flow == VIDEO_FLOW and r.payload_len > 0]
            assert seqs == sorted(seqs)
        # arrival stamps never decrease for one (flow, dir) at one tap
        times = [r.t_us for r in result.records[Tap.APP]
                 if r.flow == VIDEO_FLOW and r.dir is Direction.UPLINK]
        assert all(b >= a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("base_up,cap,processing_ms,seed", [
        (10.0, 54.6, 20.3, 6),
        # no uplink base delay: jitter alone sets the access delay, and half
        # its draws are negative, which the floor at 0 must catch
        (0.0, math.inf, 1.0, 2),
    ])
    def test_taps_agree_on_order_per_flow(self, base_up, cap, processing_ms, seed):
        cfg = video_run(cv=0.3, seed=seed, jitter_std=2.0, loss_prob=0.02, retransmit=True,
                        pings=10, base_up=base_up, bandwidth_cap=cap)
        result = run(dataclasses.replace(cfg, processing=ProcessingModel(total_ms=processing_ms)))
        paths = {Direction.UPLINK: (Tap.UE, Tap.CORE, Tap.APP),
                 Direction.DOWNLINK: (Tap.APP, Tap.CORE, Tap.UE)}
        for flow in (CONTROL_FLOW, VIDEO_FLOW):
            for direction, taps in paths.items():
                records = {tap: [r for r in result.records[tap]
                                 if r.flow == flow and r.dir is direction] for tap in taps}
                for a, b in zip(taps, taps[1:]):
                    # pids seen at both taps pass them in one order, and
                    # (perfect clocks) arrivals at b never go back in time
                    both = {r.pid for r in records[a]} & {r.pid for r in records[b]}
                    assert len(both) > 5
                    assert ([r.pid for r in records[a] if r.pid in both]
                            == [r.pid for r in records[b] if r.pid in both])
                    times = [r.t_us for r in records[b]]
                    assert times == sorted(times)
        # no packet reaches a tap before it left the previous one
        for p in result.truth.packets:
            path = (p.t_ue_us, p.t_core_us, p.t_app_us)
            if p.dir is Direction.DOWNLINK:
                path = path[::-1]
            seen = [t for t in path if t is not None]
            assert seen == sorted(seen), p

    @pytest.mark.parametrize("seed", range(12))
    def test_no_event_scheduled_in_the_past(self, monkeypatch, seed):
        # random paths with small base delays and large jitter, where
        # unfloored access delays would draw negative, at every range, so
        # that the core hop's delay is 0 on some and not on others
        rng = random.Random(seed)
        cfg = video_run(duration_s=0.5, cv=0.3, seed=seed, pings=10,
                        base_up=rng.choice([0.0, 1.0, 8.0]), base_down=rng.choice([0.0, 1.0, 4.0]),
                        jitter_std=rng.choice([1.0, 3.0]), loss_prob=rng.choice([0.0, 0.05]),
                        retransmit=rng.random() < 0.5,
                        bandwidth_cap=rng.choice([54.6, math.inf]),
                        range_band=list(RangeBand)[seed % 3])
        cfg = dataclasses.replace(cfg, processing=ProcessingModel(total_ms=rng.choice([0.0, 1.0])))
        now = [0.0]
        late = []

        def spying(method):
            def spy(self, t_us, fn, *args):
                if t_us < now[0]:
                    late.append((method.__name__, now[0], t_us))

                def timed(t, *a):
                    if t < now[0]:  # the run went back in time
                        late.append((fn.__name__, now[0], t))
                    now[0] = t
                    fn(t, *a)
                method(self, t_us, timed, *args)
            return spy

        # every way an event is scheduled, so that now follows every event
        for name in ("_plan", "_schedule", "_after_core"):
            monkeypatch.setattr(emulator._Simulation, name, spying(getattr(emulator._Simulation, name)))
        run(cfg)
        assert late == []

    def test_added_delay_additivity(self):
        def truth_owds(range_band):
            cfg = video_run(duration_s=0.5, cv=0.1, seed=11, pings=5,
                            range_band=range_band, tech=Tech.FIVE_G,
                            base_up=8.0, base_down=4.0)
            result = run(cfg)
            return {p.pid: (p.t_app_us - p.t_ue_us) / 1000.0 for p in result.truth.packets
                    if p.dir is Direction.UPLINK and p.delivered}

        edge = truth_owds(RangeBand.EDGE)
        regional = truth_owds(RangeBand.REGIONAL)
        national = truth_owds(RangeBand.NATIONAL)
        assert set(edge) == set(regional) == set(national)
        for pid in edge:
            assert regional[pid] - edge[pid] == pytest.approx(2.0, abs=1e-6)
            assert national[pid] - edge[pid] == pytest.approx(4.0, abs=1e-6)


class TestBandwidthCap:
    @pytest.mark.parametrize("tech,cap", [(Tech.FIVE_G, 54.6), (Tech.FOUR_G, 32.2)])
    def test_bulk_goodput_converges_to_cap(self, tech, cap):
        scenario = Scenario(tech=tech, range=RangeBand.REGIONAL, jitter_std=0.0)
        cfg = EmulationRun(scenario=scenario,
                           workload=Workload(ping_count=0, bulk_duration_s=2.0),
                           clocks=ClockModel.perfect(), seed=7)
        result = run(cfg)
        arrivals = [(r.t_us, r.payload_len) for r in result.records[Tap.APP]
                    if r.flow == BULK_FLOW and r.payload_len > 0]
        window = [(t, ln) for t, ln in arrivals if t >= arrivals[0][0] + 500_000]
        span_us = window[-1][0] - window[0][0]
        goodput = sum(ln for _, ln in window[1:]) * 8.0 / span_us
        assert abs(goodput - cap) / cap < 0.05

    def test_uncapped_when_disabled(self):
        scenario = Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE,
                            bandwidth_cap=math.inf, jitter_std=0.0)
        cfg = EmulationRun(
            scenario=scenario,
            workload=Workload(ping_count=0, bulk_duration_s=0.2, bulk_offered_mbps=200.0),
            clocks=ClockModel.perfect(), seed=8)
        result = run(cfg)
        arrivals = [(r.t_us, r.payload_len) for r in result.records[Tap.APP]
                    if r.flow == BULK_FLOW and r.payload_len > 0]
        span_us = arrivals[-1][0] - arrivals[0][0]
        goodput = sum(ln for _, ln in arrivals[1:]) * 8.0 / span_us
        assert goodput == pytest.approx(200.0, rel=0.02)

    def test_overload_grows_queue_monotonically(self):
        cfg = video_run(duration_s=2.0, fps=20, mean_frame_bytes=340_000, cv=0.1,
                        tech=Tech.FOUR_G, range_band=RangeBand.REGIONAL,
                        base_up=20.0, base_down=10.0, seed=9)
        result = run(cfg)
        owds = [f.owd_first_last_ms() for f in result.truth.frames if f.delivered]
        assert len(owds) >= 30
        assert all(b > a for a, b in zip(owds, owds[1:]))


class _OneHeap(emulator._Simulation):
    """The reference event queue: every event, the planned sends and the
    core hop's included, goes through the one heap, which runs until empty.
    It counts the events its three hooks schedule and the events it runs:
    an event put on the heap past the hooks makes the two differ."""

    scheduled = ran = 0

    def _schedule(self, t_us, handler, arg):
        self.scheduled += 1
        heapq.heappush(self._q, (t_us, next(self._counter), handler, arg))

    def _plan(self, t_us, handler, arg):
        self._schedule(t_us, handler, arg)

    def _after_core(self, t_us, handler, arg):
        self._schedule(t_us + self._added_us, handler, arg)

    def _run_queue(self):
        assert not self._planned and not self._core
        q = self._q
        while q:
            t, _, handler, arg = heapq.heappop(q)
            self.ran += 1
            handler(t, arg)
        assert not self._planned and not self._core


def count_hooks(monkeypatch) -> Counter:
    """Count, from now on, every event that _Simulation's three hooks
    schedule, by hook name, and the heap's peak size as "heap peak"."""
    counts = Counter()

    def counting(method):
        def hook(self, t_us, handler, arg):
            method(self, t_us, handler, arg)
            counts[method.__name__] += 1
            counts["heap peak"] = max(counts["heap peak"], len(self._q))
        return hook

    for name in ("_plan", "_schedule", "_after_core"):
        monkeypatch.setattr(emulator._Simulation, name, counting(getattr(emulator._Simulation, name)))
    return counts


def random_run(i: int) -> EmulationRun:
    """The ``i``-th seeded random config of the event-order oracle: every
    second one at 5G EDGE, where the core hop adds no delay; every fifth
    with zero base delays, alternately with 2 ms of jitter and with none,
    so that access and core events fall due at one time; video, bulk and
    ping-only traffic, each with retransmission on and off, in turn."""
    rng = random.Random(i)
    if i % 2 == 0:
        tech, band = Tech.FIVE_G, RangeBand.EDGE
    else:
        tech, band = rng.choice(list(Tech)), rng.choice([RangeBand.REGIONAL, RangeBand.NATIONAL])
    if i % 5 == 0:
        base_up = base_down = 0.0
        jitter = 2.0 if i % 10 == 0 else 0.0
    else:
        base_up, base_down = (rng.choice([None, 0.0, round(rng.uniform(0, 12), 2)]) for _ in "ud")
        jitter = rng.choice([0.0, round(rng.uniform(0, 3), 3)])
    scenario = Scenario(tech=tech, range=band, base_owd_up=base_up, base_owd_down=base_down,
                        jitter_std=jitter, loss_prob=rng.choice([0.0, round(rng.uniform(0, 0.1), 3)]),
                        bandwidth_cap=rng.choice([None, math.inf, round(rng.uniform(2, 60), 1)]),
                        retransmit=i // 3 % 2 == 0)
    traffic = ("video", "bulk", "ping")[i % 3]
    workload = Workload(
        ping_interval_ms=rng.choice([10.0, 50.0]),
        # the bulk probe's segments and the pings fall due at one time now and then
        ping_count={"ping": 10, "bulk": 8}.get(traffic) or rng.choice([0, 8]),
        video=VideoConfig(mean_frame_bytes=rng.choice([3000, 20_000]), frame_size_cv=0.3,
                          duration_s=0.4) if traffic == "video" else None,
        bulk_duration_s=0.2 if traffic == "bulk" else 0.0)
    return EmulationRun(scenario=scenario, workload=workload,
                        processing=ProcessingModel(total_ms=rng.choice([0.0, round(rng.uniform(0, 20), 2)])),
                        seed=rng.randrange(10_000))


RANDOM_RUNS = Path(__file__).parent / "golden" / "random_runs.json"
RANDOM_RUN_COUNT = 60


def output_bytes(result, tmp_path: Path) -> tuple[str, bytes, bytes]:
    """A run's records, truth file and NTP trace file, as written."""
    write_truth_file(tmp_path / "truth.ndjson", result.truth)
    write_ntp_file(tmp_path / "ntp.ndjson", result.ntp)
    records = "".join(f"{record_to_json(r)}\n" for tap in NODES for r in result.records[tap])
    return (records, (tmp_path / "truth.ndjson").read_bytes(),
            (tmp_path / "ntp.ndjson").read_bytes())


def output_digests(out: tuple[str, bytes, bytes]) -> dict[str, str]:
    """The sha256 of each of output_bytes' three outputs."""
    records, truth, ntp = out
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in (("captures", records.encode()), ("truth", truth), ("ntp", ntp))}


class TestEventOrder:
    """The event queue's three sources (planned sends, the core hop's FIFO
    and the heap) run events in the order one heap of them all would."""

    @pytest.mark.parametrize("i", range(RANDOM_RUN_COUNT))
    def test_same_bytes_as_one_heap(self, i, tmp_path, monkeypatch):
        cfg = random_run(i)
        counts = count_hooks(monkeypatch)
        out = output_bytes(run(cfg), tmp_path)
        reference = _OneHeap(cfg)  # overrides every hook, so counts no more
        assert out == output_bytes(reference.run_events(), tmp_path)
        # both share the stream's ends, so only the committed digests see them move
        expected = json.loads(RANDOM_RUNS.read_text(encoding="utf-8"))[i]
        assert output_digests(out) == expected, f"random_run({i}) differs from golden/random_runs.json"
        # the same events, each through a hook
        scheduled = counts["_plan"] + counts["_schedule"] + counts["_after_core"]
        assert scheduled == reference.scheduled == reference.ran

    @pytest.mark.parametrize("config,seed,expected", [
        # (heap pushes, heap peak, planned sends, core events), as the README quotes them
        ("default", 0, (17_569, 112, 8_684, 13_202)),
        ("rtx-video", 1, (26_653, 703, 8_820, 16_398)),
    ])
    def test_event_counts(self, config, seed, expected, tmp_path, monkeypatch):
        if config == "default":
            path = Path(__file__).parent.parent / "configs" / "default.ini"
        else:
            path = tmp_path / "rtx-video.ini"
            path.write_text(RTX_VIDEO.format(loss=0.02))
        cfg = parse_config(path).to_run(seed)
        counts = count_hooks(monkeypatch)
        run(cfg)
        assert (counts["_schedule"], counts["heap peak"], counts["_plan"],
                counts["_after_core"]) == expected

    def test_ties_run_in_counter_order(self):
        # At EDGE the core hop adds no delay, so all six events fall due at
        # 5 ms, interleaved across the sources: any order by source differs.
        sim = emulator._Simulation(ping_run(count=1))
        assert sim._added_us == 0.0
        order = []

        def note(t_us, tag):
            order.append((t_us, tag))
        sim._after_core(5000.0, note, "core 0")
        sim._schedule(5000.0, note, "heap 1")
        sim._plan(5000.0, note, "planned 2")
        sim._schedule(5000.0, note, "heap 3")
        sim._plan(5000.0, note, "planned 4")
        sim._after_core(5000.0, note, "core 5")
        sim._plan(1000.0, note, "planned early")
        sim._run_queue()
        assert order == [(1000.0, "planned early")] + [
            (5000.0, tag) for tag in ("core 0", "heap 1", "planned 2", "heap 3", "planned 4", "core 5")]


def access(base_ms=0.0, jitter_std=0.0, cap=math.inf):
    """A lossless access hop with a seeded jitter RNG."""
    return emulator._Access(base_ms, 0.0, jitter_std, random.Random(1), random.Random(2), cap)


def packet(flow=VIDEO_FLOW, proto=Proto.STREAM, length=1000):
    return emulator.TruthPacket(0, flow, Direction.UPLINK, proto, 0, length)


class TestAccess:
    def test_lost_packet_draws_no_jitter(self):
        jitter = random.Random(2)
        hop = emulator._Access(5.0, 0.5, 2.0, random.Random(1), jitter)
        lost = 0
        for i in range(200):
            before = jitter.getstate()
            arrival = hop.carry(i * 1000.0, packet(flow=i))
            drew = jitter.getstate() != before
            assert drew is (arrival is not None)
            lost += arrival is None
        assert 60 < lost < 140

    def test_never_arrives_before_it_left(self):
        # no base delay: half the jitter draws are negative
        hop = access(jitter_std=2.0)
        arrivals = [(t, hop.carry(t, packet(flow=i, proto=Proto.CTRL)))
                    for i, t in enumerate(range(0, 200_000, 1000))]
        assert all(arrival >= t for t, arrival in arrivals)
        assert sum(arrival == t for t, arrival in arrivals) > 50  # the floor was used

    def test_flow_keeps_its_order_and_flows_pass_each_other(self):
        hop = access(base_ms=10.0, jitter_std=3.0)
        arrivals = {0: [], 1: []}
        for i in range(400):
            flow = i % 2
            arrivals[flow].append((i, hop.carry(i * 100.0, packet(flow=flow, proto=Proto.CTRL))))
        for flow_arrivals in arrivals.values():
            times = [t for _, t in flow_arrivals]
            assert times == sorted(times)
        merged = [t for _, t in sorted(arrivals[0] + arrivals[1])]
        # a flow-1 packet may still reach the far end before flow 0's previous one
        assert merged != sorted(merged)

    def test_limiter_spaces_stream_packets(self):
        hop = access(base_ms=2.0, cap=8.0)  # 8 Mbit/s: 1000 bytes take 1 ms
        stream = [hop.carry(0.0, packet(length=1000)) for _ in range(5)]
        assert stream == [2000.0 + 1000.0 * k for k in range(1, 6)]
        # a CTRL packet skips the queue the stream built up
        assert hop.carry(100.0, packet(flow=CONTROL_FLOW, proto=Proto.CTRL)) == 2100.0
        # the limiter has drained by 10 ms: the next segment waits only for itself
        assert hop.carry(10_000.0, packet(length=500)) == 12_500.0

    def test_infinite_cap_is_no_limiter(self):
        hop = access(base_ms=2.0)
        assert [hop.carry(0.0, packet(length=1400)) for _ in range(3)] == [2000.0] * 3


class TestClocks:
    def test_constant_offset_shifts_stamps(self):
        clocks = ClockModel(offset_app_ms=5.0, sigma_ue_ms=0, sigma_core_ms=0, sigma_app_ms=0)
        result = run(ping_run(count=3, clocks=clocks))
        truth = {p.pid: p for p in result.truth.packets}
        for record in result.records[Tap.APP]:
            assert record.t_us - truth[record.pid].t_app_us == 5000
        for record in result.records[Tap.UE]:
            assert record.t_us == truth[record.pid].t_ue_us

    def test_noise_resampled_per_resync_interval(self):
        clocks = ClockModel(sigma_ue_ms=1.0, sigma_core_ms=0, sigma_app_ms=0,
                            resync_interval_s=1.0)
        cfg = ping_run(count=30, interval_ms=200.0, clocks=clocks, seed=10)
        result = run(cfg)
        truth = {p.pid: p for p in result.truth.packets}
        errs = {}
        for record in result.records[Tap.UE]:
            if record.dir is Direction.UPLINK:
                interval = truth[record.pid].t_ue_us // 1_000_000
                errs.setdefault(interval, set()).add(record.t_us - truth[record.pid].t_ue_us)
        # one constant error value inside an interval, several across intervals
        assert all(len(v) == 1 for v in errs.values())
        assert len({next(iter(v)) for v in errs.values()}) > 3

    def test_run_trace_matches_stamp_errors(self):
        clocks = ClockModel(offset_ue_ms=2.0, resync_interval_s=1.0)
        cfg = ping_run(count=20, interval_ms=500.0, clocks=clocks, seed=11)
        result = run(cfg)
        trace_ue = [s.offset_ms for s in result.ntp if s.node is Tap.UE]
        truth = {p.pid: p for p in result.truth.packets}
        for record in result.records[Tap.UE]:
            if record.dir is not Direction.UPLINK:
                continue
            true_us = truth[record.pid].t_ue_us
            expected = trace_ue[min(int(true_us // 1_000_000), len(trace_ue) - 1)]
            assert record.t_us - true_us == round(expected * 1000)


class TestProcessing:
    def test_command_follows_processing_delay(self):
        cfg = video_run(duration_s=0.25, seed=12)
        result = run(cfg)
        for frame in result.truth.frames:
            assert frame.delivered
            assert frame.t_cmd_emit_us == frame.t_last_app_us + 20_300
            assert frame.t_cmd_ue_us == frame.t_cmd_emit_us + 5000

    def test_serial_processing_queues_frames(self):
        # processing slower than the frame interval: commands drain serially
        from edgekpi.model import ProcessingModel
        cfg = video_run(duration_s=0.25, seed=13)
        slow = EmulationRun(scenario=cfg.scenario, workload=cfg.workload, clocks=cfg.clocks,
                            processing=ProcessingModel(total_ms=100.0), seed=13)
        result = run(slow)
        emits = [f.t_cmd_emit_us for f in result.truth.frames]
        assert all(b - a == 100_000 for a, b in zip(emits, emits[1:]))


class TestRetransmit:
    def test_retransmission_recovers_frames(self):
        base = dict(duration_s=0.5, fps=10, mean_frame_bytes=7000, cv=0.0, seed=14,
                    loss_prob=0.2)
        without = run(video_run(**base))
        delivered_without = sum(1 for f in without.truth.frames if f.delivered)
        with_rtx = run(video_run(**base, retransmit=True))
        delivered_with = sum(1 for f in with_rtx.truth.frames if f.delivered)
        assert delivered_with > delivered_without
        assert delivered_with == len(with_rtx.truth.frames)

    def test_retransmitted_ranges_are_duplicates_at_ue(self):
        result = run(video_run(duration_s=0.5, fps=10, mean_frame_bytes=7000, cv=0.0,
                               seed=14, loss_prob=0.2, retransmit=True))
        ue_data = [(r.seq, r.payload_len) for r in result.records[Tap.UE]
                   if r.proto is Proto.STREAM and r.dir is Direction.UPLINK and r.payload_len > 0]
        assert len(ue_data) > len(set(ue_data))

    def test_each_frame_processed_at_most_once(self):
        result = run(video_run(duration_s=1.0, fps=10, mean_frame_bytes=7000, cv=0.0,
                               seed=15, loss_prob=0.3, retransmit=True))
        commands = [r for r in result.records[Tap.APP]
                    if r.proto is Proto.STREAM and r.dir is Direction.DOWNLINK
                    and r.payload_len > 0]
        # one command per frame: contiguous downlink seq without repeats
        seqs = [r.seq for r in commands]
        assert len(seqs) == len(set(seqs))
        assert len(commands) <= len(result.truth.frames)


def seg(pid, seq, length, t_ue, t_app, frame_idx=0, retransmission=False,
        marker=Marker.NONE):
    return emulator.TruthPacket(pid, VIDEO_FLOW, Direction.UPLINK, Proto.STREAM, seq, length,
                                t_ue_us=t_ue, t_app_us=t_app, delivered=t_app is not None,
                                marker=marker, frame_idx=frame_idx,
                                retransmission=retransmission)


def command(pid, frame_idx, t_app, t_ue):
    return emulator.TruthPacket(pid, VIDEO_FLOW, Direction.DOWNLINK, Proto.STREAM, 0, 20,
                                t_ue_us=t_ue, t_app_us=t_app, delivered=t_ue is not None,
                                frame_idx=frame_idx)


class TestFrameTruth:
    def test_copy_delivers_lost_original(self):
        log = [seg(0, 0, 100, 0, 10_000), seg(1, 100, 50, 5, None),
               seg(2, 100, 50, 900_000, 910_000, retransmission=True),
               command(3, 0, 930_000, 935_000)]
        [frame] = emulator.frame_truth(log)
        assert frame.delivered and frame.byte_len == 150
        assert (frame.t_first_emit_us, frame.t_last_emit_us) == (0, 5)
        assert (frame.t_first_app_us, frame.t_last_app_us) == (10_000, 910_000)
        assert (frame.t_cmd_emit_us, frame.t_cmd_ue_us) == (930_000, 935_000)

    def test_late_copy_of_arrived_range_changes_nothing(self):
        # a spurious copy: the app held the range before the copy was sent
        log = [seg(0, 0, 100, 0, 10_000), seg(1, 100, 50, 5, 12_000),
               seg(2, 100, 50, 300_000, 310_000, retransmission=True)]
        [frame] = emulator.frame_truth(log)
        assert frame.delivered and frame.byte_len == 150
        assert (frame.t_first_app_us, frame.t_last_app_us) == (10_000, 12_000)

    def test_lost_segment_without_copy_is_not_delivered(self):
        [frame] = emulator.frame_truth([seg(0, 0, 100, 0, 10_000), seg(1, 100, 50, 5, None)])
        assert not frame.delivered and frame.byte_len == 150
        assert frame.t_first_app_us is None and frame.t_last_app_us is None
        assert frame.t_cmd_emit_us is None and frame.t_cmd_ue_us is None

    def test_lost_command(self):
        [frame] = emulator.frame_truth([seg(0, 0, 100, 0, 10_000), command(1, 0, 30_000, None)])
        assert frame.delivered
        assert (frame.t_cmd_emit_us, frame.t_cmd_ue_us) == (30_000, None)

    def test_frame_order_and_boundary_segments(self):
        log = [seg(0, 0, 64, 50_000, None, frame_idx=1, marker=Marker.FRAME_BOUNDARY),
               seg(1, 64, 100, 50_000, 60_000, frame_idx=1),
               seg(2, 164, 64, 0, 9_000, frame_idx=0, marker=Marker.FRAME_BOUNDARY),
               seg(3, 228, 100, 0, 10_000, frame_idx=0)]
        frames = emulator.frame_truth(log)
        assert [(f.frame_idx, f.byte_len, f.delivered) for f in frames] == [
            (0, 100, True), (1, 100, True)]
        assert frames[0].t_first_app_us == 10_000


def old_sorted_scan(book: dict, srtt, t_us: float, ack: int):
    """The sender's ACK handling before the heap: sort the whole book."""
    gain = emulator.SRTT_GAIN
    for end in sorted(k for k in book if k <= ack):
        emitted_at, retransmitted = book.pop(end)
        if retransmitted:
            continue
        sample_ms = (t_us - emitted_at) / 1000.0
        srtt = sample_ms if srtt is None else (1 - gain) * srtt + gain * sample_ms
    return srtt


def rfc6298(srtt, rttvar, sample_ms):
    """RFC 6298 section 2, written out with alpha = 1/8, beta = 1/4, K = 4,
    G = 1 us and a 200 ms floor: (SRTT, RTTVAR, RTO) after one sample."""
    if srtt is None:
        srtt, rttvar = sample_ms, sample_ms / 2
    else:
        rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample_ms)
        srtt = 0.875 * srtt + 0.125 * sample_ms
    return srtt, rttvar, max(200.0, srtt + max(0.001, 4 * rttvar))


def stream_segment(pid, seq, length=1400):
    return emulator.TruthPacket(pid, VIDEO_FLOW, Direction.UPLINK, Proto.STREAM, seq, length)


def replay(truth, on_ack=None) -> "emulator._Sender":
    """A new sender fed a run's stream events at the UE, in time order, from
    its truth log: each original segment as the UE sent it and each ACK that
    reached the UE. ``on_ack(sender, sent)`` runs after each ACK, with the
    originals sent so far."""
    events = sorted((p for p in truth.packets if p.proto is Proto.STREAM and p.t_ue_us is not None
                     and (p.dir is Direction.UPLINK and not p.retransmission
                          or p.dir is Direction.DOWNLINK and p.payload_len == 0)),
                    key=lambda p: (p.t_ue_us, p.dir is Direction.DOWNLINK))
    sender, sent = emulator._Sender(), []
    for p in events:
        if p.dir is Direction.UPLINK:
            sender.send(p.t_ue_us, p)
            sent.append(p)
        else:
            sender.ack(p.t_ue_us, p.ack)
            if on_ack is not None:
                on_ack(sender, sent)
    return sender


class SampleLog(emulator._Sender):
    """A sender that keeps the RTT samples it takes."""

    def __init__(self):
        super().__init__()
        self.samples = []

    def rtt_sample(self, sample_ms):
        self.samples.append(sample_ms)
        super().rtt_sample(sample_ms)


class TestAckBook:
    """The sender's book of unacknowledged segments: originals in ascending
    seq through ``send``, resends through ``resend``."""

    # (seq, length, emission time us) of the originals, then (seq, time us)
    # of a resend: the segment ending at 2800 is sent again
    SENDS = [(0, 1400, 1_000.0), (1400, 1400, 1_300.0), (2800, 1400, 1_700.0),
             (4200, 1400, 2_100.0), (5600, 1400, 2_350.0)]
    RESEND = (1400, 9_900.0)
    ACKS = [(12_000.0, 2800), (13_100.0, 2800), (15_750.0, 5600), (19_000.0, 7000)]

    def sender(self, cls=emulator._Sender):
        sender = cls()
        for pid, (seq, length, t_us) in enumerate(self.SENDS):
            sender.send(t_us, stream_segment(pid, seq, length))
        seq, t_us = self.RESEND
        sender.resend(t_us, seq)
        return sender

    def test_pops_each_end_once_in_ascending_order(self):
        sender = self.sender(SampleLog)
        samples = sender.samples
        sender.ack(12_000.0, 2800)
        # seq 0 is timed; seq 1400 was resent, so Karn's rule skips it
        assert samples == [11.0] and list(sender.unacked) == [2800, 4200, 5600]
        sender.ack(13_100.0, 2800)
        assert samples == [11.0] and list(sender.unacked) == [2800, 4200, 5600]
        sender.ack(15_750.0, 7000)
        assert samples == [11.0, 14.05, 13.65, 13.4] and not sender.unacked
        sender.ack(19_000.0, 7000)
        assert samples == [11.0, 14.05, 13.65, 13.4]

    def test_srtt_equals_sorted_scan(self):
        sender = self.sender()
        # segment end -> (last send time, resent), as the old sorted scan kept it
        reference = {seq + length: (t_us, False) for seq, length, t_us in self.SENDS}
        seq, t_us = self.RESEND
        reference[seq + 1400] = (t_us, True)
        srtt = None
        state = (None, 0.0, emulator.INITIAL_TIMEOUT_MS)  # RFC 6298 (SRTT, RTTVAR, RTO)
        for t_us, ack in self.ACKS:
            timed = sorted((end, t) for end, (t, rtx) in reference.items() if end <= ack and not rtx)
            sender.ack(t_us, ack)
            srtt = old_sorted_scan(reference, srtt, t_us, ack)
            for _, emitted_at in timed:
                state = rfc6298(state[0], state[1], (t_us - emitted_at) / 1000.0)
            assert state[0] == sender.srtt_ms == srtt
            assert (sender.rttvar_ms, sender.rto_ms) == state[1:]
        assert srtt is not None and not reference and not sender.unacked

    def test_resend_updates_its_entry_in_place(self):
        sender = emulator._Sender()
        originals = [stream_segment(i, i * 1400) for i in range(4)]
        for i, pkt in enumerate(originals):
            sender.send(float(i), pkt)
        assert sender.resend(50_000.0, 0) is originals[0]
        assert sender.resend(60_000.0, 2800) is originals[2]
        assert list(sender.unacked) == [0, 1400, 2800, 4200]
        assert [entry[0] for entry in sender.unacked.values()] == originals
        assert [entry[1:] for entry in sender.unacked.values()] == [
            [50_000.0, True], [1.0, False], [60_000.0, True], [3.0, False]]

    def test_holds_exactly_the_unacknowledged_seqs_mid_run(self):
        result = run(video_run(duration_s=0.5, cv=0.3, seed=6, loss_prob=0.05, jitter_std=1.0,
                               retransmit=True))
        checked = []

        def check(sender, sent):
            unacked = [p.seq for p in sent if p.seq + p.payload_len > sender.cum_ack]
            assert list(sender.unacked) == unacked
            checked.append(len(unacked))

        replay(result.truth, check)
        assert any(p.retransmission for p in result.truth.packets)
        assert max(checked) > 0 and checked[-1] == 0

    def test_empty_after_a_lossless_run(self):
        result = run(video_run(duration_s=0.5, jitter_std=1.0, retransmit=True))
        assert not any(p.retransmission for p in result.truth.packets)
        sender = replay(result.truth)
        assert sender.cum_ack == sender.sent_end > 0 and not sender.unacked


class TestSender:
    def test_rto_follows_rfc6298_with_its_floor(self):
        sender = emulator._Sender()
        assert sender.rto_ms == emulator.INITIAL_TIMEOUT_MS
        srtt = rttvar = None
        # small samples put the formula under the 200 ms floor, large and
        # spread ones above it
        samples = [12.5, 30.0, 18.25, 400.0, 650.0, 90.0, 12.0, 12.0, 12.0, 12.0]
        floored = 0
        for sample in samples:
            sender.rtt_sample(sample)
            srtt, rttvar, rto = rfc6298(srtt, rttvar, sample)
            assert (sender.srtt_ms, sender.rttvar_ms, sender.rto_ms) == (srtt, rttvar, rto)
            floored += rto == 200.0
        assert 0 < floored < len(samples)

    def test_karn_skips_retransmitted_ranges(self):
        sender = emulator._Sender()
        sender.send(0.0, stream_segment(0, 0))
        sender.send(1_000.0, stream_segment(1, 1400))
        sender.resend(6_000.0, 1400)
        sender.ack(10_000.0, 2800)
        assert (sender.srtt_ms, sender.rttvar_ms) == (10.0, 5.0)
        # an ACK of retransmitted ranges alone gives no sample
        sender.send(15_000.0, stream_segment(2, 2800))
        sender.resend(20_000.0, 2800)
        sender.ack(90_000.0, 4200)
        assert (sender.srtt_ms, sender.rttvar_ms) == (10.0, 5.0)

    def test_timer_resends_until_acknowledged_with_doubling_waits(self):
        sender = emulator._Sender()
        pkt = stream_segment(0, 0)
        assert sender.send(0.0, pkt) == emulator.INITIAL_TIMEOUT_MS * 1000
        expiries = [sender.timeout(t_us, pkt, attempt)
                    for attempt, t_us in enumerate([1e6, 3e6], start=1)]
        assert expiries == [3e6, 7e6] and sender.unacked[0][1:] == [3e6, True]
        sender.ack(7e6, 1400)
        assert sender.timeout(7e6, pkt, 3) is None

    def test_timer_gives_up_after_max_retransmits(self):
        sender = emulator._Sender()
        pkt = stream_segment(0, 0)
        sender.send(0.0, pkt)
        assert sender.timeout(1e6, pkt, emulator.MAX_RETRANSMITS) is not None
        assert sender.timeout(2e6, pkt, emulator.MAX_RETRANSMITS + 1) is None

    @pytest.fixture
    def sender(self):
        """A sender that has sent six 1400-byte segments, none acknowledged,
        and the segments."""
        sender = emulator._Sender()
        segments = [stream_segment(i, i * 1400) for i in range(6)]
        for i, pkt in enumerate(segments):
            sender.send(float(i), pkt)
        return sender, segments

    def test_third_duplicate_ack_resends_the_segment_at_the_ack(self, sender):
        sender, segments = sender
        assert sender.ack(20_000.0, 1400) is None
        resent = []
        for n in range(1, 6):
            lost = sender.ack(20_000.0 + n, 1400)
            resent += [] if lost is None else [lost]
            assert [p.seq for p in resent] == ([1400] if n >= emulator.DUP_ACK_THRESHOLD else [])
        [copy] = resent
        assert copy is segments[1]
        assert (copy.seq, copy.payload_len, copy.flow, copy.proto) == (
            1400, 1400, VIDEO_FLOW, Proto.STREAM)

    def test_partial_ack_resends_the_next_hole(self, sender):
        sender, _ = sender
        resent = [sender.ack(20_000.0, 1400) for _ in range(1 + emulator.DUP_ACK_THRESHOLD)]
        resent.append(sender.ack(40_000.0, 4200))   # partial: 8400 was sent
        assert [p.seq for p in resent if p is not None] == [1400, 4200]
        resent.append(sender.ack(60_000.0, 8400))   # full: recovery ends
        resent.append(sender.ack(60_001.0, 8400))   # nothing outstanding
        assert [p.seq for p in resent if p is not None] == [1400, 4200]

    @staticmethod
    def acks_outside_delayed_ack_policy(result) -> int:
        """ACKs the app sent with fewer than ACK_EVERY_SEGMENTS segments
        pending, none of them a frame's last and none pending for
        DELAYED_ACK_MS (perfect clocks, so stamps are true times)."""
        truth = {p.pid: p for p in result.truth.packets}
        pending, first_t, eof, outside = 0, None, False, 0
        for r in result.records[Tap.APP]:
            if r.proto is not Proto.STREAM:
                continue
            if r.dir is Direction.UPLINK and r.payload_len > 0:
                pending += 1
                first_t = r.t_us if first_t is None else first_t
                eof = truth[r.pid].end_of_frame
            elif r.dir is Direction.DOWNLINK and r.payload_len == 0:
                if not (pending >= emulator.ACK_EVERY_SEGMENTS or eof
                        or r.t_us - first_t >= emulator.DELAYED_ACK_MS * 1000):
                    outside += 1
                pending, first_t, eof = 0, None, False
        return outside

    def test_retransmit_off_sends_no_early_ack_and_no_resend(self):
        cfg = video_run(duration_s=2.0, cv=0.3, seed=4, loss_prob=0.05, jitter_std=1.0)
        result = run(cfg)
        assert not any(p.retransmission for p in result.truth.packets)
        ue = [(r.seq, r.payload_len) for r in result.records[Tap.UE]
              if r.proto is Proto.STREAM and r.dir is Direction.UPLINK and r.payload_len > 0]
        assert len(ue) == len(set(ue))
        # no sender is made, so nothing reacts to an ACK
        assert emulator._Simulation(cfg)._sender is None
        assert self.acks_outside_delayed_ack_policy(result) == 0
        # the check sees the immediate ACKs of the same path with retransmission
        rtx = run(dataclasses.replace(
            cfg, scenario=dataclasses.replace(cfg.scenario, retransmit=True)))
        assert self.acks_outside_delayed_ack_policy(rtx) > 0


#: The benchmark's 5 s retransmission scenario (VGA MJPEG at 20 fps, 100
#: pings, 1 ms jitter), at a given loss.
RTX_VIDEO = """\
[scenario]
tech = FIVE_G
range = EDGE
jitter_std = 1
loss_prob = {loss}
retransmit = true

[video]
encoder = MJPEG
resolution = VGA
fps = 20
duration_s = 5

[workload]
ping_interval_ms = 100
ping_count = 100
"""


def sender_figures(truth) -> dict:
    """From a truth log: uplink data emissions, unique byte ranges, the
    frames, those delivered, and the mean of their ``owd_first_last_ms`` in
    ms: from a frame's first emission to the moment the app holds it whole."""
    ranges = Counter((p.seq, p.payload_len) for p in truth.packets
                     if p.dir is Direction.UPLINK and p.proto is Proto.STREAM
                     and p.payload_len > 0)
    completion = [f.owd_first_last_ms() for f in truth.frames if f.delivered]
    return {"emissions": sum(ranges.values()), "ranges": len(ranges),
            "frames": len(truth.frames), "complete": len(completion),
            "mean_completion_ms": statistics.fmean(completion)}


@pytest.fixture(scope="module")
def rtx_video_figures(tmp_path_factory):
    """sender_figures of the 5 s retransmission scenario, by (loss, seed)."""
    root = tmp_path_factory.mktemp("rtx-video")
    cache = {}

    def figures(loss: float, seed: int) -> dict:
        if (loss, seed) not in cache:
            path = root / f"loss-{loss}.ini"
            path.write_text(RTX_VIDEO.format(loss=loss))
            cache[loss, seed] = sender_figures(run(parse_config(path).to_run(seed)).truth)
        return cache[loss, seed]
    return figures


class TestSenderOnTruth:
    SEEDS = range(1, 11)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_range_sent_twice_without_loss(self, rtx_video_figures, seed):
        f = rtx_video_figures(0.0, seed)
        assert f["emissions"] == f["ranges"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_few_copies_at_two_percent_loss(self, rtx_video_figures, seed):
        f = rtx_video_figures(0.02, seed)
        assert f["emissions"] / f["ranges"] <= 1.25

    @pytest.mark.parametrize("seed", SEEDS)
    def test_frame_completion_within_five_times_lossless(self, rtx_video_figures, seed):
        lossless, lossy = rtx_video_figures(0.0, seed), rtx_video_figures(0.02, seed)
        assert lossless["complete"] == lossy["complete"] == lossy["frames"] == 100
        assert lossy["mean_completion_ms"] <= 5 * lossless["mean_completion_ms"]


class TestStampsShared:
    def test_stamps_at_one_instant_share_their_ints(self, monkeypatch):
        # (node, true time) -> [(record's t_us, true time in whole us)], one
        # entry per stamp; the lists keep every int alive, so ids stay unique
        stamps = defaultdict(list)
        stamp = emulator._Simulation._stamp

        def spy(sim, node, t_us, pkt):
            true_us = stamp(sim, node, t_us, pkt)
            stamps[node, t_us].append((sim._records[node][-1].t_us, true_us))
            return true_us

        monkeypatch.setattr(emulator._Simulation, "_stamp", spy)
        golden = Path(__file__).parent / "golden" / "retransmit.ini"
        run(parse_config(golden).to_run(3))
        shared = [group for group in stamps.values() if len(group) > 1]
        assert len(shared) > 100
        for group in shared:
            assert len({id(t) for t, _ in group}) == len({id(t) for _, t in group}) == 1


class TestEventQueue:
    class Unordered:
        """An event callback that fails if the queue ever compares it."""

        def __init__(self, calls):
            self.calls = calls

        def __call__(self, t_us, arg):
            tag, then = arg
            self.calls.append((t_us, tag))
            if then is not None:
                then()

        def __eq__(self, other):
            raise AssertionError("the event queue compared two callbacks")

        __lt__ = __gt__ = __le__ = __ge__ = __eq__

    def test_same_time_events_run_in_scheduling_order(self):
        sim = emulator._Simulation(ping_run(count=1))
        calls = []
        fn = self.Unordered(calls)

        def late():
            sim._schedule(5.0, fn, ("late", None))

        for tag, t_us in enumerate([5.0, 1.0, 5.0, 1.0, 5.0]):
            sim._schedule(t_us, fn, (tag, late if tag == 0 else None))
        sim.run_events()
        assert calls == [(1.0, 1), (1.0, 3), (5.0, 0), (5.0, 2), (5.0, 4), (5.0, "late")]


def video_plans(frame_bytes: list[int]) -> list[emulator.SegmentPlan]:
    """One boundary segment then one data segment per frame, as
    gen_video_stream lays them out."""
    plans, seq = [], 0
    for k, size in enumerate(frame_bytes):
        boundary = BOUNDARY_SEGMENT_BYTES
        plans.append(emulator.SegmentPlan(0, seq, boundary, Marker.FRAME_BOUNDARY, k, False))
        plans.append(emulator.SegmentPlan(0, seq + boundary, size, Marker.NONE, k, True))
        seq += boundary + size
    return plans


def tiled_plans(rng: random.Random) -> list[emulator.SegmentPlan]:
    """A random video layout: per frame, a boundary segment then 1-5 data
    segments of random sizes, tiling the stream as gen_video_stream does."""
    plans, seq = [], 0
    for k in range(rng.randrange(1, 8)):
        plans.append(emulator.SegmentPlan(0, seq, BOUNDARY_SEGMENT_BYTES, Marker.FRAME_BOUNDARY,
                                          k, False))
        seq += BOUNDARY_SEGMENT_BYTES
        n = rng.randrange(1, 6)
        for i in range(n):
            size = rng.randrange(1, 200)
            plans.append(emulator.SegmentPlan(0, seq, size, Marker.NONE, k, i == n - 1))
            seq += size
    return plans


def arrive(receiver, t_us, plan):
    """Hand ``plan``'s segment to ``receiver`` at ``t_us``; its answer."""
    pkt = emulator.TruthPacket(0, VIDEO_FLOW, Direction.UPLINK, Proto.STREAM, plan.seq,
                               plan.payload_len, 0, plan.marker, plan.frame_idx,
                               plan.end_of_frame)
    frames, ack, deadline = receiver.segment(t_us, pkt)
    return list(frames), ack, deadline


class TestReceiveBuffer:
    @pytest.mark.parametrize("ack_out_of_order", [False, True])
    def test_matches_a_prefix_reference_on_tiled_streams(self, ack_out_of_order):
        rng = random.Random(5)
        for _ in range(300):
            plans = tiled_plans(rng)
            frame_ends = [p.seq + p.payload_len for p in plans if p.end_of_frame]
            arrivals = [p for p in plans for _ in range(rng.randrange(1, 4))]
            rng.shuffle(arrivals)
            receiver = emulator._Receiver(ack_out_of_order)
            received, ready, pending = set(), [], 0
            prefix = 0  # the longest fully received prefix of the stream
            for t_us, plan in enumerate(arrivals):
                # out of order: above the prefix, or some segment held above it
                out_of_order = plan.seq > prefix or any(
                    p.seq > prefix for p in plans if p.seq in received)
                received.add(plan.seq)
                for p in plans:  # in seq order, so one pass extends the prefix
                    if p.seq == prefix and p.seq in received:
                        prefix = p.seq + p.payload_len
                frames, ack, _ = arrive(receiver, float(t_us), plan)
                ready += frames
                assert ready == [k for k, end in enumerate(frame_ends) if end <= prefix]
                pending += 1
                if (ack_out_of_order and out_of_order or pending >= emulator.ACK_EVERY_SEGMENTS
                        or plan.end_of_frame):
                    assert ack == prefix
                    pending = 0
                else:
                    assert ack is None

    def test_acks_every_second_segment_each_frame_end_and_on_its_timer(self):
        plans = video_plans([100, 100])
        receiver = emulator._Receiver(False)
        deadline = 1_000.0 + emulator.DELAYED_ACK_MS * 1000
        # a boundary segment alone waits for the timer
        assert arrive(receiver, 1_000.0, plans[0]) == ([], None, deadline)
        assert receiver.ack_timer(deadline - 1) is None
        assert receiver.ack_timer(deadline) == 64
        # the frame's last segment is acknowledged at once, and readies it
        assert arrive(receiver, 9_000.0, plans[1]) == ([0], 164, None)
        assert arrive(receiver, 9_500.0, plans[2]) == ([], None, 9_500.0 + 5_000.0)
        # the second pending segment is acknowledged at once; the timer set
        # before it then finds no ACK due
        assert arrive(receiver, 9_600.0, plans[3]) == ([1], 328, None)
        assert receiver.ack_timer(14_500.0) is None

    def test_frames_ready_in_byte_order_once(self):
        plans = video_plans([100, 100, 100])
        receiver = emulator._Receiver(False)
        # frame 1 arrives whole before frame 0's data: it waits for it
        assert arrive(receiver, 1.0, plans[2])[0] == []
        assert arrive(receiver, 2.0, plans[3])[0] == []
        assert arrive(receiver, 3.0, plans[0])[0] == []
        assert arrive(receiver, 4.0, plans[1])[0] == [0, 1]
        # a copy of a frame already ready readies nothing
        assert arrive(receiver, 5.0, plans[3])[0] == []
        assert arrive(receiver, 6.0, plans[5])[0] == []
        assert arrive(receiver, 7.0, plans[4])[0] == [2]

    @pytest.mark.parametrize("ack_out_of_order", [False, True])
    def test_segment_out_of_order_acknowledged_at_once_only_with_retransmission(
            self, ack_out_of_order):
        plans = video_plans([100])
        receiver = emulator._Receiver(ack_out_of_order)
        _, ack, deadline = arrive(receiver, 1.0, plans[0])
        assert (ack, deadline) == (None, 1.0 + emulator.DELAYED_ACK_MS * 1000)
        receiver.ack_timer(deadline)
        # a segment above the cumulative point (64) after a lost one
        late = emulator.SegmentPlan(0, 300, 50, Marker.NONE, None, False)
        _, ack, deadline = arrive(receiver, 10_000.0, late)
        assert (ack, deadline) == ((64, None) if ack_out_of_order else (None, 15_000.0))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = [output_digests(output_bytes(run(random_run(i)), Path(scratch)))
                 for i in range(RANDOM_RUN_COUNT)]
    RANDOM_RUNS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} runs' digests to {RANDOM_RUNS}", file=sys.stderr)
