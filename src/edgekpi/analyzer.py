"""Capture analysis: flow reassembly and raw latency-sample extraction.

Everything here is a pure function of capture records (plus the clock-offset
trace); ground-truth files are never consulted. Samples are milliseconds.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .model import (
    CaptureRecord,
    CTRL,
    Direction,
    DOWNLINK,
    FRAME_BOUNDARY,
    NODES,
    NtpSample,
    STREAM,
    Tap,
    UPLINK,
    acyclic,
)


class MatchMode(Enum):
    BY_PID = "BY_PID"
    BY_SEQ = "BY_SEQ"


class FrameEndpoints(Enum):
    """Which segment timestamps delimit a frame's one-way delay."""

    FIRST_TO_LAST = "FIRST_TO_LAST"
    FIRST_TO_FIRST = "FIRST_TO_FIRST"


class MalformedCaptureError(ValueError):
    """Capture contains conflicting stream segments."""


class InsufficientDataError(ValueError):
    """Not enough samples to estimate the requested quantity."""


@dataclass(frozen=True)
class AnalyzerConfig:
    match_mode: MatchMode = MatchMode.BY_PID
    owd_frame_endpoints: FrameEndpoints = FrameEndpoints.FIRST_TO_LAST


@dataclass(frozen=True)
class SampleSet:
    """Latency samples (ms) plus the count of observations excluded on the way."""

    values_ms: tuple[float, ...]
    excluded: int = 0

    def __len__(self) -> int:
        return len(self.values_ms)


@dataclass
class FrameExtent:
    """Data segments strictly between two consecutive boundary markers."""

    start: int
    end: int
    segments: list[CaptureRecord]
    complete: bool        # a closing boundary was observed
    contiguous: bool      # no byte gaps inside the extent


def _end(r: CaptureRecord) -> int:
    return r.seq + r.payload_len


def reassemble(records: Sequence[CaptureRecord], flow: int,
               direction: Direction = Direction.UPLINK) -> list[CaptureRecord]:
    """One flow's stream segments in seq order, keeping the first record
    observed for each byte range so that range is timed by its first
    capture. Conflicting overlaps raise MalformedCaptureError."""
    by_seq: dict[int, CaptureRecord] = {}
    for rec in records:
        if (rec.proto is STREAM and rec.flow == flow and rec.dir is direction
                and rec.payload_len > 0):
            first = by_seq.setdefault(rec.seq, rec)
            if first.payload_len != rec.payload_len:
                raise MalformedCaptureError(
                    f"flow {flow}: segments at seq {rec.seq} disagree on length "
                    f"({first.payload_len} vs {rec.payload_len})")
    segments = [by_seq[s] for s in sorted(by_seq)]
    for prev, cur in zip(segments, segments[1:]):
        if cur.seq < _end(prev):
            raise MalformedCaptureError(
                f"flow {flow}: segment [{cur.seq},{_end(cur)}) overlaps [{prev.seq},{_end(prev)})")
    return segments


def segment_frames(segments: Sequence[CaptureRecord]) -> list[FrameExtent]:
    """Split a reassembled stream at its boundary markers.

    Frame k holds the segments strictly between markers k and k+1; a trailing
    unterminated group is reported as an incomplete frame. Zero markers yield
    no frames.
    """
    frames: list[FrameExtent] = []
    current: list[CaptureRecord] | None = None
    for seg in segments:
        if seg.marker is FRAME_BOUNDARY:
            if current is not None:
                frames.append(_make_extent(current, complete=True))
            current = []
        elif current is not None:
            current.append(seg)
        # data before the first marker belongs to no frame
    if current:
        frames.append(_make_extent(current, complete=False))
    return frames


def _make_extent(segs: list[CaptureRecord], complete: bool) -> FrameExtent:
    if not segs:
        return FrameExtent(start=0, end=0, segments=[], complete=complete, contiguous=True)
    contiguous = all(b.seq == _end(a) for a, b in zip(segs, segs[1:]))
    return FrameExtent(start=segs[0].seq, end=_end(segs[-1]),
                       segments=segs, complete=complete, contiguous=contiguous)


def rtt_control(ue_records: Sequence[CaptureRecord]) -> SampleSet:
    """Ping round-trip times at the UE tap; replies carry the request pid in
    their ack field, and both stamps share the UE clock so offsets cancel."""
    requests = [r for r in ue_records if r.proto is CTRL and r.dir is UPLINK]
    replies: dict[int, CaptureRecord] = {}
    for r in ue_records:
        if r.proto is CTRL and r.dir is DOWNLINK and r.ack not in replies:
            replies[r.ack] = r
    samples = []
    excluded = 0
    for req in requests:
        rep = replies.get(req.pid)
        if rep is None:
            excluded += 1
            continue
        samples.append((rep.t_us - req.t_us) / 1000.0)
    return SampleSet(tuple(samples), excluded)


class _AckIndex:
    """Capture-ordered pure ACKs of one flow, searchable by capture position
    and by the running maximum of their cumulative ack."""

    def __init__(self, ue_records: Sequence[CaptureRecord], flow: int):
        self.positions: list[int] = []
        self.records: list[CaptureRecord] = []
        self.max_acks: list[int] = []  # max ack of records[:i + 1]; non-decreasing
        best = 0
        for i, r in enumerate(ue_records):
            if (r.proto is STREAM and r.dir is DOWNLINK
                    and r.flow == flow and r.payload_len == 0 and r.ack > 0):
                best = max(best, r.ack)
                self.positions.append(i)
                self.records.append(r)
                self.max_acks.append(best)

    def covering_after(self, last_pos: int, end: int) -> CaptureRecord | None:
        """First ACK after capture position ``last_pos`` whose cumulative ack
        reaches ``end``. That is the first ACK whose running maximum reaches
        ``end``, unless that ACK lies at or before ``last_pos``; only then
        does the search scan the ACKs after ``last_pos``."""
        start = bisect_left(self.positions, last_pos + 1)
        i = bisect_left(self.max_acks, end)
        if i < start:
            i = start
            while i < len(self.records) and self.records[i].ack < end:
                i += 1
        return self.records[i] if i < len(self.records) else None


def rtt_tcp(ue_records: Sequence[CaptureRecord], flow: int) -> SampleSet:
    """Per-segment RTT at the UE tap: first cumulative ACK covering the
    segment minus the segment's emission stamp. Segments never covered are
    excluded, as are retransmitted byte ranges (Karn's rule)."""
    data = [r for r in ue_records
            if r.proto is STREAM and r.dir is UPLINK
            and r.flow == flow and r.payload_len > 0]
    seen: dict[tuple[int, int], int] = {}
    for r in data:
        key = (r.seq, r.payload_len)
        seen[key] = seen.get(key, 0) + 1
    acks = _AckIndex(ue_records, flow)
    samples = []
    excluded = 0
    for r in data:
        key = (r.seq, r.payload_len)
        if seen[key] > 1:
            excluded += 1
            continue
        covering = acks.covering_after(-1, r.seq + r.payload_len)
        if covering is None:
            excluded += 1
            continue
        samples.append((covering.t_us - r.t_us) / 1000.0)
    return SampleSet(tuple(samples), excluded)


def srtt(samples: Sequence[float], alpha: float = 0.125) -> list[float]:
    """Exponentially smoothed RTT series: s_0 = r_0, s_k = (1-a)s_{k-1} + a r_k."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    out: list[float] = []
    current: float | None = None
    for r in samples:
        current = r if current is None else (1.0 - alpha) * current + alpha * r
        out.append(current)
    return out


@dataclass(frozen=True)
class OffsetEstimate:
    mean_ms: float
    std_ms: float
    count: int


def estimate_offsets(trace: Sequence[NtpSample]) -> dict[Tap, OffsetEstimate]:
    """Batch per-node offset estimate (sample mean) and noise std from an
    NTP offset trace. Requires at least two samples per node."""
    by_node: dict[Tap, list[float]] = {n: [] for n in NODES}
    for s in trace:
        by_node[s.node].append(s.offset_ms)
    out: dict[Tap, OffsetEstimate] = {}
    for node in NODES:
        vals = by_node[node]
        if len(vals) < 2:
            raise InsufficientDataError(f"need >= 2 offset samples for {node.value}, got {len(vals)}")
        out[node] = OffsetEstimate(statistics.fmean(vals), statistics.stdev(vals), len(vals))
    return out


def _offset_us(offsets: Mapping[Tap, float] | None, node: Tap) -> float:
    if not offsets:
        return 0.0
    return offsets.get(node, 0.0) * 1000.0


def owd_packet(ue_records: Sequence[CaptureRecord], app_records: Sequence[CaptureRecord],
               offsets: Mapping[Tap, float] | None = None,
               match_mode: MatchMode = MatchMode.BY_PID,
               direction: Direction = Direction.UPLINK) -> SampleSet:
    """Clock-corrected one-way delay per payload packet seen at both taps.

    ``offsets`` maps node to its estimated clock offset in ms. BY_SEQ matching
    (the fallback for captures without shared packet ids) keys on
    (flow, seq, payload_len) and therefore only considers stream segments.
    """
    by_seq = match_mode is MatchMode.BY_SEQ

    def pool(records: Sequence[CaptureRecord]) -> list[CaptureRecord]:
        out = []
        for r in records:
            if r.dir is not direction or r.payload_len <= 0:
                continue
            if by_seq and r.proto is not STREAM:
                continue
            out.append(r)
        return out

    ue_pool = pool(ue_records)
    app_pool = pool(app_records)
    origin_pool, far_pool = (ue_pool, app_pool) if direction is UPLINK else (app_pool, ue_pool)

    if by_seq:
        def key(r: CaptureRecord):
            return (r.flow, r.seq, r.payload_len)
    else:
        def key(r: CaptureRecord):
            return r.pid

    far_by_key: dict = {}
    for r in far_pool:
        far_by_key.setdefault(key(r), r)

    off_ue = _offset_us(offsets, Tap.UE)
    off_app = _offset_us(offsets, Tap.APP)
    samples = []
    excluded = 0
    seen_keys: set = set()
    for r in origin_pool:
        k = key(r)
        if k in seen_keys:
            continue
        seen_keys.add(k)
        far = far_by_key.get(k)
        if far is None:
            excluded += 1
            continue
        if direction is UPLINK:
            delta_us = (far.t_us - off_app) - (r.t_us - off_ue)
        else:
            delta_us = (far.t_us - off_ue) - (r.t_us - off_app)
        samples.append(delta_us / 1000.0)
    return SampleSet(tuple(samples), excluded)


def frame_samples(ue_records: Sequence[CaptureRecord], app_records: Sequence[CaptureRecord],
                  flow: int, offsets: Mapping[Tap, float] | None = None,
                  endpoints: FrameEndpoints = FrameEndpoints.FIRST_TO_LAST,
                  ) -> tuple[SampleSet, SampleSet]:
    """Per-frame service latency and clock-corrected uplink frame OWD of one
    video flow, from one reassembly of each tap.

    Latency runs at the UE tap from a frame's first data segment to the first
    subsequent ACK covering its final byte. FIRST_TO_LAST OWD (default) runs
    from the frame's first segment leaving the UE to its last segment reaching
    the app, so serialization time is part of the sample and larger frames
    read slower. Frames that are incomplete or have gaps at the UE count as
    excluded in both sets; frames without a covering ACK, or not delivered
    whole to the app, are excluded from the latency or OWD set respectively.
    """
    ue_frames = segment_frames(reassemble(ue_records, flow, UPLINK))
    app_frames = segment_frames(reassemble(app_records, flow, UPLINK))
    app_by_start = {f.start: f for f in app_frames if f.segments}
    pos = {r.pid: i for i, r in enumerate(ue_records)}
    acks = _AckIndex(ue_records, flow)
    off_ue = _offset_us(offsets, Tap.UE)
    off_app = _offset_us(offsets, Tap.APP)
    latency: list[float] = []
    owd: list[float] = []
    latency_excluded = owd_excluded = 0
    for fr in ue_frames:
        if not fr.complete or not fr.segments or not fr.contiguous:
            latency_excluded += 1
            owd_excluded += 1
            continue
        first = fr.segments[0]
        last_pos = max(pos[s.pid] for s in fr.segments)
        covering = acks.covering_after(last_pos, fr.end)
        if covering is None:
            latency_excluded += 1
        else:
            latency.append((covering.t_us - first.t_us) / 1000.0)
        af = app_by_start.get(fr.start)
        if af is None or not af.contiguous or af.end != fr.end:
            owd_excluded += 1
            continue
        t_ue = first.t_us - off_ue
        if endpoints is FrameEndpoints.FIRST_TO_LAST:
            t_app = af.segments[-1].t_us - off_app
        else:
            t_app = af.segments[0].t_us - off_app
        owd.append((t_app - t_ue) / 1000.0)
    return SampleSet(tuple(latency), latency_excluded), SampleSet(tuple(owd), owd_excluded)


def stream_flows(records: Sequence[CaptureRecord]) -> list[int]:
    """Flow ids carrying uplink stream payload, in first-seen order."""
    seen: list[int] = []
    for r in records:
        if (r.proto is STREAM and r.dir is UPLINK
                and r.payload_len > 0 and r.flow not in seen):
            seen.append(r.flow)
    return seen


def video_flows(records: Sequence[CaptureRecord]) -> list[int]:
    """Stream flows that contain frame-boundary markers."""
    seen: list[int] = []
    for r in records:
        if r.marker is FRAME_BOUNDARY and r.flow not in seen:
            seen.append(r.flow)
    return seen


def measured_goodput_mbps(app_records: Sequence[CaptureRecord], flow: int,
                          warmup_s: float = 0.5) -> float | None:
    """Delivered uplink payload rate at the APP tap after a warm-up window."""
    arrivals = [(r.t_us, r.payload_len) for r in app_records
                if r.proto is STREAM and r.dir is UPLINK
                and r.flow == flow and r.payload_len > 0]
    if len(arrivals) < 2:
        return None
    t0 = arrivals[0][0] + warmup_s * 1e6
    window = [(t, ln) for t, ln in arrivals if t >= t0]
    if len(window) < 2:
        return None
    span_us = window[-1][0] - window[0][0]
    if span_us <= 0:
        return None
    payload_bits = sum(ln for _, ln in window[1:]) * 8.0
    return payload_bits / span_us  # bit/us == Mbit/s


def offered_rate_mbps(ue_records: Sequence[CaptureRecord]) -> float | None:
    """Uplink stream payload rate offered at the UE tap (demand estimate)."""
    emissions = [(r.t_us, r.payload_len) for r in ue_records
                 if r.proto is STREAM and r.dir is UPLINK and r.payload_len > 0]
    if len(emissions) < 2:
        return None
    span_us = emissions[-1][0] - emissions[0][0]
    if span_us <= 0:
        return None
    return sum(ln for _, ln in emissions) * 8.0 / span_us


@dataclass
class AnalysisResult:
    """Raw sample sets extracted from one capture set."""

    ctrl_rtt: SampleSet
    stream_rtt: SampleSet
    frame_latency: SampleSet
    owd_packet_up: SampleSet
    owd_frame_up: SampleSet
    owd_command_down: SampleSet
    offsets: dict[Tap, OffsetEstimate] | None
    sent_uplink: int
    delivered_uplink: int
    goodput_mbps: float | None
    offered_mbps: float | None


@acyclic()
def analyze_captures(ue_records: Sequence[CaptureRecord],
                     core_records: Sequence[CaptureRecord],
                     app_records: Sequence[CaptureRecord],
                     ntp_trace: Sequence[NtpSample] | None = None,
                     config: AnalyzerConfig | None = None) -> AnalysisResult:
    """Extract every sample class the KPI engine consumes from one capture set."""
    cfg = config or AnalyzerConfig()
    offsets_est = None
    offsets_ms: dict[Tap, float] | None = None
    if ntp_trace:
        offsets_est = estimate_offsets(ntp_trace)
        offsets_ms = {node: est.mean_ms for node, est in offsets_est.items()}

    ctrl = rtt_control(ue_records)

    stream_samples: list[float] = []
    stream_excluded = 0
    for flow in stream_flows(ue_records):
        ss = rtt_tcp(ue_records, flow)
        stream_samples.extend(ss.values_ms)
        stream_excluded += ss.excluded
    stream = SampleSet(tuple(stream_samples), stream_excluded)

    vflows = video_flows(ue_records)
    if vflows:
        flat, fowd = frame_samples(ue_records, app_records, vflows[0], offsets_ms,
                                   cfg.owd_frame_endpoints)
    else:
        flat = fowd = SampleSet((), 0)

    powd = owd_packet(ue_records, app_records, offsets_ms, cfg.match_mode, UPLINK)
    # Downlink OWD restricted to stream packets so it reads the app's command
    # replies rather than ping echoes.
    ue_stream = [r for r in ue_records if r.proto is STREAM]
    app_stream = [r for r in app_records if r.proto is STREAM]
    cmd_owd = owd_packet(ue_stream, app_stream, offsets_ms, cfg.match_mode, DOWNLINK)

    sent = sum(1 for r in ue_records if r.dir is UPLINK and r.payload_len > 0)
    delivered_pids = {r.pid for r in app_records if r.dir is UPLINK}
    delivered = sum(1 for r in ue_records
                    if r.dir is UPLINK and r.payload_len > 0 and r.pid in delivered_pids)

    goodput = None
    bulk_candidates = [f for f in stream_flows(ue_records) if f not in vflows]
    if bulk_candidates:
        goodput = measured_goodput_mbps(app_records, bulk_candidates[0])

    return AnalysisResult(
        ctrl_rtt=ctrl,
        stream_rtt=stream,
        frame_latency=flat,
        owd_packet_up=powd,
        owd_frame_up=fowd,
        owd_command_down=cmd_owd,
        offsets=offsets_est,
        sent_uplink=sent,
        delivered_uplink=delivered,
        goodput_mbps=goodput,
        offered_mbps=offered_rate_mbps(ue_records),
    )
