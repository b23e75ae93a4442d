"""Capture analysis: stream reassembly and raw latency-sample extraction.

Everything here is a pure function of capture records (plus the clock-offset
trace); ground-truth files are never consulted. Samples are milliseconds.
A capture carries at most one stream flow besides its CTRL packets
(``model.validate`` rejects a second), so the STREAM filters here select by
proto, direction and payload alone.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
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


#: The round-trip latency classes: ping RTT, per-segment stream RTT and
#: per-frame service latency, all timed at the UE tap.
LATENCY_CLASSES = ("CTRL", "STREAM-packet", "STREAM-frame")
#: Every sample class an analysis yields, in the order the samples file and
#: the report write them: the latency classes, then the clock-corrected
#: one-way delays of uplink packets, uplink frames and downlink commands.
SAMPLE_CLASSES = (*LATENCY_CLASSES, "OWD-packet", "OWD-frame", "OWD-command")


class FrameEndpoints(Enum):
    """Which segment timestamps delimit a frame's one-way delay."""

    FIRST_TO_LAST = "FIRST_TO_LAST"
    FIRST_TO_FIRST = "FIRST_TO_FIRST"


class MalformedCaptureError(ValueError):
    """Capture contains conflicting stream segments, or a pid that names
    another packet than at the other tap; ``tap`` is the tap of the records
    that conflict."""

    def __init__(self, message: str, tap: Tap):
        self.tap = tap
        super().__init__(message)


class InsufficientDataError(ValueError):
    """Not enough samples to estimate the requested quantity."""


@dataclass(frozen=True)
class AnalyzerConfig:
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

    end: int
    segments: list[CaptureRecord]
    complete: bool        # a closing boundary was observed
    contiguous: bool      # no byte gaps inside the extent


def _end(r: CaptureRecord) -> int:
    return r.seq + r.payload_len


def reassemble(records: Sequence[CaptureRecord]) -> list[CaptureRecord]:
    """The uplink stream's segments in seq order, keeping the first record
    observed for each byte range so that range is timed by its first
    capture. Conflicting overlaps raise MalformedCaptureError."""
    by_seq: dict[int, CaptureRecord] = {}
    for rec in records:
        if rec.proto is STREAM and rec.dir is UPLINK and rec.payload_len > 0:
            first = by_seq.setdefault(rec.seq, rec)
            if first.payload_len != rec.payload_len:
                raise MalformedCaptureError(
                    f"stream segments at seq {rec.seq} disagree on length "
                    f"({first.payload_len} vs {rec.payload_len})", rec.tap)
    segments = [by_seq[s] for s in sorted(by_seq)]
    for prev, cur in zip(segments, segments[1:]):
        if cur.seq < _end(prev):
            raise MalformedCaptureError(
                f"stream segment [{cur.seq},{_end(cur)}) overlaps [{prev.seq},{_end(prev)})", cur.tap)
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
        return FrameExtent(end=0, segments=[], complete=complete, contiguous=True)
    contiguous = all(b.seq == _end(a) for a, b in zip(segs, segs[1:]))
    return FrameExtent(end=_end(segs[-1]), segments=segs, complete=complete, contiguous=contiguous)


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
    """Capture-ordered pure ACKs of the stream, searchable by capture
    position and by the running maximum of their cumulative ack."""

    def __init__(self, ue_records: Sequence[CaptureRecord]):
        self.positions: list[int] = []
        self.records: list[CaptureRecord] = []
        self.max_acks: list[int] = []  # max ack of records[:i + 1]; non-decreasing
        best = 0
        for i, r in enumerate(ue_records):
            if r.proto is STREAM and r.dir is DOWNLINK and r.payload_len == 0 and r.ack > 0:
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


def rtt_tcp(ue_records: Sequence[CaptureRecord]) -> SampleSet:
    """Per-segment RTT at the UE tap: first cumulative ACK covering the
    segment minus the segment's emission stamp. Segments never covered are
    excluded, as are retransmitted byte ranges (Karn's rule)."""
    data = [r for r in ue_records
            if r.proto is STREAM and r.dir is UPLINK and r.payload_len > 0]
    copies = Counter((r.seq, r.payload_len) for r in data)
    acks = _AckIndex(ue_records)
    # covering_after(-1, end): with no position to skip, the first ACK
    # whose running maximum reaches ``end``
    firsts = map(bisect_left, repeat(acks.max_acks), [r.seq + r.payload_len for r in data])
    samples = []
    excluded = 0
    for r, i in zip(data, firsts):
        if copies[r.seq, r.payload_len] > 1 or i == len(acks.records):
            excluded += 1
            continue
        samples.append((acks.records[i].t_us - r.t_us) / 1000.0)
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
               direction: Direction = Direction.UPLINK) -> SampleSet:
    """Clock-corrected one-way delay per payload packet of ``direction``,
    matched across the taps by pid; a packet whose pid misses the far tap is
    excluded. ``offsets`` maps node to its estimated clock offset in ms. A
    pid at both taps must name one packet, its records equal but for tap and
    stamp, or MalformedCaptureError names the far tap."""
    def pool(records: Sequence[CaptureRecord]) -> list[CaptureRecord]:
        return [r for r in records if r.dir is direction and r.payload_len > 0]

    # the packet leaves the origin tap and reaches the far one
    if direction is UPLINK:
        origin_pool, far_pool = pool(ue_records), pool(app_records)
        off_origin, off_far = _offset_us(offsets, Tap.UE), _offset_us(offsets, Tap.APP)
    else:
        origin_pool, far_pool = pool(app_records), pool(ue_records)
        off_origin, off_far = _offset_us(offsets, Tap.APP), _offset_us(offsets, Tap.UE)

    far_by_pid: dict[int, CaptureRecord] = {}
    for r in far_pool:
        far_by_pid.setdefault(r.pid, r)

    # the stamps' int difference first, so that no sample depends on where
    # the clocks' time starts
    off = off_far - off_origin
    samples = []
    for r in origin_pool:
        far = far_by_pid.get(r.pid)
        if far is None:
            continue
        if r[2:] != far[2:]:
            raise MalformedCaptureError(
                f"pid {r.pid} names another packet at tap {far.tap.value} "
                f"than at tap {r.tap.value}", far.tap)
        samples.append(((far.t_us - r.t_us) - off) / 1000.0)
    return SampleSet(tuple(samples), len(origin_pool) - len(samples))


def frame_samples(ue_records: Sequence[CaptureRecord], app_records: Sequence[CaptureRecord],
                  offsets: Mapping[Tap, float] | None = None,
                  endpoints: FrameEndpoints = FrameEndpoints.FIRST_TO_LAST,
                  ) -> tuple[SampleSet, SampleSet]:
    """Per-frame service latency and clock-corrected uplink frame OWD of the
    video stream, the frames as the UE tap delimits them.

    Latency runs at the UE tap from a frame's first data segment to the first
    subsequent ACK covering its final byte. For the OWD, each of the frame's
    byte ranges is timed by its earliest record at the APP tap; the frame is
    delivered when every range is there. FIRST_TO_LAST OWD (default) runs
    from the frame's first segment leaving the UE to the latest of those
    arrivals, the moment the app holds the whole frame, so serialization and
    retransmission time are part of the sample. FIRST_TO_FIRST runs to the
    earliest of them. APP-side boundary markers play no part. Frames that
    are incomplete or have gaps at the UE count as excluded in both sets;
    frames without a covering ACK, or not delivered, are excluded from the
    latency or OWD set respectively.
    """
    ue_frames = segment_frames(reassemble(ue_records))
    app_first = {(r.seq, r.payload_len): r.t_us for r in reassemble(app_records)}
    pick = max if endpoints is FrameEndpoints.FIRST_TO_LAST else min
    pos = {r.pid: i for i, r in enumerate(ue_records)}
    acks = _AckIndex(ue_records)
    off = _offset_us(offsets, Tap.APP) - _offset_us(offsets, Tap.UE)
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
        arrivals = [app_first.get((s.seq, s.payload_len)) for s in fr.segments]
        if None in arrivals:
            owd_excluded += 1
            continue
        owd.append(((pick(arrivals) - first.t_us) - off) / 1000.0)
    return SampleSet(tuple(latency), latency_excluded), SampleSet(tuple(owd), owd_excluded)


def measured_goodput_mbps(app_records: Sequence[CaptureRecord],
                          warmup_s: float = 0.5) -> float | None:
    """Delivered uplink payload rate at the APP tap after a warm-up window."""
    arrivals = [(r.t_us, r.payload_len) for r in app_records
                if r.proto is STREAM and r.dir is UPLINK and r.payload_len > 0]
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
    """Uplink stream payload rate offered at the UE tap (demand estimate).
    Each byte range counts once, at its first record: that is its original,
    so resent copies add neither bytes nor time."""
    first: dict[tuple[int, int], int] = {}  # (seq, len) -> stamp, in record order
    for r in ue_records:
        if r.proto is STREAM and r.dir is UPLINK and r.payload_len > 0:
            first.setdefault((r.seq, r.payload_len), r.t_us)
    if len(first) < 2:
        return None
    stamps = list(first.values())
    span_us = stamps[-1] - stamps[0]
    if span_us <= 0:
        return None
    return sum(ln for _, ln in first) * 8.0 / span_us


@dataclass
class AnalysisResult:
    """Raw sample sets extracted from one capture set; ``samples`` holds one
    set per name of ``SAMPLE_CLASSES``, in that order."""

    samples: dict[str, SampleSet]
    offsets: dict[Tap, OffsetEstimate] | None
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
    stream = rtt_tcp(ue_records)

    # A stream with frame markers is video, measured per frame; any other
    # is a bulk probe, measured by its goodput.
    goodput = None
    if any(r.marker is FRAME_BOUNDARY for r in ue_records):
        flat, fowd = frame_samples(ue_records, app_records, offsets_ms, cfg.owd_frame_endpoints)
    else:
        flat = fowd = SampleSet((), 0)
        goodput = measured_goodput_mbps(app_records)

    powd = owd_packet(ue_records, app_records, offsets_ms, UPLINK)
    # Downlink OWD restricted to stream packets so it reads the app's command
    # replies rather than ping echoes.
    ue_stream = [r for r in ue_records if r.proto is STREAM]
    app_stream = [r for r in app_records if r.proto is STREAM]
    cmd_owd = owd_packet(ue_stream, app_stream, offsets_ms, DOWNLINK)

    return AnalysisResult(
        samples=dict(zip(SAMPLE_CLASSES, (ctrl, stream, flat, powd, fowd, cmd_owd), strict=True)),
        offsets=offsets_est,
        goodput_mbps=goodput,
        offered_mbps=offered_rate_mbps(ue_records),
    )
