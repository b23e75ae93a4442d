"""Deterministic discrete-event emulation of a UE -> core -> app-server path.

The emulated testbed has three capture taps (UE, CORE, APP). Uplink traffic
crosses an access hop (:class:`_Access`) with a FIFO rate limiter (the
bandwidth cap), then a core link carrying the range-dependent added delay;
downlink traffic takes the reverse path over an access hop without a rate
cap (ACKs and small commands only). Every
packet is stamped at each tap with that node's local clock: true time plus
the node's offset plus piecewise-constant resync noise.

The stream's two ends hold its state: :class:`_Sender` at the UE (made only
with retransmission) and :class:`_Receiver` at the app. They answer what must
happen next, and :class:`_Simulation` turns their answers into events.
Identical :class:`EmulationRun` inputs produce bit-identical outputs.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .model import (
    ADDED_OWD_MS,
    ClockModel,
    CaptureRecord,
    CTRL,
    Direction,
    DOWNLINK,
    FRAME_BOUNDARY,
    Marker,
    NO_MARKER,
    NODES,
    NtpSample,
    ProcessingModel,
    Proto,
    Scenario,
    STREAM,
    Tap,
    UPLINK,
    VideoConfig,
    acyclic,
    check_finite,
    write_ndjson,
)

# Well-known flow ids used by the built-in generators.
CONTROL_FLOW = 0
VIDEO_FLOW = 1
BULK_FLOW = 2

DEFAULT_MSS = 1400
#: Payload carried by a frame-boundary delimiter segment.
BOUNDARY_SEGMENT_BYTES = 64
#: Payload of a control (ping) packet; control packets are treated as
#: negligible on the wire and bypass the rate limiter.
CTRL_PAYLOAD_BYTES = 64

#: Receiver ACK policy: acknowledge every second segment, always acknowledge
#: a frame's final segment, flush leftovers after a short delayed-ACK timer.
ACK_EVERY_SEGMENTS = 2
DELAYED_ACK_MS = 5.0

#: Retransmission (only when Scenario.retransmit). Each segment has its
#: own timer, set to the RFC 6298 timeout SRTT + max(G, K * RTTVAR) from RTT
#: samples of segments sent once (Karn's rule): 1 s before the first sample,
#: never under Linux's 200 ms TCP_RTO_MIN, doubled per attempt, for at most
#: MAX_RETRANSMITS resends.
INITIAL_TIMEOUT_MS = 1000.0
MIN_TIMEOUT_MS = 200.0
SRTT_GAIN = 0.125             # alpha
RTTVAR_GAIN = 0.25            # beta
RTTVAR_FACTOR = 4             # K
CLOCK_GRANULARITY_MS = 0.001  # G: one emulated microsecond
MAX_RETRANSMITS = 5
#: Fast retransmit (RFC 5681 section 3.2): the sender resends the segment at
#: the cumulative ACK on this many duplicate ACKs, then on each partial ACK
#: until the data sent before it is acknowledged (RFC 6582 NewReno).
DUP_ACK_THRESHOLD = 3

#: Extra emulated time past the last scheduled emission for which clock
#: resync samples are generated; later events reuse the final sample.
CLOCK_TRACE_SLACK_S = 5.0

#: Indices into NODES of the per-node lists the simulation keeps; lists
#: indexed by int hash no enum member per capture stamp.
_UE, _CORE, _APP = range(len(NODES))

#: A scheduled event: (true time us, insertion counter, handler, argument),
#: run as ``handler(time, argument)``.
_Handler = Callable[[float, object], None]
_Event = tuple[float, int, _Handler, object]


@dataclass(frozen=True)
class Workload:
    """Traffic mix for one run: control pings, a video stream, or a bulk
    saturation probe (video and bulk are mutually exclusive)."""

    ping_interval_ms: float = 100.0
    ping_count: int = 0
    mss: int = DEFAULT_MSS
    video: VideoConfig | None = None
    bulk_duration_s: float = 0.0
    bulk_offered_mbps: float | None = None  # None -> 2x the scenario cap

    def __post_init__(self):
        check_finite(self)
        if self.ping_count < 0:
            raise ValueError("ping_count must be >= 0")
        if self.mss <= 0:
            raise ValueError("mss must be > 0")
        if self.bulk_duration_s < 0:
            raise ValueError("bulk_duration_s must be >= 0")
        if self.ping_interval_ms <= 0:
            raise ValueError("ping_interval_ms must be > 0")
        if self.bulk_offered_mbps is not None and self.bulk_offered_mbps <= 0:
            raise ValueError("bulk_offered_mbps must be > 0")
        has_bulk = self.bulk_duration_s > 0
        if self.video is not None and self.video.duration_s <= 0:
            raise ValueError("video.duration_s must be > 0 when video is configured")
        if self.video is not None and has_bulk:
            raise ValueError("video and bulk probe are mutually exclusive")
        if not (self.ping_count > 0 or self.video is not None or has_bulk):
            raise ValueError("workload enables no traffic generator")

    def horizon_s(self) -> float:
        """Last scheduled emission time implied by the generators."""
        t = 0.0
        if self.ping_count > 0:
            t = max(t, (self.ping_count - 1) * self.ping_interval_ms / 1000.0)
        if self.video is not None:
            t = max(t, self.video.duration_s)
        if self.bulk_duration_s > 0:
            t = max(t, self.bulk_duration_s)
        return t


@dataclass(frozen=True)
class EmulationRun:
    """Complete, reproducible description of one emulation."""

    scenario: Scenario
    workload: Workload
    clocks: ClockModel = ClockModel()
    processing: ProcessingModel = ProcessingModel()
    seed: int = 0


class SegmentPlan(NamedTuple):
    """One stream segment scheduled for emission at the UE. A NamedTuple:
    a run builds one per segment, and a frozen dataclass costs several
    times as much to construct."""

    t_us: int
    seq: int
    payload_len: int
    marker: Marker
    frame_idx: int | None
    end_of_frame: bool


def gen_control_pings(interval_ms: float, count: int) -> list[int]:
    """Emission schedule (true microseconds) for ``count`` ping requests."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if interval_ms <= 0:
        raise ValueError("interval_ms must be > 0")
    return [round(k * interval_ms * 1000.0) for k in range(count)]


def _draw_frame_bytes(cfg: VideoConfig, rng: random.Random) -> int:
    if cfg.frame_size_cv == 0:
        return int(round(cfg.mean_frame_bytes))
    # Lognormal with the configured mean and coefficient of variation.
    sigma = math.sqrt(math.log(1.0 + cfg.frame_size_cv ** 2))
    mu = math.log(cfg.mean_frame_bytes) - sigma * sigma / 2.0
    return max(1, int(round(rng.lognormvariate(mu, sigma))))


def gen_video_stream(cfg: VideoConfig, mss: int = DEFAULT_MSS,
                     rng: random.Random | None = None) -> list[SegmentPlan]:
    """Segment schedule for a boundary-delimited video stream.

    Each frame is one FRAME_BOUNDARY delimiter segment followed by
    ceil(bytes/mss) data segments, all sharing the frame's capture instant;
    a final delimiter at ``cfg.duration_s`` terminates the last frame.
    """
    if cfg.duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    rng = rng if rng is not None else random.Random(0)
    plans: list[SegmentPlan] = []
    n_frames = int(math.floor(cfg.duration_s * cfg.fps + 1e-9))
    seq = 0
    for k in range(n_frames):
        t = round(k / cfg.fps * 1e6)
        plans.append(SegmentPlan(t, seq, BOUNDARY_SEGMENT_BYTES, FRAME_BOUNDARY, k, False))
        seq += BOUNDARY_SEGMENT_BYTES
        size = _draw_frame_bytes(cfg, rng)
        remaining = size
        n_seg = math.ceil(size / mss)
        for i in range(n_seg):
            ln = min(mss, remaining)
            plans.append(SegmentPlan(t, seq, ln, NO_MARKER, k, i == n_seg - 1))
            seq += ln
            remaining -= ln
    plans.append(SegmentPlan(round(cfg.duration_s * 1e6), seq, BOUNDARY_SEGMENT_BYTES,
                             FRAME_BOUNDARY, None, False))
    return plans


def gen_bulk_probe(duration_s: float, mss: int = DEFAULT_MSS,
                   offered_mbps: float = 100.0) -> list[SegmentPlan]:
    """Back-to-back MSS segments offered at a constant rate for ``duration_s``."""
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    if offered_mbps <= 0 or math.isinf(offered_mbps):
        raise ValueError("offered_mbps must be finite and > 0")
    plans: list[SegmentPlan] = []
    step_us = mss * 8.0 / offered_mbps  # Mbit/s == bit/us
    t = 0.0
    seq = 0
    limit = duration_s * 1e6
    while t < limit:
        plans.append(SegmentPlan(round(t), seq, mss, NO_MARKER, None, False))
        seq += mss
        t += step_us
    return plans


def sample_ntp_trace(clocks: ClockModel, duration_s: float,
                     rng: random.Random | None = None) -> list[NtpSample]:
    """Per-node offset samples, one per resync interval (incl. t=0).

    The most recent sample is also what the emulator applies as the node's
    clock error between resyncs, so the trace is exactly the error a capture
    stamp carries at that time.
    """
    if duration_s < clocks.resync_interval_s:
        raise ValueError("duration_s must be >= resync_interval_s")
    rng = rng if rng is not None else random.Random(0)
    samples = []
    n = int(math.floor(duration_s / clocks.resync_interval_s + 1e-9)) + 1
    offsets = clocks.offsets_ms()
    sigmas = clocks.sigmas_ms()
    for k in range(n):
        t = k * clocks.resync_interval_s
        for node, theta, sigma in zip(NODES, offsets, sigmas):
            noise = rng.gauss(0.0, sigma) if sigma > 0 else 0.0
            samples.append(NtpSample(t, node, theta + noise))
    return samples


@dataclass(slots=True)
class TruthPacket:
    """One emulated packet: what it carries, and its true (noise-free)
    per-tap times, None where never seen. The simulation routes this object
    and the truth log keeps it. The fields known when a packet is made come
    first, so that the simulation builds it positionally, at about a third
    of the cost of keyword arguments."""

    pid: int
    flow: int
    dir: Direction
    proto: Proto
    seq: int
    payload_len: int
    ack: int = 0
    marker: Marker = Marker.NONE
    frame_idx: int | None = None
    end_of_frame: bool = False
    retransmission: bool = False
    t_ue_us: int | None = None
    t_core_us: int | None = None
    t_app_us: int | None = None
    delivered: bool = False


@dataclass
class TruthFrame:
    """True timing of one video frame's data segments and its command reply.
    ``t_last_app_us`` is the latest, over the frame's byte ranges, of each
    range's earliest app arrival: the moment the app holds the whole frame."""

    frame_idx: int
    byte_len: int
    t_first_emit_us: int | None = None
    t_last_emit_us: int | None = None
    t_first_app_us: int | None = None
    t_last_app_us: int | None = None
    t_cmd_emit_us: int | None = None
    t_cmd_ue_us: int | None = None
    delivered: bool = False

    def owd_first_last_ms(self) -> float | None:
        if self.t_first_emit_us is None or self.t_last_app_us is None:
            return None
        return (self.t_last_app_us - self.t_first_emit_us) / 1000.0

    def owd_first_first_ms(self) -> float | None:
        if self.t_first_emit_us is None or self.t_first_app_us is None:
            return None
        return (self.t_first_app_us - self.t_first_emit_us) / 1000.0


@dataclass
class TruthLog:
    """Oracle-only ground truth; the analyzer never reads this."""

    packets: list[TruthPacket] = field(default_factory=list)
    frames: list[TruthFrame] = field(default_factory=list)


def frame_truth(packets: Iterable[TruthPacket]) -> list[TruthFrame]:
    """Per-frame truth of a packet log, in ``frame_idx`` order.

    A frame's data segments are the uplink packets carrying its index and no
    marker; its size and emit times come from the original segments. Each
    byte range is timed by the earliest app arrival of any of its copies;
    the frame is delivered when every range arrived, first reached the app
    at the earliest of those times and was whole at the latest. Its command
    is the downlink packet carrying its index.
    """
    segments: dict[int, list[TruthPacket]] = {}
    commands: dict[int, TruthPacket] = {}
    for p in packets:
        k = p.frame_idx
        if k is None:
            continue
        if p.dir is DOWNLINK:
            commands[k] = p
        elif p.marker is NO_MARKER:
            segments.setdefault(k, []).append(p)
    frames = []
    for k in sorted(segments):
        segs = segments[k]
        originals = [p for p in segs if not p.retransmission]
        tf = TruthFrame(frame_idx=k, byte_len=sum(p.payload_len for p in originals))
        emits = [p.t_ue_us for p in originals if p.t_ue_us is not None]
        if emits:
            tf.t_first_emit_us, tf.t_last_emit_us = min(emits), max(emits)
        first_app: dict[int, int] = {}
        for p in segs:
            if p.t_app_us is not None and p.t_app_us <= first_app.get(p.seq, p.t_app_us):
                first_app[p.seq] = p.t_app_us
        arrivals = [first_app.get(p.seq) for p in originals]
        if None not in arrivals:
            tf.t_first_app_us, tf.t_last_app_us = min(arrivals), max(arrivals)
            tf.delivered = True
        cmd = commands.get(k)
        if cmd is not None:
            tf.t_cmd_emit_us, tf.t_cmd_ue_us = cmd.t_app_us, cmd.t_ue_us
        frames.append(tf)
    return frames


def _json_int(value: int | None) -> str | int:
    return "null" if value is None else value


def write_truth_file(path: str | Path, truth: TruthLog) -> None:
    # Packet lines are formatted directly, in the bytes json.dumps gives for
    # their int / None / bool fields (enum members by their plain
    # ``_value_``, as in record_to_json); frame lines carry floats.
    packets = (
        f'{{"kind":"packet","pid":{p.pid},"flow":{p.flow},"dir":"{p.dir._value_}",'
        f'"proto":"{p.proto._value_}","seq":{p.seq},"len":{p.payload_len},'
        f'"t_ue_us":{_json_int(p.t_ue_us)},"t_core_us":{_json_int(p.t_core_us)},'
        f'"t_app_us":{_json_int(p.t_app_us)},"delivered":{"true" if p.delivered else "false"}}}'
        for p in truth.packets)
    frames = (json.dumps({
        "kind": "frame", "frame_idx": f.frame_idx, "byte_len": f.byte_len,
        "t_first_emit_us": f.t_first_emit_us, "t_last_emit_us": f.t_last_emit_us,
        "t_first_app_us": f.t_first_app_us, "t_last_app_us": f.t_last_app_us,
        "t_cmd_emit_us": f.t_cmd_emit_us, "t_cmd_ue_us": f.t_cmd_ue_us,
        "delivered": f.delivered,
        "owd_first_last_ms": f.owd_first_last_ms(),
        "owd_first_first_ms": f.owd_first_first_ms(),
    }, separators=(",", ":")) for f in truth.frames)
    write_ndjson(path, itertools.chain(packets, frames))


@dataclass
class RunResult:
    """Captures at the three taps plus oracle data."""

    records: dict[Tap, list[CaptureRecord]]
    truth: TruthLog
    ntp: list[NtpSample]


class _Sender:
    """The UE's end of the stream, made only with Scenario.retransmit. It
    takes sends, timer expiries and ACKs, and answers what to resend."""

    def __init__(self):
        # seq -> [segment as first sent, last send time, resent] in seq order,
        # an OrderedDict: a plain dict scans its freed front slots for a first key
        self.unacked: OrderedDict[int, list] = OrderedDict()
        self.srtt_ms: float | None = None
        self.rttvar_ms = 0.0
        self.rto_ms = INITIAL_TIMEOUT_MS
        self.cum_ack = 0
        self.sent_end = 0  # end of the highest segment sent
        self.dup_acks = 0
        self.recover = 0   # NewReno: in recovery while the cumulative ACK is below it

    def send(self, t_us: float, pkt: TruthPacket) -> float:
        """Book an original segment; return when its timer first expires."""
        # originals come in ascending seq, so the book stays in seq order
        self.unacked[pkt.seq] = [pkt, t_us, False]
        self.sent_end = pkt.seq + pkt.payload_len
        return t_us + self.rto_ms * 1000.0

    def timeout(self, t_us: float, pkt: TruthPacket, attempt: int) -> float | None:
        """``pkt``'s timer expires for the ``attempt``-th time: if it is to
        be resent, book that and return when the timer expires next."""
        if self.cum_ack >= pkt.seq + pkt.payload_len or attempt > MAX_RETRANSMITS:
            return None
        self.resend(t_us, pkt.seq)
        return t_us + self.rto_ms * 2 ** attempt * 1000.0

    def resend(self, t_us: float, seq: int) -> TruthPacket:
        """Book a resend of the segment at ``seq``; return it as first sent."""
        entry = self.unacked[seq]
        entry[1], entry[2] = t_us, True
        return entry[0]

    def ack(self, t_us: float, ack: int) -> TruthPacket | None:
        """Take a cumulative ACK; return the segment to resend now, if any."""
        if ack > self.cum_ack:
            self.cum_ack = ack
            self.dup_acks = 0
            book = self.unacked
            while book:
                pkt, sent_at, resent = next(iter(book.values()))
                if pkt.seq + pkt.payload_len > ack:
                    break
                book.popitem(last=False)
                if not resent:  # Karn: no timing from retransmitted ranges
                    self.rtt_sample((t_us - sent_at) / 1000.0)
            if ack < self.recover:  # partial ACK in recovery: resend the next hole
                return self.resend(t_us, ack)
        elif ack == self.cum_ack and ack < self.sent_end:
            self.dup_acks += 1
            # NewReno: no second fast retransmit until recovery ends
            if self.dup_acks == DUP_ACK_THRESHOLD and ack >= self.recover:
                self.recover = self.sent_end
                return self.resend(t_us, ack)
        return None

    def rtt_sample(self, sample_ms: float) -> None:
        """RFC 6298 section 2: fold one RTT sample into SRTT, RTTVAR and RTO."""
        srtt = self.srtt_ms
        if srtt is None:
            srtt, rttvar = sample_ms, sample_ms / 2.0
        else:
            rttvar = (1 - RTTVAR_GAIN) * self.rttvar_ms + RTTVAR_GAIN * abs(srtt - sample_ms)
            srtt = (1 - SRTT_GAIN) * srtt + SRTT_GAIN * sample_ms
        self.srtt_ms, self.rttvar_ms = srtt, rttvar
        self.rto_ms = max(MIN_TIMEOUT_MS, srtt + max(CLOCK_GRANULARITY_MS, RTTVAR_FACTOR * rttvar))


class _Receiver:
    """The app's end of the stream ``flow`` that ``plans`` send: it takes
    segments and delayed-ACK timer expiries, and answers which frames are
    ready and what to acknowledge."""

    def __init__(self, flow: int, plans: list[SegmentPlan], ack_out_of_order: bool):
        self.flow = flow
        # frame k ends at byte _frame_ends[k]; frames before _next_frame are ready
        self._frame_ends = [p.seq + p.payload_len for p in plans if p.end_of_frame]
        self._next_frame = 0
        # with retransmission, a segment out of order is acknowledged at once
        # (RFC 5681 section 4.2), so that the sender sees duplicate ACKs
        self._ack_out_of_order = ack_out_of_order
        self._ack_pending = 0
        self._ack_deadline: float | None = None
        # the received [start, end) ranges, disjoint and non-touching: both lists ascend
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> None:
        """Merge the range [start, end) with every range it overlaps or touches."""
        starts, ends = self._starts, self._ends
        i = bisect_left(ends, start)         # first range not wholly before
        j = bisect_right(starts, end, i)     # first range wholly after
        if i < j:
            start = min(start, starts[i])
            end = max(end, ends[j - 1])
        starts[i:j] = (start,)
        ends[i:j] = (end,)

    def cumulative(self) -> int:
        if self._starts and self._starts[0] == 0:
            return self._ends[0]
        return 0

    def segment(self, t_us: float, pkt: TruthPacket) -> tuple[range, int | None, float | None]:
        """Take a data segment; return the frames now ready, the cumulative
        ACK to send now or None, and the delayed-ACK deadline set or None."""
        seq = pkt.seq
        ack_now = False
        if self._ack_out_of_order:
            # out of order: above the cumulative point, or while a gap
            # remains below data already received
            cum = self.cumulative()
            ack_now = seq > cum or bool(self._ends) and self._ends[-1] > cum
        self.add(seq, seq + pkt.payload_len)
        cum = self.cumulative()
        # a frame is ready once the cumulative point passes its last byte,
        # so in byte order and once, however many copies of it arrive
        i = self._next_frame
        self._next_frame = j = bisect_right(self._frame_ends, cum, i)
        pending = self._ack_pending + 1
        if ack_now or pending >= ACK_EVERY_SEGMENTS or pkt.end_of_frame:
            self._ack_pending = 0
            self._ack_deadline = None
            return range(i, j), cum, None
        self._ack_pending = pending
        deadline = None
        if self._ack_deadline is None:
            deadline = self._ack_deadline = t_us + DELAYED_ACK_MS * 1000.0
        return range(i, j), None, deadline

    def ack_timer(self, t_us: float) -> int | None:
        """The delayed-ACK timer expires: the ACK due, or None if one went out since."""
        if self._ack_deadline is not None and t_us >= self._ack_deadline:
            return self._flush()
        return None

    def _flush(self) -> int:
        self._ack_pending = 0
        self._ack_deadline = None
        return self.cumulative()


class _Access:
    """One direction of the access hop, the radio link between the UE and
    the core. A packet handed to it passes, in this order, the rate limiter
    (STREAM packets only; an infinite ``cap`` is no limiter), the loss draw,
    the base delay plus Gaussian jitter, and per-flow FIFO order."""

    def __init__(self, base_ms: float, loss_prob: float, jitter_std_ms: float,
                 rng_loss: random.Random, rng_jitter: random.Random, cap: float = math.inf):
        self._base_us = base_ms * 1000.0
        self._p_loss = loss_prob
        self._jitter_ms = jitter_std_ms
        self._rng_loss = rng_loss
        self._rng_jitter = rng_jitter
        self._cap_mbps = cap  # Mbit/s == bit/us
        self._capped = cap != math.inf
        self._free_us = 0.0  # when the limiter has sent all it holds
        # Jitter lets a packet overtake its flow's previous one, so the hop
        # keeps flow -> latest arrival time.
        self._last: dict[int, float] = {}

    def carry(self, t_us: float, pkt: TruthPacket) -> float | None:
        """When ``pkt``, handed to the hop at ``t_us``, reaches its far end,
        or None if the hop loses it."""
        # each `b if b > a else a` below is max(a, b), ties included
        if self._capped and pkt.proto is STREAM:
            free = self._free_us
            t_us = (free if free > t_us else t_us) + pkt.payload_len * 8.0 / self._cap_mbps
            self._free_us = t_us
        p = self._p_loss
        if p > 0.0 and self._rng_loss.random() < p:
            return None
        arrival = t_us + self._base_us
        if self._jitter_ms > 0:
            # floored, so that no packet arrives before it left
            arrival += self._rng_jitter.gauss(0.0, self._jitter_ms) * 1000.0
            arrival = arrival if arrival > t_us else t_us
        flow = pkt.flow
        last = self._last.get(flow, 0.0)
        arrival = last if last > arrival else arrival
        self._last[flow] = arrival
        return arrival


class _Simulation:
    def __init__(self, run: EmulationRun):
        self.run = run
        master = random.Random(run.seed)
        # Independent sub-streams, drawn in this order, so that e.g. frame
        # sizes do not change when only the scenario's delays change.
        self.rng_sizes, jitter_up, jitter_down, loss_up, loss_down, rng_clock = (
            random.Random(master.getrandbits(64)) for _ in range(6))

        self._records: list[list[CaptureRecord]] = [[] for _ in NODES]
        self.truth = TruthLog()

        # At least one full resync interval so the trace always holds two or
        # more samples per node, enough for offset estimation.
        horizon_s = max(run.workload.horizon_s() + CLOCK_TRACE_SLACK_S,
                        run.clocks.resync_interval_s)
        self.ntp = sample_ntp_trace(run.clocks, horizon_s, rng_clock)
        self._resync_us = run.clocks.resync_interval_s * 1e6
        # Clock error (us) each node applies from each resync on, indexed
        # like NODES; the trace holds at least one sample per node.
        self._clock_err_us: list[list[float]] = [[] for _ in NODES]
        for s in self.ntp:
            self._clock_err_us[NODES.index(s.node)].append(s.offset_ms * 1000.0)
        # Per node, its last stamp: (true time us, capture stamp, true time
        # in whole us). Events run in time order, so a node's stamps at one
        # instant come back to back and share the two ints.
        self._last_stamp: list[tuple[float, int, int]] = [(math.nan, 0, 0)] * len(NODES)

        # Events are (true time us, insertion counter, handler, argument),
        # run as handler(time, argument), in (time, counter) order: the
        # counter is unique, so no two handlers or arguments are compared,
        # and events at one time run in the order they were scheduled. They
        # come from three sources, each already in that order: the planned
        # sends, sorted once before the run; the core hop's events, due a
        # constant delay after they are scheduled and so appended in order;
        # and a heap for the rest.
        self._planned: list[_Event] = []
        self._core: deque[_Event] = deque()
        self._q: list[_Event] = []
        self._counter = itertools.count()
        self._pids = itertools.count()

        # The path: the access hop, one per direction with the rate limiter on
        # the uplink only, and the core hop. The core hop adds a constant
        # delay, so it keeps the order packets reach it in.
        base = run.scenario
        self._up = _Access(base.base_owd_up, base.loss_prob, base.jitter_std,
                           loss_up, jitter_up, base.bandwidth_cap)
        self._down = _Access(base.base_owd_down, base.loss_prob, base.jitter_std,
                             loss_down, jitter_down)
        self._added_us = ADDED_OWD_MS[base.range] * 1000.0

        # The stream (Workload allows at most one): its two ends, the receiver
        # made when the stream is planned, and the app's processing state.
        self._sender = _Sender() if base.retransmit else None
        self._receiver: _Receiver | None = None
        self._proc_free_us = 0.0
        self._dl_seq = 0

    # -- plumbing ---------------------------------------------------------
    # The only three ways to schedule an event; the event-order tests hook
    # all three. An event carries one argument, so that scheduling builds
    # no argument tuple and running it unpacks none.

    def _schedule(self, t_us: float, handler: _Handler, arg) -> None:
        """Run ``handler(t_us, arg)`` at true time ``t_us``."""
        heapq.heappush(self._q, (t_us, next(self._counter), handler, arg))

    def _plan(self, t_us: float, handler: _Handler, arg) -> None:
        """Before the run: run ``handler(t_us, arg)`` at true time ``t_us``."""
        self._planned.append((t_us, next(self._counter), handler, arg))

    def _after_core(self, t_us: float, handler: _Handler, arg) -> None:
        """Run ``handler`` when a packet that enters the core hop now, at
        ``t_us``, leaves it. Simulated time never goes back, so these events
        are due in the order they are scheduled."""
        self._core.append((t_us + self._added_us, next(self._counter), handler, arg))

    def _stamp(self, node: int, t_us: float, pkt: TruthPacket) -> int:
        """Capture ``pkt`` at ``NODES[node]`` on that node's clock; return
        the true time in whole us, for the caller to log on the packet."""
        last_t_us, stamp, true_us = self._last_stamp[node]
        if t_us != last_t_us:
            errs = self._clock_err_us[node]
            i = int(t_us // self._resync_us)
            if i >= len(errs):  # past the trace: keep the last sample
                i = len(errs) - 1
            stamp, true_us = round(t_us + errs[i]), round(t_us)
            self._last_stamp[node] = (t_us, stamp, true_us)
        # tuple.__new__ skips the NamedTuple's generated __new__ and its
        # keyword handling, about half the cost of a record
        self._records[node].append(tuple.__new__(CaptureRecord, (
            NODES[node], stamp, pkt.flow, pkt.dir, pkt.proto,
            pkt.seq, pkt.ack, pkt.payload_len, pkt.marker, pkt.pid)))
        return true_us

    # -- uplink path ------------------------------------------------------

    def _send_original(self, t_us: float, pkt: TruthPacket) -> None:
        self._schedule(self._sender.send(t_us, pkt), self._retransmit_check, (pkt, 1))
        self._send_up(t_us, pkt)

    def _retransmit_check(self, t_us: float, timer: tuple[TruthPacket, int]) -> None:
        """``timer`` is (segment, attempt): that segment's timer expires
        for the attempt-th time."""
        pkt, attempt = timer
        next_check = self._sender.timeout(t_us, pkt, attempt)
        if next_check is not None:
            self._resend(t_us, pkt)
            self._schedule(next_check, self._retransmit_check, (pkt, attempt + 1))

    def _resend(self, t_us: float, pkt: TruthPacket) -> None:
        """Send a copy of the stream segment ``pkt`` again."""
        self._send_up(t_us, TruthPacket(next(self._pids), pkt.flow, pkt.dir, pkt.proto, pkt.seq,
                                        pkt.payload_len, 0, pkt.marker, pkt.frame_idx,
                                        pkt.end_of_frame, True))

    def _send_up(self, t_us: float, pkt: TruthPacket) -> None:
        """Log and stamp ``pkt`` at the UE, then schedule its core arrival
        unless the uplink access hop loses it."""
        self.truth.packets.append(pkt)
        pkt.t_ue_us = self._stamp(_UE, t_us, pkt)
        t_core = self._up.carry(t_us, pkt)
        if t_core is not None:
            self._schedule(t_core, self._arrive_core_up, pkt)

    def _arrive_core_up(self, t_us: float, pkt: TruthPacket) -> None:
        pkt.t_core_us = self._stamp(_CORE, t_us, pkt)
        self._after_core(t_us, self._arrive_app, pkt)

    def _arrive_app(self, t_us: float, pkt: TruthPacket) -> None:
        pkt.t_app_us = self._stamp(_APP, t_us, pkt)
        pkt.delivered = True
        if pkt.proto is CTRL:
            reply = TruthPacket(next(self._pids), pkt.flow, DOWNLINK, CTRL, 0, pkt.payload_len,
                                pkt.pid)
            self._emit_downlink(t_us, reply)
            return
        frames, ack, deadline = self._receiver.segment(t_us, pkt)
        if frames:
            for frame_idx in frames:
                self._start_processing(t_us, frame_idx)
        if ack is not None:
            self._send_ack(t_us, ack)
        elif deadline is not None:
            self._schedule(deadline, self._ack_timer, None)

    # -- app --------------------------------------------------------------

    def _ack_timer(self, t_us: float, _: None) -> None:
        ack = self._receiver.ack_timer(t_us)
        if ack is not None:
            self._send_ack(t_us, ack)

    def _send_ack(self, t_us: float, ack: int) -> None:
        """Send the cumulative ACK ``ack``."""
        self._emit_downlink(t_us, TruthPacket(next(self._pids), self._receiver.flow, DOWNLINK,
                                              STREAM, 0, 0, ack))

    def _start_processing(self, t_us: float, frame_idx: int) -> None:
        start = max(t_us, self._proc_free_us)
        end = start + self.run.processing.total_ms * 1000.0
        self._proc_free_us = end
        self._schedule(end, self._emit_command, frame_idx)

    def _emit_command(self, t_us: float, frame_idx: int) -> None:
        seq = self._dl_seq
        size = self.run.processing.response_bytes
        self._dl_seq = seq + size
        cmd = TruthPacket(next(self._pids), self._receiver.flow, DOWNLINK, STREAM, seq, size,
                          0, NO_MARKER, frame_idx)
        self._emit_downlink(t_us, cmd)

    # -- downlink path ----------------------------------------------------

    def _emit_downlink(self, t_us: float, pkt: TruthPacket) -> None:
        self.truth.packets.append(pkt)
        pkt.t_app_us = self._stamp(_APP, t_us, pkt)
        self._after_core(t_us, self._arrive_core_down, pkt)

    def _arrive_core_down(self, t_us: float, pkt: TruthPacket) -> None:
        pkt.t_core_us = self._stamp(_CORE, t_us, pkt)
        t_ue = self._down.carry(t_us, pkt)
        if t_ue is not None:
            self._schedule(t_ue, self._arrive_ue, pkt)

    def _arrive_ue(self, t_us: float, pkt: TruthPacket) -> None:
        pkt.t_ue_us = self._stamp(_UE, t_us, pkt)
        pkt.delivered = True
        if self._sender is not None and pkt.proto is STREAM and pkt.payload_len == 0:
            lost = self._sender.ack(t_us, pkt.ack)
            if lost is not None:
                self._resend(t_us, lost)

    # -- assembly ---------------------------------------------------------

    def _plan_uplink_stream(self, flow: int, plans: list[SegmentPlan]) -> None:
        send = self._send_up if self._sender is None else self._send_original
        for plan in plans:
            pkt = TruthPacket(next(self._pids), flow, UPLINK, STREAM, plan.seq, plan.payload_len,
                              0, plan.marker, plan.frame_idx, plan.end_of_frame)
            self._plan(plan.t_us, send, pkt)
        self._receiver = _Receiver(flow, plans, self._sender is not None)

    def _run_queue(self) -> None:
        """Run every event, the least of the three sources' heads each time."""
        # latest first, so that pop() takes the next send and frees it
        planned = self._planned
        planned.sort(reverse=True)
        core, q = self._core, self._q
        pop_planned, pop_core, heappop = planned.pop, core.popleft, heapq.heappop
        while True:
            if planned:
                ev = planned[-1]
                if q and q[0] < ev:
                    ev = pop_core() if core and core[0] < q[0] else heappop(q)
                else:
                    ev = pop_core() if core and core[0] < ev else pop_planned()
            elif q:
                ev = pop_core() if core and core[0] < q[0] else heappop(q)
            elif core:
                ev = pop_core()
            else:
                return
            t, _, handler, arg = ev
            handler(t, arg)

    def run_events(self) -> RunResult:
        w = self.run.workload
        if w.ping_count > 0:
            for t in gen_control_pings(w.ping_interval_ms, w.ping_count):
                pkt = TruthPacket(next(self._pids), CONTROL_FLOW, UPLINK, CTRL, 0,
                                  CTRL_PAYLOAD_BYTES)
                self._plan(t, self._send_up, pkt)
        if w.video is not None:
            self._plan_uplink_stream(VIDEO_FLOW, gen_video_stream(w.video, w.mss, self.rng_sizes))
        if w.bulk_duration_s > 0:
            offered = w.bulk_offered_mbps
            if offered is None:
                cap = self.run.scenario.bandwidth_cap
                offered = 2.0 * cap if not math.isinf(cap) else 100.0
            self._plan_uplink_stream(BULK_FLOW, gen_bulk_probe(w.bulk_duration_s, w.mss, offered))

        self._run_queue()
        self.truth.frames = frame_truth(self.truth.packets)
        return RunResult(records=dict(zip(NODES, self._records)), truth=self.truth, ntp=self.ntp)


@acyclic()
def run(run_cfg: EmulationRun) -> RunResult:
    """Execute one emulation; see module docstring for the path model."""
    sim = _Simulation(run_cfg)
    return sim.run_events()
