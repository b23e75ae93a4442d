"""Deterministic discrete-event emulation of a UE -> core -> app-server path.

The emulated testbed has three capture taps (UE, CORE, APP). Uplink traffic
crosses an access link with a FIFO rate limiter (the bandwidth cap), then a
core link carrying the range-dependent added delay; downlink traffic takes
the reverse path without a rate cap (ACKs and small commands only). Every
packet is stamped at each tap with that node's local clock: true time plus
the node's offset plus piecewise-constant resync noise.

Identical :class:`EmulationRun` inputs produce bit-identical outputs.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .model import (
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

#: Retransmission (only when Scenario.retransmit): resend after one
#: measured-SRTT timeout, doubling per attempt, bounded retries.
INITIAL_TIMEOUT_MS = 1000.0
SRTT_GAIN = 0.125
MAX_RETRANSMITS = 5

#: Extra emulated time past the last scheduled emission for which clock
#: resync samples are generated; later events reuse the final sample.
CLOCK_TRACE_SLACK_S = 5.0

#: Indices into NODES of the per-node lists the simulation keeps; lists
#: indexed by int hash no enum member per capture stamp.
_UE, _CORE, _APP = range(len(NODES))


@dataclass(frozen=True)
class Workload:
    """Traffic mix for one run: control pings, a video stream, or a bulk
    saturation probe (video and bulk are mutually exclusive)."""

    ping_interval_ms: float = 100.0
    ping_count: int = 0
    video: VideoConfig | None = None
    video_duration_s: float = 0.0
    bulk_duration_s: float = 0.0
    bulk_offered_mbps: float | None = None  # None -> 2x the scenario cap

    def __post_init__(self):
        check_finite(self)
        if self.ping_count < 0:
            raise ValueError("ping_count must be >= 0")
        for name in ("video_duration_s", "bulk_duration_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.ping_count > 0 and self.ping_interval_ms <= 0:
            raise ValueError("ping_interval_ms must be > 0")
        if self.bulk_offered_mbps is not None and self.bulk_offered_mbps <= 0:
            raise ValueError("bulk_offered_mbps must be > 0")
        has_video = self.video is not None and self.video_duration_s > 0
        has_bulk = self.bulk_duration_s > 0
        if self.video is not None and self.video_duration_s <= 0:
            raise ValueError("video_duration_s must be > 0 when video is configured")
        if has_video and has_bulk:
            raise ValueError("video and bulk probe are mutually exclusive")
        if not (self.ping_count > 0 or has_video or has_bulk):
            raise ValueError("workload enables no traffic generator")

    def horizon_s(self) -> float:
        """Last scheduled emission time implied by the generators."""
        t = 0.0
        if self.ping_count > 0:
            t = max(t, (self.ping_count - 1) * self.ping_interval_ms / 1000.0)
        if self.video is not None and self.video_duration_s > 0:
            t = max(t, self.video_duration_s)
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
    mss: int = DEFAULT_MSS

    def __post_init__(self):
        if self.mss <= 0:
            raise ValueError("mss must be > 0")


@dataclass(frozen=True)
class SegmentPlan:
    """One stream segment scheduled for emission at the UE."""

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


def gen_video_stream(cfg: VideoConfig, duration_s: float, mss: int = DEFAULT_MSS,
                     rng: random.Random | None = None) -> list[SegmentPlan]:
    """Segment schedule for a boundary-delimited video stream.

    Each frame is one FRAME_BOUNDARY delimiter segment followed by
    ceil(bytes/mss) data segments, all sharing the frame's capture instant;
    a final delimiter at ``duration_s`` terminates the last frame.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    if mss <= 0:
        raise ValueError("mss must be > 0")
    rng = rng if rng is not None else random.Random(0)
    plans: list[SegmentPlan] = []
    n_frames = int(math.floor(duration_s * cfg.fps + 1e-9))
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
    plans.append(SegmentPlan(round(duration_s * 1e6), seq, BOUNDARY_SEGMENT_BYTES,
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
    and the truth log keeps it."""

    pid: int
    flow: int
    dir: Direction
    proto: Proto
    seq: int
    payload_len: int
    t_ue_us: int | None = None
    t_core_us: int | None = None
    t_app_us: int | None = None
    delivered: bool = False
    ack: int = 0
    marker: Marker = Marker.NONE
    frame_idx: int | None = None
    end_of_frame: bool = False
    retransmission: bool = False

    def owd_ms(self) -> float | None:
        if self.t_ue_us is None or self.t_app_us is None:
            return None
        delta = self.t_app_us - self.t_ue_us
        return (delta if self.dir is UPLINK else -delta) / 1000.0


@dataclass
class TruthFrame:
    """True timing of one video frame's data segments and its command reply."""

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

    def by_pid(self) -> dict[int, TruthPacket]:
        return {p.pid: p for p in self.packets}


def frame_truth(packets: Iterable[TruthPacket]) -> list[TruthFrame]:
    """Per-frame truth of a packet log, in ``frame_idx`` order.

    A frame's data segments are the uplink packets carrying its index and no
    marker; its size and emit times come from the original segments, its
    app arrival times from every copy. It is delivered when the distinct
    segments that reached the app add up to its size. Its command is the
    downlink packet carrying its index.
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
            group = segments.get(k)
            if group is None:
                segments[k] = [p]
            else:
                group.append(p)
    frames = []
    for k in sorted(segments):
        segs = segments[k]
        originals = [p for p in segs if not p.retransmission]
        tf = TruthFrame(frame_idx=k, byte_len=sum(p.payload_len for p in originals))
        emits = [p.t_ue_us for p in originals if p.t_ue_us is not None]
        if emits:
            tf.t_first_emit_us, tf.t_last_emit_us = min(emits), max(emits)
        arrived = [p for p in segs if p.t_app_us is not None]
        if arrived and sum({p.seq: p.payload_len for p in arrived}.values()) == tf.byte_len:
            tf.t_first_app_us = min(p.t_app_us for p in arrived)
            tf.t_last_app_us = max(p.t_app_us for p in arrived)
            tf.delivered = True
        cmd = commands.get(k)
        if cmd is not None:
            tf.t_cmd_emit_us, tf.t_cmd_ue_us = cmd.t_app_us, cmd.t_ue_us
        frames.append(tf)
    return frames


def _json_int(value: int | None) -> str | int:
    return "null" if value is None else value


def write_truth_file(path: str | Path, truth: TruthLog) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # Packet lines are formatted directly, in the bytes json.dumps gives
        # for their int / None / bool fields (enum members by their plain
        # ``_value_``, as in record_to_json); frame lines carry floats.
        fh.writelines(
            f'{{"kind":"packet","pid":{p.pid},"flow":{p.flow},"dir":"{p.dir._value_}",'
            f'"proto":"{p.proto._value_}","seq":{p.seq},"len":{p.payload_len},'
            f'"t_ue_us":{_json_int(p.t_ue_us)},"t_core_us":{_json_int(p.t_core_us)},'
            f'"t_app_us":{_json_int(p.t_app_us)},"delivered":{"true" if p.delivered else "false"}}}\n'
            for p in truth.packets)
        for f in truth.frames:
            fh.write(json.dumps({
                "kind": "frame", "frame_idx": f.frame_idx, "byte_len": f.byte_len,
                "t_first_emit_us": f.t_first_emit_us, "t_last_emit_us": f.t_last_emit_us,
                "t_first_app_us": f.t_first_app_us, "t_last_app_us": f.t_last_app_us,
                "t_cmd_emit_us": f.t_cmd_emit_us, "t_cmd_ue_us": f.t_cmd_ue_us,
                "delivered": f.delivered,
                "owd_first_last_ms": f.owd_first_last_ms(),
                "owd_first_first_ms": f.owd_first_first_ms(),
            }, separators=(",", ":")))
            fh.write("\n")


@dataclass
class RunResult:
    """Captures at the three taps plus oracle data."""

    records: dict[Tap, list[CaptureRecord]]
    truth: TruthLog
    ntp: list[NtpSample]


class _ReceiveBuffer:
    """Tracks contiguously received bytes per flow (cumulative-ACK view)."""

    __slots__ = ("_starts", "_ends")

    def __init__(self):
        # Disjoint, non-touching [start, end) ranges in ascending order, so
        # both lists are strictly increasing.
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> None:
        """Merge the non-empty range [start, end) with every range it
        overlaps or touches."""
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


class _AckBook:
    """A sender's outstanding segments of one flow: segment end -> (emission
    time, retransmitted), plus a min-heap holding each of those ends once so
    that an ACK pops the ends it covers in ascending order."""

    __slots__ = ("_book", "_ends")

    def __init__(self):
        self._book: dict[int, tuple[float, bool]] = {}
        self._ends: list[int] = []

    def __contains__(self, end: int) -> bool:
        return end in self._book

    def arm(self, end: int, t_us: float, retransmitted: bool) -> None:
        if end not in self._book:
            heapq.heappush(self._ends, end)
        self._book[end] = (t_us, retransmitted)

    def pop_acked(self, ack: int) -> list[tuple[float, bool]]:
        """Remove every end <= ``ack``; return their entries, lowest end first."""
        ends, book = self._ends, self._book
        acked = []
        while ends and ends[0] <= ack:
            acked.append(book.pop(heapq.heappop(ends)))
        return acked


class _Simulation:
    def __init__(self, run: EmulationRun):
        self.run = run
        self.scenario = run.scenario
        master = random.Random(run.seed)
        # Independent sub-streams so that e.g. frame sizes do not change when
        # only the scenario's delays change.
        self.rng_sizes = random.Random(master.getrandbits(64))
        self.rng_jitter_up = random.Random(master.getrandbits(64))
        self.rng_jitter_down = random.Random(master.getrandbits(64))
        self.rng_loss_up = random.Random(master.getrandbits(64))
        self.rng_loss_down = random.Random(master.getrandbits(64))
        self.rng_clock = random.Random(master.getrandbits(64))

        self._records: list[list[CaptureRecord]] = [[] for _ in NODES]
        self.truth = TruthLog()

        # At least one full resync interval so the trace always holds two or
        # more samples per node, enough for offset estimation.
        horizon_s = max(run.workload.horizon_s() + CLOCK_TRACE_SLACK_S,
                        run.clocks.resync_interval_s)
        self.ntp = sample_ntp_trace(run.clocks, horizon_s, self.rng_clock)
        self._resync_us = run.clocks.resync_interval_s * 1e6
        # Clock error (us) each node applies from each resync on, indexed
        # like NODES; the trace holds at least one sample per node.
        self._clock_err_us: list[list[float]] = [[] for _ in NODES]
        for s in self.ntp:
            self._clock_err_us[NODES.index(s.node)].append(s.offset_ms * 1000.0)

        # Event queue: (true time us, insertion counter, method, args); the
        # counter is unique, so heap order never compares two methods, and
        # events at one time run in the order they were scheduled.
        self._q: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._counter = 0
        self._next_pid = 0

        # Link state: per hop, flow -> latest arrival time so far.
        self._uplink_free_us = 0.0
        self._fifo_up_core: dict[int, float] = {}
        self._fifo_up_app: dict[int, float] = {}
        self._fifo_down_core: dict[int, float] = {}
        self._fifo_down_ue: dict[int, float] = {}

        # Receiver / sender / processing state.
        self._rx: defaultdict[int, _ReceiveBuffer] = defaultdict(_ReceiveBuffer)
        self._ack_pending: dict[int, int] = {}
        self._ack_deadline: dict[int, float | None] = {}
        self._frames_awaiting: dict[int, list[tuple[int, int]]] = {}
        self._frames_enqueued: set[tuple[int, int]] = set()
        self._proc_free_us = 0.0
        self._dl_seq: dict[int, int] = {}
        self._sender_cum_ack: dict[int, int] = {}
        self._outstanding: defaultdict[int, _AckBook] = defaultdict(_AckBook)
        self._srtt_ms: dict[int, float | None] = {}

        base = self.scenario
        self._base_up_us = base.base_owd_up * 1000.0
        self._base_down_us = base.base_owd_down * 1000.0
        self._added_us = base.added_owd * 1000.0
        self._cap = base.bandwidth_cap  # Mbit/s == bit/us
        self._loss_prob = base.loss_prob
        self._jitter_std = base.jitter_std

    # -- plumbing ---------------------------------------------------------

    def _schedule(self, t_us: float, fn: Callable[..., None], *args) -> None:
        """Run ``fn(t_us, *args)`` at true time ``t_us``."""
        heapq.heappush(self._q, (t_us, self._counter, fn, args))
        self._counter += 1

    def _new_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _stamp(self, node: int, t_us: float, pkt: TruthPacket) -> int:
        """Capture ``pkt`` at ``NODES[node]`` on that node's clock; return
        the true time in whole us, for the caller to log on the packet."""
        errs = self._clock_err_us[node]
        i = int(t_us // self._resync_us)
        if i >= len(errs):  # past the trace: keep the last sample
            i = len(errs) - 1
        # tuple.__new__ skips the NamedTuple's generated __new__ and its
        # keyword handling, about half the cost of a record
        self._records[node].append(tuple.__new__(CaptureRecord, (
            NODES[node], round(t_us + errs[i]), pkt.flow, pkt.dir, pkt.proto,
            pkt.seq, pkt.ack, pkt.payload_len, pkt.marker, pkt.pid)))
        return round(t_us)

    @staticmethod
    def _fifo(last: dict[int, float], flow: int, t_us: float) -> float:
        """No overtaking on a hop: ``flow`` arrives no earlier than its
        previous packet on the hop whose arrival times ``last`` holds."""
        t = max(t_us, last.get(flow, 0.0))
        last[flow] = t
        return t

    def _lost(self, rng: random.Random) -> bool:
        p = self._loss_prob
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return rng.random() < p

    def _jitter(self, rng: random.Random) -> float:
        std = self._jitter_std
        return rng.gauss(0.0, std) * 1000.0 if std > 0 else 0.0

    # -- uplink path ------------------------------------------------------

    def _emit_uplink(self, t_us: float, pkt: TruthPacket) -> None:
        if self.scenario.retransmit and pkt.proto is STREAM and pkt.payload_len > 0:
            self._arm_retransmit(t_us, pkt)
        self._send_up(t_us, pkt)

    def _send_up(self, t_us: float, pkt: TruthPacket) -> None:
        """Log and stamp ``pkt`` at the UE, pass stream packets through the
        rate limiter, then lose it or schedule its core arrival."""
        self.truth.packets.append(pkt)
        pkt.t_ue_us = self._stamp(_UE, t_us, pkt)
        if pkt.proto is STREAM:
            start = max(t_us, self._uplink_free_us)
            tx = 0.0 if math.isinf(self._cap) else pkt.payload_len * 8.0 / self._cap
            depart = start + tx
            self._uplink_free_us = depart
        else:
            depart = t_us
        if self._lost(self.rng_loss_up):
            return
        t_core = self._fifo(self._fifo_up_core, pkt.flow,
                            depart + self._base_up_us + self._jitter(self.rng_jitter_up))
        self._schedule(t_core, self._arrive_core_up, pkt)

    def _arrive_core_up(self, t_us: float, pkt: TruthPacket) -> None:
        pkt.t_core_us = self._stamp(_CORE, t_us, pkt)
        t_app = self._fifo(self._fifo_up_app, pkt.flow, t_us + self._added_us)
        self._schedule(t_app, self._arrive_app, pkt)

    def _arrive_app(self, t_us: float, pkt: TruthPacket) -> None:
        pkt.t_app_us = self._stamp(_APP, t_us, pkt)
        pkt.delivered = True
        if pkt.proto is CTRL:
            reply = TruthPacket(pid=self._new_pid(), flow=pkt.flow, dir=DOWNLINK,
                                proto=CTRL, seq=0, payload_len=pkt.payload_len,
                                ack=pkt.pid)
            self._emit_downlink(t_us, reply)
            return
        if pkt.payload_len > 0:
            self._receive_segment(t_us, pkt)

    # -- receiver ---------------------------------------------------------

    def _receive_segment(self, t_us: float, pkt: TruthPacket) -> None:
        flow = pkt.flow
        buf = self._rx[flow]
        buf.add(pkt.seq, pkt.seq + pkt.payload_len)
        if (pkt.end_of_frame and pkt.frame_idx is not None
                and (flow, pkt.frame_idx) not in self._frames_enqueued):
            # retransmissions can deliver the closing segment twice; the
            # frame is still processed once
            self._frames_enqueued.add((flow, pkt.frame_idx))
            heapq.heappush(self._frames_awaiting.setdefault(flow, []),
                           (pkt.seq + pkt.payload_len, pkt.frame_idx))
        cum = buf.cumulative()
        waiting = self._frames_awaiting.get(flow)
        while waiting and waiting[0][0] <= cum:
            _, frame_idx = heapq.heappop(waiting)
            self._start_processing(t_us, flow, frame_idx)
        self._ack_pending[flow] = self._ack_pending.get(flow, 0) + 1
        if self._ack_pending[flow] >= ACK_EVERY_SEGMENTS or pkt.end_of_frame:
            self._flush_ack(t_us, flow)
        elif self._ack_deadline.get(flow) is None:
            deadline = t_us + DELAYED_ACK_MS * 1000.0
            self._ack_deadline[flow] = deadline
            self._schedule(deadline, self._ack_timer, flow)

    def _ack_timer(self, t_us: float, flow: int) -> None:
        deadline = self._ack_deadline.get(flow)
        if deadline is not None and t_us >= deadline and self._ack_pending.get(flow, 0) > 0:
            self._flush_ack(t_us, flow)

    def _flush_ack(self, t_us: float, flow: int) -> None:
        self._ack_pending[flow] = 0
        self._ack_deadline[flow] = None
        ack = TruthPacket(pid=self._new_pid(), flow=flow, dir=DOWNLINK,
                          proto=STREAM, seq=0, payload_len=0,
                          ack=self._rx[flow].cumulative())
        self._emit_downlink(t_us, ack)

    def _start_processing(self, t_us: float, flow: int, frame_idx: int) -> None:
        start = max(t_us, self._proc_free_us)
        end = start + self.run.processing.total_ms * 1000.0
        self._proc_free_us = end
        self._schedule(end, self._emit_command, flow, frame_idx)

    def _emit_command(self, t_us: float, flow: int, frame_idx: int) -> None:
        seq = self._dl_seq.get(flow, 0)
        size = self.run.processing.response_bytes
        self._dl_seq[flow] = seq + size
        cmd = TruthPacket(pid=self._new_pid(), flow=flow, dir=DOWNLINK,
                          proto=STREAM, seq=seq, payload_len=size, frame_idx=frame_idx)
        self._emit_downlink(t_us, cmd)

    # -- downlink path ----------------------------------------------------

    def _emit_downlink(self, t_us: float, pkt: TruthPacket) -> None:
        self.truth.packets.append(pkt)
        pkt.t_app_us = self._stamp(_APP, t_us, pkt)
        t_core = self._fifo(self._fifo_down_core, pkt.flow, t_us + self._added_us)
        self._schedule(t_core, self._arrive_core_down, pkt)

    def _arrive_core_down(self, t_us: float, pkt: TruthPacket) -> None:
        pkt.t_core_us = self._stamp(_CORE, t_us, pkt)
        if self._lost(self.rng_loss_down):
            return
        t_ue = self._fifo(self._fifo_down_ue, pkt.flow,
                          t_us + self._base_down_us + self._jitter(self.rng_jitter_down))
        self._schedule(t_ue, self._arrive_ue, pkt)

    def _arrive_ue(self, t_us: float, pkt: TruthPacket) -> None:
        pkt.t_ue_us = self._stamp(_UE, t_us, pkt)
        pkt.delivered = True
        if pkt.proto is STREAM and pkt.payload_len == 0 and pkt.ack > 0:
            self._sender_sees_ack(t_us, pkt.flow, pkt.ack)

    # -- sender retransmission (Scenario.retransmit only) ------------------

    def _arm_retransmit(self, t_us: float, pkt: TruthPacket) -> None:
        flow = pkt.flow
        end = pkt.seq + pkt.payload_len
        book = self._outstanding[flow]
        book.arm(end, t_us, pkt.retransmission or end in book)
        timeout = self._srtt_ms.get(flow) or INITIAL_TIMEOUT_MS
        self._schedule(t_us + timeout * 1000.0, self._retransmit_check, pkt, 1)

    def _retransmit_check(self, t_us: float, pkt: TruthPacket, attempt: int) -> None:
        flow = pkt.flow
        end = pkt.seq + pkt.payload_len
        if self._sender_cum_ack.get(flow, 0) >= end or attempt > MAX_RETRANSMITS:
            return
        clone = TruthPacket(pid=self._new_pid(), flow=flow, dir=pkt.dir, proto=pkt.proto,
                            seq=pkt.seq, payload_len=pkt.payload_len, marker=pkt.marker,
                            frame_idx=pkt.frame_idx, end_of_frame=pkt.end_of_frame,
                            retransmission=True)
        self._outstanding[flow].arm(end, t_us, True)
        self._send_up(t_us, clone)
        timeout = (self._srtt_ms.get(flow) or INITIAL_TIMEOUT_MS) * (2 ** attempt)
        self._schedule(t_us + timeout * 1000.0, self._retransmit_check, pkt, attempt + 1)

    def _sender_sees_ack(self, t_us: float, flow: int, ack: int) -> None:
        self._sender_cum_ack[flow] = max(self._sender_cum_ack.get(flow, 0), ack)
        book = self._outstanding.get(flow)
        if book is None:
            return
        for emitted_at, retransmitted in book.pop_acked(ack):
            if retransmitted:
                continue  # Karn: no timing from retransmitted ranges
            sample_ms = (t_us - emitted_at) / 1000.0
            prev = self._srtt_ms.get(flow)
            self._srtt_ms[flow] = sample_ms if prev is None else (1 - SRTT_GAIN) * prev + SRTT_GAIN * sample_ms

    # -- assembly ---------------------------------------------------------

    def _plan_uplink_stream(self, flow: int, plans: Iterable[SegmentPlan]) -> None:
        for plan in plans:
            pkt = TruthPacket(pid=self._new_pid(), flow=flow, dir=UPLINK,
                              proto=STREAM, seq=plan.seq, payload_len=plan.payload_len,
                              marker=plan.marker, frame_idx=plan.frame_idx,
                              end_of_frame=plan.end_of_frame)
            self._schedule(plan.t_us, self._emit_uplink, pkt)

    def run_events(self) -> RunResult:
        w = self.run.workload
        if w.ping_count > 0:
            for t in gen_control_pings(w.ping_interval_ms, w.ping_count):
                pkt = TruthPacket(pid=self._new_pid(), flow=CONTROL_FLOW, dir=UPLINK,
                                  proto=CTRL, seq=0, payload_len=CTRL_PAYLOAD_BYTES)
                self._schedule(t, self._emit_uplink, pkt)
        if w.video is not None and w.video_duration_s > 0:
            plans = gen_video_stream(w.video, w.video_duration_s, self.run.mss, self.rng_sizes)
            self._plan_uplink_stream(VIDEO_FLOW, plans)
        if w.bulk_duration_s > 0:
            offered = w.bulk_offered_mbps
            if offered is None:
                cap = self.scenario.bandwidth_cap
                offered = 2.0 * cap if not math.isinf(cap) else 100.0
            plans = gen_bulk_probe(w.bulk_duration_s, self.run.mss, offered)
            self._plan_uplink_stream(BULK_FLOW, plans)

        q, pop = self._q, heapq.heappop
        while q:
            t, _, fn, args = pop(q)
            fn(t, *args)

        self.truth.frames = frame_truth(self.truth.packets)
        return RunResult(records=dict(zip(NODES, self._records)), truth=self.truth, ntp=self.ntp)


@acyclic()
def run(run_cfg: EmulationRun) -> RunResult:
    """Execute one emulation; see module docstring for the path model."""
    sim = _Simulation(run_cfg)
    return sim.run_events()
