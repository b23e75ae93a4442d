"""Core domain types and the NDJSON capture format.

Everything in this module is an immutable value shared by the emulator,
the capture analyzer and the KPI engine. Capture timestamps are integer
microseconds on the stamping node's local clock; configuration values
(delays, offsets) are milliseconds, rates are Mbit/s.
"""

from __future__ import annotations

import gc
import json
import math
import re
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from enum import Enum
from typing import Iterable, NamedTuple, Sequence


class Tap(Enum):
    """Capture vantage point along the path."""

    UE = "UE"
    CORE = "CORE"
    APP = "APP"


class Direction(Enum):
    UPLINK = "UPLINK"
    DOWNLINK = "DOWNLINK"


class Proto(Enum):
    CTRL = "CTRL"      # ping-style control packets
    STREAM = "STREAM"  # reliable byte-stream segments and their ACKs


class Marker(Enum):
    NONE = "NONE"
    FRAME_BOUNDARY = "FRAME_BOUNDARY"


class Tech(Enum):
    FOUR_G = "FOUR_G"
    FIVE_G = "FIVE_G"


class RangeBand(Enum):
    """Emulated distance between the radio site and the core/app server."""

    EDGE = "EDGE"          # 0 km, colocated
    REGIONAL = "REGIONAL"  # ~200 km
    NATIONAL = "NATIONAL"  # ~400 km


class Encoder(Enum):
    MJPEG = "MJPEG"
    H264 = "H264"


class Resolution(Enum):
    VGA = (640, 480)
    D1 = (720, 576)
    HD = (1280, 720)

    @property
    def width(self) -> int:
        return self.value[0]

    @property
    def height(self) -> int:
        return self.value[1]


#: Node order used everywhere a per-node triple appears.
NODES = (Tap.UE, Tap.CORE, Tap.APP)

#: The members per-record code tests against, as module globals: on Python
#: 3.11 each ``Proto.STREAM``-style read runs EnumType's ``__getattr__``
#: hook, about 0.15 us, where a global read costs next to nothing.
UPLINK, DOWNLINK = Direction.UPLINK, Direction.DOWNLINK
CTRL, STREAM = Proto.CTRL, Proto.STREAM
NO_MARKER, FRAME_BOUNDARY = Marker.NONE, Marker.FRAME_BOUNDARY

#: Extra one-way delay added core-side for each range band (each direction).
ADDED_OWD_MS = {RangeBand.EDGE: 0.0, RangeBand.REGIONAL: 2.0, RangeBand.NATIONAL: 4.0}

#: Measured maximum achievable uplink bandwidth per technology.
DEFAULT_BANDWIDTH_CAP_MBPS = {Tech.FIVE_G: 54.6, Tech.FOUR_G: 32.2}

#: Default access-network one-way latency (uplink_ms, downlink_ms).
DEFAULT_BASE_OWD_MS = {Tech.FIVE_G: (8.0, 4.0), Tech.FOUR_G: (20.0, 10.0)}

#: Default clock-offset noise std per node (UE, Core, App), milliseconds.
DEFAULT_OFFSET_SIGMA_MS = (0.387, 0.317, 0.117)

#: Default mean frame size in bytes for MJPEG; H264 uses a quarter of it.
MJPEG_MEAN_FRAME_BYTES = {Resolution.VGA: 120_000, Resolution.D1: 220_000, Resolution.HD: 340_000}
H264_SIZE_RATIO = 0.25


def default_mean_frame_bytes(encoder: Encoder, resolution: Resolution) -> int:
    base = MJPEG_MEAN_FRAME_BYTES[resolution]
    if encoder is Encoder.H264:
        return int(round(base * H264_SIZE_RATIO))
    return base


def check_finite(obj, allow_inf: tuple[str, ...] = ()) -> None:
    """Reject NaN, and an infinity outside the fields named in ``allow_inf``,
    in every float field (or tuple of floats) of the dataclass ``obj``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v) and not (
                    math.isinf(v) and f.name in allow_inf):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")


@contextmanager
def acyclic():
    """Run a layer that builds no reference cycles without cyclic collections;
    also usable as a decorator, ``@acyclic()``.

    On exit the collector is back on, and every object alive then, the
    layer's and the caller's alike, is in the oldest generation (``freeze``
    then ``unfreeze``), so the young collections that follow do not walk
    them again. Does nothing when the collector is off or the caller has
    frozen objects; either way the caller's state is as it found it."""
    if not gc.isenabled() or gc.get_freeze_count():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.freeze()
        gc.unfreeze()
        gc.enable()


class CaptureFormatError(ValueError):
    """A capture file line could not be decoded."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class CaptureRecord(NamedTuple):
    """One timestamped packet observation at one tap.

    ``pid`` identifies the same packet across taps; ``seq``/``ack`` are byte
    offsets in the stream (both 0 where not applicable). An immutable tuple:
    derive a changed copy with ``_replace``. Construction is deliberately
    permissive -- captures are checked by :func:`validate` so that malformed
    input can be represented and reported.
    """

    tap: Tap
    t_us: int
    flow: int
    dir: Direction
    proto: Proto
    seq: int
    ack: int
    payload_len: int
    marker: Marker
    pid: int


def record_to_json(record: CaptureRecord) -> str:
    """One compact JSON object, keys in wire order: the bytes
    ``json.dumps(..., separators=(",", ":"))`` gives for integer fields.
    Reads each member's plain ``_value_``, not the ``value`` descriptor."""
    tap, t_us, flow, direction, proto, seq, ack, payload_len, marker, pid = record
    return (f'{{"tap":"{tap._value_}","t_us":{t_us},"flow":{flow},'
            f'"dir":"{direction._value_}","proto":"{proto._value_}","seq":{seq},'
            f'"ack":{ack},"len":{payload_len},"marker":"{marker._value_}","pid":{pid}}}')


#: Wire value -> member, per enum-valued capture field.
_ENUM_FIELDS = {
    "tap": {m.value: m for m in Tap},
    "dir": {m.value: m for m in Direction},
    "proto": {m.value: m for m in Proto},
    "marker": {m.value: m for m in Marker},
}
_TAPS, _DIRS, _PROTOS, _MARKERS = _ENUM_FIELDS.values()
_WIRE_KEYS = ("tap", "t_us", "flow", "dir", "proto", "seq", "ack", "len", "marker", "pid")


def _record_error(d: dict) -> str | None:
    """Name the first field of a decoded object that cannot form a record,
    or None if it forms one: an integer field must hold a JSON integer."""
    for key in _WIRE_KEYS:
        if key not in d:
            return f"bad capture record: missing field {key!r}"
        value = d[key]
        if key in _ENUM_FIELDS:
            try:
                _ENUM_FIELDS[key][value]
            except (KeyError, TypeError):
                return f"bad capture record: {key}: unknown value {value!r}"
        elif type(value) is not int:  # not a float, string or bool
            return f"bad capture record: {key}: not an integer: {value!r}"
    return None


def _wire_field(key: str) -> str:
    """The pattern of one ``"key":value`` pair as record_to_json writes it:
    an enum value from the field's value map, or a JSON integer (ASCII
    digits, no leading zero), captured as one group."""
    values = _ENUM_FIELDS.get(key)
    if values is not None:
        return f'"{key}":"({"|".join(map(re.escape, values))})"'
    return f'"{key}":(-?(?:0|[1-9][0-9]*))'


#: Match a line in the exact form record_to_json writes, with or without
#: its newline. A line that matches is a valid JSON object that json.loads
#: decodes to the same record, so the match stands in for it.
_match_wire_line = re.compile(
    "{" + ",".join(map(_wire_field, _WIRE_KEYS)) + "}\n?").fullmatch


def _record_from_match(match: re.Match, lineno: int | None) -> CaptureRecord:
    tap, t_us, flow, direction, proto, seq, ack, payload_len, marker, pid = match.groups()
    try:  # tuple.__new__ skips the NamedTuple's generated __new__
        return tuple.__new__(CaptureRecord, (
            _TAPS[tap], int(t_us), int(flow), _DIRS[direction], _PROTOS[proto],
            int(seq), int(ack), int(payload_len), _MARKERS[marker], int(pid)))
    except ValueError as exc:  # an integer past int()'s digit limit
        raise CaptureFormatError(f"bad capture record: {exc}", lineno) from exc


def record_from_json(line: str, lineno: int | None = None) -> CaptureRecord:
    """Decode one capture line: a line in record_to_json's exact form
    through one pattern, any other line through ``json.loads``. The pattern
    only takes lines that ``json.loads`` decodes to the same record, so
    which path runs never changes the result or the error."""
    match = _match_wire_line(line)
    if match is not None:
        return _record_from_match(match, lineno)
    try:
        d = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CaptureFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
    except (ValueError, RecursionError) as exc:  # past int()'s digit limit or the nesting limit
        raise CaptureFormatError(f"bad capture record: {exc}", lineno) from exc
    if not isinstance(d, dict):
        raise CaptureFormatError("record is not an object", lineno)
    error = _record_error(d)
    if error is not None:
        raise CaptureFormatError(error, lineno)
    return CaptureRecord(_TAPS[d["tap"]], d["t_us"], d["flow"], _DIRS[d["dir"]], _PROTOS[d["proto"]],
                         d["seq"], d["ack"], d["len"], _MARKERS[d["marker"]], d["pid"])


def write_capture_file(path: str | Path, records: Iterable[CaptureRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{record_to_json(rec)}\n" for rec in records)


@acyclic()
def read_capture_file(path: str | Path) -> list[CaptureRecord]:
    """Decode a capture file one line at a time, skipping blank lines; a
    line in record_to_json's form is matched as read, any other is decoded
    with its surrounding whitespace stripped."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            match = _match_wire_line(line)
            if match is not None:
                records.append(_record_from_match(match, lineno))
            elif line := line.strip():
                records.append(record_from_json(line, lineno))
    return records


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of capture validation; ``index`` points at the first offender."""

    ok: bool
    error: str | None = None
    index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


#: The tap a direction's packets are emitted at, indexed by ``dir is UPLINK``.
_ORIGIN_TAP = (Tap.APP, Tap.UE)


def validate(records: Sequence[CaptureRecord]) -> ValidationResult:
    """Check capture invariants, reporting the first violation with its index.

    Checked per tap: unique pid, non-negative payload, boundary markers carry
    payload, and non-decreasing stream seq per (flow, dir) at the origin tap.
    A seq below the highest seen so far is accepted only as a retransmission:
    the same (seq, payload_len) range was already emitted on that tap, flow
    and direction.
    """
    seen_pids: dict[Tap, set[int]] = {}
    # Seq state is keyed by (flow, uplink): the origin tap is fixed by the
    # direction, so this is (tap, flow, dir) without hashing enum members.
    last_seq: dict[tuple[int, bool], int] = {}
    emitted: defaultdict[tuple[int, bool], set[tuple[int, int]]] = defaultdict(set)
    tap = pids = None
    for i, rec in enumerate(records):
        if rec.payload_len < 0:
            return ValidationResult(False, f"negative payload_len {rec.payload_len} (pid {rec.pid})", i)
        if rec.marker is FRAME_BOUNDARY and rec.payload_len <= 0:
            return ValidationResult(False, f"frame boundary with empty payload (pid {rec.pid})", i)
        if rec.tap is not tap:  # one pid-set lookup per run of same-tap records
            tap = rec.tap
            pids = seen_pids.setdefault(tap, set())
        if rec.pid in pids:
            return ValidationResult(False, f"duplicate pid {rec.pid} at tap {tap.value}", i)
        pids.add(rec.pid)
        # Seq ordering is only meaningful for payload-bearing stream segments
        # observed where they were emitted.
        if rec.proto is STREAM and rec.payload_len > 0:
            uplink = rec.dir is UPLINK
            if tap is not _ORIGIN_TAP[uplink]:
                continue
            key = (rec.flow, uplink)
            span = (rec.seq, rec.payload_len)
            prev = last_seq.get(key)
            if prev is not None and rec.seq < prev:
                if span not in emitted[key]:
                    return ValidationResult(False, f"seq regression {prev} -> {rec.seq} (flow {rec.flow})", i)
            else:
                last_seq[key] = rec.seq
            emitted[key].add(span)
    return ValidationResult(True)


@dataclass(frozen=True)
class ClockModel:
    """Per-node clock behaviour: a true offset plus periodically resampled
    offset noise, mimicking residual NTP synchronization error."""

    offset_ue_ms: float = 0.0
    offset_core_ms: float = 0.0
    offset_app_ms: float = 0.0
    sigma_ue_ms: float = DEFAULT_OFFSET_SIGMA_MS[0]
    sigma_core_ms: float = DEFAULT_OFFSET_SIGMA_MS[1]
    sigma_app_ms: float = DEFAULT_OFFSET_SIGMA_MS[2]
    resync_interval_s: float = 10.0

    def __post_init__(self):
        check_finite(self)
        for name in ("sigma_ue_ms", "sigma_core_ms", "sigma_app_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.resync_interval_s <= 0:
            raise ValueError("resync_interval_s must be > 0")

    def offsets_ms(self) -> tuple[float, float, float]:
        return (self.offset_ue_ms, self.offset_core_ms, self.offset_app_ms)

    def sigmas_ms(self) -> tuple[float, float, float]:
        return (self.sigma_ue_ms, self.sigma_core_ms, self.sigma_app_ms)

    @classmethod
    def perfect(cls) -> "ClockModel":
        """All nodes exactly on true time; useful for oracle runs."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Scenario:
    """Full path model for one emulated network configuration.

    ``added_owd``, ``base_owd_up/down`` and ``bandwidth_cap`` may be left
    ``None`` to resolve the per-range / per-technology defaults; an explicit
    ``added_owd`` that contradicts the fixed range map is rejected.
    """

    tech: Tech
    range: RangeBand
    added_owd: float | None = None
    base_owd_up: float | None = None
    base_owd_down: float | None = None
    jitter_std: float = 0.0
    loss_prob: float = 0.0
    bandwidth_cap: float | None = None
    retransmit: bool = False

    def __post_init__(self):
        check_finite(self, allow_inf=("bandwidth_cap",))
        if self.range is RangeBand.EDGE and self.tech is not Tech.FIVE_G:
            raise ValueError("EDGE range is only available with FIVE_G")
        mapped = ADDED_OWD_MS[self.range]
        if self.added_owd is None:
            object.__setattr__(self, "added_owd", mapped)
        elif abs(self.added_owd - mapped) > 1e-9:
            raise ValueError(f"added_owd {self.added_owd} contradicts fixed map for {self.range.value} ({mapped})")
        base_up, base_down = DEFAULT_BASE_OWD_MS[self.tech]
        if self.base_owd_up is None:
            object.__setattr__(self, "base_owd_up", base_up)
        if self.base_owd_down is None:
            object.__setattr__(self, "base_owd_down", base_down)
        if self.bandwidth_cap is None:
            object.__setattr__(self, "bandwidth_cap", DEFAULT_BANDWIDTH_CAP_MBPS[self.tech])
        if self.base_owd_up < 0 or self.base_owd_down < 0:
            raise ValueError("base one-way delays must be >= 0")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be within [0, 1]")
        if not self.bandwidth_cap > 0:
            raise ValueError("bandwidth_cap must be > 0 (use inf to disable)")


@dataclass(frozen=True)
class VideoConfig:
    """Video source model: frame cadence and a lognormal frame-size law."""

    encoder: Encoder = Encoder.MJPEG
    resolution: Resolution = Resolution.VGA
    fps: float = 20.0
    mean_frame_bytes: int | None = None
    frame_size_cv: float = 0.1

    def __post_init__(self):
        check_finite(self)
        if self.fps <= 0:
            raise ValueError("fps must be > 0")
        if self.mean_frame_bytes is None:
            object.__setattr__(self, "mean_frame_bytes", default_mean_frame_bytes(self.encoder, self.resolution))
        if self.mean_frame_bytes <= 0:
            raise ValueError("mean_frame_bytes must be > 0")
        if self.frame_size_cv < 0:
            raise ValueError("frame_size_cv must be >= 0")


#: Names of the serially executed per-frame processing stages.
PROCESSING_STAGES = ("blob_transform", "detection", "interpretation", "command_creation")


@dataclass(frozen=True)
class ProcessingModel:
    """Per-frame application processing: a total budget split into four
    serial stages, followed by one downlink command packet."""

    total_ms: float = 20.3
    stage_fractions: tuple[float, float, float, float] = (0.25, 0.60, 0.10, 0.05)
    response_bytes: int = 200

    def __post_init__(self):
        check_finite(self)
        if self.total_ms < 0:
            raise ValueError("total_ms must be >= 0")
        if len(self.stage_fractions) != len(PROCESSING_STAGES):
            raise ValueError(f"expected {len(PROCESSING_STAGES)} stage fractions")
        if any(f < 0 for f in self.stage_fractions):
            raise ValueError("stage fractions must be >= 0")
        if abs(sum(self.stage_fractions) - 1.0) > 1e-9:
            raise ValueError(f"stage fractions must sum to 1, got {sum(self.stage_fractions)!r}")
        if self.response_bytes <= 0:
            raise ValueError("response_bytes must be > 0")

    def stage_ms(self) -> tuple[float, ...]:
        return tuple(self.total_ms * f for f in self.stage_fractions)


@dataclass(frozen=True)
class NtpSample:
    """One measured clock offset (ms) of one node at wall time ``t_s``."""

    t_s: float
    node: Tap
    offset_ms: float

    def __post_init__(self):
        check_finite(self)


def write_ntp_file(path: str | Path, samples: Iterable[NtpSample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(json.dumps({"t_s": s.t_s, "node": s.node.value, "offset_ms": s.offset_ms},
                                separators=(",", ":")))
            fh.write("\n")


def read_ntp_file(path: str | Path) -> list[NtpSample]:
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                for key in ("t_s", "offset_ms"):
                    if type(d[key]) not in (int, float):  # not a string or bool
                        raise ValueError(f"{key} must be a finite number, got {d[key]!r}")
                samples.append(NtpSample(float(d["t_s"]), Tap(d["node"]), float(d["offset_ms"])))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError, RecursionError) as exc:
                raise CaptureFormatError(f"bad ntp sample: {exc}", lineno) from exc
    return samples
