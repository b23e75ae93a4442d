"""Property tests: the analyzer on randomly damaged emulator captures, and
its ACK index on random hand-built captures.

Records of a 1 s capture are dropped, duplicated, reordered and time-shifted
at random; the analysis must then end in a result or in one of its own
errors, account for every frame at the UE tap and keep availability within
[0, 100], and the report must end in a report or InsufficientDataError.
Skipped when Hypothesis is not installed.
"""

from __future__ import annotations

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import rec, video_run  # noqa: E402
from edgekpi.analyzer import (  # noqa: E402
    InsufficientDataError,
    _AckIndex,
    MalformedCaptureError,
    analyze_captures,
    reassemble,
    segment_frames,
)
from edgekpi.emulator import run  # noqa: E402
from edgekpi.kpis import availability, build_report  # noqa: E402
from edgekpi.model import ClockModel, Direction, Proto, Tap  # noqa: E402


@functools.lru_cache(maxsize=1)
def capture():
    """1 s of 20 fps video plus pings, with clock offsets and noise."""
    return run(video_run(duration_s=1.0, pings=5, seed=4, jitter_std=0.5,
                         clocks=ClockModel(offset_ue_ms=1.5, offset_app_ms=-2.0)))


#: (tap, operation, index, other index, time shift in us); indices wrap
#: around the tap's record count.
damage = st.lists(st.tuples(
    st.sampled_from(list(Tap)),
    st.sampled_from(("drop", "duplicate", "swap", "shift")),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-1_000_000, 1_000_000),
), max_size=12)


def damaged(records, ops):
    taps = {tap: list(recs) for tap, recs in records.items()}
    for tap, op, i, j, shift in ops:
        recs = taps[tap]
        if not recs:
            continue
        i, j = i % len(recs), j % len(recs)
        if op == "drop":
            del recs[i]
        elif op == "duplicate":
            recs.insert(i + 1, recs[i])
        elif op == "swap":
            recs[i], recs[j] = recs[j], recs[i]
        else:
            recs[i] = recs[i]._replace(t_us=recs[i].t_us + shift)
    return taps


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(damage)
def test_damaged_capture_ends_in_result_or_analyzer_error(ops):
    result = capture()
    taps = damaged(result.records, ops)
    try:
        analysis = analyze_captures(taps[Tap.UE], taps[Tap.CORE], taps[Tap.APP], result.ntp)
    except (MalformedCaptureError, InsufficientDataError):
        return
    frames = segment_frames(reassemble(taps[Tap.UE]))
    latency = analysis.samples["STREAM-frame"]
    assert len(latency) + latency.excluded == len(frames)
    owd_pkt = analysis.samples["OWD-packet"]
    assert 0.0 <= availability(len(owd_pkt) + owd_pkt.excluded, len(owd_pkt)) <= 100.0
    try:
        build_report(analysis)
    except InsufficientDataError:
        pass


def covering_reference(records, last_pos, end):
    """The first pure ACK after ``last_pos`` reaching ``end``, by a linear
    scan of the capture."""
    for r in records[last_pos + 1:]:
        if (r.proto is Proto.STREAM and r.dir is Direction.DOWNLINK
                and r.payload_len == 0 and r.ack > 0 and r.ack >= end):
            return r
    return None


#: (proto, direction, carries payload, ack) of each record; acks need not
#: grow, as in a capture with reordered ACKs.
hand_built = st.lists(st.tuples(
    st.sampled_from(list(Proto)), st.sampled_from(list(Direction)),
    st.booleans(), st.integers(0, 40),
), max_size=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hand_built, st.integers(-1, 45))
def test_covering_after_equals_linear_scan(fields, end):
    records = [rec(t_us=i, proto=proto, dir=direction, payload_len=100 if payload else 0, ack=ack)
               for i, (proto, direction, payload, ack) in enumerate(fields)]
    acks = _AckIndex(records)
    for last_pos in range(-1, len(records)):
        assert acks.covering_after(last_pos, end) is covering_reference(records, last_pos, end)
