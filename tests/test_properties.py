"""Property tests: the analyzer on randomly damaged emulator captures.

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

from conftest import video_run  # noqa: E402
from edgekpi.analyzer import (  # noqa: E402
    InsufficientDataError,
    MalformedCaptureError,
    analyze_captures,
    reassemble,
    segment_frames,
)
from edgekpi.emulator import VIDEO_FLOW, run  # noqa: E402
from edgekpi.kpis import availability, build_report  # noqa: E402
from edgekpi.model import ClockModel, Tap  # noqa: E402


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
    frames = segment_frames(reassemble(taps[Tap.UE], VIDEO_FLOW))
    latency = analysis.frame_latency
    assert len(latency) + latency.excluded == len(frames)
    assert 0.0 <= availability(analysis.sent_uplink, analysis.delivered_uplink) <= 100.0
    try:
        build_report(analysis)
    except InsufficientDataError:
        pass
