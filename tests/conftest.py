"""Shared builders for the test suite."""

from __future__ import annotations

import pytest

from edgekpi.emulator import EmulationRun, Workload
from edgekpi.model import (
    CaptureRecord,
    ClockModel,
    Direction,
    Marker,
    Proto,
    RangeBand,
    Scenario,
    Tap,
    Tech,
    VideoConfig,
)

_PID_COUNTER = [0]


def rec(tap=Tap.UE, t_us=0, flow=1, dir=Direction.UPLINK, proto=Proto.STREAM,
        seq=0, ack=0, payload_len=100, marker=Marker.NONE, pid=None) -> CaptureRecord:
    """CaptureRecord builder with sane defaults and auto pids."""
    if pid is None:
        _PID_COUNTER[0] += 1
        pid = _PID_COUNTER[0]
    return CaptureRecord(tap=tap, t_us=t_us, flow=flow, dir=dir, proto=proto,
                         seq=seq, ack=ack, payload_len=payload_len, marker=marker, pid=pid)


def ping_run(count=20, interval_ms=100.0, base_up=10.0, base_down=5.0,
             clocks=None, seed=1, **scenario_kwargs) -> EmulationRun:
    scenario = Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE,
                        base_owd_up=base_up, base_owd_down=base_down,
                        jitter_std=scenario_kwargs.pop("jitter_std", 0.0),
                        **scenario_kwargs)
    return EmulationRun(
        scenario=scenario,
        workload=Workload(ping_interval_ms=interval_ms, ping_count=count),
        clocks=clocks if clocks is not None else ClockModel.perfect(),
        seed=seed,
    )


def video_run(duration_s=1.0, fps=20.0, mean_frame_bytes=14_000, cv=0.0,
              base_up=10.0, base_down=5.0, tech=Tech.FIVE_G, range_band=RangeBand.EDGE,
              clocks=None, seed=2, pings=0, **scenario_kwargs) -> EmulationRun:
    scenario = Scenario(tech=tech, range=range_band,
                        base_owd_up=base_up, base_owd_down=base_down,
                        jitter_std=scenario_kwargs.pop("jitter_std", 0.0),
                        **scenario_kwargs)
    video = VideoConfig(fps=fps, mean_frame_bytes=mean_frame_bytes, frame_size_cv=cv,
                        duration_s=duration_s)
    return EmulationRun(
        scenario=scenario,
        workload=Workload(ping_count=pings, video=video),
        clocks=clocks if clocks is not None else ClockModel.perfect(),
        seed=seed,
    )


@pytest.fixture
def default_config_text() -> str:
    """The configuration the README/acceptance sweep uses."""
    return (
        "[scenario]\n"
        "tech = FIVE_G\n"
        "range = EDGE\n"
        "jitter_std = 0\n"
        "\n"
        "[video]\n"
        "encoder = MJPEG\n"
        "resolution = VGA\n"
        "fps = 20\n"
        "duration_s = 10\n"
        "\n"
        "[workload]\n"
        "ping_interval_ms = 100\n"
        "ping_count = 100\n"
    )
