"""edgekpi: deterministic network-path emulation and latency KPI analysis.

Emulates boundary-marked video traffic over configurable 4G/5G path models
with skewed clocks, captures it at three taps (UE, core, app server) and
computes the latency/availability/reliability KPI suite from the captures.
"""

__version__ = "1.0.0"

from .model import (  # noqa: F401
    CaptureRecord,
    ClockModel,
    Direction,
    Encoder,
    Marker,
    NtpSample,
    ProcessingModel,
    Proto,
    RangeBand,
    Resolution,
    Scenario,
    Tap,
    Tech,
    VideoConfig,
    validate,
)
from .emulator import EmulationRun, RunResult, Workload, run  # noqa: F401
from .analyzer import AnalyzerConfig, analyze_captures  # noqa: F401
from .kpis import KpiReport, ReportOptions, build_report  # noqa: F401
