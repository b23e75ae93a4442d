"""KPI computations: distributions, availability, reliability, clock-error
propagation, end-to-end service response time, velocity bounds and
throughput demand, plus assembly of the full report."""

from __future__ import annotations

import csv
import json
import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Sequence

from .analyzer import AnalysisResult, InsufficientDataError, LATENCY_CLASSES, SampleSet, srtt
from .model import DEFAULT_BANDWIDTH_CAP_MBPS, NODES, ProcessingModel, check_finite, write_ndjson


#: The bandwidth caps (Mbit/s) a demand figure is judged against, lowest
#: first: each technology's default cap.
CAPS_MBPS = tuple(sorted(DEFAULT_BANDWIDTH_CAP_MBPS.values()))


@dataclass(frozen=True)
class Ecdf:
    """Empirical CDF over latency samples.

    ``values`` are the sorted distinct sample values and ``cum_counts`` the
    number of samples at or below each.
    """

    values: tuple[float, ...]
    cum_counts: tuple[int, ...]
    n: int

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(c / self.n for c in self.cum_counts)

    def prob_at(self, x: float) -> float:
        """P(X <= x), the share of samples at or below ``x``."""
        k = bisect_right(self.values, x)
        return self.cum_counts[k - 1] / self.n if k else 0.0


def ecdf(samples: Sequence[float]) -> Ecdf:
    if not samples:
        raise ValueError("ecdf requires at least one sample")
    ordered = sorted(samples)
    values: list[float] = []
    counts: list[int] = []
    for i, v in enumerate(ordered, start=1):
        if values and v == values[-1]:
            counts[-1] = i
        else:
            values.append(v)
            counts.append(i)
    return Ecdf(tuple(values), tuple(counts), len(ordered))


@dataclass(frozen=True)
class BoxplotStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]


def boxplot_stats(samples: Sequence[float]) -> BoxplotStats:
    """Tukey boxplot statistics: nearest-rank quartiles (``latency_at``),
    whiskers at the most extreme points within 1.5*IQR of the quartile box."""
    if not samples:
        raise ValueError("boxplot_stats requires at least one sample")
    ordered = sorted(samples)
    q1, med, q3 = (latency_at(ordered, p) for p in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = [v for v in ordered if lo_fence <= v <= hi_fence]
    outliers = tuple(v for v in ordered if v < lo_fence or v > hi_fence)
    return BoxplotStats(
        minimum=ordered[0], q1=q1, median=med, q3=q3, maximum=ordered[-1],
        whisker_lo=inside[0], whisker_hi=inside[-1], outliers=outliers)


def availability(sent_count: int, delivered_count: int) -> float:
    """Delivered packets as a percentage of sent packets."""
    if sent_count <= 0:
        raise ValueError("sent_count must be > 0")
    if not 0 <= delivered_count <= sent_count:
        raise ValueError("delivered_count must be within [0, sent_count]")
    return 100.0 * delivered_count / sent_count


def reliability(samples: Sequence[float], bound_ms: float) -> float:
    """Fraction of samples delivered within the service time bound."""
    if not samples:
        raise ValueError("reliability requires at least one sample")
    return sum(1 for v in samples if v <= bound_ms) / len(samples)


def latency_at(samples: Sequence[float], p: float) -> float:
    """Latency at percentile ``p``: the smallest sample whose cumulative
    probability reaches ``p``, i.e. the ceil(p*n)-th order statistic."""
    if not samples:
        raise ValueError("latency_at requires at least one sample")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    return sorted(samples)[max(1, math.ceil(p * len(samples) - 1e-9)) - 1]


@dataclass(frozen=True)
class ErrorBudget:
    quadrature_ms: float
    linear_sum_ms: float


def propagate_error(sigma_a_ms: float, sigma_b_ms: float, sigma_c_ms: float) -> ErrorBudget:
    """Combined clock-offset error of the three nodes.

    ``quadrature_ms`` is the root-sum-of-squares of the per-node stds;
    ``linear_sum_ms`` is their plain sum, reported alongside as the
    conservative worst-case figure.
    """
    sigmas = (sigma_a_ms, sigma_b_ms, sigma_c_ms)
    if any(s < 0 for s in sigmas):
        raise ValueError("sigma values must be >= 0")
    return ErrorBudget(
        quadrature_ms=math.sqrt(sum(s * s for s in sigmas)),
        linear_sum_ms=sum(sigmas))


def e2e_srt(owd_up_ms: float, processing_ms: float, owd_down_ms: float) -> float:
    """End-to-end service response time: uplink frame delay + processing +
    downlink response delay."""
    if owd_up_ms < 0 or processing_ms < 0 or owd_down_ms < 0:
        raise ValueError("components must be >= 0")
    return owd_up_ms + processing_ms + owd_down_ms


def velocity(distance_m: float, e2e_srt_ms: float) -> float:
    """Maximum speed (km/h) at which a vehicle can still react within
    ``distance_m`` given the service response time."""
    if distance_m < 0:
        raise ValueError("distance_m must be >= 0")
    if e2e_srt_ms <= 0:
        raise ValueError("e2e_srt_ms must be > 0")
    return distance_m / (e2e_srt_ms / 1000.0) * 3.6


def demanded_throughput(video_cfg) -> float:
    """Bitrate (Mbit/s) a video configuration demands."""
    return video_cfg.mean_frame_bytes * 8.0 * video_cfg.fps / 1e6


def improvement_pct(baseline_ms: float, value_ms: float) -> float:
    """Relative latency reduction of ``value_ms`` against a baseline."""
    if baseline_ms <= 0:
        raise ValueError("baseline_ms must be > 0")
    return 100.0 * (baseline_ms - value_ms) / baseline_ms


# -- report assembly --------------------------------------------------------


@dataclass(frozen=True)
class ClassStats:
    """Distribution summary of one sample class. ``srtt_final_ms`` is the
    last smoothed RTT, kept for the latency classes only (None otherwise)."""

    count: int
    excluded: int
    mean_ms: float
    median_ms: float
    p95_ms: float
    srtt_final_ms: float | None


@dataclass(frozen=True)
class ReportOptions:
    """Externally supplied knobs the captures cannot reveal."""

    processing_ms: float = ProcessingModel.total_ms
    owd_down_assumed_ms: float = 5.0
    distances_m: tuple[float, ...] = (1.0,)
    reliability_percentile: float = 0.95
    reliability_bound_ms: float | None = None
    alpha: float = 0.125
    scenario_label: str = ""
    tech: str = ""
    range_band: str = ""

    def __post_init__(self):
        check_finite(self)
        # abs() keeps a value >= 0 as it is but writes -0.0 as 0.0, so that
        # no report row or label prints a minus sign.
        for name in ("processing_ms", "owd_down_assumed_ms", "distances_m", "reliability_bound_ms"):
            value = getattr(self, name)
            if value is None:
                continue
            many = isinstance(value, tuple)
            if any(v < 0 for v in (value if many else (value,))):
                raise ValueError(f"{name} must be >= 0")
            object.__setattr__(self, name, tuple(map(abs, value)) if many else abs(value))
        if not 0.0 < self.reliability_percentile <= 1.0:
            raise ValueError("reliability_percentile must be in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


@dataclass
class KpiReport:
    """Complete KPI suite for one capture set. ``classes`` summarises every
    sample class but OWD-command, in ``SAMPLE_CLASSES`` order; a class without
    samples is None, and the latency classes among those are listed in
    ``absent``. ``error_budget`` is the clock-error budget of the run's NTP
    trace, None when the one-way delays are uncorrected."""

    options: ReportOptions
    classes: dict[str, ClassStats | None]
    error_budget: ErrorBudget | None
    owd_command_measured_ms: float | None
    availability_pct: float | None
    #: frame OWD at ``options.reliability_percentile``
    owd_frame_at_percentile_ms: float | None
    #: share of frame OWDs within ``options.reliability_bound_ms``
    fraction_within_bound: float | None
    e2e_srt_mean_ms: float | None
    #: service response time from ``owd_frame_at_percentile_ms``
    e2e_srt_at_percentile_ms: float | None
    velocity_kmh: dict[float, float] | None
    #: offered uplink stream rate (Mbit/s), judged against each of ``CAPS_MBPS``
    demand_mbps: float | None
    goodput_mbps: float | None
    absent: tuple[str, ...] = ()


def _class_stats(samples: SampleSet, alpha: float | None = None) -> ClassStats | None:
    """The class's summary; its final SRTT only when a gain ``alpha`` is given."""
    if not samples.values_ms:
        return None
    vals = samples.values_ms
    ordered = sorted(vals)
    return ClassStats(
        count=len(vals),
        excluded=samples.excluded,
        mean_ms=statistics.fmean(vals),
        median_ms=latency_at(ordered, 0.5),
        p95_ms=latency_at(ordered, 0.95),
        srtt_final_ms=srtt(vals, alpha)[-1] if alpha is not None else None,
    )


def build_report(analysis: AnalysisResult, options: ReportOptions | None = None) -> KpiReport:
    """Assemble the full KPI report from analyzer output.

    The velocity bound follows the upper-95%-reliability method: the frame
    OWD at the reliability percentile feeds the service response time, which
    in turn bounds the vehicle speed for each configured distance. A negative
    frame OWD (tap clocks that disagree) or a zero service response time
    gives no velocity bound and raises InsufficientDataError.
    """
    opts = options or ReportOptions()
    budget = None
    if analysis.offsets:
        budget = propagate_error(*(analysis.offsets[node].std_ms for node in NODES))

    classes = {name: _class_stats(samples, opts.alpha if name in LATENCY_CLASSES else None)
               for name, samples in analysis.samples.items() if name != "OWD-command"}
    absent = tuple(name for name in LATENCY_CLASSES if classes[name] is None)

    owd_frm = classes["OWD-frame"]
    cmd_vals = analysis.samples["OWD-command"].values_ms
    cmd_owd = statistics.fmean(cmd_vals) if cmd_vals else None

    # Each uplink payload packet sent at the UE is one OWD-packet sample if
    # its pid reaches the APP tap, else one exclusion.
    owd_pkt = analysis.samples["OWD-packet"]
    sent = len(owd_pkt) + owd_pkt.excluded
    avail = availability(sent, len(owd_pkt)) if sent > 0 else None

    lat_p = None
    frac = None
    srt_mean = None
    srt_p = None
    vel = None
    if owd_frm is not None:
        frame_vals = analysis.samples["OWD-frame"].values_ms
        lat_p = latency_at(frame_vals, opts.reliability_percentile)
        if min(owd_frm.mean_ms, lat_p) < 0:
            raise InsufficientDataError(
                f"uplink frame OWD is negative (mean {owd_frm.mean_ms:.3f} ms), so no service "
                "response time follows; the taps' clocks disagree")
        if opts.reliability_bound_ms is not None:
            frac = reliability(frame_vals, opts.reliability_bound_ms)
        srt_mean = e2e_srt(owd_frm.mean_ms, opts.processing_ms, opts.owd_down_assumed_ms)
        srt_p = e2e_srt(lat_p, opts.processing_ms, opts.owd_down_assumed_ms)
        if srt_p == 0:
            raise InsufficientDataError("service response time is 0 ms, so no velocity bound "
                                        "follows; frame OWD, processing and downlink OWD are all 0")
        vel = {d: velocity(d, srt_p) for d in opts.distances_m}

    return KpiReport(
        options=opts,
        classes=classes,
        error_budget=budget,
        owd_command_measured_ms=cmd_owd,
        availability_pct=avail,
        owd_frame_at_percentile_ms=lat_p,
        fraction_within_bound=frac,
        e2e_srt_mean_ms=srt_mean,
        e2e_srt_at_percentile_ms=srt_p,
        velocity_kmh=vel,
        demand_mbps=analysis.offered_mbps,
        goodput_mbps=analysis.goodput_mbps,
        absent=absent,
    )


def percent_label(p: float) -> str:
    """``p`` as a percentage, written exactly so no two values share a
    label: 0.95 -> "95", 0.29 -> "29", 0.995 -> "99.5"."""
    return format((Decimal(repr(p)) * 100).normalize(), "f")


REPORT_COLUMNS = ("scenario", "tech", "range", "class", "metric", "value", "unit", "sigma")


def report_rows(report: KpiReport) -> list[dict]:
    """Flatten a report into one row per KPI for the CSV/NDJSON outputs."""
    opts = report.options
    rows: list[dict] = []

    def add(cls: str, metric: str, value, unit: str, sigma=None):
        rows.append({
            "scenario": opts.scenario_label, "tech": opts.tech, "range": opts.range_band,
            "class": cls, "metric": metric,
            "value": value if value is not None else "",
            "unit": unit, "sigma": sigma if sigma is not None else "",
        })

    # Every class writes its exclusions; a latency class also writes its
    # final SRTT, and a one-way delay class the run's clock-error budget.
    budget = report.error_budget
    sigma = round(budget.quadrature_ms, 6) if budget is not None else None
    for cls, stats in report.classes.items():
        latency = cls in LATENCY_CLASSES
        if stats is None:
            add(cls, "latency" if latency else "owd_up", None, "ms")
            continue
        add(cls, "count", stats.count, "packets")
        add(cls, "excluded", stats.excluded, "packets")
        add(cls, "mean", round(stats.mean_ms, 6), "ms", sigma=None if latency else sigma)
        add(cls, "median", round(stats.median_ms, 6), "ms")
        add(cls, "p95", round(stats.p95_ms, 6), "ms")
        if latency:
            add(cls, "srtt_final", round(stats.srtt_final_ms, 6), "ms")
        elif budget is not None:
            add(cls, "sigma_linear_sum", round(budget.linear_sum_ms, 6), "ms")

    if report.owd_command_measured_ms is not None:
        add("OWD-command", "mean", round(report.owd_command_measured_ms, 6), "ms")
    add("OWD-command", "assumed_down", opts.owd_down_assumed_ms, "ms")

    add("overall", "availability", round(report.availability_pct, 6) if report.availability_pct is not None else None, "percent")
    p_label = percent_label(opts.reliability_percentile)
    if report.owd_frame_at_percentile_ms is not None:
        add("OWD-frame", f"latency_at_p{p_label}",
            round(report.owd_frame_at_percentile_ms, 6), "ms")
        if report.fraction_within_bound is not None:
            add("OWD-frame", f"reliability_within_{opts.reliability_bound_ms}ms",
                round(report.fraction_within_bound, 6), "fraction")
    add("overall", "e2e_srt_mean", round(report.e2e_srt_mean_ms, 6) if report.e2e_srt_mean_ms is not None else None, "ms")
    srt_p = report.e2e_srt_at_percentile_ms
    add("overall", f"e2e_srt_p{p_label}", round(srt_p, 6) if srt_p is not None else None, "ms")
    if report.velocity_kmh:
        for d, v in sorted(report.velocity_kmh.items()):
            add("overall", f"velocity_ds_{d}m", round(v, 4), "km/h")
    if report.demand_mbps is not None:
        # each cap judges the rate as written, so no row contradicts another
        demand = round(report.demand_mbps, 4)
        add("overall", "demanded_throughput", demand, "Mbit/s")
        for cap in CAPS_MBPS:
            add("overall", f"cap_{cap}", "FITS" if demand <= cap else "EXCEEDS", "verdict")
    if report.goodput_mbps is not None:
        add("overall", "goodput", round(report.goodput_mbps, 4), "Mbit/s")
    return rows


def write_report_csv(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_report_ndjson(path: str | Path, rows: Iterable[dict]) -> None:
    write_ndjson(path, (json.dumps(row, separators=(",", ":")) for row in rows))
