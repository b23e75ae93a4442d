"""Command-line entry point.

Subcommands: ``simulate`` (run one scenario and write captures), ``analyze``
(captures -> samples + KPI report), ``sweep`` (the five-scenario comparison),
``plot`` (SVG/ASCII charts) and ``selftest`` (oracle battery).

Exit codes: 0 success, 1 validation or usage error, 2 selftest oracle failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import shutil
import sys
from pathlib import Path

from . import __version__
from .analyzer import (
    AnalyzerConfig,
    FrameEndpoints,
    InsufficientDataError,
    MalformedCaptureError,
    MatchMode,
    analyze_captures,
)
from .config import ConfigError, parse_config, write_manifest
from .emulator import EmulationRun, RunResult, run as run_emulation, write_truth_file
from .kpis import (
    KpiReport,
    ReportOptions,
    boxplot_stats,
    build_report,
    demanded_throughput,
    ecdf,
    report_rows,
    write_report_csv,
    write_report_ndjson,
)
from .model import (
    CaptureFormatError,
    Encoder,
    RangeBand,
    Resolution,
    Scenario,
    Tap,
    Tech,
    VideoConfig,
    read_capture_file,
    read_ntp_file,
    validate,
    write_capture_file,
    write_ntp_file,
)
from .plotting import (
    render_box_ascii,
    render_box_svg,
    render_cdf_ascii,
    render_cdf_svg,
    render_throughput_ascii,
    render_throughput_svg,
)
from .selftest import run_selftest

TAP_FILES = {Tap.UE: "ue.ndjson", Tap.CORE: "core.ndjson", Tap.APP: "app.ndjson"}
TRUTH_FILE = "truth.ndjson"
NTP_FILE = "ntp.ndjson"
SAMPLES_FILE = "samples.ndjson"
REPORT_CSV = "report.csv"
REPORT_NDJSON = "report.ndjson"
MANIFEST_FILE = "manifest.ini"
#: What ``simulate`` writes, and what ``analyze`` adds, in a run directory.
RUN_FILES = (*TAP_FILES.values(), TRUTH_FILE, NTP_FILE, MANIFEST_FILE)
ANALYSIS_FILES = (SAMPLES_FILE, REPORT_CSV, REPORT_NDJSON)

#: The five-scenario comparison. Every scenario runs with the same seed so
#: the generated workload (frame sizes, noise draws) is identical across
#: scenarios and median shifts isolate the path-delay differences exactly.
SWEEP_SCENARIOS = (
    ("5g_edge", Tech.FIVE_G, RangeBand.EDGE),
    ("5g_regional", Tech.FIVE_G, RangeBand.REGIONAL),
    ("5g_national", Tech.FIVE_G, RangeBand.NATIONAL),
    ("4g_regional", Tech.FOUR_G, RangeBand.REGIONAL),
    ("4g_national", Tech.FOUR_G, RangeBand.NATIONAL),
)

COMPARISON_FILE = "comparison.csv"
COMPARISON_COLUMNS = ("scenario", "tech", "range", "ctrl_median_ms", "stream_packet_median_ms",
                      "stream_frame_median_ms", "owd_frame_p95_ms", "e2e_srt_p95_ms", "velocity_kmh")


class CliError(Exception):
    """Fatal usage/validation problem; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="edgekpi",
                     description="Deterministic network-path emulation and latency KPI analysis.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario and write capture files")
    p_sim.add_argument("--config", required=True, help="run configuration file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--force", action="store_true", help="overwrite existing outputs")

    def add_analysis_flags(p):
        p.add_argument("--alpha", type=float, default=0.125, help="SRTT gain (0,1)")
        p.add_argument("--match", choices=("pid", "seq"), default="pid",
                       help="packet matching mode for OWD")
        p.add_argument("--frame-owd", choices=("first-last", "first-first"), default="first-last",
                       help="frame OWD endpoint convention")
        p.add_argument("--processing-ms", type=float, default=20.3,
                       help="application processing time used in the response-time KPI")
        p.add_argument("--owd-down-ms", type=float, default=5.0,
                       help="assumed downlink response OWD")
        p.add_argument("--distance-m", type=float, action="append", default=None,
                       help="reaction distance(s) for the velocity bound (repeatable)")
        p.add_argument("--reliability-p", type=float, default=0.95, help="reliability percentile")
        p.add_argument("--bound-ms", type=float, default=None,
                       help="service latency bound for the reliability fraction")

    p_an = sub.add_parser("analyze", help="extract samples and KPI report from captures")
    p_an.add_argument("--in", dest="indir", required=True, help="capture directory")
    add_analysis_flags(p_an)
    p_an.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p_sw = sub.add_parser("sweep", help="run the five-scenario comparison")
    p_sw.add_argument("--config", required=True, help="base configuration file")
    p_sw.add_argument("--seed", type=int, default=None, help="seed shared by all five scenarios")
    p_sw.add_argument("--out", required=True, help="output directory")
    add_analysis_flags(p_sw)
    p_sw.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p_pl = sub.add_parser("plot", help="render a chart from samples or a report")
    p_pl.add_argument("--kind", required=True, choices=("cdf", "box", "throughput"))
    p_pl.add_argument("--in", dest="infile", default=None,
                      help="samples.ndjson (cdf/box), sweep dir (box) or report.ndjson (throughput)")
    p_pl.add_argument("--out", required=True, help="output file")
    p_pl.add_argument("--ascii", action="store_true", help="plain-text rendering instead of SVG")
    p_pl.add_argument("--sample-class", default="OWD-frame", help="sample class to plot")
    p_pl.add_argument("--reliability", type=float, default=0.95,
                      help="reliability marker level for cdf plots")
    p_pl.add_argument("--defaults", action="store_true",
                      help="throughput: plot the built-in encoder/resolution demand table")

    sub.add_parser("selftest", help="run the built-in oracle battery")
    return parser


def _require_new(paths: list[Path], force: bool) -> None:
    if force:
        return
    existing = [str(p) for p in paths if p.exists()]
    if existing:
        raise CliError(f"refusing to overwrite existing output (use --force): {', '.join(existing)}")


def _write_run_outputs(result: RunResult, run_cfg: EmulationRun, outdir: Path, force: bool) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    _require_new([outdir / name for name in RUN_FILES], force)
    for tap, name in TAP_FILES.items():
        write_capture_file(outdir / name, result.records[tap])
    write_truth_file(outdir / TRUTH_FILE, result.truth)
    write_ntp_file(outdir / NTP_FILE, result.ntp)
    write_manifest(outdir / MANIFEST_FILE, run_cfg)


def cmd_simulate(args) -> int:
    parsed = parse_config(args.config)
    run_cfg = parsed.to_run(seed=args.seed)
    result = run_emulation(run_cfg)
    _write_run_outputs(result, run_cfg, Path(args.out), args.force)
    total = sum(len(r) for r in result.records.values())
    print(f"simulated {run_cfg.scenario.tech.value}/{run_cfg.scenario.range.value} "
          f"seed={run_cfg.seed}: {total} capture records -> {args.out}")
    return 0


def _write_samples(path: Path, analysis) -> None:
    classes = (
        ("CTRL", analysis.ctrl_rtt),
        ("STREAM-packet", analysis.stream_rtt),
        ("STREAM-frame", analysis.frame_latency),
        ("OWD-packet", analysis.owd_packet_up),
        ("OWD-frame", analysis.owd_frame_up),
        ("OWD-command", analysis.owd_command_down),
    )
    # The bytes json.dumps(..., separators=(",", ":")) gives: a sample is a
    # finite float, which it prints with float.__repr__.
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"class":"{name}","idx":{idx},"value_ms":{value!r}}}\n'
                      for name, sample_set in classes
                      for idx, value in enumerate(sample_set.values_ms))


def _analysis_options(args) -> tuple[AnalyzerConfig, ReportOptions]:
    """The analyzer config and report options the analysis flags ask for;
    a bad flag value ends in a CliError before any work starts."""
    try:
        cfg = AnalyzerConfig(
            match_mode=MatchMode.BY_PID if args.match == "pid" else MatchMode.BY_SEQ,
            owd_frame_endpoints=(FrameEndpoints.FIRST_TO_LAST if args.frame_owd == "first-last"
                                 else FrameEndpoints.FIRST_TO_FIRST),
        )
        opts = ReportOptions(
            processing_ms=args.processing_ms,
            owd_down_assumed_ms=args.owd_down_ms,
            distances_m=tuple(args.distance_m) if args.distance_m else (1.0,),
            reliability_percentile=args.reliability_p,
            reliability_bound_ms=args.bound_ms,
            alpha=args.alpha,
        )
    except ValueError as exc:
        # The option checks name the field first; the user typed its flag.
        field, _, rest = str(exc).partition(" ")
        flag = {"alpha": "--alpha", "processing_ms": "--processing-ms",
                "owd_down_assumed_ms": "--owd-down-ms", "distances_m": "--distance-m",
                "reliability_percentile": "--reliability-p",
                "reliability_bound_ms": "--bound-ms"}.get(field, field)
        raise CliError(f"bad analysis option: {flag} {rest}") from None
    return cfg, opts


def _analyze_and_write(outdir: Path, records: dict[Tap, list], ntp, cfg: AnalyzerConfig,
                       opts: ReportOptions) -> KpiReport:
    """Validate each tap's capture, analyze them and write the samples and
    report files into ``outdir``."""
    for tap, name in TAP_FILES.items():
        check = validate(records[tap])
        if not check.ok:
            raise CliError(f"{outdir / name}: invalid capture at record {check.index}: {check.error}")
    analysis = analyze_captures(records[Tap.UE], records[Tap.CORE], records[Tap.APP], ntp, cfg)
    report = build_report(analysis, opts)
    _write_samples(outdir / SAMPLES_FILE, analysis)
    rows = report_rows(report)
    write_report_csv(outdir / REPORT_CSV, rows)
    write_report_ndjson(outdir / REPORT_NDJSON, rows)
    return report


def _scenario_meta_from_manifest(indir: Path) -> dict[str, str]:
    """The ReportOptions scenario fields the run's manifest gives, if any."""
    manifest = indir / MANIFEST_FILE
    if not manifest.exists():
        return {}
    try:
        parsed = parse_config(manifest)
    except ConfigError:
        return {}
    s = parsed.scenario
    label = f"{'5g' if s.tech is Tech.FIVE_G else '4g'}_{s.range.value.lower()}"
    return {"scenario_label": label, "tech": s.tech.value, "range_band": s.range.value}


def _read_named(reader, path: Path):
    """``reader(path)``, with a decode error's message prefixed by the path."""
    try:
        return reader(path)
    except CaptureFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_analyze(args) -> int:
    cfg, opts = _analysis_options(args)
    indir = Path(args.indir)
    if not indir.is_dir():
        raise CliError(f"capture directory not found: {indir}")
    _require_new([indir / name for name in ANALYSIS_FILES], args.force)
    records = {}
    for tap, name in TAP_FILES.items():
        path = indir / name
        if not path.exists():
            raise CliError(f"missing capture file: {path}")
        records[tap] = _read_named(read_capture_file, path)
    ntp_path = indir / NTP_FILE
    ntp = _read_named(read_ntp_file, ntp_path) if ntp_path.exists() else None
    opts = dataclasses.replace(opts, **_scenario_meta_from_manifest(indir))
    report = _analyze_and_write(indir, records, ntp, cfg, opts)
    for name in report.absent:
        print(f"note: no {name} samples in this capture; KPIs marked absent")
    if not ntp:
        print("note: no NTP samples; one-way delays are uncorrected")
    print(f"analyzed {indir}: wrote {SAMPLES_FILE}, {REPORT_CSV}, {REPORT_NDJSON}")
    return 0


def _sweep_scenario(label: str, run_cfg: EmulationRun, outdir: Path, cfg: AnalyzerConfig,
                    opts: ReportOptions, force: bool) -> dict:
    """Emulate one sweep scenario, write its outputs into ``outdir`` and
    return its ``comparison.csv`` row. Runs in a pool worker, so everything
    it takes and returns pickles. It builds no reference cycles, so the
    worker runs it with the cyclic collector off."""
    result = run_emulation(run_cfg)
    _write_run_outputs(result, run_cfg, outdir, force)
    tech, range_band = run_cfg.scenario.tech.value, run_cfg.scenario.range.value
    opts = dataclasses.replace(opts, scenario_label=label, tech=tech, range_band=range_band)
    report = _analyze_and_write(outdir, result.records, result.ntp, cfg, opts)

    def med(cls):
        stats = report.classes.get(cls)
        return round(stats.median_ms, 6) if stats else ""

    return {
        "scenario": label, "tech": tech, "range": range_band,
        "ctrl_median_ms": med("CTRL"),
        "stream_packet_median_ms": med("STREAM-packet"),
        "stream_frame_median_ms": med("STREAM-frame"),
        "owd_frame_p95_ms": round(report.owd_frame_at_percentile_ms, 6)
                            if report.owd_frame_at_percentile_ms is not None else "",
        "e2e_srt_p95_ms": round(report.e2e_srt_p95_ms, 6) if report.e2e_srt_p95_ms else "",
        "velocity_kmh": round(report.velocity_kmh[opts.distances_m[0]], 4)
                        if report.velocity_kmh else "",
    }


def _paths_to_create(outdir: Path, scenario_dirs: list[Path], names: tuple[str, ...]) -> list[Path]:
    """What a sweep into ``outdir`` creates: the outermost missing directory
    of ``outdir``'s path or, when ``outdir`` exists, each missing scenario
    directory and each missing output file in the scenario directories."""
    missing = None
    while not outdir.exists():
        missing, outdir = outdir, outdir.parent
    if missing is not None:
        return [missing]
    created = []
    for scen_dir in scenario_dirs:
        if not scen_dir.exists():
            created.append(scen_dir)
        elif scen_dir.is_dir():
            created += [scen_dir / name for name in names if not (scen_dir / name).exists()]
    return created


def cmd_sweep(args) -> int:
    # Imported here: at module level the pool's multiprocessing imports would
    # slow every edgekpi start-up, not only sweep's.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    cfg, opts = _analysis_options(args)
    parsed = parse_config(args.config)
    base = parsed.to_run(args.seed)
    outdir = Path(args.out)
    # The scenario keys the file pinned, bar the ones each sweep scenario
    # sets; the rest take each technology's and range's defaults.
    pinned = {key: value for key, value in parsed.raw_scenario.items()
              if key not in ("tech", "range", "added_owd")}
    runs = []
    for label, tech, range_band in SWEEP_SCENARIOS:
        scenario = Scenario(tech=tech, range=range_band, **pinned)
        runs.append((label, dataclasses.replace(base, scenario=scenario), outdir / label))
    # Refuse before any scenario starts, so a refused sweep writes nothing.
    names = (*RUN_FILES, *ANALYSIS_FILES)
    _require_new([scen_dir / name for _, _, scen_dir in runs for name in names]
                 + [outdir / COMPARISON_FILE], args.force)
    created = _paths_to_create(outdir, [scen_dir for _, _, scen_dir in runs], names)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.force:
        # A sweep that fails writes no comparison, so an earlier one must not
        # stay to contradict the scenario reports this one rewrites.
        (outdir / COMPARISON_FILE).unlink(missing_ok=True)
    # The scenarios share no state and each writes only its own directory,
    # so all five run at once, one per worker, and the kernel shares the CPUs
    # among them. A worker ends with the sweep, so it leaves the collector
    # off. Results are taken, and errors raised, in scenario order.
    comparison = []
    try:
        with ProcessPoolExecutor(max_workers=len(runs), initializer=gc.disable) as pool:
            futures = [pool.submit(_sweep_scenario, *run, cfg, opts, args.force) for run in runs]
            for index, ((label, _, _), future) in enumerate(zip(runs, futures)):
                try:
                    comparison.append(future.result())
                except BrokenProcessPool:
                    raise CliError(f"sweep scenario {label} did not finish: a worker process "
                                   "ended abruptly (killed, or out of memory?)") from None
                print(f"[{index + 1}/{len(runs)}] {label}: done")
        with open(outdir / COMPARISON_FILE, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=COMPARISON_COLUMNS)
            writer.writeheader()
            writer.writerows(comparison)
    except BaseException:
        # Leaving the pool waited for every worker (none is left pending to
        # cancel), so none writes after this; a failed sweep leaves only
        # what was there before it.
        for path in created:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        raise
    print(f"sweep complete: {outdir / COMPARISON_FILE}")
    return 0


def _read_ndjson(path: Path, kind: str, parse) -> list:
    """``parse(record)`` of each non-blank line of ``path``. A line that does
    not decode, or that ``parse`` rejects, ends in a CliError naming it."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(parse(json.loads(line)))
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                why = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise CliError(f"{path} line {lineno}: bad {kind} record: {why}")
    return rows


def _load_samples(path: Path) -> dict[str, list[float]]:
    if not path.exists():
        raise CliError(f"samples file not found: {path}")
    by_class: dict[str, list[float]] = {}
    for cls, value in _read_ndjson(path, "sample", lambda d: (d["class"], float(d["value_ms"]))):
        by_class.setdefault(cls, []).append(value)
    return by_class


def _pick_class(by_class: dict[str, list[float]], wanted: str) -> list[float]:
    if wanted in by_class and by_class[wanted]:
        return by_class[wanted]
    available = ", ".join(sorted(k for k, v in by_class.items() if v)) or "none"
    raise CliError(f"no samples of class {wanted!r} (available: {available})")


def cmd_plot(args) -> int:
    out = Path(args.out)
    if args.kind == "cdf":
        if not args.infile:
            raise CliError("--in is required for cdf plots")
        samples = _pick_class(_load_samples(Path(args.infile)), args.sample_class)
        dist = ecdf(samples)
        text = (render_cdf_ascii(dist, args.reliability) if args.ascii
                else render_cdf_svg(dist, args.reliability, f"{args.sample_class} CDF"))
    elif args.kind == "box":
        if not args.infile:
            raise CliError("--in is required for box plots")
        inpath = Path(args.infile)
        groups = []
        if inpath.is_dir():
            for sub in sorted(p for p in inpath.iterdir() if (p / SAMPLES_FILE).exists()):
                by_class = _load_samples(sub / SAMPLES_FILE)
                if args.sample_class in by_class and by_class[args.sample_class]:
                    groups.append((sub.name, boxplot_stats(by_class[args.sample_class])))
        else:
            by_class = _load_samples(inpath)
            for name in sorted(by_class):
                if by_class[name]:
                    groups.append((name, boxplot_stats(by_class[name])))
        if not groups:
            raise CliError("no samples found for box plot")
        text = render_box_ascii(groups) if args.ascii else render_box_svg(groups)
    else:  # throughput
        if args.defaults:
            bars = []
            for enc in Encoder:
                for res in Resolution:
                    demand = demanded_throughput(VideoConfig(encoder=enc, resolution=res))
                    bars.append((f"{res.name}-{enc.value}", demand.mbps))
        else:
            if not args.infile:
                raise CliError("--in (a report.ndjson) or --defaults is required for throughput plots")

            def demand_bar(d):
                if d.get("metric") != "demanded_throughput":
                    return None
                return (d.get("scenario") or "demand", float(d["value"]))

            bars = [bar for bar in _read_ndjson(Path(args.infile), "report", demand_bar) if bar]
            if not bars:
                raise CliError("report contains no demanded_throughput rows")
        text = render_throughput_ascii(bars) if args.ascii else render_throughput_svg(bars)
    out.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


def cmd_selftest(_args) -> int:
    results = run_selftest()
    failures = 0
    for check in results:
        status = "PASS" if check.ok else "FAIL"
        if not check.ok:
            failures += 1
        print(f"{status} {check.name}: {check.detail}")
    print(f"{len(results) - failures}/{len(results)} oracle checks passed")
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "sweep": cmd_sweep,
        "plot": cmd_plot,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (CliError, ConfigError, CaptureFormatError, MalformedCaptureError,
            InsufficientDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
