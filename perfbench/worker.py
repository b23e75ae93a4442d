"""Runs one benchmark workload in a fresh interpreter.

``run.py`` starts this script from the root of an edgekpi checkout, which
must hold the package under ``src/``:

  worker.py run --workload W --work DIR --t0 NS --seconds S [--trace] --result FILE
  worker.py setup --workload W --work DIR --t0 NS --result FILE

``run`` sets the workload up, then repeats its operation until ``--seconds``
are used, checks every operation's outputs and writes a JSON result.
``setup`` stops after the set-up. ``--t0`` is the ``time.monotonic_ns()``
reading taken just before the process was started, so the set-up time
includes interpreter start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path.cwd()


class Edgekpi:
    """The edgekpi modules of the checkout, imported from ``src/``."""

    def __init__(self):
        src = (ROOT / "src").resolve()
        sys.path.insert(0, str(src))
        import edgekpi
        import edgekpi.analyzer
        import edgekpi.cli
        import edgekpi.config
        import edgekpi.emulator
        import edgekpi.kpis
        import edgekpi.model
        if Path(edgekpi.__file__).resolve().parent != src / "edgekpi":
            raise SystemExit(f"imported edgekpi from {edgekpi.__file__}, not from {src}")
        self.config = edgekpi.config
        self.emulator = edgekpi.emulator
        self.model = edgekpi.model
        self.analyzer = edgekpi.analyzer
        self.kpis = edgekpi.kpis
        self.cli = edgekpi.cli
        self.modules = {layer: getattr(self, layer) for layer in tracing.LAYERS}
        self.modules["edgekpi"] = edgekpi


def cpu_s() -> float:
    """CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def elapsed_s(start_ns: int) -> float:
    return (time.monotonic_ns() - start_ns) / 1e9


# -- the simulate and analyze steps, in the order the CLI makes its calls ----

def simulate_step(ek: Edgekpi, run_cfg, outdir: Path) -> None:
    """``edgekpi simulate`` after config parsing: emulate, write the captures,
    truth log, NTP trace and manifest."""
    cli = ek.cli
    result = ek.emulator.run(run_cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    for tap, name in cli.TAP_FILES.items():
        ek.model.write_capture_file(outdir / name, result.records[tap])
    ek.emulator.write_truth_file(outdir / cli.TRUTH_FILE, result.truth)
    ek.model.write_ntp_file(outdir / cli.NTP_FILE, result.ntp)
    ek.config.write_manifest(outdir / cli.MANIFEST_FILE, run_cfg)


def analyze_step(ek: Edgekpi, indir: Path, meta: tuple[str, str, str]) -> list[str]:
    """``edgekpi analyze`` with default flags. Where the CLI stops at the
    first capture ``validate`` rejects, this records the rejection and goes
    on, so the step stays timed end to end. Returns the rejections."""
    cli, model = ek.cli, ek.model
    records = {}
    rejections = []
    for tap, name in cli.TAP_FILES.items():
        records[tap] = model.read_capture_file(indir / name)
        check = model.validate(records[tap])
        if not check.ok:
            rejections.append(f"validate rejected {name} at record {check.index}: {check.error}")
    ntp = model.read_ntp_file(indir / cli.NTP_FILE)
    taps = list(cli.TAP_FILES)
    analysis = ek.analyzer.analyze_captures(records[taps[0]], records[taps[1]], records[taps[2]],
                                            ntp, ek.analyzer.AnalyzerConfig())
    label, tech, range_band = meta
    opts = ek.kpis.ReportOptions(scenario_label=label, tech=tech, range_band=range_band)
    report = ek.kpis.build_report(analysis, opts)
    cli._write_samples(indir / cli.SAMPLES_FILE, analysis)
    rows = ek.kpis.report_rows(report)
    ek.kpis.write_report_csv(indir / cli.REPORT_CSV, rows)
    ek.kpis.write_report_ndjson(indir / cli.REPORT_NDJSON, rows)
    return rejections


def scenario_meta(run_cfg) -> tuple[str, str, str]:
    """The (label, tech, range) ``edgekpi analyze`` reads from the manifest."""
    s = run_cfg.scenario
    label = f"{'5g' if s.tech.value == 'FIVE_G' else '4g'}_{s.range.value.lower()}"
    return label, s.tech.value, s.range.value


def run_cli(ek: Edgekpi, argv: list[str]) -> list[str]:
    """``cli.main(argv)`` with its console output captured; returns failures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ek.cli.main(argv)
    if code == 0:
        return []
    lines = err.getvalue().strip().splitlines()
    return [f"edgekpi {argv[0]} exited {code}: {lines[-1] if lines else ''}"]


# -- workloads ---------------------------------------------------------------

def operation(workload: str, ek: Edgekpi, run_cfg, work: Path) -> dict:
    """One timed operation; its outputs go to ``work/out``."""
    outputs = work / "out"
    if workload == "rtx-video":
        start = time.monotonic_ns()
        simulate_step(ek, run_cfg, outputs)
        mid = time.monotonic_ns()
        failures = analyze_step(ek, outputs, scenario_meta(run_cfg))
        return {"simulate_s": (mid - start) / 1e9, "analyze_s": elapsed_s(mid), "failures": failures}
    return {"failures": run_cli(ek, ["sweep", "--config", str(work / "config.ini"),
                                     "--out", str(outputs), "--force"])}


# -- output checks -----------------------------------------------------------

def truth_frames(path: Path) -> tuple[int, int]:
    """(frames, delivered frames) in a truth log."""
    frames = delivered = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"kind":"packet"'):
                continue
            rec = json.loads(line)
            if rec.get("kind") == "frame":
                frames += 1
                delivered += bool(rec["delivered"])
    return frames, delivered


def check_scenario(d: Path) -> tuple[list[str], int, int]:
    """Check one scenario's report against its truth log. Returns
    (problems, truth frames, OWD-frame samples)."""
    frames, delivered = truth_frames(d / "truth.ndjson")
    with open(d / "report.csv", newline="", encoding="utf-8") as fh:
        rows = {(r["class"], r["metric"]): r["value"] for r in csv.DictReader(fh)}

    def num(cls: str, metric: str) -> float | None:
        value = rows.get((cls, metric), "")
        return float(value) if value != "" else None

    problems = []
    stream = (num("STREAM-frame", "count") or 0) + (num("STREAM-frame", "excluded") or 0)
    if stream != frames:
        problems.append(f"{d.name}: STREAM-frame samples + excluded = {stream:g}, truth frames = {frames}")
    # The report does not list OWD-frame exclusions; a frame is excluded
    # exactly when it was not delivered whole.
    owd = num("OWD-frame", "count") or 0
    if owd + (frames - delivered) != frames:
        problems.append(f"{d.name}: OWD-frame samples {owd:g} + undelivered {frames - delivered} "
                        f"!= truth frames {frames}")
    avail = num("overall", "availability")
    if avail is None or not 0.0 <= avail <= 100.0:
        problems.append(f"{d.name}: availability {avail} outside [0, 100]")
    return problems, frames, int(owd)


def digests(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[str(path.relative_to(root))] = h.hexdigest()
    return out


def check_outputs(outputs: Path, first: dict[str, str] | None) -> dict:
    problems: list[str] = []
    frames = owd = scenarios = 0
    for truth in sorted(outputs.rglob("truth.ndjson")):
        scenarios += 1
        try:
            found, n_frames, n_owd = check_scenario(truth.parent)
        except (OSError, ValueError, KeyError) as exc:
            found, n_frames, n_owd = [f"{truth.parent.name}: {type(exc).__name__}: {exc}"], 0, 0
        problems += found
        frames += n_frames
        owd += n_owd
    if scenarios == 0:
        problems.append("no scenario outputs found")
    sums = digests(outputs)
    if first is not None and sums != first:
        changed = sorted(set(sums) ^ set(first) | {k for k in sums if first.get(k) != sums[k]})
        problems.append(f"outputs differ from the first repeat: {', '.join(changed)}")
    return {"problems": problems, "frames": frames, "owd_frame_samples": owd,
            "scenarios": max(scenarios, 1), "digests": sums}


def truth_counters(truth) -> dict:
    """Emulator waste from a ground-truth log. The first emission of an
    uplink data range is its original; a retransmitted range is spurious
    when that original was delivered."""
    ranges: dict[tuple[int, int], list] = {}
    lost = {"UPLINK": 0, "DOWNLINK": 0}
    for p in truth.packets:
        if not p.delivered:
            lost[p.dir.value] += 1
        if p.dir.value == "UPLINK" and p.proto.value == "STREAM" and p.payload_len > 0:
            ranges.setdefault((p.flow, p.seq), []).append(p)
    return {
        "emissions": sum(len(copies) for copies in ranges.values()),
        "unique_segments": len(ranges),
        "spurious_rtx": sum(1 for copies in ranges.values() if len(copies) > 1 and copies[0].delivered),
        "lost_up": lost["UPLINK"],
        "lost_down": lost["DOWNLINK"],
    }


def add_counts(total: dict, more: dict | None) -> dict:
    for key, value in (more or {}).items():
        total[key] = total.get(key, 0) + value
    return total


# -- per-layer metrics from the traced passes ---------------------------------

def pass_values(spans: list, lo: int, hi: int, truth: dict, frames: int, owd_samples: int) -> dict:
    """Additive per-layer quantities of one pass (the set-up or one op)."""
    s = tracing.summarize(spans, lo, hi)
    inc, counts, calls = s["inclusive"], s["counts"], s["calls"]
    useful = reread = 0
    for i in range(lo, hi):
        name, info = spans[i][0], spans[i][4] or {}
        if name == "model.read_capture_file" and "records" in info:
            if info.get("tap") in ("UE", "APP"):
                useful += info["records"]
            if tracing.under(spans, i, "cli.cmd_sweep"):
                reread += info["records"]
    values = {
        "config.parse_s": inc.get("config.parse_config", 0.0),
        "config.manifest_write_s": inc.get("config.write_manifest", 0.0),
        "emulator.run_s": inc.get("emulator.run", 0.0),
        "emulator.records": counts.get("emulator.run:ue_records", 0),
        "emulator.truth_write_s": inc.get("emulator.write_truth_file", 0.0),
        "model.encode_s": inc.get("model.write_capture_file", 0.0),
        "model.encoded_records": counts.get("model.write_capture_file:records", 0),
        "model.capture_bytes": counts.get("model.write_capture_file:bytes", 0),
        "model.decode_s": inc.get("model.read_capture_file", 0.0),
        "model.decoded_records": counts.get("model.read_capture_file:records", 0),
        "model.useful_records": useful,
        "model.validate_s": inc.get("model.validate", 0.0),
        "model.validate_rejects": counts.get("model.validate:rejects", 0),
        "model.ntp_io_s": inc.get("model.write_ntp_file", 0.0) + inc.get("model.read_ntp_file", 0.0),
        "analyzer.reassemble_calls": calls.get("analyzer.reassemble", 0),
        "analyzer.owd_frame_samples": owd_samples,
        "truth_frames": frames,
        "kpis.build_report_s": inc.get("kpis.build_report", 0.0),
        "kpis.report_write_s": inc.get("kpis.write_report_csv", 0.0) + inc.get("kpis.write_report_ndjson", 0.0),
        "cli.write_samples_s": inc.get("cli._write_samples", 0.0),
        "cli.sweep_reread_records": reread,
    }
    for fname in ("analyze_captures", "rtt_control", "rtt_tcp", "frame_latency", "frame_owd",
                  "observe_frames", "owd_packet"):
        values[f"analyzer.{fname}_s"] = inc.get(f"analyzer.{fname}", 0.0)
    for layer, seconds in s["self"].items():
        values[f"{layer}.self_s"] = seconds
    for key in ("emissions", "unique_segments", "spurious_rtx", "lost_up", "lost_down"):
        values[f"emulator.{key}"] = truth.get(key, 0)
    return values


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: dict, ops: list[dict], traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: a quantity's set-up value plus its (low) median over
    the traced operations, then the ratios derived from those sums."""
    v = {key: setup[key] + statistics.median_low(op[key] for op in ops) for key in setup}
    out = {key: v[key] for key in (
        "config.parse_s", "config.manifest_write_s",
        "emulator.run_s", "emulator.records", "emulator.truth_write_s",
        "emulator.spurious_rtx", "emulator.lost_up", "emulator.lost_down",
        "model.encode_s", "model.capture_bytes", "model.decode_s",
        "model.validate_s", "model.validate_rejects", "model.ntp_io_s",
        "analyzer.analyze_captures_s", "analyzer.rtt_control_s", "analyzer.rtt_tcp_s",
        "analyzer.frame_latency_s", "analyzer.frame_owd_s", "analyzer.observe_frames_s",
        "analyzer.owd_packet_s", "analyzer.reassemble_calls",
        "kpis.build_report_s", "kpis.report_write_s",
        "cli.write_samples_s", "cli.sweep_reread_records",
    )}
    out["emulator.us_per_record"] = ratio(v["emulator.run_s"] * 1e6, v["emulator.records"])
    out["emulator.uplink_emit_ratio"] = ratio(v["emulator.emissions"], v["emulator.unique_segments"])
    out["model.encode_us_per_record"] = ratio(v["model.encode_s"] * 1e6, v["model.encoded_records"])
    out["model.decode_us_per_record"] = ratio(v["model.decode_s"] * 1e6, v["model.decoded_records"])
    out["model.decode_useful_ratio"] = ratio(v["model.useful_records"], v["model.decoded_records"])
    out["analyzer.frame_yield"] = ratio(v["analyzer.owd_frame_samples"], v["truth_frames"])
    out["cli.sweep_scenario_s"] = statistics.median(op["wall_s"] / op["scenarios"] for op in traced)
    out["cli.cpu_per_wall"] = statistics.median(op["cpu_s"] / op["wall_s"] for op in traced)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = v[f"{layer}.self_s"]
    out["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                               - statistics.median(op["wall_s"] for op in untraced))
    return out


# -- entry points --------------------------------------------------------------

def cmd_run(args, setup_only: bool) -> dict:
    ek = Edgekpi()
    tracer = tracing.Tracer() if getattr(args, "trace", False) else None
    if tracer is not None:
        tracer.install(ek.modules)
    work = Path(args.work)
    # Set-up is what `edgekpi simulate` and `edgekpi sweep` do before their
    # first emulation: import the package and parse the config.
    run_cfg = ek.config.parse_config(work / "config.ini").to_run()
    setup_s = elapsed_s(args.t0)
    if setup_only:
        return {"setup_s": setup_s}
    setup_end = 0
    if tracer is not None:
        tracer.uninstall()
        setup_end = len(tracer.spans)

    ops: list[dict] = []
    first_digests = None
    loop_start = time.monotonic_ns()
    while True:
        # A traced run alternates traced and untraced operations, so the
        # tracing overhead is measured on the same inputs in one process.
        traced = tracer is not None and len(ops) % 2 == 0
        if tracer is not None and traced:
            tracer.install(ek.modules)
        lo = len(tracer.spans) if tracer is not None else 0
        cpu0, start = cpu_s(), time.monotonic_ns()
        try:
            op = operation(args.workload, ek, run_cfg, work)
        except Exception as exc:  # a failing layer fails this operation only
            op = {"failures": [f"{type(exc).__name__}: {exc}"]}
        op["wall_s"] = elapsed_s(start)
        op["cpu_s"] = cpu_s() - cpu0
        op["traced"] = traced
        if tracer is not None:
            tracer.uninstall()
            op["span_range"] = (lo, len(tracer.spans))
            truth: dict = {}
            for t in tracer.truths:
                add_counts(truth, truth_counters(t))
            tracer.truths.clear()
            op["truth"] = truth
        checks = check_outputs(work / "out", first_digests)
        if first_digests is None:
            first_digests = checks["digests"]
        op["problems"] = checks.pop("problems")
        checks.pop("digests")
        op.update(checks)
        ops.append(op)
        used = elapsed_s(loop_start)
        enough = tracer is None or len(ops) >= 2
        if enough and used >= args.seconds - 0.5 * op["wall_s"]:
            break

    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "digests": first_digests,
    }
    if tracer is not None:
        spans = tracer.spans
        traced_ops = [op for op in ops if op["traced"]]
        setup_values = pass_values(spans, 0, setup_end, {}, 0, 0)
        op_values = [pass_values(spans, *op["span_range"], op["truth"], op["frames"],
                                 op["owd_frame_samples"]) for op in traced_ops]
        result["per_layer"] = layer_metrics(setup_values, op_values, traced_ops,
                                            [op for op in ops if not op["traced"]])
        spans_path = work / "spans.json"
        spans_path.write_text(json.dumps([s[:4] for s in spans]))
        result["spans_file"] = str(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("run", "setup"):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--work", required=True)
        p.add_argument("--t0", type=int, required=True)
        p.add_argument("--result", required=True)
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = cmd_run(args, setup_only=args.mode == "setup")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
