"""A seeded corpus of random configs with committed digests.

A fixed ``random.Random`` draws :data:`COUNT` configs over the emulator's
space: video, bulk and ping-only traffic; 4G and 5G at every range; loss
0-30 %; jitter 0-3 ms; retransmission on and off; default, explicit and
infinite caps; processing 0-30 ms; perfect and offset clocks. Each runs 1 s
of traffic and is analyzed in memory. ``golden/corpus.json`` holds, per
config, the sha256 of its captures, truth log, NTP trace, samples and
report rows, so a refactor that moves any byte of any of them fails here,
naming the configs that moved.

A change that moves output on purpose rewrites the file with
``PYTHONPATH=src python tests/test_corpus.py`` and says in CHANGES.md which
classes of config moved.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from edgekpi.analyzer import AnalyzerConfig, analyze_captures
from edgekpi.cli import _write_samples
from edgekpi.emulator import EmulationRun, Workload, run, write_truth_file
from edgekpi.kpis import ReportOptions, build_report, report_rows
from edgekpi.model import (
    NODES,
    ClockModel,
    ProcessingModel,
    RangeBand,
    Resolution,
    Scenario,
    Tech,
    VideoConfig,
    record_to_json,
    write_ntp_file,
)

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
COUNT = 18
DIGESTS = ("captures", "truth", "ntp", "samples", "report")


def draw_params(rng: random.Random, index: int) -> dict:
    """One config's parameters, as plain values that print and compare. The
    index picks the traffic and retransmission, so that every pair of them
    is drawn however few configs there are; the rest is drawn at random."""
    tech = rng.choice(["FIVE_G", "FOUR_G"])
    ranges = ["EDGE", "REGIONAL", "NATIONAL"] if tech == "FIVE_G" else ["REGIONAL", "NATIONAL"]
    offsets = [round(rng.uniform(-5.0, 5.0), 3) for _ in NODES]
    return {
        "seed": rng.randrange(1000),
        "traffic": ("video", "bulk", "ping")[index % 3],
        "pings": rng.choice([0, 10]),
        "resolution": rng.choice([r.name for r in Resolution]),
        "tech": tech,
        "range": rng.choice(ranges),
        "loss_prob": rng.choice([0.0, round(rng.uniform(0.0, 0.3), 3)]),
        "jitter_std": rng.choice([0.0, round(rng.uniform(0.0, 3.0), 3)]),
        "retransmit": index // 3 % 2 == 0,
        "cap": rng.choice(["default", "inf", round(rng.uniform(5.0, 50.0), 1)]),
        "processing_ms": round(rng.uniform(0.0, 30.0), 2),
        "clock_offsets_ms": rng.choice([None, offsets]),
    }


def to_run(p: dict) -> EmulationRun:
    cap = {"default": None, "inf": math.inf}.get(p["cap"], p["cap"])
    scenario = Scenario(tech=Tech[p["tech"]], range=RangeBand[p["range"]],
                        jitter_std=p["jitter_std"], loss_prob=p["loss_prob"],
                        bandwidth_cap=cap, retransmit=p["retransmit"])
    traffic = p["traffic"]
    workload = Workload(
        ping_count=10 if traffic == "ping" else p["pings"],
        video=(VideoConfig(resolution=Resolution[p["resolution"]], duration_s=1.0)
               if traffic == "video" else None),
        bulk_duration_s=1.0 if traffic == "bulk" else 0.0)
    offsets = p["clock_offsets_ms"]
    clocks = ClockModel.perfect() if offsets is None else ClockModel(*offsets)
    return EmulationRun(scenario=scenario, workload=workload, clocks=clocks,
                        processing=ProcessingModel(total_ms=p["processing_ms"]), seed=p["seed"])


def corpus() -> list[dict]:
    rng = random.Random(20_261_019)
    return [draw_params(rng, index) for index in range(COUNT)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(p: dict, scratch: Path) -> dict[str, str]:
    """The sha256 of each output of one config; the truth log, NTP trace and
    samples as their writers put them on disk."""
    run_cfg = to_run(p)
    result = run(run_cfg)
    truth, ntp, samples = scratch / "truth", scratch / "ntp", scratch / "samples"
    write_truth_file(truth, result.truth)
    write_ntp_file(ntp, result.ntp)
    out = {
        "captures": _sha("".join(f"{record_to_json(r)}\n" for tap in NODES
                                 for r in result.records[tap]).encode()),
        "truth": _sha(truth.read_bytes()),
        "ntp": _sha(ntp.read_bytes()),
    }
    analysis = analyze_captures(*(result.records[tap] for tap in NODES), result.ntp,
                                AnalyzerConfig())
    _write_samples(samples, analysis)
    opts = ReportOptions(processing_ms=p["processing_ms"], reliability_bound_ms=50.0,
                         tech=p["tech"], range_band=p["range"])
    out["samples"] = _sha(samples.read_bytes())
    out["report"] = _sha(json.dumps(report_rows(build_report(analysis, opts))).encode())
    return out


def test_corpus_digests(tmp_path):
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    params = corpus()
    assert len(expected) == len(params)
    moved = []
    for index, (p, want) in enumerate(zip(params, expected)):
        got = digests(p, tmp_path)
        changed = [name for name in DIGESTS if got[name] != want[name]]
        if changed:
            moved.append(f"config {index} {json.dumps(p)}: {', '.join(changed)} moved")
    assert not moved, (f"{len(moved)} of {len(params)} configs differ from "
                       f"golden/corpus.json:\n" + "\n".join(moved))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = [digests(p, Path(scratch)) for p in corpus()]
    CORPUS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} configs' digests to {CORPUS}", file=sys.stderr)
