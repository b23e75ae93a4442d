"""CLI subcommands: simulate, analyze, sweep, plot, selftest."""

import csv
import gc
import hashlib
import json
import os
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from edgekpi.cli import _analysis_options, _build_parser, _sweep_scenario, main
from edgekpi.config import parse_config
from edgekpi.kpis import latency_at
from edgekpi.selftest import check_srtt_recurrence, run_selftest

CONFIG = """
[scenario]
tech = FIVE_G
range = EDGE
jitter_std = 0

[clocks]
sigma_ue_ms = 0
sigma_core_ms = 0
sigma_app_ms = 0

[video]
fps = 20
mean_frame_bytes = 14000
frame_size_cv = 0
duration_s = 1

[workload]
ping_interval_ms = 100
ping_count = 5
"""

#: CONFIG on a path with no delay at all: with ``--processing-ms 0
#: --owd-down-ms 0`` its service response time is 0 ms, so its analysis fails
#: (in a sweep, 5g_edge's only: every other scenario adds a core-side delay).
ZERO_DELAY = CONFIG.replace(
    "jitter_std = 0", "jitter_std = 0\nbase_owd_up = 0\nbase_owd_down = 0\nbandwidth_cap = inf")

GOLDEN = Path(__file__).parent / "golden"

PING_ONLY = """
[scenario]
tech = FIVE_G
range = EDGE

[workload]
ping_count = 5
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


def digest_dir(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def read_csv(path: Path) -> list[dict]:
    """The rows of a CSV file, read with the file closed again."""
    return list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))


def one_line_error(capsys) -> str:
    """The stderr of a run that failed cleanly: one ``error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


class TestSimulate:
    def test_writes_capture_set(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--seed", "1",
                     "--out", str(out)]) == 0
        for name in ("ue.ndjson", "core.ndjson", "app.ndjson", "truth.ndjson",
                     "ntp.ndjson", "manifest.ini"):
            assert (out / name).exists(), name

    def test_identical_seed_identical_bytes(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(out1)])
        main(["simulate", "--config", str(config_path), "--seed", "7", "--out", str(out2)])
        assert digest_dir(out1) == digest_dir(out2)

    def test_refuses_overwrite_without_force(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--seed", "1", "--out", str(out)])
        assert main(["simulate", "--config", str(config_path), "--seed", "1",
                     "--out", str(out)]) == 1
        assert "overwrite" in capsys.readouterr().err
        assert main(["simulate", "--config", str(config_path), "--seed", "1",
                     "--out", str(out), "--force"]) == 0

    def test_invalid_scenario_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\ntech = 4G\nrange = EDGE\n\n[workload]\nping_count = 1\n")
        assert main(["simulate", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 1
        assert "EDGE" in capsys.readouterr().err

    def test_unparseable_config_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario\ntech = 5G\n")
        assert main(["simulate", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 1
        assert "line" in capsys.readouterr().err.lower()

    def test_out_is_an_existing_file(self, tmp_path, config_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
        assert str(out) in one_line_error(capsys)


class TestNonFiniteConfig:
    @pytest.mark.parametrize("old, new, field", [
        ("fps = 20", "fps = nan", "fps"),
        ("jitter_std = 0", "jitter_std = nan", "jitter_std"),
        ("duration_s = 1", "duration_s = inf", "[video] duration_s"),
    ])
    def test_simulate_exits_1_with_one_line_error(self, tmp_path, capsys, old, new, field):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(CONFIG.replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{field} must be a finite number" in err
        assert not (out / "manifest.ini").exists()


class TestBadConfig:
    BULK = PING_ONLY.replace("ping_count = 5", "bulk_duration_s = 0.5")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("config, message", [
        (PING_ONLY + "mss = 0\n", "[workload] mss must be > 0"),
        (PING_ONLY + "mss = -1\n", "[workload] mss must be > 0"),
        (BULK + "bulk_offered_mbps = -5\n", "[workload] bulk_offered_mbps must be > 0"),
        (PING_ONLY.replace("range = EDGE", "range = EDGE\nretransmit = maybe"),
         "[scenario] retransmit: not a boolean: 'maybe'"),
        (PING_ONLY.replace("ping_count = 5", "ping_count = 1.5"),
         "[workload] ping_count: not an integer: '1.5'"),
        (PING_ONLY + "\n[video]\nduration_s = -1\n", "[video] duration_s must be >= 0"),
        (PING_ONLY + "bulk_duration_s = -1\n", "[workload] bulk_duration_s must be >= 0"),
        ("[DEFAULT]\nseed = 4\n" + PING_ONLY, "unknown section [DEFAULT]"),
        ("[DEFAULT]\n" + PING_ONLY, "unknown section [DEFAULT]"),
        ("garbage\n" + PING_ONLY, "{cfg}: line 1: 'garbage' comes before any [section] header"),
        (PING_ONLY.replace("[scenario]\n", "[scenario]\n  stray\n"),
         "{cfg}: line 3: neither a [section] header nor a key = value line"),
        (PING_ONLY + "ping_count = 6\n", "{cfg}: line 8: [workload] duplicate key 'ping_count'"),
        (PING_ONLY + "\n[scenario]\nrange = REGIONAL\n",
         "{cfg}: line 9: duplicate section [scenario]"),
        (PING_ONLY.replace("range = EDGE", "range = REGIONAL\nadded_owd = 2.0"),
         "[scenario] unknown key 'added_owd'"),
        (PING_ONLY + "\n[processing]\nstage_blob = 0.25\n", "[processing] unknown key 'stage_blob'"),
        (BULK + "bulk_offered_mbps = inf\n",
         "[workload] bulk_offered_mbps must be a finite number, got inf"),
        (PING_ONLY + "\n[video]\nfps = -5\n", "[video] fps must be > 0"),
        (BULK + "ping_interval_ms = -5\n", "[workload] ping_interval_ms must be > 0"),
    ], ids=["mss-zero", "mss-negative", "bulk-rate-negative", "bad-boolean", "bad-integer",
            "video-duration-negative", "bulk-duration-negative", "default-section",
            "empty-default-section", "no-section-header", "indented-stray-line",
            "duplicate-key", "duplicate-section", "added-owd", "stage-fraction", "bulk-rate-inf",
            "unused-video-fps-negative", "unused-ping-interval-negative"])
    def test_exits_1_with_one_line_and_writes_nothing(self, tmp_path, capsys, command,
                                                      config, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not out.exists()


class TestNotUtf8:
    """Each file a command reads names itself when it is not UTF-8."""

    ANALYZE = ["analyze", "--in", "{run}", "--force"]

    @pytest.mark.parametrize("name, command", [
        ("run.ini", ["simulate", "--config", "{path}", "--out", "{new}"]),
        ("manifest.ini", ANALYZE),
        ("ue.ndjson", ANALYZE),
        ("core.ndjson", ANALYZE),
        ("app.ndjson", ANALYZE),
        ("ntp.ndjson", ANALYZE),
        ("samples.ndjson", ["plot", "--kind", "cdf", "--in", "{path}", "--out", "{new}"]),
        ("report.ndjson", ["plot", "--kind", "throughput", "--in", "{path}", "--out", "{new}"]),
    ], ids=["config", "manifest", "ue", "core", "app", "ntp", "plot-samples", "plot-report"])
    def test_exits_1_with_one_line_and_writes_nothing(self, tmp_path, config_path, capsys,
                                                      name, command):
        run_dir, new = tmp_path / "out", tmp_path / "new"
        main(["simulate", "--config", str(config_path), "--seed", "3", "--out", str(run_dir)])
        main(["analyze", "--in", str(run_dir)])
        path = config_path if name == "run.ini" else run_dir / name
        data = path.read_bytes()
        line3 = data.index(b"\n", data.index(b"\n") + 1) + 1
        path.write_bytes(data[:line3] + b"\xff" + data[line3:])
        before = digest_dir(run_dir)
        capsys.readouterr()
        args = [arg.format(path=path, run=run_dir, new=new) for arg in command]
        assert main(args) == 1
        assert one_line_error(capsys) == (
            f"error: {path}: not UTF-8 text: byte 0xff (invalid start byte)\n")
        assert digest_dir(run_dir) == before
        assert not new.exists()


class TestAnalyze:
    @pytest.fixture
    def capture_dir(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--seed", "3", "--out", str(out)])
        return out

    NTP_NOTE = "note: no NTP samples; one-way delays are uncorrected"

    def test_simulate_then_analyze(self, capture_dir, capsys):
        assert main(["analyze", "--in", str(capture_dir)]) == 0
        assert self.NTP_NOTE not in capsys.readouterr().out
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert (capture_dir / name).exists()
        classes = {json.loads(line)["class"]
                   for line in (capture_dir / "samples.ndjson").read_text().splitlines()}
        assert {"CTRL", "STREAM-packet", "STREAM-frame", "OWD-packet", "OWD-frame"} <= classes

    def test_never_reads_truth(self, capture_dir):
        (capture_dir / "truth.ndjson").unlink()
        assert main(["analyze", "--in", str(capture_dir)]) == 0

    def test_missing_tap_file_names_it(self, capture_dir, capsys):
        (capture_dir / "core.ndjson").unlink()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert "core.ndjson" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, message", [
        ("garbage\n", "{path}: line 1: 'garbage' comes before any [section] header"),
        ("[scenario]\ntech = SIXG\n",
         "{path}: [scenario] tech: unknown value 'SIXG' (expected one of 4G, 5G, FIVE_G, FOUR_G)"),
        ("[scenario]\ntech = FIVE_G\nrange = EDGE\nadded_owd = 0.0\n",
         "{path}: [scenario] unknown key 'added_owd'"),
    ], ids=["syntax", "value", "removed-key"])
    def test_damaged_manifest_exits_1_before_writing(self, capture_dir, capsys, manifest,
                                                     message):
        path = capture_dir / "manifest.ini"
        path.write_text(manifest)
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not any((capture_dir / name).exists()
                       for name in ("samples.ndjson", "report.csv", "report.ndjson"))

    def test_missing_manifest_allowed(self, capture_dir):
        (capture_dir / "manifest.ini").unlink()
        assert main(["analyze", "--in", str(capture_dir)]) == 0

    def test_corrupt_line_reports_line_number(self, capture_dir, capsys):
        ue = capture_dir / "ue.ndjson"
        lines = ue.read_text().splitlines()
        lines[2] = '{"tap": "UE", "broken": true}'
        ue.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_no_ctrl_traffic_marks_absent(self, tmp_path, capsys):
        cfg = tmp_path / "v.ini"
        cfg.write_text(CONFIG.replace("ping_count = 5", "ping_count = 0"))
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--seed", "4", "--out", str(out)])
        assert main(["analyze", "--in", str(out)]) == 0
        assert "CTRL" in capsys.readouterr().out
        rows = read_csv(out / "report.csv")
        ctrl_rows = [r for r in rows if r["class"] == "CTRL"]
        assert ctrl_rows[0]["value"] == ""

    def test_analysis_pure_function_of_captures(self, capture_dir, tmp_path):
        main(["analyze", "--in", str(capture_dir)])
        first = (capture_dir / "report.csv").read_bytes()
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            (capture_dir / name).unlink()
        main(["analyze", "--in", str(capture_dir)])
        assert (capture_dir / "report.csv").read_bytes() == first

    def test_no_ntp_samples_noted_once(self, capture_dir, capsys):
        ntp_path = capture_dir / "ntp.ndjson"
        ntp_path.write_text("")
        assert main(["analyze", "--in", str(capture_dir)]) == 0
        assert capsys.readouterr().out.splitlines().count(self.NTP_NOTE) == 1
        empty = digest_dir(capture_dir)
        ntp_path.unlink()
        assert main(["analyze", "--in", str(capture_dir), "--force"]) == 0
        assert capsys.readouterr().out.splitlines().count(self.NTP_NOTE) == 1
        missing = digest_dir(capture_dir)
        del empty["ntp.ndjson"]
        assert missing == empty

    @pytest.mark.parametrize("key", ["offset_ms", "t_s"])
    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", '"nan"', '"5"', "true", pytest.param("1" + "0" * 400, id="400-digit"),
        "1e999", "-Infinity"])
    def test_non_finite_ntp_offset_is_an_error(self, capture_dir, capsys, key, value):
        ntp_path = capture_dir / "ntp.ndjson"
        lines = ntp_path.read_text().splitlines()
        lines[1] = re.sub(rf'"{key}":[^,}}]+', f'"{key}":{value}', lines[1])
        ntp_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        err = one_line_error(capsys)
        assert err.startswith(f"error: {ntp_path}: line 2: bad ntp sample: "
                              f"{key} must be a finite number"), err
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert not (capture_dir / name).exists()

    @pytest.mark.parametrize("name, message", [
        ("ue.ndjson", "invalid JSON: Expecting property name enclosed in double quotes"),
        ("core.ndjson", "invalid JSON: Expecting property name enclosed in double quotes"),
        ("app.ndjson", "invalid JSON: Expecting property name enclosed in double quotes"),
        ("ntp.ndjson", "bad ntp sample: Expecting property name enclosed in double quotes"),
    ], ids=["ue", "core", "app", "ntp"])
    def test_decode_error_names_its_file(self, capture_dir, capsys, name, message):
        path = capture_dir / name
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert one_line_error(capsys).startswith(f"error: {path}: line 3: {message}")

    @pytest.mark.parametrize("separator", [":", ": "], ids=["writer-form", "spaced"])
    def test_oversized_integer_is_an_error(self, capture_dir, capsys, separator):
        core = capture_dir / "core.ndjson"
        lines = core.read_text().splitlines()
        lines[3] = re.sub(r'"t_us":-?[0-9]+', f'"t_us"{separator}{"9" * 5000}', lines[3])
        core.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        err = one_line_error(capsys)
        assert err.startswith(f"error: {core}: line 4: bad capture record: Exceeds the limit"), err
        assert not (capture_dir / "report.csv").exists()

    @pytest.mark.parametrize("name, message", [
        ("core.ndjson", "bad capture record: maximum recursion depth exceeded"),
        ("ntp.ndjson", "bad ntp sample: maximum recursion depth exceeded"),
    ], ids=["capture", "ntp"])
    def test_deeply_nested_json_is_an_error(self, capture_dir, capsys, name, message):
        path = capture_dir / name
        lines = path.read_text().splitlines()
        lines[1] = "[" * 100_000 + "]" * 100_000
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert one_line_error(capsys).startswith(f"error: {path}: line 2: {message}")
        assert not (capture_dir / "report.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("t_us", "-277.5"), ("t_us", "1e3"), ("pid", '"5"'), ("seq", "true"),
        ("t_us", str(2**63)), pytest.param("t_us", "1" + "0" * 400, id="t_us-400-digit")])
    def test_integer_field_must_be_a_json_integer(self, capture_dir, capsys, field, value):
        ue = capture_dir / "ue.ndjson"
        lines = ue.read_text().splitlines()
        lines[2] = re.sub(rf'"{field}":[^,}}]+', f'"{field}":{value}', lines[2])
        ue.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        shown = json.loads(value)
        why = "not a 64-bit integer" if type(shown) is int else "not an integer"
        assert one_line_error(capsys) == (
            f"error: {ue}: line 3: bad capture record: {field}: {why}: {shown!r}\n")

    def test_second_stream_flow_is_an_error(self, capture_dir, capsys):
        # every tap gains flow 3: a copy of stream flow 1, 7 s later, with
        # fresh pids
        counts = {}
        for name in ("ue.ndjson", "core.ndjson", "app.ndjson"):
            path = capture_dir / name
            records = [json.loads(line) for line in path.read_text().splitlines()]
            next_pid = max(d["pid"] for d in records) + 1
            copies = [dict(d, flow=3, t_us=d["t_us"] + 7_000_000, pid=next_pid + i)
                      for i, d in enumerate(d for d in records if d["proto"] == "STREAM")]
            path.write_text("".join(json.dumps(d, separators=(",", ":")) + "\n"
                                    for d in records + copies))
            counts[name] = len(records)
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert one_line_error(capsys) == (
            f"error: {capture_dir / 'ue.ndjson'}: invalid capture at record {counts['ue.ndjson']}: "
            "second stream flow 3 at tap UE (flow 1 seen first)\n")
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert not (capture_dir / name).exists()

    def test_taps_disagreeing_on_the_stream_flow_is_an_error(self, tmp_path, capsys):
        # each tap alone is valid: app.ndjson carries the stream as flow 2
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(GOLDEN / "default.ini"), "--out", str(out)]) == 0
        app = out / "app.ndjson"
        app.write_text(app.read_text().replace('"flow":1,', '"flow":2,'))
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 1
        assert one_line_error(capsys) == (
            f"error: {app}: stream flow 2 at tap APP (flow 1 at tap UE)\n")
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert not (out / name).exists()

    def test_captures_of_two_runs_are_an_error(self, tmp_path, capsys):
        # app.ndjson of another seed: each tap alone is valid, and the taps
        # agree on the stream flow, but their pids name other packets
        out, other = tmp_path / "run", tmp_path / "other"
        for seed, path in (("1", out), ("2", other)):
            assert main(["simulate", "--config", str(GOLDEN / "default.ini"), "--seed", seed,
                         "--out", str(path)]) == 0
        app = out / "app.ndjson"
        app.write_bytes((other / "app.ndjson").read_bytes())
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 1
        assert one_line_error(capsys) == (
            f"error: {app}: pid 180 names another packet at tap APP than at tap UE\n")
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert not (out / name).exists()

    def test_missing_capture_directory(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        assert main(["analyze", "--in", str(missing)]) == 1
        assert one_line_error(capsys) == f"error: capture directory not found: {missing}\n"

    @pytest.mark.parametrize("target, source", [
        ("ue.ndjson", "app.ndjson"), ("core.ndjson", "app.ndjson"), ("app.ndjson", "ue.ndjson"),
    ])
    def test_capture_of_another_tap_is_an_error(self, capture_dir, capsys, target, source):
        (capture_dir / target).write_bytes((capture_dir / source).read_bytes())
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        tap_of = {"ue.ndjson": "UE", "core.ndjson": "CORE", "app.ndjson": "APP"}
        assert one_line_error(capsys) == (
            f"error: {capture_dir / target}: invalid capture at record 0: "
            f"record of tap {tap_of[source]} in the {tap_of[target]} capture\n")
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert not (capture_dir / name).exists()

    def test_conflicting_segment_lengths_name_their_file(self, capture_dir, capsys):
        # app.ndjson gains a second copy of an uplink data segment, one byte
        # shorter, with a fresh pid
        app = capture_dir / "app.ndjson"
        records = [json.loads(line) for line in app.read_text().splitlines()]
        seg = next(d for d in records
                   if d["dir"] == "UPLINK" and d["proto"] == "STREAM" and d["len"] > 1)
        copy = dict(seg, len=seg["len"] - 1, pid=max(d["pid"] for d in records) + 1)
        app.write_text("".join(json.dumps(d, separators=(",", ":")) + "\n"
                               for d in records + [copy]))
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert one_line_error(capsys) == (
            f"error: {app}: stream segments at seq {seg['seq']} disagree on length "
            f"({seg['len']} vs {copy['len']})\n")
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert not (capture_dir / name).exists()

    def test_too_few_ntp_samples_name_their_file(self, capture_dir, capsys):
        # ntp.ndjson cut to its first sample of each node
        ntp = capture_dir / "ntp.ndjson"
        first = {}
        for line in ntp.read_text().splitlines():
            first.setdefault(json.loads(line)["node"], line)
        ntp.write_text("".join(line + "\n" for line in first.values()))
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert one_line_error(capsys) == f"error: {ntp}: need >= 2 offset samples for UE, got 1\n"
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert not (capture_dir / name).exists()

    def test_percentile_rows_follow_reliability_p(self, capture_dir):
        assert main(["analyze", "--in", str(capture_dir), "--reliability-p", "0.5"]) == 0
        report = {r["metric"]: r["value"] for r in read_csv(capture_dir / "report.csv")
                  if r["class"] in ("OWD-frame", "overall")}
        assert "latency_at_p95" not in report and "e2e_srt_p95" not in report
        samples = [json.loads(line)["value_ms"]
                   for line in (capture_dir / "samples.ndjson").read_text().splitlines()
                   if json.loads(line)["class"] == "OWD-frame"]
        assert float(report["latency_at_p50"]) == pytest.approx(latency_at(samples, 0.5), abs=1e-6)
        assert float(report["e2e_srt_p50"]) == pytest.approx(
            float(report["latency_at_p50"]) + 20.3 + 5.0, abs=1e-6)

    def test_median_row_is_the_50th_percentile_row(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(GOLDEN / "default.ini"), "--out", str(out)]) == 0
        assert main(["analyze", "--in", str(out), "--reliability-p", "0.5"]) == 0
        frame = {r["metric"]: r["value"] for r in read_csv(out / "report.csv")
                 if r["class"] == "OWD-frame"}
        assert frame["median"] == frame["latency_at_p50"] == "24.826621"

    def test_negative_zero_flags_print_as_zero(self, capture_dir):
        assert main(["analyze", "--in", str(capture_dir), "--distance-m", "-0.0",
                     "--bound-ms", "-0.0", "--owd-down-ms", "-0.0"]) == 0
        rows = {r["metric"]: r["value"] for r in read_csv(capture_dir / "report.csv")}
        assert rows["velocity_ds_0.0m"] == "0.0"
        assert "reliability_within_0.0ms" in rows
        assert rows["assumed_down"] == "0.0"
        assert not [(metric, value) for metric, value in rows.items()
                    if metric.startswith(("velocity_ds_", "reliability_within_", "assumed_down"))
                    and "-" in metric + value]

    def test_refuses_overwrite(self, capture_dir, capsys):
        assert main(["analyze", "--in", str(capture_dir)]) == 0
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        assert main(["analyze", "--in", str(capture_dir), "--force"]) == 0

    def test_retransmit_capture_analyzes(self, tmp_path, capsys):
        cfg = tmp_path / "rtx.ini"
        cfg.write_text(CONFIG.replace("jitter_std = 0",
                                      "jitter_std = 0\nloss_prob = 0.02\nretransmit = true"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        ue = [json.loads(line) for line in (out / "ue.ndjson").read_text().splitlines()]
        ranges = [(d["seq"], d["len"]) for d in ue
                  if d["dir"] == "UPLINK" and d["proto"] == "STREAM" and d["len"] > 0]
        assert len(set(ranges)) < len(ranges)  # the capture holds retransmissions
        assert main(["analyze", "--in", str(out)]) == 0, capsys.readouterr().err

    def test_perturbed_timestamp_ends_in_report_or_error(self, capture_dir, capsys):
        # Move the last data segment of a mid-stream frame 1 s earlier, so it
        # precedes its frame's first segment.
        ue = capture_dir / "ue.ndjson"
        records = [json.loads(line) for line in ue.read_text().splitlines()]
        boundaries = [i for i, d in enumerate(records)
                      if d["tap"] == "UE" and d["marker"] == "FRAME_BOUNDARY"]
        last = max(i for i in range(boundaries[5]) if records[i]["dir"] == "UPLINK"
                   and records[i]["len"] > 0 and records[i]["marker"] == "NONE")
        records[last]["t_us"] -= 1_000_000
        ue.write_text("".join(json.dumps(d, separators=(",", ":")) + "\n" for d in records))
        code = main(["analyze", "--in", str(capture_dir)])
        assert code == 0 or (code == 1 and capsys.readouterr().err.startswith("error:"))

    def test_negative_frame_owd_is_an_error(self, tmp_path, capsys):
        # a UE clock 60 ms ahead and no NTP trace to correct it
        cfg = tmp_path / "skewed.ini"
        cfg.write_text(CONFIG.replace("sigma_ue_ms = 0", "sigma_ue_ms = 0\noffset_ue_ms = 60"))
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        (out / "ntp.ndjson").unlink()
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 1
        assert "frame OWD is negative" in one_line_error(capsys)
        assert not (out / "report.csv").exists()

    def test_zero_service_response_time_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "zero.ini"
        cfg.write_text(ZERO_DELAY)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out), "--processing-ms", "0",
                     "--owd-down-ms", "0"]) == 1
        assert "service response time is 0 ms" in one_line_error(capsys)
        for name in ("samples.ndjson", "report.csv", "report.ndjson"):
            assert not (out / name).exists()


class TestSweep:
    @pytest.fixture
    def sweep_dir(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--seed", "5",
                     "--out", str(out)]) == 0
        return out

    def test_box_plot_of_a_sweep_dir(self, sweep_dir, tmp_path):
        # one box per scenario directory, labelled by it, in name order
        out = tmp_path / "box.txt"
        assert main(["plot", "--kind", "box", "--in", str(sweep_dir), "--ascii",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[:-1]
        assert [row.split()[0] for row in rows] == [
            "4g_national", "4g_regional", "5g_edge", "5g_national", "5g_regional"]
        assert all(row.count("|") == 1 for row in rows)

    def test_five_scenario_rows(self, sweep_dir):
        rows = read_csv(sweep_dir / "comparison.csv")
        assert len(rows) == 5
        assert [r["scenario"] for r in rows] == [
            "5g_edge", "5g_regional", "5g_national", "4g_regional", "4g_national"]

    def test_velocity_column_populated(self, sweep_dir):
        rows = read_csv(sweep_dir / "comparison.csv")
        velocities = [float(r["velocity_kmh"]) for r in rows]
        assert all(v > 0 for v in velocities)
        # faster scenarios allow higher speeds
        assert velocities == sorted(velocities, reverse=True)

    def test_velocity_derived_from_p95_response_time(self, sweep_dir):
        # v = distance / response time for 1 m: 3600 / t_ms, with the response
        # time built from the frame OWD at the 95th percentile
        for row in read_csv(sweep_dir / "comparison.csv"):
            srt = float(row["e2e_srt_p95_ms"])
            assert srt == pytest.approx(float(row["owd_frame_p95_ms"]) + 20.3 + 5.0, abs=1e-4)
            assert float(row["velocity_kmh"]) == pytest.approx(3600.0 / srt, abs=1e-3)

    def test_percentile_columns_follow_reliability_p(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--reliability-p", "0.5"]) == 0
        rows = read_csv(out / "comparison.csv")
        assert list(rows[0]) == ["scenario", "tech", "range", "ctrl_median_ms",
                                 "stream_packet_median_ms", "stream_frame_median_ms",
                                 "owd_frame_p50_ms", "e2e_srt_p50_ms", "velocity_kmh"]
        for row in rows:
            report = {r["metric"]: r["value"]
                      for r in read_csv(out / row["scenario"] / "report.csv")}
            assert row["owd_frame_p50_ms"] == report["latency_at_p50"] != ""
            assert row["e2e_srt_p50_ms"] == report["e2e_srt_p50"] != ""

    def test_velocity_column_uses_first_distance(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--out", str(out),
                     "--distance-m", "5", "--distance-m", "2"]) == 0
        for row in read_csv(out / "comparison.csv"):
            report = {r["metric"]: r["value"]
                      for r in read_csv(out / row["scenario"] / "report.csv")}
            assert row["velocity_kmh"] == report["velocity_ds_5.0m"] != ""

    def test_median_ordering_within_each_tech(self, sweep_dir):
        rows = {r["scenario"]: r for r in read_csv(sweep_dir / "comparison.csv")}
        for cls in ("ctrl_median_ms", "stream_packet_median_ms", "stream_frame_median_ms"):
            assert (float(rows["5g_edge"][cls]) < float(rows["5g_regional"][cls])
                    < float(rows["5g_national"][cls]))
            assert float(rows["4g_regional"][cls]) < float(rows["4g_national"][cls])

    def test_per_scenario_outputs_written(self, sweep_dir):
        for label in ("5g_edge", "4g_national"):
            for name in ("ue.ndjson", "report.csv", "samples.ndjson", "manifest.ini"):
                assert (sweep_dir / label / name).exists()

    def test_progress_lines_in_scenario_order(self, tmp_path, config_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[1/5] 5g_edge: done",
            "[2/5] 5g_regional: done",
            "[3/5] 5g_national: done",
            "[4/5] 4g_regional: done",
            "[5/5] 4g_national: done",
            f"sweep complete: {out / 'comparison.csv'}",
        ]

    @pytest.mark.parametrize("scenario, name", [("4g_national", "ue.ndjson"),
                                                ("5g_edge", "report.csv")])
    def test_refuses_overwrite_before_any_scenario_runs(self, tmp_path, config_path, capsys,
                                                        scenario, name):
        out = tmp_path / "sweep"
        existing = out / scenario / name
        existing.parent.mkdir(parents=True)
        existing.write_text("")
        assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 1
        err = one_line_error(capsys)
        assert "overwrite" in err and str(existing) in err
        assert [p.name for p in out.iterdir()] == [scenario]
        assert [p.name for p in existing.parent.iterdir()] == [name]

    def test_out_is_an_existing_file(self, tmp_path, config_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 1
        assert str(out) in one_line_error(capsys)

    def test_scenario_dir_is_an_existing_file(self, tmp_path, config_path, capsys):
        # the error is raised in a pool worker and reported by the parent
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "5g_edge").write_text("")
        assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 1
        assert str(out / "5g_edge") in one_line_error(capsys)
        assert not (out / "comparison.csv").exists()


def _dies_on_5g_regional(run_cfg, outdir, *args):
    """``_sweep_scenario``, but the worker running 5g_regional dies at once."""
    if outdir.name == "5g_regional":
        os._exit(1)
    return _sweep_scenario(run_cfg, outdir, *args)


class TestFailedSweep:
    ZERO_FLAGS = ["--processing-ms", "0", "--owd-down-ms", "0"]

    @pytest.fixture
    def zero_config(self, tmp_path):
        path = tmp_path / "zero.ini"
        path.write_text(ZERO_DELAY)
        return path

    def tree(self, root: Path) -> list[str]:
        return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))

    def test_leaves_nothing_it_created(self, tmp_path, zero_config, capsys):
        out = tmp_path / "new" / "sweep"
        assert main(["sweep", "--config", str(zero_config), "--out", str(out),
                     *self.ZERO_FLAGS]) == 1
        assert "service response time is 0 ms" in one_line_error(capsys)
        assert self.tree(tmp_path) == ["zero.ini"]
        # nothing is left to refuse to overwrite
        assert main(["sweep", "--config", str(zero_config), "--out", str(out)]) == 0
        assert (out / "comparison.csv").exists()

    def test_keeps_what_was_there_before(self, tmp_path, zero_config, capsys):
        out = tmp_path / "sweep"
        (out / "5g_national").mkdir(parents=True)
        (out / "notes.txt").write_text("mine")
        (out / "5g_national" / "notes.txt").write_text("mine")
        before = self.tree(out)
        assert main(["sweep", "--config", str(zero_config), "--out", str(out),
                     *self.ZERO_FLAGS]) == 1
        one_line_error(capsys)
        assert self.tree(out) == before
        assert not (out / "comparison.csv").exists()
        assert main(["sweep", "--config", str(zero_config), "--out", str(out)]) == 0

    def test_failed_force_sweep_drops_the_earlier_comparison(self, tmp_path, zero_config,
                                                             capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(GOLDEN / "sweep.ini"), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--config", str(zero_config), "--out", str(out), "--force",
                     *self.ZERO_FLAGS]) == 1
        assert "service response time is 0 ms" in one_line_error(capsys)
        assert not (out / "comparison.csv").exists()

    def test_dead_worker_ends_in_one_error_line(self, tmp_path, zero_config, capsys,
                                                monkeypatch):
        import edgekpi.cli as cli_mod
        monkeypatch.setattr(cli_mod, "_sweep_scenario", _dies_on_5g_regional)
        out = tmp_path / "new" / "sweep"
        assert main(["sweep", "--config", str(zero_config), "--out", str(out)]) == 1
        err = one_line_error(capsys)
        assert "did not finish: a worker process ended abruptly" in err
        assert "Traceback" not in err
        assert self.tree(tmp_path) == ["zero.ini"]


class TestSweepCollector:
    # The sweep's workers run with the cyclic collector off. That is safe
    # because a scenario leaves no cyclic garbage for it to find.
    @pytest.mark.parametrize("case, seed, flags", [
        ("default", 42, []),
        ("retransmit", 3, []),
        ("lossy", 5, ["--frame-owd", "first-first", "--alpha", "0.25"]),
    ])
    def test_scenario_builds_no_reference_cycles(self, tmp_path, case, seed, flags):
        cfg, opts = _analysis_options(
            _build_parser().parse_args(["sweep", "--config", "-", "--out", "-", *flags]))
        run_cfg = parse_config(GOLDEN / f"{case}.ini").to_run(seed)
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            _sweep_scenario(run_cfg, tmp_path / case, cfg, opts, False)
            unreachable = gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert unreachable == 0, garbage[:10]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_sweep_leaves_the_callers_collector_as_found(self, tmp_path, config_path, enabled):
        was_enabled = gc.isenabled()
        gc.enable() if enabled else gc.disable()
        frozen = gc.get_freeze_count()
        try:
            assert main(["sweep", "--config", str(config_path), "--out",
                         str(tmp_path / "sweep")]) == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            gc.enable() if was_enabled else gc.disable()


def assert_names_flag(err: str, flag: str, field: str) -> None:
    assert err.startswith(f"error: bad analysis option: {flag} "), err
    assert field not in err.replace(flag, ""), err


class TestBadAnalysisFlags:
    # (flags, the option field the flag sets); the error names the flag only
    FLAGS = [
        (["--alpha", "2"], "alpha"),
        (["--alpha", "nan"], "alpha"),
        (["--reliability-p", "0"], "reliability_percentile"),
        (["--reliability-p", "1.5"], "reliability_percentile"),
        (["--distance-m", "-1"], "distances_m"),
        (["--processing-ms", "-5"], "processing_ms"),
        (["--owd-down-ms", "nan"], "owd_down_assumed_ms"),
        (["--bound-ms", "nan"], "reliability_bound_ms"),
        (["--bound-ms", "-5"], "reliability_bound_ms"),
    ]

    @pytest.mark.parametrize("flags, field", FLAGS)
    def test_analyze_exits_1_and_writes_nothing(self, tmp_path, config_path, capsys,
                                                flags, field):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--seed", "3", "--out", str(out)])
        capsys.readouterr()
        assert main(["analyze", "--in", str(out), *flags]) == 1
        assert_names_flag(one_line_error(capsys), flags[0], field)
        assert not (out / "samples.ndjson").exists() and not (out / "report.csv").exists()

    @pytest.mark.parametrize("flags, field", FLAGS)
    def test_sweep_exits_1_before_any_scenario(self, tmp_path, config_path, capsys,
                                               flags, field):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_path), "--out", str(out), *flags]) == 1
        assert_names_flag(one_line_error(capsys), flags[0], field)
        assert not out.exists()


def write_wide_samples(path: Path) -> Path:
    """OWD-frame samples whose span, 3.4e308, is past the float range."""
    path.write_text("".join(json.dumps({"class": "OWD-frame", "idx": i, "value_ms": v}) + "\n"
                            for i, v in enumerate([-1.7e308, 0.0, 1.7e308])))
    return path


class TestPlot:
    @pytest.fixture
    def analyzed_dir(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--seed", "6", "--out", str(out)])
        main(["analyze", "--in", str(out)])
        return out

    @pytest.fixture(params=["emulated", "wide"])
    def samples(self, request, tmp_path):
        """An emulated run's samples.ndjson, or the wide samples."""
        if request.param == "emulated":
            return request.getfixturevalue("analyzed_dir") / "samples.ndjson"
        return write_wide_samples(tmp_path / "wide.ndjson")

    def test_cdf_polyline_monotone_and_complete(self, samples, tmp_path):
        out = tmp_path / "cdf.svg"
        assert main(["plot", "--kind", "cdf", "--in", str(samples), "--out", str(out)]) == 0
        svg = out.read_text()
        match = re.search(r'<polyline points="([^"]+)"', svg)
        assert match
        points = [tuple(map(float, p.split(","))) for p in match.group(1).split()]
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert all(60 <= x <= 580 for x in xs) and all(60 <= y <= 340 for y in ys), points
        assert xs == sorted(xs)                  # monotone in x
        assert all(b <= a + 1e-6 for a, b in zip(ys, ys[1:]))  # non-decreasing probability
        assert "reliability 95%" in svg

    def test_cdf_ascii(self, samples, tmp_path):
        out = tmp_path / "cdf.txt"
        assert main(["plot", "--kind", "cdf", "--in", str(samples), "--out", str(out),
                     "--ascii"]) == 0
        text = out.read_text()
        assert "*" in text and "reliability" in text
        # the first column is at the lowest sample: the curve starts at its ECDF
        values = [json.loads(line)["value_ms"] for line in samples.read_text().splitlines()
                  if json.loads(line)["class"] == "OWD-frame"]
        first = values.count(min(values)) / len(values)
        assert [row[0] for row in text.splitlines()[:16]].index("*") == 15 - round(first * 15)

    def test_box_single_scenario(self, samples, tmp_path):
        out = tmp_path / "box.svg"
        assert main(["plot", "--kind", "box", "--in", str(samples), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<rect") >= 2  # background + at least one box
        coords = [float(value) for el in ET.parse(out).iter() for name, value in el.attrib.items()
                  if name in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "height")]
        assert all(0 <= v <= 640 for v in coords), coords

    def test_box_ascii(self, samples, tmp_path):
        out = tmp_path / "box.txt"
        assert main(["plot", "--kind", "box", "--in", str(samples), "--out", str(out),
                     "--ascii"]) == 0
        rows = out.read_text().splitlines()[:-1]
        assert rows and all(row.count("|") == 1 for row in rows)  # one median per class

    @pytest.mark.parametrize("ascii_flag", [[], ["--ascii"]], ids=["svg", "ascii"])
    @pytest.mark.parametrize("level", ["nan", "-1", "inf", "2", "0"])
    def test_reliability_outside_the_unit_interval(self, tmp_path, capsys, level, ascii_flag):
        samples = write_wide_samples(tmp_path / "wide.ndjson")
        out = tmp_path / "cdf.out"
        assert main(["plot", "--kind", "cdf", "--in", str(samples), "--reliability", level,
                     "--out", str(out), *ascii_flag]) == 1
        assert one_line_error(capsys).startswith("error: --reliability must be in (0, 1], got ")
        assert not out.exists()

    def test_throughput_threshold_lines(self, tmp_path):
        out = tmp_path / "tp.svg"
        assert main(["plot", "--kind", "throughput", "--defaults", "--out", str(out)]) == 0
        svg = out.read_text()
        assert "32.2 Mbit/s" in svg and "54.6 Mbit/s" in svg
        assert len(re.findall(r'stroke="crimson"', svg)) == 2
        assert svg.count("<rect") == 7  # background + six encoder/resolution bars

    def test_throughput_from_report(self, analyzed_dir, tmp_path):
        out = tmp_path / "tp2.svg"
        assert main(["plot", "--kind", "throughput",
                     "--in", str(analyzed_dir / "report.ndjson"), "--out", str(out)]) == 0
        assert "32.2 Mbit/s" in out.read_text()

    @pytest.mark.parametrize("ascii_flag", [[], ["--ascii"]], ids=["svg", "ascii"])
    def test_throughput_near_the_float_limit(self, tmp_path, ascii_flag):
        report, out = tmp_path / "report.ndjson", tmp_path / "tp.out"
        report.write_text("".join(json.dumps({"scenario": name, "metric": "demanded_throughput",
                                              "value": value}) + "\n"
                                  for name, value in (("huge", 1.7e308), ("VGA", 19.2))))
        assert main(["plot", "--kind", "throughput", "--in", str(report), "--out", str(out),
                     *ascii_flag]) == 0
        if ascii_flag:
            assert "#" in out.read_text()
        else:
            heights = [float(el.get("height")) for el in ET.parse(out).iter()
                       if el.get("fill") == "darkseagreen"]
            assert len(heights) == 2 and max(heights) > 0

    def test_throughput_missing_report(self, tmp_path, capsys):
        missing = tmp_path / "missing.ndjson"
        assert main(["plot", "--kind", "throughput", "--in", str(missing),
                     "--out", str(tmp_path / "tp.svg")]) == 1
        assert str(missing) in one_line_error(capsys)

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.svg"
        assert main(["plot", "--kind", "throughput", "--defaults", "--out", str(out)]) == 1
        assert str(out) in one_line_error(capsys)

    @pytest.mark.parametrize("line, why", [
        ("not json", "Expecting value"),
        ('{"metric":"demanded_throughput","scenario":"x"}', "missing field 'value'"),
        ('{"metric":"demanded_throughput","value":"fast"}', "value must be a finite number, got 'fast'"),
        ("[1, 2]", "has no attribute"),
        ('{"metric":"demanded_throughput","value":NaN}', "value must be a finite number, got nan"),
        ('{"metric":"demanded_throughput","value":-Infinity}',
         "value must be a finite number, got -inf"),
        ('{"metric":"demanded_throughput","value":1e999}', "value must be a finite number, got inf"),
        ('{"metric":"demanded_throughput","value":true}', "value must be a finite number, got True"),
        pytest.param('{"metric":"demanded_throughput","value":1' + "0" * 400 + "}",
                     "value must be a finite number, got 1" + "0" * 400,
                     id="400-digit value-too large"),
        ('{"metric":"demanded_throughput","scenario":[1,2],"value":1.0}',
         "scenario [1, 2] is not a string"),
        ('{"metric":"demanded_throughput","value":-5.0}', "value must be >= 0, got -5.0"),
    ])
    def test_throughput_bad_report_line(self, analyzed_dir, tmp_path, capsys, line, why):
        report = analyzed_dir / "report.ndjson"
        lines = report.read_text().splitlines()
        lines.insert(2, line)
        report.write_text("\n".join(lines) + "\n")
        assert main(["plot", "--kind", "throughput", "--in", str(report),
                     "--out", str(tmp_path / "tp.svg")]) == 1
        err = one_line_error(capsys)
        assert f"{report}: line 3: bad report record: " in err and why in err

    @pytest.mark.parametrize("ascii_flag", [[], ["--ascii"]], ids=["svg", "ascii"])
    def test_throughput_negative_zero_reads_zero(self, tmp_path, ascii_flag):
        report, out = tmp_path / "report.ndjson", tmp_path / "tp.out"
        report.write_text('{"scenario":"a","metric":"demanded_throughput","value":-0.0}\n')
        assert main(["plot", "--kind", "throughput", "--in", str(report), "--out", str(out),
                     *ascii_flag]) == 0
        if ascii_flag:
            assert out.read_text().splitlines()[0].split() == ["a", "0.0"]
        else:
            texts = [el.text for el in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
            assert "0.0" in texts and "-0.0" not in texts

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "cdf"], "--in is required for cdf plots"),
        (["--kind", "box"], "--in is required for box plots"),
        (["--kind", "cdf", "--in", "{tmp}/absent.ndjson"],
         "samples file not found: {tmp}/absent.ndjson"),
        (["--kind", "box", "--in", "{tmp}/absent.ndjson"],
         "samples file not found: {tmp}/absent.ndjson"),
        (["--kind", "box", "--in", "{tmp}"], "no samples found for box plot"),
        (["--kind", "throughput"],
         "--in (a report.ndjson) or --defaults is required for throughput plots"),
        (["--kind", "throughput", "--in", "{tmp}/report.ndjson"],
         "report contains no demanded_throughput rows"),
    ], ids=["cdf-no-in", "box-no-in", "cdf-no-file", "box-no-file", "box-dir-without-samples",
            "throughput-no-in", "throughput-no-demand"])
    def test_missing_input_is_an_error(self, tmp_path, capsys, argv, message):
        # a directory with no scenario samples, holding a report without a
        # demanded_throughput row
        (tmp_path / "report.ndjson").write_text('{"metric":"availability","value":100.0}\n')
        out = tmp_path / "plot.out"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(["plot", *argv, "--out", str(out)]) == 1
        assert one_line_error(capsys) == f"error: {message.format(tmp=tmp_path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["cdf", "box"])
    @pytest.mark.parametrize("line, why", [
        ('{"class":5,"idx":0,"value_ms":1.0}', "class 5 is not a string"),
        ('{"class":null,"idx":0,"value_ms":1.0}', "class None is not a string"),
        ('{"class":"OWD-frame","idx":0,"value_ms":NaN}', "value_ms must be a finite number, got nan"),
        ('{"class":"OWD-frame","idx":0,"value_ms":Infinity}',
         "value_ms must be a finite number, got inf"),
        ('{"class":"OWD-frame","idx":0,"value_ms":true}',
         "value_ms must be a finite number, got True"),
        ('{"class":"OWD-frame","idx":0,"value_ms":"5"}',
         "value_ms must be a finite number, got '5'"),
        ('{"class":"OWD-frame","idx":0}', "missing field 'value_ms'"),
    ])
    def test_bad_sample_line(self, analyzed_dir, tmp_path, capsys, kind, line, why):
        samples = analyzed_dir / "samples.ndjson"
        lines = samples.read_text().splitlines()
        lines.insert(2, line)
        samples.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"{kind}.svg"
        assert main(["plot", "--kind", kind, "--in", str(samples), "--out", str(out)]) == 1
        err = one_line_error(capsys)
        assert f"{samples}: line 3: bad sample record: " in err and why in err
        assert not out.exists()

    def test_deeply_nested_sample_line(self, analyzed_dir, tmp_path, capsys):
        samples = analyzed_dir / "samples.ndjson"
        lines = samples.read_text().splitlines()
        lines[1] = "[" * 100_000 + "]" * 100_000
        samples.write_text("\n".join(lines) + "\n")
        assert main(["plot", "--kind", "cdf", "--in", str(samples),
                     "--out", str(tmp_path / "cdf.svg")]) == 1
        assert one_line_error(capsys).startswith(
            f"error: {samples}: line 2: bad sample record: maximum recursion depth exceeded")

    def test_svg_of_markup_labels_parses(self, tmp_path):
        label = "<b>x&y</b>"
        samples, report = tmp_path / "samples.ndjson", tmp_path / "report.ndjson"
        samples.write_text("".join(json.dumps({"class": label, "idx": i, "value_ms": v}) + "\n"
                                   for i, v in enumerate([1.0, 2.0, 4.0])))
        report.write_text(json.dumps({"scenario": label, "metric": "demanded_throughput",
                                      "value": 19.2}) + "\n")
        for kind, path in (("cdf", samples), ("box", samples), ("throughput", report)):
            out = tmp_path / f"{kind}.svg"
            assert main(["plot", "--kind", kind, "--in", str(path), "--sample-class", label,
                         "--out", str(out)]) == 0
            svg_texts = ET.parse(out).iter("{http://www.w3.org/2000/svg}text")
            texts = [el.text or "" for el in svg_texts]
            assert any(label in text for text in texts), (kind, texts)

    def test_unknown_kind_usage_error(self, analyzed_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--kind", "pie", "--in", str(analyzed_dir / "samples.ndjson"),
                  "--out", str(tmp_path / "x.svg")])
        assert exc.value.code == 1

    def test_missing_class_reports_available(self, analyzed_dir, tmp_path, capsys):
        assert main(["plot", "--kind", "cdf", "--in", str(analyzed_dir / "samples.ndjson"),
                     "--sample-class", "NOPE", "--out", str(tmp_path / "x.svg")]) == 1
        assert "available" in capsys.readouterr().err


class TestSelftest:
    def test_pristine_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_misconfigured_alpha_detected(self):
        # negative control: a wrong smoothing gain must trip the oracle
        assert check_srtt_recurrence(alpha=0.5).ok is False
        assert check_srtt_recurrence(alpha=0.125).ok is True

    def test_exit_code_two_on_oracle_failure(self, monkeypatch, capsys):
        import edgekpi.cli as cli_mod
        from edgekpi.selftest import CheckResult

        monkeypatch.setattr(cli_mod, "run_selftest",
                            lambda: [CheckResult("rigged", False, "injected failure")])
        assert main(["selftest"]) == 2
        assert "FAIL rigged" in capsys.readouterr().out

    def test_all_results_reported(self):
        results = run_selftest()
        assert [r.name for r in results] == [
            "delay-recovery", "srtt-recurrence", "percentile-order-statistics",
            "error-propagation", "velocity-roundtrip"]
        assert all(r.ok for r in results)


class TestUsage:
    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
