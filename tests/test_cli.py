"""CLI subcommands: simulate, analyze, sweep, plot, selftest."""

import csv
import gc
import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from edgekpi.cli import _analysis_options, _build_parser, _sweep_scenario, main
from edgekpi.config import parse_config
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
        ("duration_s = 1", "duration_s = inf", "video_duration_s"),
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
    ], ids=["mss-zero", "mss-negative", "bulk-rate-negative", "bad-boolean", "bad-integer",
            "video-duration-negative", "bulk-duration-negative", "default-section",
            "empty-default-section"])
    def test_exits_1_with_one_line_and_writes_nothing(self, tmp_path, capsys, command,
                                                      config, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("value", ["NaN", "Infinity", '"nan"', '"5"', "true"])
    def test_non_finite_ntp_offset_is_an_error(self, capture_dir, capsys, value):
        ntp_path = capture_dir / "ntp.ndjson"
        lines = ntp_path.read_text().splitlines()
        lines[1] = re.sub(r'"offset_ms":[^,}]+', f'"offset_ms":{value}', lines[1])
        ntp_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        err = one_line_error(capsys)
        assert err.startswith(f"error: {ntp_path}: line 2: bad ntp sample: "
                              "offset_ms must be a finite number"), err
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
        ("t_us", "-277.5"), ("t_us", "1e3"), ("pid", '"5"'), ("seq", "true")])
    def test_integer_field_must_be_a_json_integer(self, capture_dir, capsys, field, value):
        ue = capture_dir / "ue.ndjson"
        lines = ue.read_text().splitlines()
        lines[2] = re.sub(rf'"{field}":[^,}}]+', f'"{field}":{value}', lines[2])
        ue.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--in", str(capture_dir)]) == 1
        shown = repr(json.loads(value))
        assert one_line_error(capsys) == (
            f"error: {ue}: line 3: bad capture record: {field}: not an integer: {shown}\n")

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


def _dies_on_5g_regional(label, *args):
    """``_sweep_scenario``, but the worker running 5g_regional dies at once."""
    if label == "5g_regional":
        os._exit(1)
    return _sweep_scenario(label, *args)


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
        ("lossy", 5, ["--match", "seq", "--frame-owd", "first-first", "--alpha", "0.25"]),
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
            _sweep_scenario(case, run_cfg, tmp_path / case, cfg, opts, False)
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


class TestPlot:
    @pytest.fixture
    def analyzed_dir(self, tmp_path, config_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(config_path), "--seed", "6", "--out", str(out)])
        main(["analyze", "--in", str(out)])
        return out

    def test_cdf_polyline_monotone_and_complete(self, analyzed_dir, tmp_path):
        out = tmp_path / "cdf.svg"
        assert main(["plot", "--kind", "cdf", "--in", str(analyzed_dir / "samples.ndjson"),
                     "--out", str(out)]) == 0
        svg = out.read_text()
        match = re.search(r'<polyline points="([^"]+)"', svg)
        assert match
        points = [tuple(map(float, p.split(","))) for p in match.group(1).split()]
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)                  # monotone in x
        assert all(b <= a + 1e-6 for a, b in zip(ys, ys[1:]))  # non-decreasing probability
        assert "reliability 95%" in svg

    def test_cdf_ascii(self, analyzed_dir, tmp_path):
        out = tmp_path / "cdf.txt"
        assert main(["plot", "--kind", "cdf", "--in", str(analyzed_dir / "samples.ndjson"),
                     "--out", str(out), "--ascii"]) == 0
        text = out.read_text()
        assert "*" in text and "reliability" in text

    def test_box_single_scenario(self, analyzed_dir, tmp_path):
        out = tmp_path / "box.svg"
        assert main(["plot", "--kind", "box", "--in", str(analyzed_dir / "samples.ndjson"),
                     "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<rect") >= 2  # background + at least one box

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
        ('{"metric":"demanded_throughput","value":"fast"}', "could not convert"),
        ("[1, 2]", "has no attribute"),
    ])
    def test_throughput_bad_report_line(self, analyzed_dir, tmp_path, capsys, line, why):
        report = analyzed_dir / "report.ndjson"
        lines = report.read_text().splitlines()
        lines.insert(2, line)
        report.write_text("\n".join(lines) + "\n")
        assert main(["plot", "--kind", "throughput", "--in", str(report),
                     "--out", str(tmp_path / "tp.svg")]) == 1
        err = one_line_error(capsys)
        assert f"{report} line 3: bad report record: " in err and why in err

    def test_deeply_nested_sample_line(self, analyzed_dir, tmp_path, capsys):
        samples = analyzed_dir / "samples.ndjson"
        lines = samples.read_text().splitlines()
        lines[1] = "[" * 100_000 + "]" * 100_000
        samples.write_text("\n".join(lines) + "\n")
        assert main(["plot", "--kind", "cdf", "--in", str(samples),
                     "--out", str(tmp_path / "cdf.svg")]) == 1
        assert one_line_error(capsys).startswith(
            f"error: {samples} line 2: bad sample record: maximum recursion depth exceeded")

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
