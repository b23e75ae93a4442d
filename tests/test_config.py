"""Config parsing and the manifest round trip."""

import math
import re
from pathlib import Path

import pytest

from edgekpi.config import KEYS, ConfigError, manifest_text, parse_config, write_manifest
from edgekpi.emulator import run
from edgekpi.model import Encoder, RangeBand, Resolution, Tap, Tech, record_to_json


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
[scenario]
tech = FIVE_G
range = EDGE

[workload]
ping_count = 3
"""


FULL = """
[scenario]
tech = 4G
range = NATIONAL
base_owd_up = 25
base_owd_down = 12
jitter_std = 0.5
loss_prob = 0.01
bandwidth_cap = 30
retransmit = true

[clocks]
offset_ue_ms = 1.5
sigma_ue_ms = 0.1
sigma_core_ms = 0.2
sigma_app_ms = 0.3
resync_interval_s = 5

[video]
encoder = H264
resolution = HD
fps = 25
frame_size_cv = 0.2
duration_s = 4

[workload]
ping_interval_ms = 50
ping_count = 10
mss = 1200

[processing]
total_ms = 18
response_bytes = 128

[run]
seed = 77
"""

#: A saturation probe with an offered rate, on an uncapped 4G path.
BULK = """
[scenario]
tech = 4G
range = REGIONAL
bandwidth_cap = unlimited

[workload]
bulk_duration_s = 0.5
bulk_offered_mbps = 80
mss = 1000
"""


def with_line(text, section, line):
    """``text`` with ``line`` in ``[section]``: in place of the line that sets
    the same key, else first in the section, which is added if absent."""
    key = line.partition("=")[0].strip()
    if re.search(rf"^{key} =", text, re.M):
        return re.sub(rf"^{key} =.*$", lambda _: line, text, flags=re.M)
    header = f"[{section}]\n"
    if header in text:
        return text.replace(header, header + line + "\n", 1)
    return f"{text}\n{header}{line}\n"


class TestParse:
    def test_minimal_with_defaults(self, tmp_path):
        parsed = parse_config(write(tmp_path, MINIMAL))
        assert parsed.scenario.tech is Tech.FIVE_G
        assert parsed.scenario.range is RangeBand.EDGE
        assert parsed.scenario.bandwidth_cap == 54.6
        assert parsed.scenario.base_owd_up == 8.0
        assert parsed.clocks.sigmas_ms() == (0.387, 0.317, 0.117)
        assert parsed.processing.total_ms == 20.3
        assert parsed.workload.ping_count == 3
        assert parsed.workload.mss == 1400
        assert parsed.seed is None

    def test_full_config(self, tmp_path):
        parsed = parse_config(write(tmp_path, FULL))
        assert parsed.scenario.tech is Tech.FOUR_G
        assert parsed.scenario.range is RangeBand.NATIONAL
        assert parsed.scenario.retransmit is True
        assert parsed.workload.video.encoder is Encoder.H264
        assert parsed.workload.video.resolution is Resolution.HD
        assert parsed.workload.video.mean_frame_bytes == 85_000  # H264 HD default
        assert parsed.workload.video.duration_s == 4.0
        assert parsed.workload.mss == 1200
        assert parsed.processing.total_ms == 18.0
        assert parsed.seed == 77
        assert parsed.raw_scenario["base_owd_up"] == 25.0

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write(tmp_path, "[scenario]\ntech = 5G\nrange = EDGE\nbogus = 1\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config(write(tmp_path, MINIMAL + "\n[nonsense]\nx = 1\n"))

    def test_bad_enum_names_section_and_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[scenario\] range"):
            parse_config(write(tmp_path, "[scenario]\ntech = 5G\nrange = GALACTIC\n"
                                         "\n[workload]\nping_count = 1\n"))

    def test_edge_on_4g_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="EDGE"):
            parse_config(write(tmp_path, "[scenario]\ntech = 4G\nrange = EDGE\n"
                                         "\n[workload]\nping_count = 1\n"))

    def test_syntax_error_reports_line(self, tmp_path):
        bad = "[scenario\ntech = 5G\n"
        with pytest.raises(ConfigError, match=r"line:? ?1"):
            parse_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.ini")

    def test_missing_scenario_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[scenario\]"):
            parse_config(write(tmp_path, "[workload]\nping_count = 1\n"))

    def test_no_generator_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="workload"):
            parse_config(write(tmp_path, "[scenario]\ntech = 5G\nrange = EDGE\n"))

    def test_infinite_cap(self, tmp_path):
        text = "[scenario]\ntech = 5G\nrange = EDGE\nbandwidth_cap = inf\n\n[workload]\nping_count = 1\n"
        parsed = parse_config(write(tmp_path, text))
        assert math.isinf(parsed.scenario.bandwidth_cap)

    @pytest.mark.parametrize("section, line, message", [
        ("scenario", "retransmit = maybe", "[scenario] retransmit: not a boolean: 'maybe'"),
        ("workload", "ping_count = 1.5", "[workload] ping_count: not an integer: '1.5'"),
        ("clocks", "sigma_ue_ms = fast", "[clocks] sigma_ue_ms: not a number: 'fast'"),
        ("run", "seed = x", "[run] seed: not an integer: 'x'"),
    ])
    def test_bad_value_names_its_section_once(self, tmp_path, section, line, message):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, with_line(MINIMAL, section, line)))
        assert str(err.value) == message

    @pytest.mark.parametrize("section, key, why", [
        ("scenario", "tech", "unknown value ''"),
        ("scenario", "jitter_std", "not a number: ''"),
        ("scenario", "bandwidth_cap", "not a number: ''"),
        ("scenario", "retransmit", "not a boolean: ''"),
        ("clocks", "sigma_ue_ms", "not a number: ''"),
        ("video", "mean_frame_bytes", "not an integer: ''"),
        ("workload", "ping_interval_ms", "not a number: ''"),
        ("processing", "response_bytes", "not an integer: ''"),
    ])
    def test_empty_value_is_an_error(self, tmp_path, section, key, why):
        text = with_line(with_line(MINIMAL, "video", "duration_s = 1"), section, f"{key} =")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert str(err.value).startswith(f"[{section}] {key}: {why}")

    @pytest.mark.parametrize("duration", [None, "0", "-1"])
    @pytest.mark.parametrize("line, message", [
        ("fps = abc", "[video] fps: not a number: 'abc'"),
        ("encoder = VP9", "[video] encoder: unknown value 'VP9' (expected one of H264, MJPEG)"),
    ])
    def test_video_keys_checked_without_a_stream(self, tmp_path, duration, line, message):
        text = with_line(MINIMAL, "video", line)
        if duration is not None:
            text = with_line(text, "video", f"duration_s = {duration}")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert str(err.value) == message

    def test_no_video_stream_without_a_positive_duration(self, tmp_path):
        text = with_line(MINIMAL, "video", "encoder = h264\nduration_s = 0")
        assert parse_config(write(tmp_path, text)).workload.video is None

    def test_aliases_and_case(self, tmp_path):
        text = ("[scenario]\ntech = 4g\nrange = national\n\n"
                "[video]\nencoder = h264\nresolution = hd\nduration_s = 1\n")
        parsed = parse_config(write(tmp_path, text))
        assert parsed.scenario.tech is Tech.FOUR_G
        assert parsed.scenario.range is RangeBand.NATIONAL
        assert parsed.workload.video.encoder is Encoder.H264
        assert parsed.workload.video.resolution is Resolution.HD

    @pytest.mark.parametrize("word", ["inf", "Infinity", "none", "unlimited"])
    def test_cap_words_mean_infinity(self, tmp_path, word):
        text = with_line(BULK, "scenario", f"bandwidth_cap = {word}")
        assert math.isinf(parse_config(write(tmp_path, text)).scenario.bandwidth_cap)

    def test_raw_scenario_holds_the_keys_the_file_set(self, tmp_path):
        parsed = parse_config(write(tmp_path, FULL))
        assert parsed.raw_scenario == {
            "tech": Tech.FOUR_G, "range": RangeBand.NATIONAL, "base_owd_up": 25.0,
            "base_owd_down": 12.0, "jitter_std": 0.5, "loss_prob": 0.01,
            "bandwidth_cap": 30.0, "retransmit": True}
        assert parse_config(write(tmp_path, MINIMAL)).raw_scenario == {
            "tech": Tech.FIVE_G, "range": RangeBand.EDGE}


#: The bases the witnesses below start from: pings alone, with a short
#: video, with a short video on a lossy path, and with a bulk probe.
PINGS = """
[scenario]
tech = FIVE_G
range = REGIONAL

[workload]
ping_count = 3
"""
VIDEO = with_line(PINGS, "video", "duration_s = 0.2")
LOSSY_VIDEO = with_line(VIDEO, "scenario", "loss_prob = 0.05")
BULK_PROBE = with_line(PINGS, "workload", "bulk_duration_s = 0.1")

#: key -> (base config, a valid value other than the base's) such that the
#: two runs differ. Every key of config.KEYS needs one: a key that cannot
#: change a run does not belong in the config.
WITNESSES = {
    "scenario": {"tech": (PINGS, "4G"), "range": (PINGS, "NATIONAL"),
                 "base_owd_up": (PINGS, "12"), "base_owd_down": (PINGS, "7"),
                 "jitter_std": (PINGS, "1"), "loss_prob": (PINGS, "1"),
                 "bandwidth_cap": (VIDEO, "30"), "retransmit": (LOSSY_VIDEO, "true")},
    "clocks": {"offset_ue_ms": (PINGS, "1.5"), "offset_core_ms": (PINGS, "1.5"),
               "offset_app_ms": (PINGS, "1.5"), "sigma_ue_ms": (PINGS, "0.5"),
               "sigma_core_ms": (PINGS, "0.5"), "sigma_app_ms": (PINGS, "0.5"),
               "resync_interval_s": (PINGS, "0.5")},
    "video": {"encoder": (VIDEO, "H264"), "resolution": (VIDEO, "HD"), "fps": (VIDEO, "10"),
              "mean_frame_bytes": (VIDEO, "5000"), "frame_size_cv": (VIDEO, "0.3"),
              "duration_s": (VIDEO, "0.4")},
    "workload": {"ping_interval_ms": (PINGS, "50"), "ping_count": (PINGS, "4"),
                 "mss": (VIDEO, "1000"), "bulk_duration_s": (BULK_PROBE, "0.2"),
                 "bulk_offered_mbps": (BULK_PROBE, "10")},
    "processing": {"total_ms": (VIDEO, "5"), "response_bytes": (VIDEO, "300")},
    "run": {"seed": (VIDEO, "8")},
}


@pytest.mark.parametrize("section, key", [(s, k) for s in KEYS for k in KEYS[s]])
def test_every_key_changes_the_run(tmp_path, section, key):
    if key not in WITNESSES.get(section, {}):
        pytest.fail(f"[{section}] {key} has no witness that it changes a run")
    base, value = WITNESSES[section][key]
    changed = with_line(base, section, f"{key} = {value}")
    assert changed != base
    first = run(parse_config(write(tmp_path, base, "base.ini")).to_run())
    second = run(parse_config(write(tmp_path, changed, "changed.ini")).to_run())
    assert (first.records, first.truth, first.ntp) != (second.records, second.truth, second.ntp)


GOLDEN = Path(__file__).parent / "golden"
#: Real configs whose manifests must round-trip, by name.
ROUND_TRIP = {
    **{f"golden/{p.name}": p.read_text() for p in sorted(GOLDEN.glob("*.ini"))},
    "configs/default.ini": (Path(__file__).parents[1] / "configs" / "default.ini").read_text(),
    "full": FULL,
    "bulk": BULK,
}


class TestManifest:
    @pytest.mark.parametrize("text", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
    def test_round_trip(self, tmp_path, text):
        run_cfg = parse_config(write(tmp_path, text)).to_run()
        manifest = manifest_text(run_cfg)
        reparsed = parse_config(write(tmp_path, manifest, "manifest.ini")).to_run()
        assert reparsed == run_cfg
        assert manifest_text(reparsed) == manifest

    def test_manifest_reparses_to_same_run(self, tmp_path):
        parsed = parse_config(write(tmp_path, MINIMAL))
        run_cfg = parsed.to_run(seed=123)
        manifest = tmp_path / "manifest.ini"
        write_manifest(manifest, run_cfg)
        reparsed = parse_config(manifest).to_run()
        assert reparsed == run_cfg

    def test_manifest_reproduces_run_byte_identically(self, tmp_path):
        text = MINIMAL + "\n[video]\nduration_s = 0.5\nframe_size_cv = 0.15\n"
        run_cfg = parse_config(write(tmp_path, text)).to_run(seed=5)
        manifest = tmp_path / "manifest.ini"
        write_manifest(manifest, run_cfg)
        rerun_cfg = parse_config(manifest).to_run()
        first = run(run_cfg)
        second = run(rerun_cfg)
        for tap in Tap:
            a = [record_to_json(r) for r in first.records[tap]]
            b = [record_to_json(r) for r in second.records[tap]]
            assert a == b

    def test_manifest_makes_defaults_explicit(self, tmp_path):
        run_cfg = parse_config(write(tmp_path, MINIMAL)).to_run(seed=9)
        text = manifest_text(run_cfg)
        assert "bandwidth_cap = 54.6" in text
        assert "base_owd_up = 8.0" in text
        assert "sigma_ue_ms = 0.387" in text
        assert "total_ms = 20.3" in text
        assert "seed = 9" in text
