"""Domain types, capture validation and the NDJSON wire format."""

import json
import math
import random
from pathlib import Path

import pytest

from conftest import rec
from edgekpi import emulator, model
from edgekpi.config import parse_config
from edgekpi.emulator import EmulationRun, Workload
from edgekpi.kpis import ReportOptions
from edgekpi.model import (
    ADDED_OWD_MS,
    NDJSON_BLOCK_LINES,
    CaptureFormatError,
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
    default_mean_frame_bytes,
    read_capture_file,
    read_ntp_file,
    record_from_json,
    record_to_json,
    validate,
    write_capture_file,
    write_ndjson,
    write_ntp_file,
)


def random_record(rng: random.Random) -> CaptureRecord:
    return CaptureRecord(
        tap=rng.choice(list(Tap)),
        t_us=rng.randrange(0, 10**12),
        flow=rng.randrange(0, 8),
        dir=rng.choice(list(Direction)),
        proto=rng.choice(list(Proto)),
        seq=rng.randrange(0, 10**9),
        ack=rng.randrange(0, 10**9),
        payload_len=rng.randrange(1, 65536),
        marker=rng.choice(list(Marker)),
        pid=rng.randrange(0, 10**9),
    )


class TestNdjsonRoundTrip:
    def test_random_records_round_trip(self):
        rng = random.Random(99)
        for _ in range(300):
            record = random_record(rng)
            assert record_from_json(record_to_json(record)) == record

    @pytest.mark.parametrize("n, mixed", [(50, False), (600, True)],
                             ids=["writer-form", "mixed-second-block"])
    def test_file_round_trip(self, tmp_path, n, mixed):
        rng = random.Random(7)
        records = [random_record(rng) for _ in range(n)]
        lines = [record_to_json(r) for r in records]
        if mixed:  # in the second block: blank, padded and spaced-out lines
            lines[300] = " "
            lines[301] = f" \t{lines[301]}  "
            lines[302] = json.dumps(json.loads(lines[302]))
        path = tmp_path / "ue.ndjson"
        write_ndjson(path, lines)
        expected = [record_from_json(line.strip()) for line in lines if not line.isspace()]
        assert read_capture_file(path) == expected
        assert expected == (records[:300] + records[301:] if mixed else records)

    def test_field_names_and_enum_spelling(self):
        line = record_to_json(rec(tap=Tap.CORE, dir=Direction.DOWNLINK, proto=Proto.CTRL,
                                  marker=Marker.FRAME_BOUNDARY, payload_len=9, pid=5))
        assert '"tap":"CORE"' in line
        assert '"dir":"DOWNLINK"' in line
        assert '"proto":"CTRL"' in line
        assert '"marker":"FRAME_BOUNDARY"' in line
        assert '"len":9' in line
        assert '"pid":5' in line

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "ue.ndjson"
        path.write_text(record_to_json(rec()) + "\n{broken\n")
        with pytest.raises(CaptureFormatError, match="line 2"):
            read_capture_file(path)

    def test_missing_field_rejected(self):
        with pytest.raises(CaptureFormatError, match="missing field 't_us'"):
            record_from_json('{"tap":"UE"}')

    def test_unknown_enum_rejected(self, tmp_path):
        path = tmp_path / "ue.ndjson"
        bad = record_to_json(rec()).replace('"UPLINK"', '"SIDEWAYS"')
        path.write_text(record_to_json(rec()) + "\n" + bad + "\n")
        with pytest.raises(CaptureFormatError) as err:
            read_capture_file(path)
        assert str(err.value) == (
            f"{path}: line 2: bad capture record: dir: unknown value 'SIDEWAYS'")
        assert (err.value.path, err.value.lineno) == (path, 2)

    def test_unhashable_enum_value_rejected(self):
        line = record_to_json(rec()).replace('"UE"', '["UE"]')
        with pytest.raises(CaptureFormatError, match=r"tap: unknown value \['UE'\]"):
            record_from_json(line)

    def test_non_integer_field_names_it(self):
        line = record_to_json(rec(seq=5)).replace('"seq":5', '"seq":"five"')
        with pytest.raises(CaptureFormatError) as err:
            record_from_json(line)
        assert str(err.value) == "bad capture record: seq: not an integer: 'five'"

    def test_whitespace_padded_line_accepted(self):
        r = rec(pid=3, t_us=-5)
        assert record_from_json(f" \t{record_to_json(r)}  \r\n") == r

    def test_ntp_file_round_trip(self, tmp_path):
        samples = [NtpSample(0.0, Tap.UE, 0.25), NtpSample(10.0, Tap.APP, -0.5)]
        path = tmp_path / "ntp.ndjson"
        write_ntp_file(path, samples)
        assert read_ntp_file(path) == samples


class TestWriteNdjson:
    def test_no_lines_give_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        write_ndjson(path, iter(()))
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_same_bytes_as_one_write_per_line(self, tmp_path, n):
        rng = random.Random(n)
        lines = [record_to_json(random_record(rng)) for _ in range(n)]
        lines[0] = '{"node":"UE","note":"\u00e9\u4e2d"}'  # not ASCII: written as UTF-8
        blocks, one_by_one = tmp_path / "blocks.ndjson", tmp_path / "lines.ndjson"
        write_ndjson(blocks, iter(lines))
        with open(one_by_one, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        assert blocks.read_bytes() == one_by_one.read_bytes()

    def test_writes_whole_blocks(self, tmp_path, monkeypatch):
        writes = []
        real_open = open

        class Counting:
            def __init__(self, *args, **kwargs):
                self._fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, text):
                writes.append(text.count("\n"))
                return self._fh.write(text)

        monkeypatch.setattr(model, "open", Counting, raising=False)
        write_ndjson(tmp_path / "x.ndjson", map(str, range(2 * NDJSON_BLOCK_LINES + 1)))
        assert writes == [NDJSON_BLOCK_LINES, NDJSON_BLOCK_LINES, 1]


#: A capture line, split where a field ends.
NEXT_LINE = record_to_json(rec(pid=2))
SPLIT_AT = NEXT_LINE.index(',"dir"')


class TestDecodeRejects:
    """Damaged lines end with the message and line number json.loads gives,
    wherever they sit in the blocks the reader takes."""

    @pytest.mark.parametrize("at", [2, NDJSON_BLOCK_LINES, NDJSON_BLOCK_LINES + 1,
                                    2 * NDJSON_BLOCK_LINES + 1, 600])
    @pytest.mark.parametrize("damaged, message", [
        (f"{NEXT_LINE[:SPLIT_AT]}\n{NEXT_LINE[SPLIT_AT:]}", "invalid JSON: Expecting ',' delimiter"),
        (NEXT_LINE + NEXT_LINE, "invalid JSON: Extra data"),
        (NEXT_LINE + " garbage", "invalid JSON: Extra data"),
        ("\ufeff" + NEXT_LINE, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("[1, 2]", "record is not an object"),
    ], ids=["split-over-two-lines", "two-records-on-one-line", "trailing-garbage", "bom",
            "not-an-object"])
    def test_rejected_at_its_line(self, tmp_path, damaged, message, at):
        """Line ``at`` of a 600-line file is damaged; the others are in writer form."""
        lines = [record_to_json(rec(pid=k)) for k in range(1, 601)]
        lines[at - 1] = damaged
        path = tmp_path / "ue.ndjson"
        write_ndjson(path, lines)
        with pytest.raises(CaptureFormatError) as err:
            read_capture_file(path)
        assert str(err.value) == f"{path}: line {at}: {message}"
        assert (err.value.path, err.value.lineno) == (path, at)


def old_record_json(r: CaptureRecord) -> str:
    """The capture line as json.dumps wrote it before the direct encoder."""
    return json.dumps({
        "tap": r.tap.value, "t_us": r.t_us, "flow": r.flow, "dir": r.dir.value,
        "proto": r.proto.value, "seq": r.seq, "ack": r.ack, "len": r.payload_len,
        "marker": r.marker.value, "pid": r.pid,
    }, separators=(",", ":"))


def old_truth_packet_json(p) -> str:
    return json.dumps({
        "kind": "packet", "pid": p.pid, "flow": p.flow, "dir": p.dir.value,
        "proto": p.proto.value, "seq": p.seq, "len": p.payload_len,
        "t_ue_us": p.t_ue_us, "t_core_us": p.t_core_us, "t_app_us": p.t_app_us,
        "delivered": p.delivered,
    }, separators=(",", ":"))


def codec_run(retransmit: bool) -> EmulationRun:
    """The default video + pings scenario, 2 s long, optionally lossy with
    retransmission; default clocks give negative and noisy stamps."""
    scenario = Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE,
                        jitter_std=1.0 if retransmit else 0.0,
                        loss_prob=0.02 if retransmit else 0.0, retransmit=retransmit)
    return EmulationRun(
        scenario=scenario,
        workload=Workload(ping_count=20, video=VideoConfig(duration_s=2.0)),
        clocks=ClockModel(offset_ue_ms=-3.5, offset_app_ms=2.25),
        seed=1)


class TestCodecBytes:
    @pytest.mark.parametrize("retransmit", [False, True])
    def test_encoder_matches_json_dumps_on_emulated_records(self, retransmit):
        result = emulator.run(codec_run(retransmit))
        records = [r for tap in Tap for r in result.records[tap]]
        assert any(r.t_us < 0 for r in records)
        for r in records:
            assert record_to_json(r) == old_record_json(r)

    def test_encoder_matches_json_dumps_on_edge_ints(self):
        edge = [rec(t_us=-1, pid=2**53 + 1), rec(t_us=-(2**40), seq=2**63 - 1, ack=-(2**63), pid=0),
                rec(t_us=0, flow=-7, payload_len=0, pid=10**18 - 1)]
        for r in edge:
            line = record_to_json(r)
            assert line == old_record_json(r)
            assert record_from_json(line) == r

    @pytest.mark.parametrize("field, value", [
        ("seq", 2**63), ("ack", 2**64 + 3), ("pid", 10**30), ("t_us", -(2**63) - 1)])
    def test_decoder_rejects_integers_past_64_bits(self, field, value):
        r = rec(pid=1)._replace(**{field: value})
        line = record_to_json(r)
        assert line == old_record_json(r)
        with pytest.raises(CaptureFormatError) as err:
            record_from_json(line)
        assert str(err.value) == f"bad capture record: {field}: not a 64-bit integer: {value}"

    @pytest.mark.parametrize("case, seed", [("default", 42), ("retransmit", 3)])
    def test_writer_lines_decode_without_json_loads(self, tmp_path, monkeypatch, case, seed):
        run_cfg = parse_config(Path(__file__).parent / "golden" / f"{case}.ini").to_run(seed)
        result = emulator.run(run_cfg)
        for tap in Tap:
            write_capture_file(tmp_path / f"{tap.value}.ndjson", result.records[tap])

        def refuse(name):
            def refused(*args, **kwargs):
                raise AssertionError(f"a writer-form line reached {name}")
            return refused

        # a block of writer-form lines decodes whole, never line by line
        monkeypatch.setattr(json, "loads", refuse("json.loads"))
        monkeypatch.setattr(model, "record_from_json", refuse("record_from_json"))
        for tap in Tap:
            assert read_capture_file(tmp_path / f"{tap.value}.ndjson") == result.records[tap]

    def test_truth_packet_lines_match_json_dumps(self, tmp_path):
        result = emulator.run(codec_run(retransmit=True))
        packets = result.truth.packets
        assert any(p.t_app_us is None for p in packets)
        assert {p.delivered for p in packets} == {True, False}
        path = tmp_path / "truth.ndjson"
        emulator.write_truth_file(path, result.truth)
        lines = path.read_text().splitlines()
        assert lines[:len(packets)] == [old_truth_packet_json(p) for p in packets]
        assert len(lines) == len(packets) + len(result.truth.frames)


class TestDecodedIntegersShared:
    @pytest.fixture(scope="class")
    def capture_paths(self, tmp_path_factory):
        """The captures of the golden ``retransmit`` run."""
        out = tmp_path_factory.mktemp("retransmit")
        run_cfg = parse_config(Path(__file__).parent / "golden" / "retransmit.ini").to_run(3)
        result = emulator.run(run_cfg)
        paths = {tap: out / f"{tap.value}.ndjson" for tap in Tap}
        for tap, path in paths.items():
            write_capture_file(path, result.records[tap])
        return paths

    @pytest.mark.parametrize("tap", list(Tap))
    def test_one_object_per_value_in_a_file(self, capture_paths, tap):
        records = read_capture_file(capture_paths[tap])
        for field in ("t_us", "flow", "seq", "ack", "payload_len"):
            values = [getattr(r, field) for r in records]
            assert len({id(v) for v in values}) == len(set(values)), field

    def test_nothing_shared_between_reads(self, capture_paths):
        first, second = (read_capture_file(capture_paths[Tap.UE]) for _ in range(2))
        assert first == second
        big = [i for i, r in enumerate(first) if r.t_us > 256]  # past CPython's small ints
        assert big and all(first[i].t_us is not second[i].t_us for i in big)


class TestCaptureRecordValue:
    def test_frozen(self):
        with pytest.raises(AttributeError):
            rec().t_us = 5

    def test_equal_and_hashable(self):
        a, b = rec(pid=3, t_us=9), rec(pid=3, t_us=9)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, rec(pid=4)}) == 2

    def test_slotted(self):
        assert not hasattr(rec(), "__dict__")

    def test_is_a_tuple_of_its_fields(self):
        r = rec(pid=7, t_us=9)
        assert r == tuple(getattr(r, name) for name in CaptureRecord._fields)
        assert r._replace(t_us=10) == rec(pid=7, t_us=10)


class TestFiniteConfig:
    FIELDS = [
        (ClockModel, {}, name) for name in (
            "offset_ue_ms", "offset_core_ms", "offset_app_ms",
            "sigma_ue_ms", "sigma_core_ms", "sigma_app_ms", "resync_interval_s")
    ] + [
        (ReportOptions, {}, "processing_ms"),
    ] + [
        (Scenario, {"tech": Tech.FIVE_G, "range": RangeBand.EDGE}, name) for name in (
            "base_owd_up", "base_owd_down", "jitter_std", "loss_prob")
    ] + [
        (VideoConfig, {}, name) for name in ("fps", "frame_size_cv", "duration_s")
    ] + [
        (ProcessingModel, {}, "total_ms"),
    ] + [
        (Workload, {"ping_count": 1}, name) for name in (
            "ping_interval_ms", "bulk_duration_s", "bulk_offered_mbps")
    ] + [
        (NtpSample, {"node": Tap.UE, "offset_ms": 0.0}, "t_s"),
        (NtpSample, {"t_s": 0.0, "node": Tap.UE}, "offset_ms"),
    ]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, base, name", FIELDS)
    def test_non_finite_rejected(self, cls, base, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite number"):
            cls(**base, **{name: value})

    def test_bandwidth_cap_inf_means_no_cap(self):
        assert math.isinf(Scenario(Tech.FIVE_G, RangeBand.EDGE, bandwidth_cap=math.inf).bandwidth_cap)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_bandwidth_cap_nan_and_negative_inf_rejected(self, value):
        with pytest.raises(ValueError, match="bandwidth_cap"):
            Scenario(Tech.FIVE_G, RangeBand.EDGE, bandwidth_cap=value)


class TestValidate:
    def test_empty_stream_valid(self):
        assert validate([]).ok

    def test_single_record_valid(self):
        assert validate([rec()]).ok

    def test_duplicate_pid_same_tap(self):
        result = validate([rec(pid=1, seq=0), rec(pid=1, seq=100)])
        assert not result.ok
        assert result.index == 1
        assert "duplicate pid" in result.error

    def test_same_pid_on_other_tap_is_fine(self):
        assert validate([rec(pid=1, tap=Tap.UE), rec(pid=1, tap=Tap.APP)]).ok

    def test_pids_over_interleaved_taps(self):
        records = [rec(tap=tap, pid=pid) for pid in (1, 2) for tap in (Tap.UE, Tap.APP, Tap.CORE)]
        assert validate(records).ok
        result = validate(records + [rec(tap=Tap.CORE, pid=3), rec(tap=Tap.APP, pid=1)])
        assert not result.ok and result.index == 7
        assert result.error == "duplicate pid 1 at tap APP"

    def test_seq_order_per_direction_over_interleaved_taps(self):
        def down(seq):
            return rec(tap=Tap.APP, dir=Direction.DOWNLINK, seq=seq)
        records = [rec(seq=0), down(1000), rec(tap=Tap.APP, seq=5000), rec(seq=100),
                   down(1100), rec(tap=Tap.APP, seq=0), down(0)]
        result = validate(records)
        assert not result.ok and result.index == 6
        assert result.error == "seq regression 1100 -> 0 (flow 1)"

    def test_negative_payload(self):
        result = validate([rec(payload_len=-1)])
        assert not result.ok and result.index == 0
        assert "payload" in result.error

    def test_boundary_requires_payload(self):
        result = validate([rec(marker=Marker.FRAME_BOUNDARY, payload_len=0)])
        assert not result.ok

    def test_seq_regression_at_origin(self):
        records = [rec(seq=1000, payload_len=100), rec(seq=0, payload_len=100)]
        result = validate(records)
        assert not result.ok and result.index == 1
        assert "regression" in result.error

    def test_retransmitted_range_accepted(self):
        records = [rec(seq=0, payload_len=100), rec(seq=100, payload_len=100),
                   rec(seq=0, payload_len=100), rec(seq=200, payload_len=100)]
        assert validate(records).ok

    def test_regression_to_unsent_range_rejected(self):
        # Neither a new range below the highest seq nor a resized range counts
        # as a retransmission, even right after one.
        for late in (rec(seq=50, payload_len=100), rec(seq=0, payload_len=50)):
            records = [rec(seq=0, payload_len=100), rec(seq=100, payload_len=100),
                       rec(seq=200, payload_len=100), rec(seq=0, payload_len=100), late]
            result = validate(records)
            assert not result.ok and result.index == 4
            assert result.error == f"seq regression 200 -> {late.seq} (flow 1)"

    def test_seq_regression_only_checked_at_origin_tap(self):
        # Downlink records at the UE are arrivals, not emissions.
        records = [rec(dir=Direction.DOWNLINK, seq=1000), rec(dir=Direction.DOWNLINK, seq=0)]
        assert validate(records).ok

    @pytest.mark.parametrize("tap", list(Tap))
    def test_second_stream_flow_rejected(self, tap):
        # the tap's first STREAM record fixes its flow, an ACK as much as a
        # segment; records of the other taps in between do not reset it
        others = [t for t in Tap if t is not tap]
        records = [rec(tap=tap, seq=0, payload_len=0, ack=100, dir=Direction.DOWNLINK),
                   rec(tap=others[0], flow=2), rec(tap=tap, seq=100),
                   rec(tap=others[1], flow=3), rec(tap=tap, flow=3, seq=200)]
        result = validate(records)
        assert not result.ok and result.index == 4
        assert result.error == f"second stream flow 3 at tap {tap.value} (flow 1 seen first)"

    def test_ctrl_on_other_flow_accepted(self):
        records = [rec(proto=Proto.CTRL, flow=0, payload_len=64), rec(seq=0),
                   rec(proto=Proto.CTRL, flow=0, payload_len=64), rec(seq=100),
                   rec(proto=Proto.CTRL, flow=0, dir=Direction.DOWNLINK, payload_len=64)]
        assert validate(records).ok

    def test_acks_do_not_trip_seq_ordering(self):
        records = [rec(seq=500, payload_len=100),
                   rec(seq=0, payload_len=0, ack=600),
                   rec(seq=600, payload_len=100)]
        assert validate(records).ok


class TestScenario:
    @pytest.mark.parametrize("range_band,expected", [
        (RangeBand.EDGE, 0.0), (RangeBand.REGIONAL, 2.0), (RangeBand.NATIONAL, 4.0)])
    def test_added_owd_fixed_map(self, range_band, expected):
        assert ADDED_OWD_MS[range_band] == expected

    def test_edge_requires_5g(self):
        with pytest.raises(ValueError, match="EDGE"):
            Scenario(tech=Tech.FOUR_G, range=RangeBand.EDGE)

    def test_bandwidth_cap_defaults(self):
        assert Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE).bandwidth_cap == 54.6
        assert Scenario(tech=Tech.FOUR_G, range=RangeBand.REGIONAL).bandwidth_cap == 32.2

    def test_base_owd_defaults_by_tech(self):
        s5 = Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE)
        s4 = Scenario(tech=Tech.FOUR_G, range=RangeBand.NATIONAL)
        assert (s5.base_owd_up, s5.base_owd_down) == (8.0, 4.0)
        assert (s4.base_owd_up, s4.base_owd_down) == (20.0, 10.0)

    def test_loss_prob_range(self):
        with pytest.raises(ValueError):
            Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE, loss_prob=1.5)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            Scenario(tech=Tech.FIVE_G, range=RangeBand.EDGE, jitter_std=-1)


class TestVideoConfig:
    @pytest.mark.parametrize("encoder,resolution,expected", [
        (Encoder.MJPEG, Resolution.VGA, 120_000),
        (Encoder.MJPEG, Resolution.D1, 220_000),
        (Encoder.MJPEG, Resolution.HD, 340_000),
        (Encoder.H264, Resolution.VGA, 30_000),
        (Encoder.H264, Resolution.D1, 55_000),
        (Encoder.H264, Resolution.HD, 85_000),
    ])
    def test_default_frame_bytes(self, encoder, resolution, expected):
        assert default_mean_frame_bytes(encoder, resolution) == expected
        assert VideoConfig(encoder=encoder, resolution=resolution).mean_frame_bytes == expected

    def test_resolution_pixel_counts(self):
        assert (Resolution.VGA.width, Resolution.VGA.height) == (640, 480)
        assert (Resolution.D1.width, Resolution.D1.height) == (720, 576)
        assert (Resolution.HD.width, Resolution.HD.height) == (1280, 720)

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoConfig(fps=0)
        with pytest.raises(ValueError):
            VideoConfig(frame_size_cv=-0.1)
        with pytest.raises(ValueError):
            VideoConfig(mean_frame_bytes=0)


class TestProcessingModel:
    def test_defaults(self):
        p = ProcessingModel()
        assert (p.total_ms, p.response_bytes) == (20.3, 200)


class TestClockModel:
    def test_default_noise_profile(self):
        c = ClockModel()
        assert c.sigmas_ms() == (0.387, 0.317, 0.117)
        assert c.resync_interval_s == 10.0

    def test_perfect(self):
        c = ClockModel.perfect()
        assert c.offsets_ms() == (0.0, 0.0, 0.0)
        assert c.sigmas_ms() == (0.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClockModel(sigma_ue_ms=-0.1)
        with pytest.raises(ValueError):
            ClockModel(resync_interval_s=0)

