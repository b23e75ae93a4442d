"""Property tests: the capture decoder against a plain JSON decoder.

Lines start in the exact form record_to_json writes and are then mutated:
whitespace, key order, duplicate, missing or extra keys, number forms JSON
rejects or Python reads differently, non-ASCII digits, JSON escapes, unknown
enum values, integers past 64 bits or past ``int()``'s digit limit and a
missing ``}``. ``record_from_json`` must give the same record, or fail with
the same message, as a reference that only calls ``json.loads`` and takes
an integer field only as a 64-bit JSON integer. Skipped when Hypothesis is
not installed.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from edgekpi.model import (  # noqa: E402
    CaptureFormatError,
    CaptureRecord,
    Direction,
    Marker,
    Proto,
    Tap,
    read_capture_file,
    record_from_json,
    record_to_json,
)

#: Wire key -> enum type, or None for an integer field, in wire order.
WIRE = {"tap": Tap, "t_us": None, "flow": None, "dir": Direction, "proto": Proto,
        "seq": None, "ack": None, "len": None, "marker": Marker, "pid": None}


def reference_decode(line: str) -> CaptureRecord | str:
    """The record ``json.loads`` gives for ``line``, or the error message."""
    try:
        d = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    except (ValueError, RecursionError) as exc:  # past int()'s digit limit or the nesting limit
        return f"bad capture record: {exc}"
    if not isinstance(d, dict):
        return "record is not an object"
    values = []
    for key, enum in WIRE.items():
        if key not in d:
            return f"bad capture record: missing field {key!r}"
        value = d[key]
        if enum is not None:
            members = {m.value: m for m in enum}
            if not isinstance(value, str) or value not in members:
                return f"bad capture record: {key}: unknown value {value!r}"
            values.append(members[value])
        elif type(value) is not int:
            return f"bad capture record: {key}: not an integer: {value!r}"
        elif not -2**63 <= value < 2**63:
            return f"bad capture record: {key}: not a 64-bit integer: {value!r}"
        else:
            values.append(value)
    return CaptureRecord(*values)


BIG = 2**63 - 1
records = st.builds(
    CaptureRecord,
    st.sampled_from(Tap), st.integers(-BIG - 1, BIG), st.integers(-5, BIG),
    st.sampled_from(Direction), st.sampled_from(Proto), st.integers(0, BIG),
    st.integers(0, BIG), st.integers(-1, 65_536), st.sampled_from(Marker),
    st.integers(0, BIG))


def escaped(text: str) -> str:
    """``text`` as a JSON string with its first character \\u-escaped."""
    return f'"\\u{ord(text[0]):04x}{text[1:]}"'


def number_forms(value: str) -> st.SearchStrategy[str]:
    digits = value.lstrip("-")
    return st.sampled_from([
        "0" + digits, "+" + digits, "-0", value + ".0", value + "e0", "1e3", "1.5",
        value.replace("1", "\u0661"), value.replace("2", "\uff12"), "9" * 5000,
        "-" + "1" * 4301, "1" + "0" * 400, str(2**63), str(-2**63 - 1), str(-2**63),
        f'"{value}"', "true", "null", "-", "NaN", "[1]"])


def enum_forms(value: str) -> st.SearchStrategy[str]:
    return st.sampled_from([
        escaped(value), f'"{value.lower()}"', '"SIDEWAYS"', '"UPLINK"', '"UE"', "1",
        f'["{value}"]', "null", f'"{value} "', f'"{value}\\n"'])


@st.composite
def capture_lines(draw, records=records) -> str:
    """A writer-form line, possibly mutated, and possibly framed in
    whitespace, a BOM, a missing ``}`` or a stray one."""
    canonical = record_to_json(draw(records))
    pairs = [[f'"{key}"', json.dumps(value)] for key, value in json.loads(canonical).items()]
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(
            ["number"] * 3 + ["enum"] * 2 + ["key", "order", "duplicate", "drop", "extra"]))
        numbers = [p for p in pairs if not p[1].startswith('"')]
        enums = [p for p in pairs if p[1].startswith('"')]
        if kind == "number" and numbers:
            pair = draw(st.sampled_from(numbers))
            pair[1] = draw(number_forms(pair[1]))
        elif kind == "enum" and enums:
            pair = draw(st.sampled_from(enums))
            pair[1] = draw(enum_forms(pair[1][1:-1]))
        elif kind == "order":
            pairs = draw(st.permutations(pairs))
        elif pairs and kind in ("key", "duplicate", "drop", "extra"):
            i = draw(st.integers(0, len(pairs) - 1))
            if kind == "key":
                pairs[i][0] = escaped(pairs[i][0][1:-1])
            elif kind == "duplicate":
                pairs.insert(draw(st.integers(0, len(pairs))), list(pairs[i]))
            elif kind == "drop":
                del pairs[i]
            else:
                pairs.insert(i, ['"extra"', draw(st.sampled_from(["1", '"x"', "null", "{}"]))])
    framed = draw(st.integers(0, 3)) == 0
    space = st.sampled_from(["", "", " ", "\t", "\r\n", "\xa0"] if framed else [""])
    parts = ["{"]
    for n, (key, value) in enumerate(pairs):
        parts += ["," if n else "", draw(space), key, draw(space), ":", draw(space), value]
    parts += [draw(space), "}"]
    line = "".join(parts)
    if not framed:
        return line + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        line = line[:-1]
    return draw(st.sampled_from(["", " ", "\xa0", "\ufeff"])) + line + draw(
        st.sampled_from(["", "\n", "\r\n", " \n", "\n\n", "}"]))


def decoded(fn, *args) -> CaptureRecord | list | str:
    try:
        return fn(*args)
    except CaptureFormatError as exc:
        return str(exc)


#: A writer-form line, and variants of it one detail away from that form.
WRITER_LINE = record_to_json(
    CaptureRecord(Tap.UE, 12, 1, Direction.UPLINK, Proto.CTRL, 0, 0, 64, Marker.NONE, 3))
NEAR_MISSES = {
    "writer-form": WRITER_LINE,
    "newline": WRITER_LINE + "\n",
    "leading-zero": WRITER_LINE.replace('"t_us":12', '"t_us":012'),
    "non-ascii-digit": WRITER_LINE.replace('"t_us":12', '"t_us":1\u0662'),
    "minus-zero": WRITER_LINE.replace('"t_us":12', '"t_us":-0'),
    "oversized": WRITER_LINE.replace('"t_us":12', f'"t_us":{"9" * 5000}'),
    "int64-max": WRITER_LINE.replace('"t_us":12', f'"t_us":{2**63 - 1}'),
    "int64-min": WRITER_LINE.replace('"t_us":12', f'"t_us":{-2**63}'),
    "past-int64": WRITER_LINE.replace('"t_us":12', f'"t_us":{2**63}'),
    "400-digit": WRITER_LINE.replace('"t_us":12', f'"t_us":1{"0" * 400}'),
    "escaped-enum": WRITER_LINE.replace('"UE"', '"\\u0055E"'),
    "crlf": WRITER_LINE + "\r\n",
    "trailing-space": WRITER_LINE + " ",
    "no-brace": WRITER_LINE[:-1],
}


def check_record_from_json(line: str) -> None:
    expected = reference_decode(line)
    got = decoded(record_from_json, line)
    assert got == expected
    if not isinstance(expected, str):
        assert [type(v) for v in got] == [type(v) for v in expected]


@pytest.mark.parametrize("line", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_near_misses_match_json_loads(line):
    check_record_from_json(line)


@settings(max_examples=400, deadline=None)
@given(capture_lines())
def test_record_from_json_matches_json_loads(line):
    check_record_from_json(line)


#: The valid first line of the one-record files read below.
FIRST = CaptureRecord(Tap.UE, 0, 0, Direction.UPLINK, Proto.CTRL, 0, 0, 64, Marker.NONE, 0)


@settings(max_examples=150, deadline=None)
@given(capture_lines())
def test_read_capture_file_matches_json_loads_of_stripped_line(line):
    # written as line 2 of a file, ``line`` must stay one line: text-mode
    # reading ends a line at "\n", "\r" or "\r\n"
    body = line.rstrip("\r\n")
    assume("\n" not in body and "\r" not in body)
    stripped = line.strip()
    expected = reference_decode(stripped) if stripped else None
    fd, path = tempfile.mkstemp(suffix=".ndjson")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{record_to_json(FIRST)}\n{line}")
        got = decoded(read_capture_file, path)
    finally:
        os.unlink(path)
    if isinstance(expected, str):
        assert got == f"{path}: line 2: {expected}"
    else:  # a blank line is skipped
        assert got == [FIRST] + ([] if expected is None else [expected])


@st.composite
def capture_files(draw) -> list[str]:
    """The lines of one capture file: writer-form lines, mutated ones, near
    misses and blank lines, their integer fields drawn from a few 64-bit
    values so that each value repeats across lines."""
    value = st.sampled_from(draw(st.lists(
        st.integers(-BIG - 1, BIG) | st.integers(0, 300), min_size=1, max_size=4)))
    repeating = st.builds(
        CaptureRecord, st.sampled_from(Tap), value, value, st.sampled_from(Direction),
        st.sampled_from(Proto), value, value, value, st.sampled_from(Marker), st.integers(0, BIG))
    writer_form = st.builds(record_to_json, repeating)
    # writer-form lines are 2 in 5, so that most files decode past line 1
    line = st.one_of(writer_form, writer_form, capture_lines(repeating),
                     st.sampled_from(list(NEAR_MISSES.values())), st.just(""))
    # a line break inside a line would make two lines of the file
    return [text.rstrip("\r\n").replace("\r\n", " ")
            for text in draw(st.lists(line, min_size=1, max_size=12))]


def matched_as_read(r: CaptureRecord) -> bool:
    """Whether the pattern takes ``record_to_json(r)``: it takes integers
    of at most 18 digits."""
    return all(abs(v) < 10**18 for v in (r.t_us, r.flow, r.seq, r.ack, r.payload_len, r.pid))


def read_lines(lines: list[str]) -> list[CaptureRecord] | str:
    """``read_capture_file`` of a file holding ``lines``, or its error
    without the file name that leads it."""
    fd, path = tempfile.mkstemp(suffix=".ndjson")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(f"{line}\n" for line in lines))
        got = decoded(read_capture_file, path)
    finally:
        os.unlink(path)
    if isinstance(got, str):
        assert got.startswith(f"{path}: ")
        return got[len(path) + 2:]
    return got


@settings(max_examples=150, deadline=None)
@given(capture_files())
def test_read_capture_file_matches_json_loads_line_by_line(lines):
    expected = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = reference_decode(line.strip())
        if isinstance(record, str):
            expected = f"line {lineno}: {record}"
            break
        expected.append(record)
    got = read_lines(lines)
    assert got == expected
    if isinstance(got, list):  # True == 1, so compare the types too
        assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in expected]
        # within one file, the writer-form lines the pattern takes share
        # each repeated integer
        ints = [v for r, line in zip(got, filter(str.strip, lines))
                if record_to_json(r) == line and matched_as_read(r)
                for v in (r.t_us, r.flow, r.seq, r.ack, r.payload_len)]
        assert len({id(v) for v in ints}) == len(set(ints))


def test_oversized_integer_fails_at_its_line_after_lines_sharing_its_prefix():
    def line(t_us: int) -> str:
        return WRITER_LINE.replace('"t_us":12', f'"t_us":{t_us}')

    lines = [line(2**63 - 1), line(2**63 - 1), line(2**63), line(12)]
    message = reference_decode(lines[2])
    assert message == f"bad capture record: t_us: not a 64-bit integer: {2**63}"
    assert read_lines(lines) == f"line 3: {message}"
