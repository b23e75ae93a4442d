"""Golden digests: the sha256 of every output file of a few fixed CLI runs.

Seeded runs are byte-identical, so any change to a capture, truth log, NTP
trace, manifest, sample file or report shows up here as a changed digest. A
change that alters output on purpose rewrites ``golden/digests.json`` with
``PYTHONPATH=src python tests/test_golden.py``, which prints each case and
file that moved, and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

import pytest

from edgekpi.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"

#: case -> CLI invocations; ``{golden}`` is this directory and ``{out}`` the
#: case's output directory.
CASES = {
    "default": [
        ["simulate", "--config", "{golden}/default.ini", "--seed", "42", "--out", "{out}"],
        ["analyze", "--in", "{out}"],
    ],
    "bulk": [
        ["simulate", "--config", "{golden}/bulk.ini", "--seed", "7", "--out", "{out}"],
        ["analyze", "--in", "{out}"],
    ],
    "lossy": [
        ["simulate", "--config", "{golden}/lossy.ini", "--seed", "5", "--out", "{out}"],
        ["analyze", "--in", "{out}", "--frame-owd", "first-first", "--alpha", "0.25"],
    ],
    "sweep": [
        ["sweep", "--config", "{golden}/sweep.ini", "--seed", "42", "--out", "{out}"],
    ],
    "retransmit": [
        ["simulate", "--config", "{golden}/retransmit.ini", "--seed", "3", "--out", "{out}"],
        ["analyze", "--in", "{out}"],
    ],
    "retransmit4g": [
        ["simulate", "--config", "{golden}/retransmit4g.ini", "--seed", "1", "--out", "{out}"],
        ["analyze", "--in", "{out}"],
    ],
}


def _digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run_case(case: str, out: Path) -> dict[str, str]:
    """Run the case's invocations into ``out``; its files' digests."""
    for argv in CASES[case]:
        argv = [a.format(golden=GOLDEN, out=out) for a in argv]
        assert main(argv) == 0, f"{case}: edgekpi {' '.join(argv)} failed"
    return _digests(out)


def _moved(got: dict[str, str], expected: dict[str, str]) -> list[str]:
    """The files whose digest differs, or that only one side has."""
    return [name for name in sorted(set(got) | set(expected))
            if got.get(name) != expected.get(name)]


def _check_case(case: str, out: Path) -> None:
    got = _run_case(case, out)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[case]
    changed = {name: got.get(name, "<missing>") for name in _moved(got, expected)}
    assert not changed, f"{case}: outputs differ from golden/digests.json:\n" + json.dumps(
        changed, indent=2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(case, tmp_path):
    _check_case(case, tmp_path / case)


def test_sweep_digests_under_spawn(tmp_path):
    # spawn pickles the sweep's worker function and its arguments, as the
    # forkserver default of newer Pythons and macOS's spawn default do
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        _check_case("sweep", tmp_path / "sweep")
    finally:
        multiprocessing.set_start_method(previous, force=True)


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        new = {case: _run_case(case, Path(scratch) / case) for case in CASES}
    for case in sorted(new):
        for name in _moved(new[case], old.get(case, {})):
            print(f"{case}: {name} moved", file=sys.stderr)
    DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(new)} cases' digests to {DIGESTS}", file=sys.stderr)
