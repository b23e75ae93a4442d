"""Golden digests: the sha256 of every output file of a few fixed CLI runs.

Seeded runs are byte-identical, so any change to a capture, truth log, NTP
trace, manifest, sample file or report shows up here as a changed digest. A
change that alters output on purpose updates ``golden/digests.json`` by hand
and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from pathlib import Path

import pytest

from edgekpi.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
        ["analyze", "--in", "{out}", "--match", "seq", "--frame-owd", "first-first",
         "--alpha", "0.25"],
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


def _check_case(case: str, out: Path, capsys) -> None:
    for argv in CASES[case]:
        argv = [a.format(golden=GOLDEN, out=out) for a in argv]
        assert main(argv) == 0, capsys.readouterr().err
    expected = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))[case]
    got = _digests(out)
    changed = {name: got.get(name, "<missing>")
               for name in sorted(set(got) | set(expected)) if got.get(name) != expected.get(name)}
    assert not changed, f"{case}: outputs differ from golden/digests.json:\n" + json.dumps(
        changed, indent=2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(case, tmp_path, capsys):
    _check_case(case, tmp_path / case, capsys)


def test_sweep_digests_under_spawn(tmp_path, capsys):
    # spawn pickles the sweep's worker function and its arguments, as the
    # forkserver default of newer Pythons and macOS's spawn default do
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        _check_case("sweep", tmp_path / "sweep", capsys)
    finally:
        multiprocessing.set_start_method(previous, force=True)
