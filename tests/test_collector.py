"""The record-heavy layers run without cyclic collections (``model.acyclic``).

``emulator.run``, ``model.read_capture_file`` and
``analyzer.analyze_captures`` turn the collector off while they run and, on
exit, hand every object alive to the oldest generation. That is safe only
because the pipeline builds no reference cycles, which the last test checks.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from edgekpi.analyzer import analyze_captures
from edgekpi.cli import TAP_FILES, NTP_FILE, _analysis_options, _build_parser, _write_run_outputs
from edgekpi.config import parse_config
from edgekpi.emulator import run
from edgekpi.model import Tap, acyclic, read_capture_file, read_ntp_file

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def collector():
    """Restores the collector's on/off state and freeze count after a test."""
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    yield
    if gc.get_freeze_count() and not frozen:
        gc.unfreeze()
    gc.enable() if enabled else gc.disable()


def state() -> tuple[bool, int]:
    return gc.isenabled(), gc.get_freeze_count()


class TestCallersStateRestored:
    def test_collector_on(self, collector):
        gc.enable()
        with acyclic():
            assert not gc.isenabled()
            assert gc.get_freeze_count() == 0
        assert state() == (True, 0)

    def test_collector_off_is_left_alone(self, collector):
        gc.disable()
        with acyclic():
            assert state() == (False, 0)
        assert state() == (False, 0)

    def test_callers_frozen_objects_are_left_alone(self, collector):
        gc.enable()
        gc.freeze()
        frozen = gc.get_freeze_count()
        assert frozen > 0
        with acyclic():
            assert state() == (True, frozen)
        assert state() == (True, frozen)

    def test_exception_inside(self, collector):
        gc.enable()
        with pytest.raises(KeyError):
            with acyclic():
                raise KeyError("inside")
        assert state() == (True, 0)

    def test_nested_use(self, collector):
        gc.enable()
        with acyclic():
            with acyclic():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert state() == (True, 0)

    def test_decorator_runs_each_call(self, collector):
        @acyclic()
        def layer(fail: bool) -> bool:
            if fail:
                raise ValueError("layer")
            return gc.isenabled()

        gc.enable()
        assert layer(False) is False
        with pytest.raises(ValueError):
            layer(True)
        assert layer(False) is False
        assert state() == (True, 0)


def test_emulation_leaves_no_young_objects(collector):
    """Right after ``emulator.run`` the young generation is near empty, its
    result is in the oldest generation and no collection ran inside it. A
    collector left on runs hundreds there; a plain pause without the
    freeze/unfreeze step runs one over every object the layer left alive."""
    run_cfg = parse_config(GOLDEN / "retransmit.ini").to_run(3)
    gc.enable()
    gc.collect()
    generations = []

    def note(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(note)
    try:
        result = run(run_cfg)
        young = gc.get_count()[0]
    finally:
        gc.callbacks.remove(note)
    assert young < gc.get_threshold()[0]
    assert generations == []
    assert any(obj is result.records for obj in gc.get_objects(generation=2))
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("case, seed, flags", [
    ("default", 42, []),
    ("retransmit", 3, []),
    ("lossy", 5, ["--match", "seq", "--frame-owd", "first-first", "--alpha", "0.25"]),
])
def test_simulate_read_analyze_builds_no_reference_cycles(tmp_path, collector, case, seed, flags):
    cfg, _ = _analysis_options(
        _build_parser().parse_args(["analyze", "--in", "-", *flags]))
    run_cfg = parse_config(GOLDEN / f"{case}.ini").to_run(seed)
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _write_run_outputs(run(run_cfg), run_cfg, tmp_path, False)
        records = {tap: read_capture_file(tmp_path / name) for tap, name in TAP_FILES.items()}
        analyze_captures(records[Tap.UE], records[Tap.CORE], records[Tap.APP],
                         read_ntp_file(tmp_path / NTP_FILE), cfg)
        unreachable = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert unreachable == 0, garbage[:10]
