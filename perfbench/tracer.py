"""Span recorder for the traced benchmark run.

The tracer wraps edgekpi's public layer functions from outside the package.
Every module attribute that holds one of those functions is replaced, so the
names ``edgekpi.cli`` imported (``run_emulation``, ``read_capture_file``, ...)
and the extractors ``analyze_captures`` looks up in ``edgekpi.analyzer`` are
traced too. Each call becomes a span ``[name, start_ns, end_ns, parent,
info]`` kept in memory; the worker writes them out when the run ends.
``info`` holds counts taken from a call's arguments or result after its span
has closed, so counting adds nothing to the span.
"""

from __future__ import annotations

import functools
import os
import time

#: Layer (edgekpi module) -> functions wrapped in a traced run. Functions a
#: later version of edgekpi no longer has are skipped; their metrics read 0.
TARGETS = {
    "config": ("parse_config", "write_manifest"),
    "emulator": ("run", "write_truth_file"),
    "model": ("write_capture_file", "read_capture_file", "validate",
              "write_ntp_file", "read_ntp_file"),
    "analyzer": ("analyze_captures", "rtt_control", "rtt_tcp", "frame_latency",
                 "frame_owd", "observe_frames", "owd_packet", "reassemble"),
    "kpis": ("build_report", "report_rows", "write_report_csv", "write_report_ndjson"),
    "cli": ("cmd_analyze", "cmd_sweep", "_write_run_outputs", "_read_captures",
            "_analyze_dir", "_write_samples"),
}

LAYERS = tuple(TARGETS)


def _note_write_capture(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    records = args[1] if len(args) > 1 else kwargs["records"]
    return {"records": len(records), "bytes": os.path.getsize(path)}


def _note_read_capture(tracer, args, kwargs, result):
    return {"records": len(result), "tap": result[0].tap.value if result else None}


def _note_validate(tracer, args, kwargs, result):
    return {"rejects": 0 if result.ok else 1}


def _note_run(tracer, args, kwargs, result):
    tracer.truths.append(result.truth)
    ue = next(recs for tap, recs in result.records.items() if tap.value == "UE")
    return {"ue_records": len(ue)}


_NOTES = {
    "model.write_capture_file": _note_write_capture,
    "model.read_capture_file": _note_read_capture,
    "model.validate": _note_validate,
    "emulator.run": _note_run,
}


class Tracer:
    """Records spans around wrapped layer functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.truths: list = []  # RunResult.truth of each emulation since the last drain
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.monotonic_ns(), 0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                self._stack.pop()
            if note is not None:
                try:
                    span[4] = note(self, args, kwargs, result)
                except Exception as exc:  # a count must never break the run
                    span[4] = {"note_error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target function wherever ``modules`` hold a reference.

        ``modules`` maps layer name -> edgekpi module; further entries (the
        package itself) are searched for references but own no targets.
        """
        if self._patches:
            return
        wrappers = {}
        for layer, names in TARGETS.items():
            for fname in names:
                fn = getattr(modules[layer], fname, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def summarize(spans: list[list], lo: int, hi: int) -> dict:
    """Per-name inclusive time, per-layer self time and summed counts of the
    spans ``spans[lo:hi]``. Self time is a span's duration minus that of its
    direct children."""
    child_ns = [0] * len(spans)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= 0:
            child_ns[parent] += spans[i][2] - spans[i][1]
    inclusive: dict[str, float] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(lo, hi):
        name, start, end, _, info = spans[i]
        inclusive[name] = inclusive.get(name, 0.0) + (end - start) / 1e9
        calls[name] = calls.get(name, 0) + 1
        self_s[name.split(".", 1)[0]] += (end - start - child_ns[i]) / 1e9
        for key, value in (info or {}).items():
            if isinstance(value, (int, float)):
                counts[f"{name}:{key}"] = counts.get(f"{name}:{key}", 0) + value
    return {"inclusive": inclusive, "self": self_s, "counts": counts, "calls": calls}


def under(spans: list[list], index: int, name: str) -> bool:
    """Whether span ``index`` runs inside a span called ``name``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
