"""Run configuration: sectioned key=value files and the run manifest.

A config file has sections [scenario], [clocks], [video], [workload],
[processing] and optionally [run]. :data:`KEYS` names every key once, with
the parser of its value; every key is a field of the object its section
builds, and a key the file leaves out takes that field's default.
The manifest written next to simulation output is itself a valid config
with every applied default made explicit, so a run can be reproduced from
it alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .emulator import EmulationRun, Workload
from .model import (
    ClockModel,
    Encoder,
    InputError,
    ProcessingModel,
    RangeBand,
    Resolution,
    Scenario,
    Tech,
    VideoConfig,
    not_utf8,
)


class ConfigError(InputError):
    """A configuration file could not be parsed or validated."""


def _syntax_error(path: str | Path, exc: configparser.Error) -> ConfigError:
    """configparser's multi-line message for a file it cannot read as
    sections of keys, as one line that names the file and the line."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        lineno, what = exc.lineno, f"{exc.line.strip()!r} comes before any [section] header"
    elif isinstance(exc, configparser.DuplicateOptionError):
        lineno, what = exc.lineno, f"[{exc.section}] duplicate key {exc.option!r}"
    elif isinstance(exc, configparser.DuplicateSectionError):
        lineno, what = exc.lineno, f"duplicate section [{exc.section}]"
    else:  # a ParsingError, which lists each such line; name the first
        lineno, what = exc.errors[0][0], "neither a [section] header nor a key = value line"
    return ConfigError(what, path, lineno)


#: The parser of ``bandwidth_cap``: a float where ``inf``, ``none`` and
#: ``unlimited`` all mean infinity, that is no cap.
CAP = "cap"


def _names(enum: type[Enum]) -> dict[str, Enum]:
    return {m.name: m for m in enum}


#: section -> key -> parser of its value, in manifest order. A parser is
#: float, int, bool, CAP, or an upper-case name -> member map for an enum.
KEYS: dict[str, dict] = {
    "scenario": {
        "tech": {**_names(Tech), "5G": Tech.FIVE_G, "4G": Tech.FOUR_G},
        "range": _names(RangeBand),
        "base_owd_up": float, "base_owd_down": float, "jitter_std": float,
        "loss_prob": float, "bandwidth_cap": CAP, "retransmit": bool,
    },
    "clocks": dict.fromkeys(("offset_ue_ms", "offset_core_ms", "offset_app_ms", "sigma_ue_ms",
                             "sigma_core_ms", "sigma_app_ms", "resync_interval_s"), float),
    "video": {"encoder": _names(Encoder), "resolution": _names(Resolution), "fps": float,
              "mean_frame_bytes": int, "frame_size_cv": float, "duration_s": float},
    "workload": {"ping_interval_ms": float, "ping_count": int, "mss": int,
                 "bulk_duration_s": float, "bulk_offered_mbps": float},
    "processing": {"total_ms": float, "response_bytes": int},
    "run": {"seed": int},
}


def _parse(kind, raw: str):
    """``raw`` read by the parser ``kind``; a ValueError says why it cannot be."""
    token = raw.strip()
    if isinstance(kind, dict):
        if token.upper() not in kind:
            raise ValueError(f"unknown value {raw!r} (expected one of {', '.join(sorted(kind))})")
        return kind[token.upper()]
    if kind is bool:
        if token.lower() in ("true", "yes", "on", "1"):
            return True
        if token.lower() in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind is CAP and token.lower() in ("inf", "infinity", "none", "unlimited"):
        return math.inf
    try:
        return int(raw) if kind is int else float(raw)
    except ValueError:
        raise ValueError(f"not {'an integer' if kind is int else 'a number'}: {raw!r}") from None


def _build(section: str, cls, kwargs: dict):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


@dataclass(frozen=True)
class ParsedConfig:
    scenario: Scenario
    workload: Workload
    clocks: ClockModel
    processing: ProcessingModel
    seed: int | None
    #: the [scenario] values the file set, by key; lets a sweep re-derive
    #: the per-technology defaults the user did not pin.
    raw_scenario: dict = field(default_factory=dict)

    def to_run(self, seed: int | None = None) -> EmulationRun:
        resolved = seed if seed is not None else self.seed
        if resolved is None:
            resolved = 0
        return EmulationRun(scenario=self.scenario, workload=self.workload,
                            clocks=self.clocks, processing=self.processing,
                            seed=resolved)


def parse_config(path: str | Path) -> ParsedConfig:
    """Parse and validate a run configuration file."""
    # No header names the empty section, so [DEFAULT] is an unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise _syntax_error(path, exc) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(not_utf8(exc), path) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    values: dict[str, dict] = {section: {} for section in KEYS}
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if key not in KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            try:
                values[section][key] = _parse(KEYS[section][key], raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    if not parser.has_section("scenario"):
        raise ConfigError("missing required section [scenario]")
    scenario, clocks, video, workload, processing, run = values.values()
    video_cfg = _build("video", VideoConfig, video)  # checked even when the stream is off

    return ParsedConfig(
        scenario=_build("scenario", Scenario,
                        {"tech": Tech.FIVE_G, "range": RangeBand.EDGE, **scenario}),
        clocks=_build("clocks", ClockModel, clocks),
        workload=_build("workload", Workload, {
            **workload, "video": video_cfg if video_cfg.duration_s > 0 else None}),
        processing=_build("processing", ProcessingModel, processing),
        seed=run.get("seed"), raw_scenario=scenario)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    if isinstance(value, Enum):
        return value.name
    return str(value)


def manifest_text(run: EmulationRun) -> str:
    """Render a run as config text with every default resolved."""
    w = run.workload
    sources = {"scenario": run.scenario, "clocks": run.clocks, "video": w.video,
               "workload": w, "processing": run.processing, "run": run}
    lines = []
    for section, keys in KEYS.items():
        source = sources[section]
        if source is None:  # no video stream
            continue
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(source, key)
            if value is not None:  # bulk_offered_mbps: None is the default rate
                lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)


def write_manifest(path: str | Path, run: EmulationRun) -> None:
    Path(path).write_text(manifest_text(run), encoding="utf-8")
