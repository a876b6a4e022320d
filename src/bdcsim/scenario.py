"""Plain-text scenario and design files.

A scenario is a flat, sectioned key-value document:

    # comment lines and blank lines are ignored
    [converter]
    v_bus_nominal = 24
    l_p = 1m
    ...
    [source]
    until=20m volts=24
    until=25m from=24 to=0
    until=50m volts=0
    [sim]
    t_end = 50m
    dt = 50n

All quantities are SI base units; the suffix multipliers p, n, u (or µ),
m, k, M, G are accepted on input.  Inside [source] every line is one
profile segment of whitespace-separated key=value tokens: a hold
(`until=... volts=...`) or a linear ramp (`until=... from=... to=...`),
ordered by `until`.

The keys are the field names of the dataclasses the sections build:
[converter] takes the fields of ConverterParams, [battery] those of
BatteryModel and [controller] those of ControllerConfig.  [sim] takes the
Scenario fields that no other section fills (t_end, dt, record_decimation,
...) plus `init_<field>` for every CircuitState field but t.  A design file
has one [design] section that takes the fields of DesignSpec.  A key is
required when its field has no default, and an omitted key takes its
field's default.  A key may be given once per section.  The rules no
dataclass states are written out here: v_emf_empty defaults to v_emf_full
and r_int to 0; an omitted init_* key takes its value from
`Scenario.start_state()`; record_decimation must be a whole number;
initial_mode is a mode name.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields, replace

from .analysis import read_text
from .circuit import BatteryModel, CircuitState, ConverterParams
from .control import ControllerConfig, Mode
from .design import DesignSpec
from .sim import Scenario, SourceProfile, SourceSegment

_SUFFIXES = {
    "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6,
    "m": 1e-3, "k": 1e3, "M": 1e6, "G": 1e9,
}


def _keys(cls, *exclude: str) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls)) - set(exclude)


_INIT = "init_"
# Section name -> the keys it takes; None marks the [source] segment lines.
_SCENARIO_SECTIONS = {
    "converter": _keys(ConverterParams),
    "battery": _keys(BatteryModel),
    "controller": _keys(ControllerConfig),
    "source": None,
    "sim": (_keys(Scenario, "params", "battery", "controller", "source", "initial_state")
            | {_INIT + key for key in _keys(CircuitState, "t")}),
}
_DESIGN_SECTIONS = {"design": _keys(DesignSpec)}


class ScenarioParseError(ValueError):
    """Scenario or design file rejected; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, name: str = "<scenario>"):
        super().__init__(message if line is None else f"{name}: line {line}: {message}")
        self.line = line


def parse_quantity(token: str) -> float:
    """Parse a finite number with an optional SI suffix multiplier
    ('50n' -> 5e-8); inf and NaN are rejected."""
    raw = token.strip()
    if not raw:
        raise ValueError("empty value")
    token = raw
    multiplier = 1.0
    if token[-1] in _SUFFIXES:
        multiplier = _SUFFIXES[token[-1]]
        token = token[:-1]
    value = float(token) * multiplier
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _tokenize(text: str):
    """Yield (line_no, section or None before any, payload) per meaningful line."""
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            yield line_no, section, None
            continue
        yield line_no, section, line


def _parse_value(key: str, text: str) -> float | int | Mode:
    try:
        if key == "initial_mode":
            return Mode(text.lower())
        value = parse_quantity(text)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}")
    if key == "record_decimation":
        if value != int(value):
            raise ValueError(f"record_decimation must be a whole number, got {value}")
        return int(value)
    return value


def _parse_segment(payload: str) -> SourceSegment:
    values = {}
    for token in payload.split():
        if "=" not in token:
            raise ValueError(f"source segment token {token!r} is not key=value")
        key, value = token.split("=", 1)
        try:
            values[key.strip()] = parse_quantity(value)
        except ValueError as exc:
            raise ValueError(f"bad value in segment: {exc}")
    if "until" not in values:
        raise ValueError("source segment needs an `until` time")
    until = values.pop("until")
    if set(values) == {"volts"}:
        return SourceSegment(until=until, v_start=values["volts"], v_end=values["volts"])
    if set(values) == {"from", "to"}:
        return SourceSegment(until=until, v_start=values["from"], v_end=values["to"])
    raise ValueError("source segment must be `until=.. volts=..` or `until=.. from=.. to=..`")


def _read(text: str, name: str, sections: dict) -> tuple[dict, list[SourceSegment]]:
    """The values given in each of `sections`, by key, and the segment lines.
    Every section must appear; a section header may repeat, a key may not."""
    given: dict[str, dict] = {section: {} for section in sections}
    segments: list[SourceSegment] = []
    seen: set[str] = set()
    for line_no, section, payload in _tokenize(text):
        try:
            if section is None:
                raise ValueError(f"content before any [section]: {payload!r}")
            if section not in sections:
                raise ValueError(f"unknown section [{section}]")
            seen.add(section)
            if payload is None:
                continue
            if sections[section] is None:
                segments.append(_parse_segment(payload))
                continue
            if "=" not in payload:
                raise ValueError(f"expected key = value, got {payload!r}")
            key, value = (part.strip() for part in payload.split("=", 1))
            if key not in sections[section]:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            if key in given[section]:
                raise ValueError(f"duplicate key {key!r} in [{section}]")
            given[section][key] = _parse_value(key, value)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), line_no, name) from None
    missing = [section for section in sections if section not in seen]
    if missing:
        raise ScenarioParseError(
            f"{name}: missing section(s): " + ", ".join(f"[{s}]" for s in missing))
    return given, segments


def _build(cls, section: str, given: dict, **fallback):
    """cls(**given), with `fallback` under the given values; the first field
    with neither a value nor a default is reported as a missing key."""
    values = {**fallback, **given}
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"[{section}] missing required key {f.name!r}")
    return cls(**values)


def parse_scenario_text(text: str, name: str = "<scenario>") -> Scenario:
    """Build a Scenario from document text; see module docstring for grammar."""
    given, segments = _read(text, name, _SCENARIO_SECTIONS)
    if not segments:
        raise ScenarioParseError(f"{name}: [source] has no segments")
    sim = given["sim"]
    init = {key[len(_INIT):]: sim.pop(key) for key in list(sim) if key.startswith(_INIT)}
    try:
        params = _build(ConverterParams, "converter", given["converter"])
        battery = _build(BatteryModel, "battery", given["battery"],
                         v_emf_empty=given["battery"].get("v_emf_full"), r_int=0.0)
        controller = _build(ControllerConfig, "controller", given["controller"])
        source = SourceProfile(segments=tuple(segments))
        scenario = _build(Scenario, "sim", sim, params=params, battery=battery,
                          controller=controller, source=source)
        if init:
            scenario = replace(scenario, initial_state=replace(scenario.start_state(), **init))
        return scenario
    except ValueError as exc:
        raise ScenarioParseError(f"{name}: {exc}") from exc


def parse_scenario_file(path) -> Scenario:
    return parse_scenario_text(read_text(path), name=str(path))


def parse_design_text(text: str, name: str = "<design>") -> DesignSpec:
    """Parse a design specification file: single [design] section with the
    DesignSpec field names as keys."""
    given, _ = _read(text, name, _DESIGN_SECTIONS)
    try:
        return _build(DesignSpec, "design", given["design"])
    except ValueError as exc:
        raise ScenarioParseError(f"{name}: {exc}") from exc


def parse_design_file(path) -> DesignSpec:
    return parse_design_text(read_text(path), name=str(path))
