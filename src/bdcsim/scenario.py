"""Plain-text scenario files.

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
"""

from __future__ import annotations

import math

from .circuit import BatteryModel, CircuitState, ConverterParams
from .control import ControllerConfig, Mode
from .design import DesignSpec
from .sim import Scenario, SourceProfile, SourceSegment

_SUFFIXES = {
    "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6,
    "m": 1e-3, "k": 1e3, "M": 1e6, "G": 1e9,
}

_SECTIONS = ("converter", "battery", "controller", "source", "sim")

_CONVERTER_KEYS = {"v_bus_nominal", "l_p", "c_bus", "c_o", "f_s", "r_load",
                   "r_on", "v_f", "r_source", "r_link"}
_BATTERY_KEYS = {"v_emf_full", "v_emf_empty", "r_int", "capacity", "soc"}
_CONTROLLER_KEYS = {"v_ref_load", "i_charge_ref", "i_discharge_ref", "v_float",
                    "v_bus_low", "v_bus_high", "duty_step", "duty_min", "duty_max",
                    "i_deadband", "v_deadband"}
_SIM_KEYS = {"t_end", "dt", "record_decimation", "i_limit", "v_limit",
             "fixed_duty", "initial_mode", "initial_duty",
             "init_i_l", "init_v_c_bus", "init_v_c_o", "init_soc"}
_DESIGN_KEYS = {"pv_voltage", "pv_current", "battery_voltage",
                "switching_frequency", "load_voltage", "load_current",
                "ripple_current", "ripple_fraction"}


class ScenarioParseError(ValueError):
    """Scenario file rejected; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
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
    """Yield (line_no, section, payload) for every meaningful line."""
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            yield line_no, section, None
            continue
        if section is None:
            raise ScenarioParseError(f"content before any [section]: {raw.strip()!r}",
                                     line=line_no)
        yield line_no, section, line


def _parse_key_value(payload: str, line_no: int) -> tuple[str, str]:
    if "=" not in payload:
        raise ScenarioParseError(f"expected key = value, got {payload!r}", line=line_no)
    key, value = payload.split("=", 1)
    return key.strip(), value.strip()


def _parse_segment(payload: str, line_no: int) -> SourceSegment:
    fields = {}
    for token in payload.split():
        if "=" not in token:
            raise ScenarioParseError(
                f"source segment token {token!r} is not key=value", line=line_no)
        key, value = token.split("=", 1)
        try:
            fields[key.strip()] = parse_quantity(value)
        except ValueError as exc:
            raise ScenarioParseError(f"bad value in segment: {exc}", line=line_no)
    if "until" not in fields:
        raise ScenarioParseError("source segment needs an `until` time", line=line_no)
    until = fields.pop("until")
    if set(fields) == {"volts"}:
        return SourceSegment(until=until, v_start=fields["volts"], v_end=fields["volts"])
    if set(fields) == {"from", "to"}:
        return SourceSegment(until=until, v_start=fields["from"], v_end=fields["to"])
    raise ScenarioParseError(
        "source segment must be `until=.. volts=..` or `until=.. from=.. to=..`",
        line=line_no)


def parse_scenario_text(text: str, name: str = "<scenario>") -> Scenario:
    """Build a Scenario from document text; see module docstring for grammar."""
    values: dict[str, dict[str, tuple[float, int]]] = {s: {} for s in _SECTIONS}
    raw_values: dict[str, dict[str, str]] = {s: {} for s in _SECTIONS}
    segments: list[SourceSegment] = []
    seen_sections: set[str] = set()

    for line_no, section, payload in _tokenize(text):
        if payload is None:
            if section not in _SECTIONS:
                raise ScenarioParseError(f"unknown section [{section}]", line=line_no)
            seen_sections.add(section)
            continue
        if section == "source":
            segments.append(_parse_segment(payload, line_no))
            continue
        key, value = _parse_key_value(payload, line_no)
        allowed = {"converter": _CONVERTER_KEYS, "battery": _BATTERY_KEYS,
                   "controller": _CONTROLLER_KEYS, "sim": _SIM_KEYS}[section]
        if key not in allowed:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", line=line_no)
        if key == "initial_mode":
            raw_values[section][key] = value
            continue
        try:
            values[section][key] = (parse_quantity(value), line_no)
        except ValueError as exc:
            raise ScenarioParseError(f"bad value for {key}: {exc}", line=line_no)

    missing = [s for s in _SECTIONS if s not in seen_sections]
    if missing:
        raise ScenarioParseError(
            f"{name}: missing section(s): " + ", ".join(f"[{s}]" for s in missing))
    if not segments:
        raise ScenarioParseError(f"{name}: [source] has no segments")

    def number(section: str, key: str, default: float | None = None) -> float:
        if key in values[section]:
            return values[section][key][0]
        if default is None:
            raise ScenarioParseError(f"{name}: [{section}] missing required key {key!r}")
        return default

    try:
        params = ConverterParams(
            v_bus_nominal=number("converter", "v_bus_nominal"),
            l_p=number("converter", "l_p"),
            c_bus=number("converter", "c_bus"),
            c_o=number("converter", "c_o"),
            f_s=number("converter", "f_s"),
            r_load=number("converter", "r_load"),
            r_on=number("converter", "r_on", 0.0),
            v_f=number("converter", "v_f", 0.0),
            r_source=number("converter", "r_source", 0.0),
            r_link=number("converter", "r_link", 0.02),
        )
        v_emf_full = number("battery", "v_emf_full")
        battery = BatteryModel(
            v_emf_full=v_emf_full,
            v_emf_empty=number("battery", "v_emf_empty", v_emf_full),
            r_int=number("battery", "r_int", 0.0),
            capacity=number("battery", "capacity"),
            soc=number("battery", "soc", 0.5),
        )
        defaults = ControllerConfig()
        controller = ControllerConfig(
            v_ref_load=number("controller", "v_ref_load", defaults.v_ref_load),
            i_charge_ref=number("controller", "i_charge_ref", defaults.i_charge_ref),
            i_discharge_ref=number("controller", "i_discharge_ref",
                                   defaults.i_discharge_ref),
            v_float=number("controller", "v_float", defaults.v_float),
            v_bus_low=number("controller", "v_bus_low", defaults.v_bus_low),
            v_bus_high=number("controller", "v_bus_high", defaults.v_bus_high),
            duty_step=number("controller", "duty_step", defaults.duty_step),
            duty_min=number("controller", "duty_min", defaults.duty_min),
            duty_max=number("controller", "duty_max", defaults.duty_max),
            i_deadband=number("controller", "i_deadband", defaults.i_deadband),
            v_deadband=number("controller", "v_deadband", defaults.v_deadband),
        )
        source = SourceProfile(segments=tuple(segments))

        initial_mode = None
        if "initial_mode" in raw_values["sim"]:
            mode_name = raw_values["sim"]["initial_mode"].lower()
            try:
                initial_mode = Mode(mode_name)
            except ValueError:
                raise ScenarioParseError(
                    f"{name}: unknown initial_mode {mode_name!r}")
        initial_state = None
        init_keys = ("init_i_l", "init_v_c_bus", "init_v_c_o", "init_soc")
        if any(k in values["sim"] for k in init_keys):
            initial_state = CircuitState(
                i_l=number("sim", "init_i_l", 0.0),
                v_c_bus=number("sim", "init_v_c_bus", source.voltage(0.0)),
                v_c_o=number("sim", "init_v_c_o", 0.0),
                soc=number("sim", "init_soc", battery.soc),
                t=0.0,
            )
        fixed_duty = (values["sim"]["fixed_duty"][0]
                      if "fixed_duty" in values["sim"] else None)
        initial_duty = (values["sim"]["initial_duty"][0]
                        if "initial_duty" in values["sim"] else None)
        record_decimation = number("sim", "record_decimation", 10)
        if record_decimation != int(record_decimation):
            raise ScenarioParseError(
                f"record_decimation must be a whole number, got {record_decimation}",
                line=values["sim"]["record_decimation"][1])

        return Scenario(
            params=params,
            battery=battery,
            controller=controller,
            source=source,
            t_end=number("sim", "t_end"),
            dt=number("sim", "dt"),
            record_decimation=int(record_decimation),
            i_limit=number("sim", "i_limit", 100.0),
            v_limit=number("sim", "v_limit", 200.0),
            fixed_duty=fixed_duty,
            initial_state=initial_state,
            initial_mode=initial_mode,
            initial_duty=initial_duty,
        )
    except ScenarioParseError:
        raise
    except ValueError as exc:
        raise ScenarioParseError(f"{name}: {exc}") from exc


def parse_scenario_file(path) -> Scenario:
    with open(path) as fh:
        return parse_scenario_text(fh.read(), name=str(path))


def parse_design_text(text: str, name: str = "<design>") -> DesignSpec:
    """Parse a design specification file: single [design] section with the
    DesignSpec field names as keys."""
    fields: dict[str, float] = {}
    for line_no, section, payload in _tokenize(text):
        if payload is None:
            if section != "design":
                raise ScenarioParseError(f"unknown section [{section}]", line=line_no)
            continue
        if section != "design":
            raise ScenarioParseError(f"unknown section [{section}]", line=line_no)
        key, value = _parse_key_value(payload, line_no)
        if key not in _DESIGN_KEYS:
            raise ScenarioParseError(f"unknown key {key!r} in [design]", line=line_no)
        try:
            fields[key] = parse_quantity(value)
        except ValueError as exc:
            raise ScenarioParseError(f"bad value for {key}: {exc}", line=line_no)
    required = _DESIGN_KEYS - {"ripple_fraction"}
    missing = sorted(required - set(fields))
    if missing:
        raise ScenarioParseError(f"{name}: [design] missing key(s): {', '.join(missing)}")
    try:
        return DesignSpec(**fields)
    except ValueError as exc:
        raise ScenarioParseError(f"{name}: {exc}") from exc


def parse_design_file(path) -> DesignSpec:
    with open(path) as fh:
        return parse_design_text(fh.read(), name=str(path))
