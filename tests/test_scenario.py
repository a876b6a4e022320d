"""Scenario and design file parsing."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from bdcsim.circuit import BatteryModel, CircuitState, ConverterParams
from bdcsim.control import ControllerConfig, Mode
from bdcsim.design import DesignSpec, design
from bdcsim.scenario import (
    ScenarioParseError,
    parse_design_text,
    parse_quantity,
    parse_scenario_file,
    parse_scenario_text,
)
from bdcsim.sim import Scenario, Trace, run

MINIMAL = """
[converter]
v_bus_nominal = 24
l_p = 1m
c_bus = 1000u
c_o = 250u
f_s = 20k
r_load = 10
[battery]
v_emf_full = 12
capacity = 7200
[controller]
i_charge_ref = 3
[source]
until=1 volts=24
[sim]
t_end = 1m
dt = 2.5u
"""


class TestParseQuantity:
    @pytest.mark.parametrize("token,expected", [
        ("24", 24.0),
        ("1m", 1e-3),
        ("250u", 250e-6),
        ("250µ", 250e-6),
        ("50n", 50e-9),
        ("3p", 3e-12),
        ("20k", 20e3),
        ("1.5M", 1.5e6),
        ("2G", 2e9),
        ("-0.5m", -0.5e-3),
        ("2.5e-6", 2.5e-6),
    ])
    def test_suffixes(self, token, expected):
        assert parse_quantity(token) == pytest.approx(expected, rel=1e-12)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_quantity("ten")
        with pytest.raises(ValueError):
            parse_quantity("")

    @pytest.mark.parametrize("token",
                             ["inf", "-inf", "Infinity", "NaN", "infk", "1e308k"])
    def test_rejects_non_finite(self, token):
        with pytest.raises(ValueError, match="finite"):
            parse_quantity(token)


class TestScenarioParsing:
    def test_minimal_document(self):
        scn = parse_scenario_text(MINIMAL)
        assert scn.params.f_s == 20e3
        assert scn.battery.v_emf_empty == 12.0  # defaults to v_emf_full
        assert scn.controller.i_charge_ref == 3.0
        assert scn.t_end == pytest.approx(1e-3)
        assert scn.source.voltage(0.0) == 24.0

    def test_comments_and_blank_lines_ignored(self):
        scn = parse_scenario_text("# leading comment\n" + MINIMAL.replace(
            "r_load = 10", "r_load = 10   # ohm"))
        assert scn.params.r_load == 10.0

    def test_ramp_segment(self):
        text = MINIMAL.replace("until=1 volts=24",
                               "until=10m volts=24\nuntil=20m from=24 to=0")
        scn = parse_scenario_text(text)
        assert scn.source.voltage(15e-3) == pytest.approx(12.0)

    def test_initial_mode_and_overrides(self):
        text = MINIMAL + "initial_mode = discharging\ninit_i_l = -2\ninit_v_c_bus = 20\n"
        scn = parse_scenario_text(text)
        assert scn.initial_mode is Mode.DISCHARGING
        assert scn.initial_state.i_l == -2.0
        assert scn.initial_state.v_c_bus == 20.0
        assert scn.initial_state.v_c_o == 0.0  # unspecified: cold default

    def test_init_key_at_its_default_gives_the_start_state(self):
        """The parser's init_* defaults are the engine's start state."""
        text = MINIMAL.replace("capacity = 7200", "capacity = 7200\nsoc = 0.3")
        bare = parse_scenario_text(text)
        given = parse_scenario_text(text + "init_i_l = 0\n")
        assert bare.initial_state is None
        assert given.initial_state == bare.start_state()
        a, b = run(bare), run(given)
        for f in fields(Trace):
            assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name

    def test_unknown_key_reports_line(self):
        text = MINIMAL.replace("r_load = 10", "r_loda = 10")
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario_text(text)
        assert "r_loda" in str(info.value)
        assert info.value.line is not None

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioParseError, match="unknown section"):
            parse_scenario_text(MINIMAL + "[magnetics]\nturns = 10\n")

    def test_missing_section_rejected(self):
        text = MINIMAL.replace("[battery]\nv_emf_full = 12\ncapacity = 7200\n", "")
        with pytest.raises(ScenarioParseError, match=r"\[battery\]"):
            parse_scenario_text(text)

    def test_missing_required_key_rejected(self):
        text = MINIMAL.replace("capacity = 7200\n", "")
        with pytest.raises(ScenarioParseError, match="capacity"):
            parse_scenario_text(text)

    def test_empty_document_rejected(self):
        with pytest.raises(ScenarioParseError, match="missing section"):
            parse_scenario_text("")

    def test_content_before_section_rejected(self):
        with pytest.raises(ScenarioParseError, match="before any"):
            parse_scenario_text("t_end = 1m\n" + MINIMAL)

    def test_bad_segment_grammar(self):
        text = MINIMAL.replace("until=1 volts=24", "until=1 amps=3")
        with pytest.raises(ScenarioParseError, match="segment"):
            parse_scenario_text(text)

    def test_segment_needs_until(self):
        text = MINIMAL.replace("until=1 volts=24", "volts=24")
        with pytest.raises(ScenarioParseError, match="until"):
            parse_scenario_text(text)

    def test_embedded_invariants_propagate(self):
        text = MINIMAL.replace("l_p = 1m", "l_p = 0")
        with pytest.raises(ScenarioParseError, match="l_p"):
            parse_scenario_text(text)

    def test_fractional_record_decimation_rejected(self):
        with pytest.raises(ScenarioParseError, match="record_decimation") as info:
            parse_scenario_text(MINIMAL + "record_decimation = 2.7\n")
        assert info.value.line is not None
        scn = parse_scenario_text(MINIMAL + "record_decimation = 3\n")
        assert scn.record_decimation == 3

    def test_bundled_scenarios_parse(self, scenarios_dir):
        for path in sorted(scenarios_dir.glob("*.scenario")):
            scn = parse_scenario_file(path)
            assert scn.t_end > 0, path


class TestDesignParsing:
    DESIGN = """
[design]
pv_voltage = 24
pv_current = 3
battery_voltage = 12
switching_frequency = 20k
load_voltage = 24
load_current = 2.4
ripple_current = 0.3
"""

    def test_round_trips_to_flag_equivalent(self):
        """A parsed design file and directly constructed spec produce the
        same results."""
        parsed = parse_design_text(self.DESIGN)
        direct = DesignSpec(pv_voltage=24.0, pv_current=3.0, battery_voltage=12.0,
                            switching_frequency=20e3, load_voltage=24.0,
                            load_current=2.4, ripple_current=0.3)
        assert parsed == direct
        assert design(parsed) == design(direct)

    def test_missing_key_rejected(self):
        with pytest.raises(ScenarioParseError, match="ripple_current"):
            parse_design_text(self.DESIGN.replace("ripple_current = 0.3", ""))

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioParseError, match="efficiency"):
            parse_design_text(self.DESIGN + "efficiency = 0.9\n")


class TestRejectedValues:
    @pytest.mark.parametrize("edit", [
        {"f_s = 20k": "f_s = 1e-300", "dt = 2.5u": "dt = 1e-300"},  # f_s*dt is 0
        {"dt = 2.5u": "dt = 1e-320"},                              # 1/(f_s*dt) is inf
        {"t_end = 1m": "t_end = 1e300", "dt = 2.5u": "dt = 1e-300"},  # t_end/dt is inf
    ])
    def test_step_count_must_be_finite(self, edit):
        text = MINIMAL
        for old, new in edit.items():
            text = text.replace(old, new)
        with pytest.raises(ScenarioParseError, match="finite step count"):
            parse_scenario_text(text)

    @pytest.mark.parametrize("soc", ["3", "-0.1", "1.0001"])
    def test_initial_soc_outside_unit_interval(self, soc):
        with pytest.raises(ScenarioParseError, match=r"soc must be in \[0, 1\]"):
            parse_scenario_text(MINIMAL + f"init_soc = {soc}\n")
        assert parse_scenario_text(MINIMAL + "init_soc = 1\n").initial_state.soc == 1.0

    @pytest.mark.parametrize("key", ["i_limit", "v_limit"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_divergence_bound_must_be_positive(self, key, value):
        with pytest.raises(ScenarioParseError, match=f"{key} must be positive"):
            parse_scenario_text(MINIMAL + f"{key} = {value}\n")

    @pytest.mark.parametrize("duty", ["2", "-0.1", "1.0001"])
    def test_initial_duty_outside_unit_interval(self, duty):
        with pytest.raises(ScenarioParseError, match=r"initial_duty must be in \[0, 1\]"):
            parse_scenario_text(MINIMAL + f"initial_duty = {duty}\n")
        assert parse_scenario_text(MINIMAL + "initial_duty = 1\n").initial_duty == 1.0

    @pytest.mark.parametrize("line, field", [
        ("init_i_l = 1000", "i_l"), ("init_i_l = -100.5", "i_l"),
        ("init_v_c_bus = -300", "v_c_bus"), ("init_v_c_o = 500", "v_c_o"),
        ("init_v_c_o = 200\nv_limit = 199", "v_c_o")])
    def test_start_state_outside_divergence_bounds(self, line, field):
        with pytest.raises(ScenarioParseError, match=f"initial_state.{field} = .* exceeds"):
            parse_scenario_text(MINIMAL + line + "\n")

    def test_start_state_on_divergence_bounds(self):
        scn = parse_scenario_text(
            MINIMAL + "init_i_l = -100\ninit_v_c_bus = 200\ninit_v_c_o = -200\n")
        assert (scn.initial_state.i_l, scn.initial_state.v_c_o) == (-100.0, -200.0)

    def test_initial_duty_with_fixed_duty(self):
        with pytest.raises(ScenarioParseError,
                           match="initial_duty has no effect with fixed_duty"):
            parse_scenario_text(MINIMAL + "initial_duty = 0.3\nfixed_duty = 0.6\n"
                                "initial_mode = discharging\n")

    def test_duplicate_key_reports_second_line(self):
        text = MINIMAL.replace("l_p = 1m", "l_p = 1m\nl_p = 2m")
        second = text.splitlines().index("l_p = 2m") + 1
        with pytest.raises(ScenarioParseError, match="duplicate key 'l_p'") as info:
            parse_scenario_text(text)
        assert info.value.line == second

    def test_duplicate_key_across_repeated_headers(self):
        with pytest.raises(ScenarioParseError, match="duplicate key 'dt'"):
            parse_scenario_text(MINIMAL + "[sim]\ndt = 5u\n")

    def test_repeated_section_header_is_legal(self):
        scn = parse_scenario_text(MINIMAL + "[converter]\nr_on = 10m\n[sim]\ni_limit = 50\n")
        assert scn.params.r_on == pytest.approx(10e-3)
        assert scn.i_limit == 50.0

    def test_duplicate_design_key(self):
        text = TestDesignParsing.DESIGN + "pv_current = 4\n"
        with pytest.raises(ScenarioParseError, match="duplicate key 'pv_current'") as info:
            parse_design_text(text)
        assert info.value.line == len(text.splitlines())


# One non-default value for every key a scenario file takes, by section.
EVERY_KEY = {
    "converter": {"v_bus_nominal": 30.0, "l_p": 2e-3, "c_bus": 900e-6, "c_o": 200e-6,
                  "f_s": 25e3, "r_load": 12.0, "r_on": 0.01, "v_f": 0.7,
                  "r_source": 0.5, "r_link": 0.03},
    "battery": {"v_emf_full": 13.0, "v_emf_empty": 11.0, "r_int": 0.05,
                "capacity": 3600.0, "soc": 0.3},
    "controller": {"v_ref_load": 20.0, "i_charge_ref": 2.0, "v_float": 14.0,
                   "v_bus_low": 11.0, "v_bus_high": 19.0, "duty_step": 0.002,
                   "duty_min": 0.05, "duty_max": 0.9, "i_deadband": 0.02,
                   "v_deadband": 0.2},
    "sim": {"t_end": 2e-3, "dt": 2e-6, "record_decimation": 5, "i_limit": 50.0,
            "v_limit": 150.0, "fixed_duty": 0.4, "initial_mode": Mode.CHARGING,
            "initial_duty": 0.3, "init_i_l": 0.5, "init_v_c_bus": 22.0,
            "init_v_c_o": 18.0, "init_soc": 0.7},
}


def _text(value):
    return value.value if isinstance(value, Mode) else repr(value)


def _document(without: str) -> str:
    """A scenario document that sets every key in EVERY_KEY but `without`:
    fixed_duty excludes initial_duty, so no document can set both."""
    return "[source]\nuntil=10m volts=24\nuntil=20m from=24 to=0\n" + "".join(
        f"[{section}]\n" + "".join(f"{k} = {_text(v)}\n" for k, v in keys.items()
                                  if k != without)
        for section, keys in EVERY_KEY.items())


class TestRoundTrip:
    def test_every_scenario_key(self):
        objects = {"converter": ConverterParams, "battery": BatteryModel,
                   "controller": ControllerConfig}
        for section, cls in objects.items():
            assert set(EVERY_KEY[section]) == {f.name for f in fields(cls)}, section
        scalars = {f.name for f in fields(Scenario)} - {
            "params", "battery", "controller", "source", "initial_state"}
        state = {"init_" + f.name for f in fields(CircuitState) if f.name != "t"}
        assert set(EVERY_KEY["sim"]) == scalars | state

        for without in ("initial_duty", "fixed_duty"):
            scn = parse_scenario_text(_document(without))
            built = {"converter": scn.params, "battery": scn.battery,
                     "controller": scn.controller, "sim": scn}
            for section, keys in EVERY_KEY.items():
                for key, value in keys.items():
                    obj = built[section]
                    if key.startswith("init_"):
                        obj, key = scn.initial_state, key[len("init_"):]
                    got = getattr(obj, key)
                    field = {f.name: f for f in fields(type(obj))}[key]
                    if key == without:
                        assert got == field.default, (section, key)
                        continue
                    assert got == value and type(got) is type(value), (section, key)
                    assert got != field.default, (section, key)
            assert scn.initial_state.t == 0.0

    def test_every_design_key(self):
        values = {"pv_voltage": 30.0, "pv_current": 2.0, "battery_voltage": 13.0,
                  "switching_frequency": 25e3, "load_voltage": 26.0,
                  "load_current": 1.5, "ripple_current": 0.2, "ripple_fraction": 0.02}
        assert set(values) == {f.name for f in fields(DesignSpec)}
        spec = parse_design_text(
            "[design]\n" + "".join(f"{k} = {v!r}\n" for k, v in values.items()))
        assert spec == DesignSpec(**values)
        assert spec.ripple_fraction != DesignSpec.ripple_fraction


# Grammar-drawn documents: a valid scenario or design document with a few
# edits, each of which gives one key = value line a drawn value, or inserts
# or replaces a line with one drawn from the grammar, known and not.
_ALL_KEYS = sorted(set(EVERY_KEY["sim"]).union(*EVERY_KEY.values(),
                                                (f.name for f in fields(DesignSpec)),
                                                ["init_t", "params", "turns", ""]))
_VALUES = st.sampled_from(
    ["24", "1m", "20k", "2.5u", "50n", "3.5G", "0", "-1", "-2.5m", "inf", "-inf", "nan",
     "1e-320", "1e-300", "1e300", "1e308k", "twelve", "", "1 2", "0.5", "3", "2.7",
     "charging", "Discharging", "k", "µ"]) | st.floats().map(repr)
_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_ALL_KEYS), _VALUES),
    st.builds("until={} volts={}".format, _VALUES, _VALUES),
    st.builds("until={} from={} to={}".format, _VALUES, _VALUES, _VALUES),
    st.builds("{}={}".format, st.sampled_from(["until", "volts", "from", "amps"]), _VALUES),
    st.sampled_from(["[converter]", "[battery]", "[controller]", "[source]", "[sim]",
                     "[design]", "[Sim]", "[magnetics]", "[]", "no equals sign", "= 3",
                     "# comment", ""]),
)
_BASES = [
    MINIMAL.splitlines(),
    _document("initial_duty").splitlines(),
    TestDesignParsing.DESIGN.splitlines(),
]


@settings(max_examples=200)
@given(base=st.sampled_from(_BASES),
       edits=st.lists(st.tuples(st.integers(0, 60), st.booleans(), _LINES, _VALUES),
                      max_size=6))
def test_any_document_parses_or_raises_parse_error(base, edits):
    lines = list(base)
    for position, replace_line, line, value in edits:
        position %= len(lines)
        key, sep, _ = lines[position].partition(" = ")
        if replace_line:                # a drawn line in place of this one
            lines[position] = line
        elif sep:                       # a drawn value for this key
            lines[position] = key + sep + value
        else:                           # a drawn line after this one
            lines.insert(position + 1, line)
    _parses_or_raises_parse_error("\n".join(lines))


_EDGE_VALUES = ["0", "-1", "1e-320", "1e-300", "5e-324", "1e300", "1.7976931348623157e308",
                "inf", "nan", "2.7", "twelve", "", "charging"]


@pytest.mark.parametrize("base", _BASES, ids=["minimal", "every_key", "design"])
def test_every_key_with_every_edge_value(base):
    """Each key = value line of a valid document, alone and, for the keys
    that set the step count, in pairs, given each edge value: every text
    parses or raises ScenarioParseError."""
    keyed = [i for i, line in enumerate(base) if " = " in line]
    edits = [[(i, v)] for i in keyed for v in _EDGE_VALUES]
    steps = [i for i in keyed if base[i].split(" = ")[0] in ("f_s", "dt", "t_end")]
    edits += [[(i, v), (j, w)] for i in steps for j in steps if i < j
              for v in _EDGE_VALUES for w in _EDGE_VALUES]
    for edit in edits:
        lines = list(base)
        for i, value in edit:
            lines[i] = lines[i].split(" = ")[0] + " = " + value
        _parses_or_raises_parse_error("\n".join(lines))


def _parses_or_raises_parse_error(text):
    for parse, kind in ((parse_scenario_text, Scenario), (parse_design_text, DesignSpec)):
        try:
            result = parse(text)
        except ScenarioParseError:
            continue
        assert isinstance(result, kind)
