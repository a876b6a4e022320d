"""Scenario and design file parsing."""

import pytest

from bdcsim.control import Mode
from bdcsim.design import DesignSpec, design
from bdcsim.scenario import (
    ScenarioParseError,
    parse_design_text,
    parse_quantity,
    parse_scenario_file,
    parse_scenario_text,
)

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
