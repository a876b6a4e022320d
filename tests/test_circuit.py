"""Power-stage law, one engine step at a time: which device carries the
inductor current, the inductor voltage, the state derivatives and the
battery terminal voltage; plus parameter validation.

Each check drives a one-step :func:`bdcsim.sim.run` with the gates held
and reads the derivative back as (x' - x) / dt, which is exact for explicit
Euler up to rounding.
"""

from dataclasses import dataclass

import pytest

from bdcsim.circuit import BatteryModel, CircuitState, ConverterParams
from bdcsim.control import ControllerConfig, Mode
from bdcsim.sim import Scenario, SourceProfile, run

PARAMS = ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6, c_o=250e-6,
                         f_s=20e3, r_load=10.0)
BATTERY = BatteryModel.ideal(12.0)
DT = 2.5e-6
GATE_MODES = {"S1": Mode.CHARGING, "S2": Mode.DISCHARGING, "off": Mode.TRICKLE}


@dataclass(frozen=True)
class Kick:
    d_i_l: float              # A/s
    d_v_c_bus: float          # V/s
    d_v_c_o: float            # V/s
    d_soc: float              # 1/s
    i_l: float                # A, after the step
    v_batt: float             # V, terminal voltage the step used


def kick(gate, i_l=0.0, v_bus=24.0, v_o=24.0, soc=0.5, params=PARAMS,
         battery=BATTERY, v_s=0.0) -> Kick:
    """One step with the buck leg on ("S1"), the boost leg on ("S2") or both
    switches off ("off").  The default source (0 V, stiff) stays below the
    bus and feeds nothing."""
    # A fixed duty of one half in the mode that holds the gate: the wrap's
    # tick turns the gate on (or leaves both off) for the first step.
    trace = run(Scenario(
        params=params, battery=battery, controller=ControllerConfig(),
        source=SourceProfile.constant(v_s), t_end=DT, dt=DT, record_decimation=1,
        fixed_duty=0.5, initial_mode=GATE_MODES[gate],
        initial_state=CircuitState(i_l=i_l, v_c_bus=v_bus, v_c_o=v_o, soc=soc, t=0.0)))
    return Kick(d_i_l=(trace.i_l[1] - i_l) / DT, d_v_c_bus=(trace.v_c_bus[1] - v_bus) / DT,
                d_v_c_o=(trace.v_c_o[1] - v_o) / DT, d_soc=(trace.soc[1] - soc) / DT,
                i_l=trace.i_l[1], v_batt=trace.v_batt_terminal[0])


def inductor_volts(k: Kick) -> float:
    return k.d_i_l * PARAMS.l_p


class TestResolveTopology:
    """The conducting device shows in the inductor slope and in whether the
    bus node loses the inductor current (high side: S1, D1)."""

    def test_s1_gate_wins(self):
        k = kick("S1", i_l=1.0, v_o=24.0)
        assert inductor_volts(k) == pytest.approx(12.0)
        assert k.d_v_c_bus == pytest.approx(-1.0 / PARAMS.c_bus)

    def test_s2_gate_wins(self):
        k = kick("S2", i_l=-1.0)
        assert inductor_volts(k) == pytest.approx(-12.0)
        assert k.d_v_c_bus == 0.0

    def test_zero_current_idles(self):
        k = kick("off", i_l=0.0)
        assert k.i_l == 0.0
        assert k.d_v_c_bus == 0.0

    def test_negative_current_recovers_through_d1(self):
        k = kick("off", i_l=-0.8)
        assert inductor_volts(k) == pytest.approx(12.0)
        assert k.d_v_c_bus == pytest.approx(0.8 / PARAMS.c_bus)

    def test_positive_current_freewheels_through_d2(self):
        k = kick("off", i_l=2.0)
        assert inductor_volts(k) == pytest.approx(-12.0)
        assert k.d_v_c_bus == 0.0

    def test_exactly_one_path_over_grid(self):
        """Every (gates, current sign) combination follows exactly one
        path; the body diodes hand a current that would reverse to zero."""
        for gate in ("S1", "S2", "off"):
            for i_l in (-3.0, -1e-9, 0.0, 1e-9, 3.0):
                if gate == "S1" or (gate == "off" and i_l < 0.0):
                    expect = i_l + DT * 12.0 / PARAMS.l_p
                elif gate == "S2" or (gate == "off" and i_l > 0.0):
                    expect = i_l - DT * 12.0 / PARAMS.l_p
                else:
                    expect = 0.0
                if gate == "off" and i_l * expect < 0.0:
                    expect = 0.0
                assert kick(gate, i_l=i_l).i_l == pytest.approx(expect, abs=1e-15), \
                    (gate, i_l)


class TestInductorVoltage:
    def test_high_side_sees_bus_minus_battery(self):
        assert inductor_volts(kick("S1", i_l=1.0)) == pytest.approx(12.0)

    def test_freewheel_sees_minus_battery(self):
        assert inductor_volts(kick("off", i_l=1.0)) == pytest.approx(-12.0)

    def test_open_branch_is_zero(self):
        assert kick("off", i_l=0.0).d_i_l == 0.0

    def test_d1_matches_s1_when_ideal(self):
        assert inductor_volts(kick("off", i_l=-0.8)) == pytest.approx(12.0)

    def test_on_resistance_drop(self):
        lossy = ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6,
                                c_o=250e-6, f_s=20e3, r_load=10.0, r_on=0.1)
        k = kick("S1", i_l=2.0, params=lossy)
        assert inductor_volts(k) == pytest.approx(24.0 - 0.1 * 2.0 - 12.0)

    def test_diode_drop_speeds_decay(self):
        lossy = ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6,
                                c_o=250e-6, f_s=20e3, r_load=10.0, v_f=0.6)
        # Freewheel: the drop makes the voltage more negative.
        assert inductor_volts(kick("off", i_l=2.0, params=lossy)) == pytest.approx(-12.6)
        # Recovery: the drop makes the voltage more positive (current is negative).
        assert inductor_volts(kick("off", i_l=-2.0, params=lossy)) == pytest.approx(12.6)

    def test_slope_signs_in_continuous_conduction(self):
        """With v_bus > v_batt > 0 the current rises on the high-side paths
        and falls on the low-side paths."""
        for v_bus in (18.0, 24.0, 30.0):
            assert kick("S1", i_l=2.0, v_bus=v_bus).d_i_l > 0
            assert kick("off", i_l=-2.0, v_bus=v_bus).d_i_l > 0
            assert kick("S2", i_l=-2.0, v_bus=v_bus).d_i_l < 0
            assert kick("off", i_l=2.0, v_bus=v_bus).d_i_l < 0


class TestDerivatives:
    def test_buck_on_slope(self):
        assert kick("S1", i_l=0.0).d_i_l == pytest.approx(12000.0)

    def test_freewheel_slope(self):
        assert kick("off", i_l=1.0).d_i_l == pytest.approx(-12000.0)

    def test_idle_slope_is_zero(self):
        assert kick("off", i_l=0.0).d_i_l == 0.0

    def test_bus_node_balance_under_s1(self):
        weak = ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6,
                               c_o=250e-6, f_s=20e3, r_load=10.0, r_source=1.0)
        # 29 V behind 1 ohm into a 24 V bus: 5 A of source current.
        k = kick("S1", i_l=2.0, v_bus=24.0, v_o=23.0, params=weak, v_s=29.0)
        i_link = (24.0 - 23.0) / PARAMS.r_link
        assert k.d_v_c_bus == pytest.approx((5.0 - 2.0 - i_link) / PARAMS.c_bus)
        assert k.d_v_c_o == pytest.approx((i_link - 23.0 / 10.0) / PARAMS.c_o)

    def test_discharge_through_d1_charges_bus(self):
        """Negative inductor current through the high side raises the bus."""
        assert kick("off", i_l=-2.0, v_bus=20.0, v_o=20.0).d_v_c_bus > 0

    def test_low_side_draws_nothing_from_bus(self):
        assert kick("off", i_l=2.0, v_bus=24.0, v_o=24.0).d_v_c_bus == pytest.approx(0.0)

    def test_soc_rate_is_current_over_capacity(self):
        assert kick("S1", i_l=3.0).d_soc == pytest.approx(3.0 / BATTERY.capacity)


class TestBattery:
    def test_full_battery_open_circuit(self):
        bat = BatteryModel(v_emf_full=12.0, v_emf_empty=12.0, r_int=0.0,
                           capacity=7200.0, soc=1.0)
        assert kick("off", soc=1.0, battery=bat).v_batt == pytest.approx(12.0)

    def test_charging_raises_terminal_voltage(self):
        bat = BatteryModel(v_emf_full=12.0, v_emf_empty=12.0, r_int=0.1,
                           capacity=7200.0, soc=1.0)
        assert kick("S1", i_l=3.0, soc=1.0, battery=bat).v_batt == pytest.approx(12.3)

    def test_zero_current_gives_emf(self):
        bat = BatteryModel(v_emf_full=13.8, v_emf_empty=11.4, r_int=0.5,
                           capacity=7200.0, soc=0.25)
        assert kick("off", soc=0.25, battery=bat).v_batt == pytest.approx(12.0)

    def test_emf_interpolates_linearly(self):
        bat = BatteryModel(v_emf_full=13.8, v_emf_empty=11.4, r_int=0.0,
                           capacity=7200.0, soc=0.5)
        assert kick("off", soc=0.0, battery=bat).v_batt == pytest.approx(11.4)
        assert kick("off", soc=1.0, battery=bat).v_batt == pytest.approx(13.8)
        assert kick("off", soc=0.5, battery=bat).v_batt == pytest.approx(12.6)

    def test_live_soc_overrides_stored(self):
        """The engine reads the integrated soc, not the model's initial one."""
        bat = BatteryModel(v_emf_full=13.8, v_emf_empty=11.4, r_int=0.0,
                           capacity=7200.0, soc=0.5)
        assert kick("off", soc=1.0, battery=bat).v_batt == pytest.approx(13.8)


class TestValidation:
    def test_rejects_nonpositive_inductance(self):
        with pytest.raises(ValueError, match="l_p"):
            ConverterParams(v_bus_nominal=24.0, l_p=0.0, c_bus=1e-3, c_o=1e-4,
                            f_s=20e3, r_load=10.0)

    def test_rejects_negative_on_resistance(self):
        with pytest.raises(ValueError, match="r_on"):
            ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1e-3, c_o=1e-4,
                            f_s=20e3, r_load=10.0, r_on=-0.1)

    def test_rejects_soc_out_of_range(self):
        with pytest.raises(ValueError, match="soc"):
            BatteryModel(v_emf_full=12.0, v_emf_empty=12.0, r_int=0.0,
                         capacity=7200.0, soc=1.2)

    def test_rejects_inverted_emf_span(self):
        with pytest.raises(ValueError, match="v_emf_empty"):
            BatteryModel(v_emf_full=11.0, v_emf_empty=12.0, r_int=0.0, capacity=7200.0)
