"""Controller: mode supervisor, PWM gating, incremental regulation."""

import math

import pytest

from bdcsim.analysis import current_envelope
from bdcsim.control import (
    TRICKLE_EXIT_DROP,
    CcCvPhase,
    ControllerConfig,
    ControllerState,
    Mode,
    gate_steps,
    initial_controller_state,
    pwm_gate,
    regulate,
    select_mode,
)

CFG = ControllerConfig()  # v_bus_low=12.6, v_bus_high=20.4, v_float=13.8


def ctrl(mode, duty=0.5, phase=CcCvPhase.CONSTANT_CURRENT):
    return ControllerState(mode=mode, duty=duty, cc_cv_phase=phase)


def reference_mode(v_bus, v_batt, prev, cfg):
    """Independent enumeration of the supervisor decision regions."""
    below_low = v_bus <= cfg.v_bus_low
    above_high = v_bus >= cfg.v_bus_high
    batt_full = v_batt >= cfg.v_float
    batt_rested = v_batt < cfg.v_float - TRICKLE_EXIT_DROP
    if below_low:
        return Mode.DISCHARGING
    if not above_high and prev is Mode.DISCHARGING:
        return Mode.DISCHARGING
    if prev is Mode.TRICKLE:
        return Mode.CHARGING if batt_rested else Mode.TRICKLE
    if prev is Mode.CHARGING and batt_full:
        return Mode.TRICKLE
    return Mode.CHARGING


class TestSelectMode:
    def test_sufficient_source_charges(self):
        assert select_mode(24.0, 12.0, 0.5, Mode.DISCHARGING, CFG) is Mode.CHARGING

    def test_collapsed_source_discharges(self):
        assert select_mode(0.0, 12.0, 0.5, Mode.CHARGING, CFG) is Mode.DISCHARGING

    def test_band_retains_previous_mode(self):
        mid = 0.5 * (CFG.v_bus_low + CFG.v_bus_high)
        assert select_mode(mid, 12.0, 0.5, Mode.CHARGING, CFG) is Mode.CHARGING
        assert select_mode(mid, 12.0, 0.5, Mode.DISCHARGING, CFG) is Mode.DISCHARGING

    def test_full_battery_rests(self):
        assert select_mode(24.0, CFG.v_float, 0.5, Mode.CHARGING, CFG) is Mode.TRICKLE

    def test_rested_battery_resumes_charging(self):
        v_resume = CFG.v_float - TRICKLE_EXIT_DROP - 0.01
        assert select_mode(24.0, v_resume, 0.5, Mode.TRICKLE, CFG) is Mode.CHARGING
        assert select_mode(24.0, CFG.v_float - 0.1, 0.5, Mode.TRICKLE, CFG) is Mode.TRICKLE

    def test_matches_reference_enumeration(self):
        """Sweep a grid of (v_bus, v_batt, prev), the edges of the bands,
        infinities and NaN among the battery voltages, against the
        independently written region table."""
        v_bus_grid = [0.0, 5.0, CFG.v_bus_low, 13.0, 16.0, 20.0, CFG.v_bus_high,
                      24.0, 30.0]
        resume = CFG.v_float - TRICKLE_EXIT_DROP
        v_batt_grid = [11.0, 12.0, CFG.v_float - 0.3, CFG.v_float - 0.1,
                       CFG.v_float, 14.5, resume, math.nextafter(resume, 0.0),
                       math.nextafter(CFG.v_float, 0.0), -math.inf, math.inf, math.nan]
        for v_bus in v_bus_grid:
            for v_batt in v_batt_grid:
                for prev in Mode:
                    got = select_mode(v_bus, v_batt, 0.5, prev, CFG)
                    want = reference_mode(v_bus, v_batt, prev, CFG)
                    assert got is want, (
                        f"v_bus={v_bus}, v_batt={v_batt}, prev={prev}: "
                        f"got {got}, want {want}")

    def test_single_transition_on_monotone_sweeps(self):
        """Rising sweep flips discharging->charging exactly once; falling
        sweep flips back exactly once (hysteresis, no chattering)."""
        mode = Mode.DISCHARGING
        ups = 0
        for k in range(3001):
            v = 30.0 * k / 3000
            new = select_mode(v, 12.0, 0.5, mode, CFG)
            if new is not mode:
                ups += 1
                assert (mode, new) == (Mode.DISCHARGING, Mode.CHARGING)
            mode = new
        assert ups == 1
        downs = 0
        for k in range(3001):
            v = 30.0 * (3000 - k) / 3000
            new = select_mode(v, 12.0, 0.5, mode, CFG)
            if new is not mode:
                downs += 1
                assert (mode, new) == (Mode.CHARGING, Mode.DISCHARGING)
            mode = new
        assert downs == 1


class TestPwmGate:
    def test_charging_drives_buck_leg(self):
        g = pwm_gate(0.3, 0.5, Mode.CHARGING)
        assert (g.s1_on, g.s2_on) == (True, False)

    def test_discharging_drives_boost_leg(self):
        g = pwm_gate(0.3, 0.5, Mode.DISCHARGING)
        assert (g.s1_on, g.s2_on) == (False, True)

    def test_phase_past_duty_switches_off(self):
        g = pwm_gate(0.7, 0.5, Mode.DISCHARGING)
        assert (g.s1_on, g.s2_on) == (False, False)

    def test_trickle_disconnects(self):
        for phase in (0.0, 0.3, 0.99):
            g = pwm_gate(phase, 0.9, Mode.TRICKLE)
            assert (g.s1_on, g.s2_on) == (False, False)

    def test_never_both_on(self):
        for mode in Mode:
            for k in range(101):
                phase = k / 101
                for duty in (0.0, 0.25, 0.5, 0.95, 1.0):
                    g = pwm_gate(phase, duty, mode)
                    assert not (g.s1_on and g.s2_on)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_gate_steps_are_the_gates_at_the_quantised_duty(self, mode):
        """gate_steps rounds duty * n half to even, as the engine gates,
        and pwm_gate at phase j / n and that duty gives its gates."""
        n = 20
        for duty in (0.0, 0.025, 0.075, 0.3, 0.5125, 1.0):
            on1, on2 = gate_steps(duty, mode, n)
            on = round(duty * n)
            assert (on1, on2) == {Mode.CHARGING: (on, 0), Mode.DISCHARGING: (0, on),
                                  Mode.TRICKLE: (0, 0)}[mode]
            for j in range(n):
                g = pwm_gate(j / n, on / n, mode)
                assert (g.s1_on, g.s2_on) == (j < on1, j < on2)

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError, match="carrier_phase"):
            pwm_gate(1.0, 0.5, Mode.CHARGING)

    def test_rejects_bad_duty(self):
        with pytest.raises(ValueError, match="duty"):
            pwm_gate(0.5, 1.5, Mode.CHARGING)


class TestRegulate:
    def test_boost_raises_duty_under_voltage(self):
        st = regulate(23.0, 0.0, 12.0, ctrl(Mode.DISCHARGING, 0.50), CFG)
        assert st.duty == pytest.approx(0.505)

    def test_boost_lowers_duty_over_voltage(self):
        st = regulate(25.0, 0.0, 12.0, ctrl(Mode.DISCHARGING, 0.50), CFG)
        assert st.duty == pytest.approx(0.495)

    def test_boost_holds_on_reference(self):
        st = regulate(24.0, 0.0, 12.0, ctrl(Mode.DISCHARGING, 0.50), CFG)
        assert st.duty == pytest.approx(0.50)

    def test_boost_holds_inside_deadband(self):
        st = regulate(24.0 + 0.5 * CFG.v_deadband, 0.0, 12.0,
                      ctrl(Mode.DISCHARGING, 0.50), CFG)
        assert st.duty == pytest.approx(0.50)

    def test_cc_raises_duty_under_current(self):
        st = regulate(24.0, 2.0, 12.0, ctrl(Mode.CHARGING, 0.50), CFG)
        assert st.duty == pytest.approx(0.505)

    def test_cc_lowers_duty_over_current(self):
        st = regulate(24.0, 4.0, 12.0, ctrl(Mode.CHARGING, 0.50), CFG)
        assert st.duty == pytest.approx(0.495)

    def test_cc_hands_over_to_cv_at_float(self):
        st = regulate(24.0, 1.0, CFG.v_float, ctrl(Mode.CHARGING, 0.50), CFG)
        assert st.cc_cv_phase is CcCvPhase.CONSTANT_VOLTAGE
        # Battery at the float target: the CV rule holds.
        assert st.duty == pytest.approx(0.50)

    def test_cv_regulates_battery_voltage(self):
        cv = ctrl(Mode.CHARGING, 0.50, CcCvPhase.CONSTANT_VOLTAGE)
        low = regulate(24.0, 1.0, CFG.v_float - 1.0, cv, CFG)
        assert low.duty == pytest.approx(0.505)
        high = regulate(24.0, 1.0, CFG.v_float + 1.0, cv, CFG)
        assert high.duty == pytest.approx(0.495)

    def test_trickle_leaves_state_untouched(self):
        st = ctrl(Mode.TRICKLE, 0.37)
        assert regulate(10.0, 0.0, 12.0, st, CFG) is st

    def test_held_duty_returns_the_state_itself(self):
        st = ctrl(Mode.DISCHARGING, 0.50)
        assert regulate(24.0, 0.0, 12.0, st, CFG) is st
        moved = regulate(23.0, 0.0, 12.0, st, CFG)
        assert moved is not st and moved.mode is st.mode

    def test_duty_saturates(self):
        near_max = ctrl(Mode.DISCHARGING, CFG.duty_max - 0.001)
        st = regulate(20.0, 0.0, 12.0, near_max, CFG)
        assert st.duty == pytest.approx(CFG.duty_max)
        near_min = ctrl(Mode.DISCHARGING, CFG.duty_min + 0.001)
        st = regulate(30.0, 0.0, 12.0, near_min, CFG)
        assert st.duty == pytest.approx(CFG.duty_min)

    def test_duty_always_in_bounds(self):
        st = ctrl(Mode.DISCHARGING, CFG.duty_min)
        for v_load in (0.0, 10.0, 23.9, 24.0, 24.1, 40.0):
            st = regulate(v_load, 0.0, 12.0, st, CFG)
            assert CFG.duty_min <= st.duty <= CFG.duty_max


class TestEnvelope:
    """Inductor-current envelope around the regulated average (the function
    lives in bdcsim.analysis)."""

    def test_envelope_around_charging_setpoint(self):
        assert current_envelope(3.0, 0.3) == pytest.approx((2.85, 3.15))

    def test_zero_ripple_collapses(self):
        assert current_envelope(2.0, 0.0) == pytest.approx((2.0, 2.0))

    def test_hand_evaluated_case(self):
        assert current_envelope(2.0, 0.6) == pytest.approx((1.7, 2.3))

    def test_rejects_negative_ripple(self):
        with pytest.raises(ValueError, match="ripple"):
            current_envelope(2.0, -0.1)


def test_initial_state_soft_starts_at_duty_floor():
    st = initial_controller_state(CFG)
    assert st.duty == CFG.duty_min
    assert st.mode is Mode.TRICKLE


def test_config_validation():
    with pytest.raises(ValueError, match="duty_min"):
        ControllerConfig(duty_min=0.5, duty_max=0.5)
    with pytest.raises(ValueError, match="v_bus_low"):
        ControllerConfig(v_bus_low=21.0, v_bus_high=20.0)
    with pytest.raises(ValueError, match="duty_step"):
        ControllerConfig(duty_step=0.0)
