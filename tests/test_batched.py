"""run() against the scalar kernel.

`sim._integrate` steps the plant one explicit Euler step at a time and is
the reference.  `run()` may advance whole carrier periods at once, which
sums in another order, so its float columns are held to the reference
within a tolerance scaled by each column's largest magnitude, while the
time base, the controller's decisions and the gates must match exactly.
The golden cases run 20 steps per period, which run() steps with the
scalar kernel alone, so they are also run at 64 steps per period, where
the period kernel takes over.
"""

from dataclasses import replace

import numpy as np
import pytest

from bdcsim import sim
from bdcsim.circuit import BatteryModel, CircuitState, ConverterParams
from bdcsim.control import ControllerConfig, Mode
from bdcsim.scenario import parse_scenario_file
from test_golden import GOLDEN, STAGE, build

EXACT = ("time", "mode", "duty", "s1", "s2")
CLOSE = ("i_l", "v_c_bus", "v_c_o", "v_batt_terminal", "i_batt", "soc",
         "e_source", "e_load", "e_battery", "e_link")
REL = 1e-9

BUNDLED = ("boost_discharge", "buck_charge", "mode_transition", "quick", "source_ramp")


def scalar_run(scn):
    state, ctrl = sim._initial_conditions(scn)
    return sim._integrate(scn, state, ctrl, round(scn.t_end / scn.dt))[0]


def assert_matches_scalar(scn):
    fast = sim.run(scn)
    ref = scalar_run(scn)
    for name in EXACT:
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
    for name in CLOSE:
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.shape == b.shape, name
        worst = float(np.max(np.abs(a - b), initial=0.0))
        tol = REL * float(np.max(np.abs(b), initial=0.0))
        assert worst <= tol, f"{name}: deviation {worst:.3g} above {tol:.3g}"
    return fast


def soc_saturation_scenario() -> sim.Scenario:
    """Buck charging into a tiny battery just below full: SoC reaches 1
    a few periods in and stays clamped there."""
    return sim.Scenario(
        params=ConverterParams(**STAGE),
        battery=BatteryModel(v_emf_full=12.6, v_emf_empty=11.8, r_int=0.1,
                             capacity=0.05, soc=0.98),
        controller=ControllerConfig(duty_step=0.002),
        source=sim.SourceProfile.constant(24.0),
        t_end=2e-3, dt=50e-9, record_decimation=1,
        initial_mode=Mode.CHARGING, initial_duty=0.55,
        initial_state=CircuitState(i_l=2.5, v_c_bus=24.0, v_c_o=23.95, soc=0.98,
                                   t=0.0))


def source_at_bus_scenario(r_source: float) -> sim.Scenario:
    """Boost discharging with the source held at the rail voltage: the bus
    ripples across it, so the source conducts (or clamps the bus, when
    stiff) for part of many periods."""
    return sim.Scenario(
        params=ConverterParams(**{**STAGE, "r_load": 20.0}, r_source=r_source),
        battery=BatteryModel(v_emf_full=12.0, v_emf_empty=12.0, r_int=0.3,
                             capacity=7200.0, soc=0.5),
        controller=ControllerConfig(duty_step=2e-5, i_deadband=0.08, v_deadband=0.05,
                                    v_bus_high=35.0),
        source=sim.SourceProfile.constant(24.0),
        t_end=10e-3, dt=50e-9, record_decimation=4,
        initial_mode=Mode.DISCHARGING, initial_duty=0.52)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_match_scalar(name, scenarios_dir):
    assert_matches_scalar(parse_scenario_file(scenarios_dir / f"{name}.scenario"))


@pytest.mark.parametrize("steps", [20, 64])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cases_match_scalar(name, steps, scenarios_dir):
    scn = build(name, scenarios_dir)
    assert_matches_scalar(replace(scn, dt=1.0 / (scn.params.f_s * steps)))


def test_soc_saturating_mid_period_matches_scalar():
    scn = soc_saturation_scenario()
    trace = assert_matches_scalar(scn)
    full = np.flatnonzero(trace.soc == 1.0)
    assert trace.soc[0] < 1.0 and len(full) > 0
    assert full[0] % scn.steps_per_period != 0, "saturation should fall mid-period"
    assert np.all(trace.mode == sim.MODE_CODES[Mode.CHARGING])


@pytest.mark.parametrize("r_source", [50.0, 0.0], ids=["weak", "stiff"])
def test_source_regime_changes_match_scalar(r_source):
    assert_matches_scalar(source_at_bus_scenario(r_source))


def test_divergence_matches_scalar():
    """A boost leg held near full duty winds the current past its bound
    inside a period; run() reports it as the scalar kernel does."""
    scn = sim.Scenario(
        params=ConverterParams(**STAGE), battery=BatteryModel.ideal(12.0),
        controller=ControllerConfig(), source=sim.SourceProfile.constant(0.0),
        t_end=0.05, dt=50e-9, record_decimation=4, i_limit=20.0,
        fixed_duty=0.95, initial_mode=Mode.DISCHARGING)
    with pytest.raises(sim.SimulationDiverged) as ref:
        scalar_run(scn)
    with pytest.raises(sim.SimulationDiverged) as fast:
        sim.run(scn)
    assert str(fast.value) == str(ref.value)
    assert fast.value.t == ref.value.t
    assert round(ref.value.t / scn.dt) % scn.steps_per_period != 0
