"""Golden traces: the engine's output is pinned bit for bit.

Each case hashes all fifteen Trace arrays (the eleven CSV columns and the
four energy meters) with SHA-256.  Between them the cases exercise a ramp
segment, the charging <-> discharging and charging <-> trickle transitions,
a weak source (r_source > 0), the discontinuous-conduction clamp, lossy
devices (r_on, v_f > 0) and the open-loop fixed_duty override.  A refactor
of the engine must leave every digest unchanged; a change that alters the
numbers on purpose updates them and says why.
"""

import hashlib

import numpy as np
import pytest

from bdcsim.circuit import BatteryModel, CircuitState, ConverterParams
from bdcsim.control import ControllerConfig, Mode
from bdcsim.scenario import parse_scenario_file
from bdcsim.sim import MODE_NAMES, Scenario, SourceProfile, SourceSegment, run

FIELDS = ("time", "i_l", "v_c_bus", "v_c_o", "v_batt_terminal", "i_batt", "soc",
          "mode", "duty", "s1", "s2", "e_source", "e_load", "e_battery", "e_link")

STAGE = dict(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6, c_o=250e-6, f_s=20e3,
             r_load=10.0)


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        arr = np.ascontiguousarray(getattr(trace, name))
        h.update(name.encode())
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def transitions(trace) -> set:
    m = trace.mode
    idx = np.nonzero(np.diff(m))[0]
    return {(MODE_NAMES[int(m[i])], MODE_NAMES[int(m[i + 1])]) for i in idx}


def ramp_scenario() -> Scenario:
    """Weak, lossy source ramped up and back down under closed-loop control."""
    return Scenario(
        params=ConverterParams(**STAGE, r_on=0.05, v_f=0.7, r_source=0.5),
        battery=BatteryModel(v_emf_full=12.6, v_emf_empty=11.8, r_int=0.1,
                             capacity=7200.0, soc=0.5),
        controller=ControllerConfig(duty_step=0.001, i_deadband=0.08),
        source=SourceProfile(segments=(
            SourceSegment(until=0.03, v_start=0.0, v_end=30.0),
            SourceSegment(until=0.06, v_start=30.0, v_end=30.0),
            SourceSegment(until=0.08, v_start=30.0, v_end=10.0),
        )),
        t_end=0.09, dt=2.5e-6, record_decimation=3,
        initial_mode=Mode.DISCHARGING, initial_duty=0.5,
        initial_state=CircuitState(i_l=0.0, v_c_bus=0.0, v_c_o=24.0, soc=0.5, t=0.0))


def dcm_scenario() -> Scenario:
    """Open-loop buck at a duty too small to sustain the current."""
    return Scenario(
        params=ConverterParams(**STAGE, r_on=0.05, v_f=0.7),
        battery=BatteryModel.ideal(12.0),
        controller=ControllerConfig(),
        source=SourceProfile.constant(24.0),
        t_end=5e-3, dt=2.5e-6, record_decimation=1,
        fixed_duty=0.1, initial_mode=Mode.CHARGING,
        initial_state=CircuitState(i_l=0.5, v_c_bus=24.0, v_c_o=23.95, soc=0.5, t=0.0))


def trickle_scenario() -> Scenario:
    """Resistive battery near float: charging and rest alternate."""
    return Scenario(
        params=ConverterParams(**STAGE),
        battery=BatteryModel(v_emf_full=13.9, v_emf_empty=13.0, r_int=0.3,
                             capacity=7200.0, soc=0.55),
        controller=ControllerConfig(duty_step=0.005),
        source=SourceProfile.constant(24.0),
        t_end=0.05, dt=2.5e-6, record_decimation=2,
        initial_mode=Mode.CHARGING, initial_duty=0.6)


def boost_scenario() -> Scenario:
    """Open-loop boost from the battery with the source collapsed behind
    a series resistance."""
    return Scenario(
        params=ConverterParams(**STAGE, r_source=1.0),
        battery=BatteryModel.ideal(12.0),
        controller=ControllerConfig(),
        source=SourceProfile.constant(0.0),
        t_end=0.02, dt=2.5e-6, record_decimation=5,
        fixed_duty=0.5, initial_mode=Mode.DISCHARGING,
        initial_state=CircuitState(i_l=0.0, v_c_bus=24.0, v_c_o=24.0, soc=0.5, t=0.0))


GOLDEN = {
    "quick": "09c8443718cad78106e62d1ae4e7abf208a7996896979f36e0ade2b254ab7ff9",
    "ramp": "8a9cf77f61f677aaba20c92ee9b6b8eae63cd8d27259325b43e60ccfe745019c",
    "dcm": "3ec25487377b8d0d1ebf67c7faab71d64cd5ef9a7f79e60c6d9871cac8840df5",
    "trickle": "76b48a899052fee8de01d1f27dac4cbb893629659b8b0aba7d002de401ce3b88",
    "boost": "0632c5a501f923f86fe569ea71a6b446592e7060d1b6488200a6b9faa95efafc",
}


def build(name, scenarios_dir) -> Scenario:
    if name == "quick":
        return parse_scenario_file(scenarios_dir / "quick.scenario")
    return {"ramp": ramp_scenario, "dcm": dcm_scenario,
            "trickle": trickle_scenario, "boost": boost_scenario}[name]()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_digest_unchanged(name, scenarios_dir):
    assert trace_digest(run(build(name, scenarios_dir))) == GOLDEN[name]


def test_cases_cover_the_engine_paths():
    """The golden cases between them reach every path named above."""
    ramp = run(ramp_scenario())
    assert {("discharging", "charging"), ("charging", "discharging")} <= transitions(ramp)
    trickle = run(trickle_scenario())
    assert {("charging", "trickle"), ("trickle", "charging")} <= transitions(trickle)
    dcm = run(dcm_scenario())
    assert dcm.i_l[0] > 0.0 and (dcm.i_l == 0.0).any() and dcm.i_l.min() == 0.0
    boost = run(boost_scenario())
    assert boost.s2.any() and not boost.s1.any()
    assert np.all(boost.duty == 0.5)
