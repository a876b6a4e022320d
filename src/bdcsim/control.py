"""Digital controller: mode supervisor, PWM generation and regulation.

The controller runs once per switching period, the way a timer interrupt
on a small microcontroller would: it reads filtered measurements, picks the
operating mode from source sufficiency with hysteresis, and nudges the duty
cycle one increment at a time.  Charging regulates battery current (constant
current) and hands over to constant voltage at the float threshold;
discharging regulates the load-rail voltage through the boost leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import GateCommand

# Battery relaxation below the float voltage before charging resumes after
# a rest (trickle) phase.
TRICKLE_EXIT_DROP = 0.2  # V


class Mode(Enum):
    CHARGING = "charging"
    DISCHARGING = "discharging"
    TRICKLE = "trickle"


class CcCvPhase(Enum):
    CONSTANT_CURRENT = "cc"
    CONSTANT_VOLTAGE = "cv"


@dataclass(frozen=True)
class ControllerConfig:
    """Setpoints and tuning of the digital controller."""

    v_ref_load: float = 24.0      # V, regulated load-rail target
    i_charge_ref: float = 3.0     # A, constant-current charging setpoint
    v_float: float = 13.8         # V, battery voltage handing CC over to CV / rest
    v_bus_low: float = 12.6       # V, below this the source is insufficient
    v_bus_high: float = 20.4      # V, above this the source is sufficient
    duty_step: float = 0.005      # duty increment per control period
    duty_min: float = 0.02        # duty saturation floor
    duty_max: float = 0.95        # duty saturation ceiling
    i_deadband: float = 0.05      # A, current-comparator resolution (hold inside)
    v_deadband: float = 0.1       # V, voltage-comparator resolution (hold inside)

    def __post_init__(self) -> None:
        if not 0.0 <= self.duty_min < self.duty_max <= 1.0:
            raise ValueError("require 0 <= duty_min < duty_max <= 1")
        if self.v_bus_low >= self.v_bus_high:
            raise ValueError("require v_bus_low < v_bus_high")
        if self.duty_step <= 0.0:
            raise ValueError("duty_step must be positive")
        if self.i_deadband < 0.0 or self.v_deadband < 0.0:
            raise ValueError("deadbands must be non-negative")


@dataclass(frozen=True)
class ControllerState:
    """The regulator's state, carried from one carrier wrap to the next.
    The period averages it regulates on are the engine's to keep."""

    mode: Mode
    duty: float
    cc_cv_phase: CcCvPhase = CcCvPhase.CONSTANT_CURRENT


def initial_controller_state(cfg: ControllerConfig, mode: Mode = Mode.TRICKLE,
                             duty: float | None = None) -> ControllerState:
    """Cold-start state: duty parked at the saturation floor (soft start)."""
    return ControllerState(mode=mode, duty=cfg.duty_min if duty is None else duty)


def select_mode(v_bus: float, v_batt: float, soc: float, prev: Mode,
                cfg: ControllerConfig) -> Mode:
    """Hysteretic mode decision from source sufficiency and battery voltage.

    The source voltage rules: at or below v_bus_low the battery must carry
    the load (discharging); at or above v_bus_high the source is sufficient
    and the battery charges, resting (trickle) once its voltage reaches the
    float threshold.  Between the thresholds the previous mode is retained,
    except that a full battery still drops into rest and a rested battery
    that has relaxed by TRICKLE_EXIT_DROP resumes charging.  soc is accepted
    for charge-based cutoffs but the rule is purely voltage driven.  The
    battery voltages that keep `prev` are `mode_band`'s; a NaN one keeps it
    wherever some voltage would.
    """
    lo, hi = mode_band(v_bus, prev, cfg)
    if not (lo > hi or v_batt < lo or v_batt > hi):
        return prev
    if v_bus <= cfg.v_bus_low:
        return Mode.DISCHARGING
    return Mode.TRICKLE if prev is Mode.CHARGING else Mode.CHARGING


def mode_band(v_bus: float, prev: Mode, cfg: ControllerConfig) -> tuple[float, float]:
    """The battery voltages [lo, hi] at which `select_mode` keeps `prev`
    with the source at v_bus, empty (lo > hi) where it keeps it at none.
    The source fixes the band, so one band answers for every period of a
    stretch at one source voltage."""
    inf = math.inf
    if prev is Mode.DISCHARGING:
        return (-inf, inf) if v_bus < cfg.v_bus_high else (inf, -inf)
    if v_bus <= cfg.v_bus_low:
        return inf, -inf
    if prev is Mode.TRICKLE:
        return cfg.v_float - TRICKLE_EXIT_DROP, inf
    return -inf, math.nextafter(cfg.v_float, -inf)   # charging rests at v_float


# The leg each mode drives, as (S1, S2): the buck leg charges, the boost leg
# discharges, and trickle drives neither.  The legs never conduct together,
# so shoot-through cannot be commanded.
_LEGS = {Mode.CHARGING: (True, False), Mode.DISCHARGING: (False, True),
         Mode.TRICKLE: (False, False)}


def pwm_gate(carrier_phase: float, duty: float, mode: Mode) -> GateCommand:
    """Gate command for the current carrier phase: the mode's leg (see
    `gate_steps`) conducts while the phase is below the duty.

    Charging drives the buck leg S1, discharging the boost leg S2, and
    trickle keeps both switches off to disconnect bus and battery.  The two
    legs are mutually exclusive by construction, so shoot-through cannot be
    commanded.
    """
    if not 0.0 <= carrier_phase < 1.0:
        raise ValueError(f"carrier_phase must be in [0, 1), got {carrier_phase}")
    if not 0.0 <= duty <= 1.0:
        raise ValueError(f"duty must be in [0, 1], got {duty}")
    active = carrier_phase < duty
    s1, s2 = _LEGS[mode]
    return GateCommand(s1_on=active and s1, s2_on=active and s2)


def gate_steps(duty: float, mode: Mode, n: int) -> tuple[int, int]:
    """The on-step counts (S1, S2) of a period of n steps: `on_steps` on
    the mode's leg and zero on the other, so that at phase j / n and duty
    on / n `pwm_gate` gives the same gates."""
    on = on_steps(duty, n)
    s1, s2 = _LEGS[mode]
    return (on if s1 else 0), (on if s2 else 0)


def on_steps(duty, n: int):
    """The duty quantised to a period of n steps, round(duty * n) (half to
    even): an int for a float duty, floats for an array of them."""
    if isinstance(duty, np.ndarray):
        return np.rint(duty * n)
    return round(duty * n)


def regulate(meas_v_load: float, meas_i_batt: float, meas_v_batt: float,
             st: ControllerState, cfg: ControllerConfig) -> ControllerState:
    """One comparator-style regulation step, called once per switching period.

    Discharging: raise duty while the load rail is under the reference,
    lower it while over (boost gain is monotone in duty).  Charging:
    constant-current increments on battery current until the battery
    voltage reaches the float threshold (`hands_over`), then the same
    increment rule holds the battery at the float voltage (`_error`).
    Errors within the comparator deadband leave the duty untouched: a
    finite-resolution sense chain cannot act on them, and the hold is what
    lets the increment law settle instead of hunting around the setpoint.
    Duty saturates to [duty_min, duty_max] after every update
    (`saturates`).  Trickle leaves the state untouched, and so does an
    update that keeps the duty and the phase: `st` itself is returned.
    """
    if st.mode is Mode.TRICKLE:
        return st
    phase = st.cc_cv_phase
    if hands_over(st.mode, phase, meas_v_batt, cfg):
        phase = CcCvPhase.CONSTANT_VOLTAGE
    error, deadband = _error(meas_v_load, meas_i_batt, meas_v_batt, st.mode, phase, cfg)
    duty = st.duty + _increment(error, deadband, cfg.duty_step)
    if saturates(duty, cfg):
        duty = min(max(duty, cfg.duty_min), cfg.duty_max)
    if duty == st.duty and phase is st.cc_cv_phase:
        return st
    return ControllerState(mode=st.mode, duty=duty, cc_cv_phase=phase)


def held_ticks(v_bus: float, meas_v_load: np.ndarray, meas_i_batt: np.ndarray,
               meas_v_batt: np.ndarray, st: ControllerState, cfg: ControllerConfig,
               n: int) -> tuple[int, np.ndarray]:
    """The controller over a stretch of periods at one source voltage v_bus,
    from arrays of each period's averages: how many of its leading ticks
    keep the mode (`mode_band`) and the CC/CV phase, leave the duty clamp
    idle and keep the on-steps of a period of n steps; and the duty after
    each tick.  Over those ticks `select_mode` and `regulate`, tick by
    tick from `st`, give these duties bit for bit: the increments are
    summed in order.  The tick after them may do any of those things."""
    lo, hi = mode_band(v_bus, st.mode, cfg)
    if lo > hi:
        return 0, np.empty(0)
    moves = (meas_v_batt < lo) | (meas_v_batt > hi)
    if st.mode is Mode.TRICKLE:
        duties = np.full(len(moves), st.duty)
    else:
        phase = st.cc_cv_phase
        moves |= hands_over(st.mode, phase, meas_v_batt, cfg)
        error, deadband = _error(meas_v_load, meas_i_batt, meas_v_batt, st.mode, phase, cfg)
        duties = np.empty(len(moves) + 1)
        duties[0] = st.duty
        duties[1:] = _increment(error, deadband, cfg.duty_step)
        duties = np.add.accumulate(duties, out=duties)[1:]
        moves |= saturates(duties, cfg)
        moves |= on_steps(duties, n) != on_steps(st.duty, n)
        moves |= math.copysign(1.0, st.duty) < 0.0  # regulate keeps -0.0, the sum 0.0
    first = int(moves.argmax())
    return (first if moves[first] else len(moves)), duties


def hands_over(mode: Mode, phase: CcCvPhase, meas_v_batt, cfg: ControllerConfig):
    """Whether `regulate` hands constant current over to constant voltage:
    in charging, from CC, once the battery reaches the float voltage (per
    entry, for an array of v_batt)."""
    if mode is not Mode.CHARGING or phase is not CcCvPhase.CONSTANT_CURRENT:
        return False
    return meas_v_batt >= cfg.v_float


def saturates(duty, cfg: ControllerConfig):
    """Whether the duty clamp acts on a duty (per entry, for an array)."""
    return (duty < cfg.duty_min) | (duty > cfg.duty_max)


def _error(meas_v_load, meas_i_batt, meas_v_batt, mode: Mode, phase: CcCvPhase,
           cfg: ControllerConfig) -> tuple:
    """The error the comparator acts on in a regulated mode and phase, and
    its deadband: the load rail discharging, battery current in CC,
    battery voltage in CV (floats or arrays)."""
    if mode is Mode.DISCHARGING:
        return cfg.v_ref_load - meas_v_load, cfg.v_deadband
    if phase is CcCvPhase.CONSTANT_CURRENT:
        return cfg.i_charge_ref - meas_i_batt, cfg.i_deadband
    return cfg.v_float - meas_v_batt, cfg.v_deadband


def _increment(error, deadband: float, step: float):
    """One comparator step on the error: +step above the deadband, -step
    below it, 0.0 inside it or for NaN.  Exact on floats and arrays."""
    return step * (error > deadband) - step * (error < -deadband)
