"""Fixed-step time-domain engine for the bidirectional converter.

Explicit Euler with the step size locked to the switching period so that
every carrier wrap lands exactly on a step boundary; the controller runs at
those wrap instants and the commanded duty is quantized to the step grid,
mirroring timer-resolution quantization in a real microcontroller.  Topology
changes (gate edges, diode handoff, the discontinuous-conduction clamp)
happen between steps, which is why a high-order smooth integrator would buy
nothing here.

The PV source only ever sources current, like a diode-isolated panel: with
r_source = 0 the bus is clamped to the profile voltage whenever that voltage
is above the bus, and floats otherwise, so a collapsed source leaves the bus
free for the boost leg to hold up.  The mode supervisor senses the source
profile voltage (panel-side sensing), not the converter-held bus.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .circuit import BatteryModel, CircuitState, ConverterParams
from .control import (
    ControllerConfig,
    ControllerState,
    Mode,
    initial_controller_state,
    regulate,
    select_mode,
)

MODE_CODES = {mode: code for code, mode in enumerate(Mode)}
MODE_NAMES = {code: mode.value for mode, code in MODE_CODES.items()}

# The trace CSV format, one entry per column: its name, its dtype in a Trace
# and its printf format in the file.  `mode` is written as the mode's name.
_TRACE_FORMAT = (
    ("time", np.float64, "%.9f"),
    ("i_l", np.float64, "%.9g"),
    ("v_c_bus", np.float64, "%.9g"),
    ("v_c_o", np.float64, "%.9g"),
    ("v_batt_terminal", np.float64, "%.9g"),
    ("i_batt", np.float64, "%.9g"),
    ("soc", np.float64, "%.9g"),
    ("mode", np.int8, "%s"),
    ("duty", np.float64, "%.9g"),
    ("s1", np.bool_, "%d"),
    ("s2", np.bool_, "%d"),
)
TRACE_COLUMNS = tuple(name for name, _, _ in _TRACE_FORMAT)
_TRACE_DTYPE = np.dtype([(name, dtype) for name, dtype, _ in _TRACE_FORMAT])
# Rows end in CRLF, the line end of the csv module's default dialect.
_TRACE_ROW = ",".join(fmt for _, _, fmt in _TRACE_FORMAT) + "\r\n"
_MODE_COLUMN = TRACE_COLUMNS.index("mode")
_MODE_CODE = {name: code for code, name in MODE_NAMES.items()}
# Rows formatted per write: bounds the Python row tuples held at once.
_CSV_BLOCK = 1 << 16


class SimulationDiverged(RuntimeError):
    """A state magnitude left the configured bounds (instability)."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class SourceSegment:
    """One piece of the source profile: hold (or ramp) up to time `until`."""

    until: float              # s, end of this segment
    v_start: float            # V at the start of the segment
    v_end: float              # V at `until` (equal to v_start for a hold)


@dataclass(frozen=True)
class SourceProfile:
    """Piecewise source voltage versus time; holds the last value forever."""

    segments: tuple[SourceSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("source profile needs at least one segment")
        prev = 0.0
        for seg in self.segments:
            if seg.until <= prev:
                raise ValueError("source segments must have increasing `until` times")
            prev = seg.until

    @classmethod
    def constant(cls, volts: float, until: float = 1.0) -> "SourceProfile":
        return cls(segments=(SourceSegment(until=until, v_start=volts, v_end=volts),))

    def voltage(self, t: float) -> float:
        return self.evaluate(t)[0]

    def evaluate(self, t: float) -> tuple[float, float]:
        """Voltage at time t and the time until which it stays the same: the
        segment end for a hold, t itself on a ramp, infinity after the last
        segment."""
        t_seg_start = 0.0
        for seg in self.segments:
            if t < seg.until:
                if seg.v_start == seg.v_end:
                    return seg.v_start, seg.until
                frac = (t - t_seg_start) / (seg.until - t_seg_start)
                return seg.v_start + (seg.v_end - seg.v_start) * frac, t
            t_seg_start = seg.until
        return self.segments[-1].v_end, math.inf


@dataclass(frozen=True)
class Scenario:
    """Everything one deterministic run needs."""

    params: ConverterParams
    battery: BatteryModel
    controller: ControllerConfig
    source: SourceProfile
    t_end: float                        # s, simulation horizon
    dt: float                           # s, integration step
    record_decimation: int = 10         # keep every k-th sample
    i_limit: float = 100.0              # A, divergence bound on |i_l|
    v_limit: float = 200.0              # V, divergence bound on capacitor voltages
    fixed_duty: float | None = None     # open-loop duty override (regulator bypassed)
    initial_state: CircuitState | None = None
    initial_mode: Mode | None = None
    initial_duty: float | None = None

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be non-negative")
        if self.record_decimation < 1:
            raise ValueError("record_decimation must be >= 1")
        period_steps = 1.0 / (self.params.f_s * self.dt)
        if abs(period_steps - round(period_steps)) > 1e-6 * period_steps:
            raise ValueError(
                "dt must divide the switching period so carrier wraps land on steps")
        if round(period_steps) < 20:
            raise ValueError("dt too coarse: need at least 20 steps per switching period")
        # Explicit Euler stability of the fastest algebraic-ish pole (the
        # bus-to-rail interconnect); 0.8 leaves margin over the exact bound.
        p = self.params
        link_limit = 2.0 * p.r_link * (p.c_bus * p.c_o / (p.c_bus + p.c_o))
        if self.dt > 0.8 * link_limit:
            raise ValueError(
                f"dt={self.dt} unstable for the bus interconnect (limit {link_limit:.3g} s)")
        if self.fixed_duty is not None:
            if not 0.0 <= self.fixed_duty <= 1.0:
                raise ValueError("fixed_duty must be in [0, 1]")
            if self.initial_mode is None:
                raise ValueError("fixed_duty requires an explicit initial_mode")
        if self.initial_state is not None and self.initial_state.t != 0.0:
            raise ValueError("initial_state must start at t = 0")

    @property
    def steps_per_period(self) -> int:
        return round(1.0 / (self.params.f_s * self.dt))


@dataclass
class Trace:
    """Recorded waveforms, uniformly sampled after decimation.

    The e_* arrays are cumulative energy meters (J) used by the balance
    checks; they are not part of the CSV export format.
    """

    time: np.ndarray
    i_l: np.ndarray
    v_c_bus: np.ndarray
    v_c_o: np.ndarray
    v_batt_terminal: np.ndarray
    i_batt: np.ndarray
    soc: np.ndarray
    mode: np.ndarray          # int8 codes, see MODE_NAMES
    duty: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    e_source: np.ndarray = field(default_factory=lambda: np.zeros(0))
    e_load: np.ndarray = field(default_factory=lambda: np.zeros(0))
    e_battery: np.ndarray = field(default_factory=lambda: np.zeros(0))
    e_link: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.time)

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(f"unknown trace column {name!r}")
        return getattr(self, name)

    def to_csv(self, path) -> None:
        """Write the trace; time with 9 decimal digits, SI units throughout.
        Rows go to a temporary file renamed onto `path` once complete, so an
        interrupted write leaves `path` as it was."""
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        fh = open(tmp, "w", newline="")
        try:
            with fh:
                fh.write(",".join(TRACE_COLUMNS) + "\r\n")
                for a in range(0, len(self), _CSV_BLOCK):
                    cols = [self.column(name)[a:a + _CSV_BLOCK].tolist()
                            for name in TRACE_COLUMNS]
                    cols[_MODE_COLUMN] = [MODE_NAMES[code] for code in cols[_MODE_COLUMN]]
                    fh.write("".join(_TRACE_ROW % row for row in zip(*cols)))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def trace_from_csv(path) -> Trace:
    """Read a trace CSV written by :meth:`Trace.to_csv`; the energy meters
    are not in the file and read back as zeros.  A malformed row raises
    ValueError with the path and numpy's row and column."""
    with open(path) as fh:
        if tuple(fh.readline().rstrip("\n").split(",")) != TRACE_COLUMNS:
            raise ValueError(f"{path}: not a trace CSV (unexpected header)")
        try:
            with warnings.catch_warnings():
                # A header-only file is an empty trace, not a warning.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(
                    fh, dtype=_TRACE_DTYPE, delimiter=",", comments=None, ndmin=1,
                    converters={_MODE_COLUMN: _MODE_CODE.__getitem__})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    n = len(rows)
    return Trace(**{name: np.ascontiguousarray(rows[name]) for name in TRACE_COLUMNS},
                 e_source=np.zeros(n), e_load=np.zeros(n),
                 e_battery=np.zeros(n), e_link=np.zeros(n))


def _initial_conditions(scenario: Scenario) -> tuple[CircuitState, ControllerState]:
    if scenario.initial_state is not None:
        state = scenario.initial_state
    else:
        state = CircuitState(i_l=0.0, v_c_bus=scenario.source.voltage(0.0),
                             v_c_o=0.0, soc=scenario.battery.soc, t=0.0)
    mode = scenario.initial_mode if scenario.initial_mode is not None else Mode.TRICKLE
    ctrl = initial_controller_state(scenario.controller, mode=mode,
                                    duty=scenario.initial_duty)
    return state, ctrl


def _gate_counts(mode: Mode, duty: float, n_period: int) -> tuple[int, int, int]:
    """Mode code and the on-step counts of S1 and S2 for one carrier period."""
    on_steps = round(duty * n_period)
    code = MODE_CODES[mode]
    return (code, on_steps if code == 0 else 0, on_steps if code == 1 else 0)


def _integrate(scenario: Scenario, state: CircuitState, ctrl: ControllerState,
               n_steps: int) -> tuple[Trace, CircuitState, ControllerState]:
    """Advance plant and controller `n_steps` integration steps from the
    given states; returns the decimated trace (first and, when it falls on
    the decimation grid, last instant included) and the final states.

    Each step: source voltage, battery EMF, the controller tick when the
    carrier phase sits at a wrap, PWM gating, then one explicit Euler update
    using pre-update values on the right-hand side.  The plant law: an
    on-gate wins outright; with both gates off the body diode matching the
    current sign conducts (D2 for positive, D1 for negative current) and the
    current clamps at zero instead of reversing (discontinuous conduction);
    the bus node loses the inductor current only while the high side (S1 or
    D1) conducts.  Raises :class:`SimulationDiverged` when a state magnitude
    leaves the bounds.
    """
    p = scenario.params
    b = scenario.battery
    cfg = scenario.controller
    source = scenario.source
    dt = scenario.dt
    dec = scenario.record_decimation
    n_period = scenario.steps_per_period
    fixed_duty = scenario.fixed_duty
    i_limit = scenario.i_limit
    v_limit = scenario.v_limit
    inv_l = 1.0 / p.l_p
    inv_c_bus = 1.0 / p.c_bus
    inv_c_o = 1.0 / p.c_o
    inv_r_load = 1.0 / p.r_load
    inv_r_link = 1.0 / p.r_link
    r_link = p.r_link
    r_on = p.r_on
    v_f = p.v_f
    r_source = p.r_source
    inv_r_source = 1.0 / r_source if r_source > 0.0 else 0.0
    c_bus_over_dt = p.c_bus / dt
    emf_base = b.v_emf_empty
    emf_span = b.v_emf_full - b.v_emf_empty
    r_int = b.r_int
    inv_capacity = 1.0 / b.capacity

    n_rec = n_steps // dec + 1
    time_a = np.empty(n_rec)
    i_l_a = np.empty(n_rec)
    v_bus_a = np.empty(n_rec)
    v_o_a = np.empty(n_rec)
    v_batt_a = np.empty(n_rec)
    soc_a = np.empty(n_rec)
    mode_a = np.empty(n_rec, dtype=np.int8)
    duty_a = np.empty(n_rec)
    s1_a = np.empty(n_rec, dtype=bool)
    s2_a = np.empty(n_rec, dtype=bool)
    e_src_a = np.empty(n_rec)
    e_load_a = np.empty(n_rec)
    e_batt_a = np.empty(n_rec)
    e_link_a = np.empty(n_rec)

    i_l = state.i_l
    v_bus = state.v_c_bus
    v_o = state.v_c_o
    soc = state.soc
    t = state.t
    mode = ctrl.mode
    duty = ctrl.duty
    phase_cc = ctrl.cc_cv_phase
    acc_i = ctrl.acc_i_batt
    acc_vl = ctrl.acc_v_load
    acc_vb = ctrl.acc_v_batt
    acc_n = ctrl.acc_count
    e_src = e_load = e_batt = e_link = 0.0

    in_period = round(ctrl.carrier_phase * n_period)
    mode_code, on1, on2 = _gate_counts(mode, duty, n_period)
    v_s_until = -math.inf
    s1 = s2 = False
    rec = 0

    for k in range(n_steps + 1):
        if t >= v_s_until:
            v_s, v_s_until = source.evaluate(t)
        emf = emf_base + emf_span * soc
        v_batt = emf + r_int * i_l
        # The pass after the last step only records the final instant.
        final = k == n_steps

        if not final:
            if in_period == 0:
                if fixed_duty is None:
                    if acc_n > 0:
                        avg_i = acc_i / acc_n
                        avg_vl = acc_vl / acc_n
                        avg_vb = acc_vb / acc_n
                    else:
                        avg_i = i_l
                        avg_vl = v_o
                        avg_vb = v_batt
                    mode = select_mode(v_s, avg_vb, soc, mode, cfg)
                    reg = regulate(avg_vl, avg_i, avg_vb,
                                   ControllerState(mode=mode, duty=duty,
                                                   cc_cv_phase=phase_cc),
                                   cfg)
                    duty = reg.duty
                    phase_cc = reg.cc_cv_phase
                else:
                    duty = fixed_duty
                acc_i = acc_vl = acc_vb = 0.0
                acc_n = 0
                mode_code, on1, on2 = _gate_counts(mode, duty, n_period)
            s1 = in_period < on1
            s2 = in_period < on2

        if k % dec == 0:
            time_a[rec] = t
            i_l_a[rec] = i_l
            v_bus_a[rec] = v_bus
            v_o_a[rec] = v_o
            v_batt_a[rec] = v_batt
            soc_a[rec] = soc
            mode_a[rec] = mode_code
            duty_a[rec] = duty
            s1_a[rec] = s1
            s2_a[rec] = s2
            e_src_a[rec] = e_src
            e_load_a[rec] = e_load
            e_batt_a[rec] = e_batt
            e_link_a[rec] = e_link
            rec += 1
        if final:
            break

        # Plant law, one explicit Euler step.
        if s1:  # buck switch
            i_l2 = i_l + dt * ((v_bus - r_on * i_l) - v_batt) * inv_l
            i_branch = i_l
        elif s2:  # boost switch
            i_l2 = i_l + dt * ((-r_on * i_l) - v_batt) * inv_l
            i_branch = 0.0
        elif i_l > 0.0:  # D2 freewheels
            i_l2 = i_l + dt * ((-v_f) - v_batt) * inv_l
            if i_l2 < 0.0:
                i_l2 = 0.0
            i_branch = 0.0
        elif i_l < 0.0:  # D1 returns the current to the bus
            i_l2 = i_l + dt * ((v_bus + v_f) - v_batt) * inv_l
            if i_l2 > 0.0:
                i_l2 = 0.0
            i_branch = i_l
        else:  # idle at zero current
            i_l2 = 0.0
            i_branch = 0.0
        i_link = (v_bus - v_o) * inv_r_link
        if r_source > 0.0:
            i_src = (v_s - v_bus) * inv_r_source
            if i_src < 0.0:
                i_src = 0.0
            v_bus2 = v_bus + dt * (i_src - i_branch - i_link) * inv_c_bus
        else:
            v_free = v_bus + dt * (-i_branch - i_link) * inv_c_bus
            if v_s >= v_free:
                i_src = (v_s - v_free) * c_bus_over_dt
                v_bus2 = v_s
            else:
                i_src = 0.0
                v_bus2 = v_free
        v_o2 = v_o + dt * (i_link - v_o * inv_r_load) * inv_c_o
        soc2 = soc + dt * i_l * inv_capacity
        if soc2 > 1.0:
            soc2 = 1.0
        elif soc2 < 0.0:
            soc2 = 0.0

        # Energy meters (left Riemann, pre-update values).
        e_src += dt * v_bus * i_src
        e_load += dt * v_o * v_o * inv_r_load
        e_batt += dt * emf * i_l
        e_link += dt * i_link * i_link * r_link

        acc_i += i_l
        acc_vl += v_o
        acc_vb += v_batt
        acc_n += 1

        if not (abs(i_l2) <= i_limit and abs(v_bus2) <= v_limit
                and abs(v_o2) <= v_limit):
            raise SimulationDiverged(
                f"state out of bounds at t={t + dt:.9f} s "
                f"(i_l={i_l2:.3g} A, v_c_bus={v_bus2:.3g} V, v_c_o={v_o2:.3g} V)",
                t=t + dt)

        i_l = i_l2
        v_bus = v_bus2
        v_o = v_o2
        soc = soc2
        t = t + dt
        in_period += 1
        if in_period == n_period:
            in_period = 0

    trace = Trace(
        time=time_a[:rec],
        i_l=i_l_a[:rec],
        v_c_bus=v_bus_a[:rec],
        v_c_o=v_o_a[:rec],
        v_batt_terminal=v_batt_a[:rec],
        i_batt=i_l_a[:rec],
        soc=soc_a[:rec],
        mode=mode_a[:rec],
        duty=duty_a[:rec],
        s1=s1_a[:rec],
        s2=s2_a[:rec],
        e_source=e_src_a[:rec],
        e_load=e_load_a[:rec],
        e_battery=e_batt_a[:rec],
        e_link=e_link_a[:rec],
    )
    new_state = CircuitState(i_l=i_l, v_c_bus=v_bus, v_c_o=v_o, soc=soc, t=t)
    new_ctrl = ControllerState(
        mode=mode, duty=duty, cc_cv_phase=phase_cc,
        carrier_phase=in_period / n_period,
        acc_i_batt=acc_i, acc_v_load=acc_vl, acc_v_batt=acc_vb, acc_count=acc_n)
    return trace, new_state, new_ctrl


def step(state: CircuitState, ctrl: ControllerState,
         scenario: Scenario) -> tuple[CircuitState, ControllerState]:
    """Advance the coupled plant and controller by one integration step.

    The controller (mode selection plus regulation) fires only when the
    carrier phase sits at a wrap instant; every step feeds the measurement
    accumulators that the next wrap will average.  Raises
    :class:`SimulationDiverged` when a state magnitude leaves the bounds.
    """
    _, state, ctrl = _integrate(scenario, state, ctrl, 1)
    return state, ctrl


def run(scenario: Scenario) -> Trace:
    """Run the scenario from its initial state to t_end; returns the trace.

    Deterministic: identical scenarios produce bit-identical traces.
    """
    state, ctrl = _initial_conditions(scenario)
    trace, _, _ = _integrate(scenario, state, ctrl,
                             round(scenario.t_end / scenario.dt))
    return trace


@dataclass(frozen=True)
class WindowMetrics:
    """Per-column mean and peak-to-peak over the last n switching periods,
    plus mode occupancy and a steadiness flag (consecutive-period means of
    the capacitor voltages within 0.1%)."""

    mean: dict
    p2p: dict
    mode_occupancy: dict
    steady: bool
    t_start: float
    t_end: float
    n_periods: int


_WINDOW_COLUMNS = ("i_l", "v_c_bus", "v_c_o", "v_batt_terminal", "i_batt",
                   "soc", "duty")


def steady_window(trace: Trace, n_periods: int, f_s: float) -> WindowMetrics:
    """Metrics over the last `n_periods` switching periods of the trace."""
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if len(trace) < 2:
        raise ValueError("trace too short for a steady window")
    t_end = float(trace.time[-1])
    window = n_periods / f_s
    spacing = float(trace.time[1] - trace.time[0])
    t0 = t_end - window
    if t0 < float(trace.time[0]) - 0.5 * spacing:
        raise ValueError(
            f"window of {n_periods} periods ({window:.3g} s) longer than trace")
    mask = trace.time >= t0 - 0.5 * spacing
    mean = {}
    p2p = {}
    for name in _WINDOW_COLUMNS:
        col = trace.column(name)[mask]
        mean[name] = float(col.mean())
        p2p[name] = float(col.max() - col.min())
    modes = trace.mode[mask]
    n = len(modes)
    occupancy = {MODE_NAMES[code]: float(np.count_nonzero(modes == code)) / n
                 for code in MODE_NAMES}
    # Steadiness: consecutive-period means of the regulated voltages.
    t_rel = trace.time[mask] - t0
    bins = np.clip((t_rel * f_s).astype(int), 0, n_periods - 1)
    steady = True
    for name in ("v_c_bus", "v_c_o"):
        col = trace.column(name)[mask]
        sums = np.bincount(bins, weights=col, minlength=n_periods)
        counts = np.bincount(bins, minlength=n_periods)
        valid = counts > 0
        period_means = sums[valid] / counts[valid]
        if len(period_means) > 1:
            scale = max(abs(mean[name]), 1e-9)
            if np.max(np.abs(np.diff(period_means))) >= 1e-3 * scale:
                steady = False
    return WindowMetrics(mean=mean, p2p=p2p, mode_occupancy=occupancy,
                         steady=steady, t_start=t0, t_end=t_end,
                         n_periods=n_periods)
