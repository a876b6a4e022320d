"""Fixed-step time-domain engine for the bidirectional converter.

Explicit Euler with the step size locked to the switching period so that
every carrier wrap lands exactly on a step boundary; the controller runs at
those wrap instants and the commanded duty is quantized to the step grid,
mirroring timer-resolution quantization in a real microcontroller.  Topology
changes (gate edges, diode handoff, the discontinuous-conduction clamp)
happen between steps, which is why a high-order smooth integrator would buy
nothing here.

Two kernels take the steps.  The scalar kernel (`_Engine.euler`, driven
alone by `_integrate`, the reference) takes one Euler step at a time.  The
period kernel (`_Engine.period`) serves `run()`: the converter is
switched-affine, so within one conduction path and one source regime an
Euler step is a fixed affine map x <- A x + b on (i_l, v_c_bus, v_c_o, soc),
and with the duty fixed between carrier wraps a period is at most two such
maps, the on-interval and the off-interval.  Stacked powers A^k, built once
per path, regime and hold voltage, give every state of the period from one
vector-matrix product per interval; the samples, the controller's
accumulators and the energy meters follow from slices, sums and cumulative
sums.  The period kernel declines a period, which the scalar kernel then
takes from its start, when the source voltage changes within it (a ramp or
a segment end), the DCM clamp would fire (the D2 or D1 current reaches
zero), the source changes regime (the stiff-source clamp, or i_src >= 0 for
r_source > 0), SoC leaves [0, 1] or a state leaves the divergence bounds.
It also leaves a partial period at the end of the horizon, and every
period shorter than _MIN_BATCH_STEPS steps, to the scalar kernel.  Its
float columns agree with the scalar kernel's to within 1e-9 of each
column's magnitude; the time base, the controller's decisions and the gates
are identical.

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
_MODE_COLUMN = TRACE_COLUMNS.index("mode")
_MODE_CODE = {name: code for code, name in MODE_NAMES.items()}
# Rows formatted per write: bounds the byte matrix and the digit arrays
# held at once, and keeps them in cache.
_CSV_BLOCK = 1 << 13


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
        from ._trace_csv import csv_block   # loaded only by a run that writes a CSV
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        fh = open(tmp, "wb")
        try:
            with fh:
                fh.write(",".join(TRACE_COLUMNS).encode() + b"\r\n")
                for a in range(0, len(self), _CSV_BLOCK):
                    fh.write(csv_block(self, a, a + _CSV_BLOCK))
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


# The arrays an integration records, in the order the kernels fill them:
# the trace CSV columns but i_batt (which is i_l), then the energy meters.
_RECORDED = tuple((name, dtype) for name, dtype, _ in _TRACE_FORMAT if name != "i_batt") \
    + tuple((name, np.float64) for name in ("e_source", "e_load", "e_battery", "e_link"))
# Conduction paths on which the bus carries the inductor current.
_BUS_PATHS = ("S1", "D1")
# The period kernel costs some fifty numpy calls whatever the period's
# length, so short periods are faster through the scalar kernel; the two
# break even near 64 steps per period (the golden trickle, boost and ramp
# cases, Python 3.11 and numpy 2.4 on a 2-core x86 host).
_MIN_BATCH_STEPS = 64


def _step_map(scenario: Scenario, path: str, source_on: bool, v_s: float) -> np.ndarray:
    """One explicit Euler step along a conduction path ("S1", "S2", "D2",
    "D1" or "idle") as a homogeneous 5x5 matrix on (i_l, v_c_bus, v_c_o,
    soc, 1), with the source at v_s conducting (r_source > 0) or clamping
    the bus (stiff source) when `source_on`.  It holds while the path and
    the source regime do: the DCM, source and SoC clamps are not in it."""
    p, b, dt = scenario.params, scenario.battery, scenario.dt
    m = np.zeros((5, 5))
    if path != "idle":
        # i_l + dt/L * (v_switch - v_batt), v_switch = a*i_l + c*v_bus + v0.
        a, c, v0 = {"S1": (-p.r_on, 1.0, 0.0), "S2": (-p.r_on, 0.0, 0.0),
                    "D2": (0.0, 0.0, -p.v_f), "D1": (0.0, 1.0, p.v_f)}[path]
        h = dt / p.l_p
        m[0] = (1.0 + h * (a - b.r_int), h * c, 0.0,
                -h * (b.v_emf_full - b.v_emf_empty), h * (v0 - b.v_emf_empty))
    if source_on and p.r_source == 0.0:
        m[1, 4] = v_s
    else:
        # v_bus + dt/C_bus * (i_src - i_branch - (v_bus - v_o)/r_link).
        g = dt / p.c_bus
        y = 1.0 / p.r_source if source_on else 0.0
        m[1] = (-g if path in _BUS_PATHS else 0.0, 1.0 - g * (y + 1.0 / p.r_link),
                g / p.r_link, 0.0, g * y * v_s)
    h = dt / p.c_o
    m[2] = (0.0, h / p.r_link, 1.0 - h * (1.0 / p.r_link + 1.0 / p.r_load), 0.0, 0.0)
    m[3] = (dt / b.capacity, 0.0, 0.0, 1.0, 0.0)
    m[4, 4] = 1.0
    return m


class _Engine:
    """One integration from a start state: the plant, controller and
    energy-meter state carried between calls, and the trace arrays it
    records into (none when `n_rec` is 0).

    :meth:`tick` is the controller, :meth:`euler` the scalar kernel and
    :meth:`period` the batched one; the drivers :func:`_integrate`,
    :func:`run` and :func:`step` call them.
    """

    def __init__(self, scenario: Scenario, state: CircuitState, ctrl: ControllerState,
                 n_rec: int):
        self.scenario = scenario
        self.n_period = scenario.steps_per_period
        self.i_l = state.i_l
        self.v_bus = state.v_c_bus
        self.v_o = state.v_c_o
        self.soc = state.soc
        self.t = state.t
        self.mode = ctrl.mode
        self.duty = ctrl.duty
        self.phase_cc = ctrl.cc_cv_phase
        self.acc_i = ctrl.acc_i_batt
        self.acc_vl = ctrl.acc_v_load
        self.acc_vb = ctrl.acc_v_batt
        self.acc_n = ctrl.acc_count
        self.e_src = self.e_load = self.e_batt = self.e_link = 0.0
        self.in_period = round(ctrl.carrier_phase * self.n_period)
        self.mode_code, self.on1, self.on2 = _gate_counts(self.mode, self.duty,
                                                          self.n_period)
        self.s1 = self.s2 = False
        self.v_s = math.nan
        self.v_s_until = -math.inf
        self.k = 0                          # steps taken
        self.rec = 0                        # samples recorded
        self.k_rec = 0 if n_rec else -1     # step of the next sample
        self.cols = tuple(np.empty(n_rec, dtype) for _, dtype in _RECORDED) if n_rec else None
        self.stacks = None                  # batched-period buffers, made on first use

    def tick(self) -> None:
        """The controller at a carrier wrap: mode and duty from the period
        averages (the instantaneous values on a cold start), or the fixed
        duty; then the gate counts of the period that starts."""
        if self.t >= self.v_s_until:
            self.v_s, self.v_s_until = self.scenario.source.evaluate(self.t)
        fixed_duty = self.scenario.fixed_duty
        if fixed_duty is None:
            cfg = self.scenario.controller
            if self.acc_n > 0:
                avg_i = self.acc_i / self.acc_n
                avg_vl = self.acc_vl / self.acc_n
                avg_vb = self.acc_vb / self.acc_n
            else:
                avg_i = self.i_l
                avg_vl = self.v_o
                avg_vb = self.v_batt()
            self.mode = select_mode(self.v_s, avg_vb, self.soc, self.mode, cfg)
            reg = regulate(avg_vl, avg_i, avg_vb,
                           ControllerState(mode=self.mode, duty=self.duty,
                                           cc_cv_phase=self.phase_cc),
                           cfg)
            self.duty = reg.duty
            self.phase_cc = reg.cc_cv_phase
        else:
            self.duty = fixed_duty
        self.acc_i = self.acc_vl = self.acc_vb = 0.0
        self.acc_n = 0
        self.mode_code, self.on1, self.on2 = _gate_counts(self.mode, self.duty,
                                                          self.n_period)

    def v_batt(self) -> float:
        """Battery terminal voltage (EMF plus the drop on r_int) at the
        current state, as the scalar kernel computes it."""
        b = self.scenario.battery
        return b.v_emf_empty + (b.v_emf_full - b.v_emf_empty) * self.soc + b.r_int * self.i_l

    def euler(self, n_steps: int) -> None:
        """The scalar kernel: `n_steps` explicit Euler steps, none across a
        carrier wrap, recording the pre-update state at each decimation point.

        Each step: source voltage, battery EMF, PWM gating, then one update
        with pre-update values on the right-hand side.  The plant law: an
        on-gate wins outright; with both gates off the body diode matching
        the current sign conducts (D2 for positive, D1 for negative current)
        and the current clamps at zero instead of reversing (discontinuous
        conduction); the bus node loses the inductor current only while the
        high side (S1 or D1) conducts.  Raises :class:`SimulationDiverged`
        when a state magnitude leaves the bounds.
        """
        scn = self.scenario
        p = scn.params
        b = scn.battery
        source = scn.source
        dt = scn.dt
        dec = scn.record_decimation
        i_limit = scn.i_limit
        v_limit = scn.v_limit
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
        mode_code = self.mode_code
        duty = self.duty
        on1 = self.on1
        on2 = self.on2

        i_l = self.i_l
        v_bus = self.v_bus
        v_o = self.v_o
        soc = self.soc
        t = self.t
        acc_i = self.acc_i
        acc_vl = self.acc_vl
        acc_vb = self.acc_vb
        e_src = self.e_src
        e_load = self.e_load
        e_batt = self.e_batt
        e_link = self.e_link
        in_period = self.in_period
        v_s = self.v_s
        v_s_until = self.v_s_until
        rec = self.rec
        k_rec = self.k_rec
        if self.cols is not None:
            (time_a, i_l_a, v_bus_a, v_o_a, v_batt_a, soc_a, mode_a, duty_a, s1_a,
             s2_a, e_src_a, e_load_a, e_batt_a, e_link_a) = self.cols

        for k in range(self.k, self.k + n_steps):
            if t >= v_s_until:
                v_s, v_s_until = source.evaluate(t)
            emf = emf_base + emf_span * soc
            v_batt = emf + r_int * i_l
            s1 = in_period < on1
            s2 = in_period < on2

            if k == k_rec:
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
                k_rec += dec

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

        self.i_l = i_l
        self.v_bus = v_bus
        self.v_o = v_o
        self.soc = soc
        self.t = t
        self.acc_i = acc_i
        self.acc_vl = acc_vl
        self.acc_vb = acc_vb
        self.acc_n += n_steps
        self.e_src = e_src
        self.e_load = e_load
        self.e_batt = e_batt
        self.e_link = e_link
        self.v_s = v_s
        self.v_s_until = v_s_until
        self.s1 = s1
        self.s2 = s2
        self.rec = rec
        self.k_rec = k_rec
        self.k += n_steps
        self.in_period = 0 if in_period == self.n_period else in_period

    def period(self) -> bool:
        """The batched kernel: one whole carrier period from its wrap, the
        tick taken, as one vector-matrix product per gate interval with
        the stacked powers of that interval's step map.

        Returns False, with nothing changed, when the period is not affine
        on each interval: the source voltage changes within it, or the DCM
        clamp, a change of source regime, the SoC clamp or a bound would
        act.  The scalar kernel then takes the period.
        """
        scn = self.scenario
        p = scn.params
        dt = scn.dt
        n = self.n_period
        if self.stacks is None:
            self.stacks = {}
            self.dts = np.full(n + 1, dt)
            self.times = np.empty(n + 1)
            self.x = np.empty((4, n + 1))   # i_l, v_bus, v_o, soc before each step
            self.x_next = np.empty((4, n + 1))
            self.xh = np.ones(5)
            self.e = np.empty((4, n + 1))   # the four energy meters before each step
            self.steps = np.arange(n)
        times = self.times
        self.dts[0] = self.t
        np.add.accumulate(self.dts, out=times)  # t + dt + dt ..., as the scalar kernel
        if times[n - 1] >= self.v_s_until:
            return False

        x = self.x
        x[:, 0] = (self.i_l, self.v_bus, self.v_o, self.soc)
        on = self.on1 + self.on2  # one of them is zero
        spans = []
        if on:
            spans.append(self._span(0, on, "S1" if self.on1 else "S2"))
        if on < n:
            i_l = x[0, on]
            spans.append(self._span(on, n, "D2" if i_l > 0.0 else "D1" if i_l < 0.0
                                    else "idle"))

        il, vb, vo, sc = x[:, :n]
        i_link = (vb - vo) * (1.0 / p.r_link)
        stiff = p.r_source == 0.0
        if stiff:  # v_s - v_free: the bus clamps where it is >= 0
            drive = self.v_s - vb + (dt / p.c_bus) * i_link
        else:      # v_s - v_bus: the source conducts where it is >= 0
            drive = self.v_s - vb
        for a, b, path, source_on in spans:
            if stiff and path in _BUS_PATHS:
                drive[a:b] += (dt / p.c_bus) * il[a:b]
            if not (drive[a:b].min() >= 0.0 if source_on
                    else drive[a:b].max() < 0.0 if stiff else drive[a:b].max() <= 0.0):
                return False
            if path == "D2" and not x[0, a + 1:b + 1].min() > 0.0:
                return False
            if path == "D1" and not x[0, a + 1:b + 1].max() < 0.0:
                return False
        lo = x[:, 1:].min(axis=1).tolist()
        hi = x[:, 1:].max(axis=1).tolist()
        i_limit = scn.i_limit
        v_limit = scn.v_limit
        if not (-i_limit <= lo[0] and hi[0] <= i_limit and -v_limit <= lo[1]
                and hi[1] <= v_limit and -v_limit <= lo[2] and hi[2] <= v_limit
                and 0.0 <= lo[3] and hi[3] <= 1.0):
            return False

        i_src = drive * (p.c_bus / dt if stiff else 1.0 / p.r_source)
        for a, b, _, source_on in spans:
            if not source_on:
                i_src[a:b] = 0.0
        bat = scn.battery
        emf = bat.v_emf_empty + (bat.v_emf_full - bat.v_emf_empty) * sc
        v_batt = emf + bat.r_int * il
        e = self.e
        e[:, 0] = (self.e_src, self.e_load, self.e_batt, self.e_link)
        e[0, 1:] = dt * vb * i_src
        e[1, 1:] = (dt / p.r_load) * vo * vo
        e[2, 1:] = dt * emf * il
        e[3, 1:] = (dt * p.r_link) * i_link * i_link
        np.cumsum(e, axis=1, out=e)

        if self.cols is not None and self.k_rec - self.k < n:
            dec = scn.record_decimation
            sel = slice(self.k_rec - self.k, n, dec)
            steps = self.steps[sel]
            rows = slice(self.rec, self.rec + len(steps))
            cols = self.cols
            for col, values in zip(cols[:6] + cols[10:], (times, il, vb, vo, v_batt, sc, *e)):
                col[rows] = values[sel]
            mode_a, duty_a, s1_a, s2_a = cols[6:10]
            mode_a[rows] = self.mode_code
            duty_a[rows] = self.duty
            np.less(steps, self.on1, out=s1_a[rows])
            np.less(steps, self.on2, out=s2_a[rows])
            self.rec += len(steps)
            self.k_rec += len(steps) * dec

        self.i_l, self.v_bus, self.v_o, self.soc = x[:, n].tolist()
        self.t = float(times[n])
        self.e_src, self.e_load, self.e_batt, self.e_link = e[:, n].tolist()
        self.acc_i = float(il.sum())
        self.acc_vl = float(vo.sum())
        self.acc_vb = float(v_batt.sum())
        self.acc_n = n
        self.s1 = n - 1 < self.on1
        self.s2 = n - 1 < self.on2
        self.k += n
        return True

    def _span(self, a: int, b: int, path: str) -> tuple[int, int, str, bool]:
        """Fill self.x[:, a + 1:b + 1] from self.x[:, a] along `path`, the
        source regime taken from the state at step a as the scalar kernel
        would take it."""
        p = self.scenario.params
        x = self.x
        i_l, v_bus, v_o, _ = x[:, a].tolist()
        if p.r_source > 0.0:
            source_on = self.v_s >= v_bus
        else:
            i_branch = i_l if path in _BUS_PATHS else 0.0
            i_link = (v_bus - v_o) * (1.0 / p.r_link)
            source_on = self.v_s >= v_bus + self.scenario.dt * (-i_branch - i_link) \
                * (1.0 / p.c_bus)
        key = (path, source_on, self.v_s)
        stack = self.stacks.get(key)
        if stack is None:
            # Keep the stacks of the current hold voltage only (160 bytes per
            # step of a period each): a source seldom returns to a voltage.
            if self.stacks and next(iter(self.stacks))[2] != self.v_s:
                self.stacks.clear()
            stack = self.stacks[key] = self._powers(_step_map(self.scenario, *key))
        self.xh[:4] = x[:, a]
        np.matmul(self.xh, stack.reshape(5, -1), out=self.x_next.reshape(-1))
        x[:, a + 1:b + 1] = self.x_next[:, 1:b - a + 1]
        return a, b, path, source_on

    def _powers(self, m: np.ndarray) -> np.ndarray:
        """M^k for k = 0 .. steps_per_period, laid out as stack[j, i, k] =
        (M^k)[i, j] over the four state rows, so that one vector-matrix
        product with (x, 1) gives the state after every k steps."""
        n = self.n_period
        p = np.empty((n + 1, 5, 5))
        p[0] = np.eye(5)
        p[1] = m
        k = 1
        while k < n:  # p[k + j] = p[j] @ p[k]: doubles the powers known
            j = min(k, n - k)
            np.matmul(p[1:j + 1], p[k], out=p[k + 1:k + j + 1])
            k += j
        return np.ascontiguousarray(p[:, :4, :].transpose(2, 1, 0))

    def finish(self) -> None:
        """Record the final instant when it falls on the decimation grid,
        with the gates of the last step."""
        if self.k == self.k_rec:
            for col, value in zip(self.cols, (
                    self.t, self.i_l, self.v_bus, self.v_o, self.v_batt(), self.soc,
                    self.mode_code, self.duty, self.s1, self.s2,
                    self.e_src, self.e_load, self.e_batt, self.e_link)):
                col[self.rec] = value
            self.rec += 1

    def trace(self) -> Trace:
        cols = {name: col[:self.rec] for (name, _), col in zip(_RECORDED, self.cols)}
        return Trace(i_batt=cols["i_l"], **cols)

    def state(self) -> CircuitState:
        return CircuitState(i_l=self.i_l, v_c_bus=self.v_bus, v_c_o=self.v_o,
                            soc=self.soc, t=self.t)

    def controller(self) -> ControllerState:
        return ControllerState(
            mode=self.mode, duty=self.duty, cc_cv_phase=self.phase_cc,
            carrier_phase=self.in_period / self.n_period,
            acc_i_batt=self.acc_i, acc_v_load=self.acc_vl, acc_v_batt=self.acc_vb,
            acc_count=self.acc_n)


def _integrate(scenario: Scenario, state: CircuitState, ctrl: ControllerState,
               n_steps: int) -> tuple[Trace, CircuitState, ControllerState]:
    """The scalar reference: advance plant and controller `n_steps`
    integration steps from the given states one Euler step at a time;
    returns the decimated trace (first and, when it falls on the decimation
    grid, last instant included) and the final states."""
    eng = _Engine(scenario, state, ctrl, n_steps // scenario.record_decimation + 1)
    while eng.k < n_steps:
        if eng.in_period == 0:
            eng.tick()
        eng.euler(min(eng.n_period - eng.in_period, n_steps - eng.k))
    eng.finish()
    return eng.trace(), eng.state(), eng.controller()


def step(state: CircuitState, ctrl: ControllerState,
         scenario: Scenario) -> tuple[CircuitState, ControllerState]:
    """Advance the coupled plant and controller by one integration step.

    The controller (mode selection plus regulation) fires only when the
    carrier phase sits at a wrap instant; every step feeds the measurement
    accumulators that the next wrap will average.  Records nothing.  Raises
    :class:`SimulationDiverged` when a state magnitude leaves the bounds.
    """
    eng = _Engine(scenario, state, ctrl, 0)
    if eng.in_period == 0:
        eng.tick()
    eng.euler(1)
    return eng.state(), eng.controller()


def run(scenario: Scenario) -> Trace:
    """Run the scenario from its initial state to t_end; returns the trace.

    With at least _MIN_BATCH_STEPS steps per period, each whole carrier
    period goes through the batched kernel, and any period it declines, or
    a partial one at the end, through the scalar kernel; with fewer, every
    step is scalar.  Deterministic: identical scenarios produce
    bit-identical traces.
    """
    state, ctrl = _initial_conditions(scenario)
    n_steps = round(scenario.t_end / scenario.dt)
    eng = _Engine(scenario, state, ctrl, n_steps // scenario.record_decimation + 1)
    n = eng.n_period
    batched = n >= _MIN_BATCH_STEPS
    # A batch run past a divergence may overflow; the scalar rerun reports it.
    with np.errstate(all="ignore"):
        while eng.k < n_steps:
            if eng.in_period == 0:
                eng.tick()
                if batched and n_steps - eng.k >= n and eng.period():
                    continue
            eng.euler(min(n - eng.in_period, n_steps - eng.k))
    eng.finish()
    return eng.trace()


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
