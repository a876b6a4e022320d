"""Fixed-step time-domain engine for the bidirectional converter.

Explicit Euler with the step size locked to the switching period so that
every carrier wrap lands exactly on a step boundary; the controller runs at
those wrap instants and the commanded duty is quantized to the step grid,
mirroring timer-resolution quantization in a real microcontroller.  Topology
changes (gate edges, diode handoff, the discontinuous-conduction clamp)
happen between steps, which is why a high-order smooth integrator would buy
nothing here.  The plant law is stated once, in `_PATHS`, a table of the
conduction paths (S1, S2, D2, D1, idle) that both kernels read, and the
period kernel's checks once, in a table of functionals of the state
(`_Engine._checks`) that its bound and its per-step check read: a new
check is one row.

Two kernels take the steps and one driver (`_Engine.advance`) calls them:
a controller tick at a carrier wrap, then one kernel call from there, so
every kernel call starts at a wrap.  The controller acts once at every
wrap: a tick each, except inside a stretch of periods, where the ticks
that hold the mode and the gate counts take one array pass on the
stretch's averages (`control.held_ticks`), with the same results.  The
scalar kernel (`_Engine.euler`, used alone by `_integrate`, the reference)
takes one Euler step at a time.  The period kernel (`_Engine.period`)
serves `run()`: within one path and one source regime an Euler step is a
fixed affine map x <- A x + b on (i_l, v_c_bus, v_c_o, soc), so stacked
powers of the maps give the states of a period, and of a stretch of
periods while the controller keeps the mode and the gate counts, from a
few products.  It computes them at the wraps, the gate edges and on the
grid of the recorded samples only, and checks the steps between grid
points by a bound on what each check reads there.  It takes the energy
meters and the period averages by span quadrature: a meter's step adds the
product of two affine functions of the state (`_meter_forms`), so lifted
to the state's second-order monomials, the meters and the sums, a step is
one linear map, whose powers give them over k steps of a span from its
start y.  They are evaluated on the grid of the recorded samples from
three states of each gate interval.  It declines a period, which the
scalar kernel then takes from its start, when the source voltage changes
within it (a ramp or a segment end), or the DCM clamp, a change of source
regime (the stiff-source clamp, or i_src >= 0 for r_source > 0), the SoC
clamp or a divergence bound would act.  It also leaves a partial period at
the end of the horizon, and every period shorter than _MIN_BATCH_STEPS
steps, to the scalar kernel.  Its float columns, the meters and the
averages that the controller reads included, agree with the scalar
kernel's to within 1e-9 of each column's magnitude; the time base, the
controller's decisions and the gates are identical.

The PV source only ever sources current, like a diode-isolated panel: with
r_source = 0 the bus is clamped to the profile voltage whenever that voltage
is above the bus, and floats otherwise, so a collapsed source leaves the bus
free for the boost leg to hold up.  The mode supervisor senses the source
profile voltage (panel-side sensing), not the converter-held bus.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import BatteryModel, CircuitState, ConverterParams
from .control import (
    ControllerConfig,
    ControllerState,
    Mode,
    gate_steps,
    held_ticks,
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
_MODE_CODE = {name: code for code, name in MODE_NAMES.items()}
# Rows per block of a streamed trace: per np.loadtxt call in reading, and
# the samples the engine records before it hands them on in `simulate`.
_READ_BLOCK = 1 << 16
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

    def evaluate(self, t: float, t_start: float) -> tuple[float, float]:
        """Voltage at time t, for the segment that starts at t_start, and the
        time until which it stays the same: `until` for a hold, t itself on
        a ramp."""
        if self.v_start == self.v_end:
            return self.v_start, self.until
        frac = (t - t_start) / (self.until - t_start)
        return self.v_start + (self.v_end - self.v_start) * frac, t


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
        seg, t_start = self.locate(t)
        return seg.evaluate(t, t_start)

    def locate(self, t: float) -> tuple[SourceSegment, float]:
        """The segment that holds at time t and its start; after the last
        segment, a hold of its end voltage until infinity."""
        t_seg_start = 0.0
        for seg in self.segments:
            if t < seg.until:
                return seg, t_seg_start
            t_seg_start = seg.until
        v = self.segments[-1].v_end
        return SourceSegment(until=math.inf, v_start=v, v_end=v), t_seg_start


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
        for name in ("i_limit", "v_limit"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.t_end < 0.0:
            raise ValueError("t_end must be non-negative")
        if self.record_decimation < 1:
            raise ValueError("record_decimation must be >= 1")
        periods_per_step = self.params.f_s * self.dt
        if not (periods_per_step > 0.0 and math.isfinite(1.0 / periods_per_step)
                and math.isfinite(self.t_end / self.dt)):
            raise ValueError(f"dt={self.dt} gives no finite step count "
                             f"(f_s={self.params.f_s}, t_end={self.t_end})")
        period_steps = 1.0 / periods_per_step
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
        # The bus starts at the source voltage or is clamped to it.
        for i, seg in enumerate(self.source.segments, 1):
            if not max(abs(seg.v_start), abs(seg.v_end)) <= self.v_limit:
                raise ValueError(
                    f"source segment {i} (until {seg.until:g} s, {seg.v_start:g} V to "
                    f"{seg.v_end:g} V) exceeds v_limit = {self.v_limit:g} V")
        for name in ("fixed_duty", "initial_duty"):
            if getattr(self, name) is not None and not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.fixed_duty is not None and self.initial_mode is None:
            raise ValueError("fixed_duty requires an explicit initial_mode")
        if self.fixed_duty is not None and self.initial_duty is not None:
            raise ValueError("initial_duty has no effect with fixed_duty")
        if self.initial_state is not None:
            if self.initial_state.t != 0.0:
                raise ValueError("initial_state must start at t = 0")
            if not 0.0 <= self.initial_state.soc <= 1.0:
                raise ValueError(
                    f"initial_state.soc must be in [0, 1], got {self.initial_state.soc}")
            for name, bound in (("i_l", "i_limit"), ("v_c_bus", "v_limit"), ("v_c_o", "v_limit")):
                value, limit = getattr(self.initial_state, name), getattr(self, bound)
                if not abs(value) <= limit:
                    raise ValueError(f"initial_state.{name} = {value:g} exceeds {bound} = "
                                     f"{limit:g} in magnitude")

    @property
    def steps_per_period(self) -> int:
        return round(1.0 / (self.params.f_s * self.dt))

    @property
    def samples(self) -> int:
        """The trace's length: every record_decimation-th step of the
        horizon, from t = 0."""
        return round(self.t_end / self.dt) // self.record_decimation + 1

    def start_state(self) -> CircuitState:
        """The plant at t = 0: `initial_state`, or else the bus at the source
        voltage, the battery at its SoC and everything else at zero."""
        if self.initial_state is not None:
            return self.initial_state
        return CircuitState(i_l=0.0, v_c_bus=self.source.voltage(0.0), v_c_o=0.0,
                            soc=self.battery.soc, t=0.0)


@dataclass
class Trace:
    """Recorded waveforms, uniformly sampled after decimation.

    `duty` is the controller's duty register.  The gates use it quantised
    to the step grid, round(duty * n) / n with n steps per period, so the
    two differ by up to 1 / (2n); `analyze`'s ripple prediction reads the
    register value.  The e_* arrays are cumulative energy meters (J) used
    by the balance checks; they are not part of the CSV export format.
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
        from ._trace_csv import write_csv   # loaded only by a run that writes a CSV
        write_csv(path, [self])


def trace_from_csv(path) -> Trace:
    """Read a trace CSV written by :meth:`Trace.to_csv`; the energy meters
    are not in the file and read back as zeros.  A malformed file raises
    ValueError, as `_trace_csv.read_blocks` states."""
    from ._trace_csv import read_blocks     # loaded only by a run that reads a CSV
    # Columns for as many rows as the file has line feeds, no fewer than
    # its data rows: the rows are parsed from bytes, where a bare \r ends
    # no line.
    with open(path, "rb") as fh:
        ends = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
    cols = {name: np.empty(ends, dtype) for name, dtype, _ in _TRACE_FORMAT}
    n = 0
    for block in read_blocks(path):
        for name, col in cols.items():
            col[n:n + len(block)] = block.column(name)
        n += len(block)
    return Trace(**{name: col[:n] for name, col in cols.items()}, e_source=np.zeros(n),
                 e_load=np.zeros(n), e_battery=np.zeros(n), e_link=np.zeros(n))


# The rows of a recorded sample, in the order the kernels fill them: time,
# the state (i_l, v_c_bus, v_c_o, soc) in `_step_map`'s order, then the
# energy meters.  `_Engine.trace` derives the other columns.
_STEP_ROWS = ("time", "i_l", "v_c_bus", "v_c_o", "soc",
              "e_source", "e_load", "e_battery", "e_link")
# The plant law, one entry per conduction path, each one linear circuit.
# The switch node sits at a*r_on*i_l + v0*v_f, plus v_bus where the high
# side conducts and the bus carries i_l (`bus`); the inductor sees it less
# v_batt.  A switch conducts either sign of i_l (sign None); with both gates
# off the path is the one whose `sign` i_l has, and a step that would not
# keep it ends at i_l = 0, on idle (the DCM clamp), as every idle step does.
_PATHS = {      # a, v0, bus, sign
    "S1": (-1.0, 0.0, True, None),
    "S2": (-1.0, 0.0, False, None),
    "D2": (0.0, -1.0, False, 1.0),
    "D1": (0.0, 1.0, True, -1.0),
    "idle": (0.0, 0.0, False, 0.0),
}
_OFF_PATHS = {law[3]: path for path, law in _PATHS.items() if law[3] is not None}
# A period-kernel call costs the overhead of its numpy calls whatever the
# period's length, and batches share it only while the gate counts hold.
# run() batched against scalar at 48, 64 and 80 steps per period (Python
# 3.11, numpy 2.4, 2-core x86): the golden boost case, whose gates hold,
# ran 6-9x faster batched and the ramp case 1.1-1.25x, but the trickle
# case, whose gates move or whose periods decline nearly every period,
# 1.85, 1.31 and 1.20x slower; no count of steps is a break-even for all
# three.  At 20 steps per period boost ran 3x faster, trickle 2.5-3x slower.
_MIN_BATCH_STEPS = 64
# The most grid states one period-kernel call computes, n // g + 1 per
# period of n steps with a sample grid of every g-th step, each 8 floats
# of its states and meters.  A period's other rows count as states too:
# its check bound covers the g + 1 steps from a grid point, each at most
# 22 margins (11 a span, `_Engine._bound`), which one sample a period
# (g = n) makes the most; and its other rows (the period map's power, the
# wrap, span and quadrature states, their monomials and sums, the
# averages), some 3 KB, count as _PERIOD_POINTS states.  A call takes the
# periods for which the most of the three fits the budget, one at least:
# 65 periods at a line-regulation point (n 1000, g 4), 32 on buck_charge
# (g 2), 162 at n 100 and g 100, 341 where n // g + 1 and g + 1 are under
# 48.  Its buffers and temporaries scale with the budget, not with the
# steps of a call.  With a batch's held ticks taken in one pass
# (`_Engine._wraps`), a call no longer costs a tick per period, and
# run() on the line-regulation benchmark's three points (seed 0, 60
# rounds interleaved in one process, Python 3.11, numpy 2.4, 2-core x86)
# took 0.89, 0.82 and 0.82 of the time that ticking every wrap at 1 << 13
# took, at budgets of 1 << 13, 1 << 14 and 1 << 15 (65, 40 and 34 calls
# at the lowest point).  The benchmark's peak RSS read 74.7, 75.3 and
# 76.6 MB on line_sweep (74.6 before) and 53.3, 53.5 and 54.6 MB on
# charge_cli (53.9 before): 1 << 15 buys no time for its memory.
_BATCH_POINTS = 1 << 14
_PERIOD_POINTS = 48
# The monomials of a state y = (y_0 .. y_3, 1) on which the quadrature
# tables weigh (`_Engine._quadrature`) and the period kernel evaluates them:
# y itself, then the ten products of its four states.
_FEATURES = np.array([(i, 4) for i in range(5)]
                     + [(i, j) for i in range(4) for j in range(i, 4)]).T
# The period kernel's rounding slack: a check passes a period without its
# steps only by more than this share of the checked functional's terms at
# the state bounds (`_Engine._bound`).
_BOUND_SLACK = 1e-9
# The most plans whose tables a run keeps (`_Engine.plans`), dropping the
# one used longest ago: some 20 kB each at buck_charge's 1000 steps per
# period.  Its current loop changes plan 395 times among 84 plans, mostly
# back to a recent one; keeping 48 rebuilds 120 of them, 64 rebuild 98.  In
# the benchmark's charge_cli round trip (Python 3.11, numpy 2.4, 2-core
# x86) peak RSS read 52.4 MB keeping one plan, 53.3 MB keeping 48 and
# 53.7 MB keeping 64.
_PLANS = 48
# Elements per chunk of a trace column computed in pieces: 32 kB of float64.
_CHUNK = 1 << 12


def _off_path(i_l: float) -> str:
    """The path with both gates off: the one whose sign i_l has (a float or
    a numpy float, whose comparisons give numpy bools, which do not
    subtract)."""
    return _OFF_PATHS[int(i_l > 0.0) - int(i_l < 0.0)]


def _step_map(scenario: Scenario, path: str, source_on: bool, v_s: float) -> np.ndarray:
    """One explicit Euler step along a conduction path of `_PATHS` as a
    homogeneous 5x5 matrix on (i_l, v_c_bus, v_c_o, soc, 1), with the source
    at v_s conducting (r_source > 0) or clamping the bus (stiff source) when
    `source_on`.  It holds while the path and the source regime do: the
    DCM, source and SoC clamps are not in it, except on idle, whose clamp
    holds i_l at zero on every step."""
    p, b, dt = scenario.params, scenario.battery, scenario.dt
    a, v0, bus, sign = _PATHS[path]
    m = np.zeros((5, 5))
    if sign != 0:                           # on idle i_l stays at zero
        h = dt / p.l_p
        m[0] = (1.0 + h * (a * p.r_on - b.r_int), h if bus else 0.0, 0.0,
                -h * (b.v_emf_full - b.v_emf_empty), h * (v0 * p.v_f - b.v_emf_empty))
    if source_on and p.r_source == 0.0:
        m[1, 4] = v_s
    else:
        # v_bus + dt/C_bus * (i_src - i_branch - (v_bus - v_o)/r_link).
        g = dt / p.c_bus
        y = 1.0 / p.r_source if source_on else 0.0
        m[1] = (-g if bus else 0.0, 1.0 - g * (y + 1.0 / p.r_link),
                g / p.r_link, 0.0, g * y * v_s)
    h = dt / p.c_o
    m[2] = (0.0, h / p.r_link, 1.0 - h * (1.0 / p.r_link + 1.0 / p.r_load), 0.0, 0.0)
    m[3] = (dt / b.capacity, 0.0, 0.0, 1.0, 0.0)
    m[4, 4] = 1.0
    return m


def _power_stack(m: np.ndarray, count: int, rows: slice = slice(None)) -> np.ndarray:
    """M^k for k = 0 .. count, or their rows `rows`, stacked along the first
    axis; M is square."""
    eye = np.eye(len(m))
    p = np.empty((count + 1, *eye[rows].shape))
    p[0] = eye[rows]
    if count:
        p[1] = m[rows]
    k, power = 1, m                         # power = M^k
    while k < count:  # p[k + j] = p[j] @ M^k: doubles the powers known
        j = min(k, count - k)
        np.matmul(p[1:j + 1], power, out=p[k + 1:k + j + 1])
        k += j
        if k < count:
            power = power @ power
    return p


def _step_times(t: float, dt: float, start: int, stride: int, counts: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """The time before each of steps start, start + stride, ... (len(out)
    of them) of a stretch that is at time t before its step 0, into `out`,
    as the scalar kernel sums it, t + dt + dt + ... in order; `counts`
    holds 0, 1, 2 ... as floats, at least len(out) of them.  Within the
    binade of a sum t_b > 0, each next sum t_k + dt rounds to t_k + r,
    r = (t_b + dt) - t_b, unless dt lies halfway between two multiples of
    the binade's ulp; then it rounds to the even one, and from an even t_b
    every next sum does.  So from such a t_b the times are t_b + j r
    exactly, up to the binade's end; the sum at 0 or at an odd t_b, and the
    first past the end, are taken one step at a time."""
    i, k, t_k = 0, 0, t         # the next entry, and the step where a rule starts
    while i < len(out):
        ulp = math.ulp(t_k)
        top = math.ldexp(1.0, math.frexp(t_k)[1])   # where t_k's binade ends
        r = (t_k + dt) - t_k
        if t_k > 0.0 and r > 0.0 and (math.fmod(dt, ulp) != ulp / 2
                                      or math.fmod(t_k, 2 * ulp) == 0.0):
            j = max(math.ceil((top - t_k) / r), 1)  # the first step past the binade
            while j > 1 and t_k + (j - 1) * r >= top:
                j -= 1
            while t_k + j * r < top:
                j += 1
        else:
            j, r = 1, 0.0
        stop = min(max(-(-(k + j - start) // stride), i), len(out))
        part = out[i:stop]
        np.multiply(counts[:stop - i], stride * r, out=part)
        part += t_k + (start + stride * i - k) * r
        i, k, t_k = stop, k + j, t_k + (j - 1) * r + dt
    return out


def _source_margin(scenario: Scenario, v_s, i_l, v_bus, v_o, path: str):
    """How far the source is from blocking on a step along `path` from
    (i_l, v_bus, v_o), floats or arrays: v_s - v_bus, or for a stiff source
    v_s less the bus's unclamped next value.  The source conducts or clamps
    the bus where it is >= 0; at 0 both regimes take the same step."""
    p = scenario.params
    margin = v_s - v_bus
    if p.r_source == 0.0:
        g = scenario.dt / p.c_bus
        margin += g * ((v_bus - v_o) * (1.0 / p.r_link))
        if _PATHS[path][2]:                 # the bus carries i_l
            margin += g * i_l
    return margin


def _meter_forms(scenario: Scenario, path: str, source_on: bool, v_s: float) -> tuple:
    """The energy meters' increments over one Euler step along `path`, left
    Riemann as `_Engine.euler` takes them, each the product (f x)(h x) of
    two affine functions of x = (i_l, v_c_bus, v_c_o, soc, 1): returns the
    rows f and the rows h, in the order e_source, e_load, e_battery, e_link.
    The source current is the `_source_margin` times the source's
    conductance (C_bus/dt for a stiff source) where the source conducts (or
    clamps the bus), else zero."""
    p, b, dt = scenario.params, scenario.battery, scenario.dt
    e = np.eye(5)
    i_src = np.zeros(5)
    if source_on:
        to_current = p.c_bus / dt if p.r_source == 0.0 else 1.0 / p.r_source
        i_src = _source_margin(scenario, v_s * e[4], e[0], e[1], e[2], path) * to_current
    emf = (b.v_emf_full - b.v_emf_empty) * e[3] + b.v_emf_empty * e[4]
    i_link = (e[1] - e[2]) / p.r_link
    return (np.array([dt * e[1], (dt / p.r_load) * e[2], dt * emf, (dt * p.r_link) * i_link]),
            np.array([i_src, e[2], e[0], i_link]))


# A step map M's tables in the period kernel, each over a whole period and
# built once, when a span first meets M (`_Engine._span`): `stack`, M^k for
# k = 0 .. n over the state rows, step-major as stack[j, k, i] = (M^k)[i, j]
# so that one product of (x, 1) with stack[:, :k + 1] gives the states after
# 0 .. k steps in turn; `grid`, `weights` and `checks`, which bound every
# span along M (`_Engine._bound`); the quadrature's `small`, `table`, `sums`.
_StepMap = collections.namedtuple("_StepMap", "stack grid weights checks small table sums")
# A plan, the gate count of a period and the step maps of its spans, and
# the tables that the gate count decides: the period map's `powers` and the
# sample `grid`, built when a period meets a plan that the run does not
# keep (`_Engine._plan`) and dropped with its step maps.
_Plan = collections.namedtuple("_Plan", "powers grid")


class _Engine:
    """One integration of a scenario from its start state: the state carried
    between kernel calls, and the block of the trace it records into.

    The kernels record into `rec`, one row per name of `_STEP_ROWS` and one
    column per sample, from the trace's sample `base` on; the tick records
    the controller into `record`, once per period that holds a sample.
    :meth:`advance` runs the kernels until the next call might record past
    `rows` samples or the run ends, and :meth:`trace` hands on the samples
    recorded since its last call.

    It carries `plant` = [i_l, v_bus, v_o, soc] and `meters` = [e_source,
    e_load, e_battery, e_link] in that row order, `avgs` = the averages of
    i_l, v_o and v_batt that the next tick reads (the start state's values
    until a period is taken), the time t, the controller state `ctrl`, the
    gate counts `on1` and `on2` of the current period, the source voltage
    and the time until which it holds, and k, the steps taken, from which
    it derives the next sample.  For the period kernel it keeps `ticked`,
    the k of the last tick, `held`, whether that tick kept the mode and the
    gate counts, `moved`, the k of the last tick that moved them, `hold`,
    the periods of the hold that tick ended, `expect`, the k at which the
    next move is expected, and `batch`, the periods a call tries past it.

    :meth:`tick` is the controller, :meth:`euler` the scalar kernel and
    :meth:`period` the batched one; :meth:`advance` calls them, and every
    kernel call starts at a carrier wrap, right after its tick.  A batch
    acts for the controller at the wraps inside it itself (:meth:`_wraps`),
    its held ticks in one pass, and ticks the wrap it stops at when a tick
    there moved the gate counts.
    """

    def __init__(self, scenario: Scenario, batched: bool = True, rows: int | None = None):
        """`batched` runs the period kernel where a period has at least
        _MIN_BATCH_STEPS steps; `rows`, at least 1, the most samples a
        block holds (or one call's, where a call records more), defaults to
        the whole trace."""
        self.scenario = scenario
        self.n_period = scenario.steps_per_period
        self.n_steps = round(scenario.t_end / scenario.dt)
        self.g = math.gcd(self.n_period, scenario.record_decimation)   # the sample grid
        p = scenario.params
        self.laws = {path: (a * p.r_on, v0 * p.v_f, bus, sign)   # in ohms and volts
                     for path, (a, v0, bus, sign) in _PATHS.items()}
        state = scenario.start_state()
        self.plant = [state.i_l, state.v_c_bus, state.v_c_o, state.soc]
        self.t = state.t
        mode = scenario.initial_mode if scenario.initial_mode is not None else Mode.TRICKLE
        duty = scenario.fixed_duty if scenario.fixed_duty is not None else scenario.initial_duty
        self.ctrl = initial_controller_state(scenario.controller, mode=mode, duty=duty)
        self.on1 = self.on2 = 0
        self.meters = [0.0] * 4
        self.avgs = [state.i_l, state.v_c_o,
                     self.emf(state.soc) + scenario.battery.r_int * state.i_l]
        self.v_s = math.nan
        self.v_s_until = -math.inf
        self.k = 0                          # steps taken
        self.ticked = -1
        self.held = False
        self.moved, self.hold = 0, math.inf     # no hold has ended yet
        self.expect = 0
        self.batch = 1
        self.batched = batched and self.n_period >= _MIN_BATCH_STEPS
        # The most steps one call takes: the periods whose grid states,
        # check margins and other rows each fit the budget, one at least.
        points = max(self.n_period // self.g + 1, self.g + 1, _PERIOD_POINTS)
        self.most = self.n_period * max(_BATCH_POINTS // points, 1)
        self.n_rec = scenario.samples
        self.rows = self.n_rec if rows is None else rows
        # A block is handed on before a call that might take it past `rows`
        # samples, unless it holds none.  A call from k records at most
        # `call` samples, and one that ends on the final instant, on the
        # grid, one fewer, so it fits too.
        self.call = self.most // scenario.record_decimation + 1
        self.rec = np.empty((len(_STEP_ROWS), min(max(self.rows, self.call), self.n_rec)))
        self.base = 0                       # the sample in rec's first column
        self.record = []                    # the controller of each period with a sample
        self.maps = None                    # batched-period buffers, made on first use

    def tick(self) -> None:
        """The controller at a carrier wrap: mode and duty from the last
        period's averages, unless the duty is fixed; then the gate counts
        of the period that starts, and whether they and the mode held.  A
        tick after the first that moves them ends a hold, and expects the
        next move after the shorter of the last two holds.  A period that
        holds a recorded sample, the final instant included,
        adds its wrap step, mode code, duty and gate counts (at most the
        steps left, so int64 holds them) to `record`.  Inside a batch,
        `_wraps` gives the ticks that hold everything the same results in
        one pass."""
        if self.t >= self.v_s_until:
            self.v_s, self.v_s_until = self.scenario.source.evaluate(self.t)
        ctrl = self.ctrl
        before = (ctrl.mode, self.on1, self.on2)
        if self.scenario.fixed_duty is None:
            cfg = self.scenario.controller
            avg_i, avg_vl, avg_vb = self.avgs
            mode = select_mode(self.v_s, avg_vb, self.plant[3], ctrl.mode, cfg)
            if mode is not ctrl.mode:
                ctrl = ControllerState(mode=mode, duty=ctrl.duty, cc_cv_phase=ctrl.cc_cv_phase)
            self.ctrl = ctrl = regulate(avg_vl, avg_i, avg_vb, ctrl, cfg)
        self.on1, self.on2 = gate_steps(ctrl.duty, ctrl.mode, self.n_period)
        self.held = (ctrl.mode, self.on1, self.on2) == before
        self.ticked = k = self.k
        left, n = self.n_steps - k, self.n_period
        if k and not self.held:
            hold = (k - self.moved) // n
            self.expect, self.moved, self.hold = k + n * min(hold, self.hold), k, hold
        if self._sampled(k):
            self.record.append((k, MODE_CODES[ctrl.mode], ctrl.duty,
                                min(self.on1, left), min(self.on2, left)))

    def _sampled(self, k: int) -> bool:
        """Whether the period from wrap k holds a recorded sample, the final
        instant included."""
        left, n = self.n_steps - k, self.n_period
        return -k % self.scenario.record_decimation <= (n - 1 if n < left else left)

    def emf(self, soc):
        """Battery EMF at a state of charge (a float or an array)."""
        b = self.scenario.battery
        return b.v_emf_empty + (b.v_emf_full - b.v_emf_empty) * soc

    def euler(self, n_steps: int) -> None:
        """The scalar kernel: `n_steps` explicit Euler steps from a carrier
        wrap, at most one period's worth, recording the pre-update state at
        each decimation point.

        Each step: source voltage, battery EMF, then one update with
        pre-update values on the right-hand side, along the path that
        `period` takes: the gate's switch up to the gate edge, then the path
        whose sign the current has (`_off_path`).  The path changes only
        there and where the DCM clamp stops the current, which leaves it
        idle.  One inductor update and one clamp, with the coefficients of
        `_PATHS`, serve every path.  Raises :class:`SimulationDiverged` when
        a state magnitude leaves the bounds.
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
        laws = self.laws
        r_source = p.r_source
        inv_r_source = 1.0 / r_source if r_source > 0.0 else 0.0
        c_bus_over_dt = p.c_bus / dt
        emf_base = b.v_emf_empty
        emf_span = b.v_emf_full - b.v_emf_empty
        r_int = b.r_int
        inv_capacity = 1.0 / b.capacity
        on = self.on1 + self.on2            # the gate edge; one of them is zero

        i_l, v_bus, v_o, soc = self.plant
        a, v0, bus, sign = laws["S1" if self.on1 else "S2"]   # up to the gate edge
        t = self.t
        acc_i = acc_vl = acc_vb = 0.0       # the period's sums, from its wrap
        e_src, e_load, e_batt, e_link = self.meters
        v_s = self.v_s
        v_s_until = self.v_s_until
        col = -(-self.k // dec)             # the next sample
        j_rec = col * dec - self.k          # its step in this period
        col -= self.base                    # its column
        samples = self.rec.T                # samples[col] takes a tuple faster than rec[:, col]

        seg = None                          # the source segment last found, from seg_start
        for j in range(n_steps):            # j: steps since the carrier wrap
            if t >= v_s_until:
                if seg is None or t >= seg.until:
                    seg, seg_start = source.locate(t)
                v_s, v_s_until = seg.evaluate(t, seg_start)
            emf = emf_base + emf_span * soc
            v_batt = emf + r_int * i_l

            if j == j_rec:
                samples[col] = (t, i_l, v_bus, v_o, soc, e_src, e_load, e_batt, e_link)
                col += 1
                j_rec += dec

            if j == on:                     # the gate edge: the off path from here on
                a, v0, bus, sign = laws[_off_path(i_l)]
            v_sw = a * i_l + v0             # the switch node
            i_branch = 0.0
            if bus:
                v_sw += v_bus
                i_branch = i_l
            i_l2 = i_l + dt * (v_sw - v_batt) * inv_l
            if sign is not None and i_l2 * sign <= 0.0:   # the DCM clamp
                i_l2 = 0.0
                a, v0, bus, sign = laws["idle"]
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

        self.plant = [i_l, v_bus, v_o, soc]
        self.t = t
        self.meters = [e_src, e_load, e_batt, e_link]
        self.avgs = [acc_i / self.n_period, acc_vl / self.n_period, acc_vb / self.n_period]
        self.v_s = v_s
        self.v_s_until = v_s_until
        self.k += n_steps

    def period(self) -> int:
        """The batched kernel: whole carrier periods from a wrap whose tick
        is taken, as many as it can; returns how many it took.

        The gate counts fix a period's two spans, on-interval and
        off-interval, each one affine step map raised to the span's length;
        their product is the period map.  While ticks keep the mode and the
        gate counts, every period repeats those maps: the period map's
        powers give the state at each wrap, and products of the span starts
        with a span's stacked powers give its states on the grid of the
        samples, every g-th step, g = gcd(n, dec), for every period
        (`_states`).  Nothing reads the states between grid points: each
        span's checks bound them from its grid with its step map's weights,
        and only a period the bound leaves open is stepped through, one
        product per span (`_exact`).  A plan, the gate count and the step
        maps of the spans, has the tables its gate count decides built when
        a call meets it; the run keeps those of the last _PLANS (`_plan`).

        The meters and the periods' averages come from span quadrature, not
        from the steps.  Within a span each step is the affine map M, and a
        meter's step adds a product of two affine functions of the state
        (`_meter_forms`), so the step is linear on the lifted state of y's
        monomials, the meters and the sums of i_l, v_c_o and v_batt, and
        powers of that one lifted map give each meter over k steps from
        the span's start y as a quadratic in y and each sum as a linear
        one (`_quadrature`).  The samples lie on the grid, and each span is
        read at three states: its start, its
        first grid point and its last (`_grid`); one product of their
        monomials with the plan's weights gives every span's meters up to
        its first grid point, its sums and its meters over the span, for
        every period of the stretch; a cumulative sum over the spans gives
        the meters where each starts; and one product per span with its
        map's table of the meters at every g-th step gives the meters along
        its grid, of which a strided slice are the samples'.  A sample
        records its time, state and meters only; the ticks record the
        controller.  No meter or average is summed step by step.  They
        agree with the scalar kernel's per-step sums to within 1e-9 of each
        column's magnitude.

        A call tries the periods up to `expect`, the wrap at which the
        controller's last two holds put its next move (`tick`), and past
        it `batch` periods: twice the last try when the kernel took it
        whole, one when a check or a tick stopped it.  A check that fails
        drops the expectation, so the call after it tries one period.  No
        call tries past `most` steps (the periods whose grid states, check
        bound and other rows fit _BATCH_POINTS, one at least), the last
        whole period or the source's next change.  It takes the periods
        before the first that fails a check (`_checks`) and acts for the
        controller at the wraps between them in order (`_wraps`): one array
        pass over the ticks that hold the mode, the CC/CV phase and the
        gate counts and leave the duty clamp idle, then a tick at a time,
        up to the first tick that moves the mode or the gate counts: that
        tick stands for its wrap, whose period the next call takes.

        Returns 0, with the run's state unchanged, when the first period
        fails a check or the source changes within it; the scalar kernel
        then takes that period.
        """
        scn = self.scenario
        n, g = self.n_period, self.g
        dec = scn.record_decimation
        if self.maps is None:
            self.max_batch = self.most // n
            self.maps = {}                  # by step map: its tables (`_StepMap`)
            self.plans = {}                 # by plan: its tables (`_Plan`), the last used last
            # The states the kernel computes: at each wrap and at the start
            # of each period's second span as (x, 1), and into `xs` at each
            # period's grid points, every g-th step from its wrap, the four
            # states and then the four meters, so that a row of `xs` holds a
            # quantity on the grid of the whole stretch, step after step.
            self.wraps = np.ones((self.max_batch + 1, 5))
            self.starts = np.ones((self.max_batch, 5))
            self.firsts = np.ones((self.max_batch, 5))  # a span's first grid point
            self.xs = np.empty((8, self.max_batch + 1, n // g))
            # Per period and span, its least and greatest states, then 1.
            self.box = np.ones((self.max_batch, 2, 9))
            self.ys = np.ones((6 * self.max_batch, 5))  # the spans' states, as (y, 1)
            self.counts = np.arange(float(max(self.call, self.max_batch)))  # for _step_times
        ahead = (self.expect - self.k) // n
        m = min(ahead if ahead > 0 else self.batch, self.max_batch, (self.n_steps - self.k) // n)
        # The time before each period's last step.
        lasts = _step_times(self.t, scn.dt, n - 1, n, self.counts, np.empty(m))
        if lasts[0] >= self.v_s_until:      # on a ramp, every period
            return 0
        if lasts[-1] >= self.v_s_until:
            # The periods whose every step comes before the source changes.
            m = int(np.searchsorted(lasts, self.v_s_until))

        # The spans, from the first period's states, and their plan's tables.
        on = self.on1 + self.on2  # one of them is zero
        x = x0 = np.array([*self.plant, 1.0])   # the state at the first wrap, as (x, 1)
        spans = []
        if on:
            spans.append(self._span(0, on, "S1" if self.on1 else "S2", x0))
            *_, first = spans[0]
            x = x0 @ first.stack[:, on]     # the state at step `on`
        if on < n:
            spans.append(self._span(on, n, _off_path(float(x[0])), x))
        plan = (on, *(key for _, _, key, _ in spans))
        tables = self.plans.pop(plan, None)
        if tables is None:
            if len(self.plans) >= _PLANS:   # the plan used longest ago goes
                del self.plans[next(iter(self.plans))]
            tables = self._plan(spans)
        self.plans[plan] = tables
        fit = self._states(m, spans, x0, tables.powers)
        if fit < m:                         # a check fails: no move expected, one period next
            self.batch, self.expect = 1, self.k
            if not fit:
                return 0

        # The meters and each period's sums by quadrature, from three states
        # of each span: its start, its first and its last grid point.
        at, weights, layout = tables.grid
        ys = self.ys[:len(at) // self.max_batch * fit]
        ys[:, :4] = np.take(self.xs[:4].reshape(4, -1), at[:len(ys)], axis=1).T
        if len(spans) > 1:
            ys[3::6, :4] = self.starts[:fit, :4]
        ys[:, 1] -= ys[:, 2]                # to the quadrature basis
        ys[:, 2] -= self.v_s
        monomials = ys[:, _FEATURES[0]]
        monomials *= ys[:, _FEATURES[1]]
        monomials = monomials.reshape(fit, len(spans), 3, -1)
        # Per span: its meters over the span, its sums and its meters up to
        # its first grid point.
        sums = (monomials.reshape(fit, -1) @ weights).reshape(fit, len(spans), -1)
        meters = np.empty((fit * len(spans) + 1, 4))     # at each span's start
        meters[0] = self.meters
        meters[1:] = sums[:, :, :4].reshape(-1, 4)
        np.cumsum(meters, axis=0, out=meters)
        # Per span, the monomials and the meters at its first grid point.
        at_first = np.empty((fit, len(spans), 4 + monomials.shape[3]))
        np.add(meters[:-1].reshape(fit, len(spans), 4), sums[:, :, 7:], out=at_first[:, :, -4:])
        at_first[:, :, :-4] = monomials[:, :, 1]
        avgs = sums[:, :, 4:7].sum(axis=1) / n
        del monomials, sums                 # a stretch's worth each
        times = (lasts[:fit] + scn.dt).tolist()     # each a step on from the last
        plants = self.wraps[1:fit + 1, :4].tolist()

        k0, t0 = self.k, self.t
        taken = self._wraps(times, plants, avgs)
        self.meters = meters[len(spans) * taken].tolist()

        # The meters along each span's grid, from those at its first grid
        # point, into `xs`; then the samples, every dec // g-th point of its
        # rows from the first, into their columns of `rec`.
        for i, (point, points, table) in enumerate(layout):
            np.matmul(at_first[:taken, i], table[:, :, :points],
                      out=self.xs[4:, :taken, point:point + points])
        col = -(-k0 // dec)                 # the next sample
        first = col * dec - k0              # its step, on the grid
        col -= self.base                    # its column
        rec = self.rec[:, col:col + len(range(first, taken * n, dec))]
        _step_times(t0, scn.dt, first, dec, self.counts, rec[0])
        rec[1:] = self.xs.reshape(8, -1)[:, first // g:taken * (n // g):dec // g]
        self.batch = 2 * m if taken == m else 1
        return taken

    def _wraps(self, times: list, plants: list, avgs: np.ndarray) -> int:
        """The run's state through the wraps that end a batch's periods,
        given each period's end time, plant state and averages (a row of
        `avgs`: i_l, v_c_o, v_batt): ticks each wrap but the last on the
        averages of the period it ends, up to the first tick that moves
        the mode or the gate counts, and returns the periods taken, up to
        that wrap.  The leading ticks that keep the mode, the CC/CV phase
        and the gate counts and leave the duty clamp idle (`held_ticks`;
        all of them at a fixed duty) take one pass, which adds to `record`
        and sets `ctrl` as `tick` would there, the source holding over a
        batch; the rest tick one at a time."""
        n, k0, ctrl, last = self.n_period, self.k, self.ctrl, len(avgs)
        held = 0
        if last > 1:
            if self.scenario.fixed_duty is None:
                quiet = avgs[:-1]
                held, duties = held_ticks(self.v_s, quiet[:, 1], quiet[:, 0], quiet[:, 2],
                                          ctrl, self.scenario.controller, n)
            else:
                held, duties = last - 1, np.full(last - 1, ctrl.duty)
        if held:     # a batch's periods are whole, so no gate count passes the steps left
            entries = zip(range(k0 + n, k0 + n * held + 1, n),
                          itertools.repeat(MODE_CODES[ctrl.mode]), duties[:held].tolist(),
                          itertools.repeat(self.on1), itertools.repeat(self.on2))
            if self.scenario.record_decimation > n:     # some periods hold no sample
                entries = (entry for entry in entries if self._sampled(entry[0]))
            self.record.extend(entries)
            if duties[held - 1] != ctrl.duty:
                self.ctrl = ControllerState(mode=ctrl.mode, duty=float(duties[held - 1]),
                                            cc_cv_phase=ctrl.cc_cv_phase)
            self.held, self.ticked = True, k0 + n * held
        for taken in range(held + 1, last + 1):
            self.t, self.plant = times[taken - 1], plants[taken - 1]
            self.avgs = avgs[taken - 1].tolist()
            self.k = k0 + taken * n
            if taken < last:
                self.tick()
                if not self.held:
                    break
        return taken

    def _states(self, m: int, spans: list, x0: np.ndarray, powers: np.ndarray) -> int:
        """The states of m periods from the wrap state x0, as (x, 1), that
        the kernel reads: each wrap from the period map's `powers`, each
        span's start, and into `xs` the grid points, every g-th step, from
        one product per span of its first state with its grid powers
        (`_bound`).  Returns how many periods come before the first that
        fails a check.

        The checks read the grid, not the steps.  Within a span of the step
        map M, the state j steps after a grid point or the span's start x
        is M^j x, so each row l of the span's checks (`_checks`) takes
        l M^j x there.  Over the box of the span's grid states and start, the
        least and greatest of each state in each period, interval
        arithmetic bounds l M^j x for every j <= g, so for every step of
        the span, in one product of the box with the span's step map's
        weights (`_bound`).  A period passes without its steps when every
        bound of its spans clears its threshold by a rounding slack; the
        periods it leaves open take the per-step check (`_exact`), in
        order, up to the first that fails."""
        n, g = self.n_period, self.g
        wraps, starts, firsts = self.wraps[:m + 1], self.starts[:m], self.firsts[:m]
        np.matmul(x0, powers[:m + 1], out=wraps)
        xs = self.xs[:4, :m + 1]
        for a, b, _, step_map in spans:
            if a:                           # from its first grid point
                first, last, origin = -(-a // g), n // g, firsts
                if first < last:
                    np.matmul(starts, step_map.stack[:, first * g - a], out=firsts[:, :4])
            else:                           # from the wrap
                first, last, origin = 0, -(-b // g), wraps[:m]
            np.matmul(origin, step_map.grid[:, :, :last - first], out=xs[:, :m, first:last])
            if b < n:                       # the next span's start
                np.matmul(wraps[:m], step_map.stack[:, b], out=starts[:, :4])
        xs[:, m, 0] = wraps[m, :4]
        cuts = [c for c in (-(-a // g) for a, *_ in spans) if c < n // g]
        box = self.box[:m, :len(spans)]
        grids = box[:, :len(cuts)].transpose(2, 0, 1)     # the spans with grid points
        np.minimum.reduceat(xs[:, :m], cuts, axis=2, out=grids[:4])
        np.maximum.reduceat(xs[:, :m], cuts, axis=2, out=grids[4:8])
        if len(spans) > 1 and spans[1][0] % g:     # the second span's start, off the grid
            lo, hi, start = box[:, 1, :4], box[:, 1, 4:8], starts[:, :4]
            if len(cuts) > 1:
                np.minimum(lo, start, out=lo)
                np.maximum(hi, start, out=hi)
            else:
                lo[:] = hi[:] = start
        ok = np.ones(m, bool)
        for i, (*_, step_map) in enumerate(spans):     # each span against its own weights
            ok &= (box[:, i] @ step_map.weights).min(axis=1) >= 0.0
        if ok.all():
            return m
        for p in np.flatnonzero(~ok).tolist():
            if not self._exact(p, spans):
                return p
        return m

    def _exact(self, p: int, spans: list) -> bool:
        """Whether period p of the call passes every check of its spans'
        tables (`_checks`) step by step, from its wrap and span starts."""
        n = self.n_period
        xs = np.ones((n + 1, 5))            # the period's states, as (x, 1)
        xs[0] = self.wraps[p]
        xs[n] = self.wraps[p + 1]
        for a, b, _, step_map in spans:
            top = min(b, n - 1)             # step n is the next wrap
            if top > a:
                start = self.starts[p] if a else self.wraps[p]
                xs[a + 1:top + 1, :4] = (
                    start @ step_map.stack[:, 1:top - a + 1].reshape(5, -1)).reshape(-1, 4)
            rows, lo, hi = step_map.checks
            checks = xs[a:b + 1] @ rows.T   # each check at steps a .. b
            ok = (lo <= checks) & (checks <= hi)
            # Row 0 at steps a .. b - 1, the rest at max(a, 1) .. b.
            if not (ok[:-1, 0].all() and ok[a == 0:, 1:].all()):
                return False
        return True

    def _span(self, a: int, b: int, path: str, x) -> tuple:
        """Steps a .. b of a period along `path`, in the source regime that
        `_source_margin` gives the state x at step a: (a, b, (path,
        source_on, v_s), that step map's tables, made on first use).
        `period` checks that the path and the regime hold over the span."""
        source_on = _source_margin(self.scenario, self.v_s, *x[:3].tolist(), path) >= 0.0
        key = (path, source_on, self.v_s)
        step_map = self.maps.get(key)
        if step_map is None:
            # Keep the step maps of the current hold voltage only (160 bytes
            # per step of a period for the stack, 160 / g for its grid powers
            # and 728 / g for the tables, 610 kB at n = 1000 and g = 2): a
            # source seldom returns to a voltage.
            if self.maps and next(iter(self.maps))[2] != self.v_s:
                self.maps.clear()
                self.plans.clear()
            stack = np.ascontiguousarray(_power_stack(
                _step_map(self.scenario, *key), self.n_period, slice(4)).transpose(2, 0, 1))
            step_map = self.maps[key] = _StepMap(stack, *self._bound(key, stack),
                                                 *self._quadrature(key))
        return a, b, key, step_map

    def _checks(self, key: tuple) -> tuple:
        """The checks of a span a .. b along a step map: a matrix of
        functionals on (x, 1) and each row's least and greatest value, which
        every step of the span keeps unless a nonlinearity acts.  Row 0,
        the `_source_margin` (a change of source regime), reads the state
        before each step, a .. b - 1; the rest read it after each step,
        max(a, 1) .. b: the divergence bounds, the SoC clamp's [0, 1] and,
        on a path with a sign, the DCM clamp (i_l at least the least
        positive float on D2, the mirror on D1, 0 on idle)."""
        scn = self.scenario
        path, source_on, v_s = key
        e = np.eye(5)
        inf, i_max, v_max, tiny = math.inf, scn.i_limit, scn.v_limit, math.ulp(0.0)
        checks = [(_source_margin(scn, v_s * e[4], e[0], e[1], e[2], path),
                   0.0 if source_on else -inf, inf if source_on else 0.0),
                  (e[0], -i_max, i_max), (e[1], -v_max, v_max), (e[2], -v_max, v_max),
                  (e[3], 0.0, 1.0)]
        sign = _PATHS[path][3]
        if sign is not None:
            checks.append((e[0], tiny if sign > 0 else -inf if sign < 0 else 0.0,
                           inf if sign > 0 else -tiny if sign < 0 else 0.0))
        return tuple(map(np.array, zip(*checks)))

    def _bound(self, key: tuple, stack: np.ndarray) -> tuple:
        """The sample grid and the check bound of a step map M's spans (`_states`).
        Returns its grid powers, grid[i, j, k] = (M^(k g))[i, j] over the
        four state rows, so that one product of (x, 1) with grid[:, :, :k]
        gives each state at every g-th step, state after state; the weights
        that take the box of a span's states, (least, greatest, 1), to each
        check's margin at each j <= g steps on: for each row l of the
        checks, side and j, the least (or greatest) of l M^j x over the box
        less l's bound and a slack of 1e-9 of l's terms at the state bounds
        (none where l's two bounds are equal); and the checks (`_checks`).
        Every step of the span passes the checks where every margin is >= 0."""
        scn = self.scenario
        g = self.g
        grid = np.ascontiguousarray(stack[:, ::g].transpose(2, 0, 1))
        checks = self._checks(key)
        scale = np.array([scn.i_limit, scn.v_limit, scn.v_limit, 1.0, 1.0])
        margins = []
        for l, lo, hi in zip(*checks):
            slack = 0.0 if lo == hi else _BOUND_SLACK * (scale @ np.abs(l))
            lm = (stack[:, :g + 1] @ l[:4]).T  # l M^j, j = 0 .. g
            lm[:, 4] += l[4]
            pos, neg = np.maximum(lm[:, :4], 0.0), np.minimum(lm[:, :4], 0.0)
            if lo > -math.inf:
                margins.append(np.hstack([pos, neg, lm[:, 4:] - (lo + slack)]))
            if hi < math.inf:
                margins.append(np.hstack([-neg, -pos, (hi - slack) - lm[:, 4:]]))
        return grid, np.vstack(margins).T, checks

    def _quadrature(self, key: tuple) -> tuple:
        """The quadrature tables of a step map M, as weights on the
        monomials (`_FEATURES`) of the state y where they start, for r = 0
        .. g steps and for j g steps, j = 0 .. n // g, a period, g = gcd(n,
        dec).  They take the basis y = (i_l, v_c_bus - v_c_o, v_c_o - v_s,
        soc, 1), x = T y: in x the meters' products multiply states of some
        24 V to give increments of the bus-to-rail drop, tens of mV, and
        lose a factor of 10^6 to cancellation; in y that drop, and a bus
        clamped to v_s, are states of their own.  A step is one linear map L
        on z = (y's monomials, the four meters, the sums of i_l, v_c_o and
        v_batt), as each next entry of z is a product of two affine
        functions of y: a monomial of M y, a meter plus its factors'
        product (`_meter_forms`), a sum plus its row times 1.  The tables
        are rows of L^r and of (L^g)^j.  Returns the weights of the four
        meters and the three sums over r steps, (r, 15, 7); per meter, a
        table whose column j gives the meter after j g steps from its first
        rows, on y's monomials, and its last four, on the meters at y; and
        the sums over j g steps, on y's first five monomials."""
        scn = self.scenario
        b = scn.battery
        t = np.eye(5)                       # x = T y
        t[1, 2] = 1.0
        t[1:3, 4] = key[2]
        t_inv = np.eye(5)
        t_inv[1, 2] = -1.0
        t_inv[2, 4] = -key[2]
        m = t_inv @ _step_map(scn, *key) @ t
        meters, by = _meter_forms(scn, *key)
        rows = np.array([(1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0, 0.0),
                         (b.r_int, 0.0, 0.0, b.v_emf_full - b.v_emf_empty, b.v_emf_empty)])
        # Row by row of L, the factors of (f y)(h y), which weighs y's
        # monomial y_i y_j by f_i h_j + f_j h_i, or f_i h_i where i = j
        # (m[4] y = 1); the meters and the sums also keep their own value.
        i, j = _FEATURES
        f = np.concatenate([m[i], meters @ t, rows @ t])
        h = np.concatenate([m[j], by @ t, m[[4, 4, 4]]])
        lifted = np.eye(len(f))
        lifted[:, :len(i)] = f[:, i] * h[:, j] + (i != j) * (f[:, j] * h[:, i])
        out = slice(len(i), None)           # the meters' and the sums' rows
        small = _power_stack(lifted, self.g, out)
        grid = _power_stack(np.linalg.matrix_power(lifted, self.g), self.n_period // self.g, out)
        table = np.ascontiguousarray(grid[:, :4, :len(i) + 4].transpose(1, 2, 0))
        return (small[:, :, :len(i)].transpose(0, 2, 1), table,
                grid[:, 4:, :5].transpose(0, 2, 1).copy())

    def _plan(self, spans: list) -> _Plan:
        """The tables of a plan, the gate count and the step maps of its
        spans, that its gate count decides: the period map's powers up to
        `max_batch` and the sample grid (`_grid`)."""
        phi = np.eye(5)                     # the period map on (x, 1) as a row vector
        for a, b, _, step_map in spans:
            span_map = np.eye(5)
            span_map[:, :4] = step_map.stack[:, b - a]
            phi = phi @ span_map
        return _Plan(_power_stack(phi, self.max_batch), self._grid(spans))

    def _grid(self, spans: list) -> tuple:
        """The grid of the samples for the plan's spans: every g-th step of
        a period from its wrap, g = gcd(n, dec), which holds the samples of
        every period (a call starts at a wrap, a multiple of n steps).  Each
        span is read at three states: its start a, its first grid point
        a + c and its last.  Returns the columns of those states in a
        state's row of `xs`, span after span and period after period; the
        weights on their monomials of each span's meters over the span, its
        sums of i_l, v_c_o and v_batt and its meters up to its first grid
        point; and per span its first grid point, its points and the table
        of its grid (`_quadrature`)."""
        n, g = self.n_period, self.g
        weights = np.zeros((len(spans), 3, len(_FEATURES[0]), len(spans), 11))
        offsets, layout = [], []
        for i, (a, end, _, step_map) in enumerate(spans):
            length = end - a
            c = min(-a % g, length)         # c = length: no grid point in the span
            points = len(range(c, length, g))
            last = c + max(points - 1, 0) * g
            small, table = step_map.small, step_map.table
            head, body, tail = weights[i, :, :, i]
            head[:, :7] = small[c]          # up to the first grid point
            head[:, 7:] = small[c, :, :4]
            if points:                      # to the last one
                body[:5, 4:7] = step_map.sums[points - 1]
                body[:, :4] = table[:, :-4, points - 1].T
            tail[:, :7] = small[length - last]  # to the span's end
            # As columns of a state's row of `xs`, where a point at step n is
            # the next period's wrap; the second span's start is not in
            # `xs`, and `period` writes it over the wrap's.
            offsets += (0, *(j // n * (n // g) + j % n // g for j in (a + c, a + last)))
            layout.append(((a + c) // g, points, table))
        at = np.add.outer(np.arange(0, self.max_batch * (n // g), n // g), offsets).ravel()
        return at, weights.reshape(-1, len(spans) * 11), layout

    def advance(self) -> bool:
        """Run the kernels on from step k: a controller tick at every carrier
        wrap the period kernel has not ticked, then the period kernel when
        `batched` and a whole period is left, for as many periods as it
        takes; the scalar kernel for a period it declines or a partial one.
        Returns False at a wrap where `rec` holds samples, more are to
        come and the next call might record past `rows` of them.  Otherwise
        it records the final instant when it falls on the decimation grid
        and returns True."""
        n, n_steps = self.n_period, self.n_steps
        dec = self.scenario.record_decimation
        while self.k < n_steps:
            recorded = -(-self.k // dec)
            if (self.base < recorded < self.n_rec
                    and min(recorded + self.call, self.n_rec) > self.base + self.rows):
                return False
            if self.ticked < self.k:        # a batch may have ticked this wrap
                self.tick()
            if not (self.batched and n_steps - self.k >= n and self.period()):
                self.euler(min(n, n_steps - self.k))
        if not self.k % dec:
            self.rec[:, self.n_rec - 1 - self.base] = (self.t, *self.plant, *self.meters)
        return True

    def trace(self) -> Trace:
        """The samples recorded since the last call, all of them once k
        reaches n_steps, as a Trace whose columns stay views of `rec` until
        the next :meth:`advance`: `rec`'s rows, the battery terminal voltage
        from the sampled soc and i_l as `euler` computes it, and each entry
        of `record` over its period's samples among them.  Then drops the
        entries whose periods' samples are all handed on.  A gate is on at a
        sample j steps after its wrap where j is under the gate's count, and
        at the final instant as at the last step.  With no step there is no
        tick: the start controller, both gates off."""
        dec, n_steps = self.scenario.record_decimation, self.n_steps
        base = self.base
        end = self.n_rec if self.k == n_steps else -(-self.k // dec)
        rows = dict(zip(_STEP_ROWS, self.rec[:, :end - base]))
        v_batt = np.empty(end - base)
        r_int = self.scenario.battery.r_int
        for a in range(0, end - base, _CHUNK):  # temporaries of a chunk, not of the block
            at = slice(a, a + _CHUNK)
            np.add(self.emf(rows["soc"][at]), r_int * rows["i_l"][at], out=v_batt[at])
        wraps, modes, duties, *ons = zip(
            *self.record or [(0, MODE_CODES[self.ctrl.mode], self.ctrl.duty, 0, 0)])
        firsts = -(-np.array(wraps) // dec)     # each period's first sample
        starts = np.clip(firsts, base, end)     # and its first and last in the block
        stops = np.append(starts[1:], end)
        gates = []
        for on in ons:          # period by period, on for its samples before the edge
            edges = np.clip(-(-np.add(wraps, on) // dec), starts, stops)
            gates.append(np.repeat(np.tile([True, False], len(wraps)),
                                   np.column_stack([edges - starts, stops - edges]).ravel()))
            if self.k == n_steps and not n_steps % dec:
                gates[-1][-1] = (n_steps - 1) % self.n_period < on[-1]
        counts = stops - starts
        del self.record[:max(int(np.searchsorted(firsts, end, "right")) - 1, 0)]
        self.base = end
        return Trace(v_batt_terminal=v_batt, i_batt=rows["i_l"],
                     mode=np.repeat(np.array(modes, np.int8), counts),
                     duty=np.repeat(np.array(duties), counts), s1=gates[0], s2=gates[1], **rows)


def _drive(scenario: Scenario, batched: bool, rows: int | None = None):
    """The engine's one loop, a generator of the trace in consecutive
    blocks of at most `rows` samples, or one kernel call's where a call
    records more, the whole trace for None (see `_Engine`):
    :meth:`_Engine.advance` until a block is full or the run ends, then the
    block.  A block's columns are reused once the next is drawn."""
    eng = _Engine(scenario, batched, rows)
    while True:
        # A batch run past a divergence may overflow; the scalar rerun reports it.
        with np.errstate(all="ignore"):
            done = eng.advance()
        yield eng.trace()
        if done:
            return


def _integrate(scenario: Scenario) -> Trace:
    """The scalar reference: the scenario from its initial state to t_end,
    one Euler step at a time; returns the decimated trace (first and, when
    it falls on the decimation grid, last instant included)."""
    trace, = _drive(scenario, batched=False)
    return trace


def run(scenario: Scenario) -> Trace:
    """Run the scenario from its initial state to t_end; returns the trace.

    With at least _MIN_BATCH_STEPS steps per period, whole carrier periods
    go through the batched kernel, a stretch of them per call while the
    controller keeps the mode and the gate counts, and any period it
    declines, or a partial one at the end, through the scalar kernel; with
    fewer, every step is scalar.  Deterministic: identical scenarios
    produce bit-identical traces.
    """
    trace, = _drive(scenario, batched=True)
    return trace


def run_blocks(scenario: Scenario):
    """`run`'s trace as a generator of consecutive blocks, each a Trace of
    at most _READ_BLOCK samples (or one kernel call's, where a call records
    more), whose columns are reused once the next block is drawn.  Its
    memory is a block's, whatever the horizon."""
    return _drive(scenario, True, _READ_BLOCK)


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


def _window_start(n_periods: int, f_s: float, t_end=math.inf, least=-math.inf) -> float:
    """Where the last `n_periods` switching periods at `f_s` up to `t_end`
    start; ValueError, in steady_window's words, for a window that is
    invalid or starts before `least`."""
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if not f_s > 0.0:
        raise ValueError(f"switching frequency must be positive, got {f_s}")
    window = n_periods / f_s
    if t_end - window < least:
        raise ValueError(f"window of {n_periods} periods ({window:.3g} s) longer than trace")
    return t_end - window


def steady_window(trace: Trace, n_periods: int, f_s: float) -> WindowMetrics:
    """Metrics over the last `n_periods` switching periods of the trace."""
    _window_start(n_periods, f_s)
    if len(trace) < 2:
        raise ValueError("trace too short for a steady window")
    t_end = float(trace.time[-1])
    spacing = float(trace.time[1] - trace.time[0])
    t0 = _window_start(n_periods, f_s, t_end, float(trace.time[0]) - 0.5 * spacing)
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


class _Window:
    """The rows of a trace, added block by block, that `steady_window` reads
    over its last `n_periods` at `f_s`, and the count of all rows.  It keeps
    the first two rows, whose times give the spacing and the trace's start,
    and from each block the rows the window would hold if the trace ended
    at that block.  A trace's times never decrease (`read_blocks` raises
    at the end of a file where they do), so a row outside that window is
    outside the trace's, and :meth:`trace`, those rows in order, has the
    trace's window metrics.  It refuses at once, with steady_window's
    error, a window that is invalid or longer than `longest`."""

    def __init__(self, n_periods: int, f_s: float, longest: float = math.inf):
        _window_start(n_periods, f_s, longest, 0.0)    # before any row
        self.n_periods, self.f_s = n_periods, f_s
        self.rows = 0
        self.head = {name: np.empty(0, dtype) for name, dtype, _ in _TRACE_FORMAT}
        self.kept = []      # (first row, columns) per block, rows from the window on

    def add(self, block: Trace) -> None:
        """Count the block's rows and copy the ones the window may read."""
        first, self.rows = self.rows, self.rows + len(block)
        cols = {name: block.column(name) for name in TRACE_COLUMNS}
        if first < 2:
            for name, col in cols.items():
                self.head[name] = np.concatenate([self.head[name], col[:2 - first]])
        if not len(block):
            return
        t0 = -math.inf
        if self.rows > 1:   # steady_window's bound on the times, from the block's end
            spacing = float(self.head["time"][1]) - float(self.head["time"][0])
            t0 = _window_start(self.n_periods, self.f_s, float(block.time[-1])) - 0.5 * spacing
        self.kept = [(at, kept) for at, kept in self.kept if kept["time"][-1] >= t0]
        i = int(np.searchsorted(block.time, t0))
        if i < len(block):
            self.kept.append((first + i, {name: col[i:].copy() for name, col in cols.items()}))

    def trace(self) -> Trace:
        """The first two rows, less those kept, then the kept ones."""
        start = self.kept[0][0] if self.kept else self.rows
        parts = [{name: col[:start] for name, col in self.head.items()},
                 *(kept for _, kept in self.kept)]
        return Trace(**{name: np.concatenate([part[name] for part in parts])
                        for name in TRACE_COLUMNS})

    def metrics(self) -> WindowMetrics:
        return steady_window(self.trace(), self.n_periods, self.f_s)
