"""Time-domain engine: stepping, tracing, steady-window metrics."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bdcsim import sim
from bdcsim.cli import main
from bdcsim.circuit import BatteryModel, CircuitState, ConverterParams
from bdcsim.control import ControllerConfig, Mode, pwm_gate
from bdcsim.sim import (
    MODE_CODES,
    MODE_NAMES,
    Scenario,
    SimulationDiverged,
    SourceProfile,
    SourceSegment,
    TRACE_COLUMNS,
    Trace,
    _source_margin,
    _step_map,
    run,
    steady_window,
    trace_from_csv,
)
from test_golden import FIELDS, GOLDEN, build

PARAMS = ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6, c_o=250e-6,
                         f_s=20e3, r_load=10.0)
IDEAL_BATTERY = BatteryModel.ideal(12.0)


def make_scenario(t_end=2e-3, dt=2.5e-6, src=24.0, dec=1, **kw):
    return Scenario(
        params=kw.pop("params", PARAMS),
        battery=kw.pop("battery", IDEAL_BATTERY),
        controller=kw.pop("controller", ControllerConfig()),
        source=SourceProfile.constant(src, until=1.0),
        t_end=t_end, dt=dt, record_decimation=dec, **kw)


def warm_state(i_l=0.0, v_bus=24.0, v_o=23.95):
    return CircuitState(i_l=i_l, v_c_bus=v_bus, v_c_o=v_o, soc=0.5, t=0.0)


class TestSourceProfile:
    def test_constant_holds_forever(self):
        src = SourceProfile.constant(24.0, until=0.01)
        assert src.voltage(0.0) == 24.0
        assert src.voltage(5.0) == 24.0

    def test_ramp_interpolates(self):
        src = SourceProfile(segments=(
            SourceSegment(until=1.0, v_start=0.0, v_end=10.0),
            SourceSegment(until=2.0, v_start=10.0, v_end=10.0),
        ))
        assert src.voltage(0.0) == pytest.approx(0.0)
        assert src.voltage(0.5) == pytest.approx(5.0)
        assert src.voltage(1.5) == pytest.approx(10.0)
        assert src.voltage(3.0) == pytest.approx(10.0)

    def test_rejects_unordered_segments(self):
        with pytest.raises(ValueError, match="increasing"):
            SourceProfile(segments=(
                SourceSegment(until=2.0, v_start=0.0, v_end=0.0),
                SourceSegment(until=1.0, v_start=0.0, v_end=0.0),
            ))

    def test_rejects_empty_profile(self):
        with pytest.raises(ValueError, match="segment"):
            SourceProfile(segments=())


class TestScenarioValidation:
    def test_rejects_step_not_dividing_period(self):
        with pytest.raises(ValueError, match="divide"):
            make_scenario(dt=3.1e-6)

    def test_rejects_too_coarse_step(self):
        with pytest.raises(ValueError, match="20 steps"):
            make_scenario(dt=5e-6)

    def test_fixed_duty_needs_mode(self):
        with pytest.raises(ValueError, match="initial_mode"):
            make_scenario(fixed_duty=0.5)

    def test_rejects_step_unstable_for_interconnect(self):
        stiff = ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6,
                                c_o=1e-6, f_s=20e3, r_load=10.0, r_link=0.001)
        with pytest.raises(ValueError, match="interconnect"):
            make_scenario(params=stiff, dt=2.5e-6)


class TestStep:
    """Short open-loop runs from a warm start, read back from the trace:
    row 0 is the start state, row j the state after j steps."""

    def test_one_buck_step_from_zero_current(self):
        """First step under the buck leg ramps the current by dt*(v_bus-v_batt)/L."""
        scn = make_scenario(t_end=2.5e-6, fixed_duty=0.5, initial_mode=Mode.CHARGING,
                            initial_state=warm_state())
        trace = run(scn)
        assert trace.i_l[1] == pytest.approx(scn.dt * (24.0 - 12.0) / PARAMS.l_p)
        assert trace.time[1] == pytest.approx(scn.dt)

    def test_trickle_holds_everything(self):
        scn = make_scenario(t_end=3 / 20e3, fixed_duty=0.0, initial_mode=Mode.TRICKLE,
                            initial_state=warm_state())
        trace = run(scn)
        assert trace.i_l[-1] == 0.0
        assert trace.soc[-1] == pytest.approx(0.5)


LOSSY_PARAMS = ConverterParams(v_bus_nominal=24.0, l_p=1e-3, c_bus=1000e-6,
                               c_o=250e-6, f_s=20e3, r_load=10.0, r_on=0.1,
                               v_f=0.6, r_source=0.5)
LOSSY_BATTERY = BatteryModel(v_emf_full=12.6, v_emf_empty=11.8, r_int=0.1,
                             capacity=7200.0, soc=0.5)
# path -> (mode holding the gates, pre-step inductor current)
KERNEL_PATHS = {"S1": (Mode.CHARGING, 2.0), "S2": (Mode.DISCHARGING, -2.0),
                "D1": (Mode.TRICKLE, -2.0), "D2": (Mode.TRICKLE, 2.0),
                "idle": (Mode.TRICKLE, 0.0)}


def closed_form_step(path, i_l, v_bus, v_o, soc, v_s, p, b, dt):
    """Explicit Euler update of the switched power stage, written out per
    conduction path: returns (i_l', v_bus', v_o', soc', v_batt_terminal)."""
    v_batt = b.v_emf_empty + (b.v_emf_full - b.v_emf_empty) * soc + b.r_int * i_l
    v_switch_node = {"S1": v_bus - p.r_on * i_l, "S2": -p.r_on * i_l,
                     "D1": v_bus + p.v_f, "D2": -p.v_f, "idle": v_batt}[path]
    i_branch = i_l if path in ("S1", "D1") else 0.0
    i_link = (v_bus - v_o) / p.r_link
    if p.r_source > 0.0:
        i_src = max(0.0, (v_s - v_bus) / p.r_source)
        v_bus_new = v_bus + dt * (i_src - i_branch - i_link) / p.c_bus
    else:  # stiff source: clamps the bus from below, never sinks current
        v_bus_new = max(v_s, v_bus + dt * (-i_branch - i_link) / p.c_bus)
    return (i_l + dt * (v_switch_node - v_batt) / p.l_p,
            v_bus_new,
            v_o + dt * (i_link - v_o / p.r_load) / p.c_o,
            soc + dt * i_l / b.capacity,
            v_batt)


class TestKernelLaw:
    def test_every_path_of_the_plant_law_is_checked(self):
        """A path added to the engine's plant table fails here until
        test_one_step_matches_closed_form checks it."""
        assert set(KERNEL_PATHS) == set(sim._PATHS)

    @pytest.mark.parametrize("lossy", [False, True], ids=["ideal", "lossy"])
    @pytest.mark.parametrize("path", sorted(KERNEL_PATHS))
    def test_one_step_matches_closed_form(self, path, lossy):
        """One step per conduction path against the written-out law, with
        ideal devices and a stiff source (clamping the bus from 25 V), and
        with r_on, v_f, r_source, r_int and a sloped EMF.  The batched
        kernel's step map A·x + b must give the same update, with the source
        conducting (25 V) and blocked (20 V)."""
        params, battery = ((LOSSY_PARAMS, LOSSY_BATTERY) if lossy
                           else (PARAMS, IDEAL_BATTERY))
        mode, i_l = KERNEL_PATHS[path]
        x = (i_l, 24.0, 23.5, 0.4)
        # A fixed duty of one half keeps the mode's leg on for the first step.
        scn = Scenario(params=params, battery=battery, controller=ControllerConfig(),
                       source=SourceProfile.constant(25.0), t_end=2.5e-6, dt=2.5e-6,
                       record_decimation=1, fixed_duty=0.5, initial_mode=mode,
                       initial_state=CircuitState(*x, t=0.0))
        trace = run(scn)
        i_l2, v_bus2, v_o2, soc2, v_batt = closed_form_step(
            path, *x, 25.0, params, battery, scn.dt)
        assert trace.i_l[1] - i_l == pytest.approx(i_l2 - i_l, rel=1e-9, abs=1e-15)
        assert trace.v_c_bus[1] - x[1] == pytest.approx(v_bus2 - x[1], rel=1e-9)
        assert trace.v_c_o[1] - x[2] == pytest.approx(v_o2 - x[2], rel=1e-9)
        assert trace.soc[1] - x[3] == pytest.approx(soc2 - x[3], rel=1e-9, abs=1e-18)
        assert trace.v_batt_terminal[0] == pytest.approx(v_batt, rel=1e-12)
        assert trace.time[1] == scn.dt
        for v_s in (25.0, 20.0):
            assert (_source_margin(scn, v_s, *x[:3], path) >= 0.0) == (v_s > x[1])
            m = _step_map(scn, path, v_s > x[1], v_s)
            mapped = m @ np.array([*x, 1.0])
            expected = closed_form_step(path, *x, v_s, params, battery, scn.dt)[:4]
            assert mapped[:4].tolist() == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert mapped[4] == 1.0


def piecewise_triangle(i_valley, v_bus, v_batt, l_p, duty, f_s, t):
    """Closed-form inductor current for one switching period at fixed duty:
    linear rise while the buck leg conducts, linear fall on the freewheel."""
    t_on = duty / f_s
    if t <= t_on:
        return i_valley + (v_bus - v_batt) / l_p * t
    peak = i_valley + (v_bus - v_batt) / l_p * t_on
    return peak - v_batt / l_p * (t - t_on)


class TestOpenLoop:
    def test_one_period_matches_piecewise_linear_solution(self):
        """Open-loop buck period against the analytic triangle, including the
        peak-to-peak ripple value."""
        scn = make_scenario(t_end=1 / 20e3, dt=50e-9, fixed_duty=0.5,
                            initial_mode=Mode.CHARGING,
                            initial_state=warm_state(i_l=2.85))
        trace = run(scn)
        worst = 0.0
        for t, i in zip(trace.time, trace.i_l):
            expect = piecewise_triangle(2.85, 24.0, 12.0, 1e-3, 0.5, 20e3, t)
            worst = max(worst, abs(i - expect))
        assert worst < 0.005 * 0.3, f"max deviation {worst:.3e} A"
        p2p = trace.i_l.max() - trace.i_l.min()
        assert p2p == pytest.approx(0.3, rel=0.01)

    def test_segment_endpoints_exact(self):
        scn = make_scenario(t_end=1 / 20e3, dt=50e-9, fixed_duty=0.5,
                            initial_mode=Mode.CHARGING,
                            initial_state=warm_state(i_l=2.85))
        trace = run(scn)
        mid = np.searchsorted(trace.time, 25e-6)
        assert trace.i_l[mid] == pytest.approx(3.15, rel=5e-3)
        assert trace.i_l[-1] == pytest.approx(2.85, rel=5e-3)

    def test_dcm_clamp_stops_reverse_conduction(self):
        """At a duty too small to sustain the current, the freewheel diode
        hands off to the idle state instead of reversing."""
        scn = make_scenario(t_end=2e-3, dt=50e-9, fixed_duty=0.1,
                            initial_mode=Mode.CHARGING,
                            initial_state=warm_state(i_l=0.5), dec=10)
        trace = run(scn)
        assert trace.i_l.min() >= 0.0
        assert (trace.i_l == 0.0).any(), "expected the current to reach the clamp"

    def test_clamped_current_stays_idle(self):
        """Once the DCM clamp stops the current, the path is idle for the
        rest of the period, even where the diode that conducted would be
        forward-biased again: D1 freewheels from a bus just above the
        battery, and a light rail then pulls the bus below it."""
        params = ConverterParams(v_bus_nominal=12.0, l_p=1e-6, c_bus=10e-6, c_o=10e-6,
                                 f_s=20e3, r_load=1.0)
        scn = make_scenario(t_end=1 / 20e3, dt=1e-7, src=0.0, params=params,
                            fixed_duty=0.0, initial_mode=Mode.TRICKLE,
                            initial_state=warm_state(i_l=-0.01, v_bus=12.5, v_o=12.5))
        trace = run(scn)
        assert trace.i_l[0] < 0.0 and (trace.i_l[1:] == 0.0).all()
        assert trace.v_c_bus[-1] < 11.0


class TestRun:
    def test_deterministic(self):
        a = run(make_scenario())
        c = run(make_scenario())
        for name in ("time", "i_l", "v_c_bus", "v_c_o", "soc", "duty"):
            assert np.array_equal(a.column(name), c.column(name)), name

    def test_zero_horizon_gives_initial_sample(self):
        trace = run(make_scenario(t_end=0.0))
        assert len(trace) == 1
        assert trace.time[0] == 0.0
        assert trace.v_c_bus[0] == pytest.approx(24.0)
        trace = run(make_scenario(t_end=0.0, fixed_duty=0.4, initial_mode=Mode.CHARGING))
        assert len(trace) == 1
        assert trace.duty[0] == 0.4

    def test_time_strictly_increasing(self):
        trace = run(make_scenario(dec=7))
        assert np.all(np.diff(trace.time) > 0)

    def test_charging_run_charges_battery(self):
        trace = run(make_scenario(
            t_end=10e-3,
            battery=BatteryModel(v_emf_full=12.0, v_emf_empty=12.0, r_int=0.3,
                                 capacity=7200.0, soc=0.5),
            controller=ControllerConfig(duty_step=0.001, i_deadband=0.08),
            initial_duty=0.5, dec=4))
        metrics = steady_window(trace, 20, 20e3)
        assert metrics.mode_occupancy["charging"] == pytest.approx(1.0)
        assert metrics.mean["i_batt"] > 0.0
        assert trace.soc[-1] > trace.soc[0]

    def test_divergence_reported_with_timestamp(self):
        """A boost leg held near full duty on the battery winds the current
        past the bound."""
        scn = make_scenario(t_end=0.05, src=0.0, fixed_duty=0.95,
                            initial_mode=Mode.DISCHARGING, i_limit=50.0)
        with pytest.raises(SimulationDiverged) as info:
            run(scn)
        assert 0.0 < info.value.t <= 0.05

    def test_charge_conservation(self):
        """soc change equals the integrated battery current over capacity."""
        scn = make_scenario(t_end=5e-3, battery=BatteryModel(
            v_emf_full=12.0, v_emf_empty=12.0, r_int=0.3, capacity=7200.0, soc=0.5),
            controller=ControllerConfig(duty_step=0.001, i_deadband=0.08),
            initial_duty=0.5, dec=1)
        trace = run(scn)
        integrated = np.sum(trace.i_l[:-1]) * scn.dt / 7200.0
        delta = trace.soc[-1] - trace.soc[0]
        assert delta == pytest.approx(integrated, rel=1e-6, abs=1e-12)

    def test_source_step_hands_load_to_battery(self, scenarios_dir):
        """Mid-run source collapse flips the supervisor to discharging and the
        boost leg keeps the load rail near its reference."""
        from bdcsim.scenario import parse_scenario_file
        scn = parse_scenario_file(scenarios_dir / "mode_transition.scenario")
        trace = run(scn)
        metrics = steady_window(trace, 20, scn.params.f_s)
        assert metrics.mode_occupancy["discharging"] == pytest.approx(1.0)
        assert metrics.mean["v_c_o"] == pytest.approx(24.0, abs=0.5)
        assert metrics.mean["i_batt"] < 0.0
        codes = set(trace.mode.tolist())
        assert len(codes) >= 2, "expected a mode transition in the trace"


class TestGating:
    @pytest.mark.parametrize("case", [*Mode, *sorted(GOLDEN)],
                             ids=lambda c: c.value if isinstance(c, Mode) else f"golden-{c}")
    def test_samples_match_pwm_gate(self, case, scenarios_dir):
        """Every recorded gate pair equals pwm_gate at its step's carrier
        phase, the duty the gates use, round(duty * n) / n, and the recorded
        mode; the last sample, at t_end, repeats the gates of the last step.
        Each mode runs alone, and the golden cases add mode transitions,
        DCM and trickle."""
        if isinstance(case, Mode):
            scn = make_scenario(t_end=6 / 20e3,
                                src=0.0 if case is Mode.DISCHARGING else 24.0,
                                initial_mode=case,
                                initial_duty=None if case is Mode.TRICKLE else 0.3,
                                fixed_duty=0.35 if case is Mode.TRICKLE else None,
                                initial_state=warm_state())
        else:
            scn = build(case, scenarios_dir)
        trace = run(scn)
        if isinstance(case, Mode):
            assert set(trace.mode.tolist()) == {MODE_CODES[case]}
            assert len(set(trace.duty.tolist())) > 1 or case is Mode.TRICKLE
        n, n_steps = scn.steps_per_period, round(scn.t_end / scn.dt)
        steps = np.arange(len(trace)) * scn.record_decimation
        assert steps[-1] == n_steps
        steps[-1] -= 1
        for i, j in enumerate(steps.tolist()):
            mode = Mode(MODE_NAMES[int(trace.mode[i])])
            gates = pwm_gate((j % n) / n, round(trace.duty[i] * n) / n, mode)
            assert (trace.s1[i], trace.s2[i]) == (gates.s1_on, gates.s2_on), i

    @pytest.mark.parametrize("kernel", ["run", "scalar"])
    @pytest.mark.parametrize("end", ["whole", "partial", "start"])
    @pytest.mark.parametrize("n", [20, 64])
    def test_decimation_subsamples(self, n, end, kernel, scenarios_dir, monkeypatch):
        """quick at n steps per period, ending on a wrap, inside a period or
        at t = 0, sampled every dec steps: the trace is the dec = 1 trace at
        steps c dec, exactly in time, mode, duty and gates, and in every
        column for the scalar kernel.  Each sample's gates are pwm_gate's at
        its step, the final instant's at the last step; with no step the one
        sample has the start controller and both gates off.  Some dec put
        samples next to the gate edges, and those above n leave periods with
        no sample, or only the final instant; the engine records the
        controller at most once per sample."""
        entries = []
        trace_of = sim._Engine.trace

        def counted(eng):
            entries.append(len(eng.record))
            return trace_of(eng)

        monkeypatch.setattr(sim._Engine, "trace", counted)
        integrate = run if kernel == "run" else sim._integrate
        base = build("quick", scenarios_dir)
        dt = 1.0 / (base.params.f_s * n)
        n_steps = {"whole": 10 * n, "partial": 10 * n + 7, "start": 0}[end]
        base = replace(base, dt=dt, t_end=n_steps * dt)
        assert round(base.t_end / dt) == n_steps
        full = integrate(replace(base, record_decimation=1))
        for dec in (3, 19, 20, 21, 40, 64, 65, 130, 200):
            sub = integrate(replace(base, record_decimation=dec))
            assert len(sub) == n_steps // dec + 1 and entries[-1] <= len(sub), dec
            for name in FIELDS if kernel == "scalar" else ("time", "mode", "duty", "s1", "s2"):
                assert np.array_equal(getattr(sub, name), getattr(full, name)[::dec]), (dec, name)
            if not n_steps:
                assert (sub.mode.tolist(), sub.duty.tolist()) == ([MODE_CODES[Mode.TRICKLE]],
                                                                  [base.initial_duty])
                assert not (sub.s1.any() or sub.s2.any())
                continue
            for i, j in enumerate(np.minimum(np.arange(len(sub)) * dec, n_steps - 1).tolist()):
                mode = Mode(MODE_NAMES[int(sub.mode[i])])
                gates = pwm_gate((j % n) / n, round(sub.duty[i] * n) / n, mode)
                assert (sub.s1[i], sub.s2[i]) == (gates.s1_on, gates.s2_on), (dec, i)


class TestSteadyWindow:
    def synthetic_trace(self, values):
        n = len(values)
        t = np.arange(n) * 2.5e-6
        z = np.zeros(n)
        return Trace(time=t, i_l=np.asarray(values), v_c_bus=z + 24.0, v_c_o=z + 24.0,
                     v_batt_terminal=z + 12.0, i_batt=np.asarray(values), soc=z + 0.5,
                     mode=np.zeros(n, dtype=np.int8), duty=z + 0.5,
                     s1=np.zeros(n, dtype=bool), s2=np.zeros(n, dtype=bool))

    def test_constant_column(self):
        trace = self.synthetic_trace([3.0] * 81)
        m = steady_window(trace, 2, 20e3)
        assert m.mean["i_l"] == pytest.approx(3.0)
        assert m.p2p["i_l"] == 0.0
        assert m.steady

    def test_triangle_peak_to_peak_is_twice_amplitude(self):
        n = 81
        phase = np.arange(n) % 20 / 20.0
        tri = 1.0 + 0.5 * (1 - np.abs(2 * phase - 1)) * 2 - 0.5  # amplitude 0.5
        trace = self.synthetic_trace(tri.tolist())
        m = steady_window(trace, 2, 20e3)
        assert m.p2p["i_l"] == pytest.approx(1.0, rel=0.06)

    def test_window_longer_than_trace_rejected(self):
        trace = self.synthetic_trace([1.0] * 41)
        with pytest.raises(ValueError, match="longer than trace"):
            steady_window(trace, 10, 20e3)

    def test_bad_period_count_rejected(self):
        trace = self.synthetic_trace([1.0] * 41)
        with pytest.raises(ValueError, match="n_periods"):
            steady_window(trace, 0, 20e3)


PLANT_FLAGS = ("--inductance", "1m", "--switching-frequency", "20k")
GOOD_ROW = "0.000002500,0.1,24,0.5,12,0.1,0.5,charging,0.5,1,0"
BAD_ROWS = {
    "bad float": "0.000002500,0.1,24,abc,12,0.1,0.5,charging,0.5,1,0",
    "10 fields": "0.000002500,0.1,24,0.5,12,0.1,0.5,charging,0.5,1",
    "12 fields": GOOD_ROW + ",0",
    "unknown mode": "0.000002500,0.1,24,0.5,12,0.1,0.5,resting,0.5,1,0",
}


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = run(make_scenario(t_end=1e-3))
        # Every mode name, not only the one this run stays in.
        trace = replace(trace, mode=(np.arange(len(trace)) % 3).astype(np.int8))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = trace_from_csv(path)
        for name in TRACE_COLUMNS:
            col = back.column(name)
            assert col.flags.c_contiguous, name
            assert col.dtype == trace.column(name).dtype, name
            if col.dtype == np.float64:
                fmt = ".9f" if name == "time" else ".9g"
                expected = [float(format(x, fmt)) for x in trace.column(name).tolist()]
                assert col.tolist() == expected, name
            else:
                assert np.array_equal(col, trace.column(name)), name
        assert not back.e_source.any() and len(back.e_link) == len(trace)

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_malformed_row_names_the_path(self, case, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + GOOD_ROW + "\n"
                        + BAD_ROWS[case] + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            trace_from_csv(path)
        assert main(["analyze", str(path), *PLANT_FLAGS]) == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [n for n in TRACE_COLUMNS if n not in ("mode", "s1", "s2")])
    def test_non_finite_value_names_column_and_line(self, name, value, tmp_path):
        cells = GOOD_ROW.split(",")
        cells[TRACE_COLUMNS.index(name)] = value
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + GOOD_ROW + "\n" + ",".join(cells) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {name} is")):
            trace_from_csv(path)

    def test_non_finite_value_after_a_blank_line_names_its_file_line(self, tmp_path):
        """np.loadtxt skips blank lines; the line named is the file's."""
        cells = GOOD_ROW.split(",")
        cells[TRACE_COLUMNS.index("v_c_o")] = "nan"
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + GOOD_ROW + "\n\n" + ",".join(cells) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: v_c_o is nan")):
            trace_from_csv(path)

    def test_rows_past_the_first_block_keep_their_numbers(self, tmp_path, monkeypatch):
        """The file is parsed in blocks of rows; a row's number in an error
        counts from the first data row of the file, not of its block."""
        monkeypatch.setattr(sim, "_READ_BLOCK", 2)
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + (GOOD_ROW + "\n") * 4
                        + BAD_ROWS["bad float"] + "\n" + BAD_ROWS["unknown mode"] + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: could not convert string "
                                                       "'abc' to float64 at row 4,")):
            trace_from_csv(path)
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + (GOOD_ROW + "\n") * 4 + "\n"
                        + BAD_ROWS["unknown mode"] + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 7: mode 'resting'")):
            trace_from_csv(path)
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + (GOOD_ROW + "\n") * 5)
        assert len(trace_from_csv(path)) == 5

    def test_header_only_is_an_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = trace_from_csv(path)
            assert main(["analyze", str(path), *PLANT_FLAGS]) == 1
        assert len(back) == 0 and back.mode.dtype == np.int8
        assert "too short" in capsys.readouterr().err

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        trace = run(make_scenario(t_end=1e-3))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        before = path.read_bytes()
        mode = trace.mode.copy()
        mode[-1] = 7  # no mode has this code
        with pytest.raises(KeyError):
            replace(trace, mode=mode).to_csv(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    def test_header_and_time_format(self, tmp_path):
        trace = run(make_scenario(t_end=1e-4))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,i_l,v_c_bus,v_c_o,v_batt_terminal,i_batt,soc,mode,duty,s1,s2"
        # 9 decimal digits on the time column
        assert lines[1].split(",")[0] == "0.000000000"
        assert lines[2].split(",")[0] == "0.000002500"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            trace_from_csv(path)
