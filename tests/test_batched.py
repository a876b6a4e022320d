"""run() against the scalar kernel.

`sim._integrate` steps the plant one explicit Euler step at a time and is
the reference.  `run()` may advance whole carrier periods at once, and a
stretch of periods with the same gate counts in one call, which sums in
another order, so its float columns are held to the reference within a
tolerance scaled by each column's largest magnitude, while the time base,
the controller's decisions and the gates must match exactly.
The golden cases run 20 steps per period, which run() steps with the
scalar kernel alone, so they are also run at 64 steps per period, where
the period kernel takes over.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcsim import sim
from bdcsim.circuit import BatteryModel, CircuitState, ConverterParams
from bdcsim.control import ControllerConfig, Mode
from bdcsim.scenario import parse_scenario_file
from test_golden import GOLDEN, STAGE, build, trace_digest

EXACT = ("time", "mode", "duty", "s1", "s2")
CLOSE = ("i_l", "v_c_bus", "v_c_o", "v_batt_terminal", "i_batt", "soc",
         "e_source", "e_load", "e_battery", "e_link")
REL = 1e-9

BUNDLED = ("boost_discharge", "buck_charge", "mode_transition", "quick", "source_ramp")
# test_golden.trace_digest of the scalar kernel's trace of each bundled
# scenario, pinned bit for bit like the golden cases (quick is one).  The
# scalar kernel computes in Python floats, so no BLAS build moves them.
SCALAR_DIGESTS = {
    "boost_discharge": "43065fee614dc972222a75937e938890bf1813a795979b0c35d76237d1908864",
    "buck_charge": "3f85fbfb01887a0e1f586a48d79b31ee8dd77f0a6366e34a96bb7a3b54b124ba",
    "mode_transition": "4382fd0733152b90ba0c49b856ae5e7f449519be5272fb13137daa77355c3762",
    "quick": GOLDEN["quick"],
    "source_ramp": "ea850453ed615ec7c507fd8e5da2ef894b150d0f0d25724268536435bff5e3a1",
}


def assert_matches_scalar(scn):
    """run() against the scalar kernel; returns both traces."""
    fast = sim.run(scn)
    ref = sim._integrate(scn)
    for name in EXACT:
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
    for name in CLOSE:
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.shape == b.shape, name
        worst = float(np.max(np.abs(a - b), initial=0.0))
        tol = REL * float(np.max(np.abs(b), initial=0.0))
        assert worst <= tol, f"{name}: deviation {worst:.3g} above {tol:.3g}"
    return fast, ref


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


def soc_depletion_scenario() -> sim.Scenario:
    """Boost discharging a tiny, nearly empty battery with the source
    collapsed: SoC reaches 0 a few periods in and stays clamped there."""
    return sim.Scenario(
        params=ConverterParams(**STAGE),
        battery=BatteryModel(v_emf_full=12.6, v_emf_empty=11.8, r_int=0.1,
                             capacity=0.05, soc=0.02),
        controller=ControllerConfig(duty_step=0.002),
        source=sim.SourceProfile.constant(0.0),
        t_end=2e-3, dt=50e-9, record_decimation=1,
        initial_mode=Mode.DISCHARGING, initial_duty=0.5,
        initial_state=CircuitState(i_l=-4.0, v_c_bus=24.0, v_c_o=23.95, soc=0.02,
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


def weak_point_scenario(volts: float) -> sim.Scenario:
    """A shortened point of the line-regulation sweep: the weak source of
    `source_at_bus_scenario` at `volts`.  At 1000 steps per period the
    comparator's 2e-5 duty steps seldom move the gate counts, so most
    ticks keep them."""
    return replace(source_at_bus_scenario(50.0), source=sim.SourceProfile.constant(volts))


def open_loop_buck(**changes) -> sim.Scenario:
    """Buck charging an ideal 12 V battery at a fixed duty, 64 steps per
    period: every tick keeps the gate counts."""
    f_s = STAGE["f_s"]
    scn = sim.Scenario(
        params=ConverterParams(**STAGE, r_source=0.5), battery=BatteryModel.ideal(12.0),
        controller=ControllerConfig(), source=sim.SourceProfile.constant(24.0),
        t_end=40 / f_s, dt=1.0 / (f_s * 64), record_decimation=3,
        fixed_duty=0.5, initial_mode=Mode.CHARGING,
        initial_state=CircuitState(i_l=2.85, v_c_bus=23.5, v_c_o=23.4, soc=0.5, t=0.0))
    return replace(scn, **changes)


def log_batches(monkeypatch) -> list:
    """Patches the period kernel to log, per call, the periods it tried
    (those its checks received, or for a call that declined before them,
    those whose times it computed), the periods it took, and whether the
    wrap it stopped at was ticked (a tick that moved the gate counts
    stopped it, or it declined)."""
    calls, tries = [], []
    kernel, states, step_times = sim._Engine.period, sim._Engine._states, sim._step_times

    def logged(eng):
        tries.clear()
        taken = kernel(eng)
        calls.append((tries[-1], taken, eng.ticked == eng.k))
        return taken

    def logged_states(eng, m, spans):
        tries.append(m)
        return states(eng, m, spans)

    def logged_times(t, dt, start, stride, counts, out):
        if not tries:                   # the call's first: the times of its tries
            tries.append(len(out))
        return step_times(t, dt, start, stride, counts, out)

    monkeypatch.setattr(sim._Engine, "period", logged)
    monkeypatch.setattr(sim._Engine, "_states", logged_states)
    monkeypatch.setattr(sim, "_step_times", logged_times)
    return calls


def log_failed_checks(monkeypatch, calls: list):
    """Patches the period kernel's checks and the tick to log each call
    that a failed check stopped (at the failing period, not at a move
    before it) and after which no tick moved the gate counts before the
    next call; returns a function that gives, from `calls` (`log_batches`),
    the periods that the call after each tried."""
    stops, states, tick = [], sim._Engine._states, sim._Engine.tick

    def logged(eng, m, spans):
        fit = states(eng, m, spans)
        if fit < m:
            stops.append((len(calls), fit))
        return fit

    def logged_tick(eng):
        tick(eng)
        if not eng.held and stops and stops[-1][0] == len(calls) - 1:
            stops.pop()                 # new gate counts, which no check has failed

    monkeypatch.setattr(sim._Engine, "_states", logged)
    monkeypatch.setattr(sim._Engine, "tick", logged_tick)
    return lambda: [calls[i + 1][0] for i, fit in stops
                    if calls[i][1] == fit and i + 1 < len(calls)]


@pytest.mark.parametrize("source", ["conducts", "blocks", "stiff"])
@pytest.mark.parametrize("path", sorted(sim._PATHS))
def test_quadrature_tables_match_steps(path, source):
    """The period kernel's quadrature tables over r <= g steps of one
    path, g = dec = 4, from a state y: the meters y H_r y^T and the sums
    y S_r of i_l, v_c_o and v_batt, against the scalar kernel's per-step
    sums over the same r steps.  The stiff source starts below the bus it
    then clamps: on the clamp its current is v_s less the bus's unclamped
    next value times C_bus/dt, which carries that value's rounding, some
    1e-10 of it, in either kernel."""
    r_source, v_s = {"conducts": (50.0, 30.0), "blocks": (50.0, 20.0),
                     "stiff": (0.0, 24.1)}[source]
    i_l = {"S1": 3.0, "S2": -3.0, "D2": 3.0, "D1": -3.0, "idle": 0.0}[path]
    scn = replace(weak_point_scenario(v_s),
                  params=ConverterParams(**{**STAGE, "r_load": 20.0}, r_source=r_source,
                                         r_on=0.05, v_f=0.7),
                  battery=BatteryModel(v_emf_full=12.6, v_emf_empty=11.8, r_int=0.1,
                                       capacity=7200.0, soc=0.5),
                  initial_state=CircuitState(i_l=i_l, v_c_bus=24.0, v_c_o=23.976, soc=0.5,
                                             t=0.0))
    state = (i_l, 24.0, 23.976, 0.5)
    source_on = sim._source_margin(scn, v_s, *state[:3], path) >= 0.0
    assert source_on == (source != "blocks")
    tables = sim._Engine(scn)._quadrature((path, source_on, v_s))[0]
    y = np.array([i_l, 24.0 - 23.976, 23.976 - v_s, 0.5, 1.0])
    monomials = y[sim._FEATURES[0]] * y[sim._FEATURES[1]]
    dec = scn.record_decimation
    assert len(tables) == dec + 1
    for r in range(1, dec + 1):
        eng = sim._Engine(scn)
        eng.on1 = eng.n_period if path == "S1" else 0
        eng.on2 = eng.n_period if path == "S2" else 0
        eng.euler(r)
        want = [*eng.meters, *(avg * eng.n_period for avg in eng.avgs)]
        names = CLOSE[6:] + ("i_l", "v_c_o", "v_batt")
        for name, g, w in zip(names, monomials @ tables[r], want):
            assert abs(g - w) <= 1e-12 * abs(w), (r, name, g, w)


@pytest.mark.parametrize("source", ["conducts", "blocks", "stiff"])
@pytest.mark.parametrize("path", sorted(sim._PATHS))
def test_grid_tables_match_steps(path, source):
    """The period kernel's grid tables over j g steps of one path, g = 2
    (samples every 6 steps of 1000), for every j up to n // g = 500, one
    whole period: the meters from a state y and start meters, and the
    sums of i_l, v_c_o and v_batt, against the scalar kernel's per-step
    sums over the same j g steps, taken g steps per call.  A table holds
    only while the path and the source regime do, which the scalar states
    are checked for: a 5 ohm load draws more through the link than the
    3 A that D1 returns to the bus, so the stiff source clamps it all
    period."""
    r_source, v_s = {"conducts": (50.0, 30.0), "blocks": (50.0, 20.0),
                     "stiff": (0.0, 24.1)}[source]
    i_l = {"S1": 3.0, "S2": -3.0, "D2": 3.0, "D1": -3.0, "idle": 0.0}[path]
    state = CircuitState(i_l=i_l, v_c_bus=24.0, v_c_o=23.976, soc=0.5, t=0.0)
    scn = replace(weak_point_scenario(v_s), record_decimation=6, initial_state=state,
                  params=ConverterParams(**{**STAGE, "r_load": 5.0}, r_source=r_source,
                                         r_on=0.05, v_f=0.7),
                  battery=BatteryModel(v_emf_full=12.6, v_emf_empty=11.8, r_int=0.1,
                                       capacity=7200.0, soc=0.5))
    source_on = sim._source_margin(scn, v_s, i_l, 24.0, 23.976, path) >= 0.0
    assert source_on == (source != "blocks")
    _, table, sums = sim._Engine(scn)._quadrature((path, source_on, v_s))
    y = np.array([i_l, 24.0 - 23.976, 23.976 - v_s, 0.5, 1.0])
    start = np.array([1.0, 2.0, -0.5, 0.25])
    at_y = np.concatenate([y[sim._FEATURES[0]] * y[sim._FEATURES[1]], start])
    g = 2
    assert scn.steps_per_period == 1000 and len(sums) == 1000 // g + 1
    eng = sim._Engine(scn)
    eng.on1 = eng.n_period if path == "S1" else 0
    eng.on2 = eng.n_period if path == "S2" else 0
    eng.meters = start.tolist()
    step_sums = np.zeros(3)
    for j in range(1, len(sums)):
        eng.euler(g)                        # from step (j - 1) g to j g
        step_sums += [avg * eng.n_period for avg in eng.avgs]
        now, v_bus, v_o, _ = eng.plant      # still on the path, in the regime
        assert np.sign(now) == np.sign(i_l), j
        assert (sim._source_margin(scn, v_s, now, v_bus, v_o, path) >= 0.0) == source_on, j
        got = [*(table[:, :, j] @ at_y), *(y @ sums[j])]
        want = [*eng.meters, *step_sums]
        names = CLOSE[6:] + ("i_l", "v_c_o", "v_batt")
        for name, a, w in zip(names, got, want):
            assert abs(a - w) <= 1e-11 * abs(w), (j, name, a, w)


@pytest.mark.parametrize("source", ["conducts", "blocks", "stiff"])
@pytest.mark.parametrize("path", sorted(sim._PATHS))
def test_check_bound_is_sound(path, source):
    """The period kernel's check bound over g = 4 steps of one path (1000
    steps per period, samples every 4): from states placed near each
    threshold (i_l near 0, the margin of the source near 0, each state
    near its divergence bound, soc near 0 and 1), at up to 3 g one-step
    changes on either side, alone and in boxes of two, wherever the
    bound passes a box, every state of the g steps from each state in it
    passes every check, computed from the step map's powers."""
    r_source, v_s = {"conducts": (50.0, 30.0), "blocks": (50.0, 20.0),
                     "stiff": (0.0, 24.1)}[source]
    scn = replace(weak_point_scenario(v_s),
                  params=ConverterParams(**{**STAGE, "r_load": 20.0}, r_source=r_source,
                                         r_on=0.05, v_f=0.7),
                  battery=BatteryModel(v_emf_full=12.6, v_emf_empty=11.8, r_int=0.1,
                                       capacity=0.05, soc=0.5))
    eng = sim._Engine(scn)
    g = eng.g
    assert g == 4
    base = np.array([{"S1": 3.0, "S2": -3.0, "D2": 3.0, "D1": -3.0, "idle": 0.0}[path],
                     24.0, 23.976, 0.5])
    source_on = sim._source_margin(scn, v_s, *base[:3], path) >= 0.0
    assert source_on == (source != "blocks")
    eng.maps, eng.v_s = {}, v_s             # as the period kernel and the tick set them
    *_, step_map = eng._span(0, eng.n_period, path, np.append(base, 1.0))
    stack, weights = step_map.stack, step_map.weights
    sign = sim._PATHS[path][3]

    def steps(x):
        """The states 0 .. g steps from x."""
        return (np.append(x, 1.0) @ stack[:, :g + 1].reshape(5, -1)).reshape(g + 1, 4)

    def margin(x):
        return sim._source_margin(scn, v_s, x[..., 0], x[..., 1], x[..., 2], path)

    def passes(x):
        i_l, v_bus, v_o, soc = x.T
        ok = ((np.abs(i_l) <= scn.i_limit) & (np.abs(v_bus) <= scn.v_limit)
              & (np.abs(v_o) <= scn.v_limit) & (soc >= 0.0) & (soc <= 1.0)).all()
        ok &= (margin(x) >= 0.0).all() if source_on else (margin(x) <= 0.0).all()
        if sign is not None:
            ok &= (i_l > 0.0 if sign > 0 else i_l < 0.0 if sign < 0 else i_l == 0.0).all()
        return ok

    step = np.abs(steps(base)[1] - base)    # one step's change from the base state
    offsets = np.linspace(-3 * g, 3 * g, 49)
    anchors = []
    for i, edges in enumerate([(-scn.i_limit, 0.0, scn.i_limit), (-scn.v_limit, scn.v_limit),
                               (-scn.v_limit, scn.v_limit), (0.0, 1.0)]):
        for edge in edges:
            for t in offsets:
                x = base.copy()
                x[i] = edge + t * step[i]
                anchors.append(x)
    # The margin is affine in v_bus: place it at t one-step changes of it.
    per_volt = margin(base + [0.0, 1.0, 0.0, 0.0]) - margin(base)
    margin_step = abs(margin(steps(base)[1]) - margin(base))
    for t in offsets:
        anchors.append(base + [0.0, (t * margin_step - margin(base)) / per_volt, 0.0, 0.0])

    cleared = []
    for x in anchors:
        for box in ([x], [x, x + 0.5 * step]):
            lo, hi = np.min(box, axis=0), np.max(box, axis=0)
            if (np.concatenate([lo, hi, [1.0]]) @ weights).min() >= 0.0:
                cleared.append(box)
                for y in box:
                    assert passes(steps(y)), (y, steps(y))
    assert 0 < len(cleared) < 2 * len(anchors)


@pytest.mark.parametrize("t, dt", [
    (0.0, 50e-9), (0.0123, 50e-9), (0.125 - 3000 * 50e-9, 50e-9), (0.9, 1e-7),
    (1.0 + 2.0 ** -52, 1.5 * 2.0 ** -52), (1.0, 1.5 * 2.0 ** -52), (1.0, 2.0 ** -54)],
    ids=["zero", "within", "across", "lower-bits", "tie-odd", "tie-even", "stalled"])
def test_step_times_are_the_scalar_sums(t, dt):
    """The period kernel's times before each step, t + k r within t's
    binade, against the scalar kernel's sums t + dt + dt + ... in order,
    from 0, inside one binade, across a binade edge, with dt halfway
    between two multiples of t's ulp, and with dt under half of it, where
    the sum stays at t."""
    count = 8000
    want = [t]
    for _ in range(count):
        want.append(want[-1] + dt)
    counts = np.arange(count + 1.0)
    got = sim._step_times(t, dt, 0, 1, counts, np.empty(count + 1))
    assert got.tolist() == want
    for start, stride in ((999, 1000), (7, 13), (0, 4000)):
        got = sim._step_times(t, dt, start, stride, counts, np.empty(len(want[start::stride])))
        assert got.tolist() == want[start::stride], (start, stride)


def test_batch_across_a_binade_edge_keeps_the_scalar_times(monkeypatch, scenarios_dir):
    """One period-kernel call spans t = 2^-5 s, where the ulp of the time
    doubles: on quick's plant at 100 steps per period and a fixed duty, in
    CCM, every 8 steps sampled, the times of its samples and of each wrap
    it ticks equal the scalar kernel's sums t + dt + dt + ... exactly."""
    scn = replace(parse_scenario_file(scenarios_dir / "quick.scenario"), t_end=42e-3,
                  dt=0.5e-6, record_decimation=8, fixed_duty=0.55,
                  initial_mode=Mode.CHARGING, initial_duty=None)
    spans, wraps = [], {True: [], False: []}
    kernel, tick = sim._Engine.period, sim._Engine.tick

    def logged(eng):
        start = eng.t
        taken = kernel(eng)
        spans.append((start, eng.t))
        return taken

    def logged_tick(eng):
        wraps[eng.batched].append((eng.k, eng.t))
        tick(eng)

    monkeypatch.setattr(sim._Engine, "period", logged)
    monkeypatch.setattr(sim._Engine, "tick", logged_tick)
    assert_matches_scalar(scn)
    assert any(start < 2.0 ** -5 < end for start, end in spans)
    assert wraps[True] == wraps[False] and len(wraps[True]) == 840


@pytest.mark.parametrize("dec", [3, 5])
def test_sample_grid_off_the_period_matches_scalar(dec, monkeypatch):
    """64 steps per period with samples every 3 or 5 steps: the samples
    fall on other steps of every period, and the gate edge (32 steps on)
    falls between them."""
    calls = log_batches(monkeypatch)
    scn = open_loop_buck(record_decimation=dec)
    assert scn.steps_per_period % dec and round(scn.fixed_duty * 64) % dec
    assert_matches_scalar(scn)
    assert [taken for _, taken, *_ in calls] == [1, 2, 4, 8, 16, 9]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_match_scalar(name, scenarios_dir, monkeypatch):
    """Each bundled scenario matches the scalar kernel.  mode_transition,
    whose gates move every few periods, takes its periods in at most 250
    period-kernel calls (672 when every move restarted the tries at one
    period)."""
    calls = log_batches(monkeypatch)
    _, ref = assert_matches_scalar(parse_scenario_file(scenarios_dir / f"{name}.scenario"))
    assert trace_digest(ref) == SCALAR_DIGESTS[name]
    if name == "mode_transition":
        assert len(calls) <= 250


@pytest.mark.parametrize("steps", [20, 64])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cases_match_scalar(name, steps, scenarios_dir):
    scn = build(name, scenarios_dir)
    assert_matches_scalar(replace(scn, dt=1.0 / (scn.params.f_s * steps)))


def test_soc_saturating_mid_period_matches_scalar():
    scn = soc_saturation_scenario()
    trace, _ = assert_matches_scalar(scn)
    full = np.flatnonzero(trace.soc == 1.0)
    assert trace.soc[0] < 1.0 and len(full) > 0
    assert full[0] % scn.steps_per_period != 0, "saturation should fall mid-period"
    assert np.all(trace.mode == sim.MODE_CODES[Mode.CHARGING])


def test_soc_depleting_mid_period_matches_scalar():
    scn = soc_depletion_scenario()
    trace, _ = assert_matches_scalar(scn)
    empty = np.flatnonzero(trace.soc == 0.0)
    assert trace.soc[0] > 0.0 and len(empty) > 0
    assert empty[0] % scn.steps_per_period != 0, "depletion should fall mid-period"
    assert np.all(trace.mode == sim.MODE_CODES[Mode.DISCHARGING])


@pytest.mark.parametrize("r_source, max_declined", [(50.0, 2), (0.0, 133)],
                         ids=["weak", "stiff"])
def test_source_regime_changes_match_scalar(r_source, max_declined, monkeypatch):
    """The period kernel takes the periods in which the source keeps one
    regime, and declines no more periods than it did when first pinned;
    each call returns how many periods it took."""
    calls = log_batches(monkeypatch)
    assert_matches_scalar(source_at_bus_scenario(r_source))
    taken = [count for _, count, *_ in calls]
    declined = taken.count(0)
    assert sum(taken) + declined == 200     # each period taken or declined once
    assert declined <= max_declined


@pytest.mark.parametrize("dec", [1, 3])
def test_partial_last_period_matches_scalar(dec, monkeypatch):
    """Two and a half periods at 64 steps per period: the period kernel
    takes the two whole periods and the scalar kernel the half, which ends
    on the decimation grid (dec 1) or off it (dec 3)."""
    f_s = STAGE["f_s"]
    scn = sim.Scenario(
        params=ConverterParams(**STAGE), battery=BatteryModel.ideal(12.0),
        controller=ControllerConfig(), source=sim.SourceProfile.constant(24.0),
        t_end=2.5 / f_s, dt=1.0 / (f_s * 64), record_decimation=dec,
        initial_mode=Mode.CHARGING, initial_duty=0.5,
        initial_state=CircuitState(i_l=2.85, v_c_bus=24.0, v_c_o=23.95, soc=0.5,
                                   t=0.0))
    calls = log_batches(monkeypatch)
    trace, _ = assert_matches_scalar(scn)
    taken = [count for _, count, *_ in calls]
    assert taken == [True, True]
    n_steps = round(scn.t_end / scn.dt)
    assert n_steps == 160
    assert len(trace) == n_steps // dec + 1
    assert (round(trace.time[-1] / scn.dt) == n_steps) == (n_steps % dec == 0)


def test_divergence_matches_scalar():
    """A boost leg held near full duty winds the current past its bound
    inside a period; run() reports it as the scalar kernel does."""
    scn = sim.Scenario(
        params=ConverterParams(**STAGE), battery=BatteryModel.ideal(12.0),
        controller=ControllerConfig(), source=sim.SourceProfile.constant(0.0),
        t_end=0.05, dt=50e-9, record_decimation=4, i_limit=20.0,
        fixed_duty=0.95, initial_mode=Mode.DISCHARGING)
    with pytest.raises(sim.SimulationDiverged) as ref:
        sim._integrate(scn)
    with pytest.raises(sim.SimulationDiverged) as fast:
        sim.run(scn)
    assert str(fast.value) == str(ref.value)
    assert fast.value.t == ref.value.t
    assert round(ref.value.t / scn.dt) % scn.steps_per_period != 0


def test_line_sweep_point_batches_most_periods(monkeypatch):
    """A weak-source point as the line-regulation sweep runs it takes its
    200 periods in at most 16 period-kernel calls (31 when every move
    restarted the tries at one period, 41 at eight periods a call), no
    call trying more periods than _BATCH_POINTS grid states allow (32, of
    1000 // 4 + 1 each), and still matches the scalar kernel."""
    calls = log_batches(monkeypatch)
    assert_matches_scalar(weak_point_scenario(25.0))
    assert sum(taken for _, taken, *_ in calls) == 200
    assert len(calls) <= 16
    assert max(offered for offered, *_ in calls) == sim._BATCH_POINTS // 251 == 32


@pytest.mark.parametrize("volts", [20.0, 25.0, 30.0])
def test_call_after_a_move_tries_the_shorter_of_two_holds(volts, monkeypatch):
    """A tick that moves the gate counts ends a hold; the call from its
    wrap tries the periods up to the next move's expected wrap, after the
    shorter of the last two holds (the first alone, where only one has
    ended), but not past 32 periods or the whole periods left.  The
    weak-source points hold for 24, then about 50 periods."""
    calls = log_batches(monkeypatch)
    starts, moves = [], [0]
    kernel, tick = sim._Engine.period, sim._Engine.tick

    def logged(eng):
        starts.append(eng.k)
        return kernel(eng)

    def logged_tick(eng):
        tick(eng)
        if eng.k and not eng.held:
            moves.append(eng.k)

    monkeypatch.setattr(sim._Engine, "period", logged)
    monkeypatch.setattr(sim._Engine, "tick", logged_tick)
    scn = weak_point_scenario(volts)
    sim.run(scn)
    n, n_steps = scn.steps_per_period, round(scn.t_end / scn.dt)
    holds = (np.diff(moves) // n).tolist()
    assert holds[:2] == [24, 50]
    after = [(k, tried) for k, (tried, *_) in zip(starts, calls) if k in moves[1:]]
    assert len(after) >= len(moves) - 2
    for k, tried in after:
        i = moves.index(k)
        assert tried == min(*holds[max(i - 2, 0):i], 32, (n_steps - k) // n), k


def test_call_after_a_failed_check_tries_one_period(monkeypatch, scenarios_dir):
    """On boost_discharge, where checks stop some 100 calls, many of them
    while the controller's holds expect a move further on, the call after
    each tries a single period: a failed check drops the expectation, so
    no call tries a stretch that then fails on its first period again."""
    calls = log_batches(monkeypatch)
    after_failed_checks = log_failed_checks(monkeypatch, calls)
    sim.run(parse_scenario_file(scenarios_dir / "boost_discharge.scenario"))
    tries = after_failed_checks()
    assert len(tries) >= 50 and set(tries) == {1}


@pytest.mark.parametrize("name", ["weak_point", "buck_charge"])
def test_bound_passes_the_taken_periods(name, monkeypatch, scenarios_dir):
    """The period kernel passes its periods on the check bound over the
    sample grid (every 4 steps on the weak-source point at 25 V, every 2
    on buck_charge): the per-step check runs on at most 2% of the periods
    it takes."""
    calls = log_batches(monkeypatch)
    checked = []
    exact = sim._Engine._exact

    def counted(eng, p, spans):
        checked.append(p)
        return exact(eng, p, spans)

    monkeypatch.setattr(sim._Engine, "_exact", counted)
    scn = (weak_point_scenario(25.0) if name == "weak_point"
           else parse_scenario_file(scenarios_dir / "buck_charge.scenario"))
    sim.run(scn)
    taken = sum(taken for _, taken, *_ in calls)
    assert taken >= 0.99 * round(scn.t_end / scn.dt) // scn.steps_per_period
    assert len(checked) <= 0.02 * taken


@pytest.mark.parametrize("name", ["weak_point", "buck_charge"])
def test_step_map_tables_built_once(name, monkeypatch, scenarios_dir):
    """One run() builds each step map's tables once, whole, when a span
    first meets the map: one check bound and one set of quadrature tables
    per map, none built again for a longer span."""
    built = {"_bound": [], "_quadrature": []}
    for method, keys in built.items():
        def counted(eng, key, *args, _build=getattr(sim._Engine, method), _keys=keys):
            _keys.append(key)
            return _build(eng, key, *args)
        monkeypatch.setattr(sim._Engine, method, counted)
    sim.run(weak_point_scenario(25.0) if name == "weak_point"
            else parse_scenario_file(scenarios_dir / "buck_charge.scenario"))
    keys = built["_bound"]
    assert len(keys) == len(set(keys)) == 2
    assert built["_quadrature"] == keys


def log_plans(monkeypatch) -> list:
    """Patches the period kernel's checks to log, per call that reaches
    them, the call's plan (its gate count and its spans' step maps) and
    the plans and check weights the engine holds."""
    log, states = [], sim._Engine._states

    def logged(eng, m, spans):
        log.append(((eng.on1 + eng.on2, *(key for _, _, key, _ in spans)),
                    list(eng.plans), list(eng.bounds)))
        return states(eng, m, spans)

    monkeypatch.setattr(sim._Engine, "_states", logged)
    return log


def count_grids(monkeypatch) -> list:
    """Patches `_grid` to log each call."""
    grids, grid = [], sim._Engine._grid

    def counted(eng, spans):
        grids.append(len(spans))
        return grid(eng, spans)

    monkeypatch.setattr(sim._Engine, "_grid", counted)
    return grids


def test_plan_tables_built_once(monkeypatch, scenarios_dir):
    """With room for every plan, one run() of buck_charge builds each
    plan's tables once: its current loop changes the plan 395 times (the
    first included) among 84 plans, and `_grid` runs once per plan."""
    monkeypatch.setattr(sim, "_PLANS", 84)
    log, grids = log_plans(monkeypatch), count_grids(monkeypatch)
    sim.run(parse_scenario_file(scenarios_dir / "buck_charge.scenario"))
    plans = [plan for plan, *_ in log]
    assert 1 + sum(a != b for a, b in zip(plans, plans[1:])) == 395
    assert len(set(plans)) == len(grids) == 84


def test_plan_tables_held_at_most_the_cap(monkeypatch, scenarios_dir):
    """A run that meets more plans than it may keep holds at most that
    many, dropping the one used longest ago, rebuilds a dropped plan that
    comes back, and records the same bits as with room for every plan."""
    scn = parse_scenario_file(scenarios_dir / "buck_charge.scenario")
    monkeypatch.setattr(sim, "_PLANS", 84)
    whole = sim.run(scn)
    monkeypatch.setattr(sim, "_PLANS", 10)
    log, grids = log_plans(monkeypatch), count_grids(monkeypatch)
    capped = sim.run(scn)
    assert max(len(held) for _, held, _ in log) == 10
    assert len(grids) > len({plan for plan, *_ in log}) == 84
    for name in (*sim.TRACE_COLUMNS, "e_source", "e_load", "e_battery", "e_link"):
        assert getattr(capped, name).tobytes() == getattr(whole, name).tobytes(), name


def test_plan_tables_dropped_with_the_source_voltage(monkeypatch):
    """A plan's tables hold the source's voltage: when it steps, the run
    drops every plan and check weight of the old voltage."""
    f_s = STAGE["f_s"]
    log = log_plans(monkeypatch)
    assert_matches_scalar(open_loop_buck(source=sim.SourceProfile(segments=(
        sim.SourceSegment(until=10.5 / f_s, v_start=24.0, v_end=24.0),
        sim.SourceSegment(until=1.0, v_start=24.5, v_end=24.5)))))
    volts = []
    for (_, *keys), plans, bounds in log:
        held = {key[2] for _, *held in plans for key in held}
        assert held == {key[2] for keys in bounds for key in keys} == {keys[0][2]}
        volts += held
    assert volts[0] == 24.0 and volts[-1] == 24.5


def test_hold_broken_mid_batch_matches_scalar(monkeypatch):
    """A duty step that moves the gate counts stops a batch at the wrap
    it lands on: the batch keeps the periods before it, and that tick
    stands for the wrap (the next call takes its period)."""
    calls = log_batches(monkeypatch)
    assert_matches_scalar(weak_point_scenario(20.0))
    stopped = [(offered, taken) for offered, taken, ticked in calls
               if ticked and 0 < taken < offered]
    assert stopped


def test_open_loop_batches_double(monkeypatch):
    """With the duty fixed every tick keeps the gate counts, so the batch
    doubles from one period up to the whole periods left."""
    calls = log_batches(monkeypatch)
    assert_matches_scalar(open_loop_buck())
    assert [taken for _, taken, *_ in calls] == [1, 2, 4, 8, 16, 9]


def test_batch_stops_at_source_segment_end(monkeypatch):
    """A batch takes only the periods before the source voltage steps and
    counts as taken whole; the period with the step goes to the scalar
    kernel, and batching goes on at the new voltage."""
    f_s = STAGE["f_s"]
    calls = log_batches(monkeypatch)
    assert_matches_scalar(open_loop_buck(source=sim.SourceProfile(segments=(
        sim.SourceSegment(until=10.5 / f_s, v_start=24.0, v_end=24.0),
        sim.SourceSegment(until=1.0, v_start=24.5, v_end=24.5)))))
    assert [taken for _, taken, *_ in calls] == [1, 2, 4, 3, 0, 6, 12, 11]


def test_batch_reaches_partial_last_period(monkeypatch):
    """The batch stops at the last whole period; the scalar kernel takes
    the half period after it, which ends off the decimation grid."""
    f_s = STAGE["f_s"]
    calls = log_batches(monkeypatch)
    scn = open_loop_buck(t_end=20.5 / f_s)
    trace, _ = assert_matches_scalar(scn)
    assert [taken for _, taken, *_ in calls] == [1, 2, 4, 8, 5]
    assert len(trace) == round(scn.t_end / scn.dt) // 3 + 1


@pytest.mark.parametrize("case", ["dcm", "soc", "source"])
def test_check_failing_mid_batch_matches_scalar(case, monkeypatch):
    """A period inside a batch fails a check: the DCM clamp at a duty too
    small for continuous conduction, the SoC clamp of a battery filling
    up, or a weak source that starts to conduct as a boost-held bus sags
    below it.  The batch keeps the periods before it and the scalar
    kernel takes that period, and each call after one that a check
    stopped tries a single period."""
    if case == "dcm":
        scn = open_loop_buck(fixed_duty=0.45, initial_state=CircuitState(
            i_l=3.0, v_c_bus=24.0, v_c_o=23.95, soc=0.5, t=0.0))
    elif case == "source":
        scn = open_loop_buck(
            params=ConverterParams(**{**STAGE, "r_load": 20.0}, r_source=50.0),
            source=sim.SourceProfile.constant(23.0), t_end=60 / STAGE["f_s"],
            fixed_duty=0.45, initial_mode=Mode.DISCHARGING,
            initial_state=CircuitState(i_l=-2.0, v_c_bus=24.0, v_c_o=24.0, soc=0.5, t=0.0))
    else:
        base = soc_saturation_scenario()
        scn = replace(base, fixed_duty=0.55, initial_duty=None,
                      battery=replace(base.battery, soc=0.975),
                      initial_state=replace(base.initial_state, soc=0.975))
    calls = log_batches(monkeypatch)
    after_failed_checks = log_failed_checks(monkeypatch, calls)
    trace, _ = assert_matches_scalar(scn)
    takes = [taken for _, taken, *_ in calls]
    cut = next(i for i, (offered, taken, *_) in enumerate(calls) if 0 < taken < offered)
    assert takes[cut + 1] == 0, "the failing period goes to the scalar kernel"
    assert set(after_failed_checks()) == {1}
    if case == "dcm":
        assert (trace.i_l == 0.0).any()
    elif case == "source":
        assert trace.v_c_bus[0] > 23.0 > trace.v_c_bus.min()
    else:
        assert (trace.soc == 1.0).any()


@pytest.mark.parametrize("i_l, takes", [(0.2441, True), (0.2439, False)],
                         ids=["clears", "clamps"])
def test_dcm_clamp_at_the_wrap_matches_scalar(i_l, takes, monkeypatch):
    """One period at a duty of 0.3 whose current runs down to zero right
    at the carrier wrap (from about 0.24400 A): from 0.2441 A it stays
    above zero through step 64, from 0.2439 A the DCM clamp acts on step
    64, the wrap state itself.  The per-step check reads that state, so
    the period kernel takes the first period and declines the second."""
    calls = log_batches(monkeypatch)
    verdicts = []
    exact = sim._Engine._exact

    def logged(eng, p, spans):
        verdicts.append(exact(eng, p, spans))
        return verdicts[-1]

    monkeypatch.setattr(sim._Engine, "_exact", logged)
    scn = open_loop_buck(record_decimation=1, t_end=1 / STAGE["f_s"], fixed_duty=0.3,
                         initial_state=CircuitState(i_l=i_l, v_c_bus=24.0, v_c_o=23.95,
                                                    soc=0.5, t=0.0))
    _, ref = assert_matches_scalar(scn)
    assert scn.steps_per_period == len(ref) - 1 == 64
    assert (ref.i_l[1:] > 0.0).all() == takes
    assert (ref.i_l[63] > 0.0 and ref.i_l[64] == 0.0) == (not takes)
    assert [taken for _, taken, *_ in calls] == [int(takes)]
    assert verdicts == [takes]


def test_every_wrap_ticks_once(monkeypatch):
    """The controller runs once per carrier wrap whether a batch or a
    single period crosses it: as many select_mode and regulate calls as
    wraps, and as many as the scalar kernel makes."""
    counts = {}
    for name in ("select_mode", "regulate"):
        def counted(*args, _fn=getattr(sim, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(sim, name, counted)
    scn = weak_point_scenario(30.0)
    sim.run(scn)
    fast, counts = counts, {}
    sim._integrate(scn)
    wraps = -(-round(scn.t_end / scn.dt) // scn.steps_per_period)
    assert fast == counts == {"select_mode": wraps, "regulate": wraps}


@st.composite
def drawn_scenarios(draw) -> sim.Scenario:
    """One of the operating points above at 64 to 200 steps per period,
    with samples every 1 to 32 steps, so that g = gcd(n, dec) takes many
    values, over 15 to 40 periods and sometimes a partial one.  Its source
    starts at the point's voltage and holds or ramps up to each of up to
    two drawn times, which fall anywhere in a period, and may step there;
    the battery may be tiny and at SoC 0 or 1; the divergence bounds may
    be just above the start state; the duty is fixed or closed-loop."""
    base = draw(st.sampled_from([open_loop_buck(), weak_point_scenario(25.0),
                                 source_at_bus_scenario(0.0), soc_saturation_scenario(),
                                 soc_depletion_scenario()]))
    n = draw(st.sampled_from([64, 72, 96, 100, 128, 200]))
    dt = 1.0 / (STAGE["f_s"] * n)
    t_end = (draw(st.integers(15, 40)) * n + draw(st.sampled_from([0, 1, n // 3, n - 1]))) * dt
    v = base.source.segments[0].v_start
    segments = []
    for end in (*sorted(draw(st.sets(st.floats(0.1, 0.9), max_size=2))), 2.0):
        ramp = end < 1.0 and draw(st.booleans())
        v_end = max(0.0, v + draw(st.floats(-1.0, 1.0))) if ramp else v
        segments.append(sim.SourceSegment(until=end * t_end, v_start=v, v_end=v_end))
        v = max(0.0, v_end + draw(st.floats(-1.0, 1.0)))
    state = base.start_state()
    battery = base.battery
    if draw(st.booleans()):
        battery = replace(battery, capacity=0.05, soc=draw(st.sampled_from([0.0, 1.0])))
        state = replace(state, soc=battery.soc)
    volts = max(state.v_c_bus, state.v_c_o, *(max(s.v_start, s.v_end) for s in segments))
    # Mostly no divergence bound in reach, else one this far above the start.
    i_margin, v_margin = draw(st.lists(st.sampled_from([None, None, None, None, 0.05, 1.0]),
                                       min_size=2, max_size=2))
    duty = base.fixed_duty if base.fixed_duty is not None else base.initial_duty
    fixed = draw(st.booleans())
    return replace(
        base, source=sim.SourceProfile(segments=tuple(segments)), battery=battery,
        t_end=t_end, dt=dt, record_decimation=draw(st.integers(1, 32)),
        i_limit=100.0 if i_margin is None else abs(state.i_l) + i_margin,
        v_limit=200.0 if v_margin is None else volts + v_margin,
        initial_state=state, fixed_duty=duty if fixed else None,
        initial_duty=None if fixed else duty)


def test_drawn_scenarios_match_scalar():
    """run() against the scalar kernel on 50 drawn scenarios: each matches
    it, or both raise SimulationDiverged with the same message and t.  The
    draws reach every case they are meant to, and the period kernel takes
    at least 55% of the whole periods of the scenarios that run to the
    end (693 of 1086 when first measured), so the match is not that of a
    kernel that declines everything."""
    seen, periods = set(), []
    with pytest.MonkeyPatch.context() as mp:
        calls = log_batches(mp)

        @settings(max_examples=50)
        @given(drawn_scenarios())
        def check(scn):
            n = scn.steps_per_period
            n_steps = round(scn.t_end / scn.dt)
            seen.update({f"g={math.gcd(n, scn.record_decimation)}",
                         "stiff" if scn.params.r_source == 0.0 else "weak",
                         "fixed" if scn.fixed_duty is not None else "closed"})
            for seg in scn.source.segments:
                if seg.until < scn.t_end:
                    seen.add("segment end")
                if seg.v_start != seg.v_end:
                    seen.add("ramp")
            if scn.battery.capacity < 1.0 and scn.battery.soc in (0.0, 1.0):
                seen.add("tiny battery at SoC 0 or 1")
            if n_steps % n:
                seen.add("partial period")
            before = len(calls)
            try:
                assert_matches_scalar(scn)
            except sim.SimulationDiverged:
                with pytest.raises(sim.SimulationDiverged) as fast:
                    sim.run(scn)
                with pytest.raises(sim.SimulationDiverged) as ref:
                    sim._integrate(scn)
                assert (str(fast.value), fast.value.t) == (str(ref.value), ref.value.t)
                del calls[before:]
                seen.add("diverged")
                return
            periods.append(n_steps // n)

        check()
    assert len({tag for tag in seen if tag.startswith("g=")}) >= 3, seen
    assert {"stiff", "weak", "fixed", "closed", "segment end", "ramp", "partial period",
            "tiny battery at SoC 0 or 1", "diverged"} <= seen
    taken = sum(taken for _, taken, *_ in calls)
    assert taken >= 0.55 * sum(periods), (taken, sum(periods))
