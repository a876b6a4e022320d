"""Streamed traces: `simulate` and `analyze` hold a block of the trace, the
steady window's tail and the controller record, never the whole trace, and
print and write what the whole-trace path (`run`, `Trace.to_csv`,
`trace_from_csv`, `steady_window`) gives.

The tests shrink `sim._READ_BLOCK`, the block width of both streams, so
that a trace runs through many blocks: the engine hands a block on at the
first carrier wrap where the next kernel call might take it past that many
samples, the reader parses that many rows per call."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bdcsim import _trace_csv, sim
from bdcsim.cli import _summarize, main
from bdcsim.scenario import parse_scenario_file
from bdcsim.sim import TRACE_COLUMNS, run, steady_window, trace_from_csv

BUNDLED = ("quick", "buck_charge", "boost_discharge", "mode_transition", "source_ramp")
# quick at n steps per period, for `steps` steps, sampled every `dec`: the
# period kernel takes every whole period (n >= 64).
SPECIAL = {  # n, steps, dec
    "dec 1": (100, 10_000, 1),
    "dec 7, partial period, final instant off the grid": (100, 20_037, 7),
    "dec 3, partial period, final instant on the grid": (100, 20_037, 3),
    "dec 130 above n, final instant on the grid": (100, 26_000, 130),
    # At the least block width the last call, a partial period, starts a
    # block of its own and records the final instant after its samples.
    "dec 3, final instant just past a block": (100, 16_095, 3),
}
PLANT_FLAGS = ["--inductance", "1m", "--switching-frequency", "20k"]
# Bytes per row of a trace in memory: eleven 8-byte columns (time, the four
# states, v_batt_terminal, duty, the four meters; i_batt is i_l), mode, s1
# and s2.
ROW_BYTES = 11 * 8 + 3


def special_scenario(scenarios_dir, tmp_path, name):
    """A scenario file of quick's plant and controller for a SPECIAL case."""
    n, steps, dec = SPECIAL[name]
    dt = 1.0 / (20e3 * n)
    text = (scenarios_dir / "quick.scenario").read_text()
    text = text.replace("t_end = 5m", f"t_end = {steps * dt!r}").replace(
        "dt = 2.5u", f"dt = {dt!r}").replace("record_decimation = 1",
                                             f"record_decimation = {dec}")
    path = tmp_path / f"{name.split(',')[0].replace(' ', '')}.scenario"
    path.write_text(text)
    scenario = parse_scenario_file(path)
    assert (scenario.steps_per_period, round(scenario.t_end / dt)) == (n, steps)
    return path


@pytest.fixture(params=BUNDLED + tuple(SPECIAL))
def case(request, scenarios_dir, tmp_path):
    """Every bundled scenario file, and one per SPECIAL case."""
    if request.param in BUNDLED:
        return scenarios_dir / f"{request.param}.scenario"
    return special_scenario(scenarios_dir, tmp_path, request.param)


def whole_trace_summary(path, trace, scenario, out_path, periods=20) -> str:
    """What `simulate` printed when it held the whole trace."""
    metrics = steady_window(trace, n_periods=periods, f_s=scenario.params.f_s)
    return "\n".join([f"scenario: {path}",
                      f"  simulated {trace.time[-1]:.6f} s "
                      f"({len(trace)} samples, dt {scenario.dt:.3g} s)",
                      *_summarize(metrics),
                      f"  trace written: {out_path}"]) + "\n"


def test_streamed_simulate_matches_the_whole_trace(case, tmp_path, monkeypatch, capsys):
    """At the least block width the CSV bytes and the summary equal those
    of run(s).to_csv and steady_window over run(s).  At that width and at
    1000, every block holds at most the width's samples, or one kernel
    call's where a call records more, and every block but the last so many
    that one more call might take it past the width."""
    scenario = parse_scenario_file(case)
    trace = run(scenario)
    whole = tmp_path / "whole.csv"
    trace.to_csv(whole)
    call = sim._Engine(scenario).call
    assert call == sim._Engine(scenario).most // scenario.record_decimation + 1
    for rows in (1000, 1):
        monkeypatch.setattr(sim, "_READ_BLOCK", rows)
        *full, last = [len(block) for block in sim.run_blocks(scenario)]
        assert sum(full) + last == len(trace)
        assert all(0 < size <= max(rows, call) for size in (*full, last))
        assert all(size + call > rows for size in full)
        assert len(trace) <= max(rows, call) or full
    streamed = tmp_path / "streamed.csv"
    assert main(["simulate", str(case), "--output", str(streamed)]) == 0
    assert capsys.readouterr().out == whole_trace_summary(case, trace, scenario, streamed)
    assert streamed.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("name", ["quick", "buck_charge", *SPECIAL])
def test_streamed_analyze_matches_the_whole_trace(name, scenarios_dir, tmp_path,
                                                  monkeypatch, capsys):
    """`analyze` reading 997 rows per block prints what it prints reading
    65 536, and its window is steady_window over trace_from_csv."""
    scenario = (scenarios_dir / f"{name}.scenario" if name in BUNDLED
                else special_scenario(scenarios_dir, tmp_path, name))
    path = tmp_path / "trace.csv"
    run(parse_scenario_file(scenario)).to_csv(path)
    assert main(["analyze", str(path), *PLANT_FLAGS]) == 0
    printed = capsys.readouterr().out
    monkeypatch.setattr(sim, "_READ_BLOCK", 997)
    assert main(["analyze", str(path), *PLANT_FLAGS]) == 0
    assert capsys.readouterr().out == printed
    trace = trace_from_csv(path)
    window = sim._Window(20, 20e3)
    for block in _trace_csv.read_blocks(path):
        window.add(block)
    assert window.rows == len(trace)
    assert window.metrics() == steady_window(trace, 20, 20e3)
    assert printed.startswith(f"trace: {path} ({len(trace)} samples, "
                                f"{trace.time[-1]:.6f} s)\n")


@pytest.mark.parametrize("name", ["quick", *SPECIAL])
def test_window_metrics_equal_steady_window(name, scenarios_dir, tmp_path, monkeypatch):
    """The streamed window over 1, 20 and all the trace's periods: from the
    engine's blocks at the least width and from the reader's blocks of 7
    rows, equal to steady_window over the whole trace, exactly."""
    path = (scenarios_dir / "quick.scenario" if name == "quick"
            else special_scenario(scenarios_dir, tmp_path, name))
    scenario = parse_scenario_file(path)
    trace = run(scenario)
    csv = tmp_path / "trace.csv"
    trace.to_csv(csv)
    read = trace_from_csv(csv)
    f_s = scenario.params.f_s
    monkeypatch.setattr(sim, "_READ_BLOCK", 1)
    for periods in (1, 20, int(trace.time[-1] * f_s)):
        window = sim._Window(periods, f_s)
        for block in sim.run_blocks(scenario):
            window.add(block)
        assert window.metrics() == steady_window(trace, periods, f_s), periods
        assert len(window.trace()) < len(trace) or periods > 20
        monkeypatch.setattr(sim, "_READ_BLOCK", 7)
        window = sim._Window(periods, f_s)
        for block in _trace_csv.read_blocks(csv):
            window.add(block)
        assert window.metrics() == steady_window(read, periods, f_s), periods
        monkeypatch.setattr(sim, "_READ_BLOCK", 1)


def test_block_width_and_one_block_run(scenarios_dir):
    """`rec` holds a block's `rows` samples, or one kernel call's where a
    call records more, and no more than the trace; a call on buck_charge
    takes the 32 periods whose 501 grid states each fit _BATCH_POINTS, and
    records every second step of them.  run()'s engine records the whole
    trace as one block."""
    scenario = parse_scenario_file(scenarios_dir / "buck_charge.scenario")
    short = replace(scenario, t_end=1e-3)
    for scn in (scenario, short):
        eng = sim._Engine(scn)
        assert (eng.n_period, eng.g) == (1000, 2)
        assert eng.most == sim._BATCH_POINTS // 501 * 1000 == 32_000
        assert eng.call == eng.most // 2 + 1
        for rows in (1, 1 << 30):
            width = sim._Engine(scn, True, rows).rec.shape[1]
            assert width == min(max(rows, eng.call), scn.samples), (scn.samples, rows)
    assert short.samples == 10_001 and scenario.samples == 500_001
    eng = sim._Engine(scenario)
    assert eng.rec.shape == (len(sim._STEP_ROWS), scenario.samples)
    assert eng.advance() and len(eng.trace()) == scenario.samples


def test_final_instant_in_the_last_column(scenarios_dir, tmp_path, monkeypatch):
    """Blocks as wide as one kernel call's samples, on quick's plant at 100
    steps per period, sampled every 3 steps, over 20 901 steps: the final
    instant, which the last call records after its samples, takes the last
    column of `rec`, and the blocks are run()'s trace."""
    dt = 1.0 / (20e3 * 100)
    text = (scenarios_dir / "quick.scenario").read_text()
    path = tmp_path / "quick.scenario"
    path.write_text(text.replace("t_end = 5m", f"t_end = {20_901 * dt!r}").replace(
        "dt = 2.5u", f"dt = {dt!r}").replace("record_decimation = 1", "record_decimation = 3"))
    scenario = parse_scenario_file(path)
    whole = run(scenario)
    call = sim._Engine(scenario).call
    monkeypatch.setattr(sim, "_READ_BLOCK", call)
    finals = []
    advance = sim._Engine.advance

    def watched(eng):
        done = advance(eng)
        if done:
            finals.append((eng.n_rec - 1 - eng.base, eng.rec.shape[1]))
        return done

    monkeypatch.setattr(sim._Engine, "advance", watched)
    blocks = [{name: block.column(name).copy() for name in TRACE_COLUMNS}
              for block in sim.run_blocks(scenario)]
    assert finals == [(call - 1, call)] and len(blocks) > 1
    for name in TRACE_COLUMNS:
        assert np.array_equal(np.concatenate([block[name] for block in blocks]),
                              whole.column(name)), name


def peak_bytes(argv) -> int:
    """The peak of traced allocations while `main(argv)` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_trace(scenarios_dir, tmp_path, monkeypatch, capsys):
    """quick's plant at 100 steps per period and a fixed duty of 0.55, in
    CCM, so the period kernel takes stretches of periods, sampled every 8
    steps over 40 and 160 ms (10 001 and 40 001 rows), with 4 096-row
    blocks: the peaks of `simulate` and `analyze` grow by less than a
    quarter of the 30 000 extra rows' bytes in memory, which a process
    holding the whole trace would add in full."""
    text = (scenarios_dir / "quick.scenario").read_text().replace(
        "dt = 2.5u", "dt = 0.5u").replace("record_decimation = 1", "record_decimation = 8")
    text = text.replace("initial_duty = 0.5", "fixed_duty = 0.55\ninitial_mode = charging")
    monkeypatch.setattr(sim, "_READ_BLOCK", 4096)
    peaks = {}
    for t_end in ("40m", "160m"):
        scenario = tmp_path / f"quick{t_end}.scenario"
        scenario.write_text(text.replace("t_end = 5m", f"t_end = {t_end}"))
        out = tmp_path / f"quick{t_end}.csv"
        peaks[t_end] = (peak_bytes(["simulate", str(scenario), "--output", str(out)]),
                        peak_bytes(["analyze", str(out), *PLANT_FLAGS]))
    capsys.readouterr()
    extra = (40_001 - 10_001) * ROW_BYTES
    for command, small, large in zip(("simulate", "analyze"), *peaks.values()):
        assert large - small < 0.25 * extra, (command, small, large)


@pytest.mark.parametrize("dec, periods, limit", [(8, 341, 6), (130, 341, 6), (100, 162, 22)])
def test_kernel_call_memory_is_bounded_by_the_budget(dec, periods, limit, scenarios_dir,
                                                     tmp_path, monkeypatch):
    """The memory test's plant, quick's at 100 steps per period and a fixed
    duty of 0.55, in CCM, over 200 ms, sampled every 8 steps, or, as in the
    SPECIAL case "dec 130 above n", every 130, or once a period (g = n).
    A period-kernel call takes `periods` periods: as many as _BATCH_POINTS
    holds of the most of a period's grid states (n // g + 1), its check
    bound's steps (g + 1) and _PERIOD_POINTS.  No call's traced peak, the
    buffers the first makes included, passes 22 times the budget's bytes
    (8 bytes a grid state), and no later call's passes `limit` times: at g = n
    the check margins, 22 (g + 1) floats a period, take the most.  A row
    of a stretch's per-step times, 34 101 floats at dec 8 and 130, would
    take those past 6 times."""
    text = (scenarios_dir / "quick.scenario").read_text().replace(
        "dt = 2.5u", "dt = 0.5u").replace("record_decimation = 1", f"record_decimation = {dec}")
    text = text.replace("initial_duty = 0.5", "fixed_duty = 0.55\ninitial_mode = charging")
    path = tmp_path / "quick.scenario"
    path.write_text(text.replace("t_end = 5m", "t_end = 200m"))
    scenario = parse_scenario_file(path)
    g = math.gcd(100, dec)
    assert sim._BATCH_POINTS // max(100 // g + 1, g + 1, sim._PERIOD_POINTS) == periods
    peaks, taken = [], []
    kernel = sim._Engine.period

    def measured(eng):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        taken.append(kernel(eng))
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return taken[-1]

    monkeypatch.setattr(sim._Engine, "period", measured)
    tracemalloc.start()
    try:
        run(scenario)
    finally:
        tracemalloc.stop()
    budget = 8 * sim._BATCH_POINTS
    assert max(taken) == periods
    assert max(peaks) < 22 * budget, (max(peaks), peaks.index(max(peaks)))
    assert max(peaks[1:]) < limit * budget, max(peaks[1:])


def rows_csv(path, *rows):
    """A trace CSV of GOOD rows 2.5 us apart, with the given cells of some
    rows replaced: each argument is (row, {column: text})."""
    changes = dict(rows)
    lines = [",".join(TRACE_COLUMNS)]
    for i in range(max(changes) + 3):
        cells = f"{i * 2.5e-6:.9f},0.1,24,0.5,12,0.1,0.5,charging,0.5,1,0".split(",")
        for name, text in changes.get(i, {}).items():
            cells[TRACE_COLUMNS.index(name)] = text
        lines.append(",".join(cells))
    path.write_text("\r\n".join(lines) + "\r\n")
    return path


# Per case: the rows changed, and the message every block width gives.
ERRORS = {
    "a parse error after a non-finite value": (
        [(0, {"v_c_o": "nan"}), (5, {"soc": "abc"})],
        "could not convert string 'abc' to float64 at row 5,"),
    "the first column in TRACE_COLUMNS order": (
        [(1, {"v_c_o": "nan"}), (4, {"i_l": "inf"}), (6, {"i_l": "nan"})],
        "line 6: i_l is inf, not finite"),
    "an unknown mode after a non-finite value": (
        [(0, {"duty": "-inf"}), (4, {"mode": "resting"})],
        "line 6: mode 'resting' is not one of"),
    "a time below the row before it": (
        [(3, {"time": "0.000001000"})],
        "line 5: time decreases from the line before"),
    "a non-finite value after a time below the row before it": (
        [(3, {"time": "0.000001000"}), (6, {"soc": "nan"})],
        "line 8: soc is nan, not finite"),
    "a non-finite duty, the field after the mode": (
        [(2, {"duty": "nan"})],
        "line 4: duty is nan, not finite"),
    "a non-finite duty before a later non-finite i_l": (
        [(1, {"duty": "inf"}), (5, {"i_l": "-inf"})],
        "line 7: i_l is -inf, not finite"),
    "a mode that a valid name begins": (
        [(3, {"mode": "chargingX"})],
        "line 5: mode 'chargingX' is not one of"),
    "a mode that begins a valid name": (
        [(2, {"mode": "chargin"})],
        "line 4: mode 'chargin' is not one of"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
@pytest.mark.parametrize("block", [2, 3, 1 << 16])
def test_block_reader_errors(case, block, tmp_path, monkeypatch, capsys):
    """Whatever the block width, trace_from_csv and `analyze` raise the
    same error: a parse error anywhere before a non-finite value anywhere,
    a bad mode in the block that holds it, and among non-finite values the
    first column in TRACE_COLUMNS order, at its first row; a time below
    its predecessor's after every other check."""
    changes, message = ERRORS[case]
    path = rows_csv(tmp_path / "bad.csv", *changes)
    monkeypatch.setattr(sim, "_READ_BLOCK", block)
    with pytest.raises(ValueError) as info:
        trace_from_csv(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)
    assert main(["analyze", str(path), *PLANT_FLAGS]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_block_reader_takes_finite_values_whose_sum_overflows(tmp_path):
    """The reader finds non-finite values through each block's sum; finite
    values whose sum overflows read back as they are, with no error."""
    path = rows_csv(tmp_path / "big.csv", (1, {"v_c_bus": "1e308", "v_c_o": "1.5e308"}))
    trace = trace_from_csv(path)
    assert trace.v_c_bus[1] == 1e308 and trace.v_c_o[1] == 1.5e308
    assert np.isfinite(trace.v_c_o).all()
