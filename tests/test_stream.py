"""Streamed traces: `simulate` and `analyze` hold a block of the trace, the
steady window's tail and the controller record, never the whole trace, and
print and write what the whole-trace path (`run`, `Trace.to_csv`,
`trace_from_csv`, `steady_window`) gives.

The tests shrink `sim._READ_BLOCK`, the block width of both streams, so
that a trace runs through many blocks: the engine raises it to the most
samples one kernel call records, the reader parses that many rows per
call."""

import tracemalloc
from dataclasses import replace

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
    # At the least block width the final instant, which the last call
    # records, is the first sample past the block's last column, so the
    # block must be handed on before that call.
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
    of run(s).to_csv and steady_window over run(s), and every block but the
    last is at least that width's."""
    scenario = parse_scenario_file(case)
    trace = run(scenario)
    whole = tmp_path / "whole.csv"
    trace.to_csv(whole)
    monkeypatch.setattr(sim, "_READ_BLOCK", 1)
    most = max(sim._BATCH_STEPS, scenario.steps_per_period) // scenario.record_decimation + 1
    sizes = [len(block) for block in sim.run_blocks(scenario)]
    assert sum(sizes) == len(trace) and max(sizes) <= most
    assert len(trace) <= most or len(sizes) > 1
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


def test_block_width_floor_and_one_block_run(scenarios_dir):
    """A block holds at least the samples of one kernel call, and no more
    than the trace; run() records into one block as wide as the trace."""
    scenario = parse_scenario_file(scenarios_dir / "buck_charge.scenario")
    most = sim._BATCH_STEPS // scenario.record_decimation + 1
    assert sim._Engine(scenario, 1).rec.shape == (len(sim._STEP_ROWS), most)
    short = replace(scenario, t_end=1e-3)
    assert sim._Engine(short, 1 << 30).rec.shape[1] == short.samples == 10_001
    assert sim._Engine(scenario).rec.shape[1] == scenario.samples == 500_001


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
