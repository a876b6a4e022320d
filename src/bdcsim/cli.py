"""Command-line front end: design, simulate and analyze subcommands.

Exit codes: 0 success, 1 input error (bad flags, unparseable files,
violated preconditions), 2 numerical divergence of a simulation.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from . import analysis
from .control import Mode
from .design import DesignSpec, design
from .scenario import (
    ScenarioParseError,
    parse_design_file,
    parse_quantity,
    parse_scenario_file,
)
# `run`, `steady_window` and `trace_from_csv` are the whole-trace forms of
# what the subcommands stream; benchmark/tracing.py times calls through
# these names of this module, so they stay bound here.
from .sim import (  # noqa: F401
    SimulationDiverged,
    WindowMetrics,
    _Window,
    run,
    run_blocks,
    steady_window,
    trace_from_csv,
)
from ._trace_csv import MIN_ROW_BYTES, read_blocks, write_csv

_DESIGN_FLAGS = (
    ("pv-voltage", "PV array voltage [V]"),
    ("pv-current", "PV array current [A]"),
    ("battery-voltage", "battery voltage [V]"),
    ("switching-frequency", "switching frequency [Hz]"),
    ("load-voltage", "regulated load voltage [V]"),
    ("load-current", "load current [A]"),
    ("ripple-current", "target inductor ripple [A]"),
    ("ripple-fraction", "output ripple as a fraction of load voltage (default %(default)s)"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdcsim",
        description="Bidirectional buck-boost converter design and simulation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="size the converter from a specification")
    defaults = {f.name: f.default for f in fields(DesignSpec)}
    for flag, help_text in _DESIGN_FLAGS:
        default = defaults[flag.replace("-", "_")]
        p_design.add_argument(f"--{flag}", type=parse_quantity, help=help_text,
                              default=None if default is MISSING else default)
    p_design.add_argument("--spec-file", type=Path,
                          help="read the specification from a [design] file instead of flags")
    p_design.add_argument("--output", type=Path, help="write the report to this file")
    p_design.add_argument("--format", choices=("table", "csv"), default="table")

    p_sim = sub.add_parser("simulate", help="run scenario files")
    p_sim.add_argument("scenarios", nargs="+", type=Path, help="scenario file(s)")
    p_sim.add_argument("--output", type=Path,
                       help="trace CSV path (single scenario only)")
    p_sim.add_argument("--output-dir", type=Path,
                       help="directory for trace CSVs (default: beside each scenario)")
    p_sim.add_argument("--periods", type=int, default=20,
                       help="steady-window length in switching periods (default 20)")

    p_an = sub.add_parser("analyze", help="metrics from a trace or regulation CSV")
    p_an.add_argument("csv", type=Path, help="trace CSV or regulation CSV")
    p_an.add_argument("--nominal", type=parse_quantity,
                      help="nominal output voltage [V]; switches a regulation CSV "
                           "to load-regulation mode")
    p_an.add_argument("--inductance", type=parse_quantity,
                      help="filtering inductance [H] for trace ripple predictions")
    p_an.add_argument("--switching-frequency", type=parse_quantity,
                      help="switching frequency [Hz] for trace ripple predictions")
    p_an.add_argument("--periods", type=int, default=20,
                      help="steady-window length in switching periods (default 20)")
    p_an.add_argument("--output", type=Path, help="write the report to this file")
    p_an.add_argument("--format", choices=("table", "csv"), default="table")
    return parser


def _csv_report(header: str, rows) -> list[str]:
    """A machine-readable report: its header, then one `name,value` line
    per (name, value) row."""
    return [header, *(f"{name},{value:.9g}" for name, value in rows)]


def _emit(lines: list[str], output: Path | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def cmd_design(args: argparse.Namespace) -> int:
    if args.spec_file is not None:
        spec = parse_design_file(args.spec_file)
    else:
        values = {f.name: getattr(args, f.name) for f in fields(DesignSpec)}
        missing = [f"--{key.replace('_', '-')}" for key, value in values.items()
                   if value is None]
        if missing:
            raise ValueError("missing required flag(s): " + ", ".join(missing)
                             + " (or use --spec-file)")
        spec = DesignSpec(**values)
    result = design(spec)
    if args.format == "csv":
        lines = _csv_report("quantity,value",
                            ((f.name, getattr(result, f.name)) for f in fields(result)))
    else:
        lines = [
            "converter design",
            f"  buck duty ratio       D1 = {result.d1:.3f}",
            f"  boost duty ratio      D2 = {result.d2:.3f}",
            f"  buck inductance       Lmin = {result.l_min * 1e6:.4g} µH",
            f"  boost inductance      Lboost = {result.l_max * 1e6:.4g} µH",
            f"  output ripple target  dv = {result.dv:.4g} V",
            f"  output capacitance    C = {result.c_out * 1e6:.4g} µF",
        ]
    _emit(lines, args.output)
    return 0


def _summarize(metrics: WindowMetrics) -> list[str]:
    occupied = [f"{name} {frac * 100.0:.1f}%"
                for name, frac in sorted(metrics.mode_occupancy.items())
                if frac > 0.0]
    return [
        f"  steady window: last {metrics.n_periods} periods "
        f"({metrics.t_start:.6f} s .. {metrics.t_end:.6f} s)",
        "  mode occupancy: " + ", ".join(occupied),
        f"  mean v_c_o: {metrics.mean['v_c_o']:.4f} V"
        f"    mean v_c_bus: {metrics.mean['v_c_bus']:.4f} V",
        f"  mean i_batt: {metrics.mean['i_batt']:.4f} A"
        f"    mean duty: {metrics.mean['duty']:.4f}",
        f"  i_l peak-to-peak: {metrics.p2p['i_l']:.4f} A",
        f"  steady: {'yes' if metrics.steady else 'no'}",
    ]


def _check_room(scenario, out_path: Path) -> None:
    """Refuse, before the first step, a trace larger than the free space
    of the file system it is to be written to, at its least row width."""
    least = scenario.samples * MIN_ROW_BYTES
    free = shutil.disk_usage(out_path.parent).free
    if least > free:
        raise ValueError(f"cannot allocate {scenario.samples} trace rows for {out_path}: "
                         f"they take at least {least} bytes, and {free} are free")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.output is not None and len(args.scenarios) > 1:
        raise ValueError("--output works with a single scenario; use --output-dir")
    for path in args.scenarios:
        scenario = parse_scenario_file(path)
        if args.output is not None:
            out_path = args.output
        else:
            directory = args.output_dir if args.output_dir is not None else path.parent
            directory.mkdir(parents=True, exist_ok=True)
            out_path = directory / (path.stem + ".trace.csv")
        _check_room(scenario, out_path)
        # No trace of this scenario holds a window longer than t_end and a sample.
        window = _Window(args.periods, scenario.params.f_s,
                         scenario.t_end + scenario.dt * scenario.record_decimation)
        metrics = []

        def blocks():
            for block in run_blocks(scenario):
                window.add(block)
                yield block
            # Before the rename, so an invalid window leaves no trace file.
            metrics.append(window.metrics())

        write_csv(out_path, blocks())
        # Each summary as soon as its trace is written, so a later
        # scenario's error does not hide it.
        lines = [f"scenario: {path}",
                 f"  simulated {metrics[0].t_end:.6f} s "
                 f"({window.rows} samples, dt {scenario.dt:.3g} s)",
                 *_summarize(metrics[0]),
                 f"  trace written: {out_path}"]
        print("\n".join(lines), flush=True)
    return 0


def _analyze_regulation(path: Path, args: argparse.Namespace) -> list[str]:
    rows = analysis.read_regulation_csv(path)
    if args.nominal is not None:
        pct = analysis.load_regulation(rows, v_nominal=args.nominal)
        if args.format == "csv":
            return _csv_report("metric,value", [("load_regulation_percent", pct)])
        ordered = sorted(rows, key=lambda r: r.setting)
        return [f"load regulation ({len(rows)} rows, nominal {args.nominal:g} V)",
                f"  full load: {ordered[0].setting:g} ohm -> {ordered[0].v_out:g} V",
                f"  min load: {ordered[-1].setting:g} ohm -> {ordered[-1].v_out:g} V",
                f"  load regulation: {pct:.3g}%"]
    result = analysis.line_regulation(rows)
    if args.format == "csv":
        return _csv_report("metric,value", [
            *((f"pair_{a:g}_{b:g}_percent", pct) for a, b, pct in result.pairs),
            ("max_pair_percent", result.max_percent),
            ("full_span_percent", result.full_span_percent)])
    return [f"line regulation ({len(rows)} rows)",
            *(f"  {a:g} V -> {b:g} V: {pct:.3g}%" for a, b, pct in result.pairs),
            f"  max consecutive-pair: {result.max_percent:.3g}%",
            f"  full span: {result.full_span_percent:.3g}%"]


def _analyze_trace(path: Path, args: argparse.Namespace) -> list[str]:
    if args.inductance is None or args.switching_frequency is None:
        raise ValueError("trace analysis needs --inductance and --switching-frequency")
    f_s = args.switching_frequency
    window = _Window(args.periods, f_s)
    for block in read_blocks(path):
        window.add(block)
    metrics = window.metrics()
    lines = [f"trace: {path} ({window.rows} samples, {metrics.t_end:.6f} s)"]
    lines.extend(_summarize(metrics))
    rows = [("i_l_p2p", metrics.p2p["i_l"]), ("mean_v_c_o", metrics.mean["v_c_o"]),
            ("mean_i_batt", metrics.mean["i_batt"])]
    dominant = max(metrics.mode_occupancy, key=metrics.mode_occupancy.get)
    d = metrics.mean["duty"]
    v_bus = metrics.mean["v_c_bus"]
    v_batt = metrics.mean["v_batt_terminal"]
    if dominant == Mode.CHARGING.value:
        pred = analysis.predicted_ripple_buck(v_bus, v_batt, args.inductance, d, f_s)
    elif dominant == Mode.DISCHARGING.value:
        pred = analysis.predicted_ripple_boost(v_bus, v_batt, args.inductance, d, f_s)
    else:
        pred = None
    if pred is not None:
        lo, hi = analysis.current_envelope(metrics.mean["i_batt"], pred.ripple)
        rows += [("predicted_ripple", pred.ripple),
                 ("predicted_ripple_companion", pred.companion),
                 ("envelope_min", lo), ("envelope_max", hi)]
        lines.append(f"  predicted ripple ({dominant}): {pred.ripple:.4g} A "
                     f"(companion form {pred.companion:.4g} A)")
        lines.append(f"  current envelope: {lo:.4g} .. {hi:.4g} A "
                     f"around mean {metrics.mean['i_batt']:.4g} A")
    else:
        lines.append("  trickle-dominated window: no ripple prediction")
    return _csv_report("metric,value", rows) if args.format == "csv" else lines


def cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.csv, "rb") as fh:       # a byte that is not UTF-8 is the reader's to report
        header = fh.readline().decode(errors="replace").strip()
    if header.replace(" ", "") == "setting,v_out,i_out":
        lines = _analyze_regulation(args.csv, args)
    elif header.startswith("time,"):
        lines = _analyze_trace(args.csv, args)
    else:
        raise ValueError(f"{args.csv}: unrecognized CSV header {header!r}")
    _emit(lines, args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "design":
            return cmd_design(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_analyze(args)
    except SimulationDiverged as exc:
        print(f"error: simulation diverged: {exc}", file=sys.stderr)
        return 2
    except (ScenarioParseError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
