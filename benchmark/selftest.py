#!/usr/bin/env python3
"""Self-test of the output checkers.

Each checker must accept the program's real output and reject a copy of
it with one deliberate fault.  Run from the root of a checkout:

    python3 benchmark/selftest.py

Exits 0 when every checker behaves, 1 otherwise.  It makes the real
outputs first (two `simulate` calls, one `analyze`, one three-point
sweep), which takes under a minute.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run

KW = dict(n_periods=run.N_PERIODS, f_s=run.F_S)


def cli(m, *argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = m["cli"].main(list(argv))
    if rc != 0:
        sys.exit(f"error: bdcsim {' '.join(argv)} exited {rc}")
    return out.getvalue()


def changed(cols, **columns):
    """A copy of the trace columns with some replaced."""
    return {**cols, **columns}


def main() -> int:
    m = run.load_program()
    clock = run.HostClock()
    tmp_root = run.ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    results = []

    def case(what: str, fn, accept: bool) -> None:
        try:
            fn()
            ok, why = accept, "accepted"
        except checks.CheckFailed as exc:
            ok, why = not accept, f"rejected: {exc}"
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}: {why}")

    try:
        # charge_cli: the CSV reader, counts, CC charging and the ripple law.
        charge = run.ChargeCli(m, tmp, 0, clock)
        cli(m, *charge.sim_argv)
        out_ana = cli(m, *charge.ana_argv)
        cols = checks.read_trace_csv(charge.csv)
        counts = dict(t_end=charge.t_end, dt=charge.dt, decimation=charge.decimation)
        case("counts, real trace",
             lambda: checks.check_counts(cols["time"], **counts), True)
        lines = charge.csv.read_text().splitlines(keepends=True)
        dropped = tmp / "dropped.csv"
        dropped.write_text("".join(lines[:1000] + lines[1001:]))
        case("counts, one CSV row dropped", lambda: checks.check_counts(
            checks.read_trace_csv(dropped)["time"], **counts), False)

        program = m["sim"].trace_from_csv(charge.csv)
        prog_cols = {c: getattr(program, c) for c in checks.COLUMNS}
        case("readers agree, real trace", lambda: checks.check_agrees(cols, prog_cols), True)
        v = prog_cols["v_c_o"].copy()
        v[4321] = np.nextafter(v[4321], np.inf)
        case("readers agree, one value off by one ulp",
             lambda: checks.check_agrees(cols, changed(prog_cols, v_c_o=v)), False)

        charge_kw = dict(KW, l_p=run.L_P, i_charge_ref=3.0, i_deadband=0.08)
        case("charging, real trace", lambda: checks.check_charge(cols, **charge_kw), True)
        j0 = checks.window_start(cols["time"], **KW)
        i_l = cols["i_l"].copy()
        i_l[j0:] = i_l[j0:].mean() + 1.1 * (i_l[j0:] - i_l[j0:].mean())
        case("charging, ripple scaled by 10%",
             lambda: checks.check_charge(changed(cols, i_l=i_l), **charge_kw), False)
        i_b = cols["i_batt"] + 2 * 0.08
        case("charging, i_batt offset by 2 i_deadband",
             lambda: checks.check_charge(changed(cols, i_batt=i_b), **charge_kw), False)
        mode = cols["mode"].copy()
        mode[1000] = checks.TRICKLE
        case("charging, one sample in trickle",
             lambda: checks.check_charge(changed(cols, mode=mode), **charge_kw), False)
        duty = cols["duty"].copy()
        duty[-5:] += 0.001
        case("charging, duty moves in the window",
             lambda: checks.check_charge(changed(cols, duty=duty), **charge_kw), False)

        predicted = checks.ripple_law(cols, "charging", **KW, l_p=run.L_P)
        case("analyze prediction, real output", lambda: checks.check_printed_prediction(
            out_ana, "charging", predicted), True)
        printed = float(re.search(r"predicted ripple \(charging\): (\S+) A", out_ana)[1])
        bad_ana = out_ana.replace(f"(charging): {printed:.4g} A",
                                  f"(charging): {printed * 1.01:.4g} A")
        case("analyze prediction, printed value 1% off", lambda: checks.check_printed_prediction(
            bad_ana, "charging", predicted), False)
        case("printed rows, real output",
             lambda: checks.check_printed_rows(out_ana, charge.rows), True)
        case("printed rows, one row short",
             lambda: checks.check_printed_rows(out_ana, charge.rows - 1), False)
        del cols, program, prog_cols

        # ramp_cli: shoot-through, mode sequence and transition timing.
        ramp = run.RampCli(m, tmp, 0, clock)
        cli(m, *ramp.sim_argv)
        cols = checks.read_trace_csv(ramp.csv)
        case("ramp, real trace", lambda: ramp.check_trace(cols), True)
        s2 = cols["s2"].copy()
        s1 = cols["s1"].copy()
        j = int(np.flatnonzero(s1)[100])
        s2[j] = 1.0
        case("ramp, S1 and S2 on together",
             lambda: ramp.check_trace(changed(cols, s2=s2)), False)
        flips = np.flatnonzero(np.diff(cols["mode"])) + 1
        mode = cols["mode"].copy()
        mid = (flips[0] + flips[1]) // 2
        mode[mid:mid + 250] = checks.DISCHARGING
        case("ramp, extra mode flip",
             lambda: ramp.check_trace(changed(cols, mode=mode)), False)
        late = cols["mode"].copy()
        per_period = round(1 / (run.F_S * ramp.dt)) // ramp.decimation
        late[flips[0]:flips[0] + 2 * per_period] = checks.DISCHARGING
        case("ramp, up-transition two periods late",
             lambda: ramp.check_trace(changed(cols, mode=late)), False)
        del cols

        # line_sweep: discharging point, energy balance, line regulation.
        sweep = run.LineSweep(m, tmp, 0, clock)
        point_kw = dict(KW, dt_sample=sweep.DECIMATION * sweep.DT, v_ref_load=sweep.V_REF,
                        v_deadband=sweep.V_DEADBAND, l_p=run.L_P, c_bus=sweep.C_BUS,
                        c_o=sweep.C_O, r_int=sweep.R_INT)
        means, program_means = [], []
        for k, scenario in enumerate(sweep.scenarios):
            trace = m["sim"].run(scenario)
            cols = {name: getattr(trace, name) for name in
                    checks.COLUMNS + ("e_source", "e_load", "e_battery", "e_link")}
            means.append(checks.check_discharge_point(cols, **point_kw))
            program_means.append(m["sim"].steady_window(trace, **KW).mean["v_c_o"])
            if k:
                continue
            case("sweep point, real trace",
                 lambda: checks.check_discharge_point(cols, **point_kw), True)
            away = 2 * sweep.V_DEADBAND * np.sign(means[0] - sweep.V_REF)
            case("sweep point, rail offset by 2 v_deadband",
                 lambda: checks.check_discharge_point(
                     changed(cols, v_c_o=cols["v_c_o"] + away), **point_kw), False)
            case("sweep point, load energy 2% high",
                 lambda: checks.check_discharge_point(
                     changed(cols, e_load=cols["e_load"] * 1.02), **point_kw), False)
            mode = cols["mode"].copy()
            mode[-1] = checks.CHARGING
            case("sweep point, last sample charging", lambda: checks.check_discharge_point(
                changed(cols, mode=mode), **point_kw), False)
        rows = [m["analysis"].RegulationRow(setting=s, v_out=v, i_out=v / sweep.R_LOAD)
                for s, v in zip(sweep.volts, program_means)]
        figure = m["analysis"].line_regulation(rows).max_percent
        case("line regulation, real sweep", lambda: checks.check_line_regulation(
            sweep.volts, means, figure, sweep.V_DEADBAND), True)
        case("line regulation, program figure 1% off", lambda: checks.check_line_regulation(
            sweep.volts, means, figure * 1.01, sweep.V_DEADBAND), False)
        delta = 2 * sweep.V_DEADBAND * np.sign(means[2] - means[1])
        shifted = means[:2] + [means[2] + delta]
        v_top = program_means[2] + delta
        rows[2] = m["analysis"].RegulationRow(setting=sweep.volts[2], v_out=v_top,
                                              i_out=v_top / sweep.R_LOAD)
        figure = m["analysis"].line_regulation(rows).max_percent
        case("line regulation, top rail offset by 2 v_deadband",
             lambda: checks.check_line_regulation(sweep.volts, shifted, figure,
                                                  sweep.V_DEADBAND), False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    print(f"{sum(results)} of {len(results)} checker cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
