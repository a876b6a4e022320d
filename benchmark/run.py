#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for bdcsim.

Run from the root of a checkout:

    python3 benchmark/run.py --workload charge_cli --seed 0 --seconds 25 --trace 0

One process, one thread, one closed-loop caller: after one warm-up round,
each workload repeats whole rounds of its operations back to back until
--seconds have passed and every operation ran at least MIN_ROUNDS times,
checks every output with the independent checkers in checks.py, and prints
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
from the traced ones.  An operation is one CLI invocation or one sweep
point.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
F_S = 20e3          # Hz, every workload's switching frequency
L_P = 1e-3          # H
N_PERIODS = 20      # steady window, as the CLI's --periods default
SETUP_REPEATS = 25
MIN_ROUNDS = 2      # a run repeats each operation at least this often


def load_program() -> dict:
    """Import bdcsim from this checkout's src/, never from an installed copy."""
    if not (SRC / "bdcsim" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'bdcsim'} not found: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import bdcsim.analysis
    import bdcsim.circuit
    import bdcsim.cli
    import bdcsim.control
    import bdcsim.sim

    if Path(bdcsim.__file__).resolve().parent != SRC / "bdcsim":
        sys.exit(f"error: bdcsim imported from {bdcsim.__file__}, not from {SRC}")
    return {"cli": bdcsim.cli, "sim": bdcsim.sim, "analysis": bdcsim.analysis,
            "circuit": bdcsim.circuit, "control": bdcsim.control}


def measure_setup(clock: "HostClock") -> float:
    """Median time, in reference seconds, to start a fresh interpreter and
    import bdcsim.

    Start-up is partly process creation and file reads, which contention on
    the host slows less than Python code: over 351 starts on the reference
    machine its time went as the probe's to the power 0.5, not 1.  So it is
    scaled by the square root of the probe factor, which keeps slow and
    quiet phases on one scale without overcorrecting."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import bdcsim"]
    times = []
    for _ in range(SETUP_REPEATS):
        s = clock.around(lambda: subprocess.run(argv, cwd=ROOT, env=env, check=True))
        times.append(s.seconds * s.factor ** 0.5)
    return statistics.median(times)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


_PROBE_OUT = np.empty(1024)


def _probe(n: int) -> float:
    """Time a fixed loop in the style of the program's integrator: a closure
    call per step that returns a tuple, branches, and a store into a numpy
    array every fourth step.  It is the benchmark's own code, so it stays
    the same whatever the program becomes.  Under contention it slows about
    as much as the program does: measured on the reference machine,
    operation times went as this probe's time to the power 0.9-1.15, against
    1.3-1.5 for a bare arithmetic loop."""
    t0 = time.perf_counter()
    out = _PROBE_OUT

    def step(i, v, on):
        i2 = i + ((24.0 if on else 0.0) - v - 0.1 * i) * 5e-5
        if i2 < 0.0:
            i2 = 0.0
        v2 = v + (i2 - 0.1 * v) * 2e-4
        return i2, v2, i2 * v2

    i = v = 0.0
    for k in range(n):
        i, v, _ = step(i, v, k % 20 < 10)
        if k % 4 == 0:
            out[k >> 2] = v
    return time.perf_counter() - t0


class Scale:
    """One sampled block: its measured seconds, without probes, and the
    factor from measured to reference seconds."""
    seconds = 0.0
    factor = 1.0


class HostClock:
    """Puts measured seconds on one scale across the speed phases of a
    shared host.

    On a shared host the CPU runs the same code up to about 2x slower, in
    phases that change within a second.  While an operation runs, a timer
    signal interrupts it every INTERVAL_S for a short probe loop, so the
    probes sample the host's speed over the whole operation.  `now()`
    leaves the probes' own time out, and `sampled()` gives the block's
    factor from measured to reference seconds: REF_PROBE_S over the mean
    probe time.  An operation run in a slow phase is scaled down by about
    as much as that phase slowed it."""

    PROBE_N = 3_000         # loop iterations per probe, about 1-2 ms
    REF_PROBE_S = 0.00083   # the probe on the reference machine, quiet phase
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0        # seconds spent in sampling probes
        self.raw_s = 0.0        # measured seconds of every sampled block
        self.sampling = False   # no probes until the warm-up round is done
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(_probe(self.PROBE_N))
        self.spent += time.perf_counter() - t0

    def now(self) -> float:
        """perf_counter without the time spent in sampling probes."""
        return time.perf_counter() - self.spent

    @contextlib.contextmanager
    def sampled(self):
        """Samples the host speed while the block runs.  The yielded
        Scale gets its seconds and factor when the block ends; a block too
        short for a sample is scaled by the latest probe."""
        first, scale = len(self.probes), Scale()
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        t0 = self.now()
        try:
            yield scale
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            scale.seconds = self.now() - t0
            self.raw_s += scale.seconds
            samples = self.probes[first:] or self.probes[-1:]
            if samples:
                scale.factor = self.REF_PROBE_S / statistics.fmean(samples)

    def around(self, fn) -> Scale:
        """Times fn() with probe blocks on either side, for work done
        outside this process, where probes in between would run beside it
        rather than interrupt it."""
        before = [_probe(self.PROBE_N) for _ in range(10)]
        t0 = time.perf_counter()
        fn()
        scale = Scale()
        scale.seconds = time.perf_counter() - t0
        after = [_probe(self.PROBE_N) for _ in range(10)]
        self.probes.extend(before + after)
        scale.factor = self.REF_PROBE_S / statistics.fmean(before + after)
        return scale

    def speed(self) -> float:
        """The run's host speed relative to the reference machine's quiet
        phase: REF_PROBE_S over the median probe time."""
        return self.REF_PROBE_S / statistics.median(self.probes)


class Tally:
    """Operations attempted and failed.  An operation fails on a non-zero
    exit, an exception or a failed check; only a failed check makes the
    run's output incorrect."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0

    def fail(self, what: str, exc: BaseException | None = None, ops: int = 1) -> None:
        self.failed += ops
        if isinstance(exc, checks.CheckFailed):
            self.wrong += ops
            print(f"CHECK FAILED: {what}: {exc}", file=sys.stderr)
        else:
            print(f"OPERATION FAILED: {what}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)


class CliWorkload:
    """`bdcsim simulate <scenario> --output <tmp>`, then, when `label` names
    the mode of the ripple prediction to expect, `bdcsim analyze` on that
    trace.  Every round writes the same path; rounds are checked by digest
    against the last trace, which gets the full checks after the timed
    rounds (so the checks never add to the program's peak RSS)."""

    def __init__(self, m, tmp: Path, clock: HostClock, *, scenario, t_end, dt,
                 decimation, label=None):
        self.m, self.clock = m, clock
        self.csv = tmp / "trace.csv"
        self.t_end, self.dt, self.decimation, self.label = t_end, dt, decimation, label
        self.steps = round(t_end / dt)
        self.rows = self.steps // decimation + 1
        self.sim_argv = ["simulate", str(ROOT / "scenarios" / scenario),
                         "--output", str(self.csv)]
        self.ana_argv = ["analyze", str(self.csv), "--inductance", "1m",
                         "--switching-frequency", "20k"]
        self.rounds = []    # (digest, [(operation, exit code, stdout), ...])
        self.tally = Tally()

    def call(self, argv):
        out = io.StringIO()
        with self.clock.sampled() as scale, contextlib.redirect_stdout(out):
            try:
                rc = self.m["cli"].main(argv)
            except Exception as exc:  # an operation that raises counts as failed
                traceback.print_exception(exc, file=sys.stderr)
                rc = None
        return rc, scale.seconds * scale.factor, out.getvalue()

    def round(self) -> dict:
        rc_sim, t_sim, out_sim = self.call(self.sim_argv)
        timings = {"simulate": [t_sim], "analyze": []}
        outputs = [("simulate", rc_sim, out_sim)]
        if self.label is not None:
            rc_ana, t_ana, out_ana = self.call(self.ana_argv)
            timings["analyze"].append(t_ana)
            outputs.append(("analyze", rc_ana, out_ana))
        digest = sha256_file(self.csv) if self.csv.exists() else None
        self.rounds.append((digest, outputs))
        return timings

    def check_trace(self, cols) -> None:
        raise NotImplementedError

    def finish(self) -> Tally:
        """Check every operation of every round."""
        predicted, trace_error = None, None
        try:
            cols = checks.read_trace_csv(self.csv)
            checks.check_counts(cols["time"], self.t_end, self.dt, self.decimation)
            program = self.m["sim"].trace_from_csv(self.csv)
            checks.check_agrees(cols, {c: getattr(program, c) for c in checks.COLUMNS})
            del program
            self.check_trace(cols)
            if self.label is not None:
                predicted = checks.ripple_law(cols, self.label, n_periods=N_PERIODS,
                                              f_s=F_S, l_p=L_P)
        except Exception as exc:
            trace_error = exc
        final_digest = self.rounds[-1][0]
        print(f"sha256 {self.csv.name}: {final_digest}")
        for k, (digest, outputs) in enumerate(self.rounds):
            for what, rc, out in outputs:
                self.tally.attempted += 1
                if rc != 0:
                    self.tally.fail(f"round {k} {what}: exit code {rc}")
                    continue
                try:
                    if trace_error is not None:
                        raise trace_error
                    checks.check_printed_rows(out, self.rows)
                    if what == "simulate":
                        checks.require(digest == final_digest,
                                       f"trace digest {digest} differs from the last round")
                    else:
                        checks.check_printed_prediction(out, self.label, predicted)
                except Exception as exc:
                    self.tally.fail(f"round {k} {what}", exc)
        return self.tally


class ChargeCli(CliWorkload):
    """buck_charge.scenario: 1 M steps, 500 001 rows, 45 MB of CSV."""

    def __init__(self, m, tmp: Path, seed: int, clock: HostClock):
        super().__init__(m, tmp, clock, scenario="buck_charge.scenario", t_end=50e-3,
                         dt=50e-9, decimation=2, label="charging")

    def check_trace(self, cols) -> None:
        checks.check_charge(cols, n_periods=N_PERIODS, f_s=F_S, l_p=L_P,
                            i_charge_ref=3.0, i_deadband=0.08)


class RampCli(CliWorkload):
    """source_ramp.scenario, `simulate` only: 800 k steps with the source on
    a 0 -> 30 -> 0 V ramp and two mode transitions."""

    def __init__(self, m, tmp: Path, seed: int, clock: HostClock):
        super().__init__(m, tmp, clock, scenario="source_ramp.scenario", t_end=40e-3,
                         dt=50e-9, decimation=4)

    def check_trace(self, cols) -> None:
        # Profile crossings of the default thresholds v_bus_high = 20.4 V
        # (rising, 0 -> 30 V over 20 ms) and v_bus_low = 12.6 V (falling,
        # 30 -> 0 V over 20..40 ms).
        checks.check_ramp(cols, f_s=F_S, t_up=20e-3 * 20.4 / 30.0,
                          t_down=20e-3 + 20e-3 * (30.0 - 12.6) / 30.0)


class LineSweep:
    """The paper's line-regulation experiment through the library: three
    weak-source (r_source = 50 ohm) discharging points of 80 ms each, 5 V
    apart, each through run() and steady_window(), then line_regulation().
    The seed shifts all three source voltages by one offset drawn uniformly
    from [-1, 1] V, so the top point stays below v_bus_high = 35 V.  The
    cost of a step depends on the operating point (about 2% per volt of
    offset, slower at lower source voltages), so a wider range would make
    seeds, not the program, set the spread between runs."""

    T_END, DT, DECIMATION = 80e-3, 50e-9, 4
    R_LOAD, R_INT, C_BUS, C_O = 20.0, 0.3, 1000e-6, 250e-6
    V_REF, V_DEADBAND = 24.0, 0.05

    def __init__(self, m, tmp: Path, seed: int, clock: HostClock):
        self.m, self.clock = m, clock
        offset = random.Random(seed).uniform(-1.0, 1.0)
        self.volts = [20.0 + offset, 25.0 + offset, 30.0 + offset]
        print(f"line_sweep source voltages: "
              + ", ".join(f"{v:.6f}" for v in self.volts) + " V")
        c, sim = m["circuit"], m["sim"]
        params = c.ConverterParams(v_bus_nominal=24.0, l_p=L_P, c_bus=self.C_BUS,
                                   c_o=self.C_O, f_s=F_S, r_load=self.R_LOAD,
                                   r_source=50.0)
        battery = c.BatteryModel(v_emf_full=12.0, v_emf_empty=12.0, r_int=self.R_INT,
                                 capacity=7200.0, soc=0.5)
        cfg = m["control"].ControllerConfig(duty_step=2e-5, i_deadband=0.08,
                                            v_deadband=self.V_DEADBAND,
                                            v_bus_high=35.0)
        self.scenarios = [
            sim.Scenario(params=params, battery=battery, controller=cfg,
                         source=sim.SourceProfile.constant(v, until=1.0),
                         t_end=self.T_END, dt=self.DT,
                         record_decimation=self.DECIMATION, initial_duty=0.52,
                         initial_mode=m["control"].Mode.DISCHARGING)
            for v in self.volts]
        self.steps = 3 * round(self.T_END / self.DT)
        self.tally = Tally()
        self.digests = []

    def check_point(self, trace, digest) -> float:
        """Checks one point's trace; returns its mean rail voltage."""
        cols = {name: getattr(trace, name) for name in
                checks.COLUMNS + ("e_source", "e_load", "e_battery", "e_link")}
        checks.check_counts(cols["time"], self.T_END, self.DT, self.DECIMATION)
        v_mean = checks.check_discharge_point(
            cols, n_periods=N_PERIODS, f_s=F_S, dt_sample=self.DECIMATION * self.DT,
            v_ref_load=self.V_REF, v_deadband=self.V_DEADBAND, l_p=L_P,
            c_bus=self.C_BUS, c_o=self.C_O, r_int=self.R_INT)
        for col in cols.values():
            digest.update(col)  # hashed in place: no copy adds to peak RSS
        return v_mean

    def round(self) -> dict:
        sim, analysis = self.m["sim"], self.m["analysis"]
        t_sim, t_ana = [], []
        rows, own_means, digest = [], [], hashlib.sha256()
        self.tally.attempted += len(self.volts)
        for v_s, scenario in zip(self.volts, self.scenarios):
            try:
                with self.clock.sampled() as scale:
                    t0 = self.clock.now()
                    trace = sim.run(scenario)
                    t1 = self.clock.now()
                    window = sim.steady_window(trace, n_periods=N_PERIODS, f_s=F_S)
                    t2 = self.clock.now()
                t_sim.append((t1 - t0) * scale.factor)
                t_ana.append((t2 - t1) * scale.factor)
                own_means.append(self.check_point(trace, digest))
            except Exception as exc:
                self.tally.fail(f"sweep point {v_s:.6f} V", exc)
                continue
            finally:
                trace = None    # one trace alive at a time, as in a plain sweep
            v_out = window.mean["v_c_o"]
            rows.append(analysis.RegulationRow(setting=v_s, v_out=v_out,
                                               i_out=v_out / self.R_LOAD))
        if len(rows) == len(self.volts):
            try:
                with self.clock.sampled() as scale:   # microseconds
                    t0 = self.clock.now()
                    result = analysis.line_regulation(rows)
                    t_ana.append((self.clock.now() - t0) * scale.factor)
                checks.check_line_regulation(self.volts, own_means,
                                             result.max_percent, self.V_DEADBAND)
            except Exception as exc:  # the figure belongs to all three points
                self.tally.fail("line regulation", exc, ops=len(self.volts))
        self.digests.append(digest.hexdigest())
        return {"simulate": t_sim, "analyze": t_ana}

    def finish(self) -> Tally:
        print(f"sha256 line_sweep traces: {self.digests[-1]}")
        return self.tally


WORKLOADS = {"charge_cli": ChargeCli, "line_sweep": LineSweep, "ramp_cli": RampCli}


def layer_metrics(r: dict, tracer: Tracer, speed: float) -> dict:
    """Per-layer figures of one traced round, times in reference seconds:
    span times scaled as the round's operations were."""
    raw, c = tracer.self_times(), tracer.counts
    st = Counter({name: t * r["wall_s"] / r["raw_s"] for name, t in raw.items()})
    run_s, to_csv_s, from_csv_s = st["sim.run"], st["sim.to_csv"], st["sim.trace_from_csv"]
    return {
        "cli.self_s": st["cli.main"],
        "scenario.parse_s": st["scenario.parse_scenario_file"],
        "sim.run_s": run_s,
        "sim.steps": c["sim.steps"],
        "sim.samples": c["sim.samples"],
        "sim.run_steps_per_s": c["sim.steps"] / run_s if run_s else 0.0,
        "sim.to_csv_s": to_csv_s,
        "sim.to_csv_rows_per_s": c["sim.to_csv_rows"] / to_csv_s if to_csv_s else 0.0,
        "sim.to_csv_bytes": c["sim.to_csv_bytes"],
        "sim.from_csv_s": from_csv_s,
        "sim.from_csv_rows_per_s":
            c["sim.from_csv_rows"] / from_csv_s if from_csv_s else 0.0,
        "sim.steady_window_s": st["sim.steady_window"],
        "control.ticks": c["control.ticks"],
        "control.tick_s": st["control.select_mode"] + st["control.regulate"],
        "control.mode_transitions": c["control.mode_transitions"],
        "analysis.s": sum(v for k, v in st.items() if k.startswith("analysis.")),
        "trace.coverage": sum(raw.values()) / r["raw_s"],
        "host.speed": speed,
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "simulate_s": "s",
    "peak_rss_mb": "MB",
    "cli.self_s": "s", "scenario.parse_s": "s", "sim.run_s": "s", "sim.steps": "count",
    "sim.samples": "count", "sim.run_steps_per_s": "1/s", "sim.to_csv_s": "s",
    "sim.to_csv_rows_per_s": "rows/s", "sim.to_csv_bytes": "bytes",
    "sim.from_csv_s": "s", "sim.from_csv_rows_per_s": "rows/s",
    "sim.steady_window_s": "s", "control.ticks": "count", "control.tick_s": "s",
    "control.mode_transitions": "count", "analysis.s": "s", "trace.overhead_s": "s",
    "trace.coverage": "ratio", "host.speed": "ratio",
}


def typical(rounds: list[dict], kind: str) -> float:
    """Each operation's median time over the run's rounds, summed over one
    round."""
    return sum(statistics.median(times) for times in zip(*(r[kind] for r in rounds)))


def typical_wall(rounds: list[dict]) -> float:
    return typical(rounds, "simulate") + typical(rounds, "analyze")


def write_spans(workload: str, seed: int, tracers: list[Tracer]) -> Path:
    """Spans of every traced round, as [round, name, start, end, parent]."""
    out = ROOT / ".bench_spans" / f"{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    t0 = min(t.spans[0][1] for t in tracers if t.spans)
    rows = [[k, name, start - t0, end - t0, parent]
            for k, t in enumerate(tracers) for name, start, end, parent in t.spans]
    out.write_text(json.dumps(rows))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    m = load_program()
    clock = HostClock()
    setup_s = measure_setup(clock)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        workload = WORKLOADS[args.workload](m, tmp, args.seed, clock)
        # The warm-up round runs without probes: they would interleave
        # their own allocations with the program's and shift its peak RSS
        # by a few percent.  Its outputs are checked like the others'.
        workload.round()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        clock.sampling = True
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            raw_before = clock.raw_s
            if args.trace and len(plain) > len(traced):
                tracer = Tracer(clock.now)
                with tracer.installed(m):
                    traced.append((workload.round(), tracer))
                traced[-1][0]["raw_s"] = clock.raw_s - raw_before
            else:
                plain.append(workload.round())
            if (time.perf_counter() - start >= args.seconds
                    and len(plain) + len(traced) >= MIN_ROUNDS
                    and (traced or not args.trace)):
                break
        tally = workload.finish()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    # Every time below is in reference seconds (see HostClock), so that
    # runs taken in slow and quiet phases of a shared host read on one scale.
    speed = clock.speed()
    print(f"host speed {speed:.4f} (median probe {HostClock.REF_PROBE_S / speed * 1e3:.2f} ms,"
          f" reference {HostClock.REF_PROBE_S * 1e3:.2f} ms)")
    if args.trace:
        for r, _ in traced:
            r["wall_s"] = sum(r["simulate"]) + sum(r["analyze"])
        by_wall = sorted(traced, key=lambda rt: rt[0]["wall_s"])
        metrics = layer_metrics(*by_wall[len(by_wall) // 2], speed)
        metrics["trace.overhead_s"] = (typical_wall([r for r, _ in traced])
                                       - typical_wall(plain))
        print(f"spans written: {write_spans(args.workload, args.seed, [t for _, t in traced])}")
        print(f"{len(plain)} untraced and {len(traced)} traced rounds")
    else:
        wall_s = typical_wall(plain)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "steps_per_s": workload.steps / wall_s,
            "simulate_s": typical(plain, "simulate"),
            "peak_rss_mb": peak_rss_mb,
        }
        for k, r in enumerate(plain):
            print(f"round {k}: " + "  ".join(
                f"{kind} " + " ".join(f"{t:.4f}" for t in r[kind]) for kind in r))
        print(f"{len(plain)} rounds")
    for name, value in metrics.items():
        print(f"{name:26s} {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
