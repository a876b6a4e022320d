"""Output checkers that work apart from the program.

Every checker takes plain numpy columns (or printed text) and raises
:class:`CheckFailed` with a reason when the output is wrong.  Nothing here
imports bdcsim: the trace reader, the steady window, the ripple law, the
energy balance and the line-regulation figure are evaluated independently,
so that a fault shared by the program and its own post-processing still
shows.
"""

from __future__ import annotations

import io
import re

import numpy as np

COLUMNS = ("time", "i_l", "v_c_bus", "v_c_o", "v_batt_terminal", "i_batt",
           "soc", "mode", "duty", "s1", "s2")
CHARGING, DISCHARGING, TRICKLE = 0, 1, 2
# Replacement order matters: "charging" is a substring of "discharging".
_MODE_TEXT = (("discharging", str(DISCHARGING)), ("charging", str(CHARGING)),
              ("trickle", str(TRICKLE)))


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """The benchmark's own trace reader: mode names mapped to codes by text
    substitution, then one numpy parse of the whole table."""
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    require(header == ",".join(COLUMNS), f"{path}: unexpected header {header!r}")
    for name, code in _MODE_TEXT:
        body = body.replace(name, code)
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    require(data.shape[1] == len(COLUMNS), f"{path}: {data.shape[1]} columns")
    return {name: data[:, j] for j, name in enumerate(COLUMNS)}


def check_counts(time: np.ndarray, t_end: float, dt: float, decimation: int) -> None:
    """Rows equal (t_end / dt) // decimation + 1 and the last row sits at t_end."""
    n_steps = round(t_end / dt)
    expected = n_steps // decimation + 1
    require(len(time) == expected, f"{len(time)} rows, expected {expected}")
    require(abs(time[-1] - t_end) <= 0.5 * dt,
            f"last sample at {time[-1]!r} s, expected {t_end} s")


def check_agrees(own: dict[str, np.ndarray], program: dict[str, np.ndarray]) -> None:
    """The benchmark's reader and the program's reader give identical columns."""
    for name in COLUMNS:
        a = own[name]
        b = np.asarray(program[name], dtype=float)
        require(a.shape == b.shape, f"{name}: {a.shape} rows vs {b.shape}")
        bad = np.flatnonzero(a != b)
        require(bad.size == 0,
                f"{name}: readers disagree at {bad.size} rows, first row {bad[:1]}")


def window_start(time: np.ndarray, n_periods: int, f_s: float) -> int:
    """Index of the first sample of the last n_periods switching periods
    (the start instant included, within half a sample spacing)."""
    spacing = time[1] - time[0]
    return int(np.searchsorted(time, time[-1] - n_periods / f_s - 0.5 * spacing))


def ripple_law(cols, label: str, *, n_periods, f_s, l_p) -> float:
    """Predicted inductor ripple p2p from the steady-window means: the
    off-interval slope v_batt * (1 - d) / (L * f_s) when charging (buck),
    the on-interval slope v_batt * d / (L * f_s) when discharging (boost)."""
    j0 = window_start(cols["time"], n_periods, f_s)
    v_batt = cols["v_batt_terminal"][j0:].mean()
    d = cols["duty"][j0:].mean()
    on_share = 1.0 - d if label == "charging" else d
    return float(v_batt * on_share / (l_p * f_s))


def check_charge(cols, *, n_periods, f_s, l_p, i_charge_ref, i_deadband) -> None:
    """Constant-current charging: 100% charging, the duty frozen over the
    steady window, mean battery current inside the deadband and the inductor
    ripple on v_batt * (1 - d) / (L * f_s) within 5%."""
    modes = cols["mode"]
    require(np.all(modes == CHARGING),
            f"{np.count_nonzero(modes != CHARGING)} samples not charging")
    j0 = window_start(cols["time"], n_periods, f_s)
    duty = cols["duty"][j0:]
    require(duty.max() == duty.min(), f"duty moves over the window ({np.ptp(duty):.3g})")
    i_mean = cols["i_batt"][j0:].mean()
    require(abs(i_mean - i_charge_ref) <= i_deadband,
            f"mean i_batt {i_mean:.6g} A outside {i_charge_ref} +/- {i_deadband} A")
    predicted = ripple_law(cols, "charging", n_periods=n_periods, f_s=f_s, l_p=l_p)
    measured = np.ptp(cols["i_l"][j0:])
    require(abs(measured - predicted) <= 0.05 * predicted,
            f"ripple {measured:.6g} A vs predicted {predicted:.6g} A (> 5%)")


def check_printed_rows(text: str, rows: int) -> None:
    """`simulate` and `analyze` both report the sample count they handled."""
    require(f"({rows} samples" in text, f"output does not report {rows} samples")


def check_printed_prediction(text: str, label: str, predicted: float) -> None:
    """`analyze` prints its ripple prediction with 4 significant digits;
    it must agree with the benchmark's own figure to that precision."""
    m = re.search(rf"predicted ripple \({label}\): (\S+) A", text)
    require(m is not None, f"no {label} ripple prediction in the analyze output")
    printed = float(m.group(1))
    half_ulp = 0.5 * 10.0 ** (np.floor(np.log10(abs(predicted))) - 3)
    require(abs(printed - predicted) <= half_ulp * (1 + 1e-9),
            f"analyze printed {printed} A, benchmark predicts {predicted:.6g} A")


def check_discharge_point(cols, *, n_periods, f_s, dt_sample, v_ref_load,
                          v_deadband, l_p, c_bus, c_o, r_int) -> float:
    """A weak-source discharging point: 100% discharging, duty frozen over
    the window, mean rail within the deadband, and energy balanced over the
    window within 1% of the load energy.  Returns the mean rail voltage."""
    modes = cols["mode"]
    require(np.all(modes == DISCHARGING),
            f"{np.count_nonzero(modes != DISCHARGING)} samples not discharging")
    j0 = window_start(cols["time"], n_periods, f_s)
    duty = cols["duty"][j0:]
    require(duty.max() == duty.min(), f"duty moves over the window ({np.ptp(duty):.3g})")
    v_mean = float(cols["v_c_o"][j0:].mean())
    require(abs(v_mean - v_ref_load) <= v_deadband,
            f"mean rail {v_mean:.6g} V outside {v_ref_load} +/- {v_deadband} V")

    def delta(name):
        return cols[name][-1] - cols[name][j0]

    def field(j):
        return 0.5 * (l_p * cols["i_l"][j] ** 2 + c_bus * cols["v_c_bus"][j] ** 2
                      + c_o * cols["v_c_o"][j] ** 2)

    # r_int loss by the left rectangle rule on the recorded samples.
    e_rint = r_int * float(np.sum(cols["i_l"][j0:-1] ** 2)) * dt_sample
    e_load = delta("e_load")
    residual = (delta("e_source") - e_load - delta("e_battery") - delta("e_link")
                - e_rint - (field(-1) - field(j0)))
    require(e_load > 0.0 and abs(residual) <= 0.01 * e_load,
            f"energy residual {residual:.6g} J against load {e_load:.6g} J")
    return v_mean


def check_line_regulation(settings, v_means, program_max_percent, v_deadband) -> None:
    """Consecutive-pair line regulation from the benchmark's own window
    means agrees with the program's figure and stays within
    2 * v_deadband per 5 V step."""
    order = np.argsort(settings)
    s = np.asarray(settings, dtype=float)[order]
    v = np.asarray(v_means, dtype=float)[order]
    own = float(np.max(np.abs(np.diff(v)) * 100.0 / np.abs(np.diff(s))))
    require(abs(own - program_max_percent) <= 1e-9 * max(own, 1e-12) + 1e-12,
            f"line regulation {program_max_percent!r}% vs benchmark {own!r}%")
    limit = 100.0 * 2.0 * v_deadband / 5.0
    require(own <= limit, f"line regulation {own:.4g}% above {limit:.4g}%")


def check_ramp(cols, *, f_s, t_up, t_down) -> None:
    """Source ramp: never both switches on, modes discharging -> charging ->
    discharging, each transition within one switching period after the
    instant the profile crosses its threshold."""
    both = np.count_nonzero((cols["s1"] != 0) & (cols["s2"] != 0))
    require(both == 0, f"S1 and S2 both on in {both} samples")
    modes = cols["mode"]
    flips = np.flatnonzero(np.diff(modes)) + 1
    sequence = [int(modes[0])] + [int(modes[j]) for j in flips]
    require(sequence == [DISCHARGING, CHARGING, DISCHARGING],
            f"mode sequence {sequence}")
    eps = 1e-9  # the trace prints time to 1 ns
    for j, t_cross in zip(flips, (t_up, t_down)):
        t = cols["time"][j]
        require(t_cross - eps <= t <= t_cross + 1.0 / f_s + eps,
                f"transition at {t:.9f} s, crossing at {t_cross:.9f} s")
