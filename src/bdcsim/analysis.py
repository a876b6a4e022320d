"""Post-processing metrics: ripple predictions, current envelopes,
line/load regulation.

The ripple formulas carry the switching-period factor so they are actual
currents; each prediction also reports the companion expression from the
other half of the period, which agrees with the primary one exactly at the
steady-state duty of the respective mode.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class RegulationRow:
    """One tabulated operating point of a regulation sweep."""

    setting: float     # input volts for line tests, load ohms for load tests
    v_out: float       # V
    i_out: float       # A

    def __post_init__(self) -> None:
        for name in ("setting", "v_out", "i_out"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.v_out < 0.0 or self.i_out < 0.0:
            raise ValueError("v_out and i_out must be non-negative")


@dataclass(frozen=True)
class RipplePrediction:
    """Peak-to-peak inductor ripple; `ripple` is the off-interval expression,
    `companion` the on-interval one (equal in steady state)."""

    ripple: float      # A
    companion: float   # A


@dataclass(frozen=True)
class LineRegulationResult:
    """Consecutive-pair line-regulation percentages plus summary figures."""

    pairs: tuple       # ((setting_a, setting_b, percent), ...)
    max_percent: float
    full_span_percent: float


def predicted_ripple_buck(v_bus: float, v_batt: float, l_p: float,
                          d: float, f_s: float) -> RipplePrediction:
    """Charging-mode ripple: v_batt * (1 - d) / (l_p * f_s), with the
    on-interval companion (v_bus - v_batt) * d / (l_p * f_s)."""
    _check_ripple_args(v_bus, v_batt, l_p, d, f_s)
    return RipplePrediction(
        ripple=v_batt * (1.0 - d) / (l_p * f_s),
        companion=(v_bus - v_batt) * d / (l_p * f_s),
    )


def predicted_ripple_boost(v_bus: float, v_batt: float, l_p: float,
                           d: float, f_s: float) -> RipplePrediction:
    """Discharging-mode ripple: v_batt * d / (l_p * f_s), with the
    companion (v_bus - v_batt) * (1 - d) / (l_p * f_s)."""
    _check_ripple_args(v_bus, v_batt, l_p, d, f_s)
    return RipplePrediction(
        ripple=v_batt * d / (l_p * f_s),
        companion=(v_bus - v_batt) * (1.0 - d) / (l_p * f_s),
    )


def _check_ripple_args(v_bus, v_batt, l_p, d, f_s) -> None:
    if not 0.0 < d < 1.0:
        raise ValueError(f"duty must be in (0, 1), got {d}")
    if v_bus <= v_batt:
        raise ValueError(f"require v_bus > v_batt, got {v_bus} <= {v_batt}")
    if v_batt <= 0.0 or l_p <= 0.0 or f_s <= 0.0:
        raise ValueError("v_batt, l_p and f_s must be positive")


def current_envelope(i_star: float, delta_i: float) -> tuple[float, float]:
    """Predicted (min, max) of the inductor current around its average for
    a given peak-to-peak ripple."""
    if delta_i < 0.0:
        raise ValueError(f"ripple must be non-negative, got {delta_i}")
    return (i_star - 0.5 * delta_i, i_star + 0.5 * delta_i)


def _ordered(rows: list[RegulationRow], sweep: str) -> list[RegulationRow]:
    """A sweep's rows by setting: at least 2, no setting repeated."""
    if len(rows) < 2:
        raise ValueError(f"{sweep} regulation needs at least 2 rows")
    ordered = sorted(rows, key=lambda r: r.setting)
    if any(a.setting == b.setting for a, b in zip(ordered, ordered[1:])):
        raise ValueError("rows must have distinct settings")
    return ordered


def line_regulation(rows: list[RegulationRow]) -> LineRegulationResult:
    """Line regulation over an input-voltage sweep.

    Percentages are computed between consecutive rows (sorted by setting)
    as |delta v_out| * 100 / |delta v_in|; the maximum over pairs is the
    figure of merit and the full-span ratio is reported alongside.
    """
    ordered = _ordered(rows, "line")
    pairs = []
    for a, b in zip(ordered, ordered[1:]):
        pct = abs(b.v_out - a.v_out) * 100.0 / abs(b.setting - a.setting)
        pairs.append((a.setting, b.setting, pct))
    full_span = (abs(ordered[-1].v_out - ordered[0].v_out) * 100.0
                 / abs(ordered[-1].setting - ordered[0].setting))
    return LineRegulationResult(
        pairs=tuple(pairs),
        max_percent=max(p for _, _, p in pairs),
        full_span_percent=full_span,
    )


def load_regulation(rows: list[RegulationRow], v_nominal: float) -> float:
    """Load regulation over a load-resistance sweep.

    Full load is the smallest resistance (largest current), minimum load the
    largest; returns (v_min_load - v_full_load) * 100 / v_nominal.
    """
    ordered = _ordered(rows, "load")
    if v_nominal <= 0.0:
        raise ValueError("v_nominal must be positive")
    v_full_load = ordered[0].v_out
    v_min_load = ordered[-1].v_out
    return (v_min_load - v_full_load) * 100.0 / v_nominal


def read_regulation_csv(path) -> list[RegulationRow]:
    """Read a regulation CSV (header `setting,v_out,i_out`, one row per
    operating point); malformed rows are reported with their row number."""
    rows: list[RegulationRow] = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    if [h.strip() for h in header] != ["setting", "v_out", "i_out"]:
        raise ValueError(
            f"{path}: expected header 'setting,v_out,i_out', got {','.join(header)}")
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ValueError(f"{path}: row {row_no}: expected 3 fields, got {len(row)}")
        try:
            rows.append(RegulationRow(setting=float(row[0]),
                                      v_out=float(row[1]),
                                      i_out=float(row[2])))
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from exc
    return rows


def read_text(path) -> str:
    """The text of an input file, which must be UTF-8: a byte that is not
    raises ValueError with the path and the byte's line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} "
                         "is not UTF-8") from None
