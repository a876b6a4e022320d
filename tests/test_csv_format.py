"""The trace CSV writer against printf.

`Trace.to_csv` formats blocks of rows with integer arithmetic and digit
tables; these tests hold its bytes to the per-row printf format built from
`_TRACE_FORMAT`, value by value and for whole multi-block traces.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bdcsim import _trace_csv
from bdcsim._trace_csv import csv_block
from bdcsim.sim import MODE_NAMES, TRACE_COLUMNS, Trace, _CSV_BLOCK, _TRACE_FORMAT

ROW = ",".join(fmt for _, _, fmt in _TRACE_FORMAT) + "\r\n"

EDGES = [0.0, -0.0, 1e-4, -1e-4, 9.9999999996e-5, 9.999999995e-5, 9.99999999e-5,
         999.9999995, 999.99999996, -999.99999996, 99.9999999996, 1000.0, 1e-300, 5e-324,
         1e300, 2.0 ** -13, 0.1, 1.0, 10.0, 100.0, float("nan"), float("inf"),
         float("-inf")]
# Times beside the %.9f carries, the end of the fast range and its ties.
TIME_EDGES = [0.0, -0.0, 0.9999999996, 9.9999999995, 999.9999999996, 1000.0, 1e300,
              -1e-10, 2.5e-9, 1.0000000005, 0.0000000015]


def printf_rows(trace: Trace) -> bytes:
    cols = [trace.column(name).tolist() for name in TRACE_COLUMNS]
    mode = TRACE_COLUMNS.index("mode")
    cols[mode] = [MODE_NAMES[code] for code in cols[mode]]
    return "".join(ROW % row for row in zip(*cols)).encode()


def make_trace(values, times=None, rng=None) -> Trace:
    """Every %.9g column holds `values` (each column its own signs when
    `rng` is given), time holds `times` or |values|."""
    x = np.asarray(values, np.float64)
    n = len(x)
    rng = rng or np.random.default_rng(0)

    def col():
        return x * rng.choice([-1.0, 1.0], n)

    return Trace(time=np.abs(x) if times is None else np.asarray(times, np.float64),
                 i_l=x.copy(), v_c_bus=col(), v_c_o=col(), v_batt_terminal=col(),
                 i_batt=col(), soc=col(), mode=(np.arange(n) % len(MODE_NAMES)).astype(np.int8),
                 duty=col(), s1=rng.random(n) < 0.5, s2=rng.random(n) < 0.5)


def assert_rows_match(trace: Trace):
    got = csv_block(trace, 0, len(trace)).split(b"\r\n")
    want = printf_rows(trace).split(b"\r\n")
    assert len(got) == len(want)
    for row, (g, w) in enumerate(zip(got, want)):
        assert g == w, (row, trace.time[row] if row < len(trace) else None)


def test_edge_values():
    assert_rows_match(make_trace(EDGES))
    trace = make_trace(np.resize(EDGES, len(TIME_EDGES)), TIME_EDGES)
    assert_rows_match(trace)
    for line, t, x in zip(csv_block(trace, 0, len(trace)).split(b"\r\n"),
                          trace.time.tolist(), trace.i_l.tolist()):
        assert line.decode().split(",")[:2] == ["%.9f" % t, "%.9g" % x]


finite = st.floats(allow_nan=False, allow_infinity=False)
# Magnitudes 10^-10 .. 10^5 with any digits, either sign.
scaled = st.builds(lambda m, e, s: s * m * 10.0 ** e,
                   st.floats(1.0, 10.0, exclude_max=True), st.integers(-10, 5),
                   st.sampled_from([-1.0, 1.0]))
# Exact decimal ties at the tenth significant digit: k 10^-j + 5 10^-(j+1)
# with a nine-digit k.
ties = st.builds(lambda k, j: float(f"{k}5e-{j + 1}"), st.integers(10 ** 8, 10 ** 9 - 1),
                 st.integers(5, 16))
# Ties at the tenth decimal of a time: k 10^-9 + 5 10^-10.
time_ties = st.builds(lambda k: float(f"{k}5e-10"), st.integers(0, 10 ** 12))


# Values the writer tells apart by their bits, not by ==, and values
# outside its integer paths, which printf formats.
SPECIALS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-300]


@given(st.lists(st.tuples(st.one_of(finite, scaled, ties, st.sampled_from(SPECIALS)),
                          st.integers(1, 5)), min_size=1, max_size=64))
@example([(value, 3) for value in SPECIALS * 2])
def test_general_format_matches_printf(runs):
    """Values in runs of 1 to 5 repeats; i_l keeps the runs (the other
    columns draw a sign per value).  Stretched fourfold, fewer than a
    quarter of the values start a run, so the writer formats each run's
    value once."""
    for stretch in (1, 4):
        assert_rows_match(make_trace([value for value, count in runs
                                      for _ in range(count * stretch)]))


@given(st.lists(st.one_of(time_ties, st.floats(0.0, 1e3), finite), min_size=1, max_size=64))
def test_time_format_matches_printf(times):
    assert_rows_match(make_trace(np.ones(len(times)), times))


def test_multi_block_trace_matches_printf(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * _CSV_BLOCK + 123
    values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 5, n)
    odd = rng.random(n) < 0.02
    values[odd] = rng.choice(EDGES, odd.sum())
    times = np.arange(n) * 2.5e-6
    times[rng.random(n) < 0.001] = -1.0
    trace = make_trace(values, times, rng)
    assert set(trace.mode.tolist()) == set(MODE_NAMES)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = (",".join(TRACE_COLUMNS) + "\r\n").encode()
    assert path.read_bytes() == header + printf_rows(trace)


def test_aliased_columns_are_formatted_once(tmp_path, monkeypatch):
    """A run's i_batt is its i_l array: the writer formats the cells of
    the shared array once per block, and the bytes stay printf's."""
    rng = np.random.default_rng(11)
    n = 2 * _CSV_BLOCK + 5
    trace = make_trace(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 5, n),
                       np.arange(n) * 2.5e-6, rng)
    trace.i_batt = trace.i_l
    calls = []
    general9 = _trace_csv._general9

    def counted(x):
        calls.append(len(x))
        return general9(x)

    monkeypatch.setattr(_trace_csv, "_general9", counted)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = (",".join(TRACE_COLUMNS) + "\r\n").encode()
    assert path.read_bytes() == header + printf_rows(trace)
    assert len(calls) == 6 * 3


@pytest.mark.parametrize("code", [len(MODE_NAMES), -1])
def test_unknown_mode_code_raises_key_error(code, tmp_path):
    trace = make_trace(np.ones(_CSV_BLOCK + 5))
    trace.mode[-1] = code
    path = tmp_path / "trace.csv"
    with pytest.raises(KeyError):
        trace.to_csv(path)
    assert list(tmp_path.iterdir()) == []


def test_min_row_bytes_is_the_shortest_row():
    """The disk bound's row is the ROW format's shortest: every value 0
    and the shortest mode name."""
    rows = [ROW % tuple(mode if fmt == "%s" else 0 for _, _, fmt in _TRACE_FORMAT)
            for mode in MODE_NAMES.values()]
    assert _trace_csv.MIN_ROW_BYTES == min(len(row.encode()) for row in rows)
