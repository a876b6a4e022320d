"""The trace CSV format: the block writer and the block reader.

The writer turns a block of rows into bytes with integer arithmetic and
digit tables, exactly as the printf formats of `sim._TRACE_FORMAT` would.
A row is a run of fields in a uint8 matrix, each filled with 4- and 8-byte
cells through strided uint32/uint64 views of it; the bytes a value does not
use stay NUL and are dropped from the whole block at once.  A float becomes
one int64, its rounded magnitude times 10^9 (%.9f) or times 10^12 (%.9g,
nine significant digits), which splits into an integer part and groups of
four decimals.  The rounding is float64 `rint` of the scaled value, taken
only where that value lies farther from a .5 tie than the scaling's
rounding error; any other element, and every value outside the ranges
these paths cover, is formatted by printf into its field.  A %.9g column
that repeats values bit for bit is formatted once per run of them.

The reader parses blocks of `sim._READ_BLOCK` rows with `np.loadtxt` and
checks every row, in the order a reader of the whole file would.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import warnings

import numpy as np

from . import sim
from .sim import _CSV_BLOCK, _MODE_CODE, _TRACE_FORMAT, MODE_NAMES, TRACE_COLUMNS, Trace

# Reading: a parsed row holds the float columns first, in TRACE_COLUMNS
# order, so that one strided view (`_FLOAT_VIEW`) holds them all; then the
# mode as bytes one wider than the longest mode name (discharging), so that
# a longer name cannot match a mode once cut to that width: 12 bytes, which
# `_MODE_VIEW` reads as an 8-byte head and a 4-byte tail; then the gates.
_FLOATS = [name for name, dtype, _ in _TRACE_FORMAT if dtype == np.float64]
_MODE_AT = 8 * len(_FLOATS)
_FIELDS = {**{name: (np.float64, 8 * i) for i, name in enumerate(_FLOATS)},
           "mode": (f"S{max(map(len, _MODE_CODE)) + 1}", _MODE_AT),
           "s1": (np.bool_, _MODE_AT + 12), "s2": (np.bool_, _MODE_AT + 13)}


def _row_view(**fields) -> np.dtype:
    """A dtype of a parsed row's size, 8-aligned, with these (format,
    offset) fields."""
    return np.dtype({"names": list(fields), "formats": [f for f, _ in fields.values()],
                     "offsets": [at for _, at in fields.values()], "itemsize": _MODE_AT + 16})


_READ_DTYPE = _row_view(**{name: _FIELDS[name] for name in TRACE_COLUMNS})
_FLOAT_VIEW = _row_view(floats=((np.float64, len(_FLOATS)), 0))
_MODE_VIEW = _row_view(head=("<u8", _MODE_AT), tail=("<u4", _MODE_AT + 8))
# Each mode name's code, head and tail.
_MODE_WORDS = list(zip(_MODE_CODE.values(), np.array(list(_MODE_CODE), _FIELDS["mode"][0])
                       .view([("head", "<u8"), ("tail", "<u4")]).tolist()))
# The fewest bytes a row takes: every value 0, the shortest mode name.
MIN_ROW_BYTES = len("0.000000000,0,0,0,0,0,0,,0,0,0\r\n") + min(map(len, _MODE_CODE))


@functools.cache
def _csv_tables() -> dict:
    """Cell tables of the CSV writer, built on the first write."""
    quad = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
            + ord("0")).astype(np.uint8)                    # "0000" .. "9999"
    zero = quad == ord("0")
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(zero, axis=1)
    leading[:, 3] = False
    integer = np.where(leading, 0, quad)[:1001]             # "0" .. "1000"
    # %.9g head "," sign integer "."; index ip + 1001 (2 negative + fraction).
    g_head = np.zeros((2, 2, 1001, 8), np.uint8)
    g_head[..., 0] = ord(",")
    g_head[1, ..., 1] = ord("-")
    g_head[..., 2:6] = integer
    g_head[:, 1, :, 6] = ord(".")
    # %.9f head: integer "." first decimal; index 10 ip + first decimal.
    t_head = np.zeros((1001, 10, 8), np.uint8)
    t_head[..., :4] = integer[:, None]
    t_head[..., 4] = ord(".")
    t_head[..., 5] = np.arange(10) + ord("0")
    # Four decimals: index g without trailing zeros (the last group printed),
    # 10^4 + g in full (a group before it).
    group = np.concatenate([np.where(trailing, 0, quad), quad])
    mode = np.zeros((len(MODE_NAMES), 12), np.uint8)      # 8 + 4 bytes
    for code, name in MODE_NAMES.items():
        mode[code, :len(name) + 1] = np.frombuffer(f",{name}".encode(), np.uint8)
    tail = np.zeros((2, 2, 8), np.uint8)                    # ",s1,s2\r\n"
    tail[...] = np.frombuffer(b",0,0\r\n\0\0", np.uint8)
    tail[1, :, 1] = tail[:, 1, 3] = ord("1")
    return {"g_head": g_head.view(np.uint64).ravel(), "t_head": t_head.view(np.uint64).ravel(),
            "group": group.view(np.uint32).ravel(), "tail": tail.view(np.uint64).ravel(),
            "mode": (mode[:, :8].copy().view(np.uint64).ravel(),
                     mode[:, 8:].copy().view(np.uint32).ravel())}


def _fixed9(t: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """'%.9f' cells of t (16 bytes), and the mask of rows they hold for."""
    tab = _csv_tables()
    ok = (t >= 0.0) & (t < 1e3) & ~np.signbit(t)
    y = np.where(ok, t, 0.0) * 1e9
    n = np.rint(y)
    ok &= np.abs(y - n) < 0.5 - 2.0 ** -14          # y < 2^40: error <= 2^-14
    n = n.astype(np.int64)
    head = n // 10 ** 8
    rest = n - head * 10 ** 8
    hi = rest // 10 ** 4
    full = tab["group"][10 ** 4:]
    return ok, [tab["t_head"][head], full[hi], full[rest - hi * 10 ** 4]]


# By decade e = -5 .. 3 of |x|, index e + 5: 10^(8 - e) and 10^(e + 4).  The
# decades outside -4 .. 2 take their neighbour's scale, so y leaves [10^8, 10^9).
_SCALE = 10.0 ** np.array([12, 12, 11, 10, 9, 8, 7, 6, 6])
_SCALE_BACK = 10 ** np.array([0, 0, 1, 2, 3, 4, 5, 6, 6], dtype=np.int64)


def _general9(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """',%.9g' cells of x (20 bytes), and the mask of elements they hold
    for: zeros, and values printed in fixed notation below 1000."""
    tab = _csv_tables()
    a = np.fmin(np.abs(x), 1e3)                     # nan, inf -> 1e3
    # The decade of |x|, plus 5.  Rounding in log10 or in the sum may put a
    # value next to a power of ten in the decade beside its own; y then
    # leaves [10^8, 10^9), or rounds to 10^8 from just below, which is the
    # value its own decade gives.
    e = (np.log10(np.fmax(a, 1e-5)) + 5.0).astype(np.intp)
    y = a * _SCALE[e]
    m = np.rint(y)
    ok = (y >= 1e8) & (y < 1e9) & (np.abs(y - m) < 0.5 - 2.0 ** -24)   # y < 2^30: error <= 2^-24
    m[~ok] = 0.0                                    # keeps the table indices in range
    n = m.astype(np.int64) * _SCALE_BACK[e]         # rounded |x| times 10^12
    ip = n // 10 ** 12
    frac = n - ip * 10 ** 12
    g1 = frac // 10 ** 8
    rest = frac - g1 * 10 ** 8
    g2 = rest // 10 ** 4
    g3 = rest - g2 * 10 ** 4
    head = ip + 1001 * (2 * np.signbit(x) + (frac != 0))
    group = tab["group"]
    return ok | (a == 0.0), [tab["g_head"][head], group[g1 + 10 ** 4 * (rest != 0)],
                              group[g2 + 10 ** 4 * (g3 != 0)], group[g3]]


def _general9_runs(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """`_general9` of x, formatting each run of bit-identical values once
    where fewer than a quarter of the values start a run (a column that
    changes once a period, or never): at a quarter both ways took the same
    time on 8192 values, at half the runs took 40% longer.  Through the
    int64 view, 0.0 and -0.0 differ, and so do NaNs of different bits."""
    bits = x.view(np.int64)
    change = bits[1:] != bits[:-1]
    if 4 * np.count_nonzero(change) >= len(x):
        return _general9(x)
    starts = np.flatnonzero(change) + 1
    counts = np.diff(starts, prepend=0, append=len(x))
    ok, cells = _general9(x[np.append(0, starts)])
    return np.repeat(ok, counts), [np.repeat(c, counts) for c in cells]


def csv_block(trace: Trace, a: int, b: int) -> bytes:
    """Rows a:b of the trace CSV.  An unknown mode code raises KeyError."""
    tab = _csv_tables()
    col = {name: trace.column(name)[a:b] for name in TRACE_COLUMNS}
    mode = col["mode"]
    known = (mode >= 0) & (mode < len(MODE_NAMES))     # the codes are 0, 1, ...
    if not known.all():
        raise KeyError(mode[~known][0].item())
    s1, s2 = col["s1"], col["s2"]
    bits = ((s1 == 0) | (s1 == 1)) & ((s2 == 0) | (s2 == 1))
    # Per field: the rows its cells hold for, the cells, and the printf format
    # and columns of the other rows.  s1 and s2 share one field.
    fields = []
    general = {}  # %.9g cells by column array: a run's i_batt is its i_l
    for name, _, fmt in _TRACE_FORMAT:
        if fmt == "%.9f":
            x = np.asarray(col[name], np.float64)
            fields.append((*_fixed9(x), b"%.9f", (name,)))
        elif fmt == "%.9g":
            key = id(trace.column(name))
            general[key] = general.get(key) or _general9_runs(np.asarray(col[name], np.float64))
            fields.append((*general[key], b",%.9g", (name,)))
        elif name == "mode":
            code = mode.astype(np.intp)
            fields.append((known, [cells[code] for cells in tab["mode"]], b"", ()))  # all rows
    fields.append((bits, [tab["tail"][np.where(bits, 2 * s1 + s2, 0).astype(np.intp)]],
                   b",%d,%d\r\n", ("s1", "s2")))
    layout = []
    width = 0
    for ok, cells, fmt, names in fields:
        rows = np.flatnonzero(~ok)
        text = [fmt % v for v in zip(*(col[name][rows].tolist() for name in names))]
        w = max([sum(c.itemsize for c in cells), *map(len, text)])
        layout.append((width, w, cells, rows, text))
        width += w
    out = np.zeros((len(mode), width), np.uint8)
    for off, w, cells, rows, text in layout:
        at = off
        for c in cells:   # a strided view of the cell's bytes in every row
            np.ndarray(len(c), c.dtype, out, at, (width,))[:] = c
            at += c.itemsize
        if text:
            out[rows, off:off + w] = np.array(text, f"S{w}").view(np.uint8).reshape(-1, w)
    return out.tobytes().translate(None, b"\0")


def write_csv(path, blocks) -> None:
    """Write a trace CSV from `blocks`, consecutive Traces of its rows, each
    written before the next is drawn, into a temporary file that is renamed
    onto `path` after the last.  Whatever raises, the source of the blocks
    included, removes the temporary file and leaves `path` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(",".join(TRACE_COLUMNS).encode() + b"\r\n")
            for block in blocks:
                for a in range(0, len(block), _CSV_BLOCK):
                    fh.write(csv_block(block, a, a + _CSV_BLOCK))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_blocks(path):
    """The rows of a trace CSV in blocks of `sim._READ_BLOCK` rows, each a
    Trace whose columns are views of the parsed block, with no meters,
    valid until the next is drawn.  Errors raise ValueError in the order a reader
    of the whole file meets them: a malformed row with the path and numpy's
    row and column, counted from the first data row, and an unknown mode
    with the path and the file line, in the block that holds it; once every
    row is parsed, a non-finite value with the path, the file line and the
    first column in TRACE_COLUMNS order that holds one, then a time below
    the time of the row before it."""
    bad = {}            # per float column, its first non-finite row and value
    back = None         # the first row whose time is below its predecessor's
    last = -math.inf    # the time of the row before the block
    n = 0
    width = sim._READ_BLOCK
    with open(path, "rb") as fh:
        header = fh.readline().decode(errors="replace").rstrip("\r\n")
        if tuple(header.split(",")) != TRACE_COLUMNS:
            raise ValueError(f"{path}: not a trace CSV (unexpected header)")
        while True:
            with warnings.catch_warnings():
                # A header-only file, a last block that ends the file or a
                # blank line (which a block does not count as a row) is no
                # warning.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
                try:
                    rows = np.loadtxt(fh, dtype=_READ_DTYPE, delimiter=",", comments=None,
                                      ndmin=1, max_rows=width)
                except ValueError as exc:
                    message = re.sub(r"at row (\d+)",
                                     lambda m: f"at row {int(m[1]) + n}", str(exc))
                    raise ValueError(f"{path}: {message}") from exc
            # One pass per check: the mode's head and tail, as integers,
            # against the row before, and each run of them against each
            # name's; one sum of the float columns; each time against the
            # one before.
            words = rows.view(_MODE_VIEW)
            head, tail = words["head"], words["tail"]
            change = np.ones(len(rows), bool)
            np.not_equal(head[1:], head[:-1], out=change[1:])
            change[1:] |= tail[1:] != tail[:-1]
            starts = np.flatnonzero(change)
            runs = np.full(len(starts), -1, np.int8)
            for code, (name_head, name_tail) in _MODE_WORDS:
                runs[(head[starts] == name_head) & (tail[starts] == name_tail)] = code
            if (runs < 0).any():
                i = int(starts[np.argmax(runs < 0)])
                raise ValueError(f"{path}: line {_file_line(path, n + i)}: "
                                 f"mode {rows['mode'][i].decode(errors='replace')!r} is not "
                                 f"one of {', '.join(_MODE_CODE)}")
            # A non-finite value makes the sum non-finite (inf - inf is nan);
            # a sum that only overflows sends the block to the loop, which
            # then finds nothing.
            with np.errstate(over="ignore", invalid="ignore"):
                total = rows.view(_FLOAT_VIEW)["floats"].sum()
            if not math.isfinite(total):
                for name in _FLOATS:        # name each column's first, once
                    if name not in bad:
                        finite = np.isfinite(rows[name])
                        if not finite.all():
                            i = int(np.argmin(finite))
                            bad[name] = (n + i, rows[name][i])
            time = rows["time"]
            if back is None and len(rows):
                down = np.flatnonzero(time[1:] < time[:-1])
                back = (n if time[0] < last else n + 1 + int(down[0]) if len(down)
                        else None)
                last = time[-1]
            codes = np.repeat(runs, np.diff(starts, append=len(rows)))
            yield Trace(**{name: codes if name == "mode" else rows[name]
                           for name in TRACE_COLUMNS})
            n += len(rows)
            if len(rows) < width:
                break
    for name in TRACE_COLUMNS:
        if name in bad:
            row, value = bad[name]
            raise ValueError(f"{path}: line {_file_line(path, row)}: {name} is {value}, "
                             f"not finite")
    if back is not None:
        raise ValueError(f"{path}: line {_file_line(path, back)}: time "
                         f"decreases from the line before")


def _file_line(path, row: int) -> int:
    """The file line, from 1 at the header, of data row `row`, from 0;
    np.loadtxt skips empty lines, so they are counted here."""
    with open(path, "rb") as fh:
        lines = enumerate(fh, 1)
        next(lines)
        data = (line_no for line_no, line in lines if line.rstrip(b"\r\n"))
        return next(itertools.islice(data, row, None))
