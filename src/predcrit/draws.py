"""Numerically stable primitives over posterior-draw matrices.

The central object is a matrix of pointwise log densities, S draws by n
data points, with entry (s, i) = log p(y_i | theta^s) in nats. This module
validates and reads it, and holds the blocked reductions the rest
build on: column sums over blocks of draws, the log-mean-exp of each
column (lppd) and the merging of running moments. The criteria's own
passes over the matrix live in `criteria.criterion_report`.

All reductions run in a fixed left-to-right order over the canonical
index ordering, so results are bit-reproducible for a given matrix on a
given platform.
"""
from __future__ import annotations

import csv
import io
import math
import mmap
import os
import signal
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MatrixFormatError, NonFiniteLogLikError

__all__ = [
    "PointwiseLogLikMatrix",
    "log_mean_exp",
    "mc_standard_error",
    "lppd",
    "read_loglik_csv",
]


@dataclass(frozen=True)
class PointwiseLogLikMatrix:
    """S x n matrix of pointwise log densities, validated at construction.

    Every entry must be finite: NaN and +inf are nonsensical, and -inf
    (a zero-probability observation) would make lppd and every derived
    comparison -inf, so it is rejected here with the offending index
    rather than propagated.

    The values keep the layout they are given, and no copy is made here.
    Validation and the criteria read the matrix in blocks of consecutive
    draws and allocate nothing of its size, so a row-major matrix needs
    no `np.asfortranarray`. The models write theirs column-major (Fortran
    order), as their matrices are tall and narrow.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise MatrixFormatError(
                f"draw matrix must be 2-dimensional, got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise MatrixFormatError(
                f"draw matrix must have at least one draw and one point, got shape {arr.shape}"
            )
        _require_finite_loglik(arr)
        object.__setattr__(self, "values", arr)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]

    def row_totals(self) -> np.ndarray:
        """Per-draw total log likelihood, sum over points. A total that
        overflows is refused with NonFiniteLogLikError naming its draw."""
        with np.errstate(over="ignore", invalid="ignore"):
            totals = self.values.sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(totals))
        if bad.size:
            _require_finite_fields({f"the total of draw {bad[0]}": float(totals[bad[0]])})
        return totals


# Bytes of log densities in one block of draws. A block's ratios, deviations
# and squares then stay in a core's cache between the passes over them.
_BLOCK_BYTES = 256 * 1024


def _row_blocks(values: np.ndarray):
    """(first draw, block) for runs of consecutive draws of `values`, each
    at most _BLOCK_BYTES and at least one draw."""
    rows = max(1, _BLOCK_BYTES // values[:1].nbytes)
    for start in range(0, values.shape[0], rows):
        yield start, values[start:start + rows]


def _column_sums(values: np.ndarray, fill) -> np.ndarray:
    """Sum over all draws of what fill(first draw, block, out) writes into
    `out`, an array the shape of `block`.

    Every block is written below row 0 of one reused (rows + 1) x n buffer,
    and row 0 carries the running sum into the block's own reduction. A
    sum over axis 0 of a row-major buffer adds its rows in order, so on a
    row-major matrix each column is summed in draw order, bit for bit as
    one reduction over the whole matrix. The buffer takes the layout of
    `values`; on a column-major matrix each block's column is summed
    pairwise, which differs from a whole-column sum at the ulp level
    unless the matrix is one block: the first block is summed alone.
    """
    buf = None
    for start, block in _row_blocks(values):
        k = len(block)
        if buf is None:
            buf = np.empty_like(values, shape=(k + 1, values.shape[1]))
        fill(start, block, buf[1:k + 1])
        buf[0] = buf[1 if start == 0 else 0:k + 1].sum(axis=0)
    return buf[0].copy()


def _require_finite_loglik(values: np.ndarray, first_point: int = 0) -> None:
    """Refuse S x k log densities of points `first_point`.. holding NaN or
    inf, naming the first bad cell in draw-then-point order."""
    # NaN and inf carry into a sum, so a finite total clears the matrix
    # without a temporary; any other total (or an overflow) is settled by
    # the blocks
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(values.sum()):
            return
    for start, block in _row_blocks(values):
        finite = np.isfinite(block)
        if not finite.all():
            s, i = np.argwhere(~finite)[0]
            raise NonFiniteLogLikError(
                f"non-finite log density at draw {start + s}, point {i + first_point}: {block[s, i]}"
            )


def _require_finite_fields(fields: dict, source: str = "the log densities") -> None:
    """Refuse a result whose float fields hold NaN or inf, naming the first
    and the `source` whose values overflowed."""
    for name, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NonFiniteLogLikError(f"{name} is {value}: {source} overflow double precision")


def _draw_column(column, least: int = 1) -> np.ndarray:
    """`column` as a float array, refused unless 1-dimensional, at least `least` long and finite."""
    col = np.asarray(column, dtype=float)
    if col.ndim != 1:
        raise ValueError(f"draw column must be 1-dimensional, got shape {col.shape}")
    _require_finite_loglik(col[:, None])
    if col.size < least:
        raise ValueError("empty draw column" if least == 1 else f"variance requires at least {least} draws")
    return col


def log_mean_exp(column) -> float:
    """log( (1/S) sum_s exp(a_s) ) of a 1-dimensional column of S draws:
    lppd of the one-column matrix, bit for bit.

    The shift by the column maximum makes constant columns exact at any
    magnitude and keeps every exponential at most 1; a draw more than the
    float range below the maximum gives exp(-inf) = 0, without a warning.
    """
    col = _draw_column(column)
    with np.errstate(over="ignore"):
        return float(_log_mean_exp_columns(col[:, None])[0][0])


def mc_standard_error(column) -> float:
    """Monte Carlo standard error of the mean of a 1-dimensional column,
    sqrt(var / S)."""
    col = _draw_column(column, least=2)
    return float(math.sqrt(col.var(ddof=1) / col.size))


def _shifted_exp(block: np.ndarray, shift: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(block - shift), written into `out`."""
    np.subtract(block, shift, out=out)
    return np.exp(out, out=out)


def _log_mean_exp_columns(vals: np.ndarray):
    """(lme, shift, w_bar) per column: lme = shift + log(w_bar), where shift
    is the column maximum and w_bar the column mean of exp(vals - shift)."""
    shift = vals.max(axis=0)
    w_bar = _column_sums(vals, lambda start, block, out: _shifted_exp(block, shift, out))
    w_bar /= vals.shape[0]
    return shift + np.log(w_bar), shift, w_bar


def lppd(m: PointwiseLogLikMatrix) -> float:
    """Log pointwise predictive density: sum over points of log_mean_exp.

    Deterministic given the matrix; columns are reduced in index order.
    """
    # a - max may overflow to -inf (see log_mean_exp); an overflowing total is refused, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(_log_mean_exp_columns(m.values)[0].sum())
    _require_finite_fields({"lppd": total})
    return total


def _merge_moments(moments: np.ndarray, count: int, block: np.ndarray) -> None:
    """Fold the columns of `block` (one row per series) into the running
    mean and sum of squared deviations, moments[0] and moments[1], of the
    `count` values of each series merged so far (Chan, Golub & LeVeque,
    1979). `block` is overwritten."""
    k = block.shape[1]
    total = count + k
    block_mean = block.sum(axis=1) / k
    block -= block_mean[:, None]
    block *= block
    delta = block_mean - moments[0]
    moments[0] += delta * (k / total)
    moments[1] += block.sum(axis=1) + delta * delta * (count * k / total)


def _is_path(source) -> bool:
    return isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")


class _PathText(io.TextIOWrapper):
    """A UTF-8 text stream the readers opened from a path: its body may be
    parsed by forked processes (_parse_body_forked), a caller's stream never."""


def _open_path(path) -> _PathText:
    return _PathText(open(path, "rb"), encoding="utf-8", newline="")


def _csv_rows(stream, first: int = 0):
    """The rows of a CSV text stream, read a line at a time, so the stream
    stops at the end of the last row taken: every cell stripped of
    surrounding whitespace, rows whose cells are all blank dropped.

    A row the csv module cannot split (a cell over its field-size limit, a
    bare CR line end in a stream not opened with newline="") raises a
    MatrixFormatError naming it, rows numbered from `first`, blank rows
    not counted."""
    number = first
    try:
        for row in csv.reader(iter(stream.readline, "")):
            row = [cell.strip() for cell in row]
            if any(row):
                yield row
                number += 1
    except csv.Error as err:
        raise MatrixFormatError(f"row {number} is not valid CSV: {err}") from None


def _require_finite(values: np.ndarray, name: str) -> np.ndarray:
    """`values`, unless one is NaN or infinite: then a ValueError naming it."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")
    return values


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise MatrixFormatError(
            f"cell at row {row}, column {col} is not a number: {text!r}"
        ) from None


def _is_numeric_row(cells: list[str]) -> bool:
    try:
        [float(c) for c in cells]
    except ValueError:
        return False
    return True


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _loadtxt(stream, labels: int) -> np.ndarray:
    """numpy's parse of the CSV text `stream`: a 2-dimensional float array,
    one row per line, the first `labels` columns read as 0."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(stream, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float,
                          converters=dict.fromkeys(range(labels), lambda cell: 0.0))


# Bytes of CSV body each process forked to parse a path gets at least.
# Forking and reaping a child took about 3 ms on a 2-CPU x86 host, a fifth
# of numpy's time to parse this many bytes there.
_WORKER_MIN_BYTES = 1 << 20
# Bytes of CSV text a process hands to numpy's parser at a time, cut at a
# line end, so the text and its rows stay small beside the table: reading a
# 40 MB file, the parent peaked at 1.04 times the table at this size, 1.12
# at 1 MiB.
_PARSE_CHUNK_BYTES = 1 << 17


def _line_runs(fd: int, start: int, end: int, parts: int):
    """([start, cut_1, ..., end], [0, rows before cut_1, ..., all rows]):
    bytes start..end of the file `fd` split into at most `parts` runs of
    whole lines, each cut just after the first newline at or past its share,
    with the lines before each cut; a last line without a newline counts."""
    targets = [start + k * (end - start) // parts for k in range(1, parts)]
    cuts, rows = [start], [0]
    lines, pos, piece = 0, start, b"\n"
    while pos < end:
        piece = os.pread(fd, min(_PARSE_CHUNK_BYTES, end - pos), pos)
        if not piece:
            break  # the file shrank; parsing its runs will fail
        seen = 0
        while targets:
            cut = piece.find(b"\n", max(targets[0] - pos, seen)) + 1
            if not cut:
                break  # the line ends in a later piece
            lines += piece.count(b"\n", seen, cut)
            seen = cut
            cuts.append(pos + cut)
            rows.append(lines)
            del targets[0]
        lines += piece.count(b"\n", seen)
        pos += len(piece)
    if cuts[-1] < end:
        cuts.append(end)
        rows.append(lines + (not piece.endswith(b"\n")))
    return cuts, rows


def _parse_lines(fd: int, start: int, end: int, out: np.ndarray, width: int, labels: int) -> bool:
    """Parse the lines in bytes start..end of the file `fd` into `out`,
    _PARSE_CHUNK_BYTES of whole lines at a time: True if each line gave one
    row of `width` cells, which fill one row of `out` after the `labels`."""
    row, size = 0, _PARSE_CHUNK_BYTES
    while start < end:
        want = min(size, end - start)
        piece = os.pread(fd, want, start)
        if len(piece) < want:
            return False  # the file shrank
        cut = want if start + want == end else piece.rfind(b"\n") + 1
        if not cut:  # a line longer than the piece
            size *= 2
            continue
        size = _PARSE_CHUNK_BYTES
        text = piece[:cut].decode("utf-8")
        lines = text.count("\n") + (not text.endswith("\n"))
        data = _loadtxt(io.StringIO(text, newline=""), labels)
        if data.shape != (lines, width):
            return False
        out[row:row + lines] = data[:, labels:]
        row += lines
        start += cut
    return row == len(out)


def _parse_body_forked(fd: int, body: int, width: int, labels: int) -> np.ndarray | None:
    """The table in bytes `body`.. of the file `fd`, parsed by one process
    per CPU, or None when it is read by one process.

    The body is split into runs of whole lines, one per process, and the
    table is one anonymous shared mapping. Each process parses its run with
    _loadtxt and writes its rows in place, so every cell is the one a single
    parse gives. A run that does not read one row of `width` cells per line
    (blank or ragged rows, a bare CR line end, a quoted newline, a cell
    numpy refuses) or a child that fails makes the answer None, as do one
    CPU, a body below two runs of _WORKER_MIN_BYTES, no os.fork, and other
    Python threads, whose locks a child could inherit held.
    """
    size = os.fstat(fd).st_size
    parts = min(_available_cpus(), (size - body) // _WORKER_MIN_BYTES)
    if parts < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    cuts, rows = _line_runs(fd, body, size, parts)
    # a row of `width` cells takes a byte for each, and for each comma or newline after one
    if rows[-1] * (2 * width - labels) > size - body + 1:
        return None
    table = np.frombuffer(mmap.mmap(-1, rows[-1] * (width - labels) * 8), dtype=float)
    table = table.reshape(rows[-1], width - labels)
    pids, ok = [], False
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of a fork beside any OS thread; those left here
            # are numpy's BLAS pool, which stops across a fork, and a warning
            # raised as an error would leave the forked child unreaped
            warnings.simplefilter("ignore", DeprecationWarning)
            for k in range(1, len(cuts) - 1):
                pid = os.fork()
                if pid == 0:
                    try:
                        ok = _parse_lines(fd, cuts[k], cuts[k + 1], table[rows[k]:rows[k + 1]], width, labels)
                    finally:
                        os._exit(0 if ok else 1)
                pids.append(pid)
        ok = _parse_lines(fd, cuts[0], cuts[1], table[:rows[1]], width, labels)
    except (OSError, ValueError):  # a failed fork or read, text numpy refuses, a run grown since its count
        ok = False
    finally:
        for pid in pids:
            if not ok:
                os.kill(pid, signal.SIGKILL)
            ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 and ok
    return table if ok else None


def _read_table(source, header, what: str, rows: str, *, labels: int = 0,
                optional: bool = False) -> np.ndarray:
    """The numbers of a CSV table: one array row per body row, one column
    per column after the first `labels`, which hold labels and are not read.

    `source` is a path or a text stream. `header` is the list of column
    names, or a prefix p naming the columns p1, p2, ... of whatever width
    the first row has. The header row is required unless `optional`, when a
    first row that reads as numbers is the first body row instead. Every
    row must be as wide as the first. The first bad row or cell is named,
    rows counted from 0 with the header, blank rows not counted (they are
    dropped, see _csv_rows). The messages call the file `what` and its body
    rows `rows`.

    The body is streamed through numpy's parser, which converts every cell
    it accepts as Python's float() does; a path's body may be parsed by one
    process per CPU (_parse_body_forked), cell for cell the same. A body
    numpy refuses, or reads with no rows or the wrong width, is read again
    row by row, which accepts the rest of the format and words every error.
    """
    if _is_path(source):
        with _open_path(source) as fh:
            return _read_table(fh, header, what, rows, labels=labels, optional=optional)
    if not source.seekable():  # a pipe, say, even when given by a path
        source = io.StringIO(source.read())
    top = source.tell()
    if source.read(1) != "\ufeff":  # a leading UTF-8 byte-order mark is skipped
        source.seek(top)
    top = source.tell()
    first = next(_csv_rows(source), None)
    if first is None:
        raise MatrixFormatError(f"empty {what} file")
    numeric = optional and _is_numeric_row(first)
    expected = [f"{header}{j + 1}" for j in range(len(first))] if isinstance(header, str) else list(header)
    if not numeric and first != expected:
        raise MatrixFormatError(
            f"header row must be {','.join(expected)}, got {','.join(first)}"
        )
    if numeric:
        source.seek(top)
    body = source.tell()  # of a UTF-8 file, its byte offset
    width = len(first)
    if isinstance(source, _PathText):
        data = _parse_body_forked(source.fileno(), body, width, labels)
        if data is not None:
            return data
    try:
        data = _loadtxt(source, labels)
    except ValueError:
        pass
    else:
        if len(data) and data.shape[1] == width:
            return data[:, labels:]

    source.seek(body)
    offset = 0 if numeric else 1
    table = list(_csv_rows(source, offset))
    if not table:
        raise MatrixFormatError(f"{what} file has a header but no {rows}")
    data = np.empty((len(table), width - labels), dtype=float)
    for r, row in enumerate(table, start=offset):
        if len(row) != width:
            raise MatrixFormatError(f"row {r} has {len(row)} cells, expected {width}")
        for c in range(labels, width):
            if not row[c]:
                raise MatrixFormatError(f"missing cell at row {r}, column {c}")
            data[r - offset, c - labels] = _parse_cell(row[c], r, c)
    return data


def read_loglik_csv(source) -> PointwiseLogLikMatrix:
    """Read a draw matrix from CSV: one row per draw, one column per point.

    `source` is a path or a text stream. An optional single header row
    `point_1,...,point_n` is allowed; rows whose cells are all blank are
    skipped and cells may be quoted or padded with whitespace. Rows must be
    rectangular with no missing cells. Structural problems raise
    MatrixFormatError naming the first bad row and column; non-finite
    entries raise NonFiniteLogLikError. See _read_table for how the file is
    parsed.
    """
    if _is_path(source):
        with _open_path(source) as fh:
            # calls itself, not _read_table: perfbench's tracer counts two read spans for each path read
            return read_loglik_csv(fh)
    return PointwiseLogLikMatrix(_read_table(source, "point_", "draw-matrix", "draws", optional=True))
