"""Numerically stable primitives over posterior-draw matrices.

The central object is a matrix of pointwise log densities, S draws by n
data points, with entry (s, i) = log p(y_i | theta^s) in nats. Everything
downstream (information criteria, cross-validation summaries) reduces to
a handful of column and row reductions defined here.

All reductions run in a fixed left-to-right order over the canonical
index ordering, so results are bit-reproducible for a given matrix on a
given platform.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MatrixFormatError, NonFiniteLogLikError

__all__ = [
    "PointwiseLogLikMatrix",
    "ColumnSummary",
    "log_mean_exp",
    "sample_variance",
    "mc_standard_error",
    "lppd",
    "lppd_mc_se",
    "mean_total_loglik",
    "column_summary",
    "read_loglik_csv",
    "write_loglik_csv",
]


@dataclass(frozen=True)
class PointwiseLogLikMatrix:
    """S x n matrix of pointwise log densities, validated at construction.

    Every entry must be finite: NaN and +inf are nonsensical, and -inf
    (a zero-probability observation) would make lppd and every derived
    comparison -inf, so it is rejected here with the offending index
    rather than propagated.
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
        bad = ~np.isfinite(arr)
        if bad.any():
            s, i = np.argwhere(bad)[0]
            raise NonFiniteLogLikError(
                f"non-finite log density at draw {s}, point {i}: {arr[s, i]}"
            )
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
        """Per-draw total log likelihood, sum over points."""
        return self.values.sum(axis=1)


@dataclass(frozen=True)
class ColumnSummary:
    """The three per-point reductions shared by lppd and both WAIC penalties."""

    log_mean: float
    mean_log: float
    var_log: float


def _as_column(column) -> np.ndarray:
    col = np.asarray(column, dtype=float)
    if col.ndim != 1:
        col = col.reshape(-1)
    if col.size == 0:
        raise ValueError("empty draw column")
    if not np.isfinite(col).all():
        raise NonFiniteLogLikError("non-finite log density in draw column")
    return col


def log_mean_exp(column) -> float:
    """log( (1/S) sum_s exp(a_s) ), shifted by the column maximum.

    The shift makes constant columns exact at any magnitude and prevents
    overflow for entries up to around 700 + log(max magnitude headroom);
    inputs with |a_s| up to 1e6 are safe.
    """
    col = _as_column(column)
    m = col.max()
    return float(m + math.log(np.exp(col - m).mean()))


def sample_variance(column) -> float:
    """Unbiased sample variance with divisor S - 1."""
    col = _as_column(column)
    if col.size < 2:
        raise ValueError("variance requires at least 2 draws")
    return float(col.var(ddof=1))


def mc_standard_error(column) -> float:
    """Monte Carlo standard error of the column mean, sqrt(var / S)."""
    col = _as_column(column)
    if col.size < 2:
        raise ValueError("variance requires at least 2 draws")
    return float(math.sqrt(col.var(ddof=1) / col.size))


def column_summary(column) -> ColumnSummary:
    col = _as_column(column)
    log_mean = log_mean_exp(col)
    mean_log = float(col.mean())
    var_log = float(col.var(ddof=1)) if col.size >= 2 else 0.0
    return ColumnSummary(log_mean=log_mean, mean_log=mean_log, var_log=var_log)


def lppd(m: PointwiseLogLikMatrix) -> float:
    """Log pointwise predictive density: sum over points of log_mean_exp.

    Deterministic given the matrix; columns are reduced in index order.
    """
    vals = m.values
    shift = vals.max(axis=0)
    return float((shift + np.log(np.exp(vals - shift).mean(axis=0))).sum())


def lppd_mc_se(m: PointwiseLogLikMatrix) -> float:
    """Delta-method Monte Carlo standard error of lppd over the S draws.

    Uses the per-draw influence sum_i (exp(a_si - log_mean_i) - 1); the
    shift keeps the ratios stable at any log-density magnitude.
    """
    if m.n_draws < 2:
        raise ValueError("variance requires at least 2 draws")
    vals = m.values
    shift = vals.max(axis=0)
    lme = shift + np.log(np.exp(vals - shift).mean(axis=0))
    influence = (np.exp(vals - lme) - 1.0).sum(axis=1)
    return float(math.sqrt(influence.var(ddof=1) / m.n_draws))


def mean_total_loglik(m: PointwiseLogLikMatrix) -> float:
    """Grand mean over draws of the per-draw total log likelihood."""
    return float(m.row_totals().mean())


def _header(width: int) -> list[str]:
    return [f"point_{j + 1}" for j in range(width)]


def _is_path(source) -> bool:
    return isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")


def _csv_rows(source) -> list[list[str]]:
    """Rows of a CSV path or text stream, every cell stripped of surrounding
    whitespace, rows whose cells are all blank dropped."""
    if _is_path(source):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _csv_rows(fh)
    rows = ([cell.strip() for cell in row] for row in csv.reader(source))
    return [row for row in rows if any(row)]


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


def _load_fast(fh, start) -> np.ndarray | None:
    """The matrix from numpy's C parser, streamed from fh, or None when the
    input needs the row-by-row reader: a first line that is neither numbers
    nor point_1..point_n (blank, quoted, a bad header), or anything numpy
    refuses.

    Numpy converts each cell with the same routine as Python's float(), so
    every matrix it accepts is the one the row-by-row reader would build.
    """
    cells = [c.strip() for c in fh.readline().split(",")]
    if _is_numeric_row(cells):
        fh.seek(start)
    elif cells != _header(len(cells)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                              ndmin=2, dtype=float)
    except ValueError:
        return None
    if data.shape[0] == 0 or data.shape[1] != len(cells):
        return None
    return data


def _load_rows(fh) -> np.ndarray:
    """The row-by-row reader: the reference for what the format accepts, and
    the source of every row- and column-numbered error message."""
    rows = _csv_rows(fh)
    if not rows:
        raise MatrixFormatError("empty draw-matrix file")

    first = rows[0]
    start = 0
    if not _is_numeric_row(first):
        expected = _header(len(first))
        if first != expected:
            raise MatrixFormatError(
                f"header row must be {','.join(expected)}, got {','.join(first)}"
            )
        start = 1
    body = rows[start:]
    if not body:
        raise MatrixFormatError("draw-matrix file has a header but no draws")

    width = len(first)
    data = np.empty((len(body), width), dtype=float)
    for r, row in enumerate(body):
        if len(row) != width:
            raise MatrixFormatError(
                f"row {r + start} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            if not cell:
                raise MatrixFormatError(f"missing cell at row {r + start}, column {c}")
            data[r, c] = _parse_cell(cell, r + start, c)
    return data


def read_loglik_csv(source) -> PointwiseLogLikMatrix:
    """Read a draw matrix from CSV: one row per draw, one column per point.

    `source` is a path or a text stream. An optional single header row
    `point_1,...,point_n` is allowed; rows whose cells are all blank are
    skipped and cells may be quoted or padded with whitespace. Rows must be
    rectangular with no missing cells. Structural problems raise
    MatrixFormatError naming the first bad row and column; non-finite
    entries raise NonFiniteLogLikError.

    The file is streamed through numpy's parser, so memory stays about the
    size of the matrix; input numpy refuses is read again row by row, which
    accepts the rest of the format and words every error.
    """
    if _is_path(source):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_loglik_csv(fh)
    if not source.seekable():
        source = io.StringIO(source.read())
    start = source.tell()
    data = _load_fast(source, start)
    if data is None:
        source.seek(start)
        data = _load_rows(source)
    return PointwiseLogLikMatrix(data)


def write_loglik_csv(m: PointwiseLogLikMatrix, target, header: bool = True) -> None:
    """Write a matrix in the same CSV format read_loglik_csv accepts.

    Each value is written as repr(float), which reads back bit-identical.
    """
    if _is_path(target):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_loglik_csv(m, fh, header=header)
            return
    if header:
        target.write(",".join(_header(m.n_points)) + "\n")
    for row in m.values.tolist():
        target.write(",".join(map(repr, row)) + "\n")


def matrix_from_csv_text(text: str) -> PointwiseLogLikMatrix:
    """Convenience for tests and in-memory use."""
    return read_loglik_csv(io.StringIO(text))
