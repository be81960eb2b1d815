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
from typing import NamedTuple

import numpy as np

from .errors import MatrixFormatError, NonFiniteLogLikError

__all__ = [
    "PointwiseLogLikMatrix",
    "log_mean_exp",
    "sample_variance",
    "mc_standard_error",
    "lppd",
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

    The values keep the layout they are given. Every reduction runs over
    axis 0, the draws, and on a tall, narrow matrix that runs several
    times faster per cell when each point's draws sit next to each other
    in memory, so the models write their matrices column-major (Fortran
    order) and callers with a row-major one may pass
    `np.asfortranarray(values)`. No copy is made here: it would double
    the memory a large matrix needs.
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
        """Per-draw total log likelihood, sum over points."""
        return self.values.sum(axis=1)


def _require_finite_loglik(values: np.ndarray, first_point: int = 0) -> None:
    """Refuse S x k log densities of points `first_point`.. holding NaN or inf."""
    bad = ~np.isfinite(values)
    if bad.any():
        s, i = np.argwhere(bad)[0]
        raise NonFiniteLogLikError(f"non-finite log density at draw {s}, point {i + first_point}: {values[s, i]}")


def _as_column(column) -> np.ndarray:
    col = np.asarray(column, dtype=float)
    if col.ndim != 1:
        col = col.reshape(-1)
    if col.size == 0:
        raise ValueError("empty draw column")
    if not np.isfinite(col).all():
        raise NonFiniteLogLikError("non-finite log density in draw column")
    return col


def _log_mean_exp(vals: np.ndarray, out: np.ndarray | None = None):
    """Log mean exp along axis 0, each column shifted by its maximum.

    Returns (lme, w, w_bar): w = exp(vals - max), written into `out` when
    one is given, and w_bar its column mean, so lme = max + log(w_bar).
    """
    shift = vals.max(axis=0)
    w = np.subtract(vals, shift, out=out)
    np.exp(w, out=w)
    w_bar = w.mean(axis=0)
    return shift + np.log(w_bar), w, w_bar


def log_mean_exp(column) -> float:
    """log( (1/S) sum_s exp(a_s) ), shifted by the column maximum.

    The shift makes constant columns exact at any magnitude and prevents
    overflow for entries up to around 700 + log(max magnitude headroom);
    inputs with |a_s| up to 1e6 are safe.
    """
    return float(_log_mean_exp(_as_column(column))[0])


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


def lppd(m: PointwiseLogLikMatrix) -> float:
    """Log pointwise predictive density: sum over points of log_mean_exp.

    Deterministic given the matrix; columns are reduced in index order.
    """
    return float(_log_mean_exp(m.values)[0].sum())


class _ColumnPass(NamedTuple):
    """The column-sum criteria of one matrix, and the per-draw sums every
    Monte Carlo error of them is a variance of (ratio_i = exp(a_i - lme_i),
    dev_i = a_i - mean_i)."""

    lppd: float
    p_waic1: float
    p_waic2: float | None  # None for a single draw
    ratio_sums: np.ndarray  # R_s = sum_i ratio_si
    dev_sums: np.ndarray  # D_s = sum_i dev_si
    dev2_sums: np.ndarray  # Q_s = sum_i dev_si^2
    totals: np.ndarray  # T_s = sum_i a_si


def _column_pass(m: PointwiseLogLikMatrix) -> _ColumnPass:
    """Every column reduction of the criteria in one pass over the matrix.

    One S x n working buffer holds first the ratios, then the deviations,
    then their squares. The deviations are centred per column rather than
    taken from the totals, so D and Q stay accurate at any magnitude of
    the log densities.
    """
    vals = m.values
    lme, buf, w_bar = _log_mean_exp(vals, out=np.empty_like(vals))
    buf /= w_bar
    ratio_sums = buf.sum(axis=1)
    mean = vals.mean(axis=0)
    np.subtract(vals, mean, out=buf)
    dev_sums = buf.sum(axis=1)
    np.square(buf, out=buf)
    s = m.n_draws
    return _ColumnPass(
        lppd=float(lme.sum()),
        p_waic1=float(2.0 * (lme - mean).sum()),
        p_waic2=float((buf.sum(axis=0) / (s - 1)).sum()) if s > 1 else None,
        ratio_sums=ratio_sums,
        dev_sums=dev_sums,
        dev2_sums=buf.sum(axis=1),
        totals=m.row_totals(),
    )


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


def _require_finite(values: np.ndarray, name: str) -> np.ndarray:
    """`values`, unless one is NaN or infinite: then a ValueError naming it."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"{name} values must be finite, got {bad[0]}")
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


def _write_csv(target, header, rows) -> None:
    """Write the header line (unless None), then one line per row, to a
    path or a text stream. Rows are iterables of cell strings, joined with
    commas as given: no cell needs quoting."""
    if _is_path(target):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, header, rows)
            return
    if header is not None:
        target.write(",".join(header) + "\n")
    for row in rows:
        target.write(",".join(row) + "\n")


def write_loglik_csv(m: PointwiseLogLikMatrix, target, header: bool = True) -> None:
    """Write a matrix in the same CSV format read_loglik_csv accepts.

    Each value is written as repr(float), which reads back bit-identical.
    """
    _write_csv(target, _header(m.n_points) if header else None,
               (map(repr, row) for row in m.values.tolist()))
