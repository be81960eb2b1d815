import csv
import io
import math
import os
import threading
import warnings
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from predcrit import cli, draws
from predcrit.criteria import criterion_report
from predcrit.draws import (
    _BLOCK_BYTES,
    PointwiseLogLikMatrix,
    _require_finite_loglik,
    log_mean_exp,
    lppd,
    mc_standard_error,
    read_loglik_csv,
)
from predcrit.errors import MatrixFormatError, NonFiniteLogLikError
from predcrit.models import load_balanced_csv, load_election_csv, load_schools_csv


def test_log_mean_exp_constant_column_is_fixed_point():
    assert log_mean_exp([-1.0, -1.0, -1.0]) == -1.0


def test_log_mean_exp_matches_direct_arithmetic():
    val = log_mean_exp([math.log(0.5), math.log(0.25)])
    assert val == pytest.approx(math.log(0.375), rel=1e-14)
    assert val == pytest.approx(-0.980829, abs=1e-6)


def test_log_mean_exp_huge_constant_is_exact():
    # shift-by-max makes constant columns exact at any magnitude
    assert log_mean_exp([1000.0, 1000.0]) == 1000.0
    assert log_mean_exp([-1e6, -1e6, -1e6]) == -1e6


def test_log_mean_exp_errors():
    with pytest.raises(ValueError, match="empty draw column"):
        log_mean_exp([])
    with pytest.raises(NonFiniteLogLikError, match="non-finite log density"):
        log_mean_exp([0.0, math.nan])
    with pytest.raises(NonFiniteLogLikError, match="at draw 1, point 0: -inf"):
        log_mean_exp([0.0, -math.inf])
    with pytest.raises(ValueError, match=r"1-dimensional, got shape \(2, 3\)"):
        log_mean_exp(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"1-dimensional, got shape \(\)"):
        log_mean_exp(0.0)


@pytest.mark.parametrize("draws", [1, 2, 32_768, 32_769, 100_000])
def test_log_mean_exp_is_lppd_of_the_one_column_matrix_bitwise(draws):
    rng = np.random.default_rng(draws)
    for _ in range(20):
        col = rng.normal(-2.0, 1.5, size=draws)
        assert log_mean_exp(col) == lppd(PointwiseLogLikMatrix(col[:, None]))


def test_a_column_wider_than_the_float_range_gives_its_log_mean_exp_without_a_warning():
    # -1e308 - 1e308 overflows to -inf, whose exponential is the 0 it rounds to
    col = np.array([1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_mean_exp(col) == 1e308
        assert lppd(PointwiseLogLikMatrix(col[:, None])) == 1e308


def test_an_lppd_that_overflows_is_refused_naming_lppd():
    m = PointwiseLogLikMatrix(np.full((2, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLogLikError, match="^lppd is inf: the log densities overflow"):
            lppd(m)
    with pytest.raises(NonFiniteLogLikError, match="^lppd is -inf"):
        lppd(PointwiseLogLikMatrix(np.full((2, 2), -1e308)))


def test_a_row_total_that_overflows_is_refused_naming_its_draw():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLogLikError, match="^the total of draw 0 is inf: the log densities overflow"):
            PointwiseLogLikMatrix(np.full((2, 2), 1e308)).row_totals()
        # the first draw whose total overflows is named, whichever way it overflows
        vals = np.array([[1.0, 2.0], [3.0, 4.0], [-1e308, -1e308], [1e308, 1e308]])
        with pytest.raises(NonFiniteLogLikError, match="^the total of draw 2 is -inf"):
            PointwiseLogLikMatrix(vals).row_totals()
        assert PointwiseLogLikMatrix(vals[:2]).row_totals().tolist() == [3.0, 7.0]


def test_mc_standard_error_examples():
    assert mc_standard_error([5.0, 5.0, 5.0, 5.0]) == 0.0
    assert mc_standard_error([1.0, 3.0]) == pytest.approx(1.0, rel=1e-15)
    assert mc_standard_error([0.0, 2.0, 4.0, 6.0]) == pytest.approx(
        math.sqrt(20.0 / 3.0 / 4.0), rel=1e-14
    )
    with pytest.raises(ValueError, match=r"1-dimensional, got shape \(2, 2\)"):
        mc_standard_error(np.zeros((2, 2)))
    with pytest.raises(NonFiniteLogLikError, match="at draw 1, point 0: nan"):
        mc_standard_error([0.0, math.nan])


def test_lppd_single_cell():
    m = PointwiseLogLikMatrix(np.array([[-2.3]]))
    assert lppd(m) == -2.3
    assert m.row_totals().mean() == -2.3


def test_lppd_two_by_two():
    m = PointwiseLogLikMatrix(
        np.log(np.array([[0.5, 0.2], [0.25, 0.4]]))
    )
    assert lppd(m) == pytest.approx(math.log(0.375) + math.log(0.3), rel=1e-14)


def test_mean_total_loglik_row_sums():
    m = PointwiseLogLikMatrix(np.array([[-1.0, -2.0], [-3.0, -4.0]]))
    assert m.row_totals().mean() == -5.0


def test_lppd_additivity_over_column_partitions():
    rng = np.random.default_rng(7)
    vals = rng.normal(-2, 1.5, size=(50, 9))
    m = PointwiseLogLikMatrix(vals)
    left = PointwiseLogLikMatrix(vals[:, :4])
    right = PointwiseLogLikMatrix(vals[:, 4:])
    assert lppd(m) == pytest.approx(lppd(left) + lppd(right), rel=1e-13)


def test_row_duplication_invariances():
    rng = np.random.default_rng(3)
    vals = rng.normal(-1, 1, size=(20, 5)).round(3)  # dyadic-ish but exactness not needed here
    m = PointwiseLogLikMatrix(vals)
    dup = PointwiseLogLikMatrix(np.vstack([vals, vals]))
    assert lppd(dup) == pytest.approx(lppd(m), rel=1e-13)
    assert dup.row_totals().mean() == pytest.approx(m.row_totals().mean(), rel=1e-13)


def test_row_duplication_variance_divisor_relation():
    # exact rational inputs: sums of squared deviations double exactly,
    # and the S-1 divisor of p_dic_alt = 2 Var(T) accounts for the entire change
    col = np.array([1.0, 3.0, 5.0, 7.0])
    s = col.size
    ss = ((col - col.mean()) ** 2).sum()
    var = criterion_report(PointwiseLogLikMatrix(col[:, None])).p_dic_alt / 2
    var_dup = criterion_report(PointwiseLogLikMatrix(np.concatenate([col, col])[:, None])).p_dic_alt / 2
    assert var * (s - 1) == ss
    assert var_dup * (2 * s - 1) == 2 * ss


def test_jensen_inequality_and_equality_for_constant():
    rng = np.random.default_rng(11)
    for _ in range(40):
        col = rng.normal(rng.uniform(-50, 50), rng.uniform(0.01, 4), size=30)
        lme = log_mean_exp(col)
        tol = 1e-12 * max(1.0, abs(lme))
        assert lme >= col.mean() - tol
    col = np.full(10, -3.25)
    assert log_mean_exp(col) == pytest.approx(col.mean(), abs=1e-13)


def test_shift_invariance_of_log_mean_exp():
    rng = np.random.default_rng(5)
    col = rng.normal(-2, 1, size=25)
    base = log_mean_exp(col)
    for c in (700.0, -700.0, 1e5, -1e5):
        assert log_mean_exp(col + c) - c == pytest.approx(base, abs=1e-9)


def test_matrix_validation_reports_offending_index():
    vals = np.zeros((3, 4))
    vals[2, 1] = np.inf
    with pytest.raises(NonFiniteLogLikError, match="draw 2, point 1"):
        PointwiseLogLikMatrix(vals)
    with pytest.raises(MatrixFormatError):
        PointwiseLogLikMatrix(np.zeros((0, 3)))
    with pytest.raises(MatrixFormatError):
        PointwiseLogLikMatrix(np.zeros(5))


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = PointwiseLogLikMatrix(rng.normal(-3, 2, size=(12, 4)))
    path = tmp_path / "mat.csv"
    path.write_bytes(_csv_writer_reference(m, header=True))
    back = read_loglik_csv(path)
    np.testing.assert_array_equal(back.values, m.values)


def test_csv_headerless_and_header_forms():
    assert read_loglik_csv(io.StringIO("-2.3\n")).values.tolist() == [[-2.3]]
    m = read_loglik_csv(io.StringIO("point_1,point_2\n-1,-2\n-3,-4\n"))
    assert m.n_draws == 2 and m.n_points == 2


def _rows_taken_by_csv(monkeypatch):
    """A list of the rows `_csv_rows` yields, appended as they are taken.
    A table read on numpy's parser takes only its first row from it; the
    row-by-row pass takes every body row too."""
    taken = []
    rows_of = draws._csv_rows

    def spy(stream, *first):
        for row in rows_of(stream, *first):
            taken.append(row)
            yield row

    monkeypatch.setattr(draws, "_csv_rows", spy)
    return taken


def test_quoted_first_row_is_read_by_numpys_parser(monkeypatch):
    # R's write.csv quotes every header cell; the file must not go row by row
    expected = read_loglik_csv(io.StringIO("point_1,point_2\n-1.5,-2\n-3,-4.25\n")).values
    taken = _rows_taken_by_csv(monkeypatch)
    for text, first in (('"point_1","point_2"\n-1.5,-2\n-3,-4.25\n', ["point_1", "point_2"]),
                        ('"point_1","point_2"\n"-1.5","-2"\n"-3","-4.25"\n', ["point_1", "point_2"]),
                        ('"-1.5","-2"\n"-3","-4.25"\n', ["-1.5", "-2"])):
        taken.clear()
        assert read_loglik_csv(io.StringIO(text)).values.tobytes() == expected.tobytes()
        assert taken == [first], text


_ELECTION_CSV = resources.files("predcrit.models").joinpath("data/election.csv").read_text(encoding="utf-8")

# (loader, text, its first row): tables whose body numpy's parser reads
_NUMPY_TABLES = {
    "schools, quoted label with a comma, blank line": (
        load_schools_csv, 'school,y,sigma\n"A, coached",28,15\n\nB,-3.5,10\n"C",1e-3,16.25\n',
        ["school", "y", "sigma"]),
    "election": (load_election_csv, _ELECTION_CSV, ["year", "growth", "vote"]),
    "balanced": (load_balanced_csv, "group_1,group_2,group_3\n0.5,-1.25,2\n1e-3,3,-0.75\n",
                 ["group_1", "group_2", "group_3"]),
    "draw matrix after blank lines": (read_loglik_csv, "\n\n-1.5,-2\n-3,-4.25e-7\n", ["-1.5", "-2"]),
    "draw matrix with a header after blank lines": (
        read_loglik_csv, "\n\npoint_1,point_2\n-1.5,-2\n-3,-4.25e-7\n", ["point_1", "point_2"]),
}


def _arrays(loaded):
    return [loaded] if isinstance(loaded, np.ndarray) else list(vars(loaded).values())


@pytest.mark.parametrize("case", sorted(_NUMPY_TABLES))
def test_model_tables_and_leading_blank_lines_stay_on_numpys_parser(case, monkeypatch):
    load, text, first = _NUMPY_TABLES[case]
    taken = _rows_taken_by_csv(monkeypatch)
    got = load(io.StringIO(text))
    assert taken == [first]

    def refuse(*args, **kwargs):
        raise ValueError("refused, so the body goes row by row")

    monkeypatch.setattr(np, "loadtxt", refuse)
    want = load(io.StringIO(text))
    assert len(taken) > 2  # the reference read its body row by row
    assert [a.tobytes() for a in _arrays(got)] == [a.tobytes() for a in _arrays(want)]


_BOM_TABLES = {
    **_NUMPY_TABLES,
    "draw matrix": (read_loglik_csv, "-1.5,-2\n-3,-4.25e-7\n", ["-1.5", "-2"]),
    "draw matrix with a header": (read_loglik_csv, "point_1,point_2\n-1.5,-2\n-3,-4.25e-7\n",
                                  ["point_1", "point_2"]),
}


@pytest.mark.parametrize("as_path", [False, True], ids=["stream", "path"])
@pytest.mark.parametrize("case", sorted(_BOM_TABLES))
def test_a_leading_byte_order_mark_is_skipped_on_numpys_parser(case, as_path, tmp_path, monkeypatch):
    load, text, first = _BOM_TABLES[case]

    def read(body):
        if not as_path:
            return load(io.StringIO(body))
        path = tmp_path / "table.csv"
        path.write_text(body, encoding="utf-8")
        return load(path)

    want = read(text)
    taken = _rows_taken_by_csv(monkeypatch)
    got = read("\ufeff" + text)
    assert taken == [first]
    assert [a.tobytes() for a in _arrays(got)] == [a.tobytes() for a in _arrays(want)]


def test_csv_format_errors():
    with pytest.raises(MatrixFormatError, match="header row must be"):
        read_loglik_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(MatrixFormatError, match="row 2 has 1 cells"):
        read_loglik_csv(io.StringIO("1,2\n3,4\n5\n"))
    with pytest.raises(MatrixFormatError, match="missing cell"):
        read_loglik_csv(io.StringIO("1,2\n3,\n"))
    with pytest.raises(MatrixFormatError, match="empty"):
        read_loglik_csv(io.StringIO(""))
    with pytest.raises(MatrixFormatError, match="no draws"):
        read_loglik_csv(io.StringIO("point_1,point_2\n"))
    with pytest.raises(NonFiniteLogLikError):
        read_loglik_csv(io.StringIO("1,2\ninf,4\n"))


_HUGE_CELL = "a" * 200_000  # over the csv module's 131072-character field limit
_FIELD_LIMIT = "row {} is not valid CSV: field larger than field limit (131072)"

# (loader, text, the message of the error it raises)
_ROWS_THE_CSV_MODULE_REFUSES = {
    "draw matrix, huge header cell": (
        read_loglik_csv, f"point_1,{_HUGE_CELL}\n-1,-2\n", _FIELD_LIMIT.format(0)),
    "draw matrix, huge cell in a body numpy refuses": (
        read_loglik_csv, f"point_1,point_2\n-1,-2\n{_HUGE_CELL},-3\n", _FIELD_LIMIT.format(2)),
    "draw matrix, bare CR line ends": (
        read_loglik_csv, "point_1,point_2\r-1,-2\r-3,-4\r",
        "row 0 is not valid CSV: new-line character seen in unquoted field"),
    "schools, huge header cell": (
        load_schools_csv, f"school,y,{_HUGE_CELL}\nA,28,15\n", _FIELD_LIMIT.format(0)),
    "schools, huge cell in a body numpy refuses": (
        load_schools_csv, f"school,y,sigma\nA,28,15\n\nB,{_HUGE_CELL},10\n", _FIELD_LIMIT.format(2)),
    "schools, bare CR line ends": (
        load_schools_csv, "school,y,sigma\rA,28,15\rB,8,10\r",
        "row 0 is not valid CSV: new-line character seen in unquoted field"),
}


@pytest.mark.parametrize("case", sorted(_ROWS_THE_CSV_MODULE_REFUSES))
def test_a_row_the_csv_module_refuses_is_a_format_error_naming_it(case):
    load, text, message = _ROWS_THE_CSV_MODULE_REFUSES[case]
    with pytest.raises(MatrixFormatError) as info:
        load(io.StringIO(text))
    assert str(info.value).startswith(message)
    assert info.value.__cause__ is None


def test_csv_write_reads_back_bit_identical_via_stringio():
    rng = np.random.default_rng(8)
    m = PointwiseLogLikMatrix(rng.normal(size=(5, 3)) * 1e3)
    back = read_loglik_csv(io.StringIO(_csv_writer_reference(m, header=True).decode("utf-8")))
    assert back.values.tobytes() == m.values.tobytes()


# Every case pins what the row-by-row reader produced before reads went
# through numpy's parser: the exact values, or the error class and message.
# The two header-width cases are the exception: that reader took the width
# from the first data row and accepted them.
_CSV_CORPUS = {
    "blank lines": ("1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
    "whitespace-only lines": ("point_1,point_2\n  \n1,2\n\t\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "comma row": ("1,2\n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "double comma rows": ("point_1,point_2,point_3\n,,\n1,2,3\n , ,\n4,5,6\n",
                          [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "crlf": ("point_1,point_2\r\n1,2\r\n-3.5,4e-3\r\n", [[1.0, 2.0], [-3.5, 0.004]]),
    "padded cells": (" point_1 ,\tpoint_2\n 1 ,\t2\t\n  -3,4  \n", [[1.0, 2.0], [-3.0, 4.0]]),
    "quoted cells": ('"1","-2.5"\n"3",4\n', [[1.0, -2.5], [3.0, 4.0]]),
    "underscore": ("1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
    "headerless single cell": ("-2.3\n", [[-2.3]]),
    "hex": ("1\n0x10\n", (MatrixFormatError, "cell at row 1, column 0 is not a number: '0x10'")),
    "hex first row": ("0x10\n", (MatrixFormatError, "header row must be point_1, got 0x10")),
    "nan": ("1,2\nnan,4\n", (NonFiniteLogLikError, "non-finite log density at draw 1, point 0: nan")),
    "overflow": ("point_1\n1\n1e400\n", (NonFiniteLogLikError, "non-finite log density at draw 1, point 0: inf")),
    "ragged": ("1,2\n3,4\n5\n", (MatrixFormatError, "row 2 has 1 cells, expected 2")),
    "trailing semicolon": ("1,2\n3,4;\n", (MatrixFormatError, "cell at row 1, column 1 is not a number: '4;'")),
    "comment line": ("# draws\n1\n", (MatrixFormatError, "header row must be point_1, got # draws")),
    "comment after data": ("1\n# end\n", (MatrixFormatError, "cell at row 1, column 0 is not a number: '# end'")),
    "missing cell": ("1,2\n3,\n", (MatrixFormatError, "missing cell at row 1, column 1")),
    "bad header": ("a,b\n1,2\n", (MatrixFormatError, "header row must be point_1,point_2, got a,b")),
    "empty": ("", (MatrixFormatError, "empty draw-matrix file")),
    "only blank rows": ("\n , \n", (MatrixFormatError, "empty draw-matrix file")),
    "header only": ("point_1,point_2\n", (MatrixFormatError, "draw-matrix file has a header but no draws")),
    "header wider than rows": ("point_1,point_2,point_3\n1,2\n3,4\n",
                               (MatrixFormatError, "row 1 has 2 cells, expected 3")),
    "header narrower than rows": ("point_1\n1,2\n3,4\n",
                                  (MatrixFormatError, "row 1 has 2 cells, expected 1")),
    "bad cell in the last of 500 rows": (
        "point_1,point_2,point_3\n" + "".join(f"{r}.5,{-r},{r}e-3\n" for r in range(499)) + "1,2,x\n",
        (MatrixFormatError, "cell at row 500, column 2 is not a number: 'x'"),
    ),
}


class _NonSeekable(io.StringIO):
    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


def _open_stream(text, tmp_path):
    return io.StringIO(text)


def _open_path(text, tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def _open_non_seekable(text, tmp_path):
    return _NonSeekable(text)


@pytest.mark.parametrize("opener", [_open_stream, _open_path, _open_non_seekable])
@pytest.mark.parametrize("case", sorted(_CSV_CORPUS))
def test_csv_reader_parity_corpus(case, opener, tmp_path):
    text, want = _CSV_CORPUS[case]
    source = opener(text, tmp_path)
    if isinstance(want, tuple):
        error, message = want
        with pytest.raises(error) as info:
            read_loglik_csv(source)
        assert type(info.value) is error and str(info.value) == message
    else:
        got = read_loglik_csv(source).values
        assert got.tobytes() == np.array(want, dtype=float).tobytes()
        assert got.shape == (len(want), len(want[0]))


def _csv_writer_reference(m, header):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow([f"point_{j + 1}" for j in range(m.n_points)])
    for row in m.values:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("header", [True, False])
def test_csv_edge_values_read_back_bit_identical(header, tmp_path):
    m = PointwiseLogLikMatrix(np.array([
        [-1.5, 5e-324, 1e300, 3.0],
        [-0.0, -2.2250738585072014e-308, -1e300, 1e16],
        [0.1, -7.0, 123456789.0, 1.0000000000000002],
    ]))
    path = tmp_path / "m.csv"
    path.write_bytes(_csv_writer_reference(m, header))
    assert read_loglik_csv(path).values.tobytes() == m.values.tobytes()


def test_plot_csv_writers_pin_bytes(tmp_path, monkeypatch):
    # the histogram is written by `election --hist-out`; pin its bytes on fixed bins
    report = cli.election_report

    def fixed_bins(*args, **kwargs):
        rep = report(*args, **kwargs)
        rep["lpd_posterior"].update(bin_left=[-43.25, -42.5, 0.1], counts=[3, 0, 12])
        return rep

    monkeypatch.setattr(cli, "election_report", fixed_bins)
    hist = tmp_path / "hist.csv"
    assert CliRunner().invoke(cli.main, ["election", "--draws", "10", "--hist-out", str(hist)]).exit_code == 0
    assert hist.read_bytes() == b"bin_left,count\n-43.25,3\n-42.5,0\n0.1,12\n"
    rows = [
        {"n": 2, "estimator": "cloo", "mc_mean": -0.125, "mc_se": 0.01, "oracle": 1 / 3},
        {"n": 5, "estimator": "cloo", "mc_mean": 1e-20, "mc_se": 0.0, "oracle": -2.5},
    ]
    # the bias curve is written by `expect --n-values`; pin its bytes on fixed rows
    monkeypatch.setattr(cli, "bias_curve", lambda *args: rows)
    curve = tmp_path / "curve.csv"
    argv = ["expect", "--n-values", "2,5", "--estimator", "cloo", "--output", str(curve)]
    assert CliRunner().invoke(cli.main, argv).exit_code == 0
    assert curve.read_bytes() == (
        b"n,estimator,mc_mean,mc_se,oracle\n"
        b"2,cloo,-0.125,0.01,0.3333333333333333\n"
        b"5,cloo,1e-20,0.0,-2.5\n"
    )


# ---------------------------------------------------------------------------
# row-block criteria kernel
# ---------------------------------------------------------------------------

def _whole_matrix_pass(vals):
    """The fields of criterion_report(m, lpd_at_mean=0.0) that its blocked
    passes form, as one S x n buffer computes them, with each variance
    taken by np.var over the whole per-draw series."""
    shift = vals.max(axis=0)
    buf = np.exp(vals - shift)
    w_bar = buf.mean(axis=0)
    lme = shift + np.log(w_bar)
    buf /= w_bar
    r = buf.sum(axis=1)
    mean = vals.mean(axis=0)
    np.subtract(vals, mean, out=buf)
    d = buf.sum(axis=1)
    np.square(buf, out=buf)
    q = buf.sum(axis=1)
    s = vals.shape[0]
    fields = {
        "lppd": float(lme.sum()),
        "p_waic1": float(2.0 * (lme - mean).sum()),
        "p_waic2": None,
        "p_dic": 2.0 * (0.0 - float(mean.sum() + d.mean())),
    }
    if s > 1:
        var_r, var_d, var_d2, var_r_minus_d, var_q, var_r_minus_q = (
            float(np.var(x, ddof=1)) for x in (r, d, d**2, r - d, q, r - q)
        )

        def se(var):
            return math.sqrt(var / s)

        fields.update(
            p_waic2=float((buf.sum(axis=0) / (s - 1)).sum()),
            p_dic_alt=2.0 * var_d,
            mc_se_lppd=se(var_r),
            mc_se_mean_loglik=se(var_d),
            mc_se_p_dic=2.0 * se(var_d),
            mc_se_p_dic_alt=2.0 * se(var_d2),
            mc_se_p_waic1=2.0 * se(var_r_minus_d),
            mc_se_p_waic2=se(var_q),
            mc_se_waic=2.0 * se(var_r_minus_q),
        )
    return fields


def _block_rows(n):
    return max(1, _BLOCK_BYTES // (8 * n))


# (S, n): one draw; two; S not a multiple of the block rows; S under one
# block; n wider than the budget, so one draw per block; one point
KERNEL_SHAPES = [
    (1, 6),
    (2, 6),
    (3 * _block_rows(300) + 7, 300),
    (_block_rows(40) // 3, 40),
    (5, _BLOCK_BYTES // 8 + 11),
    (500, 1),
]


def _assert_merged_fields_match(got, want):
    """The fields merged block by block agree within 1e-12: p_dic stands for
    the mean of the per-draw totals and p_dic_alt for their variance. An
    error field is the square root of a variance, so 5e-13 on it holds the
    variance to 1e-12."""
    for field in ("p_dic", "p_dic_alt", "mc_se_lppd", "mc_se_mean_loglik", "mc_se_p_dic",
                  "mc_se_p_dic_alt", "mc_se_p_waic1", "mc_se_p_waic2", "mc_se_waic"):
        actual, expected = getattr(got, field), want.get(field)
        if expected is None:
            assert actual is None, field
        else:
            rel_tol = 5e-13 if field.startswith("mc_se_") else 1e-12
            assert math.isclose(actual, expected, rel_tol=rel_tol), (field, actual, expected)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_row_blocked_pass_is_bitwise_the_whole_matrix_pass_on_row_major_input(shape):
    vals = np.random.default_rng(sum(shape)).normal(-2.0, 1.3, size=shape)
    m = PointwiseLogLikMatrix(vals)
    got, want = criterion_report(m, lpd_at_mean=0.0), _whole_matrix_pass(vals)
    for field in ("lppd", "p_waic1", "p_waic2"):
        assert np.asarray(getattr(got, field)).tobytes() == np.asarray(want[field]).tobytes(), field
    _assert_merged_fields_match(got, want)
    assert lppd(m) == want["lppd"]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_row_blocked_pass_matches_the_whole_matrix_pass_on_column_major_input(shape):
    vals = np.asfortranarray(np.random.default_rng(sum(shape)).normal(-2.0, 1.3, size=shape))
    m = PointwiseLogLikMatrix(vals)
    got, want = criterion_report(m, lpd_at_mean=0.0), _whole_matrix_pass(vals)
    for field in ("lppd", "p_waic1", "p_waic2"):
        if want[field] is None:
            assert getattr(got, field) is None, field
        else:
            assert math.isclose(getattr(got, field), want[field], rel_tol=1e-13), field
    # numpy sums a row of a column-major buffer in order, so the per-draw
    # series of the whole column-major buffer carry an error of about n ulps
    # (2e-12 of a variance at n = 32779); a row-major buffer sums pairwise
    _assert_merged_fields_match(got, _whole_matrix_pass(np.ascontiguousarray(vals)))
    assert lppd(m) == got.lppd


def test_validation_names_a_bad_cell_in_the_last_block():
    n = 300
    s = 2 * _block_rows(n) + 5
    vals = np.zeros((s, n))
    vals[s - 2, 17] = np.nan
    with pytest.raises(NonFiniteLogLikError, match=f"at draw {s - 2}, point 17: nan"):
        PointwiseLogLikMatrix(vals)


@pytest.mark.parametrize("order", ["C", "F"])
def test_validation_names_the_first_bad_cell_in_draw_then_point_order(order):
    n = 300
    vals = np.zeros((3 * _block_rows(n), n), order=order)
    vals[_block_rows(n) + 4, 250] = -np.inf  # the first bad draw, its first bad point
    vals[_block_rows(n) + 4, 251] = np.nan
    vals[_block_rows(n) + 5, 3] = np.inf  # an earlier point, in a later draw
    vals[2 * _block_rows(n), 0] = np.nan  # a later block
    with pytest.raises(NonFiniteLogLikError, match=f"at draw {_block_rows(n) + 4}, point 250: -inf"):
        PointwiseLogLikMatrix(vals)


def test_validation_counts_held_out_points_from_first_point():
    col = np.zeros((_block_rows(1) + 3, 1))
    col[-1, 0] = np.inf
    with pytest.raises(NonFiniteLogLikError, match=f"at draw {len(col) - 1}, point 6: inf"):
        _require_finite_loglik(col, first_point=6)


def test_validation_accepts_finite_cells_whose_total_overflows():
    vals = np.full((3, 4), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert PointwiseLogLikMatrix(vals).n_draws == 3
        vals[2, 3] = np.nan
        with pytest.raises(NonFiniteLogLikError, match="at draw 2, point 3: nan"):
            PointwiseLogLikMatrix(vals)
        with pytest.raises(NonFiniteLogLikError, match="at draw 0, point 1: -inf"):
            PointwiseLogLikMatrix(np.array([[1.0, -np.inf, np.inf]]))


# ---------------------------------------------------------------------------
# a path's body parsed by one forked process per CPU: small files take the
# forked path here through a lowered per-worker minimum and piece size


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """Runs of 64 bytes or more, up to four processes, 32-byte pieces (so
    most lines need a grown piece); `forked` lists what each forked parse
    returned, None when the read stayed serial."""
    monkeypatch.setattr(draws, "_WORKER_MIN_BYTES", 64)
    monkeypatch.setattr(draws, "_PARSE_CHUNK_BYTES", 32)
    monkeypatch.setattr(draws, "_available_cpus", lambda: 4)
    results = []
    parse = draws._parse_body_forked

    def spy(*args):
        results.append(parse(*args))
        return results[-1]

    monkeypatch.setattr(draws, "_parse_body_forked", spy)
    yield results
    _no_child_left()


def _matrix_text(header=True, rows=40, cols=5, newline="\n", quoted=False, bom=False, trailing=True):
    values = np.random.default_rng(rows * cols).normal(-3.0, 2.0, size=(rows, cols))
    cell = '"{!r}"' if quoted else "{!r}"
    lines = [",".join(cell.format(v) for v in row) for row in values.tolist()]
    if header:
        lines.insert(0, ",".join(f"point_{j + 1}" for j in range(cols)))
    return ("\ufeff" if bom else "") + newline.join(lines) + (newline if trailing else "")


def _outcome(read, source):
    """(the values' bytes, shape) of a read, or (its error class, message)."""
    try:
        values = read(source)
    except ValueError as exc:  # a format, non-finite or decoding error
        return type(exc), str(exc)
    return values.tobytes(), values.shape


def _read_matrix(source):
    return read_loglik_csv(source).values


def _forked_and_serial(read, text, tmp_path, encode=lambda text: text.encode("utf-8")):
    """The outcome of `read` on a file holding `text` by its path, and on
    the same file opened as a stream, which is parsed serially."""
    path = tmp_path / "table.csv"
    path.write_bytes(encode(text))
    with open(path, encoding="utf-8", newline="") as fh:
        return _outcome(read, path), _outcome(read, fh)


_FORKED_TEXTS = {
    "header": _matrix_text(),
    "no header": _matrix_text(header=False),
    "crlf": _matrix_text(newline="\r\n"),
    "no trailing newline": _matrix_text(trailing=False),
    "quoted cells": _matrix_text(quoted=True),
    "byte-order mark": _matrix_text(bom=True),
    "byte-order mark, no header": _matrix_text(header=False, bom=True),
    "one column": _matrix_text(rows=200, cols=1),
}


@pytest.mark.parametrize("case", list(_FORKED_TEXTS))
def test_a_forked_read_is_bitwise_the_serial_read(case, forked, tmp_path):
    got, want = _forked_and_serial(_read_matrix, _FORKED_TEXTS[case], tmp_path)
    assert forked and forked[0] is not None  # every run read as one row per line
    assert isinstance(got[0], bytes) and got == want


def test_a_forked_read_of_model_tables_skips_their_labels(forked, tmp_path):
    rng = np.random.default_rng(9)
    text = "school,y,sigma\n" + "".join(f'"S {j}",{rng.normal(8, 10)!r},{rng.uniform(5, 20)!r}\n'
                                       for j in range(60))
    got, want = _forked_and_serial(lambda source: load_schools_csv(source).sigma, text, tmp_path)
    assert forked and forked[0] is not None
    assert isinstance(got[0], bytes) and got == want


def _defect(text, where, line):
    """`text` with its line at `where` (a share of the body) replaced by `line`."""
    lines = text.split("\n")
    lines[1 + int(where * (len(lines) - 2))] = line
    return "\n".join(lines)


_DEFECTS = {
    "blank rows": "\n\n",
    "many blank rows": "\n" * 20_000,  # more lines than rows the bytes could hold
    "whitespace row": "  ",
    "ragged row": "-1.5,-2",
    "non-number cell": "-1.5,-2,x,-4,-5",
    "nan cell": "-1.5,-2,nan,-4,-5",
    "quoted newline": '-1.5,-2,-3,-4,"-5\n"',
    "bare carriage return": "-1.5,-2,-3,-4,-5\r-1.5,-2,-3,-4,-5",
    "invalid utf-8": "-1.5,-2,-3,-4,-5\udcff",
}


# a text stream decodes the file's first 8 KB as it reads the header, so
# the first run's defect lies past them: of 800 rows, each run has 200
@pytest.mark.parametrize("where", [0.2, 0.5, 1.0], ids=["first run", "middle", "last run"])
@pytest.mark.parametrize("case", list(_DEFECTS))
def test_a_forked_read_of_a_defect_gives_the_serial_outcome(case, where, forked, tmp_path):
    text = _defect(_matrix_text(rows=800), where, _DEFECTS[case])
    got, want = _forked_and_serial(_read_matrix, text, tmp_path,
                                   lambda text: text.encode("utf-8", "surrogateescape"))
    assert got == want
    assert forked and (forked[0] is not None) == (case == "nan cell")


def test_a_run_that_parses_to_other_than_its_counted_rows_sends_the_read_back(forked, monkeypatch, tmp_path):
    # as when the file changes between the count and the parse
    count = draws._line_runs

    def overcount(*args):
        cuts, rows = count(*args)
        return cuts, [*rows[:-1], rows[-1] + 1]

    monkeypatch.setattr(draws, "_line_runs", overcount)
    got, want = _forked_and_serial(_read_matrix, _matrix_text(), tmp_path)
    assert got == want and forked == [None]


def test_the_reader_forks_nothing_without_a_path_cpus_a_large_body_fork_or_a_lone_thread(monkeypatch, tmp_path):
    text = _matrix_text()
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    want = _outcome(_read_matrix, io.StringIO(text))

    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(draws.os, "fork", refuse)
    monkeypatch.setattr(draws, "_WORKER_MIN_BYTES", 64)
    monkeypatch.setattr(draws, "_available_cpus", lambda: 1)
    assert _outcome(_read_matrix, path) == want  # one CPU
    monkeypatch.setattr(draws, "_available_cpus", lambda: 4)
    with open(path, encoding="utf-8", newline="") as fh:
        assert _outcome(_read_matrix, fh) == want  # a stream
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _outcome(_read_matrix, path) == want  # another live thread
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.setattr(draws, "_WORKER_MIN_BYTES", len(text))
    assert _outcome(_read_matrix, path) == want  # a body below two runs
    monkeypatch.setattr(draws, "_WORKER_MIN_BYTES", 64)
    monkeypatch.delattr(draws.os, "fork")
    assert _outcome(_read_matrix, path) == want  # no os.fork
