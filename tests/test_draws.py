import csv
import io
import math

import numpy as np
import pytest
from click.testing import CliRunner

from predcrit import cli
from predcrit.draws import (
    PointwiseLogLikMatrix,
    log_mean_exp,
    lppd,
    mc_standard_error,
    read_loglik_csv,
    sample_variance,
    write_loglik_csv,
)
from predcrit.errors import MatrixFormatError, NonFiniteLogLikError
from predcrit.reports import write_histogram_csv


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
    with pytest.raises(NonFiniteLogLikError):
        log_mean_exp([0.0, -math.inf])


def test_sample_variance_examples():
    assert sample_variance([0.0, 0.0, 0.0]) == 0.0
    assert sample_variance([1.0, 3.0]) == pytest.approx(2.0, rel=1e-15)
    assert sample_variance([2.0, 4.0, 6.0]) == pytest.approx(4.0, rel=1e-15)


def test_sample_variance_needs_two_draws():
    with pytest.raises(ValueError, match="variance requires at least 2 draws"):
        sample_variance([1.0])


def test_mc_standard_error_examples():
    assert mc_standard_error([5.0, 5.0, 5.0, 5.0]) == 0.0
    assert mc_standard_error([1.0, 3.0]) == pytest.approx(1.0, rel=1e-15)
    assert mc_standard_error([0.0, 2.0, 4.0, 6.0]) == pytest.approx(
        math.sqrt(20.0 / 3.0 / 4.0), rel=1e-14
    )


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
    # and the S-1 divisor accounts for the entire change
    col = np.array([1.0, 3.0, 5.0, 7.0])
    s = col.size
    ss = ((col - col.mean()) ** 2).sum()
    var = sample_variance(col)
    var_dup = sample_variance(np.concatenate([col, col]))
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
    write_loglik_csv(m, path)
    back = read_loglik_csv(path)
    np.testing.assert_array_equal(back.values, m.values)


def test_csv_headerless_and_header_forms():
    assert read_loglik_csv(io.StringIO("-2.3\n")).values.tolist() == [[-2.3]]
    m = read_loglik_csv(io.StringIO("point_1,point_2\n-1,-2\n-3,-4\n"))
    assert m.n_draws == 2 and m.n_points == 2


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


def test_csv_write_reads_back_bit_identical_via_stringio():
    rng = np.random.default_rng(8)
    m = PointwiseLogLikMatrix(rng.normal(size=(5, 3)) * 1e3)
    buf = io.StringIO()
    write_loglik_csv(m, buf)
    back = read_loglik_csv(io.StringIO(buf.getvalue()))
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
def test_csv_writer_bytes_match_csv_module(header, tmp_path):
    m = PointwiseLogLikMatrix(np.array([
        [-1.5, 5e-324, 1e300, 3.0],
        [-0.0, -2.2250738585072014e-308, -1e300, 1e16],
        [0.1, -7.0, 123456789.0, 1.0000000000000002],
    ]))
    path = tmp_path / "m.csv"
    write_loglik_csv(m, path, header=header)
    assert path.read_bytes() == _csv_writer_reference(m, header)
    assert read_loglik_csv(path).values.tobytes() == m.values.tobytes()


def test_plot_csv_writers_pin_bytes(tmp_path, monkeypatch):
    hist = tmp_path / "hist.csv"
    write_histogram_csv(np.array([-43.25, -42.5, 0.1]), np.array([3, 0, 12]), hist)
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
