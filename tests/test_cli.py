import csv
import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from predcrit import oracle
from predcrit.cli import MODEL_OPTIONS, main
from predcrit.errors import MatrixFormatError
from predcrit.expectation import ESTIMATOR_NAMES
from predcrit.models import (
    COUNTINGS,
    DIC_PARAMETERIZATIONS,
    POOLING_MODES,
    SchoolsModel,
    load_balanced_csv,
    load_election_csv,
    load_schools_csv,
)
from predcrit.reports import (
    UNDEFINED_AIC_HIERARCHICAL,
    UNDEFINED_LOO_NO_POOLING,
    UNDEFINED_LOO_ONE_GROUP,
    election_report,
)


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_criteria_json_single_cell(runner, tmp_path):
    path = _write(tmp_path, "m.csv", "-2.3\n")
    result = runner.invoke(main, ["criteria", "--input", path, "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    rep = payload["report"]
    assert payload["draws"] == 1
    assert rep["lppd"] == -2.3
    assert rep["p_waic1"] == 0.0
    assert rep["p_waic2"] is None
    assert any("at least 2 draws" in w for w in rep["warnings"])


def test_criteria_with_point_estimates(runner, tmp_path):
    path = _write(tmp_path, "m.csv", "point_1,point_2\n-1,-2\n-1.5,-1.8\n")
    result = runner.invoke(
        main,
        ["criteria", "--input", path, "--mle-loglik", "-2.5", "--k", "2",
         "--lpd-at-mean", "-2.8", "--format", "json"],
    )
    assert result.exit_code == 0
    rep = json.loads(result.output)["report"]
    assert rep["aic"] == pytest.approx(9.0)
    assert rep["bic"] == pytest.approx(5.0 + 2 * np.log(2))
    assert rep["dic"] == pytest.approx(-2 * -2.8 + 2 * rep["p_dic"])


def test_criteria_requires_k_with_mle(runner, tmp_path):
    path = _write(tmp_path, "m.csv", "-1\n-2\n")
    result = runner.invoke(main, ["criteria", "--input", path, "--mle-loglik", "-2.5"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["criteria", "--input", path, "--k", "3"])
    assert result.exit_code == 2
    assert "--k requires --mle-loglik" in result.output


def test_exit_code_2_for_malformed_csv(runner, tmp_path):
    path = _write(tmp_path, "m.csv", "oops,x\n1,2\n")
    result = runner.invoke(main, ["criteria", "--input", path])
    assert result.exit_code == 2
    path = _write(tmp_path, "ragged.csv", "1,2\n3\n")
    assert runner.invoke(main, ["criteria", "--input", path]).exit_code == 2


@pytest.mark.parametrize("command, text", [
    ("criteria", "point_1," + "a" * 200_000 + "\n-1,-2\n"),
    ("criteria", "point_1,point_2\n-1,-2\n" + "a" * 200_000 + ",-3\n"),
    ("schools-table", "school,y," + "a" * 200_000 + "\nA,28,15\nB,8,10\n"),
], ids=["header", "body", "schools header"])
def test_exit_code_2_for_a_cell_over_the_csv_field_limit(runner, tmp_path, command, text):
    result = runner.invoke(main, [command, "--input", _write(tmp_path, "huge.csv", text)])
    assert result.exit_code == 2
    assert "is not valid CSV: field larger than field limit" in result.output


def test_number_list_names_its_first_bad_value(runner, tmp_path):
    path = _write(tmp_path, "y.txt", "0.5\n1.2,x\n")
    result = runner.invoke(main, ["fit", "--model", "normal-mean", "--input", path, "--draws", "100"])
    assert result.exit_code == 2
    assert "input format error: value 3 of the data file is not a number: 'x'\n" in result.output


_MATRIX = "point_1,point_2\n-1,-2\n-1.5,-2.5\n"
_FOUR_ELECTIONS = "year,growth,vote\n1952,2.4,57.2\n1956,2.9,53.4\n1960,0.9,49.1\n1964,4.2,61.3\n"
_TWO_MORE_SCHOOLS = "B,8,10\nC,-3,16\n"

# An input refused before anything is computed, the --input file it is
# given (None: no --input), and the one line it prints; each exits 2.
INPUT_REFUSALS = {
    "--y entry": (["oracle", "--n", "2", "--y", "1,x"], None, "input format error: value 2 of --y is not a number: 'x'"),
    "--y spaces": (["oracle", "--n", "2", "--y", "1 2"], None, "input format error: value 1 of --y is not a number: '1 2'"),
    "--n-values entry": (["expect", "--n-values", "2,x"], None,
                         "input format error: value 2 of --n-values is not an integer: 'x'"),
    "--n-values without an n": (["expect", "--n-values", ","], None, "error: --n-values must name at least one n"),
    "empty data vector": (["fit", "--model", "normal-mean"], "", "input format error: empty data file"),
    "blank data vector": (["fit", "--model", "normal-mean"], " \n,\n", "input format error: empty data file"),
    "normal-mean without --input": (["fit", "--model", "normal-mean"], None,
                                    "error: --input is required for the normal-mean model"),
    "infinite --mle-loglik": (["criteria", "--mle-loglik", "inf", "--k", "3"], _MATRIX,
                              "error: point-estimate log likelihood must be finite"),
    "negative --k": (["criteria", "--mle-loglik", "-3", "--k", "-1"], _MATRIX,
                     "error: parameter count k must be nonnegative"),
    "nan --lpd-at-mean": (["criteria", "--lpd-at-mean", "nan"], _MATRIX, "error: lpd_at_mean must be finite"),
    "regression loo on 4 rows": (["loo", "--model", "regression"], _FOUR_ELECTIONS,
                                 "error: too few training points for a proper sigma^2 posterior"),
    "schools sigma of 0": (["schools-table"], "school,y,sigma\nA,28,15\nB,8,0\n",
                           "error: all standard errors must be positive"),
    # data whose squares leave double range: refused at load, before a numpy warning
    "schools-table y squared": (["schools-table"], "school,y,sigma\nA,1e200,15\n" + _TWO_MORE_SCHOOLS,
                                "error: y^2 must be finite, got inf"),
    "fit schools y squared": (["fit", "--model", "schools"], "school,y,sigma\nA,1e200,15\n" + _TWO_MORE_SCHOOLS,
                              "error: y^2 must be finite, got inf"),
    "schools-table sigma squared": (["schools-table"], "school,y,sigma\nA,28,1e200\n" + _TWO_MORE_SCHOOLS,
                                    "error: sigma^2 must be finite, got inf"),
    "schools-table sigma inverse square": (["schools-table"], "school,y,sigma\nA,28,1e-200\n" + _TWO_MORE_SCHOOLS,
                                           "error: 1/sigma^2 must be finite, got inf"),
    "fit schools sigma inverse square": (["fit", "--model", "schools"],
                                         "school,y,sigma\nA,28,1e-160\n" + _TWO_MORE_SCHOOLS,
                                         "error: 1/sigma^2 must be finite, got inf"),
    # the default tau grid's top, 2 max(|y| + sigma), is 2e154 + 2
    "fit schools default tau grid squared": (
        ["fit", "--model", "schools"], "school,y,sigma\nA,1e154,1\nB,-1e154,1\nC,0,1\nD,1e154,1\nE,-1e154,1\n",
        "error: default tau_grid^2 must be finite, got inf"),
    "election growth squared": (["election"], _FOUR_ELECTIONS + "1968,1e200,49.6\n",
                                "error: the sum of x^2 must be finite, got inf"),
    "election vote squared": (["election"], _FOUR_ELECTIONS + "1968,3.0,1e200\n",
                              "error: the sum of y^2 must be finite, got inf"),
}


@pytest.mark.parametrize("case", list(INPUT_REFUSALS))
def test_an_input_refusal_exits_2_with_one_line_naming_it(runner, tmp_path, case):
    argv, text, message = INPUT_REFUSALS[case]
    if text is not None:
        argv = [*argv, "--input", _write(tmp_path, "in.txt", text)]
    result = runner.invoke(main, [*argv, "--draws", "100"] if "--model" in argv else argv)
    assert result.exit_code == 2
    assert result.output == message + "\n"


def test_number_list_skips_a_leading_byte_order_mark(runner, tmp_path):
    argv = ["fit", "--model", "normal-mean", "--draws", "100", "--format", "json", "--input"]
    plain = runner.invoke(main, argv + [_write(tmp_path, "y.txt", "0.5, -1.25\n3e-3\n")])
    marked = runner.invoke(main, argv + [_write(tmp_path, "y-bom.txt", "\ufeff0.5, -1.25\n3e-3\n")])
    assert plain.exit_code == marked.exit_code == 0
    assert marked.output == plain.output


def test_exit_code_3_for_non_finite(runner, tmp_path):
    path = _write(tmp_path, "m.csv", "1.0,2.0\nnan,0.5\n")
    result = runner.invoke(main, ["criteria", "--input", path])
    assert result.exit_code == 3


def test_exit_code_3_when_finite_log_densities_overflow_the_report(runner, tmp_path):
    path = _write(tmp_path, "big.csv", "point_1,point_2\n-1e155,-1\n-3e155,-2\n-2e155,-1.5\n")
    result = runner.invoke(main, ["criteria", "--input", path, "--format", "json"])
    assert result.exit_code == 3
    assert result.output == (
        "numeric validity error: p_waic2 is inf: the log densities overflow double precision\n"
    )



def test_exit_code_3_when_the_full_data_lppd_of_loo_overflows(runner, tmp_path):
    # every school's log density is about -5e307 under complete pooling, so their sum passes -1.8e308
    path = _write(tmp_path, "s.csv", "school,y,sigma\nA,1e154,1\nB,-1e154,1\nC,1e154,1\nD,-1e154,1\nE,0,1\n")
    result = runner.invoke(main, ["loo", "--model", "schools", "--mode", "complete_pooling", "--input", path,
                                  "--draws", "100"])
    assert result.exit_code == 3
    assert result.output == "numeric validity error: lppd is -inf: the log densities overflow double precision\n"


def test_exit_code_3_when_a_far_prior_mean_overflows_the_log_densities(runner, tmp_path):
    # the posterior mean is about 2.5e299, so each log density is about -3e598: -inf, with no numpy warning
    path = _write(tmp_path, "y.txt", "0.5\n1.2\n-0.3\n")
    result = runner.invoke(main, ["fit", "--model", "normal-mean", "--m", "1", "--mu0", "1e300", "--input", path,
                                  "--draws", "100"])
    assert result.exit_code == 3
    assert result.stderr == "numeric validity error: non-finite log density at draw 0, point 0: -inf\n"


# Hierarchical effect draws past double range: y tau^2 (about 4|y|^3 on the default grid) for effects of
# +-4e102, sigma^2 tau^2 for a school at sigma 1e150; every square the data load checks stays finite.
# Each file, and the first draw whose density is -inf.
_THETA_OVERFLOWS = {
    "y tau^2": ("school,y,sigma\nA,4e102,1\nB,-4e102,1\nC,0,1\n", 6),
    "sigma^2 tau^2": ("school,y,sigma\nA,1e10,1e150\nB,-1e10,1\nC,0,1\nD,2e10,1\n", 0),
}


@pytest.mark.parametrize("data, argv", [
    ("y tau^2", ["fit", "--model", "schools"]),
    ("y tau^2", ["loo", "--model", "schools"]),
    ("sigma^2 tau^2", ["fit", "--model", "schools"]),
    ("sigma^2 tau^2", ["loo", "--model", "schools"]),
    ("sigma^2 tau^2", ["schools-table"]),
])
def test_exit_code_3_when_a_hierarchical_effect_draw_overflows(runner, tmp_path, data, argv):
    text, draw = _THETA_OVERFLOWS[data]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [*argv, "--input", _write(tmp_path, "s.csv", text), "--draws", "100"])
    assert result.exit_code == 3, result.output
    assert result.stderr == f"numeric validity error: non-finite log density at draw {draw}, point 0: -inf\n"


NON_FINITE_INPUTS = {
    "schools-y": ("s.csv", "school,y,sigma\nA,nan,15\nB,8,10\nC,-3,16\n",
                  [["fit", "--model", "schools"], ["schools-table"]], "nan"),
    "schools-sigma": ("s.csv", "school,y,sigma\nA,28,nan\nB,8,10\nC,-3,16\n",
                      [["fit", "--model", "schools"]], "nan"),
    "election-growth": ("e.csv", "year,growth,vote\n1952,nan,44.6\n1956,3.0,57.8\n1960,0.4,49.9\n"
                        "1964,2.9,61.3\n1968,1.4,49.6\n", [["election"]], "nan"),
    "normal-mean": ("y.txt", "0.5\ninf\n1.0\n", [["fit", "--model", "normal-mean"]], "inf"),
    "balanced": ("b.csv", "group_1,group_2\n0.1,nan\n0.5,0.9\n", [["fit", "--model", "balanced"]], "nan"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_INPUTS))
def test_non_finite_data_file_is_a_format_error_naming_the_value(runner, tmp_path, case):
    name, text, commands, value = NON_FINITE_INPUTS[case]
    path = _write(tmp_path, name, text)
    for command in commands:
        result = runner.invoke(main, [*command, "--input", path, "--draws", "100"])
        assert result.exit_code == 2, result.output
        assert f"must be finite, got {value}" in result.output


# Each model data file's loader and a command that reads it, then one
# malformed file per case and the exact message it gets: rows are counted
# from 0 with the header, columns from 0 with the label column.
MODEL_FILES = {
    "schools": (load_schools_csv, ["fit", "--model", "schools"]),
    "election": (load_election_csv, ["election"]),
    "balanced": (load_balanced_csv, ["fit", "--model", "balanced"]),
}
MALFORMED_MODEL_FILES = {
    ("schools", "bad header"): ("school,y\nA,28\n", "header row must be school,y,sigma, got school,y"),
    ("schools", "empty"): ("", "empty schools data file"),
    ("schools", "header only"): ("school,y,sigma\n", "schools data file has a header but no groups"),
    ("schools", "short row"): ("school,y,sigma\nA,28,15\nB,8\n", "row 2 has 2 cells, expected 3"),
    ("schools", "empty cell"): ("school,y,sigma\nA,28,15\nB,,10\n", "missing cell at row 2, column 1"),
    ("schools", "non-number"): ("school,y,sigma\nA,28,15\nB,8,ten\n",
                                "cell at row 2, column 2 is not a number: 'ten'"),
    ("election", "bad header"): ("growth,vote\n2.4,57.2\n",
                                 "header row must be year,growth,vote, got growth,vote"),
    ("election", "empty"): ("\n\n", "empty election data file"),
    ("election", "header only"): ("year,growth,vote\n", "election data file has a header but no elections"),
    ("election", "short row"): ("year,growth,vote\n1952,2.4,57.2\n1956,2.9\n", "row 2 has 2 cells, expected 3"),
    ("election", "empty cell"): ("year,growth,vote\n1952,2.4,57.2\n1956, ,53.4\n",
                                 "missing cell at row 2, column 1"),
    ("election", "non-number"): ("year,growth,vote\n1952,2.4,57.2\n1956,2.9,53.4%\n",
                                 "cell at row 2, column 2 is not a number: '53.4%'"),
    ("balanced", "bad header"): ("group_1,group_3\n0.1,0.5\n",
                                 "header row must be group_1,group_2, got group_1,group_3"),
    ("balanced", "empty"): ("", "empty balanced data file"),
    ("balanced", "header only"): ("group_1,group_2\n", "balanced data file has a header but no observations"),
    ("balanced", "short row"): ("group_1,group_2\n0.1,0.5\n0.3\n", "row 2 has 1 cells, expected 2"),
    ("balanced", "empty cell"): ("group_1,group_2\n0.1,0.5\n,0.3\n", "missing cell at row 2, column 0"),
    ("balanced", "non-number"): ("group_1,group_2\n0.1,0.5\n0.3,x\n",
                                 "cell at row 2, column 1 is not a number: 'x'"),
}


@pytest.mark.parametrize("model, case", list(MALFORMED_MODEL_FILES))
def test_malformed_model_file_names_its_row_and_column(runner, tmp_path, model, case):
    load, command = MODEL_FILES[model]
    text, message = MALFORMED_MODEL_FILES[model, case]
    path = _write(tmp_path, "data.csv", text)
    with pytest.raises(MatrixFormatError) as info:
        load(path)
    assert str(info.value) == message
    result = runner.invoke(main, [*command, "--input", path, "--draws", "100"])
    assert result.exit_code == 2
    assert f"input format error: {message}\n" in result.output


def test_exit_code_4_for_model_refusal(runner):
    result = runner.invoke(
        main, ["loo", "--model", "schools", "--mode", "no_pooling", "--draws", "500"]
    )
    assert result.exit_code == 4
    assert "model cannot predict held-out point" in result.output


def test_schools_table_undefined_cells(runner):
    result = runner.invoke(
        main, ["schools-table", "--draws", "4000", "--seed", "7", "--format", "json"]
    )
    assert result.exit_code == 0
    table = json.loads(result.output)
    rows = table["rows"]
    assert rows["aic"]["hierarchical"].startswith("undefined:")
    assert rows["p_loo"]["no_pooling"].startswith("undefined:")
    assert isinstance(rows["dic"]["hierarchical"], float)
    assert table["seed"] == 7 and table["draws"] == 4000


@pytest.mark.parametrize("seed", ["7", "12345"])
def test_each_schools_table_column_is_fit_and_loo_of_its_mode(runner, seed):
    opts = ["--draws", "2000", "--seed", seed, "--format", "json"]
    rows = json.loads(runner.invoke(main, ["schools-table", *opts]).output)["rows"]
    for mode in POOLING_MODES:
        rep = json.loads(runner.invoke(main, ["fit", "--model", "schools", "--mode", mode, *opts]).output)["report"]
        want = {"minus2_lpd_mean": -2.0 * rep["lpd_at_mean"], "p_dic": rep["p_dic"], "dic": rep["dic"],
                "minus2_lppd": -2.0 * rep["lppd"], "p_waic1": rep["p_waic1"], "p_waic2": rep["p_waic2"],
                "waic": rep["waic"]}
        if mode != "hierarchical":
            want |= {"minus2_lpd_mle": -2.0 * rep["lpd_at_mle"], "k": float(rep["k"]), "aic": rep["aic"]}
        if mode != "no_pooling":
            loo = json.loads(runner.invoke(main, ["loo", "--model", "schools", "--mode", mode, *opts]).output)["loo"]
            want |= {"p_loo": loo["p_loo"], "minus2_lppd_loo": -2.0 * loo["lppd_loo"]}
        assert {row: cells[mode] for row, cells in rows.items() if not isinstance(cells[mode], str)} == want


def test_schools_table_on_one_school_leaves_only_loo_undefined(runner, tmp_path):
    path = _write(tmp_path, "one.csv", "school,y,sigma\nA,28,15\n")
    result = runner.invoke(main, ["schools-table", "--input", path, "--draws", "200", "--format", "json"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)["rows"]
    for row, cells in rows.items():
        for mode, cell in cells.items():
            if row in ("p_loo", "minus2_lppd_loo"):
                want = UNDEFINED_LOO_NO_POOLING if mode == "no_pooling" else UNDEFINED_LOO_ONE_GROUP
                assert cell == want, (row, mode)
            elif mode == "hierarchical" and row in ("minus2_lpd_mle", "k", "aic"):
                assert cell == UNDEFINED_AIC_HIERARCHICAL, (row, mode)
            else:
                assert isinstance(cell, float), (row, mode)


def test_schools_table_single_draw_leaves_out_the_rows_one_draw_cannot_give(runner):
    rows = json.loads(runner.invoke(main, ["schools-table", "--draws", "1", "--format", "json"]).output)["rows"]
    assert all(cell is None for row in ("p_waic2", "waic") for cell in rows[row].values())
    for fmt in ("table", "csv"):
        result = runner.invoke(main, ["schools-table", "--draws", "1", "--format", fmt])
        assert result.exit_code == 0, result.output
        names = {line.replace(",", " ").split()[0] for line in result.output.splitlines() if line}
        assert "p_waic1" in names and not names & {"p_waic2", "waic"}


def test_election_json_and_histogram(runner, tmp_path):
    hist = tmp_path / "hist.csv"
    result = runner.invoke(
        main,
        ["election", "--draws", "4000", "--seed", "3", "--format", "json",
         "--hist-out", str(hist)],
    )
    assert result.exit_code == 0
    rep = json.loads(result.output)
    assert rep["mle"]["a"] == pytest.approx(45.9, abs=0.05)
    assert len(rep["lpd_posterior"]["bin_left"]) == 30
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "bin_left,count"
    assert len(lines) == 31
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 4000
    hist_json = rep["lpd_posterior"]
    assert lines[1:] == [f"{left!r},{count}" for left, count in zip(hist_json["bin_left"], hist_json["counts"])]


def test_same_seed_byte_identical_output(runner, tmp_path):
    args = ["election", "--draws", "3000", "--seed", "42", "--format", "json"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_json_report_round_trip_identity(runner):
    args = ["schools-table", "--draws", "3000", "--seed", "5", "--format", "json"]
    out = runner.invoke(main, args).output
    decoded = json.dumps(json.loads(out), indent=2)
    assert decoded == out.strip()


def test_oracle_command(runner):
    result = runner.invoke(main, ["oracle", "--n", "1", "--m", "0", "--format", "json"])
    assert result.exit_code == 0
    table = json.loads(result.output)
    assert table["p_waic1"] == pytest.approx(0.3069, abs=5e-5)
    assert table["p_waic2"] == 0.5


def test_oracle_command_with_data_vector(runner):
    result = runner.invoke(
        main, ["oracle", "--n", "2", "--y", "0,2", "--format", "json"]
    )
    table = json.loads(result.output)
    assert table["lppd_loo"] == pytest.approx(-np.log(4 * np.pi) - 2, rel=1e-12)
    bad = runner.invoke(main, ["oracle", "--n", "3", "--y", "0,2"])
    assert bad.exit_code == 2


def test_oracle_command_with_one_data_point_has_no_loo_entries(runner):
    result = runner.invoke(main, ["oracle", "--n", "1", "--y", "0.5", "--format", "json"])
    assert result.exit_code == 0, result.output
    table = json.loads(result.output)
    assert table["ybar"] == 0.5
    assert "lppd_loo" not in table and "lppd_bar_minus_i" not in table


def test_oracle_loo_entries_from_statistics_match_those_from_data(runner):
    y = np.array([0.3, -1.2, 2.05, 0.7])
    prior = ["--n", "4", "--m", "1.5", "--mu0", "0.4", "--format", "json"]
    from_y = runner.invoke(main, ["oracle", *prior, "--y", ",".join(map(repr, y.tolist()))])
    from_stats = runner.invoke(main, ["oracle", *prior, "--ybar", repr(float(y.mean())),
                                      "--s2y", repr(float(y.var(ddof=1)))])
    assert from_y.exit_code == from_stats.exit_code == 0
    by_y, by_stats = json.loads(from_y.output), json.loads(from_stats.output)
    for key in ("lppd_loo", "lppd_bar_minus_i"):
        assert by_stats[key] == pytest.approx(by_y[key], rel=1e-12)


@pytest.mark.parametrize("given", [["--ybar", "5"], ["--s2y", "9"], ["--ybar", "5", "--s2y", "9"]])
def test_oracle_data_vector_refuses_summary_statistics(runner, given):
    result = runner.invoke(main, ["oracle", "--n", "3", *given, "--y", "1,2,3"])
    assert result.exit_code == 2
    named = " and ".join(opt for opt in given if opt.startswith("--"))
    assert f"error: {named} cannot be given with --y" in result.output


def test_expect_command_and_replicate_guard(runner):
    result = runner.invoke(
        main,
        ["expect", "--n", "10", "--m", "0", "--replicates", "20000",
         "--estimator", "p_waic2", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    stat = payload["estimators"]["p_waic2"]
    assert stat["mc_mean"] == pytest.approx(0.95, abs=0.01)
    assert abs(stat["z_score"]) < 3
    guard = runner.invoke(main, ["expect", "--n", "10", "--replicates", "5"])
    assert guard.exit_code == 2
    assert "too few replicates" in guard.output


def test_csv_format_outputs(runner, tmp_path):
    path = _write(tmp_path, "m.csv", "point_1,point_2\n-1,-2\n-1.5,-1.8\n")
    result = runner.invoke(main, ["criteria", "--input", path, "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "name,value"
    assert any(line.startswith("lppd,") for line in lines)
    table = runner.invoke(
        main, ["schools-table", "--draws", "2000", "--seed", "4", "--format", "csv"]
    )
    header = table.output.splitlines()[0]
    assert header == "row,no_pooling,complete_pooling,hierarchical"
    expect_csv = runner.invoke(
        main,
        ["expect", "--n", "3", "--replicates", "2000", "--estimator", "aic", "--format", "csv"],
    )
    assert expect_csv.output.splitlines()[0] == "estimator,mc_mean,mc_se,oracle,z"


def test_expect_curve_csv(runner):
    result = runner.invoke(
        main,
        ["expect", "--n-values", "2,5", "--estimator", "cloo", "--replicates", "2000"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,estimator,mc_mean,mc_se,oracle"
    assert len(lines) == 3


def test_fit_normal_mean(runner, tmp_path):
    path = _write(tmp_path, "y.csv", "0.0\n2.0\n1.0\n-0.5\n")
    result = runner.invoke(
        main,
        ["fit", "--model", "normal-mean", "--input", path, "--draws", "5000",
         "--seed", "9", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["seed"] == 9 and payload["draws"] == 5000
    assert payload["report"]["p_dic"] == pytest.approx(1.0, abs=0.1)
    # the point-estimate log densities are the exact sums at ybar and at
    # the conjugate posterior mean
    y = np.array([0.0, 2.0, 1.0, -0.5])
    result = runner.invoke(
        main,
        ["fit", "--model", "normal-mean", "--input", path, "--m", "1.5", "--mu0", "0.4",
         "--draws", "500", "--format", "json"],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)["report"]
    post_mean = (1.5 * 0.4 + y.sum()) / (1.5 + y.size)
    for field, center in (("lpd_at_mle", y.mean()), ("lpd_at_mean", post_mean)):
        want = float((-0.5 * np.log(2 * np.pi) - 0.5 * (y - center) ** 2).sum())
        assert report[field] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_fit_balanced_counting_modes(runner, tmp_path):
    path = _write(tmp_path, "bal.csv", "group_1,group_2\n1.0,2.0\n0.5,1.5\n1.5,2.5\n")
    by_obs = runner.invoke(
        main,
        ["fit", "--model", "balanced", "--input", path, "--tau", "1.0",
         "--counting", "observation", "--draws", "2000", "--format", "json"],
    )
    by_grp = runner.invoke(
        main,
        ["fit", "--model", "balanced", "--input", path, "--tau", "1.0",
         "--counting", "group", "--draws", "2000", "--format", "json"],
    )
    assert by_obs.exit_code == 0 and by_grp.exit_code == 0
    obs = json.loads(by_obs.output)
    grp = json.loads(by_grp.output)
    assert obs["n_points"] == 6 and grp["n_points"] == 2
    assert obs["report"]["p_waic2"] != grp["report"]["p_waic2"]
    bad = _write(tmp_path, "bad.csv", "g1,g2\n1,2\n")
    assert runner.invoke(
        main, ["fit", "--model", "balanced", "--input", bad]
    ).exit_code == 2


def test_loo_of_the_balanced_model_is_a_model_refusal(runner, tmp_path):
    path = _write(tmp_path, "bal.csv", "group_1,group_2,group_3\n1.0,2.0,0.5\n0.5,1.5,1.0\n1.5,2.5,0.0\n")
    refused = runner.invoke(main, ["loo", "--model", "balanced", "--input", path, "--draws", "100"])
    assert refused.exit_code == 4
    assert "model refusal: the balanced model supports `fit` only (known hyperparameters)" in refused.output


def test_loo_regression_matches_election_report(runner):
    result = runner.invoke(
        main, ["loo", "--model", "regression", "--draws", "3000", "--seed", "12", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["loo"]["p_loo"] == pytest.approx(2.9, abs=0.4)
    assert len(payload["loo"]["per_point"]) == 15


@pytest.mark.parametrize("mode", ["no_pooling", "complete_pooling", "hierarchical"])
def test_fit_schools_reports_the_mle_of_flat_modes(runner, mode):
    result = runner.invoke(
        main, ["fit", "--model", "schools", "--mode", mode, "--draws", "500", "--format", "json"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)["report"]
    if mode == "hierarchical":
        assert report["lpd_at_mle"] is None and report["aic"] is None
        return
    mle = SchoolsModel(mode).fit(load_schools_csv(), draws=1, seed=0).point_estimates().mle
    assert (report["lpd_at_mle"], report["k"]) == (mle.total_loglik, mle.k)
    assert report["aic"] == -2.0 * (mle.total_loglik - mle.k)


# a valid value of every model option
_MODEL_OPTION_VALUES = {"--m": "5", "--mu0": "1", "--mode": "no_pooling", "--prediction-mode": "new",
                        "--mu": "1", "--tau": "2", "--counting": "group", "--dic-parameterization": "sigma"}


@pytest.mark.parametrize("command,model,option", [
    (command, model, option)
    for command in ("fit", "loo")
    for model, reads in MODEL_OPTIONS.items()
    for option in _MODEL_OPTION_VALUES
    if option not in reads and (command, option) != ("loo", "--dic-parameterization")
])
def test_a_model_option_another_model_reads_is_refused(runner, command, model, option):
    result = runner.invoke(main, [command, "--model", model, option, _MODEL_OPTION_VALUES[option],
                                  "--draws", "10"])
    assert result.exit_code == 2
    assert result.output == f"error: {option} is not read by the {model} model\n"


# A model, oracle or study setting that is NaN or infinite (or a tau not
# above 0) exits 2 with a message naming it, before anything is computed.
BAD_SETTINGS = [
    (["fit", "--model", "normal-mean", "--m", "nan"], "m must be finite"),
    (["fit", "--model", "normal-mean", "--m", "1", "--mu0", "inf"], "mu0 must be finite"),
    (["loo", "--model", "normal-mean", "--m", "inf"], "m must be finite"),
    (["fit", "--model", "balanced", "--mu", "nan"], "mu must be finite"),
    (["fit", "--model", "balanced", "--tau", "inf"], "tau must be finite"),
    (["fit", "--model", "balanced", "--tau", "0"], "tau must be positive"),
    (["oracle", "--n", "3", "--m", "nan"], "m must be finite"),
    (["oracle", "--n", "3", "--ybar", "nan"], "ybar must be finite"),
    (["oracle", "--n", "3", "--s2y", "inf"], "s2y must be finite"),
    (["oracle", "--n", "3", "--mu0", "-inf"], "mu0 must be finite"),
    (["expect", "--n", "3", "-R", "10", "--m", "nan"], "m must be finite"),
    (["expect", "--n", "3", "-R", "10", "--theta0", "nan"], "theta0 must be finite"),
    # a setting the closed forms or a model invert or square out of double range
    (["expect", "--n", "3", "--m", "5e-324", "-R", "200"], "1/m must be finite, got inf"),
    (["oracle", "--n", "3", "--m", "5e-324"], "1/m must be finite, got inf"),
    (["fit", "--model", "normal-mean", "--m", "5e-324"], "1/m must be finite, got inf"),
    (["loo", "--model", "normal-mean", "--m", "5e-324"], "1/m must be finite, got inf"),
    (["expect", "--n", "3", "--m", "1", "--theta0", "1e200", "-R", "200"], "theta0^2 must be finite, got inf"),
    (["fit", "--model", "balanced", "--tau", "1e-200"], "1/tau^2 must be finite, got inf"),
    (["fit", "--model", "balanced", "--tau", "1e-160"], "1/tau^2 must be finite, got inf"),
    (["fit", "--model", "balanced", "--tau", "1e200"], "tau^2 must be finite, got inf"),
    (["oracle", "--n", "2", "--y", "1,nan"], "--y values must be finite, got nan"),
    (["oracle", "--n", "2", "--y", "1,1e999"], "--y values must be finite, got inf"),
]


@pytest.mark.parametrize("argv, message", BAD_SETTINGS, ids=lambda v: "_".join(v) if isinstance(v, list) else None)
def test_a_non_finite_setting_exits_2_naming_it(runner, tmp_path, argv, message):
    if "--model" in argv:
        data = {"normal-mean": _Y, "balanced": _GROUPS}[argv[argv.index("--model") + 1]]
        argv = [*argv, "--input", _write(tmp_path, "in.csv", data), "--draws", "100"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output


@pytest.mark.parametrize("argv, message", [
    (["expect", "--n", "3", "--m", "1", "--theta0", "1.3e154", "-R", "200"], "aic is -inf: the replicate values"),
    (["oracle", "--n", "5", "--s2y", "1e308"], "lpd_at_mle is -inf: the closed forms"),
    (["oracle", "--n", "3", "--m", "1", "--ybar", "1e200"], "lpd_at_posterior_mean is -inf: the closed forms"),
], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
def test_closed_forms_that_overflow_exit_3_naming_the_first_non_finite_field(runner, argv, message):
    # one line, no traceback and no numpy warning (pytest makes one an error)
    result = runner.invoke(main, argv)
    assert result.exit_code == 3, result.output
    assert result.stderr == f"numeric validity error: {message} overflow double precision\n"


@pytest.mark.parametrize("argv", [
    ["expect", "--n", "3", "--m", "1e-308", "-R", "200"],
    ["expect", "--n", "3", "--m", "1e-308", "-R", "200", "--estimator", "dic"],
    ["expect", "--n", "3", "--m", "1e200", "-R", "200"],
    ["oracle", "--n", "3", "--ybar", "1e200"],
    ["oracle", "--n", "3", "--m", "1e200"],
    ["oracle", "--n", "2", "--y", "1e200,1e200"],
], ids="_".join)
def test_closed_forms_whose_exact_values_are_finite_exit_0(runner, argv):
    # the prior's weight applies before ybar - mu0 multiplies in, so no
    # term is 0 x inf; no numpy warning either (pytest makes one an error)
    result = runner.invoke(main, [*argv, "--format", "json"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    payload = json.loads(result.stdout)
    if argv[0] == "oracle" and "--m" not in argv:  # flat prior: the posterior mean is ybar
        assert payload["lpd_at_posterior_mean"] == payload["lpd_at_mle"]


_DIC_CHOICES = tuple(p.replace("_", "-") for p in DIC_PARAMETERIZATIONS)


@pytest.mark.parametrize("command, option, choices", [
    ("fit", "--mode", POOLING_MODES),
    ("loo", "--mode", POOLING_MODES),
    ("fit", "--counting", COUNTINGS),
    ("loo", "--counting", COUNTINGS),
    ("fit", "--dic-parameterization", _DIC_CHOICES),
    ("election", "--dic-parameterization", _DIC_CHOICES),
])
def test_a_model_options_choices_are_the_models_own(command, option, choices):
    param = next(p for p in main.commands[command].params if option in p.opts)
    assert tuple(param.type.choices) == choices


def test_fit_regression_matches_election_report(runner):
    result = runner.invoke(
        main, ["fit", "--model", "regression", "--draws", "2000", "--seed", "12", "--format", "json"]
    )
    assert result.exit_code == 0
    report = election_report(load_election_csv(), draws=2000, seed=12, dic_parameterization="log_sigma")
    assert json.loads(result.output)["report"] == report["criteria"]


def test_election_report_is_fit_and_loo_of_the_regression_model(runner):
    argv = ["--model", "regression", "--draws", "2000", "--seed", "12", "--format", "json"]
    report = election_report(load_election_csv(), draws=2000, seed=12, dic_parameterization="log_sigma")
    assert json.loads(runner.invoke(main, ["fit", *argv]).output)["report"] == report["criteria"]
    assert json.loads(runner.invoke(main, ["loo", *argv]).output)["loo"] == report["loo"]


def test_fit_single_draw_table_prints_warnings(runner, tmp_path):
    path = _write(tmp_path, "y.csv", "0.0\n2.0\n1.0\n")
    result = runner.invoke(main, ["fit", "--model", "normal-mean", "--input", path, "--draws", "1"])
    assert result.exit_code == 0
    assert "warning: variance-based estimates" in result.output
    # election leaves out the criteria one draw cannot give, and says why
    for fmt in ("table", "csv"):
        result = runner.invoke(main, ["election", "--draws", "1", "--format", fmt])
        assert result.exit_code == 0
        names = {line.replace(",", " ").split()[0] for line in result.output.splitlines()}
        assert "p_waic1" in names and "p_waic2" not in names
        assert ("warning: variance-based estimates" in result.output) == (fmt == "table")


@pytest.mark.parametrize("draws", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["fit", "--model", "regression"],
    ["loo", "--model", "regression"],
    ["schools-table"],
    ["election"],
], ids=lambda argv: argv[0])
def test_draws_below_one_is_a_usage_error(runner, command, draws):
    result = runner.invoke(main, [*command, "--draws", draws])
    assert result.exit_code == 2
    assert "--draws" in result.output


def test_fit_rows_carry_nested_summary_fields(runner):
    argv = ["fit", "--model", "regression", "--draws", "500", "--seed", "3"]
    payload = json.loads(runner.invoke(main, [*argv, "--format", "json"]).output)
    rows = {name: float(value) for name, value in
            csv.reader(runner.invoke(main, [*argv, "--format", "csv"]).output.splitlines()[1:])}
    for section in ("mle", "posterior_means"):
        for key, value in payload[section].items():
            assert rows[f"{section}_{key}"] == value
    table = [line.split()[0] for line in runner.invoke(main, argv).output.splitlines()]
    assert table[:8] == ["mle_a", "mle_b", "mle_sigma", "posterior_means_a", "posterior_means_b",
                         "posterior_means_sigma", "posterior_means_sigma2", "posterior_means_log_sigma"]


def test_fit_rows_carry_list_fields_one_per_entry(runner):
    argv = ["fit", "--model", "schools", "--draws", "200", "--seed", "3"]
    payload = json.loads(runner.invoke(main, [*argv, "--format", "json"]).output)
    rows = {name: float(value) for name, value in
            csv.reader(runner.invoke(main, [*argv, "--format", "csv"]).output.splitlines()[1:])}
    assert len(payload["theta_bayes"]) == 8
    for k, value in enumerate(payload["theta_bayes"], start=1):
        assert rows[f"theta_bayes_{k}"] == value
    table = [line.split()[0] for line in runner.invoke(main, argv).output.splitlines()]
    assert table[:8] == [f"theta_bayes_{k}" for k in range(1, 9)]


def test_curve_runs_the_plan_of_its_options(runner):
    opts = ["--estimator", "aic", "-R", "2000", "--m", "1", "--theta0", "3", "--format", "json"]
    curve = json.loads(runner.invoke(main, ["expect", "--n-values", "2,3", *opts]).output)
    single = json.loads(runner.invoke(main, ["expect", "--n", "3", *opts]).output)
    oracle_at_3 = single["estimators"]["aic"]["oracle_value"]
    assert oracle_at_3 == pytest.approx(-0.4347, abs=1e-4)
    assert [row["oracle"] for row in curve if row["n"] == 3] == [oracle_at_3]
    bad = runner.invoke(main, ["expect", "--n-values", "2,x", "--estimator", "aic"])
    assert bad.exit_code == 2
    assert "--n-values" in bad.output


def test_expect_theta0_fixes_the_true_mean_under_a_proper_prior(runner):
    # a given --theta0 fixes the true mean whatever --m is
    opts = ["--n", "5", "--m", "1", "-R", "2000", "--estimator", "aic", "--format", "json"]
    fixed = json.loads(runner.invoke(main, ["expect", *opts, "--theta0", "3"]).output)
    assert fixed["theta0"] == 3.0 and "theta_source" not in fixed
    assert fixed["estimators"]["aic"]["oracle_value"] == oracle.expectations(5, 1.0, 9.0)["aic"]
    result = runner.invoke(main, ["expect", *opts, "--theta-source", "fixed"])
    assert result.exit_code == 2
    assert "--theta-source" in result.output


def test_curve_refuses_n(runner):
    # expect takes exactly one of --n and --n-values
    for ns in (["--n-values", "2", "--n", "7"], []):
        result = runner.invoke(main, ["expect", *ns, "--estimator", "aic", "-R", "100"])
        assert result.exit_code == 2
        assert "--n " in result.output and "--n-values" in result.output


def test_curve_of_two_estimators_is_the_two_single_curves(runner):
    argv = ["expect", "--n-values", "3,2", "-R", "500", "--seed", "5", "--format", "json"]
    both = json.loads(runner.invoke(main, [*argv, "--estimator", "cloo", "--estimator", "aic"]).output)
    for name in ("cloo", "aic"):
        single = json.loads(runner.invoke(main, [*argv, "--estimator", name]).output)
        assert [row for row in both if row["estimator"] == name] == single
    assert [(row["n"], row["estimator"]) for row in both] == [(3, "cloo"), (3, "aic"), (2, "cloo"), (2, "aic")]


def test_curve_default_estimators_follow_its_smallest_n(runner):
    # the held-out estimators need n >= 2, so a sweep through n = 1 leaves them out at every n
    names = {}
    for sweep in ("1,3", "3,1"):
        argv = ["expect", "--n-values", sweep, "-R", "100", "--format", "json"]
        rows = json.loads(runner.invoke(main, argv).output)
        names[sweep] = {n: [row["estimator"] for row in rows if row["n"] == n] for n in (1, 3)}
    assert names["1,3"] == names["3,1"]
    assert names["1,3"][3] == names["1,3"][1] and "loo" not in names["1,3"][3]
    rows = json.loads(runner.invoke(main, ["expect", "--n-values", "2,3", "-R", "100", "--format", "json"]).output)
    assert len(rows) == 2 * len(ESTIMATOR_NAMES)


def _flat_field(payload, name, column):
    sections = [payload, payload.get("report", {}), payload.get("loo", {})]
    nested = {f"{k}_{f}": x for k, v in payload.items() if isinstance(v, dict) for f, x in v.items()}
    listed = {f"{k}_{j}": x for section in sections for k, v in section.items() if isinstance(v, list)
              for j, x in enumerate(v, start=1)}
    return {**nested, **listed, **{k: v for section in sections for k, v in section.items()}}[name]


def _election_field(payload, name, column):
    prefix, _, key = name.partition("_")
    section = {"mle": "mle", "E": "posterior_means", "lpd": "lpd_posterior"}.get(prefix)
    if section:
        return payload[section][key]
    return {**payload["criteria"], **payload["loo"]}[name]


def _expect_field(payload, name, column):
    return payload["estimators"][name][{"oracle": "oracle_value", "z": "z_score"}.get(column, column)]


_D = ["--draws", "1000", "--seed", "7"]
_Y = "0.0\n2.0\n1.0\n-0.5\n"
_GROUPS = "group_1,group_2\n1.0,2.0\n0.5,1.5\n1.5,2.5\n"
# command -> (argv, text of its --input file or None, the JSON field behind CSV cell (name, column))
EMITTED = {
    "criteria": (["criteria", "--mle-loglik", "-2.5", "--k", "2", "--lpd-at-mean", "-2.8"],
                 "point_1,point_2\n-1,-2\n-1.5,-1.8\n-1.2,-2.5\n",
                 lambda p, name, col: {**p, **p["report"]}[name]),
    "fit-normal-mean": (["fit", "--model", "normal-mean", "--m", "1.5", "--mu0", "0.4", *_D], _Y, _flat_field),
    "fit-schools-no-pooling": (["fit", "--model", "schools", "--mode", "no_pooling", *_D], None, _flat_field),
    "fit-schools-complete-pooling": (["fit", "--model", "schools", "--mode", "complete_pooling", *_D], None,
                                     _flat_field),
    "fit-schools-hierarchical": (["fit", "--model", "schools", *_D], None, _flat_field),
    "fit-balanced-observation": (["fit", "--model", "balanced", *_D], _GROUPS, _flat_field),
    "fit-balanced-group": (["fit", "--model", "balanced", "--counting", "group", *_D], _GROUPS, _flat_field),
    "fit-single-draw": (["fit", "--model", "regression", "--draws", "1"], None, _flat_field),
    "loo-normal-mean": (["loo", "--model", "normal-mean", *_D], _Y, _flat_field),
    "loo-regression": (["loo", "--model", "regression", *_D], None, _flat_field),
    "loo-schools-complete-pooling": (["loo", "--model", "schools", "--mode", "complete_pooling", *_D], None,
                                     _flat_field),
    "loo-schools-hierarchical": (["loo", "--model", "schools", *_D], None, _flat_field),
    "schools-table": (["schools-table", *_D], None, lambda p, name, col: p["rows"][name][col]),
    "schools-table-single-draw": (["schools-table", "--draws", "1"], None, lambda p, name, col: p["rows"][name][col]),
    "election": (["election", *_D], None, _election_field),
    "election-single-draw": (["election", "--draws", "1"], None, _election_field),
    "oracle": (["oracle", "--n", "3", "--y", "0,2,1"], None, _flat_field),
    "expect": (["expect", "--n", "5", "-R", "2000"], None, _expect_field),
    "expect-curve": (["expect", "--n-values", "2,5", "--estimator", "aic", "-R", "2000"], None,
                     lambda p, name, col: {str(row["n"]): row for row in p}[name][col]),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("command", list(EMITTED))
def test_every_command_renders_one_report_in_every_format(runner, tmp_path, command, fmt):
    argv, input_text, field = EMITTED[command]
    if input_text is not None:
        argv = [*argv, "--input", _write(tmp_path, "in.csv", input_text)]
    payload = json.loads(runner.invoke(main, [*argv, "--format", "json"]).output)
    result = runner.invoke(main, [*argv, "--format", fmt])
    assert result.exit_code == 0
    if fmt == "json":
        assert json.loads(result.output) == payload
        return
    header, *rows = list(csv.reader(runner.invoke(main, [*argv, "--format", "csv"]).output.splitlines()))
    if fmt == "csv":
        for name, *cells in rows:
            for column, cell in zip(header[1:], cells):
                want = field(payload, name, column)
                assert (cell if isinstance(want, str) else float(cell)) == want, (name, column)
        return
    if command == "expect-curve":  # a curve is plot data: its table is its CSV
        assert result.output == runner.invoke(main, [*argv, "--format", "csv"]).output
        return
    lines = result.output.splitlines()
    if len(header) > 2:  # several columns: the table repeats the header
        assert lines.pop(0).split() == header
    assert [line.split()[0] for line in lines[: len(rows)]] == [row[0] for row in rows]
    report = payload.get("report") or payload.get("criteria") or {}
    warnings = [f"warning: {w}" for w in report.get("warnings", [])]
    assert lines[len(lines) - len(warnings):] == warnings


@pytest.mark.parametrize("command", ["fit", "loo"])
def test_normal_mean_data_whose_spread_overflows_is_refused_with_one_error_line(command, runner, tmp_path):
    y = tmp_path / "y.txt"
    y.write_text("1.5e154\n-1.5e154\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, [command, "--model", "normal-mean", "--input", str(y), "--draws", "100"])
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: s2y must be finite, got inf\n"


@pytest.mark.parametrize("argv", [["oracle", "--n", "3", "--output"],
                                  ["election", "--draws", "200", "--hist-out"]])
def test_an_unwritable_output_path_exits_2_with_one_error_line(argv, runner, tmp_path):
    target = tmp_path / "no-such-dir" / "out"
    result = runner.invoke(main, argv + [str(target)])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: [Errno 2] No such file or directory: '{target}'\n"
