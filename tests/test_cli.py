import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from predcrit.cli import main
from predcrit.models import default_eight_schools
from predcrit.models.schools import schools_mle
from predcrit.reports import election_report


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


def test_exit_code_3_for_non_finite(runner, tmp_path):
    path = _write(tmp_path, "m.csv", "1.0,2.0\nnan,0.5\n")
    result = runner.invoke(main, ["criteria", "--input", path])
    assert result.exit_code == 3


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
        ["expect", "--curve", "--n-values", "2,5", "--estimator", "cloo",
         "--replicates", "2000"],
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
    lpd_mle, k = schools_mle(default_eight_schools(mode))
    assert (report["lpd_at_mle"], report["k"]) == (lpd_mle, k)
    assert report["aic"] == -2.0 * (lpd_mle - k)


def test_fit_regression_matches_election_report(runner):
    result = runner.invoke(
        main, ["fit", "--model", "regression", "--draws", "2000", "--seed", "12", "--format", "json"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["report"] == election_report(draws=2000, seed=12)["criteria"]


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
    opts = ["--estimator", "aic", "-R", "2000", "--m", "1", "--theta-source", "fixed", "--theta0", "3",
            "--format", "json"]
    curve = json.loads(runner.invoke(main, ["expect", "--curve", "--n-values", "2,3", *opts]).output)
    single = json.loads(runner.invoke(main, ["expect", "--n", "3", *opts]).output)
    oracle_at_3 = single["estimators"]["aic"]["oracle_value"]
    assert oracle_at_3 == pytest.approx(-0.4347, abs=1e-4)
    assert [row["oracle"] for row in curve if row["n"] == 3] == [oracle_at_3]
    bad = runner.invoke(main, ["expect", "--curve", "--n-values", "2,x", "--estimator", "aic"])
    assert bad.exit_code == 2
    assert "--n-values" in bad.output


def test_curve_refuses_n(runner):
    result = runner.invoke(main, ["expect", "--curve", "--n-values", "2", "--n", "7", "--estimator", "aic",
                                  "-R", "100"])
    assert result.exit_code == 2
    assert "--n " in result.output and "--n-values" in result.output


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
    "election": (["election", *_D], None, _election_field),
    "election-single-draw": (["election", "--draws", "1"], None, _election_field),
    "oracle": (["oracle", "--n", "3", "--y", "0,2,1"], None, _flat_field),
    "expect": (["expect", "--n", "5", "-R", "2000"], None, _expect_field),
    "expect-curve": (["expect", "--curve", "--n-values", "2,5", "--estimator", "aic", "-R", "2000"], None,
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
