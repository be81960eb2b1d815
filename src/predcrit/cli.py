"""Command-line entry point.

Exit codes: 0 success, 2 malformed input or an output path that cannot
be written, 3 non-finite log densities, 4 model refusal (e.g. LOO under
no pooling). All randomness in a run derives from the single --seed flag;
reports echo seed and draw count.
"""
from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np
from click.core import ParameterSource

from .criteria import PointEstimateLogLik, criterion_report
from .draws import _require_finite, lppd, read_loglik_csv
from .errors import MatrixFormatError, ModelRefusalError, NonFiniteLogLikError
from .expectation import ESTIMATOR_NAMES, ReplicationPlan, bias_curve, run_expectation_study
from .loo import loo_report
from .models import (
    COUNTINGS,
    DIC_PARAMETERIZATIONS,
    POOLING_MODES,
    BalancedModel,
    NormalMeanModel,
    NormalMeanSpec,
    RegressionModel,
    SchoolsModel,
    load_balanced_csv,
    load_election_csv,
    load_schools_csv,
)
from . import oracle as oracle_mod
from .reports import election_report, schools_table_report
from .seeds import FIT_STREAM, FOLD_STREAM, derive_seed

EXIT_FORMAT = 2
EXIT_NUMERIC = 3
EXIT_REFUSAL = 4

# The model options each --model reads; `fit` and `loo` refuse any other
# model option given on the command line.
MODEL_OPTIONS = {
    "normal-mean": ("--m", "--mu0"),
    "regression": ("--dic-parameterization",),
    "schools": ("--mode", "--prediction-mode"),
    "balanced": ("--mu", "--tau", "--counting"),
}
MODEL_CHOICES = tuple(MODEL_OPTIONS)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MatrixFormatError as exc:
            click.echo(f"input format error: {exc}", err=True)
            sys.exit(EXIT_FORMAT)
        except NonFiniteLogLikError as exc:
            click.echo(f"numeric validity error: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        except ModelRefusalError as exc:
            click.echo(f"model refusal: {exc}", err=True)
            sys.exit(EXIT_REFUSAL)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_FORMAT)

    return wrapper


def _numeric_rows(fields: dict) -> list:
    """One (name, (value,)) row per numeric field of a report, in order; a
    field holding a dict gives one `<field>_<key>` row per numeric entry,
    and a list one `<field>_<k>` row per numeric entry, k counted from 1."""
    rows = []
    for k, v in fields.items():
        if isinstance(v, dict):
            items = [(f"{k}_{f}", x) for f, x in v.items()]
        elif isinstance(v, list):
            items = [(f"{k}_{j}", x) for j, x in enumerate(v, start=1)]
        else:
            items = [(k, v)]
        rows += [(name, (x,)) for name, x in items if isinstance(x, (int, float))]
    return rows


def _numbers(tokens, source: str, kind=float) -> list:
    """The non-blank `tokens` as numbers of `kind`; the first bad one is
    named by its place among them in `source`."""
    values = []
    for j, t in enumerate((t for t in tokens if t.strip()), start=1):
        try:
            values.append(kind(t))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise MatrixFormatError(f"value {j} of {source} is not {noun}: {t!r}") from None
    return values


def _emit(payload, rows, fmt, output, *, columns=("value",), label="name", decimals=4,
          warnings=()) -> None:
    """Write one report to `output` (default stdout): `payload` as JSON, or
    the `rows` of (name, cells) under the header (`label`, *`columns`) as
    CSV or as a table.

    CSV writes a number as repr(float) and text as given (no text cell
    holds a comma). A table left-justifies the names, right-justifies each
    column at `decimals`, and heads the columns only when there is more
    than one. A text cell shows the words before its first colon; its full
    text is listed once below the table, ahead of one line per warning.
    """
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    elif fmt == "csv":
        text = "\n".join(",".join((name, *(v if isinstance(v, str) else repr(float(v)) for v in cells)))
                         for name, cells in [(label, columns), *rows])
    else:
        grid = [(name, [v.split(":")[0] if isinstance(v, str) else f"{float(v):.{decimals}f}" for v in cells])
                for name, cells in rows]
        if len(columns) > 1:
            grid.insert(0, (label, list(columns)))
        name_width = max(len(name) for name, _ in grid)
        widths = [max(len(cells[j]) for _, cells in grid) for j in range(len(columns))]
        lines = [name.ljust(name_width) + "".join("  " + c.rjust(w) for c, w in zip(cells, widths))
                 for name, cells in grid]
        texts = dict.fromkeys(v for _, cells in rows for v in cells if isinstance(v, str) and ":" in v)
        if texts:
            lines += [""] + [f"[{t.split(':')[0]}] {t}" for t in texts]
        text = "\n".join(lines + [f"warning: {w}" for w in warnings])
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


draws_option = click.option(
    "--draws", "-S", type=click.IntRange(min=1), default=100_000, show_default=True, help="posterior draws per fit"
)
seed_option = click.option(
    "--seed", type=int, default=12345, show_default=True, help="master seed; all streams derive from it"
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["table", "json", "csv"]), default="table",
    show_default=True,
)
output_option = click.option("--output", type=click.Path(), default=None, help="write to file instead of stdout")
dic_parameterization_option = click.option(
    "--dic-parameterization", type=click.Choice([p.replace("_", "-") for p in DIC_PARAMETERIZATIONS]),
    default="log-sigma", show_default=True, help="scale point estimate for DIC (regression)"
)


@click.group()
@click.version_option(package_name="predcrit")
def main():
    """Predictive-accuracy estimates from posterior draws."""


# ---------------------------------------------------------------------------
@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lpd-at-mean", type=float, default=None, help="log p(y | posterior mean), enables DIC")
@click.option("--mle-loglik", type=float, default=None, help="log p(y | MLE), enables AIC/BIC (needs --k)")
@click.option("--k", type=int, default=None, help="number of parameters at the MLE")
@format_option
@output_option
@_handle_errors
def criteria(input_path, lpd_at_mean, mle_loglik, k, fmt, output):
    """Criteria from a pointwise log-likelihood CSV (rows = draws)."""
    if (k is None) != (mle_loglik is None):
        raise ValueError("--mle-loglik requires --k" if k is None else "--k requires --mle-loglik")
    mat = read_loglik_csv(input_path)
    mle = None if mle_loglik is None else PointEstimateLogLik(mle_loglik, k)
    rep = criterion_report(mat, lpd_at_mean=lpd_at_mean, mle=mle)
    payload = {"draws": mat.n_draws, "points": mat.n_points, "seed": None, "report": rep.to_dict()}
    rows = [("draws", (mat.n_draws,)), ("points", (mat.n_points,))] + _numeric_rows(payload["report"])
    _emit(payload, rows, fmt, output, warnings=rep.warnings)


# ---------------------------------------------------------------------------
def _read_values(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8-sig") as fh:
        tokens = fh.read().replace(",", "\n").split()
    if not tokens:
        raise MatrixFormatError("empty data file")
    return _require_finite(np.array(_numbers(tokens, "the data file")), "data file values")


def _build_model(model, input_path, m, mu0, mode, prediction_mode, mu, tau, counting,
                 dic_parameterization="log-sigma"):
    """(model object, data object) for a built-in family. A model option
    given on the command line that `model` does not read is refused."""
    ctx = click.get_current_context()
    for param in ctx.command.params:
        flag = param.opts[0]
        if (ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE
                and flag not in MODEL_OPTIONS[model]
                and any(flag in flags for flags in MODEL_OPTIONS.values())):
            raise ValueError(f"{flag} is not read by the {model} model")
    if model in ("normal-mean", "balanced") and input_path is None:
        raise ValueError(f"--input is required for the {model} model")
    if model == "normal-mean":
        return NormalMeanModel(m=m, mu0=mu0), _read_values(input_path)
    if model == "balanced":
        return BalancedModel(mu, tau, counting), load_balanced_csv(input_path)
    if model == "regression":
        return RegressionModel(dic_parameterization.replace("-", "_")), load_election_csv(input_path)
    pred = "new_groups" if prediction_mode == "new" else "existing_groups"
    return SchoolsModel(mode, pred), load_schools_csv(input_path)


model_options = [
    click.option("--model", type=click.Choice(MODEL_CHOICES), required=True),
    click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None),
    click.option("--m", type=float, default=0.0, show_default=True, help="prior precision (normal-mean)"),
    click.option("--mu0", type=float, default=0.0, show_default=True, help="prior mean (normal-mean)"),
    click.option("--mode", type=click.Choice(POOLING_MODES),
                 default="hierarchical", show_default=True, help="pooling mode (schools)"),
    click.option("--prediction-mode", type=click.Choice(["existing", "new"]), default="existing",
                 show_default=True, help="replication target (schools)"),
    click.option("--mu", type=float, default=0.0, show_default=True,
                 help="known population mean (balanced)"),
    click.option("--tau", type=float, default=1.0, show_default=True,
                 help="known population sd (balanced)"),
    click.option("--counting", type=click.Choice(COUNTINGS), default="observation",
                 show_default=True, help="what counts as one data point (balanced)"),
]


def _with_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return deco


@main.command()
@_with_options(model_options)
@dic_parameterization_option
@draws_option
@seed_option
@format_option
@output_option
@_handle_errors
def fit(model, input_path, draws, seed, fmt, output, **options):
    """Fit a built-in model and report its criteria."""
    model_obj, data = _build_model(model, input_path, **options)
    f = model_obj.fit(data, draws=draws, seed=derive_seed(seed, FIT_STREAM))
    mat = f.pointwise_loglik()
    pe = f.point_estimates()
    rep = criterion_report(mat, lpd_at_mean=pe.lpd_at_mean, mle=pe.mle)
    payload = {"draws": draws, "seed": seed, "model": model, **pe.summary, "report": rep.to_dict()}
    rows = _numeric_rows(pe.summary) + _numeric_rows(payload["report"])
    _emit(payload, rows, fmt, output, warnings=rep.warnings)


@main.command()
@_with_options(model_options)
@draws_option
@seed_option
@format_option
@output_option
@_handle_errors
def loo(model, input_path, draws, seed, fmt, output, **options):
    """Exact leave-one-out cross-validation from coupled fold posteriors."""
    model_obj, data = _build_model(model, input_path, **options)
    full_lppd = lppd(model_obj.fit(data, draws=draws, seed=derive_seed(seed, FIT_STREAM)).pointwise_loglik())
    loo_rep = loo_report(model_obj, data, full_lppd, draws=draws, seed=derive_seed(seed, FOLD_STREAM),
                         bias_correction=True)
    payload = {"draws": draws, "seed": seed, "model": model, "lppd": full_lppd, "loo": loo_rep.to_dict()}
    _emit(payload, [("lppd", (full_lppd,))] + _numeric_rows(payload["loo"]), fmt, output)


# ---------------------------------------------------------------------------
@main.command("schools-table")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None)
@draws_option
@seed_option
@format_option
@output_option
@_handle_errors
def schools_table(input_path, draws, seed, fmt, output):
    """Deviance table across no pooling / complete pooling / hierarchical."""
    table = schools_table_report(load_schools_csv(input_path), draws=draws, seed=seed)
    cols = table["columns"]
    # a row one draw cannot give (p_waic2, waic) is null in every column
    rows = [(name, [per_col[c] for c in cols]) for name, per_col in table["rows"].items()
            if any(v is not None for v in per_col.values())]
    _emit(table, rows, fmt, output, columns=cols, label="row", decimals=2)


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--hist-out", type=click.Path(), default=None, help="write the lpd histogram CSV here")
@dic_parameterization_option
@draws_option
@seed_option
@format_option
@output_option
@_handle_errors
def election(input_path, hist_out, dic_parameterization, draws, seed, fmt, output):
    """Regression example: fit, criteria, exact LOO, lpd posterior summary."""
    rep = election_report(load_election_csv(input_path), draws=draws, seed=seed,
                          dic_parameterization=dic_parameterization.replace("-", "_"))
    if hist_out:
        hist = rep["lpd_posterior"]
        _emit(None, [(repr(left), (str(count),)) for left, count in zip(hist["bin_left"], hist["counts"])],
              "csv", hist_out, columns=("count",), label="bin_left")
    sections = (
        ("mle_", rep["mle"], ("a", "b", "sigma")),
        ("E_", rep["posterior_means"], ("sigma", "sigma2", "log_sigma")),
        ("", rep["criteria"], ("lppd", "elpd_aic", "aic", "p_dic", "dic", "p_waic1", "p_waic2", "waic")),
        ("", rep["loo"], ("lppd_loo", "p_loo", "p_cloo")),
        ("lpd_", rep["lpd_posterior"], ("mean", "max", "gap")),
    )
    rows = [(prefix + k, (fields[k],)) for prefix, fields, keys in sections for k in keys if fields[k] is not None]
    _emit(rep, rows, fmt, output, warnings=rep["criteria"]["warnings"])


# ---------------------------------------------------------------------------
@main.command("oracle")
@click.option("--n", type=int, required=True)
@click.option("--m", type=float, default=0.0, show_default=True)
@click.option("--ybar", type=float, default=None, help="sample mean  [default: 0.0]")
@click.option("--s2y", type=float, default=None, help="sample variance  [default: 0.0]")
@click.option("--mu0", type=float, default=0.0, show_default=True)
@click.option("--y", "y_csv", type=str, default=None,
              help="comma-separated data vector; sets ybar and s2y")
@format_option
@output_option
@_handle_errors
def oracle(n, m, ybar, s2y, mu0, y_csv, fmt, output):
    """Closed-form values for the unit-variance normal-mean family."""
    if y_csv is None:
        spec = NormalMeanSpec(n=n, ybar=0.0 if ybar is None else ybar, s2y=0.0 if s2y is None else s2y,
                              m=m, mu0=mu0)
    else:
        given = [opt for opt, v in (("--ybar", ybar), ("--s2y", s2y)) if v is not None]
        if given:
            raise ValueError(f"{' and '.join(given)} cannot be given with --y, "
                             "which sets ybar and s2y from the data")
        y = _require_finite(np.array(_numbers(y_csv.split(","), "--y")), "--y values")
        if y.size != n:
            raise ValueError(f"--y has {y.size} values but --n is {n}")
        spec = NormalMeanSpec.from_data(y, m=m, mu0=mu0)
    table = oracle_mod.formula_table(spec)
    _emit(table, _numeric_rows(table), fmt, output)


# ---------------------------------------------------------------------------
@main.command()
@click.option("--n", type=int, default=None, help="data points per replicate")
@click.option("--m", type=float, default=0.0, show_default=True)
@click.option("--replicates", "-R", type=int, default=None,
              help="replicate datasets [default: 100000, or 10000 per point with --n-values]")
@click.option("--estimator", "estimators", multiple=True,
              type=click.Choice(ESTIMATOR_NAMES), help="repeatable; default all that n allows")
@click.option("--theta0", type=float, default=None,
              help="fixed true mean; the prior mean is 0 [default: drawn from the prior when --m > 0, else 0]")
@click.option("--n-values", type=str, default=None,
              help="comma-separated n sweep; emits a bias curve (CSV unless --format json)")
@seed_option
@format_option
@output_option
@_handle_errors
def expect(n, m, replicates, estimators, theta0, n_values, seed, fmt, output):
    """Monte Carlo validation of estimator expectations."""
    if (n is None) == (n_values is None):
        raise ValueError("give exactly one of --n and --n-values")
    if replicates is None:
        replicates = 100_000 if n_values is None else 10_000
    ns = [n] if n_values is None else _numbers(n_values.split(","), "--n-values", int)
    if not ns:
        raise ValueError("--n-values must name at least one n")
    # a sweep's plan is checked, and its default estimators chosen, at its smallest n
    plan = ReplicationPlan(
        R=replicates,
        n=min(ns),
        m=m,
        theta0=theta0,
        seed=seed,
        estimators=estimators,
    )
    if n_values is not None:
        rows = bias_curve(plan, ns)
        columns = ("estimator", "mc_mean", "mc_se", "oracle")
        _emit(rows, [(str(r["n"]), [r[c] for c in columns]) for r in rows],
              "csv" if fmt == "table" else fmt, output, columns=columns, label="n")
        return
    result = run_expectation_study(plan)
    rows = [(name, (s.mc_mean, s.mc_se, s.oracle_value, s.z_score)) for name, s in result.stats.items()]
    _emit(result.to_dict(), rows, fmt, output, columns=("mc_mean", "mc_se", "oracle", "z"),
          label="estimator", decimals=5)


if __name__ == "__main__":
    main()
