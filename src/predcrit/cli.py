"""Command-line entry point.

Exit codes: 0 success, 2 malformed input, 3 non-finite log densities,
4 model refusal (e.g. LOO under no pooling). All randomness in a run
derives from the single --seed flag; reports echo seed and draw count.
"""
from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from .criteria import PointEstimateLogLik, criterion_report
from .draws import lppd, read_loglik_csv
from .errors import MatrixFormatError, ModelRefusalError, NonFiniteLogLikError
from .expectation import (
    ESTIMATOR_NAMES,
    _LOO_NAMES,
    ReplicationPlan,
    bias_curve,
    run_expectation_study,
)
from .loo import loo_report
from .models import (
    BalancedModel,
    NormalMeanModel,
    NormalMeanSpec,
    RegressionModel,
    SchoolsModel,
    default_eight_schools,
    default_election,
    load_balanced_csv,
    load_election_csv,
    load_schools_csv,
)
from . import oracle as oracle_mod
from .reports import election_report, schools_table_report, write_histogram_csv
from .seeds import derive_seed

EXIT_FORMAT = 2
EXIT_NUMERIC = 3
EXIT_REFUSAL = 4

MODEL_CHOICES = ("normal-mean", "regression", "schools", "balanced")


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
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_FORMAT)

    return wrapper


def _numeric_rows(fields: dict) -> list:
    """One (name, (value,)) row per numeric field of a report, in order; a
    field holding a dict gives one `<field>_<key>` row per numeric entry."""
    rows = []
    for k, v in fields.items():
        items = [(f"{k}_{f}", x) for f, x in v.items()] if isinstance(v, dict) else [(k, v)]
        rows += [(name, (x,)) for name, x in items if isinstance(x, (int, float))]
    return rows


def _parse_list(text: str, option: str, kind=float) -> list:
    """The comma-separated values of `option`, blank entries skipped."""
    try:
        return [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise MatrixFormatError(f"{option} must be a comma-separated list of {noun}") from None


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
waic_option = click.option(
    "--waic-variant", type=click.Choice(["1", "2"]), default="2", show_default=True,
    help="penalty used for the deviance-scale WAIC",
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
@waic_option
@format_option
@output_option
@_handle_errors
def criteria(input_path, lpd_at_mean, mle_loglik, k, waic_variant, fmt, output):
    """Criteria from a pointwise log-likelihood CSV (rows = draws)."""
    if (k is None) != (mle_loglik is None):
        raise ValueError("--mle-loglik requires --k" if k is None else "--k requires --mle-loglik")
    mat = read_loglik_csv(input_path)
    mle = None if mle_loglik is None else PointEstimateLogLik(mle_loglik, k)
    rep = criterion_report(mat, lpd_at_mean=lpd_at_mean, mle=mle, waic_variant=int(waic_variant))
    payload = {"draws": mat.n_draws, "points": mat.n_points, "seed": None, "report": rep.to_dict()}
    rows = [("draws", (mat.n_draws,)), ("points", (mat.n_points,))] + _numeric_rows(payload["report"])
    _emit(payload, rows, fmt, output, warnings=rep.warnings)


# ---------------------------------------------------------------------------
def _read_values(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().replace(",", "\n").split()
    if not tokens:
        raise MatrixFormatError("empty data file")
    try:
        return np.array([float(t) for t in tokens])
    except ValueError:
        raise MatrixFormatError("data file must contain only numbers") from None


def _build_model(model, input_path, m, mu0, mode, prediction_mode, mu, tau, counting,
                 dic_parameterization="log-sigma"):
    """(model object, data object) for a built-in family."""
    if model in ("normal-mean", "balanced") and input_path is None:
        raise ValueError(f"--input is required for the {model} model")
    if model == "normal-mean":
        return NormalMeanModel(m=m, mu0=mu0), _read_values(input_path)
    if model == "balanced":
        return BalancedModel(mu, tau, counting), load_balanced_csv(input_path)
    if model == "regression":
        data = load_election_csv(input_path) if input_path else default_election()
        return RegressionModel(dic_parameterization.replace("-", "_")), data
    data = load_schools_csv(input_path) if input_path else default_eight_schools()
    pred = "new_groups" if prediction_mode == "new" else "existing_groups"
    return SchoolsModel(), data.with_mode(mode, prediction_mode=pred)


model_options = [
    click.option("--model", type=click.Choice(MODEL_CHOICES), required=True),
    click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None),
    click.option("--m", type=float, default=0.0, show_default=True, help="prior precision (normal-mean)"),
    click.option("--mu0", type=float, default=0.0, show_default=True, help="prior mean (normal-mean)"),
    click.option("--mode", type=click.Choice(["no_pooling", "complete_pooling", "hierarchical"]),
                 default="hierarchical", show_default=True, help="pooling mode (schools)"),
    click.option("--prediction-mode", type=click.Choice(["existing", "new"]), default="existing",
                 show_default=True, help="replication target (schools)"),
    click.option("--mu", type=float, default=0.0, show_default=True,
                 help="known population mean (balanced)"),
    click.option("--tau", type=float, default=1.0, show_default=True,
                 help="known population sd (balanced)"),
    click.option("--counting", type=click.Choice(["observation", "group"]), default="observation",
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
@click.option("--dic-parameterization", type=click.Choice(["sigma", "sigma2", "log-sigma"]),
              default="log-sigma", show_default=True, help="scale point estimate for DIC (regression)")
@draws_option
@seed_option
@waic_option
@format_option
@output_option
@_handle_errors
def fit(model, input_path, m, mu0, mode, prediction_mode, mu, tau, counting,
        dic_parameterization, draws, seed, waic_variant, fmt, output):
    """Fit a built-in model and report its criteria."""
    model_obj, data = _build_model(model, input_path, m, mu0, mode, prediction_mode, mu, tau, counting,
                                   dic_parameterization)
    f = model_obj.fit(data, draws=draws, seed=derive_seed(seed, 0))
    pe = f.point_estimates()
    rep = criterion_report(f.pointwise_loglik(), lpd_at_mean=pe.lpd_at_mean, mle=pe.mle,
                           waic_variant=int(waic_variant))
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
def loo(model, input_path, m, mu0, mode, prediction_mode, mu, tau, counting, draws, seed, fmt, output):
    """Exact leave-one-out cross-validation by refitting."""
    model_obj, data = _build_model(model, input_path, m, mu0, mode, prediction_mode, mu, tau, counting)
    full_fit = model_obj.fit(data, draws=draws, seed=derive_seed(seed, 0))
    full_lppd = lppd(full_fit.pointwise_loglik())
    loo_rep = loo_report(model_obj, data, full_lppd, draws=draws, seed=derive_seed(seed, 1))
    payload = {"draws": draws, "seed": seed, "model": model, "lppd": full_lppd, "loo": loo_rep.to_dict()}
    _emit(payload, [("lppd", (full_lppd,))] + _numeric_rows(payload["loo"]), fmt, output)


# ---------------------------------------------------------------------------
@main.command("schools-table")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None)
@draws_option
@seed_option
@waic_option
@format_option
@output_option
@_handle_errors
def schools_table(input_path, draws, seed, waic_variant, fmt, output):
    """Deviance table across no pooling / complete pooling / hierarchical."""
    data = load_schools_csv(input_path) if input_path else None
    table = schools_table_report(data, draws=draws, seed=seed, waic_variant=int(waic_variant))
    cols = table["columns"]
    rows = [(name, [per_col[c] for c in cols]) for name, per_col in table["rows"].items()]
    _emit(table, rows, fmt, output, columns=cols, label="row", decimals=2)


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--hist-out", type=click.Path(), default=None, help="write the lpd histogram CSV here")
@click.option("--dic-parameterization", type=click.Choice(["sigma", "sigma2", "log-sigma"]),
              default="log-sigma", show_default=True)
@draws_option
@seed_option
@waic_option
@format_option
@output_option
@_handle_errors
def election(input_path, hist_out, dic_parameterization, draws, seed, waic_variant, fmt, output):
    """Regression example: fit, criteria, exact LOO, lpd posterior summary."""
    data = load_election_csv(input_path) if input_path else None
    rep = election_report(
        data,
        draws=draws,
        seed=seed,
        waic_variant=int(waic_variant),
        dic_parameterization=dic_parameterization.replace("-", "_"),
    )
    if hist_out:
        write_histogram_csv(rep["lpd_posterior"]["bin_left"], rep["lpd_posterior"]["counts"], hist_out)
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
@click.option("--ybar", type=float, default=0.0, show_default=True)
@click.option("--s2y", type=float, default=0.0, show_default=True)
@click.option("--mu0", type=float, default=0.0, show_default=True)
@click.option("--y", "y_csv", type=str, default=None,
              help="comma-separated data vector; enables the LOO formulas")
@format_option
@output_option
@_handle_errors
def oracle(n, m, ybar, s2y, mu0, y_csv, fmt, output):
    """Closed-form values for the unit-variance normal-mean family."""
    y = None
    if y_csv is not None:
        y = np.array(_parse_list(y_csv, "--y"))
        if y.size != n:
            raise ValueError(f"--y has {y.size} values but --n is {n}")
        ybar = float(y.mean())
        s2y = float(y.var(ddof=1)) if n > 1 else 0.0
    spec = NormalMeanSpec(n=n, ybar=ybar, s2y=s2y, m=m, mu0=mu0)
    table = oracle_mod.formula_table(spec, y=y)
    _emit(table, _numeric_rows(table), fmt, output)


# ---------------------------------------------------------------------------
@main.command()
@click.option("--n", type=int, default=None, help="data points per replicate")
@click.option("--m", type=float, default=0.0, show_default=True)
@click.option("--replicates", "-R", type=int, default=None,
              help="replicate datasets [default: 100000, or 10000 per point with --curve]")
@click.option("--estimator", "estimators", multiple=True,
              type=click.Choice(ESTIMATOR_NAMES), help="repeatable; default all")
@click.option("--theta-source", type=click.Choice(["auto", "fixed", "from-prior"]),
              default="auto", show_default=True)
@click.option("--theta0", type=float, default=0.0, show_default=True)
@click.option("--mu0", type=float, default=0.0, show_default=True)
@click.option("--curve", is_flag=True, help="sweep --n-values and emit a bias curve (CSV unless --format json)")
@click.option("--n-values", type=str, default=None, help="comma-separated n sweep for --curve")
@seed_option
@format_option
@output_option
@_handle_errors
def expect(n, m, replicates, estimators, theta_source, theta0, mu0, curve, n_values, seed, fmt, output):
    """Monte Carlo validation of estimator expectations."""
    if theta_source == "auto":
        source = "from_prior" if m > 0 else "fixed"
    else:
        source = theta_source.replace("-", "_")
    if replicates is None:
        replicates = 10_000 if curve else 100_000

    if curve:
        ns = _parse_list(n_values or "", "--n-values", int)
        if not ns:
            raise ValueError("--curve requires --n-values")
        if len(estimators) != 1:
            raise ValueError("--curve requires exactly one --estimator")
        n = ns[0]  # the plan is checked at the first point; bias_curve sets each point's n
    elif n is None:
        raise ValueError("--n is required unless --curve is given")
    if estimators:
        chosen = tuple(estimators)
    elif n >= 2:
        chosen = ESTIMATOR_NAMES
    else:
        chosen = tuple(e for e in ESTIMATOR_NAMES if e not in _LOO_NAMES)
    plan = ReplicationPlan(
        R=replicates,
        n=n,
        m=m,
        theta_source=source,
        theta0=theta0,
        mu0=mu0,
        seed=seed,
        estimators=chosen,
    )
    if curve:
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
