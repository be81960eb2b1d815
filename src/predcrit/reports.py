"""Assembly of the two headline reports: the three-model schools table and
the election-regression summary.

These live outside the CLI so tests and other callers get the exact same
numbers the command line prints: each fit draws from stream FIT_STREAM of
the seed and its LOO folds from FOLD_STREAM, as `fit` and `loo` do.
"""
from __future__ import annotations

from collections import defaultdict

from .criteria import criterion_report, lpd_posterior_summary
from .loo import loo_report
from .models import (
    POOLING_MODES,
    EightSchoolsData,
    RegressionData,
    RegressionModel,
    SchoolsModel,
)
from .seeds import FIT_STREAM, FOLD_STREAM, derive_seed

__all__ = [
    "schools_table_report",
    "election_report",
    "UNDEFINED_AIC_HIERARCHICAL",
    "UNDEFINED_LOO_NO_POOLING",
    "UNDEFINED_LOO_ONE_GROUP",
]

UNDEFINED_AIC_HIERARCHICAL = (
    "undefined: the hierarchical model has no maximum likelihood estimate"
)
UNDEFINED_LOO_NO_POOLING = (
    "undefined: prediction for a held-out school is impossible without pooling"
)
UNDEFINED_LOO_ONE_GROUP = "undefined: leave-one-out needs at least 2 schools"


def schools_table_report(
    data: EightSchoolsData,
    *,
    draws: int,
    seed: int,
) -> dict:
    """Deviance table for no pooling / complete pooling / hierarchical.

    Cells that are undefined for a model carry an explicit
    "undefined: <reason>" string instead of a number.
    """
    columns = list(POOLING_MODES)
    rows = defaultdict(dict)

    fit_seed, fold_seed = derive_seed(seed, FIT_STREAM), derive_seed(seed, FOLD_STREAM)
    for mode in columns:
        model = SchoolsModel(mode)
        fit = model.fit(data, draws=draws, seed=fit_seed)
        mat = fit.pointwise_loglik()
        pe = fit.point_estimates()

        rep = criterion_report(mat, lpd_at_mean=pe.lpd_at_mean, mle=pe.mle)
        del fit, mat  # the folds below run concurrently; free the full-data draws first
        if rep.k is None:
            for row in ("minus2_lpd_mle", "k", "aic"):
                rows[row][mode] = UNDEFINED_AIC_HIERARCHICAL
        else:
            rows["minus2_lpd_mle"][mode] = -2.0 * rep.lpd_at_mle
            rows["k"][mode] = float(rep.k)
            rows["aic"][mode] = rep.aic
        rows["minus2_lpd_mean"][mode] = -2.0 * rep.lpd_at_mean
        rows["p_dic"][mode] = rep.p_dic
        rows["dic"][mode] = rep.dic
        rows["minus2_lppd"][mode] = -2.0 * rep.lppd
        rows["p_waic1"][mode] = rep.p_waic1
        rows["p_waic2"][mode] = rep.p_waic2
        rows["waic"][mode] = rep.waic

        if mode == "no_pooling" or len(data) < 2:
            undefined = UNDEFINED_LOO_NO_POOLING if mode == "no_pooling" else UNDEFINED_LOO_ONE_GROUP
            rows["p_loo"][mode] = rows["minus2_lppd_loo"][mode] = undefined
        else:
            loo = loo_report(model, data, rep.lppd, draws=draws, seed=fold_seed, bias_correction=False)
            rows["p_loo"][mode] = loo.p_loo
            rows["minus2_lppd_loo"][mode] = -2.0 * loo.lppd_loo

    return {
        "draws": draws,
        "seed": seed,
        "columns": columns,
        "rows": dict(rows),
    }


def election_report(
    data: RegressionData,
    *,
    draws: int,
    seed: int,
    dic_parameterization: str,
) -> dict:
    """Full regression summary: fit, criteria, exact LOO, and the posterior
    distribution of the total log density (histogram included)."""
    model = RegressionModel(dic_parameterization)
    fit = model.fit(data, draws=draws, seed=derive_seed(seed, FIT_STREAM))
    pe = fit.point_estimates()
    mat = fit.pointwise_loglik()
    del fit  # what follows reads only the matrix; free the draws and their density terms
    rep = criterion_report(mat, lpd_at_mean=pe.lpd_at_mean, mle=pe.mle)
    lpd_posterior = lpd_posterior_summary(mat.row_totals())
    del mat  # the folds below run concurrently; free the full-data matrix first
    loo = loo_report(model, data, rep.lppd, draws=draws, seed=derive_seed(seed, FOLD_STREAM), bias_correction=True)

    return {
        "draws": draws,
        "seed": seed,
        "dic_parameterization": dic_parameterization,
        "n": len(data),
        **pe.summary,
        "criteria": rep.to_dict(),
        "loo": loo.to_dict(),
        "lpd_posterior": lpd_posterior,
    }

