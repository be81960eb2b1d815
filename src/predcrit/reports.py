"""Assembly of the two headline reports: the three-model schools table and
the election-regression summary.

These live outside the CLI so tests and other callers get the exact same
numbers the command line prints. All randomness derives from one master
seed via fixed stream indices.
"""
from __future__ import annotations

from .criteria import criterion_report, lpd_posterior_summary
from .draws import _write_csv
from .loo import loo_report
from .models import (
    EightSchoolsData,
    RegressionData,
    RegressionModel,
    SchoolsModel,
    default_eight_schools,
    default_election,
)
from .models.schools import POOLING_MODES
from .seeds import derive_seed

__all__ = [
    "schools_table_report",
    "election_report",
    "write_histogram_csv",
    "UNDEFINED_AIC_HIERARCHICAL",
    "UNDEFINED_LOO_NO_POOLING",
]

UNDEFINED_AIC_HIERARCHICAL = (
    "undefined: the hierarchical model has no maximum likelihood estimate"
)
UNDEFINED_LOO_NO_POOLING = (
    "undefined: prediction for a held-out school is impossible without pooling"
)

_TABLE_ROWS = (
    "minus2_lpd_mle",
    "k",
    "aic",
    "minus2_lpd_mean",
    "p_dic",
    "dic",
    "minus2_lppd",
    "p_waic1",
    "p_waic2",
    "waic",
    "p_loo",
    "minus2_lppd_loo",
)


def schools_table_report(
    data: EightSchoolsData | None = None,
    draws: int = 100_000,
    seed: int = 12345,
) -> dict:
    """Deviance table for no pooling / complete pooling / hierarchical.

    Cells that are undefined for a model carry an explicit
    "undefined: <reason>" string instead of a number.
    """
    d = data if data is not None else default_eight_schools()
    columns = list(POOLING_MODES)
    rows = {name: {} for name in _TABLE_ROWS}

    for col_idx, mode in enumerate(columns):
        model = SchoolsModel(mode)
        fit = model.fit(d, draws=draws, seed=derive_seed(seed, col_idx))
        mat = fit.pointwise_loglik()
        pe = fit.point_estimates()

        rep = criterion_report(mat, lpd_at_mean=pe.lpd_at_mean, mle=pe.mle)
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

        if mode == "no_pooling":
            rows["p_loo"][mode] = UNDEFINED_LOO_NO_POOLING
            rows["minus2_lppd_loo"][mode] = UNDEFINED_LOO_NO_POOLING
        else:
            loo = loo_report(model, d, rep.lppd, draws=draws, seed=derive_seed(seed, 10 + col_idx),
                             bias_correction=False)
            rows["p_loo"][mode] = loo.p_loo
            rows["minus2_lppd_loo"][mode] = -2.0 * loo.lppd_loo

    return {
        "draws": draws,
        "seed": seed,
        "columns": columns,
        "rows": rows,
    }


def election_report(
    data: RegressionData | None = None,
    draws: int = 100_000,
    seed: int = 12345,
    dic_parameterization: str = "log_sigma",
) -> dict:
    """Full regression summary: fit, criteria, exact LOO, and the posterior
    distribution of the total log density (histogram included)."""
    d = data if data is not None else default_election()
    model = RegressionModel(dic_parameterization)
    fit = model.fit(d, draws=draws, seed=derive_seed(seed, 0))
    pe = fit.point_estimates()
    mat = fit.pointwise_loglik()
    rep = criterion_report(mat, lpd_at_mean=pe.lpd_at_mean, mle=pe.mle)
    summary = lpd_posterior_summary(mat.row_totals())
    loo = loo_report(model, d, rep.lppd, draws=draws, seed=derive_seed(seed, 1), bias_correction=True)

    return {
        "draws": draws,
        "seed": seed,
        "dic_parameterization": dic_parameterization,
        "n": len(d),
        **pe.summary,
        "criteria": rep.to_dict(),
        "loo": loo.to_dict(),
        "lpd_posterior": {
            "mean": summary.mean,
            "max": summary.max,
            "gap": summary.gap,
            "bin_left": summary.bin_left.tolist(),
            "counts": summary.counts.tolist(),
        },
    }


def write_histogram_csv(bin_left, counts, target) -> None:
    """Two-column plot data: bin_left,count."""
    _write_csv(target, ("bin_left", "count"),
               ((repr(float(left)), str(int(count))) for left, count in zip(bin_left, counts)))
