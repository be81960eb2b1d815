"""Information criteria computed from draw matrices and point-estimate fits.

Estimates of expected out-of-sample predictive accuracy start from a
within-sample fit measure and subtract an effective-parameter correction:

  elpd_aic    = log p(y | theta_mle)  - k
  elpd_dic    = log p(y | theta_mean) - p_dic
  elppd_waic  = lppd                  - p_waic

Deviance-scale values multiply by -2. Both WAIC penalty variants are
always computed; the difference form (variant 1) mirrors the DIC
construction, and the pointwise-variance form (variant 2), the one the
paper recommends, gives the deviance-scale `waic`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .draws import PointwiseLogLikMatrix, _column_sums, _draw_column, _log_mean_exp_columns
from .draws import _merge_moments, _require_finite_fields, _shifted_exp

__all__ = [
    "PointEstimateLogLik",
    "PointEstimates",
    "CriterionReport",
    "aic",
    "bic",
    "lpd_posterior_summary",
    "criterion_report",
]


@dataclass(frozen=True)
class PointEstimateLogLik:
    """Total log density of the data at the maximum likelihood estimate,
    and `k`, the count of estimated parameters the AIC/BIC penalty needs."""

    total_loglik: float
    k: int

    def __post_init__(self):
        if not math.isfinite(self.total_loglik):
            raise ValueError("point-estimate log likelihood must be finite")
        if self.k < 0:
            raise ValueError("parameter count k must be nonnegative")


@dataclass(frozen=True)
class PointEstimates:
    """What a fit knows beyond its draw matrix: `lpd_at_mean` feeds DIC and
    `mle` AIC/BIC (either None when the model does not define it);
    `summary` holds the model's point summaries as JSON-ready fields."""

    lpd_at_mean: float | None
    mle: PointEstimateLogLik | None
    summary: dict


def aic(pe: PointEstimateLogLik) -> tuple[float, float]:
    """(elpd_aic, AIC): penalized plug-in fit and its deviance scale."""
    elpd = pe.total_loglik - pe.k
    return elpd, -2.0 * elpd


def bic(pe: PointEstimateLogLik, n: int) -> float:
    """-2 log p(y|theta_mle) + k log n."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be an integer >= 1")
    return -2.0 * pe.total_loglik + pe.k * math.log(n)


def lpd_posterior_summary(row_totals) -> dict:
    """Mean, maximum, and gap of the per-draw total log density, a
    1-dimensional column with one total per draw.

    The gap approaches k/2 for a k-parameter regular model at large n,
    which makes it a quick plausibility check on a fit. Also bins the
    draws (30 bins of equal width over [min, max]) for plotting: `bin_left`
    holds the left bin edges and `counts` the draws per bin, as lists.
    """
    tot = _draw_column(row_totals)
    mean = float(tot.mean())
    mx = float(tot.max())
    counts, edges = np.histogram(tot, bins=30)
    return {"mean": mean, "max": mx, "gap": mx - mean,
            "bin_left": edges[:-1].tolist(), "counts": counts.tolist()}


@dataclass
class CriterionReport:
    """Assembled estimates for one draw matrix, plus Monte Carlo errors.

    Optional fields stay None when their inputs were not supplied (no
    point estimate) or cannot be computed (single draw). `waic` is
    -2 `elppd_waic2`, so it needs at least two draws.
    """

    lppd: float
    p_waic1: float
    elppd_waic1: float
    p_waic2: float | None = None
    elppd_waic2: float | None = None
    waic: float | None = None
    lpd_at_mean: float | None = None
    lpd_at_mle: float | None = None
    k: int | None = None
    p_dic: float | None = None
    p_dic_alt: float | None = None
    elpd_aic: float | None = None
    elpd_dic: float | None = None
    aic: float | None = None
    dic: float | None = None
    bic: float | None = None
    mc_se_lppd: float | None = None
    mc_se_mean_loglik: float | None = None
    mc_se_p_dic: float | None = None
    mc_se_p_dic_alt: float | None = None
    mc_se_p_waic1: float | None = None
    mc_se_p_waic2: float | None = None
    mc_se_waic: float | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def criterion_report(
    m: PointwiseLogLikMatrix,
    lpd_at_mean: float | None = None,
    mle: PointEstimateLogLik | None = None,
) -> CriterionReport:
    """Compute every criterion the inputs allow for one draw matrix.

    AIC and BIC need `mle` (with k); DIC needs `lpd_at_mean`. Variance
    based quantities (p_waic2, p_dic_alt, all Monte Carlo errors) need at
    least two draws and are marked unavailable otherwise. A field that
    overflows (a log density past about 1e154 in magnitude squares to inf)
    raises NonFiniteLogLikError naming it.
    """
    warnings: list[str] = []
    vals, s = m.values, m.n_draws
    # an overflow is refused once the report is formed, not warned of block by block
    with np.errstate(over="ignore", invalid="ignore"):
        # Two passes over blocks of draws, with no buffer larger than a block
        # and no array of length S. The first sums the shifted exponentials for
        # the log-mean-exp of each column. The second recomputes them as ratios,
        # then the deviations from the column means and their squares, for the
        # per-draw sums R_s = sum_i exp(a_si - lme_i), D_s = sum_i (a_si - mean_i)
        # and Q_s = sum_i (a_si - mean_i)^2; centred per column, D and Q stay
        # accurate at any magnitude. Each block's series are merged into their
        # running means and sums of squared deviations.
        lme, shift, w_bar = _log_mean_exp_columns(vals)
        mean = vals.mean(axis=0)
        moments = np.zeros((2, 6))  # of R, D, D^2, R - D, Q, R - Q
        series = None  # one row per series, one column per draw of a block

        def per_draw(start, block, out):
            nonlocal series
            if series is None:
                series = np.empty((len(moments[0]), len(block)))
            r, d, d2, r_minus_d, q, r_minus_q = block_series = series[:, :len(block)]
            _shifted_exp(block, shift, out)
            out /= w_bar
            out.sum(axis=1, out=r)
            np.subtract(block, mean, out=out)
            out.sum(axis=1, out=d)
            np.square(out, out=out)
            out.sum(axis=1, out=q)
            np.square(d, out=d2)
            np.subtract(r, d, out=r_minus_d)
            np.subtract(r, q, out=r_minus_q)
            _merge_moments(moments, start, block_series)

        dev2 = _column_sums(vals, per_draw)
        means, sums_of_squares = moments
        lppd = float(lme.sum())
        p_waic1 = float(2.0 * (lme - mean).sum())
        report = CriterionReport(lppd=lppd, p_waic1=p_waic1, elppd_waic1=lppd - p_waic1)
        # E_post log p(y | theta), the mean of the per-draw totals: the mean of
        # D corrects sum_i mean_i for the rounding of the means
        mean_loglik = float(mean.sum() + means[1])

        have_variance = s > 1
        if have_variance:
            report.p_waic2 = float((dev2 / (s - 1)).sum())
            report.elppd_waic2 = lppd - report.p_waic2
            report.waic = -2.0 * report.elppd_waic2
            var_r, var_d, var_d2, var_r_minus_d, var_q, var_r_minus_q = (sums_of_squares / (s - 1)).tolist()

            def se(variance):
                return math.sqrt(variance / s)

            # the variance form: 2 Var_post of the per-draw total log density
            report.p_dic_alt = 2.0 * var_d
            # Each error is that of a mean over draws of a per-draw sum of
            # first-order influences; their per-point constants drop out, and
            # the centred total D stands for the total (its mean is zero).
            report.mc_se_lppd = se(var_r)
            report.mc_se_mean_loglik = se(var_d)
            report.mc_se_p_dic_alt = 2.0 * se(var_d2)
            report.mc_se_p_waic1 = 2.0 * se(var_r_minus_d)
            report.mc_se_p_waic2 = se(var_q)
            report.mc_se_waic = 2.0 * se(var_r_minus_q)
        else:
            warnings.append(
                "variance-based estimates (p_waic2, p_dic_alt, mc_se fields) "
                "require at least 2 draws and are unavailable"
            )

    if lpd_at_mean is not None:
        if not math.isfinite(lpd_at_mean):
            raise ValueError("lpd_at_mean must be finite")
        report.lpd_at_mean = float(lpd_at_mean)
        # 2 (log p(y|theta_mean) - E_post log p(y|theta)); negative when the
        # posterior mean is far from the mode, which is warned of, not clamped
        pd = 2.0 * (lpd_at_mean - mean_loglik)
        report.p_dic = pd
        report.elpd_dic = lpd_at_mean - pd
        report.dic = -2.0 * report.elpd_dic
        if have_variance:
            report.mc_se_p_dic = 2.0 * report.mc_se_mean_loglik
        if pd < 0:
            warnings.append(
                "negative p_dic: the posterior mean is far from the mode"
            )

    if mle is not None:
        elpd_a, aic_val = aic(mle)
        report.lpd_at_mle = mle.total_loglik
        report.k = mle.k
        report.elpd_aic = elpd_a
        report.aic = aic_val
        report.bic = bic(mle, m.n_points)

    _require_finite_fields(report.__dict__)
    report.warnings = warnings
    return report
