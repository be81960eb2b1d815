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

from .draws import (
    PointwiseLogLikMatrix,
    _column_pass,
    mc_standard_error,
    sample_variance,
)

__all__ = [
    "PointEstimateLogLik",
    "PointEstimates",
    "CriterionReport",
    "LpdPosteriorSummary",
    "aic",
    "bic",
    "p_dic_alt",
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


def p_dic_alt(row_totals) -> float:
    """Variance form: 2 Var_post of the per-draw total log likelihood."""
    return 2.0 * sample_variance(row_totals)


@dataclass(frozen=True)
class LpdPosteriorSummary:
    """Summary of the posterior distribution of the total log density."""

    mean: float
    max: float
    gap: float
    bin_left: np.ndarray
    counts: np.ndarray


def lpd_posterior_summary(row_totals) -> LpdPosteriorSummary:
    """Mean, maximum, and gap of the per-draw total log density.

    The gap approaches k/2 for a k-parameter regular model at large n,
    which makes it a quick plausibility check on a fit. Also bins the
    draws (30 bins of equal width over [min, max]) for plotting.
    """
    tot = np.asarray(row_totals, dtype=float).reshape(-1)
    if tot.size < 1:
        raise ValueError("empty draw column")
    mean = float(tot.mean())
    mx = float(tot.max())
    counts, edges = np.histogram(tot, bins=30)
    return LpdPosteriorSummary(
        mean=mean, max=mx, gap=mx - mean, bin_left=edges[:-1], counts=counts
    )


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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def criterion_report(
    m: PointwiseLogLikMatrix,
    lpd_at_mean: float | None = None,
    mle: PointEstimateLogLik | None = None,
) -> CriterionReport:
    """Compute every criterion the inputs allow for one draw matrix.

    AIC and BIC need `mle` (with k); DIC needs `lpd_at_mean`. Variance
    based quantities (p_waic2, p_dic_alt, all Monte Carlo errors) need at
    least two draws and are marked unavailable otherwise.
    """
    warnings: list[str] = []
    cp = _column_pass(m)
    report = CriterionReport(
        lppd=cp.lppd,
        p_waic1=cp.p_waic1,
        elppd_waic1=cp.lppd - cp.p_waic1,
    )

    have_variance = cp.p_waic2 is not None
    if have_variance:
        report.p_waic2 = cp.p_waic2
        report.elppd_waic2 = cp.lppd - cp.p_waic2
        report.waic = -2.0 * report.elppd_waic2
        report.p_dic_alt = p_dic_alt(cp.totals)
        # Each error is that of a mean over draws of a per-draw sum of
        # first-order influences; their per-point constants drop out.
        se = mc_standard_error
        R, D, Q, T = cp.ratio_sums, cp.dev_sums, cp.dev2_sums, cp.totals
        report.mc_se_lppd = se(R)
        report.mc_se_mean_loglik = se(T)
        report.mc_se_p_dic_alt = 2.0 * se((T - T.mean()) ** 2)
        report.mc_se_p_waic1 = 2.0 * se(R - D)
        report.mc_se_p_waic2 = se(Q)
        report.mc_se_waic = 2.0 * se(R - Q)
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
        pd = 2.0 * (lpd_at_mean - float(cp.totals.mean()))
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

    report.warnings = warnings
    return report
