"""Exact leave-one-out cross-validation by refitting.

Each of the n folds refits the model without point i and scores the held
out point under the training posterior. Fold i always draws from a child
seed derived from (master seed, i), so folds can run in any order, or in
parallel, and still aggregate to bit-identical results.

The first-order bias correction compensates LOO for conditioning on n-1
rather than n points: b = lppd - mean over folds of the full-data lppd
under the fold posterior, and the corrected estimate is lppd_loo + b.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .draws import PointwiseLogLikMatrix, log_mean_exp, lppd as lppd_of, mc_standard_error
from .seeds import derive_seed

__all__ = [
    "PosteriorFit",
    "FittableModel",
    "LooReport",
    "bias_correct",
    "p_loo",
    "p_cloo",
    "loo_report",
]


class PosteriorFit(Protocol):
    def pointwise_loglik(self, indices=None) -> PointwiseLogLikMatrix:
        """Log densities of the fitted dataset's points under this posterior.

        `indices` selects a subset of points (default all). For a fit made
        with `exclude=i`, entry columns for point i must use only the
        training posterior.
        """


class FittableModel(Protocol):
    def fit(self, data, exclude: int | None = None, *, draws: int, seed: int) -> PosteriorFit:
        """Fit to `data`, optionally leaving one point out. Must be
        bit-reproducible given (data, exclude, draws, seed)."""


def bias_correct(lppd_full: float, lppd_bar: float, lppd_loo_val: float) -> tuple[float, float]:
    """(b, corrected lppd_loo): b = lppd - lppd_bar, corrected = lppd_loo + b."""
    for v in (lppd_full, lppd_bar, lppd_loo_val):
        if not math.isfinite(v):
            raise ValueError("bias correction inputs must be finite")
    b = lppd_full - lppd_bar
    return b, lppd_loo_val + b


def p_loo(lppd_full: float, lppd_loo_val: float) -> float:
    """Effective parameters from LOO: lppd - lppd_loo."""
    return lppd_full - lppd_loo_val


def p_cloo(lppd_bar: float, lppd_loo_val: float) -> float:
    """Effective parameters from bias-corrected LOO: lppd_bar - lppd_loo.

    Identical to lppd - lppd_cloo by the definition of b.
    """
    return lppd_bar - lppd_loo_val


@dataclass
class LooReport:
    lppd_loo: float
    lppd_bar_minus_i: float
    b: float
    lppd_cloo: float
    p_loo: float
    p_cloo: float
    per_point: list[float]
    mc_se_lppd_loo: float | None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def loo_report(
    model: FittableModel, data, lppd_full: float, *, draws: int, seed: int
) -> LooReport:
    """Run all n folds once and assemble the LOO estimates.

    Fold i refits with the seed derived from (seed, i); `lppd_loo` and
    `lppd_bar_minus_i` are fields of this report. With a single draw the
    Monte Carlo error is unavailable and `mc_se_lppd_loo` is None.
    """
    n = len(data)
    if n < 2:
        raise ValueError("leave-one-out requires at least 2 data points")
    per_point = []
    fold_full = []
    se_sq = 0.0
    for i in range(n):
        fit = model.fit(data, exclude=i, draws=draws, seed=derive_seed(seed, i))
        mat = fit.pointwise_loglik()
        col = mat.column(i)
        lme = log_mean_exp(col)
        per_point.append(lme)
        if draws > 1:  # delta-method error of log_mean_exp(col)
            se_sq += mc_standard_error(np.exp(col - lme)) ** 2
        fold_full.append(lppd_of(mat))
    loo_total = float(sum(per_point))
    bar = float(np.mean(fold_full))
    b, cloo = bias_correct(lppd_full, bar, loo_total)
    return LooReport(
        lppd_loo=loo_total,
        lppd_bar_minus_i=bar,
        b=b,
        lppd_cloo=cloo,
        p_loo=p_loo(lppd_full, loo_total),
        p_cloo=p_cloo(bar, loo_total),
        per_point=per_point,
        mc_se_lppd_loo=math.sqrt(se_sq) if draws > 1 else None,
    )
