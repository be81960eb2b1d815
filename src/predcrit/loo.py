"""Exact leave-one-out cross-validation by refitting.

Each of the n folds refits the model without point i and scores the held
out point under the training posterior. Fold i always draws from a child
seed derived from (master seed, i), so folds can run in any order, or in
parallel, and still aggregate to bit-identical results. `loo_report` runs
them on a thread pool, one worker per CPU the process may use; numpy
releases the GIL in its loops over the draws, so the folds overlap.

The first-order bias correction compensates LOO for conditioning on n-1
rather than n points: b = lppd - mean over folds of the full-data lppd
under the fold posterior, and the corrected estimate is lppd_loo + b.
Every fold scores its held-out point with `loglik(i)`; only the correction
scores the fold's other points, one column at a time, so no fold holds an
S x n matrix.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .draws import _available_cpus, _require_finite_fields, _require_finite_loglik, log_mean_exp
from .draws import lppd as lppd_of  # noqa: F401  (unused here; perfbench's tracer wraps this binding)
from .errors import NonFiniteLogLikError
from .seeds import derive_seed

__all__ = [
    "PosteriorFit",
    "FittableModel",
    "LooReport",
    "loo_report",
]


class PosteriorFit(Protocol):
    def loglik(self, idx) -> np.ndarray:
        """Log densities of the points `idx` of the fitted dataset under this
        posterior: the length-S column of an int, an S x len(idx) array of
        an index array, at the cost of those points alone. For a fit made
        with `exclude=i`, point i must use only the training posterior."""


class FittableModel(Protocol):
    def fit(self, data, exclude: int | None = None, *, draws: int, seed: int) -> PosteriorFit:
        """Fit to `data`, optionally leaving one point out. Must be
        bit-reproducible given (data, exclude, draws, seed)."""


@dataclass
class LooReport:
    lppd_loo: float
    lppd_bar_minus_i: float | None  # these three, and p_cloo, are None
    b: float | None  # without the bias correction
    lppd_cloo: float | None
    p_loo: float
    p_cloo: float | None
    per_point: list[float]
    mc_se_lppd_loo: float | None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _scored_lme(fit: PosteriorFit, j: int) -> tuple[np.ndarray, float]:
    """(column j of the fit, its log_mean_exp), refusing NaN or inf."""
    col = fit.loglik(j)
    try:
        return col, log_mean_exp(col)
    except NonFiniteLogLikError:
        _require_finite_loglik(col[:, None], first_point=j)
        raise


def loo_report(
    model: FittableModel, data, lppd_full: float, *, draws: int, seed: int,
    bias_correction: bool = True,
) -> LooReport:
    """Run all n folds once and assemble the LOO estimates.

    Fold i refits with the seed derived from (seed, i); `lppd_loo` and
    `lppd_bar_minus_i` are fields of this report. Each fold scores its
    held-out column, refused if it holds NaN or inf; only `bias_correction`
    scores the fold's other columns too. The folds run concurrently and
    their results are added in fold order, so every field is bitwise
    independent of the worker count; if several folds raise, the error of
    the lowest-numbered one propagates.
    With a single draw the Monte Carlo error is unavailable and
    `mc_se_lppd_loo` is None. A non-finite `lppd_full` is refused before
    the first refit, a field that overflows once the report is formed.
    """
    n = len(data)
    if n < 2:
        raise ValueError("leave-one-out requires at least 2 data points")
    if not math.isfinite(lppd_full):
        raise ValueError("the full-data lppd must be finite")

    def fold(i: int) -> tuple[float, float, float | None]:
        """(log_mean_exp of the held-out column, its squared Monte Carlo
        error, the fold's full-data lppd or None)."""
        fit = model.fit(data, exclude=i, draws=draws, seed=derive_seed(seed, i))
        col, lme = _scored_lme(fit, i)
        with np.errstate(over="ignore"):  # as in log_mean_exp; each thread has its own error state
            se_sq = np.exp(col - lme).var(ddof=1) / draws if draws > 1 else 0.0  # delta method
        del col
        full = None
        if bias_correction:
            lmes = [lme if j == i else _scored_lme(fit, j)[1] for j in range(n)]
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is refused with the report
                full = float(np.sum(lmes))
        return lme, se_sq, full

    with ThreadPoolExecutor(min(_available_cpus(), n)) as pool:
        # map yields in fold order and cancels the folds not yet started
        # once one raises
        per_point, se_sq, fold_full = (list(t) for t in zip(*pool.map(fold, range(n))))
    loo_total = float(sum(per_point))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing mean is refused below
        bar = float(np.mean(fold_full)) if bias_correction else None
    b = lppd_full - bar if bias_correction else None
    report = LooReport(
        lppd_loo=loo_total,
        lppd_bar_minus_i=bar,
        b=b,
        lppd_cloo=loo_total + b if bias_correction else None,
        p_loo=lppd_full - loo_total,
        p_cloo=bar - loo_total if bias_correction else None,
        per_point=per_point,
        mc_se_lppd_loo=math.sqrt(sum(se_sq)) if draws > 1 else None,
    )
    _require_finite_fields(report.__dict__)
    return report
