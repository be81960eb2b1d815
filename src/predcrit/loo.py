"""Exact leave-one-out cross-validation from coupled fold posteriors.

Each of the n folds fits the model without point i and scores the held
out point under the training posterior. `loo_report` asks the model for
its folds once: `model.folds(data, draws=S, seed=seed)` draws, from that
one seed, every random number the fold posteriors use (none depends on
the point left out) and returns fold(i), the posterior without point i as
a deterministic transform of those numbers. The folds share common random
numbers, so their Monte Carlo errors move together, and the error of
lppd_loo is the joint one: the standard error of the mean over draws of
R_s = sum_i exp(l_s^(i) - lme_i), with l^(i) fold i's held-out column and
lme_i its log-mean-exp.

The folds run on a thread pool, one worker per CPU the process may use;
numpy releases the GIL in its loops over the draws, so the folds overlap.
The calling thread owns one row of S per worker: fold i writes its ratio
series exp(l^(i) - lme_i) into row i mod W once fold i - W has been added,
and the calling thread adds the rows to R in fold order, so every field is
bitwise independent of the worker count, and no length-S array passes
between threads.

The first-order bias correction compensates LOO for conditioning on n-1
rather than n points: b = lppd - mean over folds of the full-data lppd
under the fold posterior, and the corrected estimate is lppd_loo + b.
Every fold scores its held-out point with `loglik(i)`; only the correction
scores the fold's other points, one column at a time, so no fold holds an
S x n matrix.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .draws import _available_cpus, _require_finite_fields, _require_finite_loglik, log_mean_exp
from .draws import lppd as lppd_of  # noqa: F401  (unused here; perfbench's tracer wraps this binding)
from .errors import NonFiniteLogLikError

__all__ = [
    "PosteriorFit",
    "FoldModel",
    "LooReport",
    "loo_report",
]


class PosteriorFit(Protocol):
    def loglik(self, idx) -> np.ndarray:
        """Log densities of the points `idx` of the fitted dataset under this
        posterior: the length-S column of an int, an S x len(idx) array of
        an index array, at the cost of those points alone. For a fold
        without point i, point i must use only the training posterior."""


class FoldModel(Protocol):
    def folds(self, data, *, draws: int, seed: int) -> Callable[[int], PosteriorFit]:
        """Draw, once and from `seed` alone, every random number the n
        leave-one-out posteriors of `data` use, and return fold(i): the
        posterior without point i, a deterministic transform of those
        numbers, which several threads may call at once. A model that
        cannot refit refuses here, before it draws."""


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
    model: FoldModel, data, lppd_full: float, *, draws: int, seed: int,
    bias_correction: bool = True,
) -> LooReport:
    """Run all n folds once and assemble the LOO estimates.

    The folds are `model.folds(data, draws=draws, seed=seed)`; `lppd_loo`
    and `lppd_bar_minus_i` are fields of this report. Each fold scores its
    held-out column, refused if it holds NaN or inf; only `bias_correction`
    scores the fold's other columns too. Every field is bitwise independent
    of the worker count; if several folds raise, the error of the
    lowest-numbered one propagates.
    `mc_se_lppd_loo` is the joint error of the coupled folds; with a single
    draw it is unavailable and None. A non-finite `lppd_full` is refused
    before the folds are drawn, a field that overflows once the report is
    formed.
    """
    n = len(data)
    if n < 2:
        raise ValueError("leave-one-out requires at least 2 data points")
    if not math.isfinite(lppd_full):
        raise ValueError("the full-data lppd must be finite")
    fold_fit = model.folds(data, draws=draws, seed=seed)

    workers = min(_available_cpus(), n)
    rows = np.empty((workers, draws))  # fold i's ratio series goes to row i % workers
    row_free = [threading.Event() for _ in range(n)]  # set for fold i once fold i - workers is added
    for event in row_free[:workers]:
        event.set()

    def fold(i: int) -> tuple[float, float | None]:
        """(log_mean_exp of the held-out column, the fold's full-data lppd
        or None), the column's ratios to its mean written to its row."""
        fit = fold_fit(i)
        col, lme = _scored_lme(fit, i)
        ratios = rows[i % workers]
        row_free[i].wait()
        with np.errstate(over="ignore"):  # as in log_mean_exp; each thread has its own error state
            np.exp(np.subtract(col, lme, out=ratios), out=ratios)
        del col
        full = None
        if bias_correction:
            lmes = [lme if j == i else _scored_lme(fit, j)[1] for j in range(n)]
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing sum is refused with the report
                full = float(np.sum(lmes))
        return lme, full

    ratio_sums = np.zeros(draws)  # R_s, added in fold order
    per_point, fold_full = [], []
    with ThreadPoolExecutor(workers) as pool:
        try:
            # map yields in fold order and cancels the folds not yet started once one raises
            for i, (lme, full) in enumerate(pool.map(fold, range(n))):
                per_point.append(lme)
                fold_full.append(full)
                ratio_sums += rows[i % workers]
                if i + workers < n:
                    row_free[i + workers].set()
        finally:  # after a failure, the folds still running write their rows and end
            for event in row_free:
                event.set()
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
        mc_se_lppd_loo=math.sqrt(ratio_sums.var(ddof=1) / draws) if draws > 1 else None,
    )
    _require_finite_fields(report.__dict__)
    return report
