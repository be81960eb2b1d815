"""Conjugate normal-mean model: unit data variance, normal (or flat) prior.

Data y_1..y_n ~ N(theta, 1); prior theta ~ N(mu0, 1/m) with m the prior
precision (m = 0 is the flat-prior limit). The posterior is
N((m mu0 + n ybar)/(m + n), 1/(m + n)), which makes this family the
simulation counterpart of the closed-form oracle module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..criteria import PointEstimateLogLik, PointEstimates
from ..draws import PointwiseLogLikMatrix, _require_finite, _require_finite_fields

__all__ = [
    "NormalMeanSpec",
    "normal_logpdf_inplace",
    "normal_terms",
    "point_total",
    "score_columns",
    "NormalMeanModel",
]


def normal_terms(var) -> tuple:
    """(-2 var, 0.5 log(2 pi var)): the terms of log N(r | 0, var) that do
    not involve the residual r. A variance near double range makes them
    infinite, and the density -inf or NaN, which callers refuse."""
    with np.errstate(over="ignore"):
        return -2.0 * var, 0.5 * np.log(2.0 * np.pi * var)


def normal_logpdf_inplace(resid: np.ndarray, var, terms: tuple | None = None) -> np.ndarray:
    """Overwrite `resid` with log N(resid | 0, var) and return it.

    `var` broadcasts against `resid`. A caller that scores many residuals
    under one array `var` passes `terms=normal_terms(var)`, taken once.
    Every model scores its data here, so the caller owns the only S x n
    buffer the density needs.
    """
    minus_2var, half_log = normal_terms(var) if terms is None else terms
    # a square or a variance past double range is a -inf or NaN density (inf / -inf), which callers refuse
    with np.errstate(over="ignore", invalid="ignore"):
        np.square(resid, out=resid)
        resid /= minus_2var
    resid -= half_log
    return resid


def point_total(logdens: np.ndarray, name: str) -> float:
    """The total of the data's log densities at a point estimate, refused
    with NonFiniteLogLikError naming the field `name` when it is not
    finite, as a draw's non-finite density is."""
    with np.errstate(over="ignore"):
        total = float(logdens.sum())
    _require_finite_fields({name: total})
    return total


def score_columns(column, idx, draws: int) -> np.ndarray:
    """What `column(j, out)` writes into a length-`draws` `out` for point
    j: that column of an int `idx`; of an index array, its points' columns
    side by side in a column-major draws x len(idx) array."""
    if np.ndim(idx) == 0:
        return column(idx, np.empty(draws))
    out = np.empty((draws, len(idx)), order="F")
    for k, j in enumerate(idx):
        column(j, out[:, k])
    return out


def _inverse(x: float) -> float:
    return 1.0 / x if x else math.inf


def _square(x):
    """x**2, inf where it overflows: a float's square would raise
    OverflowError there, where an array's entry is inf."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _check_settings(**settings) -> None:
    """Raise a ValueError naming the first setting with a NaN or infinite
    entry, a negative prior precision `m` or a prior sd `tau` not above 0,
    or one that is inverted or squared out of double range: 1/m for m > 0,
    theta0^2, and 1/tau^2 or tau^2."""
    for name, value in settings.items():
        _require_finite(np.asarray(value), name)
    if settings.get("m", 0.0) < 0:
        raise ValueError("prior precision m must be nonnegative")
    if settings.get("tau", 1.0) <= 0:
        raise ValueError("tau must be positive")
    derived = {}
    if settings.get("m", 0.0) > 0:
        derived["1/m"] = 1.0 / float(settings["m"])
    if "theta0" in settings:
        derived["theta0^2"] = _square(float(settings["theta0"]))
    if "tau" in settings:
        # the balanced model's group precision, and the prior variance its NormalMeanSpec takes back
        derived["1/tau^2"] = _inverse(_square(float(settings["tau"])))
        derived["tau^2"] = _inverse(derived["1/tau^2"])
    for name, value in derived.items():
        _require_finite(np.asarray(value), name)


@dataclass(frozen=True)
class NormalMeanSpec:
    """Sufficient statistics plus prior for the normal-mean family.

    `ybar` and `s2y` may be arrays of per-dataset values (one entry per
    replicate); `n`, `m` and `mu0` are scalars shared by every dataset.
    """

    n: int
    ybar: float = 0.0
    s2y: float = 0.0
    m: float = 0.0
    mu0: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        _check_settings(m=self.m, mu0=self.mu0, ybar=self.ybar, s2y=self.s2y)
        if np.any(np.asarray(self.s2y) < 0):
            raise ValueError("sample variance must be nonnegative")

    @classmethod
    def from_data(cls, y, m: float = 0.0, mu0: float = 0.0) -> "NormalMeanSpec":
        """The statistics of the datasets along the last axis of `y`: floats
        for one dataset, one array entry per dataset for a stack."""
        y = np.asarray(y, dtype=float)
        n = y.shape[-1]
        # one point's spread is 0 (ddof 0, not 0/0); __post_init__ refuses a statistic that overflows
        with np.errstate(over="ignore", invalid="ignore"):
            s2y = y.var(axis=-1, ddof=1 if n >= 2 else 0)
            return cls(n=n, ybar=y.mean(axis=-1), s2y=s2y, m=m, mu0=mu0)

    @property
    def posterior_mean(self) -> float:
        return (self.m * self.mu0 + self.n * self.ybar) / (self.m + self.n)

    @property
    def posterior_var(self) -> float:
        return 1.0 / (self.m + self.n)


class _NormalMeanFit:
    def __init__(self, y_full: np.ndarray, center: float, mle: float | None, theta: np.ndarray):
        self._y = y_full
        self._center = center  # the posterior mean
        self._mle = mle  # the training ybar, None without training points
        self.theta = theta

    # kept for perfbench's tracer, which wraps it by name as a models.score span
    def pointwise_loglik(self) -> PointwiseLogLikMatrix:
        return PointwiseLogLikMatrix(self.loglik(np.arange(self._y.size)))

    def loglik(self, idx) -> np.ndarray:
        """Entry (s, i) = log N(y_i | theta^s, 1) of the points `idx`: the
        length-S column of an int, a column-major S x len(idx) array of an
        index array."""
        return normal_logpdf_inplace(np.subtract.outer(self._y[idx], self.theta).T, 1.0)

    def point_estimates(self) -> PointEstimates:
        """Total log density of all n points, the ones `pointwise_loglik`
        scores, at the training ybar (the MLE, None without training
        points) and at the training posterior mean."""
        def lpd_at(center: float, name: str) -> float:
            return point_total(normal_logpdf_inplace(self._y - center, 1.0), name)

        return PointEstimates(
            lpd_at_mean=lpd_at(self._center, "lpd_at_mean"),
            mle=None if self._mle is None else PointEstimateLogLik(lpd_at(self._mle, "lpd_at_mle"), 1),
            summary={"posterior_mean_theta": float(self.theta.mean())},
        )


class NormalMeanModel:
    """Refittable wrapper suitable for exact LOO.

    Holds the prior; `fit` takes the data vector and `folds` its n
    leave-one-out posteriors, each a fit that can score any of the original
    points (held-out scoring uses only the training posterior).
    """

    def __init__(self, m: float = 0.0, mu0: float = 0.0):
        _check_settings(m=m, mu0=mu0)
        self.m = m
        self.mu0 = mu0

    def fit(self, data, *, draws: int, seed: int) -> _NormalMeanFit:
        """The posterior of `data`, theta = center + sd z from S standard
        normals z drawn from `seed`."""
        y = np.asarray(data, dtype=float).reshape(-1)
        return self._posterior(y, y, np.random.default_rng(seed).standard_normal(draws))

    def folds(self, data, *, draws: int, seed: int):
        """fold(i), the posterior without point i: every fold shifts and
        scales the same S standard normals, drawn once from `seed` as the
        full fit draws them."""
        y = np.asarray(data, dtype=float).reshape(-1)
        z = np.random.default_rng(seed).standard_normal(draws)
        z.flags.writeable = False  # shared by every fold
        return lambda i: self._posterior(y, np.delete(y, i), z)

    def _posterior(self, y: np.ndarray, train: np.ndarray, z: np.ndarray) -> _NormalMeanFit:
        if train.size:
            spec = NormalMeanSpec.from_data(train, m=self.m, mu0=self.mu0)
            center, var, mle = spec.posterior_mean, spec.posterior_var, spec.ybar
        elif self.m > 0:  # nothing to update on: the posterior is the prior
            center, var, mle = self.mu0, 1.0 / self.m, None
        else:
            raise ValueError("flat-prior fit needs at least one training point")
        return _NormalMeanFit(y, center, mle, center + np.sqrt(var) * z)
