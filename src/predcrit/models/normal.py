"""Conjugate normal-mean model: unit data variance, normal (or flat) prior.

Data y_1..y_n ~ N(theta, 1); prior theta ~ N(mu0, 1/m) with m the prior
precision (m = 0 is the flat-prior limit). The posterior is
N((m mu0 + n ybar)/(m + n), 1/(m + n)), which makes this family the
simulation counterpart of the closed-form oracle module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..criteria import PointEstimateLogLik, PointEstimates
from ..draws import PointwiseLogLikMatrix

__all__ = [
    "NormalMeanSpec",
    "normal_posterior_draws",
    "normal_pointwise_loglik",
    "normal_logpdf_inplace",
    "NormalMeanModel",
]


def normal_logpdf_inplace(resid: np.ndarray, var) -> np.ndarray:
    """Overwrite `resid` with log N(resid | 0, var) and return it.

    `var` broadcasts against `resid`. Every model scores its data here, so
    the caller owns the only S x n buffer the density needs.
    """
    np.square(resid, out=resid)
    resid /= -2.0 * var
    resid -= 0.5 * np.log(2.0 * np.pi * var)
    return resid


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
        if np.any(np.asarray(self.s2y) < 0):
            raise ValueError("sample variance must be nonnegative")
        if self.m < 0:
            raise ValueError("prior precision m must be nonnegative")

    @classmethod
    def from_data(cls, y, m: float = 0.0, mu0: float = 0.0) -> "NormalMeanSpec":
        y = np.asarray(y, dtype=float)
        s2 = float(y.var(ddof=1)) if y.size >= 2 else 0.0
        return cls(n=y.size, ybar=float(y.mean()), s2y=s2, m=m, mu0=mu0)

    @property
    def posterior_mean(self) -> float:
        return (self.m * self.mu0 + self.n * self.ybar) / (self.m + self.n)

    @property
    def posterior_var(self) -> float:
        return 1.0 / (self.m + self.n)


def normal_posterior_draws(spec: NormalMeanSpec, draws: int, seed: int) -> np.ndarray:
    """S independent draws from the conjugate posterior for theta."""
    rng = np.random.default_rng(seed)
    return spec.posterior_mean + np.sqrt(spec.posterior_var) * rng.standard_normal(draws)


def normal_pointwise_loglik(y, theta) -> PointwiseLogLikMatrix:
    """Entry (s, i) = log N(y_i | theta^s, 1)."""
    y = np.asarray(y, dtype=float).reshape(1, -1)
    theta = np.asarray(theta, dtype=float).reshape(-1, 1)
    return PointwiseLogLikMatrix(normal_logpdf_inplace(y - theta, 1.0))


class _NormalMeanFit:
    def __init__(self, y_full: np.ndarray, spec: NormalMeanSpec, theta: np.ndarray):
        self._y = y_full
        self._spec = spec
        self.theta = theta

    def pointwise_loglik(self, indices=None) -> PointwiseLogLikMatrix:
        y = self._y if indices is None else self._y[np.asarray(indices, dtype=int)]
        return normal_pointwise_loglik(y, self.theta)

    def point_estimates(self) -> PointEstimates:
        """Total log density of all n points, the ones `pointwise_loglik`
        scores, at the training ybar (the MLE) and at the training
        posterior mean."""
        def lpd_at(center: float) -> float:
            return float(normal_logpdf_inplace(self._y - center, 1.0).sum())

        return PointEstimates(
            lpd_at_mean=lpd_at(self._spec.posterior_mean),
            mle=PointEstimateLogLik(lpd_at(self._spec.ybar), k=1),
            summary={"posterior_mean_theta": float(self.theta.mean())},
        )


class NormalMeanModel:
    """Refittable wrapper suitable for exact LOO.

    Holds the prior; `fit` takes the data vector and optionally excludes
    one point, returning a posterior that can score any of the original
    points (held-out scoring uses only the training posterior).
    """

    def __init__(self, m: float = 0.0, mu0: float = 0.0):
        if m < 0:
            raise ValueError("prior precision m must be nonnegative")
        self.m = m
        self.mu0 = mu0

    def fit(self, data, exclude: int | None = None, *, draws: int, seed: int) -> _NormalMeanFit:
        y = np.asarray(data, dtype=float).reshape(-1)
        train = y if exclude is None else np.delete(y, exclude)
        if train.size == 0 and self.m == 0:
            raise ValueError("flat-prior fit needs at least one training point")
        spec = NormalMeanSpec.from_data(train, m=self.m, mu0=self.mu0)
        theta = normal_posterior_draws(spec, draws, seed)
        return _NormalMeanFit(y, spec, theta)
