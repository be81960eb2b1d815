"""Flat-prior simple linear regression: y_i ~ N(a + b x_i, sigma^2).

With prior p(a, b, log sigma) proportional to 1 the posterior factors as
sigma^2 | y  ~  scaled-inverse-chi^2(n - 2, s^2)   (s^2 = RSS / (n - 2))
(a, b) | sigma^2, y  ~  Normal(OLS estimate, sigma^2 (X'X)^-1)

so exact joint draws need no MCMC. The DIC point estimate is not
parameterization invariant in sigma; the model is built with one of the
three usual choices and its fits report DIC under it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..criteria import PointEstimateLogLik, PointEstimates
from ..draws import PointwiseLogLikMatrix
from .normal import normal_logpdf_inplace

__all__ = ["RegressionData", "RegressionModel", "regression_fit", "DIC_PARAMETERIZATIONS"]

DIC_PARAMETERIZATIONS = ("sigma", "sigma2", "log_sigma")


@dataclass(frozen=True)
class RegressionData:
    """Predictor/response pairs for the flat-prior regression."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(-1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.size != y.size:
            raise ValueError("x and y must have the same length")
        # proper sigma^2 posterior needs n - k >= 1 with k = 3; keep a margin
        if x.size < 4:
            raise ValueError("regression needs at least 4 data points")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.size


def _design(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(x.size), x])


class _RegressionFit:
    """Joint posterior draws plus the point summaries used downstream."""

    def __init__(self, data: RegressionData, train_idx: np.ndarray, draws: int, seed: int,
                 dic_parameterization: str):
        self._data = data
        self._dic_parameterization = dic_parameterization
        x = data.x[train_idx]
        y = data.y[train_idx]
        X = _design(x)
        xtx = X.T @ X
        if np.linalg.matrix_rank(xtx) < 2:
            raise ValueError("singular design: predictor values must not be collinear")
        xtx_inv = np.linalg.inv(xtx)
        beta_hat = xtx_inv @ (X.T @ y)
        resid = y - X @ beta_hat
        rss = float(resid @ resid)
        n_train = x.size
        nu = n_train - 2
        if nu < 2:
            raise ValueError("too few training points for a proper sigma^2 posterior")
        s2 = rss / nu

        rng = np.random.default_rng(seed)
        sigma2 = nu * s2 / rng.chisquare(nu, draws)
        chol = np.linalg.cholesky(xtx_inv)
        z = rng.standard_normal((draws, 2))
        betas = beta_hat + (z @ chol.T) * np.sqrt(sigma2)[:, None]

        self.a = betas[:, 0]
        self.b = betas[:, 1]
        self.sigma2 = sigma2
        self.sigma = np.sqrt(sigma2)
        self.mle = (float(beta_hat[0]), float(beta_hat[1]), float(np.sqrt(rss / n_train)))
        self.rss = rss
        self.nu = nu

    # ---- point summaries -------------------------------------------------
    @property
    def posterior_means(self) -> dict:
        return {
            "a": float(self.a.mean()),
            "b": float(self.b.mean()),
            "sigma": float(self.sigma.mean()),
            "sigma2": float(self.sigma2.mean()),
            "log_sigma": float(np.log(self.sigma).mean()),
        }

    def point_estimates(self) -> PointEstimates:
        """Log densities of the dataset at the training MLE (k = 3) and at
        the posterior mean under the model's DIC parameterization."""
        return PointEstimates(
            lpd_at_mean=self.lpd_at_posterior_mean(self._dic_parameterization),
            mle=PointEstimateLogLik(self._total_loglik_at(*self.mle), k=3),
            summary={"mle": dict(zip(("a", "b", "sigma"), self.mle)), "posterior_means": self.posterior_means},
        )

    def lpd_at_posterior_mean(self, parameterization: str) -> float:
        """Total log density at the posterior mean of (a, b, <scale>).

        The scale point estimate depends on which transform is averaged.
        """
        if parameterization not in DIC_PARAMETERIZATIONS:
            raise ValueError(f"parameterization must be one of {DIC_PARAMETERIZATIONS}")
        pm = self.posterior_means
        if parameterization == "sigma":
            s = pm["sigma"]
        elif parameterization == "sigma2":
            s = float(np.sqrt(pm["sigma2"]))
        else:
            s = float(np.exp(pm["log_sigma"]))
        return self._total_loglik_at(pm["a"], pm["b"], s)

    def _total_loglik_at(self, a: float, b: float, s: float) -> float:
        r = self._data.y - (a + b * self._data.x)
        return float(normal_logpdf_inplace(r, s**2).sum())

    # ---- draw-level evaluation -------------------------------------------
    def pointwise_loglik(self, indices=None) -> PointwiseLogLikMatrix:
        if indices is None:
            x, y = self._data.x, self._data.y
        else:
            idx = np.asarray(indices, dtype=int)
            x, y = self._data.x[idx], self._data.y[idx]
        resid = self.b[:, None] * x[None, :]
        resid += self.a[:, None]
        np.subtract(y[None, :], resid, out=resid)
        return PointwiseLogLikMatrix(normal_logpdf_inplace(resid, self.sigma2[:, None]))


class RegressionModel:
    """Refittable flat-prior regression; `dic_parameterization` picks the
    scale point estimate its fits report DIC at."""

    def __init__(self, dic_parameterization: str = "log_sigma"):
        if dic_parameterization not in DIC_PARAMETERIZATIONS:
            raise ValueError(f"parameterization must be one of {DIC_PARAMETERIZATIONS}")
        self.dic_parameterization = dic_parameterization

    def fit(self, data: RegressionData, exclude: int | None = None, *, draws: int, seed: int) -> _RegressionFit:
        n = len(data)
        idx = np.arange(n)
        if exclude is not None:
            idx = np.delete(idx, exclude)
        return _RegressionFit(data, idx, draws, seed, self.dic_parameterization)


def regression_fit(data: RegressionData, draws: int, seed: int) -> _RegressionFit:
    """Fit the flat-prior regression to the full dataset."""
    return RegressionModel().fit(data, draws=draws, seed=seed)
