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
from importlib import resources

import numpy as np

from ..criteria import PointEstimateLogLik, PointEstimates
from ..draws import PointwiseLogLikMatrix, _read_table, _require_finite
from .normal import normal_logpdf_inplace, normal_terms

__all__ = ["RegressionData", "RegressionModel", "regression_fit", "load_election_csv", "DIC_PARAMETERIZATIONS"]

DIC_PARAMETERIZATIONS = ("sigma", "sigma2", "log_sigma")


@dataclass(frozen=True)
class RegressionData:
    """Predictor/response pairs for the flat-prior regression."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _require_finite(np.asarray(self.x, dtype=float).reshape(-1), "x values")
        y = _require_finite(np.asarray(self.y, dtype=float).reshape(-1), "y values")
        if x.size != y.size:
            raise ValueError("x and y must have the same length")
        # proper sigma^2 posterior needs n - k >= 1 with k = 3; keep a margin
        if x.size < 4:
            raise ValueError("regression needs at least 4 data points")
        # X'X holds the sum of x^2, and the residual sum of squares is at most that of y
        with np.errstate(over="ignore"):
            for name, v in (("x", x), ("y", y)):
                _require_finite(np.asarray(np.square(v).sum()), f"the sum of {name}^2")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.size


def load_election_csv(source=None) -> RegressionData:
    """Read `year,growth,vote` rows (header required; the year is not read)
    into regression data; with no source, the bundled income-growth vs.
    vote-share dataset (15 elections)."""
    if source is None:
        with resources.files(__package__).joinpath("data/election.csv").open("r", encoding="utf-8") as fh:
            return load_election_csv(fh)
    growth, vote = _read_table(source, ("year", "growth", "vote"), "election data", "elections", labels=1).T
    return RegressionData(growth, vote)


def _design(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(x.size), x])


class _RegressionFit:
    """Joint posterior draws plus the point summaries used downstream."""

    def __init__(self, data: RegressionData, exclude: int | None, draws: int, seed: int,
                 dic_parameterization: str):
        self._data = data
        train_idx = np.arange(len(data)) if exclude is None else np.delete(np.arange(len(data)), exclude)
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
        sigma = np.sqrt(sigma2)
        # (a, b) = beta_hat + sigma L z with L lower triangular, one
        # length-S column per coefficient (an S x 2 matmul is several times
        # slower); z keeps the stream's order, row s holding (z_a, z_b)
        chol = np.linalg.cholesky(xtx_inv)
        z = rng.standard_normal((draws, 2))
        a = z[:, 0] * chol[0, 0]
        b = z[:, 0] * chol[1, 0]
        b += z[:, 1] * chol[1, 1]
        a *= sigma
        b *= sigma

        self.a = np.add(beta_hat[0], a, out=a)
        self.b = np.add(beta_hat[1], b, out=b)
        self.sigma2 = sigma2
        self.sigma = sigma
        # the density's per-draw terms, taken once for every set of points
        # `loglik` scores (a LOO fold scores its points one at a time)
        self._terms = normal_terms(sigma2)
        self.mle = (float(beta_hat[0]), float(beta_hat[1]), float(np.sqrt(rss / n_train)))
        self.rss = rss

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
        the posterior mean of (a, b, <scale>). The scale point estimate
        depends on which transform is averaged: the model's DIC
        parameterization picks it."""
        pm = self.posterior_means
        s = {"sigma": pm["sigma"], "sigma2": float(np.sqrt(pm["sigma2"])),
             "log_sigma": float(np.exp(pm["log_sigma"]))}[self._dic_parameterization]
        return PointEstimates(
            lpd_at_mean=self._total_loglik_at(pm["a"], pm["b"], s),
            mle=PointEstimateLogLik(self._total_loglik_at(*self.mle), k=3),
            summary={"mle": dict(zip(("a", "b", "sigma"), self.mle)), "posterior_means": pm},
        )

    def _total_loglik_at(self, a: float, b: float, s: float) -> float:
        r = self._data.y - (a + b * self._data.x)
        return float(normal_logpdf_inplace(r, s**2).sum())

    # ---- draw-level evaluation -------------------------------------------
    # kept for perfbench's tracer, which wraps it by name as a models.score span
    def pointwise_loglik(self) -> PointwiseLogLikMatrix:
        return PointwiseLogLikMatrix(self.loglik(np.arange(len(self._data))))

    def loglik(self, idx) -> np.ndarray:
        """log N(y_i | a + b x_i, sigma^2) per draw of the points `idx`: the
        length-S column of an int, a column-major S x len(idx) array of an
        index array."""
        # built len(idx) x S, so the transpose is column-major
        resid = np.multiply.outer(self._data.x[idx], self.b)
        resid += self.a
        np.subtract(self._data.y[idx][..., None], resid, out=resid)
        return normal_logpdf_inplace(resid, self.sigma2, self._terms).T


class RegressionModel:
    """Refittable flat-prior regression; `dic_parameterization` picks the
    scale point estimate its fits report DIC at."""

    def __init__(self, dic_parameterization: str = "log_sigma"):
        if dic_parameterization not in DIC_PARAMETERIZATIONS:
            raise ValueError(f"parameterization must be one of {DIC_PARAMETERIZATIONS}")
        self.dic_parameterization = dic_parameterization

    def fit(self, data: RegressionData, exclude: int | None = None, *, draws: int, seed: int) -> _RegressionFit:
        return _RegressionFit(data, exclude, draws, seed, self.dic_parameterization)


def regression_fit(data: RegressionData, draws: int, seed: int) -> _RegressionFit:
    """Fit the flat-prior regression to the full dataset. No caller in the
    package: perfbench's tracer wraps it by name as a models.fit span."""
    return RegressionModel().fit(data, draws=draws, seed=seed)
