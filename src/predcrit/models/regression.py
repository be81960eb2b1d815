"""Flat-prior simple linear regression: y_i ~ N(a + b x_i, sigma^2).

With prior p(a, b, log sigma) proportional to 1 the posterior factors as
sigma^2 | y  ~  scaled-inverse-chi^2(n - 2, s^2)   (s^2 = RSS / (n - 2))
(a, b) | sigma^2, y  ~  Normal(OLS estimate, sigma^2 (X'X)^-1)

so exact joint draws need no MCMC. The DIC point estimate is not
parameterization invariant in sigma; the model is built with one of the
three usual choices and its fits report DIC under it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..criteria import PointEstimateLogLik, PointEstimates
from ..draws import PointwiseLogLikMatrix, _read_table, _require_finite
from .normal import normal_logpdf_inplace, normal_terms, point_total, score_columns

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


def _draw(seed, draws: int, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """What a fit on nu + 2 points transforms, drawn from `seed` in this
    order: S chi-square values with nu degrees of freedom and S x 2
    standard normals, row s holding (z_a, z_b)."""
    rng = np.random.default_rng(seed)
    return rng.chisquare(nu, draws), rng.standard_normal((draws, 2))


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(beta_hat, RSS, L) of y on (1, x), with L the lower Cholesky factor of
    (X'X)^-1; a singular design is refused."""
    X = _design(x)
    xtx = X.T @ X
    if np.linalg.matrix_rank(xtx) < 2:
        raise ValueError("singular design: predictor values must not be collinear")
    xtx_inv = np.linalg.inv(xtx)
    y = np.ascontiguousarray(y)  # a column of a data table is strided, and BLAS rounds its products differently
    beta_hat = xtx_inv @ (X.T @ y)
    resid = y - X @ beta_hat
    return beta_hat, float(resid @ resid), np.linalg.cholesky(xtx_inv)


class _RegressionFit:
    """Joint posterior draws plus the point summaries used downstream: a
    transform of `_draw`'s chi-square values and normals."""

    def __init__(self, data: RegressionData, chi2: np.ndarray, z: np.ndarray, dic_parameterization: str):
        self._data = data
        self._dic_parameterization = dic_parameterization
        beta_hat, rss, chol = _ols(data.x, data.y)
        nu = len(data) - 2
        s2 = rss / nu

        sigma2 = nu * s2 / chi2
        sigma = np.sqrt(sigma2)
        # (a, b) = beta_hat + sigma L z with L lower triangular, one
        # length-S column per coefficient (an S x 2 matmul is several times
        # slower)
        a = z[:, 0] * chol[0, 0]
        b = z[:, 0] * chol[1, 0]
        b += z[:, 1] * chol[1, 1]
        a *= sigma
        b *= sigma

        self.a = np.add(beta_hat[0], a, out=a)
        self.b = np.add(beta_hat[1], b, out=b)
        self.sigma2 = sigma2
        self.sigma = sigma
        # the density's per-draw terms, taken once for every set of points `loglik` scores
        self._terms = normal_terms(sigma2)
        self.mle = (float(beta_hat[0]), float(beta_hat[1]), float(np.sqrt(rss / len(data))))
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
            lpd_at_mean=point_total(self._loglik_at(pm["a"], pm["b"], s), "lpd_at_mean"),
            mle=PointEstimateLogLik(point_total(self._loglik_at(*self.mle), "lpd_at_mle"), 3),
            summary={"mle": dict(zip(("a", "b", "sigma"), self.mle)), "posterior_means": pm},
        )

    def _loglik_at(self, a: float, b: float, s: float) -> np.ndarray:
        r = self._data.y - (a + b * self._data.x)
        return normal_logpdf_inplace(r, s**2)

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


class _RegressionFold:
    """Fold i, the posterior without point i, as O(n) numbers over the
    per-draw arrays every fold shares. With RSS, beta_hat and L the
    training points' OLS, sigma^2 = RSS / g^2 (g^2 a shared chi-square
    value) and (a, b) = beta_hat + sigma L z, point j's residual over sigma
    is t = d_j g - c_j . z, with d_j = (y_j - beta_hat . x_j) / sqrt(RSS)
    and c_j = L' x_j (x_j = (1, x_j)), so that
    log N(y_j | a + b x_j, sigma^2) = K + log g - t^2 / 2,
    K = -log(2 pi RSS) / 2. No length-S array of its own is built."""

    def __init__(self, data: RegressionData, ols: tuple, shared: tuple):
        beta_hat, rss, chol = ols
        # the shared (g / sqrt 2, log g, z_a / sqrt 2, z_b / sqrt 2): t / sqrt 2 squares to t^2 / 2
        self._shared = shared
        self._d = (data.y - (beta_hat[0] + beta_hat[1] * data.x)) / math.sqrt(rss)
        self._c_a = chol[0, 0] + chol[1, 0] * data.x
        self._c_b = chol[1, 1] * data.x
        self._k = -0.5 * math.log(2.0 * math.pi * rss)
        self._size = shared[0].size

    def loglik(self, idx) -> np.ndarray:
        """log N(y_j | a + b x_j, sigma^2) per draw of the points `idx`: the
        length-S column of an int, a column-major S x len(idx) array of an
        index array."""
        return score_columns(self._column, idx, self._size)

    def _column(self, j: int, out: np.ndarray) -> np.ndarray:
        g, log_g, z_a, z_b = self._shared
        # a density past double range is a non-finite column, which callers refuse
        with np.errstate(over="ignore", invalid="ignore"):
            _combination(((self._d[j], g), (-self._c_a[j], z_a), (-self._c_b[j], z_b)), out)
            np.square(out, out=out)
            np.subtract(log_g, out, out=out)
            out += self._k
        return out


def _combination(terms, out: np.ndarray) -> np.ndarray:
    """sum c x over the pairs (c, x) of `terms`, scalars c (not all 0; a
    fold's c_a is L[0, 0] > 0 where x_j = 0) and arrays x, written into
    `out` with two passes a term and no temporary: nested as
    (((c_1 / c_2) x_1 + x_2) (c_2 / c_3) + x_3) c_3, the terms with c != 0
    in increasing |c|, so that no ratio exceeds 1. A second array beside
    `out`, allocated and freed with every column, made a column 1.3 to 2
    times as slow."""
    terms = sorted((term for term in terms if term[0] != 0.0), key=lambda term: abs(term[0]))
    coefs, arrays = zip(*terms)
    scales = [c / c_next for c, c_next in zip(coefs, coefs[1:])] + [coefs[-1]]
    np.multiply(arrays[0], scales[0], out=out)
    for x, scale in zip(arrays[1:], scales[1:]):
        out += x
        out *= scale
    return out


class RegressionModel:
    """Refittable flat-prior regression; `dic_parameterization` picks the
    scale point estimate its fits report DIC at."""

    def __init__(self, dic_parameterization: str = "log_sigma"):
        if dic_parameterization not in DIC_PARAMETERIZATIONS:
            raise ValueError(f"parameterization must be one of {DIC_PARAMETERIZATIONS}")
        self.dic_parameterization = dic_parameterization

    def fit(self, data: RegressionData, *, draws: int, seed: int) -> _RegressionFit:
        """The posterior of `data` from `seed`."""
        return _RegressionFit(data, *_draw(seed, draws, len(data) - 2), self.dic_parameterization)

    def folds(self, data: RegressionData, *, draws: int, seed: int):
        """fold(i), the posterior without point i. Every fold trains on
        n - 1 points, so all transform one draw from `seed`: S chi-square
        values with n - 3 degrees of freedom and S x 2 normals, kept as
        four shared per-draw arrays. Refused before anything is drawn below
        5 points (a fold's sigma^2 posterior needs 3 training points past
        its 2 coefficients), or when a fold's training points have a
        singular design or lie exactly on a line (RSS 0, named by the data
        row the fold leaves out, counted from 1)."""
        n = len(data)
        if n < 5:
            raise ValueError("too few training points for a proper sigma^2 posterior")
        ols = [_ols(np.delete(data.x, i), np.delete(data.y, i)) for i in range(n)]
        for i, (_, rss, _) in enumerate(ols):
            if rss == 0.0:
                raise ValueError(f"the rows other than row {i + 1} lie exactly on a line, "
                                 "so the fold without it has no sigma^2 posterior")
        chi2, z = _draw(seed, draws, n - 3)
        half = math.sqrt(0.5)
        shared = (np.sqrt(chi2 * 0.5), 0.5 * np.log(chi2), z[:, 0] * half, z[:, 1] * half)
        del chi2, z
        for values in shared:
            values.flags.writeable = False
        return lambda i: _RegressionFold(data, ols[i], shared)


def regression_fit(data: RegressionData, draws: int, seed: int) -> _RegressionFit:
    """Fit the flat-prior regression to the full dataset. No caller in the
    package: perfbench's tracer wraps it by name as a models.fit span."""
    return RegressionModel().fit(data, draws=draws, seed=seed)
