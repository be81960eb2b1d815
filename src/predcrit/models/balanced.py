"""Balanced two-level normal data with known hyperparameters.

Observations y_ij ~ N(theta_j, 1) for i = 1..n within groups j = 1..J,
with theta_j ~ N(mu, tau^2) and (mu, tau) known. The interesting choice
here is the unit of prediction: count each observation as a data point
(n*J columns) or each group (J columns, each the group's summed log
density per draw). The two countings give different pointwise criteria
on the same posterior draws.
"""
from __future__ import annotations

import numpy as np

from ..criteria import PointEstimates
from ..draws import PointwiseLogLikMatrix, _read_table, _require_finite
from ..errors import ModelRefusalError
from .normal import NormalMeanSpec, _check_settings, normal_logpdf_inplace

__all__ = [
    "BalancedModel",
    "load_balanced_csv",
    "COUNTINGS",
]

COUNTINGS = ("observation", "group")


class _BalancedFit:
    def __init__(self, matrix: PointwiseLogLikMatrix, counting: str, theta: np.ndarray):
        self._matrix = matrix
        self._counting = counting
        self.theta = theta

    def pointwise_loglik(self) -> PointwiseLogLikMatrix:
        return self._matrix

    def point_estimates(self) -> PointEstimates:
        """No point estimate with known hyperparameters: only the counting."""
        summary = {"counting": self._counting, "n_points": self._matrix.n_points}
        return PointEstimates(lpd_at_mean=None, mle=None, summary=summary)


class BalancedModel:
    """Known (mu, tau) and a data-point counting. Only the full table is
    fitted; leave-one-out folds are refused."""

    def __init__(self, mu: float, tau: float, counting: str):
        _check_settings(mu=mu, tau=tau)
        if counting not in COUNTINGS:
            raise ValueError(f"counting must be one of {COUNTINGS}")
        self.mu = mu
        self.tau = tau
        self.counting = counting

    def fit(self, data, *, draws: int, seed: int) -> _BalancedFit:
        """Draw the S x J group means and score them as the counting asks:
        observation counting has n*J columns, entry log N(y_ij |
        theta_j^s, 1), ordered (i=0,j=0..J-1), (i=1,...), matching
        y.reshape(-1); group counting has J columns, column j the sum over
        i of that group's log densities for each draw.

        With hyperparameters known the groups decouple into J independent
        conjugate normal-mean problems (prior precision 1/tau^2, prior mean
        mu); the S x J means are drawn in one call from `seed`.
        """
        y = np.asarray(data, dtype=float)
        if y.ndim != 2:
            raise ValueError("y must be an n x J array of observations")
        n, J = y.shape
        spec = NormalMeanSpec.from_data(y.T, m=1.0 / self.tau**2, mu0=self.mu)
        z = np.random.default_rng(seed).standard_normal((draws, J))
        theta = spec.posterior_mean + np.sqrt(spec.posterior_var) * z
        # n x J x S, then flatten or sum over i; the transpose is column-major S x n
        ll = normal_logpdf_inplace(np.subtract(y[:, :, None], theta.T, order="C"), 1.0)
        values = ll.reshape(n * J, draws).T if self.counting == "observation" else ll.sum(axis=0).T
        return _BalancedFit(PointwiseLogLikMatrix(values), self.counting, theta)

    def folds(self, data, *, draws: int, seed: int):
        """Refused: with the hyperparameters known there is no refit."""
        raise ModelRefusalError("the balanced model supports `fit` only (known hyperparameters)")


def load_balanced_csv(source) -> np.ndarray:
    """Read an n x J observation table with header `group_1,...,group_J`."""
    return _require_finite(_read_table(source, "group_", "balanced data", "observations"), "balanced CSV values")
