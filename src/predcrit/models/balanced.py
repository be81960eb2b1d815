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
from .normal import NormalMeanSpec, normal_logpdf_inplace, normal_posterior_draws
from ..seeds import derive_seed

__all__ = [
    "BalancedModel",
    "balanced_hierarchical_loglik",
    "balanced_group_posterior_draws",
    "load_balanced_csv",
    "COUNTINGS",
]

COUNTINGS = ("observation", "group")


def balanced_group_posterior_draws(y: np.ndarray, mu: float, tau: float, draws: int, seed: int) -> np.ndarray:
    """S x J draws of the group means given known (mu, tau).

    With hyperparameters known the groups decouple into J independent
    conjugate normal-mean problems (prior precision 1/tau^2), each seeded
    from its own derived stream.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError("y must be an n x J array of observations")
    if tau <= 0:
        raise ValueError("tau must be positive")
    n, J = y.shape
    theta = np.empty((draws, J))
    for j in range(J):
        spec = NormalMeanSpec.from_data(y[:, j], m=1.0 / tau**2, mu0=mu)
        theta[:, j] = normal_posterior_draws(spec, draws, derive_seed(seed, j))
    return theta


def balanced_hierarchical_loglik(theta_draws: np.ndarray, y: np.ndarray, counting: str = "observation") -> PointwiseLogLikMatrix:
    """Pointwise log-density matrix under the chosen data-point counting.

    observation: n*J columns, entry log N(y_ij | theta_j^s, 1), ordered
    (i=0,j=0..J-1), (i=1,...), matching y.reshape(-1).
    group: J columns, column j the sum over i of that group's log
    densities for each draw.
    """
    if counting not in COUNTINGS:
        raise ValueError(f"counting must be one of {COUNTINGS}")
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta_draws, dtype=float)
    if y.ndim != 2 or theta.ndim != 2 or theta.shape[1] != y.shape[1]:
        raise ValueError("y must be n x J and theta_draws S x J")
    n, J = y.shape
    # n x J x S, then flatten or sum over i; the transpose is column-major S x n
    ll = normal_logpdf_inplace(np.subtract(y[:, :, None], theta.T, order="C"), 1.0)
    if counting == "observation":
        return PointwiseLogLikMatrix(ll.reshape(n * J, theta.shape[0]).T)
    return PointwiseLogLikMatrix(ll.sum(axis=0).T)


class _BalancedFit:
    def __init__(self, matrix: PointwiseLogLikMatrix, counting: str):
        self._matrix = matrix
        self._counting = counting

    def pointwise_loglik(self) -> PointwiseLogLikMatrix:
        return self._matrix

    def point_estimates(self) -> PointEstimates:
        """No point estimate with known hyperparameters: only the counting."""
        summary = {"counting": self._counting, "n_points": self._matrix.n_points}
        return PointEstimates(lpd_at_mean=None, mle=None, summary=summary)


class BalancedModel:
    """Known (mu, tau) and a data-point counting. Only the full table is
    fitted; a leave-one-out refit is refused."""

    def __init__(self, mu: float, tau: float, counting: str):
        self.mu = mu
        self.tau = tau
        self.counting = counting

    def fit(self, data, exclude: int | None = None, *, draws: int, seed: int) -> _BalancedFit:
        if exclude is not None:
            raise ModelRefusalError("the balanced model supports `fit` only (known hyperparameters)")
        theta = balanced_group_posterior_draws(data, self.mu, self.tau, draws, seed)
        return _BalancedFit(balanced_hierarchical_loglik(theta, data, self.counting), self.counting)


def load_balanced_csv(source) -> np.ndarray:
    """Read an n x J observation table with header `group_1,...,group_J`."""
    return _require_finite(_read_table(source, "group_", "balanced data", "observations"), "balanced CSV")
