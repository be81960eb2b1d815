"""Group-level normal meta-analysis with three pooling modes.

Data per group j: an estimated effect y_j with known standard error
sigma_j, modeled y_j ~ N(theta_j, sigma_j^2). The modes differ in what
ties the theta_j together:

no_pooling        theta_j independent, flat priors: theta_j | y ~ N(y_j, sigma_j^2)
complete_pooling  a single shared theta with flat prior (precision-weighted posterior)
hierarchical      theta_j ~ N(mu, tau^2), uniform hyperprior on (mu, tau)

The hierarchical posterior is sampled without MCMC: tau from its gridded
marginal (inverse CDF on a dense uniform grid), then mu | tau, y normal,
then each theta_j | mu, tau, y normal. A held-out group has no data in
the training fit, so its effect is drawn from the population N(mu, tau^2);
under no pooling that distribution does not exist and a leave-one-out
refit is refused.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from ..criteria import PointEstimateLogLik, PointEstimates
from ..draws import PointwiseLogLikMatrix, _read_table, _require_finite
from ..errors import ModelRefusalError
from .normal import normal_logpdf_inplace

__all__ = [
    "EightSchoolsData",
    "SchoolsModel",
    "schools_fit",
    "load_schools_csv",
    "default_eight_schools",
    "POOLING_MODES",
    "PREDICTION_MODES",
]

POOLING_MODES = ("no_pooling", "complete_pooling", "hierarchical")
PREDICTION_MODES = ("existing_groups", "new_groups")

TAU_GRID_SIZE = 2000


@dataclass(frozen=True)
class EightSchoolsData:
    """Estimated group effects and their standard errors."""

    y: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        y = _require_finite(np.asarray(self.y, dtype=float).reshape(-1), "y")
        sigma = _require_finite(np.asarray(self.sigma, dtype=float).reshape(-1), "sigma")
        if y.size != sigma.size or y.size < 1:
            raise ValueError("y and sigma must be nonempty and the same length")
        if (sigma <= 0).any():
            raise ValueError("all standard errors must be positive")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma", sigma)

    @property
    def J(self) -> int:
        return self.y.size

    def __len__(self) -> int:
        return self.y.size


def load_schools_csv(source) -> EightSchoolsData:
    """Read `school,y,sigma` rows (header required; the school is not read)."""
    y, sigma = _read_table(source, ("school", "y", "sigma"), "schools data", "groups", labels=1).T
    return EightSchoolsData(y, sigma)


def default_eight_schools() -> EightSchoolsData:
    """The bundled eight-schools coaching dataset."""
    ref = resources.files(__package__).joinpath("data/eight_schools.csv")
    with ref.open("r", encoding="utf-8") as fh:
        return load_schools_csv(fh)


def _tau_grid_posterior(y: np.ndarray, sigma: np.ndarray, grid: np.ndarray | None = None):
    """Gridded marginal p(tau | y) under the uniform (mu, tau) hyperprior.

    Returns (grid, normalized masses, mu_hat(tau), V_mu(tau)). The default
    grid is uniform on [0, 2 max_j(|y_j| + sigma_j)] with TAU_GRID_SIZE
    points; callers may pass their own (e.g. a single pinned value).
    """
    if grid is None:
        tau_max = 2.0 * float(np.max(np.abs(y) + sigma))
        grid = np.linspace(0.0, tau_max, TAU_GRID_SIZE)
    else:
        grid = np.asarray(grid, dtype=float).reshape(-1)
    var = sigma[None, :] ** 2 + grid[:, None] ** 2
    v_mu = 1.0 / (1.0 / var).sum(axis=1)
    mu_hat = v_mu * (y[None, :] / var).sum(axis=1)
    logp = (
        0.5 * np.log(v_mu)
        - 0.5 * np.log(var).sum(axis=1)
        - 0.5 * ((y[None, :] - mu_hat[:, None]) ** 2 / var).sum(axis=1)
    )
    logp -= logp.max()
    mass = np.exp(logp)
    mass /= mass.sum()
    return grid, mass, mu_hat, v_mu


class SchoolsModel:
    """Refittable group-level model. `mode` picks the pooling,
    `prediction_mode` whether replications are of the existing groups or of
    new ones, and `tau_grid` overrides the hierarchical mode's default grid
    (used, for instance, to pin tau at a single value)."""

    def __init__(self, mode: str = "hierarchical", prediction_mode: str = "existing_groups",
                 tau_grid: np.ndarray | None = None):
        if mode not in POOLING_MODES:
            raise ValueError(f"mode must be one of {POOLING_MODES}")
        if prediction_mode not in PREDICTION_MODES:
            raise ValueError(f"prediction_mode must be one of {PREDICTION_MODES}")
        if prediction_mode == "new_groups" and mode != "hierarchical":
            raise ValueError("new_groups prediction needs the hierarchical mode")
        self.mode = mode
        self.prediction_mode = prediction_mode
        self.tau_grid = tau_grid

    def fit(self, data: EightSchoolsData, exclude: int | None = None, *, draws: int, seed: int) -> _SchoolsFit:
        return _SchoolsFit(self, data, exclude, draws, seed)


class _SchoolsFit:
    """Cached posterior draws for every group, training or held out.

    theta has shape (S, J) over the *full* group list; a held-out group's
    column is drawn from the training posterior (the shared effect, or
    the hierarchical population). No pooling has none, so its refit raises.
    A refit draws its held-out effect (`_heldout`) when built, after tau
    and mu, and the other groups' effects only when `theta` is first read.
    """

    def __init__(self, model: SchoolsModel, data: EightSchoolsData, exclude: int | None, draws: int, seed: int):
        self._model = model
        self._data = data
        self._exclude = exclude
        y, sigma, J = data.y, data.sigma, data.J
        keep = np.arange(J) if exclude is None else np.delete(np.arange(J), exclude)
        if keep.size == 0:
            raise ValueError("training set must contain at least one group")
        if model.mode == "no_pooling" and exclude is not None:
            raise ModelRefusalError(
                "model cannot predict held-out point: the no-pooling fit has "
                "no distribution for an unobserved group"
            )
        self._rng = rng = np.random.default_rng(seed)
        self._draws = draws
        self.tau = self.mu = self.tau_grid = self.tau_mass = self._heldout = None
        if model.mode == "complete_pooling":
            w = 1.0 / sigma[keep] ** 2
            v_post = 1.0 / w.sum()
            mean_post = v_post * (w * y[keep]).sum()
            self.mu = self._heldout = mean_post + np.sqrt(v_post) * rng.standard_normal(draws)
        elif model.mode == "hierarchical":
            grid, mass, mu_hat, v_mu = _tau_grid_posterior(y[keep], sigma[keep], model.tau_grid)
            self.tau_grid, self.tau_mass = grid, mass
            self._idx = idx = np.searchsorted(np.cumsum(mass), rng.random(draws))
            self.tau = grid[idx]
            self.mu = mu_hat[idx] + np.sqrt(v_mu[idx]) * rng.standard_normal(draws)
            if exclude is not None:
                self._heldout = self.mu + self.tau * rng.standard_normal(draws)
        if exclude is None:  # a full-data fit draws every effect when built
            self.theta

    @cached_property
    def theta(self) -> np.ndarray:
        d, rng, draws, model = self._data, self._rng, self._draws, self._model
        if model.mode == "no_pooling":
            return d.y + d.sigma * rng.standard_normal((draws, d.J))
        if model.mode == "complete_pooling":
            return np.repeat(self.mu[:, None], d.J, axis=1)
        idx, mu = self._idx, self.mu
        if model.prediction_mode == "new_groups":
            theta = mu[:, None] + self.tau[:, None] * rng.standard_normal((draws, d.J))
        else:
            # theta_j | mu, tau ~ N((y t2 + mu s2) / den, s2 t2 / den) with
            # t2 = tau^2 and den = t2 + s2, so tau = 0 needs no special case;
            # the tau-only factors are tabulated on the grid, then gathered
            g2 = self.tau_grid[:, None] ** 2
            s2 = d.sigma**2
            den = g2 + s2
            sd = np.sqrt(s2 * g2 / den)
            theta = np.take(d.y * g2, idx, axis=0)
            buf = np.multiply(mu[:, None], s2)
            theta += buf
            theta /= np.take(den, idx, axis=0, out=buf)
            rng.standard_normal(out=buf)
            buf *= np.take(sd, idx, axis=0)
            theta += buf
        if self._exclude is not None:
            theta[:, self._exclude] = self._heldout
        return theta

    def point_estimates(self) -> PointEstimates:
        """Log densities of all J groups at the posterior mean of the group
        effects and, for the two flat-prior modes, at the MLE of the training
        groups: theta_j = y_j under no pooling, the precision-weighted mean
        under complete pooling. The hierarchical model has no MLE."""
        d, mode = self._data, self._model.mode
        var = d.sigma**2
        theta_bayes = self.theta.mean(axis=0)
        mle = None
        if mode == "no_pooling":  # theta_j = y_j leaves no residual
            mle = PointEstimateLogLik(float(normal_logpdf_inplace(np.zeros(d.J), var).sum()), d.J)
        elif mode == "complete_pooling":
            w = 1.0 / var
            if self._exclude is not None:
                w[self._exclude] = 0.0
            mu_hat = float((w * d.y).sum() / w.sum())
            mle = PointEstimateLogLik(float(normal_logpdf_inplace(d.y - mu_hat, var).sum()), 1)
        return PointEstimates(
            lpd_at_mean=float(normal_logpdf_inplace(d.y - theta_bayes, var).sum()),
            mle=mle,
            summary={"theta_bayes": theta_bayes.tolist()},
        )

    def pointwise_loglik(self) -> PointwiseLogLikMatrix:
        d = self._data
        resid = np.subtract(d.y, self.theta, order="F")  # S x J, column-major
        return PointwiseLogLikMatrix(normal_logpdf_inplace(resid, d.sigma**2))

    def heldout_loglik(self) -> np.ndarray:
        d, i = self._data, self._exclude
        return normal_logpdf_inplace(d.y[i] - self._heldout, (d.sigma**2)[i])


def schools_fit(data: EightSchoolsData, draws: int, seed: int) -> _SchoolsFit:
    """Fit the hierarchical model to the full dataset."""
    return SchoolsModel().fit(data, draws=draws, seed=seed)
