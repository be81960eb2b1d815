"""Group-level normal meta-analysis with three pooling modes.

Data per group j: an estimated effect y_j with known standard error
sigma_j, modeled y_j ~ N(theta_j, sigma_j^2). The modes differ in what
ties the theta_j together:

no_pooling        theta_j independent, flat priors: theta_j | y ~ N(y_j, sigma_j^2)
complete_pooling  a single shared theta with flat prior (precision-weighted posterior)
hierarchical      theta_j ~ N(mu, tau^2), uniform hyperprior on (mu, tau)

The hierarchical posterior is sampled without MCMC: tau from its gridded
marginal (inverse CDF on a dense uniform grid), then mu | tau, y normal,
then each theta_j | mu, tau, y normal. A group without data in the fit
(held out, or new) is scored with its effect integrated out: y_j | mu,
tau ~ N(mu, tau^2 + sigma_j^2). Under no pooling that distribution does
not exist and a leave-one-out refit is refused.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..criteria import PointEstimates
from ..draws import PointwiseLogLikMatrix, _read_table, _require_finite
from ..errors import ModelRefusalError
from .normal import mle_loglik, normal_logpdf_inplace, normal_terms

__all__ = [
    "EightSchoolsData",
    "SchoolsModel",
    "schools_fit",
    "load_schools_csv",
    "POOLING_MODES",
    "PREDICTION_MODES",
]

POOLING_MODES = ("no_pooling", "complete_pooling", "hierarchical")
PREDICTION_MODES = ("existing_groups", "new_groups")

TAU_GRID_SIZE = 2000
# Buckets of the guide table that starts each tau draw's search of the CDF.
_GUIDE_BUCKETS = 4096


@dataclass(frozen=True)
class EightSchoolsData:
    """Estimated group effects and their standard errors."""

    y: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        y = _require_finite(np.asarray(self.y, dtype=float).reshape(-1), "y values")
        sigma = _require_finite(np.asarray(self.sigma, dtype=float).reshape(-1), "sigma values")
        if y.size != sigma.size or y.size < 1:
            raise ValueError("y and sigma must be nonempty and the same length")
        if (sigma <= 0).any():
            raise ValueError("all standard errors must be positive")
        # every mode squares each effect and standard error, and weighs a group by 1/sigma^2
        with np.errstate(over="ignore", divide="ignore"):
            _require_finite(np.square(y), "y^2")
            _require_finite(np.square(sigma), "sigma^2")
            _require_finite(1.0 / np.square(sigma), "1/sigma^2")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma", sigma)

    def __len__(self) -> int:
        return self.y.size


def load_schools_csv(source=None) -> EightSchoolsData:
    """Read `school,y,sigma` rows (header required; the school is not read);
    with no source, the bundled eight-schools coaching dataset."""
    if source is None:
        with resources.files(__package__).joinpath("data/eight_schools.csv").open("r", encoding="utf-8") as fh:
            return load_schools_csv(fh)
    y, sigma = _read_table(source, ("school", "y", "sigma"), "schools data", "groups", labels=1).T
    return EightSchoolsData(y, sigma)


def _tau_grid_posterior(y: np.ndarray, sigma: np.ndarray, grid: np.ndarray | None = None):
    """Gridded marginal p(tau | y) under the uniform (mu, tau) hyperprior.

    Returns (grid, normalized masses, mu_hat(tau), V_mu(tau)). The default
    grid is uniform on [0, 2 max_j(|y_j| + sigma_j)] with TAU_GRID_SIZE
    points; callers may pass their own (e.g. a single pinned value). A
    default grid whose top squares out of double range is refused.
    """
    if grid is None:
        tau_max = 2.0 * float(np.max(np.abs(y) + sigma))
        with np.errstate(over="ignore"):
            _require_finite(np.square([tau_max]), "default tau_grid^2")
        grid = np.linspace(0.0, tau_max, TAU_GRID_SIZE)
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


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u), the first index whose CDF value is at least
    u, of a nondecreasing `cdf` ending at 1 and each u in [0, 1).

    A guide table holds the answer for each bucket's lower edge b /
    _GUIDE_BUCKETS, which is exact, as is the bucket u * _GUIDE_BUCKETS of
    each draw, so a draw whose CDF at its bucket's entry reaches it is
    done; only the draws left short (8% of them on the eight schools) are
    searched again, gathered, so nothing of the full length is added.
    """
    guide = np.searchsorted(cdf, np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS)
    idx = guide[(u * _GUIDE_BUCKETS).astype(np.intp)]
    short = np.flatnonzero(cdf[idx] < u)
    idx[short] = np.searchsorted(cdf, u[short])
    return idx


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
        if tau_grid is not None:
            if mode != "hierarchical":
                raise ValueError("tau_grid needs the hierarchical mode")
            tau_grid = _require_finite(np.asarray(tau_grid, dtype=float), "tau_grid")
            if tau_grid.ndim != 1 or not tau_grid.size:
                raise ValueError("tau_grid must be a nonempty 1-dimensional array")
            if (tau_grid < 0).any():
                raise ValueError("tau_grid must be nonnegative")
            with np.errstate(over="ignore"):  # each point is squared into the group variances
                _require_finite(np.square(tau_grid), "tau_grid^2")
        self.mode = mode
        self.prediction_mode = prediction_mode
        self.tau_grid = tau_grid

    def fit(self, data: EightSchoolsData, exclude: int | None = None, *, draws: int, seed: int) -> _SchoolsFit:
        """The posterior of `data` from `seed`; `exclude=i` gives fold i of `folds`."""
        if exclude is not None:
            return self.folds(data, draws=draws, seed=seed)(exclude)
        return _SchoolsFit(self, data, None, _SchoolsDraws(self.mode, draws, seed, shared=False))

    def folds(self, data: EightSchoolsData, *, draws: int, seed: int):
        """fold(i), the posterior without group i. All folds transform one
        `_SchoolsDraws` from `seed`, drawn as the full fit draws. Refused
        under no pooling before anything is drawn."""
        if self.mode == "no_pooling":
            raise ModelRefusalError(
                "model cannot predict held-out point: the no-pooling fit has "
                "no distribution for an unobserved group"
            )
        shared = _SchoolsDraws(self.mode, draws, seed, shared=True)
        return lambda i: _SchoolsFit(self, data, i, shared)


class _SchoolsDraws:
    """The random numbers a schools fit transforms, drawn from one seed in
    this order: S uniforms for tau and S normals for mu (hierarchical), or
    S normals for the pooled effect (complete pooling), then, once a fit
    reads `theta`, the S x J normals of the effects. `shared` draws serve
    every fold of a dataset: the effects' normals are then drawn once, by
    whichever fold reads them first, and kept."""

    def __init__(self, mode: str, draws: int, seed, shared: bool):
        self._rng = rng = np.random.default_rng(seed)
        self.size = draws
        self.u = rng.random(draws) if mode == "hierarchical" else None
        self.z = None if mode == "no_pooling" else rng.standard_normal(draws)
        self._lock = threading.Lock() if shared else None
        self._effects = None
        for values in (self.u, self.z) if shared else ():
            if values is not None:
                values.flags.writeable = False

    def effect_normals(self, J: int) -> np.ndarray:
        """The S x J normals of the effects: a fresh draw for a fit of its
        own, which reads them once; for shared draws one read-only draw."""
        if self._lock is None:
            return self._rng.standard_normal((self.size, J))
        with self._lock:
            if self._effects is None:
                self._effects = self._rng.standard_normal((self.size, J))
                self._effects.flags.writeable = False
            return self._effects


class _SchoolsFit:
    """Posterior draws of the pooling mode's parameters, transformed from
    `draws`. `theta` (S x J, over the *full* group list; under complete
    pooling a read-only view of mu) is drawn when first read; a held-out
    group's column is the shared effect or mu, never conditioned on its own
    y. `loglik` says how a group without data in the fit is scored."""

    def __init__(self, model: SchoolsModel, data: EightSchoolsData, exclude: int | None, draws: _SchoolsDraws):
        self._model = model
        self._data = data
        self._exclude = exclude
        y, sigma, J = data.y, data.sigma, len(data)
        keep = np.arange(J) if exclude is None else np.delete(np.arange(J), exclude)
        if keep.size == 0:
            raise ValueError("training set must contain at least one group")
        self._unseen = np.isin(np.arange(J), keep, invert=True) | (model.prediction_mode == "new_groups")
        self._draws = draws
        self.tau = self.mu = self.tau_grid = self.tau_mass = self._theta = None
        if model.mode == "complete_pooling":
            w = 1.0 / sigma[keep] ** 2
            v_post = 1.0 / w.sum()
            # the flat-prior posterior mean, which is also the MLE
            self._pooled_mean = v_post * (w * y[keep]).sum()
            self.mu = self._pooled_mean + np.sqrt(v_post) * draws.z
        elif model.mode == "hierarchical":
            grid, mass, mu_hat, v_mu = _tau_grid_posterior(y[keep], sigma[keep], model.tau_grid)
            self.tau_grid, self.tau_mass = grid, mass
            cdf = np.cumsum(mass)
            cdf /= cdf[-1]  # ends at exactly 1, so no uniform draw falls past the last point
            self._idx = idx = _inverse_cdf(cdf, draws.u)
            self.tau = grid[idx]
            self.mu = mu_hat[idx] + np.sqrt(v_mu[idx]) * draws.z

    @property
    def theta(self) -> np.ndarray:
        # set by hand, not by functools.cached_property: before Python 3.12
        # that takes one lock for the whole class, so concurrent LOO folds
        # would form their effects one at a time
        if self._theta is None:
            # an effect past double range (inf, or inf - inf) is a non-finite density, which callers refuse
            with np.errstate(over="ignore", invalid="ignore"):
                self._theta = self._draw_theta()
        return self._theta

    def _draw_theta(self) -> np.ndarray:
        d, mode = self._data, self._model.mode
        if mode == "no_pooling":
            return d.y + d.sigma * self._draws.effect_normals(len(d))
        if mode == "complete_pooling":
            return np.broadcast_to(self.mu[:, None], (self._draws.size, len(d)))
        # theta_j | mu, tau ~ N((y t2 + mu s2) / den, s2 t2 / den) with
        # t2 = tau^2 and den = t2 + s2, so tau = 0 needs no special case;
        # the tau-only factors are tabulated on the grid, then gathered
        idx, mu = self._idx, self.mu
        g2 = self.tau_grid[:, None] ** 2
        s2 = d.sigma**2
        den = g2 + s2
        sd = np.sqrt(s2 * g2 / den)
        theta = np.take(d.y * g2, idx, axis=0)
        buf = np.multiply(mu[:, None], s2)
        theta += buf
        theta /= np.take(den, idx, axis=0, out=buf)
        np.take(sd, idx, axis=0, out=buf)
        buf *= self._draws.effect_normals(len(d))
        theta += buf
        if self._exclude is not None:
            theta[:, self._exclude] = mu
        return theta

    def point_estimates(self) -> PointEstimates:
        """Log densities of all J groups, each scored as `loglik` scores
        it, at posterior means: of the group effects or, for a hierarchical
        group without data, of mu and tau. A new-groups fit reports those
        two means in place of `theta_bayes`. The two flat-prior modes also
        report their MLE of the training groups: theta_j = y_j under no
        pooling, the precision-weighted mean under complete pooling. The
        hierarchical model has no MLE."""
        d, mode = self._data, self._model.mode
        var, mle = d.sigma**2, None
        if mode == "no_pooling":  # theta_j = y_j leaves no residual
            mle = mle_loglik(normal_logpdf_inplace(np.zeros(len(d)), var), len(d))
        elif mode == "complete_pooling":
            mle = mle_loglik(normal_logpdf_inplace(d.y - self._pooled_mean, var), 1)
        else:
            means = {"mu": float(self.mu.mean()), "tau": float(self.tau.mean())}
            var = var + self._unseen * means["tau"] ** 2
        if self._model.prediction_mode == "new_groups":
            center, summary = means["mu"], {"posterior_means": means}
        else:
            center = self.theta.mean(axis=0)
            summary = {"theta_bayes": center.tolist()}
        return PointEstimates(float(normal_logpdf_inplace(d.y - center, var).sum()), mle, summary)

    # kept for perfbench's tracer, which wraps it by name as a models.score span
    def pointwise_loglik(self) -> PointwiseLogLikMatrix:
        return PointwiseLogLikMatrix(self.loglik(np.arange(len(self._data))))

    def loglik(self, idx) -> np.ndarray:
        """log N(y_j | theta_j, sigma_j^2) per draw of the groups `idx`: the
        length-S column of an int, a column-major S x len(idx) array of an
        index array. Complete pooling scores every group at the shared
        effect mu. A hierarchical group without data in the fit is scored
        as log N(y_j | mu, tau^2 + sigma_j^2), its density terms tabulated
        on the tau grid and gathered by the draws' tau index; scoring only
        such groups draws no effects."""
        d = self._data
        y, s2, unseen = d.y[idx], d.sigma[idx] ** 2, self._unseen[idx]
        if self._model.mode == "complete_pooling" or unseen.all():
            resid = np.subtract.outer(y, self.mu).T
        else:
            resid = np.subtract(y, self.theta[:, idx], order="F")
        if not unseen.any() or self._model.mode != "hierarchical":
            return normal_logpdf_inplace(resid, s2)
        # a group with data keeps s2 + 0 = s2, so its bits are unchanged
        var = s2[..., None] + unseen[..., None] * self.tau_grid**2
        terms = tuple(np.take(t, self._idx, axis=-1).T for t in normal_terms(var))
        return normal_logpdf_inplace(resid, None, terms)


def schools_fit(data: EightSchoolsData, draws: int, seed: int) -> _SchoolsFit:
    """Fit the hierarchical model to the full dataset. No caller in the
    package: perfbench's tracer wraps it by name as a models.fit span."""
    return SchoolsModel().fit(data, draws=draws, seed=seed)
