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

import math
import threading
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..criteria import PointEstimateLogLik, PointEstimates
from ..draws import PointwiseLogLikMatrix, _read_table, _require_finite
from ..errors import ModelRefusalError
from .normal import normal_logpdf_inplace, normal_terms, point_total, score_columns

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


def _cdf(mass: np.ndarray) -> np.ndarray:
    """The CDF of grid masses, ending at exactly 1 so that no uniform draw
    falls past the last point."""
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    return cdf


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


def _pooled(y: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of the complete-pooling effect's flat-prior
    posterior; the mean is also the MLE."""
    w = 1.0 / sigma**2
    v_post = 1.0 / w.sum()
    return v_post * (w * y).sum(), v_post


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

    def fit(self, data: EightSchoolsData, *, draws: int, seed: int) -> _SchoolsFit:
        """The posterior of `data` from `seed`."""
        return _SchoolsFit(self, data, _SchoolsDraws(self.mode, draws, seed, shared=False))

    def folds(self, data: EightSchoolsData, *, draws: int, seed: int):
        """fold(i), the posterior without group i. All folds transform one
        `_SchoolsDraws` from `seed`, drawn as the full fit draws. Refused
        under no pooling, or with one group, before anything is drawn."""
        if self.mode == "no_pooling":
            raise ModelRefusalError(
                "model cannot predict held-out point: the no-pooling fit has "
                "no distribution for an unobserved group"
            )
        if len(data) < 2:
            raise ValueError("training set must contain at least one group")
        shared = _SchoolsDraws(self.mode, draws, seed, shared=True)
        fold = _PooledFold if self.mode == "complete_pooling" else _HierarchicalFold
        return lambda i: fold(self, data, i, shared)


class _SchoolsDraws:
    """The random numbers a schools fit transforms, drawn from one seed in
    this order: S uniforms for tau and S normals for mu (hierarchical), or
    S normals for the pooled effect (complete pooling), then, once a fit
    reads them, the S x J normals of the effects. `shared` draws serve
    every fold of a dataset: they are read-only, and their effects'
    normals are drawn once, by whichever fold reads them first, and kept,
    one contiguous row per group. Shared hierarchical draws are kept in
    increasing u, each draw's normals beside its uniform, so that a fold's
    tau index is one run per grid point (see `_HierarchicalFold`)."""

    def __init__(self, mode: str, draws: int, seed, shared: bool):
        self._rng = rng = np.random.default_rng(seed)
        self.size = draws
        self.u = rng.random(draws) if mode == "hierarchical" else None
        self.z = None if mode == "no_pooling" else rng.standard_normal(draws)
        self._order = np.argsort(self.u) if shared and self.u is not None else None
        if self._order is not None:
            self.u, self.z = self.u[self._order], self.z[self._order]
        self._lock = threading.Lock() if shared else None
        self._effects = None
        self._work = threading.local()
        for values in (self.u, self.z) if shared else ():
            if values is not None:
                values.flags.writeable = False

    def work_array(self) -> np.ndarray:
        """The calling thread's length-S work array, kept from one scored
        column to the next: a second array allocated and freed beside
        every column more than doubled its cost, its pages returned to the
        system and faulted in again each time."""
        work = getattr(self._work, "values", None)
        if work is None:
            work = self._work.values = np.empty(self.size)
        return work

    def effect_normals(self, J: int) -> np.ndarray:
        """The S x J normals of the effects, a fresh draw for a fit of its
        own, which reads them once; for shared draws, one read-only draw
        kept as J x S, in the order of the other shared draws."""
        if self._lock is None:
            return self._rng.standard_normal((self.size, J))
        with self._lock:
            if self._effects is None:  # only the hierarchical folds, whose draws are sorted, read them
                self._effects = np.take(self._rng.standard_normal((self.size, J)).T, self._order, axis=1)
                self._effects.flags.writeable = False
            return self._effects


class _SchoolsFit:
    """Posterior draws of the pooling mode's parameters, transformed from
    `draws`. `theta` (S x J; under complete pooling a read-only view of mu)
    is drawn when first read. `loglik` says how a new group is scored."""

    def __init__(self, model: SchoolsModel, data: EightSchoolsData, draws: _SchoolsDraws):
        self._model = model
        self._data = data
        self._new_groups = model.prediction_mode == "new_groups"
        self._draws = draws
        self.tau = self.mu = self.tau_grid = self.tau_mass = self._theta = None
        if model.mode == "complete_pooling":
            self._pooled_mean, v_post = _pooled(data.y, data.sigma)
            self.mu = self._pooled_mean + np.sqrt(v_post) * draws.z
        elif model.mode == "hierarchical":
            grid, mass, mu_hat, v_mu = _tau_grid_posterior(data.y, data.sigma, model.tau_grid)
            self.tau_grid, self.tau_mass = grid, mass
            self._idx = idx = _inverse_cdf(_cdf(mass), draws.u)
            self.tau = grid[idx]
            self.mu = mu_hat[idx] + np.sqrt(v_mu[idx]) * draws.z

    @property
    def theta(self) -> np.ndarray:
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
        if mode == "hierarchical":
            means = {"mu": float(self.mu.mean()), "tau": float(self.tau.mean())}
            if self._new_groups:
                var = var + means["tau"] ** 2
        else:  # theta_j = y_j leaves no residual under no pooling
            resid, k = (np.zeros(len(d)), len(d)) if mode == "no_pooling" else (d.y - self._pooled_mean, 1)
            mle = PointEstimateLogLik(point_total(normal_logpdf_inplace(resid, var), "lpd_at_mle"), k)
        if self._new_groups:
            center, summary = means["mu"], {"posterior_means": means}
        else:
            center = self.theta.mean(axis=0)
            summary = {"theta_bayes": center.tolist()}
        return PointEstimates(point_total(normal_logpdf_inplace(d.y - center, var), "lpd_at_mean"), mle, summary)

    # kept for perfbench's tracer, which wraps it by name as a models.score span
    def pointwise_loglik(self) -> PointwiseLogLikMatrix:
        return PointwiseLogLikMatrix(self.loglik(np.arange(len(self._data))))

    def loglik(self, idx) -> np.ndarray:
        """log N(y_j | theta_j, sigma_j^2) per draw of the groups `idx`: the
        length-S column of an int, a column-major S x len(idx) array of an
        index array. Complete pooling scores every group at the shared
        effect mu. A new group is scored as log N(y_j | mu, tau^2 +
        sigma_j^2), its density terms tabulated on the tau grid and
        gathered by the draws' tau index; that draws no effects."""
        d = self._data
        y, s2 = d.y[idx], d.sigma[idx] ** 2
        if self._model.mode == "complete_pooling" or self._new_groups:
            resid = np.subtract.outer(y, self.mu).T
        else:
            resid = np.subtract(y, self.theta[:, idx], order="F")
        if not self._new_groups:
            return normal_logpdf_inplace(resid, s2)
        var = s2[..., None] + self.tau_grid**2
        terms = tuple(np.take(t, self._idx, axis=-1).T for t in normal_terms(var))
        return normal_logpdf_inplace(resid, None, terms)


class _PooledFold:
    """Fold i under complete pooling: two scalars, the training groups'
    pooled mean m and sd v, over the shared normals z. With mu = m + v z
    and r_j = 1 / sqrt(2 sigma_j^2), log N(y_j | mu, sigma_j^2) =
    C_j - ((y_j - m) r_j - v r_j z)^2, C_j = -log(2 pi sigma_j^2) / 2."""

    def __init__(self, model: SchoolsModel, data: EightSchoolsData, i: int, draws: _SchoolsDraws):
        self._data, self._draws = data, draws
        mean, v_post = _pooled(np.delete(data.y, i), np.delete(data.sigma, i))
        self._mean, self._sd = mean, math.sqrt(v_post)

    def loglik(self, idx) -> np.ndarray:
        """log N(y_j | mu, sigma_j^2) per draw of the groups `idx`: the
        length-S column of an int, a column-major S x len(idx) array of an
        index array."""
        return score_columns(self._column, idx, self._draws.size)

    def _column(self, j: int, out: np.ndarray) -> np.ndarray:
        minus_2var, half_log = normal_terms(self._data.sigma[j] ** 2)
        r = 1.0 / math.sqrt(-minus_2var)  # 0 past double range, where the density is -inf
        # a density past double range is a non-finite column, which callers refuse
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(self._draws.z, -self._sd * r, out=out)
            out += (self._data.y[j] - self._mean) * r
            np.square(out, out=out)
            np.subtract(-half_log, out, out=out)
        return out


class _HierarchicalFold:
    """Fold i of the hierarchical model: one length-S array of its own,
    the tau index of each draw (its own grid CDF applied to the shared
    uniforms, which are sorted, so that the index runs through the grid
    points in order and is found with one search of the grid in the
    uniforms), and the training groups' grid tables mu_hat(tau) and
    sd_mu(tau). With mu = mu_hat[idx] + sd_mu[idx] z, every column is one
    residual of per-grid coefficients gathered by the tau index:

    - a group without data (group i, or every group when predicting new
      ones): log N(y_j | mu, tau^2 + sigma_j^2) = C[idx] - (A[idx] - B[idx] z)^2,
      var = tau^2 + sigma_j^2, C = -log(2 pi var) / 2,
      A = (y_j - mu_hat) / sqrt(2 var), B = sd_mu / sqrt(2 var);
    - a training group j of the existing groups, at its effect theta_j |
      mu, tau, y_j from the shared effect normals e_j:
      log N(y_j | theta_j, sigma_j^2) = C_j - (P[idx] - Q[idx] z - R[idx] e_j)^2,
      with y_j - theta_j = w (y_j - mu) - sd e_j, w = sigma_j^2 / (tau^2 +
      sigma_j^2), sd = sqrt(w tau^2), all over sqrt(2 sigma_j^2).

    No fold forms mu, tau or an S x J theta."""

    def __init__(self, model: SchoolsModel, data: EightSchoolsData, i: int, draws: _SchoolsDraws):
        self._data, self._i, self._draws = data, i, draws
        self._new_groups = model.prediction_mode == "new_groups"
        grid, mass, mu_hat, v_mu = _tau_grid_posterior(np.delete(data.y, i), np.delete(data.sigma, i),
                                                       model.tau_grid)
        self.tau_grid, self._mu_hat, self._mu_sd = grid, mu_hat, np.sqrt(v_mu)
        # grid point k takes the draws with cdf[k - 1] < u <= cdf[k], as np.searchsorted(cdf, u) does
        ends = np.searchsorted(draws.u, _cdf(mass), side="right")
        self._idx = np.repeat(np.arange(grid.size), np.diff(ends, prepend=0))

    def loglik(self, idx) -> np.ndarray:
        """log N(y_j | theta_j, sigma_j^2) per draw of the groups `idx`, a
        group without data in the fold at its effect integrated out: the
        length-S column of an int, a column-major S x len(idx) array of an
        index array. Scoring only such groups draws no effects."""
        return score_columns(self._column, idx, self._draws.size)

    def _column(self, j: int, out: np.ndarray) -> np.ndarray:
        column = self._integrated if j == self._i or self._new_groups else self._at_effect
        # a coefficient or density past double range is a non-finite column, which callers refuse
        with np.errstate(over="ignore", invalid="ignore"):
            return column(j, out, self._draws.work_array())

    # Both columns gather with mode="clip": every tau index is on the grid,
    # and "clip" writes straight into `out`, where the default buffers first.

    def _integrated(self, j: int, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """C[idx] - (A[idx] - B[idx] z)^2, group j's effect integrated out."""
        minus_2var, half_log = normal_terms(self._data.sigma[j] ** 2 + self.tau_grid**2)
        r = 1.0 / np.sqrt(-minus_2var)
        np.take(self._mu_sd * r, self._idx, out=out, mode="clip")
        out *= self._draws.z
        np.take((self._data.y[j] - self._mu_hat) * r, self._idx, out=work, mode="clip")
        np.subtract(work, out, out=out)
        np.square(out, out=out)
        np.take(-half_log, self._idx, out=work, mode="clip")
        return np.subtract(work, out, out=out)

    def _at_effect(self, j: int, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """C_j - (P[idx] - Q[idx] z - R[idx] e_j)^2, training group j at its effect."""
        s2, grid2 = self._data.sigma[j] ** 2, self.tau_grid**2
        minus_2var, half_log = normal_terms(s2)
        r = 1.0 / math.sqrt(-minus_2var)
        w = s2 / (grid2 + s2)
        np.take(w * self._mu_sd * r, self._idx, out=out, mode="clip")
        out *= self._draws.z
        np.take(np.sqrt(w * grid2) * r, self._idx, out=work, mode="clip")
        work *= self._draws.effect_normals(len(self._data))[j]
        out += work
        np.take(w * (self._data.y[j] - self._mu_hat) * r, self._idx, out=work, mode="clip")
        np.subtract(work, out, out=out)
        np.square(out, out=out)
        return np.subtract(-half_log, out, out=out)


def schools_fit(data: EightSchoolsData, draws: int, seed: int) -> _SchoolsFit:
    """Fit the hierarchical model to the full dataset. No caller in the
    package: perfbench's tracer wraps it by name as a models.fit span."""
    return SchoolsModel().fit(data, draws=draws, seed=seed)
