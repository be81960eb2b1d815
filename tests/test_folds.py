"""Built-in LOO folds against textbook refits, and what a fold holds.

Each fold is a transform of per-draw arrays its model's `folds` forms
once. These tests rebuild every fold posterior the long way, from the same
random numbers replayed from the seed, and score it with
`normal_logpdf_inplace`: each column of each fold must agree within 1e-12
relative, draw by draw.
"""
import tracemalloc

import numpy as np
import pytest

from predcrit.models import RegressionModel, SchoolsModel, load_election_csv, load_schools_csv
from predcrit.models.normal import normal_logpdf_inplace
from predcrit.models.schools import TAU_GRID_SIZE, _tau_grid_posterior

S = 2_000
SEED = 31
RTOL = 1e-12


def _textbook_regression_fold(data, i, chi2, z):
    """(a, b, sigma^2) of the posterior without point i: sigma^2 = RSS / chi2
    and (a, b) = beta_hat + sigma L z, through X_-i's OLS and the Cholesky
    factor L of (X_-i' X_-i)^-1."""
    x, y = np.delete(data.x, i), np.delete(data.y, i)
    X = np.column_stack([np.ones_like(x), x])
    xtx_inv = np.linalg.inv(X.T @ X)
    beta_hat = xtx_inv @ (X.T @ y)
    resid = y - X @ beta_hat
    sigma2 = float(resid @ resid) / chi2
    ab = beta_hat + np.sqrt(sigma2)[:, None] * (z @ np.linalg.cholesky(xtx_inv).T)
    return ab[:, 0], ab[:, 1], sigma2


@pytest.mark.parametrize("seed", [SEED, 12345])
def test_every_regression_fold_column_matches_the_textbook_refit(seed):
    data = load_election_csv()
    n = len(data)
    fold = RegressionModel().folds(data, draws=S, seed=seed)
    rng = np.random.default_rng(seed)
    chi2, z = rng.chisquare(n - 3, S), rng.standard_normal((S, 2))
    for i in range(n):
        a, b, sigma2 = _textbook_regression_fold(data, i, chi2, z)
        fit = fold(i)
        for j in range(n):
            want = normal_logpdf_inplace(data.y[j] - (a + b * data.x[j]), sigma2)
            np.testing.assert_allclose(fit.loglik(j), want, rtol=RTOL, atol=0, err_msg=f"fold {i}, point {j}")


def _schools_replay(model, data, seed):
    """The shared numbers of the schools folds, drawn in this order: tau's
    uniforms (hierarchical), the normals of mu or of the pooled effect,
    then the S x J normals of the effects; the hierarchical folds take
    the draws in increasing u."""
    rng = np.random.default_rng(seed)
    if model.mode != "hierarchical":
        return None, rng.standard_normal(S), rng.standard_normal((S, len(data)))
    u, z, effects = rng.random(S), rng.standard_normal(S), rng.standard_normal((S, len(data)))
    order = np.argsort(u)
    return u[order], z[order], effects[order]


def _textbook_schools_fold(model, data, i, u, z, effects):
    """Column j of the posterior without group i, for every j: under
    complete pooling N(y_j | mu, sigma_j^2) with mu = m + sqrt(v) z from the
    training groups' precision-weighted posterior; hierarchical, tau =
    grid[idx] by the inverse CDF of the training groups' grid, mu =
    mu_hat[idx] + sqrt(v_mu[idx]) z, a group without data scored by
    N(y_j | mu, tau^2 + sigma_j^2) and a training group at its conditional
    effect theta_j | mu, tau, y_j."""
    y, sigma = data.y, data.sigma
    y_tr, sigma_tr = np.delete(y, i), np.delete(sigma, i)
    if model.mode == "complete_pooling":
        w = 1.0 / sigma_tr**2
        v = 1.0 / w.sum()
        mu = v * (w * y_tr).sum() + np.sqrt(v) * z
        return [normal_logpdf_inplace(y[j] - mu, sigma[j] ** 2) for j in range(len(data))]
    grid, mass, mu_hat, v_mu = _tau_grid_posterior(y_tr, sigma_tr, model.tau_grid)
    cdf = np.cumsum(mass)
    idx = np.searchsorted(cdf / cdf[-1], u)
    tau, mu = grid[idx], mu_hat[idx] + np.sqrt(v_mu[idx]) * z
    columns = []
    for j in range(len(data)):
        t2, s2 = tau**2, sigma[j] ** 2
        if j == i or model.prediction_mode == "new_groups":
            columns.append(normal_logpdf_inplace(y[j] - mu, t2 + s2))
        else:
            theta = (y[j] * t2 + mu * s2) / (t2 + s2) + np.sqrt(s2 * t2 / (t2 + s2)) * effects[:, j]
            columns.append(normal_logpdf_inplace(y[j] - theta, s2))
    return columns


SCHOOLS_FOLDS = {
    "complete-pooling": SchoolsModel("complete_pooling"),
    "existing-groups": SchoolsModel(),
    "new-groups": SchoolsModel(prediction_mode="new_groups"),
    "pinned-tau": SchoolsModel(tau_grid=np.array([5.0])),
    "two-point-grid": SchoolsModel(tau_grid=np.array([0.0, 8.0])),
}


@pytest.mark.parametrize("name", list(SCHOOLS_FOLDS))
def test_every_schools_fold_column_matches_the_textbook_posterior(name):
    model, data = SCHOOLS_FOLDS[name], load_schools_csv()
    fold = model.folds(data, draws=S, seed=SEED)
    shared = _schools_replay(model, data, SEED)
    for i in range(len(data)):
        fit = fold(i)
        for j, want in enumerate(_textbook_schools_fold(model, data, i, *shared)):
            np.testing.assert_allclose(fit.loglik(j), want, rtol=RTOL, atol=0, err_msg=f"fold {i}, group {j}")


# ---------------------------------------------------------------------------
# what a fold holds: memory traced while all n folds are built and kept
# ---------------------------------------------------------------------------

MEMORY_DRAWS = 100_000


def _held_bytes(build):
    """(what build() returns, the bytes it still holds when it returns)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        return kept, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_regression_and_complete_pooling_folds_together_hold_less_than_one_draw_array():
    one_array = MEMORY_DRAWS * 8
    cases = [(RegressionModel(), load_election_csv()), (SchoolsModel("complete_pooling"), load_schools_csv())]
    folds = [(model.folds(data, draws=MEMORY_DRAWS, seed=SEED), len(data)) for model, data in cases]
    kept, held = _held_bytes(lambda: [fold(i) for fold, n in folds for i in range(n)])
    assert len(kept) == 15 + 8
    assert held < one_array, held


@pytest.mark.parametrize("name", ["existing-groups", "new-groups"])
def test_a_hierarchical_fold_holds_its_tau_index_and_grid_tables_only(name):
    model, data = SCHOOLS_FOLDS[name], load_schools_csv()
    fold = model.folds(data, draws=MEMORY_DRAWS, seed=SEED)
    for i in range(len(data)):
        fit, held = _held_bytes(lambda: fold(i))
        assert fit._idx.size == MEMORY_DRAWS
        # beside the tau index: the grid, mu_hat and sd_mu, each TAU_GRID_SIZE long
        assert held - fit._idx.nbytes < 4 * TAU_GRID_SIZE * 8, (i, held)
