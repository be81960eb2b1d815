import io
import math

import numpy as np
import pytest
from scipy import stats

from predcrit import oracle
from predcrit.criteria import criterion_report
from predcrit.draws import lppd
from predcrit.errors import MatrixFormatError, ModelRefusalError
from predcrit.models import (
    BalancedModel,
    NormalMeanModel,
    NormalMeanSpec,
    RegressionData,
    RegressionModel,
    SchoolsModel,
    balanced_group_posterior_draws,
    balanced_hierarchical_loglik,
    default_eight_schools,
    default_election,
    load_election_csv,
    load_schools_csv,
    normal_pointwise_loglik,
    normal_posterior_draws,
    regression_fit,
    schools_fit,
)
from predcrit.models.normal import normal_logpdf_inplace

S = 100_000
SEED = 12345


# ---------------------------------------------------------------------------
# conjugate normal mean
# ---------------------------------------------------------------------------

def test_spec_posterior_algebra():
    spec = NormalMeanSpec(n=4, ybar=2.0, m=4.0, mu0=6.0)
    assert spec.posterior_mean == 4.0  # equal weighting at m = n
    assert spec.posterior_var == 0.125
    with pytest.raises(ValueError):
        NormalMeanSpec(n=3, m=-1.0)


def test_flat_prior_draw_mean_is_centred():
    spec = NormalMeanSpec(n=100, ybar=0.0)
    theta = normal_posterior_draws(spec, S, seed=11)
    assert abs(theta.mean()) < 3 * 0.1 / math.sqrt(S)
    assert theta.std(ddof=1) == pytest.approx(0.1, rel=0.02)


def test_conjugate_moments_match_closed_forms():
    rng = np.random.default_rng(0)
    for _ in range(4):
        spec = NormalMeanSpec(
            n=int(rng.integers(1, 30)),
            ybar=float(rng.normal(0, 3)),
            m=float(rng.uniform(0, 5)),
            mu0=float(rng.normal(0, 2)),
        )
        theta = normal_posterior_draws(spec, S, seed=int(rng.integers(1 << 30)))
        sd = math.sqrt(spec.posterior_var)
        assert abs(theta.mean() - spec.posterior_mean) < 4 * sd / math.sqrt(S)
        var = theta.var(ddof=1)
        se_var = spec.posterior_var * math.sqrt(2.0 / (S - 1))
        assert abs(var - spec.posterior_var) < 4 * se_var


def test_informative_prior_dominates_in_the_limit():
    spec = NormalMeanSpec(n=5, ybar=10.0, m=1e9, mu0=-1.0)
    theta = normal_posterior_draws(spec, 5_000, seed=3)
    assert abs(theta.mean() + 1.0) < 1e-3
    mat = normal_pointwise_loglik(np.full(5, -1.0), theta)
    assert criterion_report(mat).p_waic2 < 1e-4  # the data provide no information


def test_pointwise_entries():
    mat = normal_pointwise_loglik([1.5], [1.5])
    assert mat.values[0, 0] == pytest.approx(-0.918939, abs=1e-6)
    mat = normal_pointwise_loglik([1.5], [3.5])
    assert mat.values[0, 0] == pytest.approx(-0.918939 - 2.0, abs=1e-6)


def test_draw_based_lppd_matches_oracle_within_mc_error():
    rng = np.random.default_rng(42)
    y = rng.normal(1.0, 1.0, size=12)
    spec = NormalMeanSpec.from_data(y)
    theta = normal_posterior_draws(spec, S, seed=77)
    mat = normal_pointwise_loglik(y, theta)
    se = criterion_report(mat).mc_se_lppd
    assert abs(lppd(mat) - oracle.lppd(spec)) < 3 * se + 1e-4


def test_row_sums_equal_total_loglik_normal():
    rng = np.random.default_rng(6)
    y = rng.normal(size=7)
    fit = NormalMeanModel().fit(y, draws=500, seed=2)
    mat = fit.pointwise_loglik()
    direct = (-0.5 * np.log(2 * np.pi) - 0.5 * (y[None, :] - fit.theta[:, None]) ** 2).sum(axis=1)
    np.testing.assert_allclose(mat.row_totals(), direct, rtol=1e-13)


# ---------------------------------------------------------------------------
# flat-prior regression
# ---------------------------------------------------------------------------

def test_election_fit_reproduces_published_point_estimates():
    fit = regression_fit(default_election(), S, SEED)
    a, b, sig = fit.mle
    assert round(a, 1) == 45.9
    assert round(b, 1) == 3.2
    assert round(sig, 1) == 3.6
    pm = fit.posterior_means
    assert pm["sigma"] == pytest.approx(4.1, abs=0.05)
    assert pm["sigma2"] == pytest.approx(17.2, abs=0.15)
    assert pm["log_sigma"] == pytest.approx(1.4, abs=0.05)


def test_regression_posterior_moments_match_closed_forms():
    data = default_election()
    fit = regression_fit(data, S, SEED)
    # sigma^2 | y is scaled-inverse-chi^2(nu, s^2): mean nu s^2/(nu - 2)
    nu = len(data) - 2
    s2 = fit.rss / nu
    want_mean = nu * s2 / (nu - 2)
    sd_sigma2 = want_mean * math.sqrt(2.0 / (nu - 4))  # sd of the marginal
    assert abs(fit.sigma2.mean() - want_mean) < 4 * sd_sigma2 / math.sqrt(S)
    # coefficient posterior means are the OLS estimates
    a_hat, b_hat, _ = fit.mle
    assert abs(fit.a.mean() - a_hat) < 4 * fit.a.std(ddof=1) / math.sqrt(S)
    assert abs(fit.b.mean() - b_hat) < 4 * fit.b.std(ddof=1) / math.sqrt(S)


def test_complete_pooling_posterior_moments():
    data = default_eight_schools()
    fit = SchoolsModel("complete_pooling").fit(data, draws=S, seed=SEED)
    w = 1.0 / data.sigma**2
    v = 1.0 / w.sum()
    mean = v * (w * data.y).sum()
    shared = fit.theta[:, 0]
    assert abs(shared.mean() - mean) < 4 * math.sqrt(v / S)
    se_var = v * math.sqrt(2.0 / (S - 1))
    assert abs(shared.var(ddof=1) - v) < 4 * se_var


def test_regression_line_passes_through_means():
    data = default_election()
    fit = regression_fit(data, S, SEED)
    xbar, ybar = data.x.mean(), data.y.mean()
    centre = fit.a + fit.b * xbar
    se = centre.std(ddof=1) / math.sqrt(S)
    assert abs(centre.mean() - ybar) < 4 * se


def test_regression_row_sum_consistency():
    data = default_election()
    fit = regression_fit(data, 400, 9)
    mat = fit.pointwise_loglik()
    mu = fit.a[:, None] + fit.b[:, None] * data.x[None, :]
    direct = (
        -0.5 * np.log(2 * np.pi * fit.sigma2)[:, None]
        - (data.y[None, :] - mu) ** 2 / (2 * fit.sigma2[:, None])
    ).sum(axis=1)
    np.testing.assert_allclose(mat.row_totals(), direct, rtol=1e-12)


def test_regression_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="singular design"):
        regression_fit(RegressionData(np.ones(6), np.arange(6.0)), 100, 1)
    with pytest.raises(ValueError, match="at least 4"):
        RegressionData(np.arange(3.0), np.arange(3.0))


def test_dic_parameterization_choices_are_distinct():
    data = default_election()
    vals = {p: RegressionModel(p).fit(data, draws=50_000, seed=SEED).point_estimates().lpd_at_mean
            for p in ("sigma", "sigma2", "log_sigma")}
    assert vals["log_sigma"] > vals["sigma"] > vals["sigma2"]


def test_regression_model_rejects_unknown_parameterization():
    # refused when the model is built, before it can fit, score or run LOO
    with pytest.raises(ValueError, match="parameterization must be one of"):
        RegressionModel("tau")


# ---------------------------------------------------------------------------
# eight schools
# ---------------------------------------------------------------------------

def test_default_dataset_is_the_coaching_table():
    data = default_eight_schools()
    np.testing.assert_array_equal(data.y, [28, 8, -3, 7, -1, 1, 18, 12])
    np.testing.assert_array_equal(data.sigma, [15, 10, 16, 11, 9, 11, 10, 18])
    assert data.J == 8 and len(data) == 8


def _flat_mode_mle(mode):
    return SchoolsModel(mode).fit(default_eight_schools(), draws=10, seed=0).point_estimates().mle


def test_schools_flat_mode_mle_values():
    mle_np = _flat_mode_mle("no_pooling")
    assert -2 * mle_np.total_loglik == pytest.approx(54.641, abs=0.001)
    assert mle_np.k == 8
    mle_cp = _flat_mode_mle("complete_pooling")
    assert -2 * mle_cp.total_loglik == pytest.approx(59.348, abs=0.001)
    assert mle_cp.k == 1
    assert _flat_mode_mle("hierarchical") is None  # no maximum likelihood estimate


def test_complete_pooling_lpd_at_posterior_mean():
    fit = SchoolsModel("complete_pooling").fit(default_eight_schools(), draws=S, seed=SEED)
    lpd_at_mean = fit.point_estimates().lpd_at_mean
    assert -2 * lpd_at_mean == pytest.approx(59.4, abs=0.1)
    mat = fit.pointwise_loglik()
    assert criterion_report(mat, lpd_at_mean=lpd_at_mean).p_dic == pytest.approx(1.0, abs=0.05)


def test_hierarchical_p_dic_near_published_value():
    fit = schools_fit(default_eight_schools(), S, SEED)
    pd = criterion_report(fit.pointwise_loglik(), lpd_at_mean=fit.point_estimates().lpd_at_mean).p_dic
    assert pd == pytest.approx(2.8, abs=0.3)


def test_tau_posterior_mass_concentrated_near_zero():
    fit = schools_fit(default_eight_schools(), 1_000, 1)
    grid, mass = fit.tau_grid, fit.tau_mass
    cdf = np.cumsum(mass)
    assert cdf[np.searchsorted(grid, 10.0)] > 0.6
    assert cdf[np.searchsorted(grid, 30.0)] > 0.9
    assert grid[np.argmax(mass)] < 5.0


def test_degenerate_grid_at_zero_reproduces_complete_pooling():
    data = default_eight_schools()
    hier = SchoolsModel(tau_grid=np.array([0.0])).fit(data, draws=S, seed=101)
    cp = SchoolsModel("complete_pooling").fit(data, draws=S, seed=202)
    # all groups share one effect; compare the shared-effect samples
    np.testing.assert_allclose(hier.theta, hier.theta[:, [0]] * np.ones(8), atol=1e-12)
    ks = stats.ks_2samp(hier.theta[:, 0], cp.theta[:, 0])
    crit = 1.94947 * math.sqrt(2.0 / S)  # alpha = 0.001 two-sample threshold
    assert ks.statistic < crit


def test_new_groups_prediction_mode():
    data = default_eight_schools()
    fit = SchoolsModel(prediction_mode="new_groups").fit(data, draws=20_000, seed=7)
    mat = fit.pointwise_loglik()
    assert mat.n_points == 8
    # new-group spread exceeds the shrunken existing-group spread
    existing = schools_fit(data, 20_000, 7)
    assert fit.theta.var() > existing.theta.var()


def test_schools_model_refuses_unknown_or_inconsistent_settings():
    # refused when the model is built, before it can fit, score or run LOO
    with pytest.raises(ValueError, match="mode must be one of"):
        SchoolsModel("partial_pooling")
    with pytest.raises(ValueError, match="prediction_mode must be one of"):
        SchoolsModel(prediction_mode="new")
    for mode in ("no_pooling", "complete_pooling"):
        with pytest.raises(ValueError, match="new_groups prediction needs the hierarchical mode"):
            SchoolsModel(mode, "new_groups")


def test_no_pooling_heldout_refusal_direct():
    with pytest.raises(ModelRefusalError, match="no distribution for an unobserved group"):
        SchoolsModel("no_pooling").fit(default_eight_schools(), exclude=2, draws=100, seed=0)


def test_schools_row_sum_consistency():
    data = default_eight_schools()
    fit = schools_fit(data, 300, 8)
    mat = fit.pointwise_loglik()
    direct = (
        -0.5 * np.log(2 * np.pi * data.sigma[None, :] ** 2)
        - (data.y[None, :] - fit.theta) ** 2 / (2 * data.sigma[None, :] ** 2)
    ).sum(axis=1)
    np.testing.assert_allclose(mat.row_totals(), direct, rtol=1e-12)


def test_schools_csv_loader_errors():
    with pytest.raises(MatrixFormatError, match="header"):
        load_schools_csv(io.StringIO("a,b,c\nA,1,2\n"))
    with pytest.raises(MatrixFormatError) as info:
        load_schools_csv(io.StringIO("school,y,sigma\nA,x,2\n"))
    assert str(info.value) == "cell at row 1, column 1 is not a number: 'x'"
    data = load_schools_csv(io.StringIO("school,y,sigma\nA,1,2\nB,3,4\n"))
    assert data.y.tolist() == [1.0, 3.0] and data.sigma.tolist() == [2.0, 4.0]


def test_election_csv_loader():
    with pytest.raises(MatrixFormatError, match="header"):
        load_election_csv(io.StringIO("growth,vote\n1,50\n"))
    data = default_election()
    assert len(data) == 15


# ---------------------------------------------------------------------------
# balanced two-level model with known hyperparameters
# ---------------------------------------------------------------------------

def _balanced_fixture(n=5, J=3, tau=1.0, seed=99):
    rng = np.random.default_rng(seed)
    theta_true = rng.normal(0.0, tau, J)
    y = theta_true[None, :] + rng.normal(size=(n, J))
    return y


def test_group_counting_with_single_group_equals_row_totals():
    y = _balanced_fixture(n=4, J=1)
    theta = balanced_group_posterior_draws(y, mu=0.0, tau=1.0, draws=200, seed=5)
    obs = balanced_hierarchical_loglik(theta, y, "observation")
    grp = balanced_hierarchical_loglik(theta, y, "group")
    np.testing.assert_allclose(grp.values[:, 0], obs.row_totals(), rtol=1e-13)


def test_observation_counting_decomposes_into_group_copies():
    y = _balanced_fixture(n=6, J=4)
    theta = balanced_group_posterior_draws(y, mu=0.0, tau=1.0, draws=40_000, seed=31)
    obs = balanced_hierarchical_loglik(theta, y, "observation")
    total = criterion_report(obs).p_waic2
    per_group = []
    for j in range(4):
        sub = balanced_hierarchical_loglik(theta[:, [j]], y[:, [j]], "observation")
        per_group.append(criterion_report(sub).p_waic2)
    assert total == pytest.approx(sum(per_group), rel=1e-12)
    # each group's penalty sits near the known-hyperparameter closed form
    spec_like = [
        oracle.p_waic2(NormalMeanSpec.from_data(y[:, j], m=1.0, mu0=0.0)) for j in range(4)
    ]
    np.testing.assert_allclose(per_group, spec_like, atol=0.05)


def test_group_counting_changes_p_waic_strictly():
    y = _balanced_fixture(n=5, J=3, tau=1.0)
    theta = balanced_group_posterior_draws(y, mu=0.0, tau=1.0, draws=20_000, seed=13)
    obs = balanced_hierarchical_loglik(theta, y, "observation")
    grp = balanced_hierarchical_loglik(theta, y, "group")
    assert obs.n_points == 15 and grp.n_points == 3
    p_obs, p_grp = criterion_report(obs).p_waic2, criterion_report(grp).p_waic2
    assert p_obs != p_grp
    assert abs(p_obs - p_grp) > 0.05


def test_balanced_input_validation():
    y = _balanced_fixture()
    with pytest.raises(ValueError, match="counting"):
        balanced_hierarchical_loglik(np.zeros((10, 3)), y, "rows")
    with pytest.raises(ValueError):
        balanced_group_posterior_draws(y, mu=0.0, tau=0.0, draws=10, seed=1)
    with pytest.raises(ValueError):
        balanced_hierarchical_loglik(np.zeros((10, 2)), y, "group")


# ---------------------------------------------------------------------------
# point_estimates(): all n points, at the training estimates
# ---------------------------------------------------------------------------

def _normal_total(y, mean, var) -> float:
    return float(np.sum(-0.5 * np.log(2 * np.pi * var) - (y - mean) ** 2 / (2 * var)))


def test_normal_mean_point_estimates_match_the_oracle_on_a_full_fit():
    y = np.array([0.0, 2.0, 1.0, -0.5])
    spec = NormalMeanSpec.from_data(y, m=1.5, mu0=0.4)
    pe = NormalMeanModel(m=1.5, mu0=0.4).fit(y, draws=10, seed=1).point_estimates()
    assert pe.mle.total_loglik == pytest.approx(oracle.lpd_at_mle(spec), rel=1e-12)
    assert pe.lpd_at_mean == pytest.approx(oracle.lpd_at_posterior_mean(spec), rel=1e-12)


def test_normal_mean_refit_scores_all_points_at_the_training_estimates():
    y = np.array([0.0, 2.0, 1.0, -0.5])
    pe = NormalMeanModel(m=1.5, mu0=0.4).fit(y, exclude=0, draws=10, seed=1).point_estimates()
    train = y[1:]
    post_mean = (1.5 * 0.4 + train.sum()) / (1.5 + train.size)
    assert pe.mle.total_loglik == pytest.approx(_normal_total(y, train.mean(), 1.0), rel=1e-12)
    assert pe.lpd_at_mean == pytest.approx(_normal_total(y, post_mean, 1.0), rel=1e-12)


def test_regression_refit_scores_all_points_at_the_training_estimates():
    data = default_election()
    fit = RegressionModel().fit(data, exclude=3, draws=2_000, seed=5)
    pe = fit.point_estimates()
    x, y = np.delete(data.x, 3), np.delete(data.y, 3)
    design = np.column_stack([np.ones_like(x), x])
    (a, b), rss = np.linalg.lstsq(design, y, rcond=None)[:2]
    sigma2 = float(rss[0]) / x.size
    assert pe.mle.total_loglik == pytest.approx(_normal_total(data.y, a + b * data.x, sigma2), rel=1e-12)
    pm = fit.posterior_means
    at_mean = _normal_total(data.y, pm["a"] + pm["b"] * data.x, np.exp(2 * pm["log_sigma"]))
    assert pe.lpd_at_mean == pytest.approx(at_mean, rel=1e-12)


def test_schools_refits_follow_pointwise_loglik():
    data = default_eight_schools()
    with pytest.raises(ModelRefusalError):
        SchoolsModel("no_pooling").fit(data, exclude=2, draws=100, seed=0).point_estimates()
    assert SchoolsModel().fit(data, exclude=2, draws=100, seed=0).point_estimates().mle is None
    pe = SchoolsModel("complete_pooling").fit(data, exclude=2, draws=100, seed=0).point_estimates()
    w = np.delete(1 / data.sigma**2, 2)
    mu_hat = float((w * np.delete(data.y, 2)).sum() / w.sum())
    assert pe.mle.total_loglik == pytest.approx(_normal_total(data.y, mu_hat, data.sigma**2), rel=1e-12)


# ---------------------------------------------------------------------------
# draw-matrix layout: every model writes its S x n matrix column-major,
# with the same values the row-major formulas give
# ---------------------------------------------------------------------------

_LAYOUT_S = 500
_LAYOUT_Y = np.array([0.0, 2.0, 1.0, -0.5])


def _row_major_normal_mean(fit):
    return normal_logpdf_inplace(fit._y[None, :] - fit.theta[:, None], 1.0)


def _row_major_regression(fit):
    x, y = fit._data.x, fit._data.y
    resid = fit.b[:, None] * x[None, :]
    resid += fit.a[:, None]
    np.subtract(y[None, :], resid, out=resid)
    return normal_logpdf_inplace(resid, fit.sigma2[:, None])


def _row_major_schools(fit):
    d = fit._data
    return normal_logpdf_inplace(d.y[None, :] - fit.theta, d.sigma[None, :] ** 2)


def _row_major_balanced(counting):
    def formula(fit):
        y = _balanced_fixture(n=4, J=3)
        theta = balanced_group_posterior_draws(y, mu=0.0, tau=1.0, draws=_LAYOUT_S, seed=2)
        ll = normal_logpdf_inplace(y[None, :, :] - theta[:, None, :], 1.0)
        return ll.reshape(_LAYOUT_S, -1) if counting == "observation" else ll.sum(axis=1)
    return formula


SCORED_FITS = {
    "normal-mean": (lambda: NormalMeanModel(m=1.5, mu0=0.4).fit(_LAYOUT_Y, draws=_LAYOUT_S, seed=1),
                    _row_major_normal_mean),
    "normal-mean-refit": (lambda: NormalMeanModel().fit(_LAYOUT_Y, exclude=1, draws=_LAYOUT_S, seed=1),
                          _row_major_normal_mean),
    "regression": (lambda: regression_fit(default_election(), _LAYOUT_S, 1), _row_major_regression),
    "regression-refit": (lambda: RegressionModel().fit(default_election(), exclude=4, draws=_LAYOUT_S, seed=1),
                         _row_major_regression),
    **{f"schools-{mode}": (lambda mode=mode: SchoolsModel(mode).fit(default_eight_schools(), draws=_LAYOUT_S, seed=1),
                           _row_major_schools)
       for mode in ("no_pooling", "complete_pooling", "hierarchical")},
    **{f"balanced-{counting}": (lambda counting=counting: BalancedModel(0.0, 1.0, counting).fit(
        _balanced_fixture(n=4, J=3), draws=_LAYOUT_S, seed=2), _row_major_balanced(counting))
       for counting in ("observation", "group")},
}


@pytest.mark.parametrize("name", list(SCORED_FITS))
def test_every_model_writes_a_column_major_matrix_equal_to_the_row_major_formula(name):
    make_fit, formula = SCORED_FITS[name]
    fit = make_fit()
    values = fit.pointwise_loglik().values
    assert values.shape[0] == _LAYOUT_S and values.shape[1] > 1
    assert values.flags.f_contiguous
    assert np.array_equal(values, formula(fit))


_SCHOOLS = default_eight_schools()
HIERARCHICAL_FITS = {
    "default-grid": lambda draws, seed: schools_fit(_SCHOOLS, draws, seed),
    "pinned-0": lambda draws, seed: SchoolsModel(tau_grid=np.array([0.0])).fit(_SCHOOLS, draws=draws, seed=seed),
    "pinned-5": lambda draws, seed: SchoolsModel(tau_grid=np.array([5.0])).fit(_SCHOOLS, draws=draws, seed=seed),
    "exclude-3": lambda draws, seed: SchoolsModel().fit(_SCHOOLS, exclude=3, draws=draws, seed=seed),
    "new-groups": lambda draws, seed: SchoolsModel(prediction_mode="new_groups").fit(
        _SCHOOLS, draws=draws, seed=seed),
}


@pytest.mark.parametrize("case", list(HIERARCHICAL_FITS))
def test_hierarchical_theta_equals_the_per_draw_conditional_formula(case):
    draws, seed = 5_000, 17
    fit = HIERARCHICAL_FITS[case](draws, seed)
    y, sigma, J = _SCHOOLS.y, _SCHOOLS.sigma, _SCHOOLS.J
    # replay the fit's stream: tau by inverse CDF, then mu's normals, then a
    # refit's held-out effect, then theta's: the conditional effects, or
    # under new-groups prediction the population draws alone
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(np.cumsum(fit.tau_mass), rng.random(draws))
    assert np.array_equal(fit.tau, fit.tau_grid[idx])
    rng.standard_normal(draws)
    tau, mu = fit.tau, fit.mu
    if case == "exclude-3":
        heldout = mu + tau * rng.standard_normal(draws)
    if case == "new-groups":
        theta = mu[:, None] + tau[:, None] * rng.standard_normal((draws, J))
    else:
        t2 = tau[:, None] ** 2
        s2 = sigma[None, :] ** 2
        cond_mean = (y[None, :] * t2 + mu[:, None] * s2) / (t2 + s2)
        cond_var = s2 * t2 / (t2 + s2)
        theta = cond_mean + np.sqrt(cond_var) * rng.standard_normal((draws, J))
    if case == "exclude-3":
        theta[:, 3] = heldout
    assert np.array_equal(fit.theta, theta)


# ---------------------------------------------------------------------------
# a refit's held-out column: bitwise the full matrix's, at its cost alone
# ---------------------------------------------------------------------------

_NEW_GROUPS = SchoolsModel(prediction_mode="new_groups")
REFITS = {
    "normal-mean-flat": (_LAYOUT_Y, lambda i, draws, seed: NormalMeanModel().fit(
        _LAYOUT_Y, exclude=i, draws=draws, seed=seed)),
    "normal-mean-m1": (_LAYOUT_Y, lambda i, draws, seed: NormalMeanModel(m=1.0, mu0=0.3).fit(
        _LAYOUT_Y, exclude=i, draws=draws, seed=seed)),
    "regression": (default_election().x, lambda i, draws, seed: RegressionModel().fit(
        default_election(), exclude=i, draws=draws, seed=seed)),
    "schools-complete-pooling": (_SCHOOLS.y, lambda i, draws, seed: SchoolsModel("complete_pooling").fit(
        _SCHOOLS, exclude=i, draws=draws, seed=seed)),
    "schools-existing-groups": (_SCHOOLS.y, lambda i, draws, seed: SchoolsModel().fit(
        _SCHOOLS, exclude=i, draws=draws, seed=seed)),
    "schools-new-groups": (_SCHOOLS.y, lambda i, draws, seed: _NEW_GROUPS.fit(
        _SCHOOLS, exclude=i, draws=draws, seed=seed)),
    "schools-pinned-tau": (_SCHOOLS.y, lambda i, draws, seed: SchoolsModel(tau_grid=np.array([5.0])).fit(
        _SCHOOLS, exclude=i, draws=draws, seed=seed)),
}


@pytest.mark.parametrize("name", list(REFITS))
def test_heldout_column_is_bitwise_the_full_matrix_column(name):
    points, refit = REFITS[name]
    for i in range(points.size):
        fit = refit(i, 2_000, 40 + i)
        heldout = fit.heldout_loglik()
        assert heldout.shape == (2_000,)
        assert np.array_equal(heldout, fit.pointwise_loglik().column(i))
        assert np.array_equal(heldout, refit(i, 2_000, 40 + i).heldout_loglik())


@pytest.mark.parametrize("model", [SchoolsModel(), _NEW_GROUPS, SchoolsModel("complete_pooling")],
                         ids=["existing-groups", "new-groups", "complete-pooling"])
def test_a_schools_refit_draws_the_other_effects_only_when_theta_is_read(model):
    draws, seed = 1_000, 9
    fit = model.fit(_SCHOOLS, exclude=2, draws=draws, seed=seed)
    heldout = fit.heldout_loglik()
    assert "theta" not in vars(fit)
    if fit.tau is not None:  # the held-out effect is the third draw: after tau and mu
        rng = np.random.default_rng(seed)
        rng.random(draws)
        rng.standard_normal(draws)
        assert np.array_equal(fit.theta[:, 2], fit.mu + fit.tau * rng.standard_normal(draws))
    else:
        assert np.array_equal(fit.theta[:, 2], fit.mu)
    assert np.array_equal(fit.heldout_loglik(), heldout)
