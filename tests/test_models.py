import io
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from test_folds import _textbook_regression_fold

from predcrit import models, oracle
from predcrit.criteria import criterion_report
from predcrit.draws import PointwiseLogLikMatrix, lppd
from predcrit.errors import MatrixFormatError, ModelRefusalError, NonFiniteLogLikError
from predcrit.models import (
    BalancedModel,
    EightSchoolsData,
    NormalMeanModel,
    NormalMeanSpec,
    RegressionData,
    RegressionModel,
    SchoolsModel,
    load_election_csv,
    load_schools_csv,
    regression_fit,
    schools_fit,
)
from predcrit.models.normal import normal_logpdf_inplace
from predcrit.models.schools import _GUIDE_BUCKETS, _inverse_cdf, _tau_grid_posterior

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
    theta = NormalMeanModel().fit(np.zeros(100), draws=S, seed=11).theta
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
        theta = NormalMeanModel(spec.m, spec.mu0).fit(np.full(spec.n, spec.ybar), draws=S,
                                                      seed=int(rng.integers(1 << 30))).theta
        sd = math.sqrt(spec.posterior_var)
        assert abs(theta.mean() - spec.posterior_mean) < 4 * sd / math.sqrt(S)
        var = theta.var(ddof=1)
        se_var = spec.posterior_var * math.sqrt(2.0 / (S - 1))
        assert abs(var - spec.posterior_var) < 4 * se_var


def test_informative_prior_dominates_in_the_limit():
    fit = NormalMeanModel(m=1e9, mu0=-1.0).fit(np.full(5, 10.0), draws=5_000, seed=3)
    assert abs(fit.theta.mean() + 1.0) < 1e-3
    assert criterion_report(fit.pointwise_loglik()).p_waic2 < 1e-4  # the data provide no information


def test_pointwise_entries():
    # a prior precision of 1e300 pins the draw at mu0, up to rounding
    def entry(y, theta):
        return NormalMeanModel(m=1e300, mu0=theta).fit([y], draws=1, seed=0).pointwise_loglik().values[0, 0]

    assert entry(1.5, 1.5) == pytest.approx(-0.918939, abs=1e-6)
    assert entry(1.5, 3.5) == pytest.approx(-0.918939 - 2.0, abs=1e-6)


def test_draw_based_lppd_matches_oracle_within_mc_error():
    rng = np.random.default_rng(42)
    y = rng.normal(1.0, 1.0, size=12)
    spec = NormalMeanSpec.from_data(y)
    mat = NormalMeanModel().fit(y, draws=S, seed=77).pointwise_loglik()
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
    fit = regression_fit(load_election_csv(), S, SEED)
    a, b, sig = fit.mle
    assert round(a, 1) == 45.9
    assert round(b, 1) == 3.2
    assert round(sig, 1) == 3.6
    pm = fit.posterior_means
    assert pm["sigma"] == pytest.approx(4.1, abs=0.05)
    assert pm["sigma2"] == pytest.approx(17.2, abs=0.15)
    assert pm["log_sigma"] == pytest.approx(1.4, abs=0.05)


def test_regression_posterior_moments_match_closed_forms():
    data = load_election_csv()
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
    data = load_schools_csv()
    fit = SchoolsModel("complete_pooling").fit(data, draws=S, seed=SEED)
    w = 1.0 / data.sigma**2
    v = 1.0 / w.sum()
    mean = v * (w * data.y).sum()
    shared = fit.theta[:, 0]
    assert abs(shared.mean() - mean) < 4 * math.sqrt(v / S)
    se_var = v * math.sqrt(2.0 / (S - 1))
    assert abs(shared.var(ddof=1) - v) < 4 * se_var


def test_regression_line_passes_through_means():
    data = load_election_csv()
    fit = regression_fit(data, S, SEED)
    xbar, ybar = data.x.mean(), data.y.mean()
    centre = fit.a + fit.b * xbar
    se = centre.std(ddof=1) / math.sqrt(S)
    assert abs(centre.mean() - ybar) < 4 * se


def test_regression_row_sum_consistency():
    data = load_election_csv()
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
    data = load_election_csv()
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
    data = load_schools_csv()
    np.testing.assert_array_equal(data.y, [28, 8, -3, 7, -1, 1, 18, 12])
    np.testing.assert_array_equal(data.sigma, [15, 10, 16, 11, 9, 11, 10, 18])
    assert len(data) == 8


@pytest.mark.parametrize("load, name", [(load_schools_csv, "eight_schools.csv"), (load_election_csv, "election.csv")])
def test_a_loader_without_a_source_reads_its_packaged_table(load, name):
    bundled, from_path = load(), load(Path(models.__file__).parent / "data" / name)
    assert [a.tobytes() for a in vars(bundled).values()] == [a.tobytes() for a in vars(from_path).values()]


def _flat_mode_mle(mode):
    return SchoolsModel(mode).fit(load_schools_csv(), draws=10, seed=0).point_estimates().mle


def test_schools_flat_mode_mle_values():
    mle_np = _flat_mode_mle("no_pooling")
    assert -2 * mle_np.total_loglik == pytest.approx(54.641, abs=0.001)
    assert mle_np.k == 8
    mle_cp = _flat_mode_mle("complete_pooling")
    assert -2 * mle_cp.total_loglik == pytest.approx(59.348, abs=0.001)
    assert mle_cp.k == 1
    assert _flat_mode_mle("hierarchical") is None  # no maximum likelihood estimate


def test_complete_pooling_lpd_at_posterior_mean():
    fit = SchoolsModel("complete_pooling").fit(load_schools_csv(), draws=S, seed=SEED)
    lpd_at_mean = fit.point_estimates().lpd_at_mean
    assert -2 * lpd_at_mean == pytest.approx(59.4, abs=0.1)
    mat = fit.pointwise_loglik()
    assert criterion_report(mat, lpd_at_mean=lpd_at_mean).p_dic == pytest.approx(1.0, abs=0.05)


def test_hierarchical_p_dic_near_published_value():
    fit = schools_fit(load_schools_csv(), S, SEED)
    pd = criterion_report(fit.pointwise_loglik(), lpd_at_mean=fit.point_estimates().lpd_at_mean).p_dic
    assert pd == pytest.approx(2.8, abs=0.3)


def test_tau_posterior_mass_concentrated_near_zero():
    fit = schools_fit(load_schools_csv(), 1_000, 1)
    grid, mass = fit.tau_grid, fit.tau_mass
    cdf = np.cumsum(mass)
    assert cdf[np.searchsorted(grid, 10.0)] > 0.6
    assert cdf[np.searchsorted(grid, 30.0)] > 0.9
    assert grid[np.argmax(mass)] < 5.0


def test_degenerate_grid_at_zero_reproduces_complete_pooling():
    data = load_schools_csv()
    hier = SchoolsModel(tau_grid=np.array([0.0])).fit(data, draws=S, seed=101)
    cp = SchoolsModel("complete_pooling").fit(data, draws=S, seed=202)
    # all groups share one effect; compare the shared-effect samples
    np.testing.assert_allclose(hier.theta, hier.theta[:, [0]] * np.ones(8), atol=1e-12)
    ks = stats.ks_2samp(hier.theta[:, 0], cp.theta[:, 0])
    crit = 1.94947 * math.sqrt(2.0 / S)  # alpha = 0.001 two-sample threshold
    assert ks.statistic < crit


def test_new_groups_prediction_mode():
    data = load_schools_csv()
    fit = SchoolsModel(prediction_mode="new_groups").fit(data, draws=20_000, seed=7)
    mat = fit.pointwise_loglik()
    assert mat.n_points == 8
    # each new group's effect is integrated out: y_j | mu, tau ~ N(mu, tau^2 + sigma_j^2)
    var = fit.tau[:, None] ** 2 + data.sigma[None, :] ** 2
    direct = -0.5 * np.log(2 * np.pi * var) - (data.y[None, :] - fit.mu[:, None]) ** 2 / (2 * var)
    np.testing.assert_allclose(mat.values, direct, rtol=1e-12)
    # DIC is taken at the posterior means of mu and tau, which the summary
    # reports in place of the effects; no effect is drawn
    pe = fit.point_estimates()
    means = {"mu": fit.mu.mean(), "tau": fit.tau.mean()}
    assert pe.summary == {"posterior_means": means}
    at_means = stats.norm.logpdf(data.y, means["mu"], np.sqrt(means["tau"] ** 2 + data.sigma**2)).sum()
    assert pe.lpd_at_mean == pytest.approx(at_means, rel=1e-12)
    assert fit._theta is None


def _new_group_grid(fit, data):
    """Per group, over the tau grid with mu | tau ~ N(mu_hat_g, V_mu,g):
    the exact lppd_j and the exact mean and variance of the integrated log
    density d_j = log N(y_j | mu, tau^2 + sigma_j^2)."""
    grid, mass = fit.tau_grid[:, None], fit.tau_mass[:, None]
    y, s2 = data.y[None, :], data.sigma[None, :] ** 2
    w = 1.0 / (s2 + grid**2)
    v_mu = 1.0 / w.sum(axis=1, keepdims=True)
    mu_hat = v_mu * (w * y).sum(axis=1, keepdims=True)
    lppd_j = np.log((mass * stats.norm.pdf(y, mu_hat, np.sqrt(grid**2 + s2 + v_mu))).sum(axis=0))
    # d = c - r^2 / (2v) with r = y - mu ~ N(e, V): E r^2 = e^2 + V, E r^4 = e^4 + 6 e^2 V + 3 V^2
    v, e2, c = grid**2 + s2, (y - mu_hat) ** 2, -0.5 * np.log(2 * np.pi * (grid**2 + s2))
    r2, r4 = e2 + v_mu, e2**2 + 6 * e2 * v_mu + 3 * v_mu**2
    mean_d = (mass * (c - r2 / (2 * v))).sum(axis=0)
    mean_d2 = (mass * (c**2 - c * r2 / v + r4 / (4 * v**2))).sum(axis=0)
    return lppd_j, mean_d, mean_d2 - mean_d**2


@pytest.mark.parametrize("seed", [1, 2])
def test_new_groups_lppd_and_p_waic2_match_the_tau_grid_sums(seed):
    data = load_schools_csv()
    fit = SchoolsModel(prediction_mode="new_groups").fit(data, draws=S, seed=seed)
    mat = fit.pointwise_loglik()
    rep = criterion_report(mat)
    lppd_j, mean_d, var_d = _new_group_grid(fit, data)
    assert lppd_j.sum() == pytest.approx(-30.62694, abs=1e-5)
    assert abs(rep.lppd - lppd_j.sum()) < 4 * rep.mc_se_lppd
    assert abs(mat.row_totals().mean() - mean_d.sum()) < 4 * rep.mc_se_mean_loglik
    assert abs(rep.p_waic2 - var_d.sum()) < 4 * rep.mc_se_p_waic2
    assert rep.p_waic2 < 1.0  # was 18.5 while each new group's effect was drawn


def test_schools_model_refuses_unknown_or_inconsistent_settings():
    # refused when the model is built, before it can fit, score or run LOO
    with pytest.raises(ValueError, match="mode must be one of"):
        SchoolsModel("partial_pooling")
    with pytest.raises(ValueError, match="prediction_mode must be one of"):
        SchoolsModel(prediction_mode="new")
    for mode in ("no_pooling", "complete_pooling"):
        with pytest.raises(ValueError, match="new_groups prediction needs the hierarchical mode"):
            SchoolsModel(mode, "new_groups")


@pytest.mark.parametrize("build, message", [
    (lambda: NormalMeanSpec(n=0), "n must be a positive integer"),
    (lambda: RegressionData(np.arange(5.0), np.arange(4.0)), "x and y must have the same length"),
    (lambda: EightSchoolsData([1.0, 2.0], [1.0]), "y and sigma must be nonempty and the same length"),
    (lambda: SchoolsModel().folds(EightSchoolsData([1.0], [1.0]), draws=10, seed=0),
     "training set must contain at least one group"),
], ids=["spec n=0", "regression lengths", "schools lengths", "schools fit of no group"])
def test_a_model_input_it_cannot_use_is_refused_naming_why(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("mode, grid, message", [
    ("hierarchical", [np.nan], "tau_grid must be finite, got nan"),
    ("hierarchical", [np.inf], "tau_grid must be finite, got inf"),
    ("hierarchical", [-2.0], "tau_grid must be nonnegative"),
    ("hierarchical", [1e200], "tau_grid^2 must be finite, got inf"),
    ("hierarchical", [1e160, 1.0], "tau_grid^2 must be finite, got inf"),
    ("hierarchical", [], "tau_grid must be a nonempty 1-dimensional array"),
    ("hierarchical", [[1.0, 2.0]], "tau_grid must be a nonempty 1-dimensional array"),
    ("no_pooling", [5.0], "tau_grid needs the hierarchical mode"),
    ("complete_pooling", [5.0], "tau_grid needs the hierarchical mode"),
], ids=["nan", "inf", "negative", "square overflows", "square of one point overflows", "empty", "2-D",
        "no pooling", "complete pooling"])
def test_a_tau_grid_the_schools_model_cannot_use_is_refused_naming_it(mode, grid, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SchoolsModel(mode, tau_grid=grid)


class _AlmostOne(np.random.Generator):
    """Every uniform draw is the largest double below 1."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("exclude", [None, *range(8)])
def test_a_uniform_draw_just_below_1_takes_a_tau_grid_point(exclude):
    # the grid's masses sum to 1 only up to rounding; its CDF still ends at exactly 1
    model, data, seed = SchoolsModel(), load_schools_csv(), _AlmostOne(np.random.PCG64(1))
    if exclude is None:
        fit = model.fit(data, draws=3, seed=seed)
    else:
        fit = model.folds(data, draws=3, seed=seed)(exclude)
    assert fit._idx.max() <= fit.tau_grid.size - 1


def _schools_tau_cdf(**model):
    cdf = np.cumsum(SchoolsModel(**model).fit(load_schools_csv(), draws=1, seed=0).tau_mass)
    return cdf / cdf[-1]


# CDFs ending at exactly 1, as _SchoolsFit normalizes them
_ADVERSARIAL_CDFS = {
    "all mass on the first point": lambda: np.ones(2000),
    "all mass on a middle point": lambda: np.repeat([0.0, 1.0], 1000),
    "all mass on the last point": lambda: np.append(np.zeros(1999), 1.0),
    "zero-mass tails": lambda: np.concatenate([np.zeros(700), np.linspace(1e-9, 1.0, 600), np.ones(700)]),
    "one mass below a bucket": lambda: np.concatenate([np.zeros(10), np.full(10, 0.5 / 4096), np.ones(5)]),
    "eight schools": _schools_tau_cdf,
    "a one-point pinned tau_grid": lambda: _schools_tau_cdf(tau_grid=[5.0]),
    # about 24 points a bucket, so nearly every draw falls short of its bucket's entry and is searched again
    "a grid finer than the guide": lambda: np.linspace(0.0, 1.0, 100_001)[1:],
}


@pytest.mark.parametrize("case", list(_ADVERSARIAL_CDFS))
def test_the_guide_table_tau_draw_is_searchsorted(case):
    cdf = _ADVERSARIAL_CDFS[case]()
    assert cdf[-1] == 1.0
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    u = np.concatenate([
        np.random.default_rng(3).random(20_000),
        [0.0, np.nextafter(1.0, 0.0)],
        edges[1:-1], np.nextafter(edges[1:], 0.0),  # each bucket's lower edge, and its last double
        np.unique(cdf[cdf < 1.0]), np.nextafter(np.unique(cdf[cdf > 0.0]), 0.0),
    ])
    assert np.array_equal(_inverse_cdf(cdf, u), np.searchsorted(cdf, u))


class _GivenUniforms(np.random.Generator):
    """numpy's generator whose uniform draws are `values`."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(2))
        self.values = values

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.values.size
        return self.values.copy()


@pytest.mark.parametrize("tau_grid", [None, [5.0], [0.0, 8.0]], ids=["default grid", "one point", "two points"])
def test_a_fold_tau_index_is_searchsorted_of_its_cdf(tau_grid):
    # the folds sort the shared uniforms and take each grid point's run: uniforms on and just below
    # every CDF value of the fold, 0 and the last double below 1 must land where np.searchsorted puts them
    model, data = SchoolsModel(tau_grid=tau_grid), load_schools_csv()
    for i in (0, 3):
        mass = _tau_grid_posterior(np.delete(data.y, i), np.delete(data.sigma, i), model.tau_grid)[1]
        cdf = np.cumsum(mass) / np.cumsum(mass)[-1]
        u = np.concatenate([np.random.default_rng(i).random(3_000), [0.0, np.nextafter(1.0, 0.0)],
                            np.unique(cdf[cdf < 1.0]), np.nextafter(np.unique(cdf[cdf > 0.0]), 0.0)])
        fit = model.folds(data, draws=u.size, seed=_GivenUniforms(u))(i)
        assert np.array_equal(fit._idx, np.searchsorted(cdf, np.sort(u)))


def test_no_pooling_heldout_refusal_direct():
    with pytest.raises(ModelRefusalError, match="no distribution for an unobserved group"):
        SchoolsModel("no_pooling").folds(load_schools_csv(), draws=100, seed=0)(2)


def test_schools_row_sum_consistency():
    data = load_schools_csv()
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
    data = load_election_csv()
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
    obs, grp = (BalancedModel(0.0, 1.0, counting).fit(y, draws=200, seed=5).pointwise_loglik()
                for counting in ("observation", "group"))
    np.testing.assert_allclose(grp.values[:, 0], obs.row_totals(), rtol=1e-13)


def test_observation_counting_decomposes_into_group_copies():
    y = _balanced_fixture(n=6, J=4)
    obs = BalancedModel(0.0, 1.0, "observation").fit(y, draws=40_000, seed=31).pointwise_loglik()
    total = criterion_report(obs).p_waic2
    # column i * J + j holds y_ij, so group j's columns are j, j + J, ...
    per_group = [criterion_report(PointwiseLogLikMatrix(obs.values[:, j::4])).p_waic2 for j in range(4)]
    assert total == pytest.approx(sum(per_group), rel=1e-12)
    # each group's penalty sits near the known-hyperparameter closed form
    spec_like = [
        oracle.p_waic2(NormalMeanSpec.from_data(y[:, j], m=1.0, mu0=0.0)) for j in range(4)
    ]
    np.testing.assert_allclose(per_group, spec_like, atol=0.05)


def test_group_counting_changes_p_waic_strictly():
    y = _balanced_fixture(n=5, J=3, tau=1.0)
    obs, grp = (BalancedModel(0.0, 1.0, counting).fit(y, draws=20_000, seed=13).pointwise_loglik()
                for counting in ("observation", "group"))
    assert obs.n_points == 15 and grp.n_points == 3
    p_obs, p_grp = criterion_report(obs).p_waic2, criterion_report(grp).p_waic2
    assert p_obs != p_grp
    assert abs(p_obs - p_grp) > 0.05


def test_balanced_fit_draws_its_group_means_in_one_call_from_its_seed():
    y = _balanced_fixture(n=5, J=3)
    spec = NormalMeanSpec.from_data(y.T, m=1.0 / 0.7**2, mu0=0.4)
    want = spec.posterior_mean + np.sqrt(spec.posterior_var) * np.random.default_rng(8).standard_normal((300, 3))
    assert np.array_equal(BalancedModel(0.4, 0.7, "group").fit(y, draws=300, seed=8).theta, want)


def test_balanced_input_validation():
    with pytest.raises(ValueError, match="counting must be one of"):
        BalancedModel(0.0, 1.0, "rows")  # at construction, before any draw
    with pytest.raises(ValueError, match="tau must be positive"):
        BalancedModel(0.0, 0.0, "group")
    # each group's prior precision 1/tau^2, and the prior variance that the
    # group model takes back from it, must be finite
    for tau, message in ((1e-200, "1/tau^2"), (1e-160, "1/tau^2"), (1e200, "tau^2"),
                         (1.3407807929942596e154, "tau^2")):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)} must be finite, got inf$"):
            BalancedModel(0.0, tau, "group")
    with pytest.raises(ValueError, match="n x J"):
        BalancedModel(0.0, 1.0, "group").fit(_balanced_fixture()[:, 0], draws=10, seed=1)


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
    pe = NormalMeanModel(m=1.5, mu0=0.4).folds(y, draws=10, seed=1)(0).point_estimates()
    train = y[1:]
    post_mean = (1.5 * 0.4 + train.sum()) / (1.5 + train.size)
    assert pe.mle.total_loglik == pytest.approx(_normal_total(y, train.mean(), 1.0), rel=1e-12)
    assert pe.lpd_at_mean == pytest.approx(_normal_total(y, post_mean, 1.0), rel=1e-12)


def test_a_prior_precision_whose_reciprocal_overflows_is_refused_naming_m():
    with pytest.raises(ValueError, match=r"^1/m must be finite, got inf$"):
        NormalMeanSpec(n=3, m=np.float64(5e-324))  # inverted as a float: no numpy warning
    assert NormalMeanModel(m=1e-308).m == 1e-308  # 1/m = 1e308 is finite


def test_normal_mean_data_whose_spread_overflows_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="s2y must be finite, got inf"):
            NormalMeanModel().fit([1.5e154, -1.5e154], draws=10, seed=1)
        with pytest.raises(ValueError, match="ybar must be finite, got inf"):
            NormalMeanSpec.from_data([1e308, 1e308])


def test_normal_mean_fit_without_training_points_draws_from_the_prior():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = NormalMeanModel(m=4.0, mu0=0.7).folds([0.5], draws=40_000, seed=1)(0)
        pe = fit.point_estimates()
    assert fit.theta.mean() == pytest.approx(0.7, abs=4 * 0.5 / math.sqrt(40_000))
    assert fit.theta.var() == pytest.approx(0.25, rel=0.05)
    assert pe.mle is None
    assert pe.lpd_at_mean == pytest.approx(_normal_total(np.array([0.5]), 0.7, 1.0), rel=1e-12)
    assert fit.pointwise_loglik().n_points == 1
    with pytest.raises(ValueError, match="flat-prior fit needs at least one training point"):
        NormalMeanModel(m=0.0).folds([0.5], draws=10, seed=1)(0)


def test_a_regression_fold_scores_all_points_around_the_training_ols():
    # fold i holds, for every point j, d_j = (y_j - a_hat - b_hat x_j) / sqrt(RSS) and K = -log(2 pi RSS) / 2
    # of the training OLS, so log N(y_j | a_hat + b_hat x_j, RSS / m) = K + log(m) / 2 - m d_j^2 / 2
    data = load_election_csv()
    fit = RegressionModel().folds(data, draws=2_000, seed=5)(3)
    x, y = np.delete(data.x, 3), np.delete(data.y, 3)
    design = np.column_stack([np.ones_like(x), x])
    (a, b), rss = np.linalg.lstsq(design, y, rcond=None)[:2]
    sigma2 = float(rss[0]) / x.size
    at_mle = (fit._k + 0.5 * math.log(x.size) - x.size * fit._d**2 / 2).sum()
    assert at_mle == pytest.approx(_normal_total(data.y, a + b * data.x, sigma2), rel=1e-12)


_SIGMA_1E154 = EightSchoolsData([1.0, 2.0, 3.0, 4.0], [1e154, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("make_fit, name", [
    # each of the 9 densities at the posterior mean (about 1e154) is about -5e307, their total past -1.8e308
    (lambda: NormalMeanModel(m=1.0, mu0=1e155).fit(np.random.default_rng(2).normal(0.5, 1.0, size=9),
                                                   draws=10, seed=1), "lpd_at_mean"),
    # 2 pi sigma^2 of the school at sigma 1e154 leaves double range, at the MLE as at every draw
    (lambda: SchoolsModel("complete_pooling").fit(_SIGMA_1E154, draws=10, seed=1), "lpd_at_mle"),
    (lambda: SchoolsModel("no_pooling").fit(_SIGMA_1E154, draws=10, seed=1), "lpd_at_mle"),
], ids=["normal-mean total", "schools complete pooling", "schools no pooling"])
def test_a_point_estimate_total_that_overflows_is_refused_naming_it(make_fit, name):
    fit = make_fit()
    with pytest.raises(NonFiniteLogLikError, match=f"^{name} is -inf: the log densities overflow double precision$"):
        fit.point_estimates()


def test_a_complete_pooling_fold_centres_on_the_training_pooled_mean():
    data = load_schools_csv()
    with pytest.raises(ModelRefusalError):
        SchoolsModel("no_pooling").folds(data, draws=100, seed=0)
    fit = SchoolsModel("complete_pooling").folds(data, draws=100, seed=0)(2)
    w = np.delete(1 / data.sigma**2, 2)
    mu_hat = float((w * np.delete(data.y, 2)).sum() / w.sum())
    assert fit._mean == pytest.approx(mu_hat, rel=1e-12)
    assert fit._sd == pytest.approx(math.sqrt(1 / w.sum()), rel=1e-12)


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


def _regression_fold_4(draws, seed):
    """Fold 4 of the election data, and the same posterior rebuilt the
    textbook way: sigma^2 = RSS / chi2, (a, b) = beta_hat + sigma L z."""
    data = load_election_csv()
    rng = np.random.default_rng(seed)
    chi2, z = rng.chisquare(len(data) - 3, draws), rng.standard_normal((draws, 2))
    textbook = _FoldPosterior(data, *_textbook_regression_fold(data, 4, chi2, z))
    return RegressionModel().folds(data, draws=draws, seed=seed)(4), textbook


class _FoldPosterior:
    """A fold's (a, b, sigma^2) per draw, for the row-major formula."""

    def __init__(self, data, a, b, sigma2):
        self._data, self.a, self.b, self.sigma2 = data, a, b, sigma2


def _row_major_schools(fit):
    d = fit._data
    return normal_logpdf_inplace(d.y[None, :] - fit.theta, d.sigma[None, :] ** 2)


def _row_major_balanced(counting):
    def formula(fit):
        y = _balanced_fixture(n=4, J=3)
        ll = normal_logpdf_inplace(y[None, :, :] - fit.theta[:, None, :], 1.0)
        return ll.reshape(_LAYOUT_S, -1) if counting == "observation" else ll.sum(axis=1)
    return formula


SCORED_FITS = {
    "normal-mean": (lambda: NormalMeanModel(m=1.5, mu0=0.4).fit(_LAYOUT_Y, draws=_LAYOUT_S, seed=1),
                    _row_major_normal_mean),
    "normal-mean-refit": (lambda: NormalMeanModel().folds(_LAYOUT_Y, draws=_LAYOUT_S, seed=1)(1),
                          _row_major_normal_mean),
    "regression": (lambda: regression_fit(load_election_csv(), _LAYOUT_S, 1), _row_major_regression),
    "regression-refit": (lambda: _regression_fold_4(_LAYOUT_S, 1), _row_major_regression),
    **{f"schools-{mode}": (lambda mode=mode: SchoolsModel(mode).fit(load_schools_csv(), draws=_LAYOUT_S, seed=1),
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
    if name == "regression-refit":
        # a fold scores its own transform of the shared draws: equal to the textbook posterior's formula up to rounding
        fit, textbook = fit
        values = fit.loglik(np.arange(len(textbook._data)))
        np.testing.assert_allclose(values, formula(textbook), rtol=1e-12, atol=0)
    else:
        values = fit.pointwise_loglik().values
        assert np.array_equal(values, formula(fit))
    assert values.shape[0] == _LAYOUT_S and values.shape[1] > 1
    assert values.flags.f_contiguous


_SCHOOLS = load_schools_csv()
HIERARCHICAL_FITS = {
    "default-grid": lambda draws, seed: schools_fit(_SCHOOLS, draws, seed),
    "pinned-0": lambda draws, seed: SchoolsModel(tau_grid=np.array([0.0])).fit(_SCHOOLS, draws=draws, seed=seed),
    "pinned-5": lambda draws, seed: SchoolsModel(tau_grid=np.array([5.0])).fit(_SCHOOLS, draws=draws, seed=seed),
    "new-groups": lambda draws, seed: SchoolsModel(prediction_mode="new_groups").fit(
        _SCHOOLS, draws=draws, seed=seed),
}


@pytest.mark.parametrize("case", list(HIERARCHICAL_FITS))
def test_hierarchical_theta_equals_the_per_draw_conditional_formula(case):
    draws, seed = 5_000, 17
    fit = HIERARCHICAL_FITS[case](draws, seed)
    y, sigma, J = _SCHOOLS.y, _SCHOOLS.sigma, len(_SCHOOLS)
    # replay the fit's stream: tau by inverse CDF, then mu's normals, then
    # theta's, the conditional effects whatever the prediction mode (a
    # fold's columns are checked against the same formula in test_folds.py)
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(np.cumsum(fit.tau_mass), rng.random(draws))
    assert np.array_equal(fit.tau, fit.tau_grid[idx])
    rng.standard_normal(draws)
    tau, mu = fit.tau, fit.mu
    t2 = tau[:, None] ** 2
    s2 = sigma[None, :] ** 2
    cond_mean = (y[None, :] * t2 + mu[:, None] * s2) / (t2 + s2)
    cond_var = s2 * t2 / (t2 + s2)
    theta = cond_mean + np.sqrt(cond_var) * rng.standard_normal((draws, J))
    assert np.array_equal(fit.theta, theta)


# ---------------------------------------------------------------------------
# a refit's columns, held out or not: bitwise the full matrix's, each at its
# cost alone
# ---------------------------------------------------------------------------

_NEW_GROUPS = SchoolsModel(prediction_mode="new_groups")
REFITS = {
    "normal-mean-flat": (NormalMeanModel(), _LAYOUT_Y),
    "normal-mean-m1": (NormalMeanModel(m=1.0, mu0=0.3), _LAYOUT_Y),
    "regression": (RegressionModel(), load_election_csv()),
    "schools-complete-pooling": (SchoolsModel("complete_pooling"), _SCHOOLS),
    "schools-existing-groups": (SchoolsModel(), _SCHOOLS),
    "schools-new-groups": (_NEW_GROUPS, _SCHOOLS),
    "schools-pinned-tau": (SchoolsModel(tau_grid=np.array([5.0])), _SCHOOLS),
}


@pytest.mark.parametrize("name", list(REFITS))
def test_heldout_column_is_bitwise_the_full_matrix_column(name):
    """`loglik(idx)` of every refit is those columns of its
    `pointwise_loglik()`, column-major, for single points and random index
    arrays with and without the held-out point, and the held-out column is
    the same when scored first on a fresh refit."""
    model, data = REFITS[name]
    n = len(data)
    rng = np.random.default_rng(3)
    for i in range(n):
        fit = model.folds(data, draws=2_000, seed=40 + i)(i)
        heldout = fit.loglik(i)
        assert heldout.shape == (2_000,)
        assert np.array_equal(heldout, model.folds(data, draws=2_000, seed=40 + i)(i).loglik(i))
        values = fit.loglik(np.arange(n))
        for j in range(n):
            assert np.array_equal(fit.loglik(j), values[:, j]), j
        others = np.delete(np.arange(n), i)
        for idx in (rng.permutation(n)[:rng.integers(1, n + 1)],
                    rng.permutation(np.append(rng.choice(others, 2), i)),
                    rng.choice(others, 3)):
            scored = fit.loglik(idx)
            assert scored.flags.f_contiguous
            assert np.array_equal(scored, values[:, idx]), idx


@pytest.mark.parametrize("model", [SchoolsModel(), _NEW_GROUPS, SchoolsModel("complete_pooling")],
                         ids=["existing-groups", "new-groups", "complete-pooling"])
def test_a_schools_refit_draws_the_other_effects_only_when_theta_is_read(model):
    # a fold reads a training group's effect when it scores that group: hierarchical, existing groups only
    draws = 1_000
    fold = model.folds(_SCHOOLS, draws=draws, seed=9)
    fit = fold(2)
    heldout = fit.loglik(2)
    assert fit._draws._effects is None
    if model.mode == "hierarchical":  # the held-out effect is integrated out
        rng = np.random.default_rng(9)
        u, z = rng.random(draws), rng.standard_normal(draws)
        order = np.argsort(u)  # the folds take the draws in increasing u
        u, z = u[order], z[order]
        grid, mass, mu_hat, v_mu = _tau_grid_posterior(np.delete(_SCHOOLS.y, 2), np.delete(_SCHOOLS.sigma, 2))
        idx = np.searchsorted(np.cumsum(mass) / np.cumsum(mass)[-1], u)
        mu, var = mu_hat[idx] + np.sqrt(v_mu[idx]) * z, grid[idx] ** 2 + _SCHOOLS.sigma[2] ** 2
        direct = -0.5 * np.log(2 * np.pi * var) - (_SCHOOLS.y[2] - mu) ** 2 / (2 * var)
        np.testing.assert_allclose(heldout, direct, rtol=1e-12)
    fit.loglik(np.arange(len(_SCHOOLS)))
    effects = fit._draws._effects
    assert (effects is not None) == (model.mode == "hierarchical" and model.prediction_mode == "existing_groups")
    assert fold(5)._draws._effects is effects  # drawn once for all folds
    assert np.array_equal(fit.loglik(2), heldout)
