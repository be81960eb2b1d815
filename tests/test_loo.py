import math

import numpy as np
import pytest

from predcrit.draws import PointwiseLogLikMatrix, log_mean_exp, lppd
from predcrit.errors import ModelRefusalError, NonFiniteLogLikError
from predcrit.loo import loo_report
from predcrit.models import NormalMeanModel, SchoolsModel, default_eight_schools
from predcrit.models.schools import _SchoolsFit
from predcrit.reports import schools_table_report
from predcrit.seeds import derive_seed

FLAT_N2_LPPD_LOO = -math.log(4 * math.pi) - 2.0  # y = (0, 2), unit-variance normal mean
FLAT_N2_LPPD_BAR = -math.log(4 * math.pi) - 1.0


def test_refit_loo_matches_flat_normal_closed_form():
    model = NormalMeanModel()
    y = np.array([0.0, 2.0])
    rep = loo_report(model, y, 0.0, draws=100_000, seed=321)
    total, per_point = rep.lppd_loo, rep.per_point
    assert len(per_point) == 2
    assert total == pytest.approx(FLAT_N2_LPPD_LOO, abs=0.02)
    bar = rep.lppd_bar_minus_i
    assert bar == pytest.approx(FLAT_N2_LPPD_BAR, abs=0.02)


def test_loo_report_identities_and_error_bars():
    model = NormalMeanModel()
    y = np.array([0.0, 2.0])
    fit = model.fit(y, draws=100_000, seed=5)
    full = lppd(fit.pointwise_loglik())
    rep = loo_report(model, y, full, draws=100_000, seed=321)
    assert rep.lppd_cloo == rep.lppd_loo + rep.b
    assert rep.p_loo == full - rep.lppd_loo
    # the two p_cloo definitions coincide through b
    assert rep.p_cloo == pytest.approx(full - rep.lppd_cloo, abs=1e-12)
    assert abs(rep.lppd_loo - FLAT_N2_LPPD_LOO) < 3 * rep.mc_se_lppd_loo + 1e-3


def test_single_draw_loo_has_no_error_bar():
    # one draw has no spread: its Monte Carlo error is unknown, not zero
    rep = loo_report(NormalMeanModel(), np.array([0.0, 2.0]), 0.0, draws=1, seed=3)
    assert rep.mc_se_lppd_loo is None


def test_loo_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        loo_report(NormalMeanModel(), np.array([1.0]), 0.0, draws=100, seed=0)


class _FixedPosteriorModel:
    """Every fold returns the same posterior; lppd_bar must equal the
    common full-data lppd."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.exclude = None

    def fit(self, data, exclude=None, *, draws, seed):
        self.exclude = exclude
        return self

    def pointwise_loglik(self):
        return self.matrix

    def heldout_loglik(self):
        return self.matrix.column(self.exclude)


class _RecordingModel(_FixedPosteriorModel):
    """A fixed posterior that records the point each `fit` call leaves out."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.calls = []

    def fit(self, data, exclude=None, *, draws, seed):
        self.calls.append(exclude)
        return super().fit(data, exclude, draws=draws, seed=seed)


class _NaNHeldOutModel(_FixedPosteriorModel):
    """A fixed posterior whose held-out column of point 1 has a NaN at draw 3."""

    def heldout_loglik(self):
        col = super().heldout_loglik().copy()
        if self.exclude == 1:
            col[3] = np.nan
        return col


def test_a_non_finite_heldout_column_is_refused_naming_draw_and_point():
    model = _NaNHeldOutModel(PointwiseLogLikMatrix(np.full((10, 3), -1.0)))
    with pytest.raises(NonFiniteLogLikError, match="at draw 3, point 1: nan"):
        loo_report(model, np.zeros(3), -3.0, draws=10, seed=1, bias_correction=False)


def test_without_bias_correction_loo_fields_match_and_the_corrected_ones_are_none():
    rng = np.random.default_rng(4)
    mat = PointwiseLogLikMatrix(rng.normal(-2, 1, size=(64, 5)))
    full = loo_report(_FixedPosteriorModel(mat), np.zeros(5), -9.0, draws=64, seed=1)
    short = loo_report(_FixedPosteriorModel(mat), np.zeros(5), -9.0, draws=64, seed=1,
                       bias_correction=False)
    assert short.per_point == full.per_point
    assert (short.lppd_loo, short.p_loo, short.mc_se_lppd_loo) == (
        full.lppd_loo, full.p_loo, full.mc_se_lppd_loo)
    assert short.lppd_bar_minus_i is short.b is short.lppd_cloo is short.p_cloo is None


@pytest.mark.parametrize("lppd_full", [math.nan, math.inf])
def test_non_finite_full_lppd_is_refused_before_any_refit(lppd_full):
    model = _RecordingModel(PointwiseLogLikMatrix(np.full((10, 3), -1.0)))
    with pytest.raises(ValueError, match="finite"):
        loo_report(model, np.zeros(3), lppd_full, draws=10, seed=1)
    assert model.calls == []


def test_identical_fold_posteriors_reduce_bar_to_common_lppd():
    rng = np.random.default_rng(17)
    mat = PointwiseLogLikMatrix(rng.normal(-2, 1, size=(64, 5)))
    model = _FixedPosteriorModel(mat)
    bar = loo_report(model, np.zeros(5), 0.0, draws=64, seed=1).lppd_bar_minus_i
    assert bar == pytest.approx(lppd(mat), rel=1e-13)


def test_fold_order_independence_bitwise():
    model = NormalMeanModel(m=0.5, mu0=1.0)
    rng = np.random.default_rng(99)
    y = rng.normal(0.5, 1.0, size=6)
    rep = loo_report(model, y, 0.0, draws=5_000, seed=777)
    total, per_point = rep.lppd_loo, rep.per_point
    # recompute folds in scrambled order straight from derived seeds
    scrambled = {}
    for i in (3, 0, 5, 2, 4, 1):
        fit = model.fit(y, exclude=i, draws=5_000, seed=derive_seed(777, i))
        scrambled[i] = log_mean_exp(fit.pointwise_loglik().column(i))
    assert [scrambled[i] for i in range(6)] == per_point
    total2 = loo_report(model, y, 0.0, draws=5_000, seed=777).lppd_loo
    assert total2 == total


def test_derived_seeds_are_distinct_and_deterministic():
    seeds = [derive_seed(12345, i) for i in range(200)]
    assert len(set(seeds)) == 200
    assert seeds == [derive_seed(12345, i) for i in range(200)]
    assert derive_seed(1, 0) != derive_seed(2, 0)
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_no_pooling_refusal_propagates_through_loo():
    with pytest.raises(ModelRefusalError, match="model cannot predict held-out point"):
        loo_report(SchoolsModel("no_pooling"), default_eight_schools(), 0.0, draws=500, seed=1)


# ---------------------------------------------------------------------------
# schools LOO against an independent numpy reference
# ---------------------------------------------------------------------------

def _normal_logpdf(x, mean, var):
    return -0.5 * np.log(2 * np.pi * var) - (x - mean) ** 2 / (2 * var)


def _complete_pooling_reference(data):
    """sum_i log N(y_i | mean_post(-i), v_post(-i) + sigma_i^2)."""
    total = 0.0
    for i in range(data.J):
        y, sigma = np.delete(data.y, i), np.delete(data.sigma, i)
        v_post = 1.0 / (1.0 / sigma**2).sum()
        mean_post = v_post * (y / sigma**2).sum()
        total += _normal_logpdf(data.y[i], mean_post, v_post + data.sigma[i] ** 2)
    return total


def _hierarchical_reference(data):
    """sum_i log sum_g p(tau_g | y(-i)) N(y_i | mu_hat(tau_g), V_mu(tau_g) + tau_g^2 + sigma_i^2)
    over the fold sampler's own tau grid, with the grid posterior recomputed here."""
    total = 0.0
    for i in range(data.J):
        grid = SchoolsModel().fit(data, exclude=i, draws=1, seed=0).tau_grid
        y, sigma = np.delete(data.y, i), np.delete(data.sigma, i)
        var = sigma[None, :] ** 2 + grid[:, None] ** 2
        v_mu = 1.0 / (1.0 / var).sum(axis=1)
        mu_hat = v_mu * (y / var).sum(axis=1)
        log_post = (0.5 * np.log(v_mu) - 0.5 * np.log(var).sum(axis=1)
                    - 0.5 * ((y - mu_hat[:, None]) ** 2 / var).sum(axis=1))
        mass = np.exp(log_post - log_post.max())
        mass /= mass.sum()
        dens = np.exp(_normal_logpdf(data.y[i], mu_hat, v_mu + grid**2 + data.sigma[i] ** 2))
        total += math.log((mass * dens).sum())
    return total


@pytest.mark.parametrize("seed", [3, 2024])
@pytest.mark.parametrize("mode", ["complete_pooling", "hierarchical"])
def test_schools_loo_matches_an_independent_reference(mode, seed):
    data = default_eight_schools()
    draws = 40_000
    rep = loo_report(SchoolsModel(mode), data, 0.0, draws=draws, seed=seed, bias_correction=False)
    ref = (_complete_pooling_reference(data) if mode == "complete_pooling"
           else _hierarchical_reference(data))
    assert abs(rep.lppd_loo - ref) < 4 * rep.mc_se_lppd_loo


def test_schools_table_scores_only_its_three_full_data_fits(monkeypatch):
    calls = []
    original = _SchoolsFit.pointwise_loglik

    def counting(fit):
        calls.append(fit._exclude)
        return original(fit)

    monkeypatch.setattr(_SchoolsFit, "pointwise_loglik", counting)
    schools_table_report(draws=500, seed=5)
    assert calls == [None, None, None]
