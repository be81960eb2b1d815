import math

import numpy as np
import pytest

from predcrit import oracle
from predcrit.models import NormalMeanModel, NormalMeanSpec
from predcrit.criteria import criterion_report
from predcrit.draws import lppd
from predcrit.models import normal_pointwise_loglik, normal_posterior_draws

RTOL = 1e-12


def _flat_reference(n, ybar, s2):
    """Independent implementation of the flat-prior formulas."""
    log2pi = math.log(2 * math.pi)
    lpd_mle = -(n / 2) * log2pi - 0.5 * (n - 1) * s2
    lppd_flat = (
        -(n / 2) * log2pi
        - (n / 2) * math.log(1 + 1 / n)
        - 0.5 * (n * (n - 1) / (n + 1)) * s2
    )
    p_w1 = (n - 1) / (n + 1) * s2 + 1 - n * math.log(1 + 1 / n)
    p_w2 = (n - 1) / n * s2 + 1 / (2 * n)
    return lpd_mle, lppd_flat, p_w1, p_w2


def test_flat_prior_specializations_match_for_all_n():
    rng = np.random.default_rng(123)
    for n in range(1, 31):
        ybar = float(rng.normal(0, 5))
        s2 = float(rng.uniform(0, 4))
        spec = NormalMeanSpec(n=n, ybar=ybar, s2y=s2, m=0.0, mu0=float(rng.normal()))
        lpd_mle, lppd_flat, p_w1, p_w2 = _flat_reference(n, ybar, s2)
        assert oracle.lpd_at_mle(spec) == pytest.approx(lpd_mle, rel=RTOL)
        assert oracle.lppd(spec) == pytest.approx(lppd_flat, rel=RTOL)
        assert oracle.p_waic1(spec) == pytest.approx(p_w1, rel=RTOL)
        assert oracle.p_waic2(spec) == pytest.approx(p_w2, rel=RTOL)
        # flat prior: posterior mean is the MLE
        assert oracle.lpd_at_posterior_mean(spec) == pytest.approx(lpd_mle, rel=RTOL)


def test_p_dic_closed_form():
    for n in (1, 2, 7, 30):
        assert oracle.p_dic(NormalMeanSpec(n=n, m=0.0)) == 1.0
        assert oracle.p_dic(NormalMeanSpec(n=n, m=float(n))) == 0.5
        assert oracle.p_dic(NormalMeanSpec(n=n, m=1e12)) < 1e-10


def test_small_sample_waic_penalties():
    spec = NormalMeanSpec(n=1, m=0.0)
    assert oracle.p_waic1(spec) == pytest.approx(1 - math.log(2), rel=RTOL)
    assert oracle.p_waic2(spec) == 0.5


def test_fully_informative_prior_kills_the_penalties():
    spec = NormalMeanSpec(n=6, ybar=1.3, s2y=0.8, m=1e14, mu0=1.3)
    assert oracle.p_waic1(spec) == pytest.approx(0.0, abs=1e-9)
    assert oracle.p_waic2(spec) == pytest.approx(0.0, abs=1e-9)


def test_true_p_identity():
    for n in range(1, 51):
        assert oracle.true_p(n) == pytest.approx(n / (n + 1), rel=RTOL)
        gap = oracle.expected_lppd(n) - oracle.expected_elppd(n)
        assert gap == pytest.approx(n / (n + 1), rel=RTOL)
    assert oracle.true_p(1) == 0.5
    assert oracle.true_p(10**9) == pytest.approx(1.0, abs=1e-8)


def test_expected_waic_penalties_flat():
    for n in range(1, 40):
        assert oracle.expected_p_waic2(n) == pytest.approx(1 - 1 / (2 * n), rel=RTOL)
        ref = (n - 1) / (n + 1) + 1 - n * math.log(1 + 1 / n)
        assert oracle.expected_p_waic1(n) == pytest.approx(ref, rel=RTOL)
    assert oracle.expected_p_waic2(1) == 0.5


def test_expected_p_cloo_flat():
    for n in range(2, 51):
        assert oracle.expected_p_cloo(n) == pytest.approx((n - 1) / n, rel=1e-11)
    assert oracle.expected_p_cloo(4) == pytest.approx(0.75, rel=1e-11)


def test_expected_loo_gap():
    assert oracle.expected_loo_gap(2) == pytest.approx(-math.log(0.75), rel=RTOL)
    for n in (2, 3, 10, 40):
        ref = -(n / 2) * math.log(1 - 1 / n**2)
        assert oracle.expected_loo_gap(n) == pytest.approx(ref, rel=1e-11)
        assert oracle.expected_loo_gap(n) > 0


def test_expected_cloo_gap_flat():
    for n in range(2, 51):
        assert oracle.expected_cloo_gap(n) == pytest.approx(-1 / (n**2 + n), rel=1e-9)


def test_loo_underestimates_within_sample_fit_in_expectation():
    for n in range(2, 41):
        for m in (0.0, 1.0, float(n)):
            pd2 = None if m == 0 else 1.0 / m
            assert oracle.expected_lppd_loo(n, m, pd2) < oracle.expected_lppd(n, m, pd2)


def test_aic_gap_positive_and_quarter_n_asymptotics():
    for n in (1, 2, 5, 10):
        exact = 0.5 - (n / 2) * math.log(1 + 1 / n)
        assert oracle.expected_aic_gap(n) == pytest.approx(exact, rel=1e-11)
        assert oracle.expected_aic_gap(n) > 0
    for n in (20, 40, 100):
        ratio = oracle.expected_aic_gap(n) / (1 / (4 * n))
        assert 0.8 < ratio < 1.2


def test_waic_gap_signs_are_opposite_for_all_n():
    # variant-1 estimates overshoot the target, variant-2 undershoot: the
    # exact gaps are -,+ with common magnitude ~ 1/(2n+2)
    for n in range(2, 61):
        g1 = oracle.expected_waic1_gap(n)
        g2 = oracle.expected_waic2_gap(n)
        assert g1 < 0 < g2
        assert g2 == pytest.approx((n - 1) / (2 * n * (n + 1)), rel=1e-10)
    for n in (20, 40, 100):
        assert 0.8 < abs(oracle.expected_waic1_gap(n)) * (2 * n + 2) < 1.2
        assert 0.8 < oracle.expected_waic2_gap(n) * (2 * n + 2) < 1.2


def test_dic_gap_equals_aic_gap_under_flat_prior():
    for n in (1, 2, 5, 20):
        assert oracle.expected_dic_gap(n) == pytest.approx(
            oracle.expected_aic_gap(n), rel=1e-12
        )


def test_loo_quantities_closed_cases():
    lo, bar = oracle.loo_quantities([0.0, 2.0])
    assert lo == pytest.approx(-math.log(4 * math.pi) - 2, rel=RTOL)
    assert bar == pytest.approx(-math.log(4 * math.pi) - 1, rel=RTOL)
    lo_sym, _ = oracle.loo_quantities([3.0, 3.0])
    assert lo_sym == pytest.approx(-math.log(4 * math.pi), rel=RTOL)
    with pytest.raises(ValueError):
        oracle.loo_quantities([1.0])


def test_loo_quantities_informative_limit():
    y = [0.4, 1.1, -0.3]
    m = 1e10
    lo, _ = oracle.loo_quantities(y, m=m, mu0=0.5)
    pinned = sum(
        -0.5 * math.log(2 * math.pi * (1 + 1 / (m + 2))) - (v - 0.5) ** 2 / (2 * (1 + 1 / (m + 2)))
        for v in y
    )
    assert lo == pytest.approx(pinned, rel=1e-9)


def _loo_brute_force(y, m, mu0):
    """Fold i's predictive density at every point j, as an n x n matrix."""
    n = y.size
    w = 1.0 / (m + n - 1)
    centers = np.array([(m * mu0 + np.delete(y, i).sum()) / (m + n - 1) for i in range(n)])
    dens = -0.5 * np.log(2 * np.pi * (1 + w)) - (y[None, :] - centers[:, None]) ** 2 / (2 * (1 + w))
    return np.trace(dens), dens.sum() / n


def test_loo_quantities_match_brute_force():
    rng = np.random.default_rng(314)
    for n in (2, 3, 9, 40):
        for m in (0.0, 1.3):
            y = rng.normal(0.8, 1.5, size=n)
            lo, bar = oracle.loo_quantities(y, m=m, mu0=-0.7)
            ref_lo, ref_bar = _loo_brute_force(y, m, -0.7)
            assert lo == pytest.approx(ref_lo, rel=1e-12)
            assert bar == pytest.approx(ref_bar, rel=1e-12)


def test_loo_quantities_work_along_the_last_axis():
    rng = np.random.default_rng(315)
    stack = rng.normal(-1.0, 1.0, size=(5, 6))
    lo, bar = oracle.loo_quantities(stack, m=0.9, mu0=0.2)
    assert lo.shape == bar.shape == (5,)
    for r, row in enumerate(stack):
        assert (lo[r], bar[r]) == oracle.loo_quantities(row, m=0.9, mu0=0.2)


def test_array_spec_matches_scalar_calls_elementwise():
    rng = np.random.default_rng(316)
    ybar = rng.normal(0.0, 2.0, size=7)
    s2y = rng.uniform(0.0, 3.0, size=7)
    fns = (
        oracle.lpd_at_mle, oracle.elpd_aic, oracle.lpd_at_posterior_mean,
        oracle.mean_posterior_loglik, oracle.p_dic, oracle.lppd, oracle.p_waic1,
        oracle.p_waic2,
    )
    for m in (0.0, 1.7):
        spec = NormalMeanSpec(n=4, ybar=ybar, s2y=s2y, m=m, mu0=0.6)
        scalar_specs = [NormalMeanSpec(n=4, ybar=float(a), s2y=float(b), m=m, mu0=0.6)
                        for a, b in zip(ybar, s2y)]
        for fn in fns:
            got = np.broadcast_to(fn(spec), ybar.shape)
            want = [fn(s) for s in scalar_specs]
            np.testing.assert_allclose(got, want, rtol=1e-14, err_msg=fn.__name__)
        theta = rng.normal(size=7)
        got = oracle.elppd_given_posterior(theta, spec.posterior_mean, spec.posterior_var)
        want = [oracle.elppd_given_posterior(float(t), s.posterior_mean, s.posterior_var)
                for t, s in zip(theta, scalar_specs)]
        np.testing.assert_allclose(got, want, rtol=1e-14)
    with pytest.raises(ValueError, match="sample variance"):
        NormalMeanSpec(n=4, ybar=ybar, s2y=np.array([1.0, -1e-3]))


def test_elppd_given_posterior():
    assert oracle.elppd_given_posterior(0.0, 0.0, 0.0) == pytest.approx(
        -0.5 * math.log(2 * math.pi) - 0.5, rel=RTOL
    )
    assert oracle.elppd_given_posterior(0.0, 0.0, 1e12) < -10
    with pytest.raises(ValueError):
        oracle.elppd_given_posterior(0.0, 0.0, -1.0)


def test_elppd_given_posterior_recovers_expected_elppd():
    # average over ybar ~ N(theta0, 1/n) with post_mean = ybar recovers the
    # closed-form expectation
    rng = np.random.default_rng(77)
    n, theta0, R = 5, 0.0, 200_000
    ybar = theta0 + rng.normal(size=R) / math.sqrt(n)
    vals = np.array(
        [-0.5 * math.log(2 * math.pi * (1 + 1 / n))] * R
    ) - ((theta0 - ybar) ** 2 + 1) / (2 * (1 + 1 / n))
    mc = n * vals.mean()
    se = n * vals.std(ddof=1) / math.sqrt(R)
    assert abs(mc - oracle.expected_elppd(n)) < 3 * se


def test_informative_lppd_cross_checked_by_concentrated_draws():
    # huge m with ybar = mu0: posterior pinned at mu0, lppd from draws must
    # match the closed form
    rng = np.random.default_rng(10)
    y = rng.normal(0.7, 1.0, size=8)
    spec = NormalMeanSpec.from_data(y, m=1e8, mu0=0.7)
    theta = normal_posterior_draws(spec, 50_000, seed=4)
    mat = normal_pointwise_loglik(y, theta)
    assert lppd(mat) == pytest.approx(oracle.lppd(spec), abs=3 * criterion_report(mat).mc_se_lppd + 1e-5)


def test_mean_posterior_loglik_consistent_with_p_dic():
    rng = np.random.default_rng(55)
    for _ in range(10):
        spec = NormalMeanSpec(
            n=int(rng.integers(1, 20)),
            ybar=float(rng.normal(0, 2)),
            s2y=float(rng.uniform(0, 3)),
            m=float(rng.uniform(0, 6)),
            mu0=float(rng.normal(0, 2)),
        )
        lhs = 2 * (oracle.lpd_at_posterior_mean(spec) - oracle.mean_posterior_loglik(spec))
        assert lhs == pytest.approx(oracle.p_dic(spec), rel=1e-12)


def test_refit_loo_matches_analytic_for_informative_prior():
    rng = np.random.default_rng(2024)
    y = rng.normal(1.0, 1.0, size=5)
    m, mu0 = 2.5, 0.3
    analytic, _ = oracle.loo_quantities(y, m=m, mu0=mu0)
    from predcrit.loo import loo_report
    from predcrit.draws import lppd as lppd_fn

    model = NormalMeanModel(m=m, mu0=mu0)
    fit = model.fit(y, draws=100_000, seed=8)
    rep = loo_report(model, y, lppd_fn(fit.pointwise_loglik()), draws=100_000, seed=8)
    assert abs(rep.lppd_loo - analytic) < 3 * rep.mc_se_lppd_loo + 1e-3


def test_formula_table_contents():
    spec = NormalMeanSpec(n=1, m=0.0)
    table = oracle.formula_table(spec)
    assert table["p_waic1"] == pytest.approx(0.3069, abs=5e-5)
    assert table["p_waic2"] == 0.5
    assert "lppd_loo" not in table
    table2 = oracle.formula_table(NormalMeanSpec(n=2, ybar=1.0, s2y=2.0), y=[0.0, 2.0])
    assert table2["lppd_loo"] == pytest.approx(-math.log(4 * math.pi) - 2, rel=1e-12)
