import decimal
import functools
import math
import sys

import numpy as np
import pytest

from predcrit import oracle
from predcrit.models import NormalMeanModel, NormalMeanSpec
from predcrit.criteria import criterion_report
from predcrit.draws import PointwiseLogLikMatrix, lppd
from predcrit.errors import NonFiniteLogLikError
from predcrit.loo import loo_report
from predcrit.models import NormalMeanModel

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
        e = oracle.expectations(n)
        gap = e["lppd_within"] - e["elppd"]
        assert gap == pytest.approx(n / (n + 1), rel=RTOL)
    assert oracle.true_p(1) == 0.5
    assert oracle.true_p(10**9) == pytest.approx(1.0, abs=1e-8)


def test_true_p_is_the_expected_lppd_optimism():
    for n in range(1, 51):
        for m in (0.0, 0.5, float(n), 10.0 * n):
            assert oracle.expectations(n, m)["lppd"] == pytest.approx(oracle.true_p(n, m), rel=1e-12)


def test_expected_waic_penalties_flat():
    for n in range(1, 40):
        e = oracle.expectations(n)
        assert e["p_waic2"] == pytest.approx(1 - 1 / (2 * n), rel=RTOL)
        ref = (n - 1) / (n + 1) + 1 - n * math.log(1 + 1 / n)
        assert e["p_waic1"] == pytest.approx(ref, rel=RTOL)
    assert oracle.expectations(1)["p_waic2"] == 0.5


def test_expected_p_cloo_flat():
    for n in range(2, 51):
        assert oracle.expectations(n)["p_cloo"] == pytest.approx((n - 1) / n, rel=1e-11)
    assert oracle.expectations(4)["p_cloo"] == pytest.approx(0.75, rel=1e-11)


def test_expected_loo_gap():
    assert oracle.expectations(2)["loo"] == pytest.approx(-math.log(0.75), rel=RTOL)
    for n in (2, 3, 10, 40):
        ref = -(n / 2) * math.log(1 - 1 / n**2)
        assert oracle.expectations(n)["loo"] == pytest.approx(ref, rel=1e-11)
        assert oracle.expectations(n)["loo"] > 0


def test_expected_cloo_gap_flat():
    for n in range(2, 51):
        assert oracle.expectations(n)["cloo"] == pytest.approx(-1 / (n**2 + n), rel=1e-9)


def test_loo_underestimates_within_sample_fit_in_expectation():
    for n in range(2, 41):
        for m in (0.0, 1.0, float(n)):
            pd2 = None if m == 0 else 1.0 / m
            e = oracle.expectations(n, m, pd2)
            assert e["lppd_loo"] < e["lppd_within"]


def test_aic_gap_positive_and_quarter_n_asymptotics():
    for n in (1, 2, 5, 10):
        exact = 0.5 - (n / 2) * math.log(1 + 1 / n)
        assert oracle.expectations(n)["aic"] == pytest.approx(exact, rel=1e-11)
        assert oracle.expectations(n)["aic"] > 0
    for n in (20, 40, 100):
        ratio = oracle.expectations(n)["aic"] / (1 / (4 * n))
        assert 0.8 < ratio < 1.2


def test_waic_gap_signs_are_opposite_for_all_n():
    # variant-1 estimates overshoot the target, variant-2 undershoot: the
    # exact gaps are -,+ with common magnitude ~ 1/(2n+2)
    for n in range(2, 61):
        e = oracle.expectations(n)
        g1, g2 = e["waic1"], e["waic2"]
        assert g1 < 0 < g2
        assert g2 == pytest.approx((n - 1) / (2 * n * (n + 1)), rel=1e-10)
    for n in (20, 40, 100):
        e = oracle.expectations(n)
        assert 0.8 < abs(e["waic1"]) * (2 * n + 2) < 1.2
        assert 0.8 < e["waic2"] * (2 * n + 2) < 1.2


def test_dic_gap_equals_aic_gap_under_flat_prior():
    for n in (1, 2, 5, 20):
        e = oracle.expectations(n)
        assert e["dic"] == pytest.approx(e["aic"], rel=1e-12)


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


def _b_reference(n, m, ybar, s2y, mu0):
    """lppd - lppd_bar as the plain difference of `lppd` and `_loo`'s
    formulas, in 60-digit decimal arithmetic from the exact float inputs.
    Both carry -(n/2) log(2 pi), which cancels and is left out."""
    with decimal.localcontext(decimal.Context(prec=60)):
        n, m, ybar, s2y, mu0 = (decimal.Decimal(x) for x in (n, m, ybar, s2y, mu0))
        v, w = 1 / (m + n), 1 / (m + n - 1)
        sq_dev, shift2 = (n - 1) * s2y, n * m**2 * (ybar - mu0) ** 2
        within = -(n / 2) * (1 + v).ln() - (sq_dev + shift2 * v**2) / (2 * (1 + v))
        bar = -(n / 2) * (1 + w).ln() - (sq_dev * (1 + w**2) + shift2 * w**2) / (2 * (1 + w))
        return within - bar


def test_b_keeps_its_digits_at_large_n():
    # b is about 1/(2n), the gap between two sums of size about 1.4 n:
    # their float difference kept only 4 digits at n = 1e6
    for n in (2, 3, 5, 40, 100_000, 1_000_000):
        for m in (0.0, 0.5, 1.0, 3.0):
            for ybar, s2y in ((0.3, 1.1), (-1.7, 0.2), (2.5, 3.0)):
                spec = NormalMeanSpec(n=n, ybar=ybar, s2y=s2y, m=m, mu0=-0.25)
                got = oracle.dataset_values(spec, 0.1)["b"]
                want = _b_reference(n, m, ybar, s2y, -0.25)
                assert abs(decimal.Decimal(float(got)) / want - 1) < 1e-14, (n, m, ybar, s2y)


@functools.lru_cache(maxsize=None)
def _decimal_log_2pi(prec):
    """log(2 pi) to `prec` digits, pi by the series of the decimal module's
    documentation."""
    with decimal.localcontext(decimal.Context(prec=prec + 2)):
        lasts, t, pi, n, na, d, da = 0, decimal.Decimal(3), 3, 1, 0, 0, 24
        while pi != lasts:
            lasts = pi
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            pi += t
        return (2 * pi).ln()


def _table_reference(n, m, ybar, s2y, mu0):
    """Every formula of `formula_table`, written out plainly (m^2 (ybar -
    mu0)^2 and all) in 340-digit decimal arithmetic from the exact float
    inputs: enough digits that 1 + 1/(m + n) keeps 1/(m + n) at m = 1e300,
    and no value overflows."""
    with decimal.localcontext(decimal.Context(prec=340)):
        n, m, ybar, s2y, mu0 = (decimal.Decimal(x) for x in (n, m, ybar, s2y, mu0))
        log_2pi = _decimal_log_2pi(340)
        v = 1 / (m + n)
        log1p_v = (1 + v).ln()

        def observed(d2, s2y):
            """The observed-data formulas at (ybar - mu0)^2 = d2."""
            quad = (n - 1) * s2y + n * m**2 * d2 * v**2
            out = {"lpd_at_mle": -(n / 2) * log_2pi - (n - 1) * s2y / 2}
            out["elpd_aic"] = out["lpd_at_mle"] - 1
            out["lpd_at_posterior_mean"] = -(n / 2) * log_2pi - quad / 2
            out["mean_posterior_loglik"] = out["lpd_at_posterior_mean"] - n * v / 2
            out["p_dic"] = n * v
            out["lppd"] = -(n / 2) * (log_2pi + log1p_v) - quad / (2 * (1 + v))
            out["p_waic1"] = quad / (m + n + 1) + n * v - n * log1p_v
            out["p_waic2"] = quad * v + n * v**2 / 2
            if n >= 2:
                w = 1 / (m + n - 1)
                sq_dev, shift2 = (n - 1) * s2y, n * m**2 * d2
                const = -(n / 2) * (log_2pi + (1 + w).ln())
                out["lppd_loo"] = const - ((m + n) ** 2 * sq_dev + shift2) * w**2 / (2 * (1 + w))
                out["lppd_bar"] = const - (sq_dev * (1 + w**2) + shift2 * w**2) / (2 * (1 + w))
            return out

        obs = observed((ybar - mu0) ** 2, s2y)
        prior_dev2 = 1 / m if m else decimal.Decimal(0)
        e = observed(prior_dev2 + 1 / n, decimal.Decimal(1))
        err2 = (m**2 * prior_dev2 + n) * v**2
        elppd = n * (-(log_2pi + log1p_v) / 2 - (err2 + 1) / (2 * (1 + v)))
        table = {name: obs[name] for name in obs if name not in ("lppd_loo", "lppd_bar")}
        table.update(
            true_p=n / (m + n + 1),
            expected_lppd=e["lppd"],
            expected_elppd=elppd,
            expected_p_waic1=e["p_waic1"],
            expected_p_waic2=e["p_waic2"],
            expected_aic_gap=elppd - e["elpd_aic"],
            expected_waic1_gap=elppd - (e["lppd"] - e["p_waic1"]),
            expected_waic2_gap=elppd - (e["lppd"] - e["p_waic2"]),
        )
        if n >= 2:
            b = e["lppd"] - e["lppd_bar"]
            table.update(
                expected_lppd_loo=e["lppd_loo"],
                expected_lppd_bar=e["lppd_bar"],
                expected_b=b,
                expected_p_cloo=e["lppd_bar"] - e["lppd_loo"],
                expected_loo_gap=elppd - e["lppd_loo"],
                expected_cloo_gap=elppd - (e["lppd_loo"] + b),
                lppd_loo=obs["lppd_loo"],
                lppd_bar_minus_i=obs["lppd_bar"],
            )
        return table


@pytest.mark.parametrize("m", [0.0, 1e-308, 1e-3, 1.0, 1e3, 1e200, 1e300])
@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_formula_table_is_exact_or_refused_only_out_of_double_range(n, m):
    # The prior's pull m (ybar - mu0) / (m + n) is a weight at most 1 times
    # ybar - mu0; squaring the two apart gave 0 x inf = NaN where every
    # exact entry is finite, e.g. at (n = 3, m = 1e200) and at m = 0 with
    # ybar - mu0 = 1e200.
    mu0 = -0.5
    for dev in (0.0, 0.3, 1e150, 1e200):
        for s2y in (0.0, 1.1):
            spec = NormalMeanSpec(n=n, ybar=mu0 + dev, s2y=s2y, m=m, mu0=mu0)
            want = _table_reference(n, m, spec.ybar, s2y, mu0)
            try:
                got = oracle.formula_table(spec)
            except NonFiniteLogLikError:
                assert any(abs(x) > decimal.Decimal(sys.float_info.max) for x in want.values()), (dev, s2y)
                continue
            assert got.keys() - want.keys() == {"n", "m", "ybar", "s2y", "mu0"}
            for name, exact in want.items():
                assert abs(decimal.Decimal(got[name]) - exact) <= decimal.Decimal("1e-13") * max(1, abs(exact)), (dev, s2y, name)


def test_dataset_values_loo_entries_match_loo_quantities_and_brute_force():
    rng = np.random.default_rng(318)
    for n in (2, 3, 9, 40):
        for m in (0.0, 1.3):
            y = rng.normal(0.8, 1.5, size=n)
            values = oracle.dataset_values(NormalMeanSpec.from_data(y, m=m, mu0=-0.7), 0.25)
            for name, want in zip(("lppd_loo", "lppd_bar"), oracle.loo_quantities(y, m=m, mu0=-0.7)):
                assert values[name] == pytest.approx(want, rel=1e-12)
            for name, want in zip(("lppd_loo", "lppd_bar"), _loo_brute_force(y, m, -0.7)):
                assert values[name] == pytest.approx(want, rel=1e-12)
    assert "lppd_loo" not in oracle.dataset_values(NormalMeanSpec.from_data([0.4]), 0.25)


def test_from_data_on_a_stack_matches_per_row_calls_bitwise():
    rng = np.random.default_rng(317)
    for n in (1, 2, 7):
        stack = rng.normal(0.4, 1.3, size=(6, n))
        spec = NormalMeanSpec.from_data(stack, m=0.9, mu0=-0.3)
        assert spec.n == n and spec.ybar.shape == spec.s2y.shape == (6,)
        for r, row in enumerate(stack):
            one = NormalMeanSpec.from_data(row, m=0.9, mu0=-0.3)
            assert (spec.ybar[r], spec.s2y[r]) == (one.ybar, one.s2y)
            assert (one.ybar, one.s2y) == (row.mean(), row.var(ddof=1) if n >= 2 else 0.0)


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
        got = oracle.dataset_values(spec, (theta - spec.posterior_mean) ** 2)["elppd"]
        want = [oracle.dataset_values(s, (float(t) - s.posterior_mean) ** 2)["elppd"]
                for t, s in zip(theta, scalar_specs)]
        np.testing.assert_allclose(got, want, rtol=1e-14)
    with pytest.raises(ValueError, match="sample variance"):
        NormalMeanSpec(n=4, ybar=ybar, s2y=np.array([1.0, -1e-3]))


def test_dataset_elppd():
    # a posterior pinned at the true mean scores each new point at N(0, 1)
    pinned = NormalMeanSpec(n=4, m=1e300)
    assert oracle.dataset_values(pinned, 0.0)["elppd"] == pytest.approx(
        4 * (-0.5 * math.log(2 * math.pi) - 0.5), rel=RTOL
    )
    assert oracle.dataset_values(NormalMeanSpec(n=1), 1e12)["elppd"] < -10


def test_expectations_refuse_a_negative_prior_deviation():
    with pytest.raises(ValueError, match="^prior_dev2 must be nonnegative$"):
        oracle.expectations(3, 1.0, -1.0)


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
    assert abs(mc - oracle.expectations(n)["elppd"]) < 3 * se


def test_informative_lppd_cross_checked_by_concentrated_draws():
    # huge m with ybar = mu0: posterior pinned at mu0, lppd from draws must
    # match the closed form
    rng = np.random.default_rng(10)
    y = rng.normal(0.7, 1.0, size=8)
    spec = NormalMeanSpec.from_data(y, m=1e8, mu0=0.7)
    mat = NormalMeanModel(m=1e8, mu0=0.7).fit(y, draws=50_000, seed=4).pointwise_loglik()
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
    table2 = oracle.formula_table(NormalMeanSpec(n=2, ybar=1.0, s2y=2.0))
    assert table2["lppd_loo"] == pytest.approx(-math.log(4 * math.pi) - 2, rel=1e-12)


def _second_order(a):
    """sum_i Var_s(p_si / mean_s p_si) / S: the O(1/S) error of
    log(mean_s p_si) that a delta-method MC-SE leaves out, the term that
    perfbench's CriteriaCheck adds to it."""
    lme = np.logaddexp.reduce(a, axis=0) - math.log(a.shape[0])
    return float((np.exp(a - lme).var(axis=0, ddof=1) / a.shape[0]).sum())


def test_observed_formulas_match_draws_at_an_informative_prior():
    # The expectations are these formulas at the expected statistics, so
    # this is their independent check for m > 0. ybar = 2.72 sits far from
    # mu0, so the prior's pull enters every formula.
    m, mu0, S, seed = 2.5, -1.0, 200_000, 606
    y = np.array([2.1, 3.4, 2.8, 1.6, 3.9, 2.5])
    spec = NormalMeanSpec.from_data(y, m=m, mu0=mu0)
    model = NormalMeanModel(m=m, mu0=mu0)
    mat = model.fit(y, draws=S, seed=seed).pointwise_loglik()
    rep = criterion_report(mat, lpd_at_mean=oracle.lpd_at_posterior_mean(spec))
    second = _second_order(mat.values)
    for name, factor in (("lppd", 1.0), ("p_waic1", 2.0), ("p_waic2", 0.0), ("p_dic", 0.0)):
        allowed = 4 * (getattr(rep, f"mc_se_{name}") + factor * second)
        assert abs(getattr(rep, name) - getattr(oracle, name)(spec)) <= allowed, name

    loo = loo_report(model, y, rep.lppd, draws=S, seed=seed)
    want_loo, want_bar = oracle.loo_quantities(y, m=m, mu0=mu0)
    held_second = bar_se_sq = bar_second = 0.0
    folds = model.folds(y, draws=S, seed=seed)
    for i in range(y.size):  # the folds loo_report ran, each with its own MC-SE
        fold = folds(i).pointwise_loglik().values
        held_second += _second_order(fold[:, [i]])
        bar_se_sq += criterion_report(PointwiseLogLikMatrix(fold)).mc_se_lppd ** 2
        bar_second += _second_order(fold)
    assert abs(loo.lppd_loo - want_loo) <= 4 * (loo.mc_se_lppd_loo + held_second)
    bar_allowed = 4 * (math.sqrt(bar_se_sq) + bar_second) / y.size
    assert abs(loo.lppd_bar_minus_i - want_bar) <= bar_allowed


# Values of the hand-written expectation functions this module had before
# `expectations` derived them, at informative priors: (n, m, prior_dev2).
_PINNED_EXPECTATIONS = {
    (5, 2.5, None): {
        "lppd_within": -6.819365229290732, "elppd": -7.407600523408378,
        "elpd_aic": -7.594692666023363, "lpd_at_posterior_mean": -6.761359332690029,
        "elpd_dic": -7.428025999356696, "p_waic1": 0.5506548734652639,
        "p_waic2": 0.6222222222222221, "lppd_loo": -7.452444775125047,
        "lppd_bar": -6.9191114417917134, "b": 0.09974621250098181,
        "p_cloo": 0.5333333333333332, "aic": 0.18709214261498452,
        "dic": 0.020425475948317562, "waic1": -0.03758042065238287,
        "waic2": 0.033986928104575376, "loo": 0.04484425171666828,
        "cloo": -0.05490196078431353,
    },
    (12, 0.7, 3.0): {
        "lppd_within": -16.63266627610094, "elppd": -17.50857868486007,
        "elpd_aic": -17.527262398456074, "lpd_at_posterior_mean": -16.583465510862297,
        "elpd_dic": -17.528347400626075, "p_waic1": 0.8464803592864891,
        "p_waic2": 0.9121926905271134, "lppd_loo": -17.550433575733823,
        "lppd_bar": -16.68429184345036, "b": 0.05162556734941859,
        "p_cloo": 0.866141732283463, "aic": 0.018683713596004736,
        "dic": 0.019768715766005585, "waic1": -0.029432049472638333,
        "waic2": 0.03628028176798592, "loo": 0.04185489087375416,
        "cloo": -0.00977067647566443,
    },
    (3, 10.0, 0.0): {
        "lppd_within": -4.071274261141304, "elppd": -4.285559975427018,
        "elpd_aic": -4.7568155996140185, "lpd_at_posterior_mean": -4.052673587779698,
        "elpd_dic": -4.283442818548929, "p_waic1": 0.1935678840460195,
        "p_waic2": 0.2082385070550751, "lppd_loo": -4.280725814970476,
        "lppd_bar": -4.126879661124322, "b": 0.05560539998301817,
        "p_cloo": 0.1538461538461542, "aic": 0.47125562418700007,
        "dic": -0.0021171568780893324, "waic1": -0.020717830239694923,
        "waic2": -0.006047207230639312, "loo": -0.004834160456542058,
        "cloo": -0.060439560439560225,
    },
}


@pytest.mark.parametrize("point", list(_PINNED_EXPECTATIONS))
def test_expectations_keep_their_values_at_informative_priors(point):
    e = oracle.expectations(*point)
    e["elpd_aic"] = e["elppd"] - e["aic"]
    e["elpd_dic"] = e["elppd"] - e["dic"]
    e["lpd_at_posterior_mean"] = e["elpd_dic"] + e["p_dic"]
    for name, want in _PINNED_EXPECTATIONS[point].items():
        assert e[name] == pytest.approx(want, rel=1e-12), name
