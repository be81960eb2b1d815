import json
import math
import tracemalloc

import numpy as np
import pytest

from predcrit.criteria import (
    PointEstimateLogLik,
    aic,
    bic,
    criterion_report,
    lpd_posterior_summary,
    p_dic_alt,
)
from predcrit.draws import PointwiseLogLikMatrix, lppd


def _matrix(vals):
    return PointwiseLogLikMatrix(np.asarray(vals, dtype=float))


def test_aic_regression_example():
    elpd, a = aic(PointEstimateLogLik(-40.3, k=3))
    assert elpd == pytest.approx(-43.3, rel=1e-14)
    assert a == pytest.approx(86.6, rel=1e-14)


def test_aic_eight_parameter_example():
    # deviance 54.6 at the MLE with k = 8 gives 70.6
    elpd, a = aic(PointEstimateLogLik(-27.3, k=8))
    assert a == pytest.approx(70.6, rel=1e-14)


def test_aic_zero_case_and_kind_check():
    assert aic(PointEstimateLogLik(0.0, k=0)) == (0.0, 0.0)
    with pytest.raises(TypeError, match="'k'"):
        PointEstimateLogLik(-1.0)


def test_bic_examples():
    assert bic(PointEstimateLogLik(0.0, k=0), 10) == 0.0
    val = bic(PointEstimateLogLik(-40.3, k=3), 15)
    assert val == pytest.approx(80.6 + 3 * math.log(15), rel=1e-14)
    with pytest.raises(ValueError, match="integer"):
        bic(PointEstimateLogLik(0.0, k=1), math.e)
    with pytest.raises(ValueError):
        bic(PointEstimateLogLik(0.0, k=1), 0)


def test_p_dic_matches_hand_arithmetic():
    m = _matrix([[-42.0], [-42.0]])
    assert criterion_report(m, lpd_at_mean=-40.5).p_dic == pytest.approx(3.0, rel=1e-14)
    assert criterion_report(m, lpd_at_mean=-42.0).p_dic == 0.0


def test_p_dic_alt_examples():
    assert p_dic_alt([-1.0, -1.0, -1.0]) == 0.0
    assert p_dic_alt([-1.0, -3.0]) == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(ValueError):
        p_dic_alt([-1.0])


def test_p_waic_zero_for_constant_columns():
    rep = criterion_report(_matrix([[-1.0, -2.0], [-1.0, -2.0]]))
    assert rep.p_waic1 == pytest.approx(0.0, abs=1e-14)
    assert rep.p_waic2 == 0.0


def test_p_waic_nonnegative_random():
    rng = np.random.default_rng(21)
    for _ in range(25):
        rep = criterion_report(_matrix(rng.normal(-2, 1.3, size=(40, 6))))
        assert rep.p_waic1 >= 0.0
        assert rep.p_waic2 >= 0.0


def test_waic_identities_and_variants():
    rng = np.random.default_rng(4)
    m = _matrix(rng.normal(-2, 1, size=(60, 5)))
    rep = criterion_report(m)
    for variant in (1, 2):
        assert getattr(rep, f"elppd_waic{variant}") == lppd(m) - getattr(rep, f"p_waic{variant}")
    assert rep.waic == -2.0 * rep.elppd_waic2


def test_waic_single_constant_column_matrix():
    rep = criterion_report(_matrix([[-1.0], [-1.0]]))
    elppd, w = rep.elppd_waic2, rep.waic
    assert elppd == -1.0
    assert w == 2.0


def test_adding_constant_column_shifts_lppd_only():
    rng = np.random.default_rng(9)
    base = rng.normal(-2, 1, size=(50, 4))
    m = _matrix(base)
    extended = _matrix(np.column_stack([base, np.full(50, -0.7)]))
    assert lppd(extended) == pytest.approx(lppd(m) - 0.7, rel=1e-13)
    assert criterion_report(extended).p_waic2 == pytest.approx(criterion_report(m).p_waic2, rel=1e-13)


def test_lpd_posterior_summary_examples():
    s = lpd_posterior_summary([-5.0, -5.0])
    assert (s.mean, s.max, s.gap) == (-5.0, -5.0, 0.0)
    s = lpd_posterior_summary([-1.0, -2.0, -3.0])
    assert (s.mean, s.max, s.gap) == (-2.0, -1.0, 1.0)
    assert len(s.bin_left) == 30
    assert s.counts.sum() == 3


def test_report_deviance_identities_hold_exactly():
    rng = np.random.default_rng(33)
    m = _matrix(rng.normal(-3, 1.2, size=(80, 7)))
    mle = PointEstimateLogLik(-20.0, k=3)
    rep = criterion_report(m, lpd_at_mean=-21.0, mle=mle)
    assert rep.waic == -2.0 * (rep.lppd - rep.p_waic2)
    assert rep.dic == -2.0 * rep.lpd_at_mean + 2.0 * rep.p_dic
    assert rep.aic == -2.0 * rep.lpd_at_mle + 2.0 * rep.k
    assert rep.elppd_waic1 == rep.lppd - rep.p_waic1


def test_negative_p_dic_flagged_not_clamped():
    m = _matrix([[-1.0, -1.0], [-1.2, -0.9]])
    rep = criterion_report(m, lpd_at_mean=-5.0)
    assert rep.p_dic < 0
    assert any("negative p_dic" in w for w in rep.warnings)


def test_single_draw_report_marks_variance_fields_unavailable():
    rep = criterion_report(_matrix([[-2.3]]))
    assert rep.lppd == -2.3
    assert rep.p_waic1 == 0.0
    assert rep.p_waic2 is None
    assert rep.p_dic_alt is None
    assert rep.mc_se_lppd is None
    assert rep.waic is None  # variant 2 needs a variance
    assert any("at least 2 draws" in w for w in rep.warnings)


def test_report_json_round_trip_preserves_numbers():
    rng = np.random.default_rng(2)
    m = _matrix(rng.normal(-2, 1, size=(30, 3)))
    rep = criterion_report(m, lpd_at_mean=-6.5)
    decoded = json.loads(rep.to_json())
    for key, val in rep.to_dict().items():
        if isinstance(val, float):
            assert decoded[key] == val
    assert decoded["warnings"] == rep.warnings


def test_mc_se_fields_shrink_with_draws():
    rng = np.random.default_rng(14)
    small = _matrix(rng.normal(-2, 1, size=(200, 4)))
    big = _matrix(rng.normal(-2, 1, size=(20_000, 4)))
    r_small = criterion_report(small)
    r_big = criterion_report(big)
    assert r_big.mc_se_lppd < r_small.mc_se_lppd
    assert r_big.mc_se_p_waic2 < r_small.mc_se_p_waic2


def _parent_report(vals, lpd_at_mean, mle):
    """The report's fields from the per-(s, i) influence formulas it used
    before the one-pass kernel, as a reference."""

    def se(per_draw):
        return math.sqrt(per_draw.var(ddof=1) / per_draw.size)

    shift = vals.max(axis=0)
    lme = shift + np.log(np.exp(vals - shift).mean(axis=0))
    mean_cols = vals.mean(axis=0)
    row_totals = vals.sum(axis=1)
    ref = {"lppd": lme.sum(), "p_waic1": 2.0 * (lme - mean_cols).sum()}
    ref["elppd_waic1"] = ref["lppd"] - ref["p_waic1"]
    if vals.shape[0] >= 2:
        var_cols = vals.var(axis=0, ddof=1)
        ratio = np.exp(vals - lme)
        dev = vals - mean_cols
        dev2 = dev**2
        ref["p_waic2"] = var_cols.sum()
        ref["elppd_waic2"] = ref["lppd"] - ref["p_waic2"]
        ref["p_dic_alt"] = 2.0 * row_totals.var(ddof=1)
        ref["mc_se_lppd"] = se((ratio - 1.0).sum(axis=1))
        ref["mc_se_mean_loglik"] = se(row_totals)
        ref["mc_se_p_dic_alt"] = 2.0 * se((row_totals - row_totals.mean()) ** 2)
        ref["mc_se_p_waic1"] = 2.0 * se(((ratio - 1.0) - dev).sum(axis=1))
        ref["mc_se_p_waic2"] = se((dev2 - var_cols).sum(axis=1))
        ref["mc_se_waic"] = 2.0 * se(((ratio - 1.0) - (dev2 - var_cols)).sum(axis=1))
        ref["waic"] = -2.0 * ref["elppd_waic2"]
    if lpd_at_mean is not None:
        ref["lpd_at_mean"] = lpd_at_mean
        ref["p_dic"] = 2.0 * (lpd_at_mean - row_totals.mean())
        ref["elpd_dic"] = lpd_at_mean - ref["p_dic"]
        ref["dic"] = -2.0 * ref["elpd_dic"]
        if "mc_se_mean_loglik" in ref:
            ref["mc_se_p_dic"] = 2.0 * ref["mc_se_mean_loglik"]
    if mle is not None:
        ref["lpd_at_mle"] = mle.total_loglik
        ref["elpd_aic"] = mle.total_loglik - mle.k
        ref["aic"] = -2.0 * ref["elpd_aic"]
        ref["bic"] = -2.0 * mle.total_loglik + mle.k * math.log(vals.shape[1])
    return ref


def _differential_corpus():
    rng = np.random.default_rng(2024)
    for s in (2, 3, 50):
        for n in (1, 7):
            base = rng.normal(-2.0, 1.3, size=(s, n))
            constant = np.tile(rng.normal(-2.0, 1.0, size=n), (s, 1))
            mixed = base.copy()
            mixed[:, ::2] = constant[:, ::2]
            for vals in (base, constant, mixed, base + 1e5, base - 1e5, mixed - 1e5):
                yield vals


def test_report_matches_per_draw_influence_reference():
    mle = PointEstimateLogLik(-20.0, k=3)
    cases = 0
    for vals in _differential_corpus():
        m = _matrix(vals)
        for lpd_at_mean, fit in ((None, None), (float(vals.sum(axis=1).max()), mle)):
            rep = criterion_report(m, lpd_at_mean=lpd_at_mean, mle=fit)
            ref = _parent_report(vals, lpd_at_mean, fit)
            for key, got in rep.to_dict().items():
                if key in ("warnings", "k"):
                    continue
                if key not in ref:
                    assert got is None, (key, vals.shape)
                    continue
                assert math.isclose(got, ref[key], rel_tol=1e-9, abs_tol=1e-12), (key, got, ref[key], vals.shape)
            assert rep.lppd == lppd(m)
            cases += 1
    assert cases == 2 * 3 * 6 * 2


def test_report_working_memory_is_about_one_matrix():
    m = _matrix(np.random.default_rng(6).normal(-2.0, 1.0, size=(4000, 250)))
    tracemalloc.start()
    try:
        criterion_report(m, lpd_at_mean=-500.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * m.values.nbytes
