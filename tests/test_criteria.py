import json
import math
import tracemalloc

import numpy as np
import pytest

from predcrit import draws
from predcrit.criteria import (
    PointEstimateLogLik,
    aic,
    bic,
    criterion_report,
    lpd_posterior_summary,
)
from predcrit.draws import _BLOCK_BYTES, PointwiseLogLikMatrix, lppd
from predcrit.errors import NonFiniteLogLikError


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
    def p_dic_alt(totals):  # one point per draw: each row total is its entry
        return criterion_report(_matrix(np.reshape(totals, (-1, 1)))).p_dic_alt

    assert p_dic_alt([-1.0, -1.0, -1.0]) == 0.0
    assert p_dic_alt([-1.0, -3.0]) == pytest.approx(4.0, rel=1e-14)
    assert p_dic_alt([-1.0]) is None  # a variance needs two draws


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
    assert (s["mean"], s["max"], s["gap"]) == (-5.0, -5.0, 0.0)
    s = lpd_posterior_summary([-1.0, -2.0, -3.0])
    assert (s["mean"], s["max"], s["gap"]) == (-2.0, -1.0, 1.0)
    assert len(s["bin_left"]) == 30
    assert sum(s["counts"]) == 3
    # a matrix is not a column of draw totals: refused, not flattened
    with pytest.raises(ValueError, match=r"1-dimensional, got shape \(2, 3\)"):
        lpd_posterior_summary(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="empty draw column"):
        lpd_posterior_summary([])
    # NaN and inf totals are refused naming the draw, as log_mean_exp refuses them
    with pytest.raises(NonFiniteLogLikError, match="at draw 1, point 0: nan"):
        lpd_posterior_summary([-1.0, math.nan])


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


def _reference_report(vals, lpd_at_mean, mle):
    """The report's fields from the per-(s, i) influence formulas, in long
    double, as a reference. Each point's draws are centred at the column
    mean the report takes, so the centred total D_s = sum_i (a_si - mean_i)
    is the same series on both sides; E_post log p(y | theta) is exact."""

    def se(per_draw):
        return np.sqrt(per_draw.var(ddof=1) / per_draw.size)

    a = vals.astype(np.longdouble)
    shift = a.max(axis=0)
    lme = shift + np.log(np.exp(a - shift).mean(axis=0))
    mean_cols = vals.mean(axis=0).astype(np.longdouble)
    ref = {"lppd": lme.sum(), "p_waic1": 2.0 * (lme - mean_cols).sum()}
    ref["elppd_waic1"] = ref["lppd"] - ref["p_waic1"]
    if vals.shape[0] >= 2:
        ratio = np.exp(a - lme)
        dev = a - mean_cols
        dev2 = dev**2
        var_cols = dev2.sum(axis=0) / (vals.shape[0] - 1)
        centred_totals = dev.sum(axis=1)
        ref["p_waic2"] = var_cols.sum()
        ref["elppd_waic2"] = ref["lppd"] - ref["p_waic2"]
        ref["p_dic_alt"] = 2.0 * centred_totals.var(ddof=1)
        ref["mc_se_lppd"] = se((ratio - 1.0).sum(axis=1))
        ref["mc_se_mean_loglik"] = se(centred_totals)
        ref["mc_se_p_dic_alt"] = 2.0 * se(centred_totals**2)
        ref["mc_se_p_waic1"] = 2.0 * se(((ratio - 1.0) - dev).sum(axis=1))
        ref["mc_se_p_waic2"] = se((dev2 - var_cols).sum(axis=1))
        ref["mc_se_waic"] = 2.0 * se(((ratio - 1.0) - (dev2 - var_cols)).sum(axis=1))
        ref["waic"] = -2.0 * ref["elppd_waic2"]
    if lpd_at_mean is not None:
        ref["lpd_at_mean"] = lpd_at_mean
        ref["p_dic"] = 2.0 * (lpd_at_mean - a.mean(axis=0).sum())
        ref["elpd_dic"] = lpd_at_mean - ref["p_dic"]
        ref["dic"] = -2.0 * ref["elpd_dic"]
        if "mc_se_mean_loglik" in ref:
            ref["mc_se_p_dic"] = 2.0 * ref["mc_se_mean_loglik"]
    if mle is not None:
        ref["lpd_at_mle"] = mle.total_loglik
        ref["elpd_aic"] = mle.total_loglik - mle.k
        ref["aic"] = -2.0 * ref["elpd_aic"]
        ref["bic"] = -2.0 * mle.total_loglik + mle.k * math.log(vals.shape[1])
    return {key: float(value) for key, value in ref.items()}


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
            ref = _reference_report(vals, lpd_at_mean, fit)
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


def _traced_peak(vals, **kwargs):
    tracemalloc.start()
    try:
        criterion_report(PointwiseLogLikMatrix(vals), **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_working_memory_is_two_blocks_and_a_few_vectors():
    vals = np.random.default_rng(6).normal(-2.0, 1.0, size=(4000, 250))
    n = vals.shape[1]
    peak = _traced_peak(vals, lpd_at_mean=-500.0)
    # validation included, and nothing S x n or of length S: under a tenth of
    # the matrix here
    assert peak <= 2 * _BLOCK_BYTES + 8 * 8 * n


def _sliding_rows(s, n, seed):
    """An S x n matrix of distinct draws held in S + n floats: draw s is
    x[s:s + n], a read-only view, so S can be large without the memory."""
    x = np.random.default_rng(seed).normal(-2.0, 1.0, size=s + n)
    return np.lib.stride_tricks.as_strided(x, shape=(s, n), strides=(8, 8), writeable=False)


@pytest.mark.parametrize("n", [1, 10, 250])
def test_report_working_memory_does_not_grow_with_the_draws(n):
    few, many = (_traced_peak(_sliding_rows(s, n, seed=n), lpd_at_mean=-5.0) for s in (40_000, 400_000))
    assert many <= few + 64 * 1024
    if n >= 10:
        assert many < 1024 * 1024


@pytest.mark.parametrize("order", ["C", "F"])
def test_report_does_not_depend_on_the_block_size(order, monkeypatch):
    vals = np.asarray(np.random.default_rng(8).normal(-2.0, 1.3, size=(3000, 40)), order=order)
    m = PointwiseLogLikMatrix(vals)
    fit = {"lpd_at_mean": -70.0, "mle": PointEstimateLogLik(-60.0, k=3)}
    want = criterion_report(m, **fit).to_dict()
    for block_bytes in (vals[:1].nbytes, vals.nbytes):  # one draw; the whole matrix
        monkeypatch.setattr(draws, "_BLOCK_BYTES", block_bytes)
        got = criterion_report(m, **fit).to_dict()
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert math.isclose(got[key], value, rel_tol=1e-12), (key, block_bytes, got[key], value)
            else:
                assert got[key] == value, key


# finite log densities whose report overflows: deviations past about 1.3e154
# square to inf, and a column of -9e307 sums to -inf
OVERFLOWING_MATRICES = [
    ([[-1e155, -1.0], [-3e155, -2.0], [-2e155, -1.5]], "p_waic2"),
    ([[-9e307, -1.0], [-9e307, -2.0], [-9e307, -1.5]], "p_waic1"),
]


@pytest.mark.parametrize("vals, field", OVERFLOWING_MATRICES)
def test_a_report_that_overflows_is_refused_naming_the_first_non_finite_field(vals, field):
    # RuntimeWarnings are errors under this suite's settings, so numpy warns of nothing
    with pytest.raises(NonFiniteLogLikError, match=f"^{field} is "):
        criterion_report(_matrix(vals))


@pytest.mark.parametrize("kwargs, field", [
    ({"lpd_at_mean": 1e308}, "p_dic"),
    ({"mle": PointEstimateLogLik(-1e308, k=2)}, "aic"),
])
def test_an_overflowing_point_estimate_field_is_refused(kwargs, field):
    with pytest.raises(NonFiniteLogLikError, match=f"^{field} is "):
        criterion_report(_matrix([[-1.0, -2.0], [-1.5, -2.5]]), **kwargs)
