"""Standalone property suite: the structural invariants every release must
hold, runnable on its own (`pytest tests/test_properties.py`)."""
import math

import numpy as np
import pytest

from predcrit.criteria import PointEstimateLogLik, criterion_report
from predcrit.draws import PointwiseLogLikMatrix, log_mean_exp, lppd
from predcrit.errors import ModelRefusalError
from predcrit.expectation import ReplicationPlan, _chunk_sizes, _replicate_chunk, run_expectation_study
from predcrit.loo import loo_report
from predcrit.models import NormalMeanModel, SchoolsModel, default_eight_schools
from predcrit.seeds import derive_seed


def _random_matrix(rng, s=60, n=6, loc=-2.0, scale=1.5):
    return PointwiseLogLikMatrix(rng.normal(loc, scale, size=(s, n)))


def test_jensen_inequality_per_column():
    rng = np.random.default_rng(314)
    for _ in range(30):
        m = _random_matrix(rng, loc=rng.uniform(-40, 40))
        for i in range(m.n_points):
            col = m.column(i)
            lme = log_mean_exp(col)
            assert lme >= col.mean() - 1e-12 * max(1.0, abs(lme))


def test_p_waic_nonnegativity():
    rng = np.random.default_rng(217)
    for _ in range(30):
        m = _random_matrix(rng, s=int(rng.integers(2, 120)), n=int(rng.integers(1, 12)))
        rep = criterion_report(m)
        assert rep.p_waic1 >= 0.0
        assert rep.p_waic2 >= 0.0


def test_log_mean_exp_shift_invariance_to_1e5():
    rng = np.random.default_rng(55)
    for _ in range(10):
        col = rng.normal(-3, 2, size=40)
        base = log_mean_exp(col)
        for c in (700.0, -700.0, 1e5, -1e5):
            assert log_mean_exp(col + c) - c == pytest.approx(base, abs=1e-9)


def test_deviance_scale_identities():
    rng = np.random.default_rng(88)
    m = _random_matrix(rng, s=100, n=8)
    rep = criterion_report(m, lpd_at_mean=-11.0, mle=PointEstimateLogLik(-10.0, k=4))
    assert rep.waic == -2.0 * (rep.lppd - rep.p_waic2)
    assert rep.dic == -2.0 * rep.lpd_at_mean + 2.0 * rep.p_dic
    assert rep.aic == -2.0 * rep.lpd_at_mle + 2.0 * rep.k
    assert rep.elppd_waic1 == rep.lppd - rep.p_waic1


def test_fold_parallelism_is_bit_reproducible():
    model = NormalMeanModel(m=1.0, mu0=0.5)
    rng = np.random.default_rng(4)
    y = rng.normal(size=5)
    rep = loo_report(model, y, 0.0, draws=4_000, seed=31)
    total, per_point = rep.lppd_loo, rep.per_point
    # folds recomputed independently, in reverse, from derived seeds
    redone = []
    for i in reversed(range(5)):
        fit = model.fit(y, exclude=i, draws=4_000, seed=derive_seed(31, i))
        redone.append(log_mean_exp(fit.pointwise_loglik().column(i)))
    assert redone[::-1] == per_point
    assert loo_report(model, y, 0.0, draws=4_000, seed=31).lppd_loo == total


def test_replicate_parallelism_is_bit_reproducible():
    plan = ReplicationPlan(R=12_000, n=4, seed=77, estimators=("waic2",))
    direct = run_expectation_study(plan).stats["waic2"]
    sizes = _chunk_sizes(plan.R)
    chunks = {c: _replicate_chunk(plan, c, s) for c, s in reversed(list(enumerate(sizes)))}
    vals = np.concatenate([chunks[c]["waic2"] for c in range(len(sizes))])
    assert float(vals.mean()) == direct.mc_mean
    assert float(math.sqrt(vals.var(ddof=1) / plan.R)) == direct.mc_se


def test_no_pooling_loo_refusal_is_the_designated_error():
    with pytest.raises(ModelRefusalError, match="model cannot predict held-out point"):
        loo_report(SchoolsModel("no_pooling"), default_eight_schools(), lppd_full=-30.0, draws=200, seed=1)


def test_loo_report_internal_identities():
    model = NormalMeanModel()
    rng = np.random.default_rng(6)
    y = rng.normal(size=4)
    fit = model.fit(y, draws=3_000, seed=2)
    full = lppd(fit.pointwise_loglik())
    rep = loo_report(model, y, full, draws=3_000, seed=2)
    assert rep.lppd_cloo == rep.lppd_loo + rep.b
    assert rep.p_loo == full - rep.lppd_loo
    assert rep.b == full - rep.lppd_bar_minus_i
    assert rep.p_cloo == rep.lppd_bar_minus_i - rep.lppd_loo
    assert rep.p_cloo == pytest.approx(full - rep.lppd_cloo, abs=1e-12)
