import json
import math

import numpy as np
import pytest

from predcrit import oracle
from predcrit.criteria import criterion_report
from predcrit.expectation import (
    ESTIMATOR_NAMES,
    ReplicationPlan,
    _chunk_sizes,
    _replicate_chunk,
    bias_curve,
    run_expectation_study,
)
from predcrit.models import NormalMeanSpec, normal_pointwise_loglik, normal_posterior_draws


def test_plan_validation():
    with pytest.raises(ValueError, match="too few replicates for error bars"):
        ReplicationPlan(R=5, n=3)
    with pytest.raises(ValueError, match="from_prior requires a proper prior"):
        ReplicationPlan(R=100, n=3, m=0.0, theta_source="from_prior")
    with pytest.raises(ValueError, match="unknown estimators"):
        ReplicationPlan(R=100, n=3, estimators=("waic9",))
    with pytest.raises(ValueError, match="require n >= 2"):
        ReplicationPlan(R=100, n=1, estimators=("loo",))
    with pytest.raises(ValueError):
        ReplicationPlan(R=100, n=0)


def test_study_is_bit_reproducible():
    plan = ReplicationPlan(R=5_000, n=4, seed=99)
    r1 = run_expectation_study(plan)
    r2 = run_expectation_study(plan)
    for name in plan.estimators:
        assert r1.stats[name].mc_mean == r2.stats[name].mc_mean
        assert r1.stats[name].mc_se == r2.stats[name].mc_se


def test_chunks_can_be_computed_in_any_order():
    plan = ReplicationPlan(R=20_000, n=3, seed=7, estimators=("waic2", "loo"))
    sizes = _chunk_sizes(plan.R)
    forward = [_replicate_chunk(plan, c, s) for c, s in enumerate(sizes)]
    backward_order = list(enumerate(sizes))[::-1]
    backward = {c: _replicate_chunk(plan, c, s) for c, s in backward_order}
    for name in plan.estimators:
        a = np.concatenate([chunk[name] for chunk in forward])
        b = np.concatenate([backward[c][name] for c in range(len(sizes))])
        assert a.tobytes() == b.tobytes()


def test_chunk_sizes_cover_r_exactly():
    assert sum(_chunk_sizes(100_000)) == 100_000
    assert sum(_chunk_sizes(8192)) == 8192
    assert _chunk_sizes(10) == [10]


def test_flat_prior_p_dic_is_exactly_one_on_every_replicate():
    plan = ReplicationPlan(R=9_000, n=6, m=0.0, seed=3, estimators=("p_dic",))
    vals = np.concatenate(
        [_replicate_chunk(plan, c, s)["p_dic"] for c, s in enumerate(_chunk_sizes(plan.R))]
    )
    assert (vals == 1.0).all()


@pytest.mark.parametrize(
    "n, m, name",
    [(3, 0.7, "p_dic"), (3, 1.0, "p_dic"), (3, 0.3, "p_dic"), (1, 0.0, "p_waic1")],
)
def test_constant_estimator_has_zero_error_and_zero_z(n, m, name):
    # p_dic = n/(m+n) on every replicate, as is p_waic1 at n = 1 under the
    # flat prior; summation rounding must not become a Monte Carlo error
    source = "from_prior" if m > 0 else "fixed"
    plan = ReplicationPlan(R=20_000, n=n, m=m, theta_source=source, estimators=(name,))
    s = run_expectation_study(plan).stats[name]
    assert s.mc_se == 0.0
    assert s.z_score == 0.0


def test_flat_prior_z_scores_are_sane():
    for n in (1, 5):
        plan = ReplicationPlan(R=30_000, n=n, seed=2025)
        # by default every estimator n allows: the five held-out ones need n >= 2
        assert len(plan.estimators) == (len(ESTIMATOR_NAMES) if n >= 2 else len(ESTIMATOR_NAMES) - 5)
        result = run_expectation_study(plan)
        for name, s in result.stats.items():
            assert abs(s.z_score) < 4, (n, name, s)


def test_published_small_sample_expectations():
    plan = ReplicationPlan(R=60_000, n=1, seed=11, estimators=("lppd", "p_waic2"))
    result = run_expectation_study(plan)
    # optimism of the within-sample fit is 0.5 at n = 1
    assert result.stats["lppd"].oracle_value == 0.5
    assert abs(result.stats["lppd"].mc_mean - 0.5) < 3 * result.stats["lppd"].mc_se
    plan10 = ReplicationPlan(R=60_000, n=10, seed=12, estimators=("p_waic2",))
    s = run_expectation_study(plan10).stats["p_waic2"]
    assert s.oracle_value == pytest.approx(0.95, rel=1e-12)
    assert abs(s.mc_mean - 0.95) < 3 * s.mc_se


def test_equally_informative_prior_halves_the_penalties():
    plan = ReplicationPlan(
        R=60_000, n=10, m=10.0, theta_source="from_prior", seed=13,
        estimators=("p_waic1", "p_waic2"),
    )
    result = run_expectation_study(plan)
    for name in ("p_waic1", "p_waic2"):
        s = result.stats[name]
        assert abs(s.mc_mean - 0.5) < 0.05
        assert abs(s.z_score) < 4


def test_fixed_theta_with_informative_prior_matches_unified_oracle():
    # the prior_dev2 = (theta0 - mu0)^2 branch of every expectation formula
    plan = ReplicationPlan(
        R=80_000, n=3, m=1.7, theta_source="fixed", theta0=1.2, mu0=0.4, seed=21,
    )
    result = run_expectation_study(plan)
    for name, s in result.stats.items():
        assert abs(s.z_score) < 4, (name, s)


def test_location_invariance_of_flat_prior_results():
    names = ("aic", "waic2", "loo")
    a = run_expectation_study(
        ReplicationPlan(R=40_000, n=5, theta0=0.0, seed=5, estimators=names)
    )
    b = run_expectation_study(
        ReplicationPlan(R=40_000, n=5, theta0=17.0, seed=6, estimators=names)
    )
    for name in names:
        sa, sb = a.stats[name], b.stats[name]
        combined = math.hypot(sa.mc_se, sb.mc_se)
        assert abs(sa.mc_mean - sb.mc_mean) < 3 * combined


def test_loo_penalty_expectations():
    # corrected-LOO penalty averages to (n-1)/n under the flat prior, and
    # lppd_loo sits below lppd in expectation (positive p_loo)
    plan = ReplicationPlan(R=60_000, n=6, seed=41, estimators=("p_loo", "p_cloo"))
    stats = run_expectation_study(plan).stats
    assert stats["p_cloo"].oracle_value == pytest.approx(5 / 6, rel=1e-11)
    assert abs(stats["p_cloo"].mc_mean - 5 / 6) < 3 * stats["p_cloo"].mc_se
    assert stats["p_loo"].oracle_value > 0
    assert stats["p_loo"].mc_mean > 0
    assert abs(stats["p_loo"].z_score) < 4


def test_expected_b_matches_exact_formula():
    plan = ReplicationPlan(R=60_000, n=10, seed=31, estimators=("b",))
    s = run_expectation_study(plan).stats["b"]
    assert s.oracle_value == pytest.approx(
        oracle.expected_lppd(10) - oracle.expected_lppd_bar(10), rel=1e-12
    )
    assert abs(s.z_score) < 4


def test_bias_curve_rows_and_cloo_oracle():
    rows = bias_curve(ReplicationPlan(R=5_000, n=2, seed=17, estimators=("cloo",)), [2, 5, 10])
    assert [r["n"] for r in rows] == [2, 5, 10]
    for r in rows:
        n = r["n"]
        assert r["oracle"] == pytest.approx(-1 / (n**2 + n), rel=1e-9)
        assert abs(r["mc_mean"] - r["oracle"]) < 5 * r["mc_se"]


def test_bias_curve_waic_gap_signs():
    for n in (2, 5, 10):
        assert oracle.expected_waic1_gap(n) < 0 < oracle.expected_waic2_gap(n)
    rows1 = bias_curve(ReplicationPlan(R=40_000, n=2, seed=19, estimators=("waic1",)), [2, 10])
    rows2 = bias_curve(ReplicationPlan(R=40_000, n=2, seed=19, estimators=("waic2",)), [2, 10])
    for r1, r2 in zip(rows1, rows2):
        assert r1["mc_mean"] < 0 < r2["mc_mean"]


def test_oracle_path_agrees_with_simulation_path():
    # per-replicate closed-form p_waic2 vs the S-draw pipeline estimate
    rng = np.random.default_rng(101)
    for rep in range(3):
        y = rng.normal(0.0, 1.0, size=8)
        spec = NormalMeanSpec.from_data(y)
        closed = oracle.p_waic2(spec)
        theta = normal_posterior_draws(spec, 100_000, seed=1000 + rep)
        report = criterion_report(normal_pointwise_loglik(y, theta))
        assert abs(report.p_waic2 - closed) < 3 * report.mc_se_p_waic2 + 1e-4


def test_result_json_round_trip():
    plan = ReplicationPlan(R=2_000, n=3, seed=1, estimators=("aic", "p_waic2"))
    result = run_expectation_study(plan)
    decoded = json.loads(result.to_json())
    assert decoded["R"] == 2_000
    assert decoded["estimators"]["aic"]["mc_mean"] == result.stats["aic"].mc_mean
