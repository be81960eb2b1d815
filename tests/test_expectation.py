import json
import math
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from click.testing import CliRunner

from predcrit import oracle
from predcrit.cli import main
from predcrit.criteria import criterion_report
from predcrit.expectation import (
    CHUNK,
    ESTIMATOR_NAMES,
    ReplicationPlan,
    _chunk_sizes,
    _replicate_chunk,
    bias_curve,
    run_expectation_study,
)
from predcrit.models import NormalMeanModel, NormalMeanSpec


def test_plan_validation():
    with pytest.raises(ValueError, match="too few replicates for error bars"):
        ReplicationPlan(R=5, n=3)
    with pytest.raises(ValueError, match="unknown estimators"):
        ReplicationPlan(R=100, n=3, estimators=("waic9",))
    with pytest.raises(ValueError, match="require n >= 2"):
        ReplicationPlan(R=100, n=1, estimators=("loo",))
    with pytest.raises(ValueError):
        ReplicationPlan(R=100, n=0)


def test_a_plan_without_theta0_runs_the_study_expect_runs():
    # the true mean is drawn from a proper prior unless it is given; the
    # flat prior has nothing to draw from, and its studies fix it at 0
    plan = ReplicationPlan(R=2_000, n=5, m=1.0, seed=7)
    assert plan.theta0 is None and ReplicationPlan(R=2_000, n=5).theta0 == 0.0
    stats = run_expectation_study(plan).stats
    argv = ["expect", "--n", "5", "--m", "1", "-R", "2000", "--seed", "7", "--format", "json"]
    cli = json.loads(CliRunner().invoke(main, argv).output)
    assert cli["theta0"] is None
    assert cli["estimators"] == {name: asdict(s) for name, s in stats.items()}
    exact = oracle.expectations(5, 1.0)
    for name, s in stats.items():
        assert s.oracle_value == exact[name]


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


def _pointwise_draw_values(plan: ReplicationPlan, seed: int) -> dict:
    """The estimator values of R datasets drawn point by point, y_i ~
    N(theta, 1), and reduced to their statistics with `from_data`."""
    rng = np.random.default_rng(seed)
    blocks = []
    for size in _chunk_sizes(plan.R):
        if plan.theta0 is None:
            theta = rng.standard_normal(size) / math.sqrt(plan.m)
        else:
            theta = np.full(size, plan.theta0)
        spec = NormalMeanSpec.from_data(theta[:, None] + rng.standard_normal((size, plan.n)), m=plan.m)
        blocks.append(oracle.dataset_values(spec, (theta - spec.posterior_mean) ** 2))
    return {name: np.concatenate([b[name] for b in blocks]) for name in plan.estimators}


@pytest.mark.parametrize("n, m", [(2, 0.0), (5, 1.0), (40, 0.0)])
def test_drawn_statistics_give_the_law_of_a_pointwise_draw(n, m):
    # the chunk draws (ybar, s2y), not the points; every estimator must keep
    # the mean and the spread it has when the points are drawn
    plan = ReplicationPlan(R=100_000, n=n, m=m, seed=61)
    kernel = {name: np.concatenate([_replicate_chunk(plan, c, s)[name]
                                    for c, s in enumerate(_chunk_sizes(plan.R))])
              for name in plan.estimators}
    pointwise = _pointwise_draw_values(plan, seed=62)

    def two_sample_z(a, b):
        return (a.mean() - b.mean()) / math.hypot(a.std() / math.sqrt(a.size), b.std() / math.sqrt(b.size))

    for name in plan.estimators:
        a, b = kernel[name], pointwise[name]
        if np.ptp(a) == 0:
            assert np.ptp(b) == 0 and a[0] == pytest.approx(b[0], rel=1e-14), name
            continue
        assert abs(two_sample_z(a, b)) < 4, (name, "mean")
        assert abs(two_sample_z((a - a.mean()) ** 2, (b - b.mean()) ** 2)) < 4, (name, "spread")


def test_a_chunk_allocates_nothing_that_grows_with_n():
    # 400 points per replicate would be 400 x CHUNK doubles; the statistics
    # and the estimator values are a few dozen CHUNK-long arrays
    plan = ReplicationPlan(R=CHUNK, n=400, seed=5)
    tracemalloc.start()
    try:
        _replicate_chunk(plan, 0, CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * CHUNK * 8, peak / (CHUNK * 8)


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
    plan = ReplicationPlan(R=20_000, n=n, m=m, estimators=(name,))
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
        R=60_000, n=10, m=10.0, seed=13,
        estimators=("p_waic1", "p_waic2"),
    )
    result = run_expectation_study(plan)
    for name in ("p_waic1", "p_waic2"):
        s = result.stats[name]
        assert abs(s.mc_mean - 0.5) < 0.05
        assert abs(s.z_score) < 4


def test_fixed_theta_with_informative_prior_matches_unified_oracle():
    # the prior_dev2 = theta0^2 branch of every expectation formula
    plan = ReplicationPlan(R=80_000, n=3, m=1.7, theta0=0.8, seed=21)
    exact = oracle.expectations(3, 1.7, 0.8**2)
    result = run_expectation_study(plan)
    for name, s in result.stats.items():
        assert s.oracle_value == exact[name]
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
    e = oracle.expectations(10)
    assert s.oracle_value == pytest.approx(e["lppd_within"] - e["lppd_bar"], rel=1e-12)
    assert abs(s.z_score) < 4


def test_bias_curve_rows_and_cloo_oracle():
    rows = bias_curve(ReplicationPlan(R=5_000, n=2, seed=17, estimators=("cloo",)), [2, 5, 10])
    assert [r["n"] for r in rows] == [2, 5, 10]
    for r in rows:
        n = r["n"]
        assert r["oracle"] == pytest.approx(-1 / (n**2 + n), rel=1e-9)
        assert abs(r["mc_mean"] - r["oracle"]) < 5 * r["mc_se"]


def test_each_bias_curve_row_is_the_study_at_its_n():
    # every n runs on the plan's own seed, as `expect --n` does
    rows = bias_curve(ReplicationPlan(R=2_000, n=2, m=1.0, seed=9), [2, 5, 40])
    assert len(rows) == 3 * len(ESTIMATOR_NAMES)
    for n in (2, 5, 40):
        stats = run_expectation_study(ReplicationPlan(R=2_000, n=n, m=1.0, seed=9)).stats
        for row in (r for r in rows if r["n"] == n):
            s = stats[row["estimator"]]
            assert (row["mc_mean"], row["mc_se"], row["oracle"]) == (s.mc_mean, s.mc_se, s.oracle_value)


def test_bias_curve_waic_gap_signs():
    for n in (2, 5, 10):
        e = oracle.expectations(n)
        assert e["waic1"] < 0 < e["waic2"]
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
        report = criterion_report(NormalMeanModel().fit(y, draws=100_000, seed=1000 + rep).pointwise_loglik())
        assert abs(report.p_waic2 - closed) < 3 * report.mc_se_p_waic2 + 1e-4


def test_result_json_round_trip():
    plan = ReplicationPlan(R=2_000, n=3, seed=1, estimators=("aic", "p_waic2"))
    result = run_expectation_study(plan)
    decoded = json.loads(json.dumps(result.to_dict()))
    assert decoded["R"] == 2_000
    assert decoded["estimators"]["aic"]["mc_mean"] == result.stats["aic"].mc_mean


def test_result_json_carries_every_setting_of_its_study():
    # a drawn true mean is echoed as null
    for theta0 in (0.8, None):
        plan = ReplicationPlan(R=2_000, n=3, m=1.5, theta0=theta0, seed=4, estimators=("aic", "loo"))
        decoded = json.loads(json.dumps(run_expectation_study(plan).to_dict()))
        settings = {k: decoded[k] for k in ("R", "n", "m", "theta0", "seed")}
        assert ReplicationPlan(**settings, estimators=tuple(decoded["estimators"])) == plan


def test_the_plan_builds_its_studys_exact_table_once(monkeypatch):
    # one oracle.expectations call per plan, at the plan's own prior_dev2;
    # the study reads the plan's table and a k-point sweep builds k + 1
    calls = []
    expectations = oracle.expectations
    monkeypatch.setattr(oracle, "expectations", lambda *args: calls.append(args) or expectations(*args))
    plan = ReplicationPlan(R=200, n=4, m=1.5, theta0=0.5)
    assert calls == [(4, 1.5, 0.25)]
    assert plan.exact == expectations(4, 1.5, 0.25)
    run_expectation_study(plan)
    assert len(calls) == 1
    assert ReplicationPlan(R=200, n=4, m=1.5).exact == expectations(4, 1.5)
    for ns in ("3", "2,5,10"):
        calls.clear()
        result = CliRunner().invoke(main, ["expect", "--n-values", ns, "-R", "200"])
        assert result.exit_code == 0, result.output
        assert len(calls) == len(ns.split(",")) + 1


def test_the_exact_table_is_not_a_setting_of_the_plan():
    plan = ReplicationPlan(R=200, n=3, m=1.0, seed=4, estimators=("aic", "loo"))
    assert "exact" not in asdict(plan)
    assert plan == ReplicationPlan(**asdict(plan))
    moved = replace(plan, n=6)
    assert moved.exact == oracle.expectations(6, 1.0) != plan.exact
    result = run_expectation_study(plan)
    assert result.to_dict() == asdict(plan) | {"estimators": {k: asdict(s) for k, s in result.stats.items()}}


@pytest.mark.parametrize("m", [1e-34, 1e-100])
def test_a_drawn_true_mean_far_from_the_prior_mean_keeps_the_noise(m):
    # theta ~ N(0, 1/m) is ~1e17 or ~1e50 while ybar - theta is ~0.6: the
    # posterior error must come from the drawn noise, not from ybar - theta
    result = CliRunner().invoke(main, ["expect", "--n", "3", "--m", repr(m), "-R", "2000", "--format", "json"])
    assert result.exit_code == 0, result.output
    z = {name: s["z_score"] for name, s in json.loads(result.output)["estimators"].items()}
    assert len(z) == 14
    assert all(abs(v) <= 5 for v in z.values()), z
